//! Identifiers, addresses, flows and filter formulas shared across the
//! simulator, the Almanac DSL and the FARM runtime.

use std::fmt;
use std::str::FromStr;

/// A switch in the simulated fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u32);

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

/// A physical port on a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u16);

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eth{}", self.0)
    }
}

/// IPv4 address as a 32-bit integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4(pub u32);

impl Ipv4 {
    /// Builds an address from dotted octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Ipv4 {
        Ipv4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most significant first.
    pub(crate) const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// Error parsing an address or prefix from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddrError(pub(crate) String);

impl fmt::Display for ParseAddrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address syntax: {}", self.0)
    }
}

impl std::error::Error for ParseAddrError {}

impl FromStr for Ipv4 {
    type Err = ParseAddrError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split('.');
        let mut octets = [0u8; 4];
        for o in octets.iter_mut() {
            *o = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| ParseAddrError(s.to_string()))?;
        }
        if parts.next().is_some() {
            return Err(ParseAddrError(s.to_string()));
        }
        Ok(Ipv4::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// CIDR prefix (`addr/len`); `len == 32` matches a single host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Prefix {
    pub addr: Ipv4,
    pub len: u8,
}

impl Prefix {
    /// Creates a prefix, normalizing host bits to zero.
    ///
    /// # Panics
    ///
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4, len: u8) -> Prefix {
        assert!(len <= 32, "prefix length out of range");
        Prefix {
            addr: Ipv4(addr.0 & Self::mask(len)),
            len,
        }
    }

    /// A single-host prefix.
    pub fn host(addr: Ipv4) -> Prefix {
        Prefix::new(addr, 32)
    }

    /// The full address space.
    pub const fn any() -> Prefix {
        Prefix {
            addr: Ipv4(0),
            len: 0,
        }
    }

    pub(crate) fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// True if `ip` falls inside this prefix.
    pub(crate) fn contains(&self, ip: Ipv4) -> bool {
        (ip.0 & Self::mask(self.len)) == self.addr.0
    }

    /// True if the two prefixes share any address.
    pub(crate) fn overlaps(&self, other: &Prefix) -> bool {
        let len = self.len.min(other.len);
        (self.addr.0 & Self::mask(len)) == (other.addr.0 & Self::mask(len))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Prefix {
    type Err = ParseAddrError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.split_once('/') {
            Some((a, l)) => {
                let addr: Ipv4 = a.parse()?;
                let len: u8 = l.parse().map_err(|_| ParseAddrError(s.to_string()))?;
                if len > 32 {
                    return Err(ParseAddrError(s.to_string()));
                }
                Ok(Prefix::new(addr, len))
            }
            None => Ok(Prefix::host(s.parse()?)),
        }
    }
}

/// Transport protocol of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Proto {
    Tcp,
    Udp,
    Icmp,
}

impl Proto {
    /// IANA protocol number (the byte a TCAM matches on).
    pub(crate) const fn number(self) -> u8 {
        match self {
            Proto::Tcp => 6,
            Proto::Udp => 17,
            Proto::Icmp => 1,
        }
    }
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Proto::Tcp => "tcp",
            Proto::Udp => "udp",
            Proto::Icmp => "icmp",
        };
        f.write_str(s)
    }
}

/// Five-tuple identifying a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    pub src: Ipv4,
    pub dst: Ipv4,
    pub proto: Proto,
    pub src_port: u16,
    pub dst_port: u16,
}

impl FlowKey {
    /// Convenience constructor for a TCP flow.
    pub fn tcp(src: Ipv4, src_port: u16, dst: Ipv4, dst_port: u16) -> FlowKey {
        FlowKey {
            src,
            dst,
            proto: Proto::Tcp,
            src_port,
            dst_port,
        }
    }

    /// Convenience constructor for a UDP flow.
    pub fn udp(src: Ipv4, src_port: u16, dst: Ipv4, dst_port: u16) -> FlowKey {
        FlowKey {
            src,
            dst,
            proto: Proto::Udp,
            src_port,
            dst_port,
        }
    }

    /// The five-tuple as one 104-bit TCAM search key, most significant
    /// field first: `src(32) | dst(32) | proto(8) | src_port(16) |
    /// dst_port(16)`. [`crate::tcam::FlowMatcher`] matches against it.
    pub fn packed(&self) -> u128 {
        (self.src.0 as u128) << PACKED_SRC_SHIFT
            | (self.dst.0 as u128) << PACKED_DST_SHIFT
            | (self.proto.number() as u128) << PACKED_PROTO_SHIFT
            | (self.src_port as u128) << PACKED_SRC_PORT_SHIFT
            | self.dst_port as u128
    }
}

/// Bit offsets of the fields inside [`FlowKey::packed`] (the destination
/// port sits at bit 0).
pub(crate) const PACKED_SRC_SHIFT: u32 = 72;
pub(crate) const PACKED_DST_SHIFT: u32 = 40;
pub(crate) const PACKED_PROTO_SHIFT: u32 = 32;
pub(crate) const PACKED_SRC_PORT_SHIFT: u32 = 16;

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.proto, self.src, self.src_port, self.dst, self.dst_port
        )
    }
}

/// Selection of switch interfaces for polling subjects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PortSel {
    /// Every port of the switch.
    Any,
    /// One specific port.
    Id(u16),
}

/// An atomic filter proposition (the `fil` non-terminal of Almanac's
/// grammar, Fig. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FilterAtom {
    SrcIp(Prefix),
    DstIp(Prefix),
    SrcPort(u16),
    DstPort(u16),
    Proto(Proto),
    /// Switch interface selector (used by `poll`/`probe` subjects).
    IfPort(PortSel),
}

impl FilterAtom {
    /// True if a flow satisfies this atom. [`FilterAtom::IfPort`] atoms
    /// constrain polling subjects rather than flows and always match here.
    pub(crate) fn matches_flow(&self, flow: &FlowKey) -> bool {
        match self {
            FilterAtom::SrcIp(p) => p.contains(flow.src),
            FilterAtom::DstIp(p) => p.contains(flow.dst),
            FilterAtom::SrcPort(p) => flow.src_port == *p,
            FilterAtom::DstPort(p) => flow.dst_port == *p,
            FilterAtom::Proto(p) => flow.proto == *p,
            FilterAtom::IfPort(_) => true,
        }
    }
}

impl fmt::Display for FilterAtom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterAtom::SrcIp(p) => write!(f, "srcIP {p}"),
            FilterAtom::DstIp(p) => write!(f, "dstIP {p}"),
            FilterAtom::SrcPort(p) => write!(f, "srcPort {p}"),
            FilterAtom::DstPort(p) => write!(f, "dstPort {p}"),
            FilterAtom::Proto(p) => write!(f, "proto {p}"),
            FilterAtom::IfPort(PortSel::Any) => write!(f, "port ANY"),
            FilterAtom::IfPort(PortSel::Id(i)) => write!(f, "port {i}"),
        }
    }
}

/// Closed boolean formula over [`FilterAtom`]s — the output of the paper's
/// `φ^s⟦·⟧` evaluation (§ III-B) and the match language of the TCAM.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FilterFormula {
    True,
    False,
    Atom(FilterAtom),
    And(Box<FilterFormula>, Box<FilterFormula>),
    Or(Box<FilterFormula>, Box<FilterFormula>),
    Not(Box<FilterFormula>),
}

impl FilterFormula {
    /// Conjunction helper.
    pub fn and(self, other: FilterFormula) -> FilterFormula {
        match (self, other) {
            (FilterFormula::True, x) | (x, FilterFormula::True) => x,
            (FilterFormula::False, _) | (_, FilterFormula::False) => FilterFormula::False,
            (a, b) => FilterFormula::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction helper.
    pub fn or(self, other: FilterFormula) -> FilterFormula {
        match (self, other) {
            (FilterFormula::False, x) | (x, FilterFormula::False) => x,
            (FilterFormula::True, _) | (_, FilterFormula::True) => FilterFormula::True,
            (a, b) => FilterFormula::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Negation helper.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> FilterFormula {
        match self {
            FilterFormula::True => FilterFormula::False,
            FilterFormula::False => FilterFormula::True,
            FilterFormula::Not(inner) => *inner,
            other => FilterFormula::Not(Box::new(other)),
        }
    }

    /// Evaluates the formula against a flow.
    pub fn matches_flow(&self, flow: &FlowKey) -> bool {
        match self {
            FilterFormula::True => true,
            FilterFormula::False => false,
            FilterFormula::Atom(a) => a.matches_flow(flow),
            FilterFormula::And(a, b) => a.matches_flow(flow) && b.matches_flow(flow),
            FilterFormula::Or(a, b) => a.matches_flow(flow) || b.matches_flow(flow),
            FilterFormula::Not(a) => !a.matches_flow(flow),
        }
    }

    /// Collects all atoms appearing in the formula.
    pub fn atoms(&self) -> Vec<FilterAtom> {
        let mut out = Vec::new();
        self.collect_atoms(&mut out);
        out
    }

    fn collect_atoms(&self, out: &mut Vec<FilterAtom>) {
        match self {
            FilterFormula::True | FilterFormula::False => {}
            FilterFormula::Atom(a) => out.push(*a),
            FilterFormula::And(a, b) | FilterFormula::Or(a, b) => {
                a.collect_atoms(out);
                b.collect_atoms(out);
            }
            FilterFormula::Not(a) => a.collect_atoms(out),
        }
    }

    /// First source-prefix constraint in the formula, if any (used by path
    /// resolution; conjunctive filters are by far the common case).
    pub fn src_prefix(&self) -> Option<Prefix> {
        self.atoms().iter().find_map(|a| match a {
            FilterAtom::SrcIp(p) => Some(*p),
            _ => None,
        })
    }

    /// First destination-prefix constraint in the formula, if any.
    pub(crate) fn dst_prefix(&self) -> Option<Prefix> {
        self.atoms().iter().find_map(|a| match a {
            FilterAtom::DstIp(p) => Some(*p),
            _ => None,
        })
    }
}

impl fmt::Display for FilterFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FilterFormula::True => write!(f, "true"),
            FilterFormula::False => write!(f, "false"),
            FilterFormula::Atom(a) => write!(f, "{a}"),
            FilterFormula::And(a, b) => write!(f, "({a} and {b})"),
            FilterFormula::Or(a, b) => write!(f, "({a} or {b})"),
            FilterFormula::Not(a) => write!(f, "(not {a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipv4_parse_and_display() {
        let ip: Ipv4 = "10.1.1.4".parse().unwrap();
        assert_eq!(ip, Ipv4::new(10, 1, 1, 4));
        assert_eq!(ip.to_string(), "10.1.1.4");
        assert!("10.1.1".parse::<Ipv4>().is_err());
        assert!("10.1.1.4.5".parse::<Ipv4>().is_err());
        assert!("10.1.1.300".parse::<Ipv4>().is_err());
    }

    #[test]
    fn prefix_contains_and_overlaps() {
        let p: Prefix = "10.0.1.0/24".parse().unwrap();
        assert!(p.contains("10.0.1.200".parse().unwrap()));
        assert!(!p.contains("10.0.2.1".parse().unwrap()));
        let q: Prefix = "10.0.0.0/16".parse().unwrap();
        assert!(p.overlaps(&q));
        let r: Prefix = "10.1.0.0/16".parse().unwrap();
        assert!(!p.overlaps(&r));
        assert!(Prefix::any().contains("1.2.3.4".parse().unwrap()));
    }

    #[test]
    fn prefix_normalizes_host_bits() {
        let p = Prefix::new(Ipv4::new(10, 0, 1, 77), 24);
        assert_eq!(p.addr, Ipv4::new(10, 0, 1, 0));
        assert_eq!(p.to_string(), "10.0.1.0/24");
    }

    #[test]
    fn filter_formula_evaluation() {
        let flow = FlowKey::tcp(Ipv4::new(10, 1, 1, 4), 5555, Ipv4::new(10, 0, 1, 9), 80);
        let f = FilterFormula::Atom(FilterAtom::SrcIp("10.1.1.4/32".parse().unwrap())).and(
            FilterFormula::Atom(FilterAtom::DstIp("10.0.1.0/24".parse().unwrap())),
        );
        assert!(f.matches_flow(&flow));
        let g = f.clone().and(FilterFormula::Atom(FilterAtom::DstPort(443)));
        assert!(!g.matches_flow(&flow));
        assert!(g.clone().not().matches_flow(&flow));
        assert_eq!(f.src_prefix().unwrap().to_string(), "10.1.1.4/32");
        assert_eq!(f.dst_prefix().unwrap().to_string(), "10.0.1.0/24");
    }

    #[test]
    fn formula_simplification_helpers() {
        let t = FilterFormula::True;
        let atom = FilterFormula::Atom(FilterAtom::DstPort(53));
        assert_eq!(t.clone().and(atom.clone()), atom);
        assert_eq!(FilterFormula::False.or(atom.clone()), atom);
        assert_eq!(FilterFormula::True.not(), FilterFormula::False);
        assert_eq!(atom.clone().not().not(), atom);
    }

    #[test]
    fn ifport_atoms_do_not_constrain_flows() {
        let flow = FlowKey::udp(Ipv4::new(1, 1, 1, 1), 1, Ipv4::new(2, 2, 2, 2), 2);
        assert!(FilterAtom::IfPort(PortSel::Any).matches_flow(&flow));
        assert!(FilterAtom::IfPort(PortSel::Id(3)).matches_flow(&flow));
    }
}
