//! Ternary content-addressable memory (TCAM) model.
//!
//! FARM's soil "carefully divides the ASIC's TCAM between monitoring and
//! packet forwarding such that the switching behavior is not affected when
//! rearranging the TCAM due to FARM operation" (§ II-B, inspired by
//! iSTAMP). This model keeps the two regions separate: forwarding rules
//! decide packet handling; monitoring rules only count and mirror, and their
//! region has its own capacity so monitoring churn can never evict a
//! forwarding entry.

use std::fmt;

use crate::types::{
    FilterAtom, FilterFormula, FlowKey, PortId, Prefix, PACKED_DST_SHIFT, PACKED_PROTO_SHIFT,
    PACKED_SRC_PORT_SHIFT, PACKED_SRC_SHIFT,
};

/// Identifier of an installed TCAM rule (unique per switch lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(pub u64);

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rule{}", self.0)
    }
}

/// Region of the TCAM a rule lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcamRegion {
    /// Packet-forwarding entries; never touched by monitoring churn.
    Forwarding,
    /// Monitoring entries installed by seeds (counting, mirroring,
    /// reactions like rate limits).
    Monitoring,
}

/// What a matching rule does to traffic.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleAction {
    /// Forward out of a port.
    Forward(PortId),
    /// Drop matching traffic.
    Drop,
    /// Cap matching traffic to a byte rate (bytes/s) — the HH example's
    /// typical local reaction.
    RateLimit(u64),
    /// Change QoS class of matching packets.
    SetQos(u8),
    /// Mirror matching packets to the CPU (probing support).
    Mirror,
    /// Count only — the default for polling subjects.
    Count,
}

/// A TCAM entry: match pattern + action + priority.
#[derive(Debug, Clone, PartialEq)]
pub struct TcamRule {
    pub id: RuleId,
    pub priority: i32,
    pub pattern: FilterFormula,
    pub action: RuleAction,
    pub region: TcamRegion,
}

/// Per-rule traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleStats {
    pub bytes: u64,
    pub packets: u64,
}

/// Errors from TCAM mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcamError {
    /// The target region is full.
    RegionFull(TcamRegion),
    /// No rule matches the given pattern/id.
    NoSuchRule,
}

impl fmt::Display for TcamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcamError::RegionFull(r) => write!(f, "tcam region {r:?} is full"),
            TcamError::NoSuchRule => write!(f, "no such tcam rule"),
        }
    }
}

impl std::error::Error for TcamError {}

/// A [`FilterFormula`] compiled for lookup against [`FlowKey::packed`]
/// search keys: a ternary `(value, mask)` entry, the way a hardware TCAM
/// stores a pattern, plus whatever of the formula a single entry cannot
/// express. A conjunction of atoms — every rule the catalog programs
/// install — has no such rest; `Or` and `Not` keep their shape over
/// matchers of their own, so every formula is decided on the packed key
/// alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowMatcher {
    /// Hit iff `key & mask == value` (and `rest` agrees).
    value: u128,
    mask: u128,
    rest: Option<Box<Rest>>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Rest {
    Or(FlowMatcher, FlowMatcher),
    Not(FlowMatcher),
    Both(Box<Rest>, Box<Rest>),
}

impl Rest {
    fn hit(&self, key: u128) -> bool {
        match self {
            Rest::Or(a, b) => a.matches(key) || b.matches(key),
            Rest::Not(a) => !a.matches(key),
            Rest::Both(a, b) => a.hit(key) && b.hit(key),
        }
    }
}

impl FlowMatcher {
    /// Don't-care on every bit.
    const ANY: FlowMatcher = FlowMatcher {
        value: 0,
        mask: 0,
        rest: None,
    };
    /// A value bit above the 104-bit key that no mask covers: never a
    /// hit, and still never one after being and-ed with another entry.
    const NEVER: FlowMatcher = FlowMatcher {
        value: 1 << 127,
        mask: 0,
        rest: None,
    };

    fn field(value: u128, mask: u128, shift: u32) -> FlowMatcher {
        FlowMatcher {
            value: value << shift,
            mask: mask << shift,
            rest: None,
        }
    }

    fn only(rest: Rest) -> FlowMatcher {
        FlowMatcher {
            rest: Some(Box::new(rest)),
            ..FlowMatcher::ANY
        }
    }

    /// Compiles a formula; `matches(flow.packed())` then equals
    /// [`FilterFormula::matches_flow`] for every flow.
    pub fn compile(formula: &FilterFormula) -> FlowMatcher {
        match formula {
            FilterFormula::True => FlowMatcher::ANY,
            FilterFormula::False => FlowMatcher::NEVER,
            FilterFormula::Atom(atom) => match *atom {
                FilterAtom::SrcIp(p) => FlowMatcher::field(
                    p.addr.0 as u128,
                    Prefix::mask(p.len) as u128,
                    PACKED_SRC_SHIFT,
                ),
                FilterAtom::DstIp(p) => FlowMatcher::field(
                    p.addr.0 as u128,
                    Prefix::mask(p.len) as u128,
                    PACKED_DST_SHIFT,
                ),
                FilterAtom::SrcPort(p) => {
                    FlowMatcher::field(p as u128, 0xffff, PACKED_SRC_PORT_SHIFT)
                }
                FilterAtom::DstPort(p) => FlowMatcher::field(p as u128, 0xffff, 0),
                FilterAtom::Proto(p) => {
                    FlowMatcher::field(p.number() as u128, 0xff, PACKED_PROTO_SHIFT)
                }
                // Interface selectors constrain polling subjects, not flows.
                FilterAtom::IfPort(_) => FlowMatcher::ANY,
            },
            FilterFormula::And(a, b) => {
                let (a, b) = (FlowMatcher::compile(a), FlowMatcher::compile(b));
                if (a.value ^ b.value) & a.mask & b.mask != 0 {
                    // The two sides pin a shared bit differently.
                    return FlowMatcher::NEVER;
                }
                FlowMatcher {
                    value: a.value | b.value,
                    mask: a.mask | b.mask,
                    rest: match (a.rest, b.rest) {
                        (Some(a), Some(b)) => Some(Box::new(Rest::Both(a, b))),
                        (a, b) => a.or(b),
                    },
                }
            }
            FilterFormula::Or(a, b) => {
                FlowMatcher::only(Rest::Or(FlowMatcher::compile(a), FlowMatcher::compile(b)))
            }
            FilterFormula::Not(a) => FlowMatcher::only(Rest::Not(FlowMatcher::compile(a))),
        }
    }

    /// True if the flow behind the packed search key satisfies the
    /// formula.
    #[inline]
    pub fn matches(&self, key: u128) -> bool {
        key & self.mask == self.value && self.rest.as_ref().is_none_or(|rest| rest.hit(key))
    }
}

/// What a lookup touches per rule, index-aligned with [`Tcam::rules`]:
/// the compiled pattern, the counters and the rate limit, kept apart
/// from the descriptive [`TcamRule`] so the per-packet walk stays dense.
#[derive(Debug, Clone)]
struct Lane {
    matcher: FlowMatcher,
    stats: RuleStats,
    /// Byte rate of a [`RuleAction::RateLimit`] rule.
    limit: Option<u64>,
}

/// The TCAM of one switch.
#[derive(Debug, Clone)]
pub struct Tcam {
    capacity: usize,
    monitoring_reserve: usize,
    /// Highest priority first, insertion order among equals.
    rules: Vec<TcamRule>,
    lanes: Vec<Lane>,
    /// Entries in use per region, indexed by [`region_index`].
    used: [usize; 2],
    next_id: u64,
}

fn region_index(region: TcamRegion) -> usize {
    match region {
        TcamRegion::Forwarding => 0,
        TcamRegion::Monitoring => 1,
    }
}

impl Tcam {
    /// Creates a TCAM with `capacity` total entries, of which
    /// `monitoring_reserve` are set aside for the monitoring region.
    ///
    /// # Panics
    ///
    /// Panics if the reserve exceeds the capacity.
    pub fn new(capacity: usize, monitoring_reserve: usize) -> Tcam {
        assert!(
            monitoring_reserve <= capacity,
            "monitoring reserve exceeds TCAM capacity"
        );
        Tcam {
            capacity,
            monitoring_reserve,
            rules: Vec::new(),
            lanes: Vec::new(),
            used: [0; 2],
            next_id: 0,
        }
    }

    /// Entries available to the given region.
    pub(crate) fn region_capacity(&self, region: TcamRegion) -> usize {
        match region {
            TcamRegion::Monitoring => self.monitoring_reserve,
            TcamRegion::Forwarding => self.capacity - self.monitoring_reserve,
        }
    }

    /// Entries currently used by the given region.
    pub fn region_used(&self, region: TcamRegion) -> usize {
        self.used[region_index(region)]
    }

    /// Free monitoring entries — the `TCAM` resource seeds consume.
    pub fn monitoring_free(&self) -> usize {
        self.region_capacity(TcamRegion::Monitoring) - self.region_used(TcamRegion::Monitoring)
    }

    /// Installs a rule into a region.
    ///
    /// # Errors
    ///
    /// [`TcamError::RegionFull`] if the region has no free entries.
    pub fn add_rule(
        &mut self,
        region: TcamRegion,
        priority: i32,
        pattern: FilterFormula,
        action: RuleAction,
    ) -> Result<RuleId, TcamError> {
        if self.region_used(region) >= self.region_capacity(region) {
            return Err(TcamError::RegionFull(region));
        }
        let id = RuleId(self.next_id);
        self.next_id += 1;
        // Behind every rule of equal or higher priority, so equal
        // priorities keep insertion order (deterministic match resolution).
        let pos = self.rules.partition_point(|r| r.priority >= priority);
        self.lanes.insert(
            pos,
            Lane {
                matcher: FlowMatcher::compile(&pattern),
                stats: RuleStats::default(),
                limit: match action {
                    RuleAction::RateLimit(bps) => Some(bps),
                    _ => None,
                },
            },
        );
        self.rules.insert(
            pos,
            TcamRule {
                id,
                priority,
                pattern,
                action,
                region,
            },
        );
        self.used[region_index(region)] += 1;
        Ok(id)
    }

    fn remove_at(&mut self, pos: usize) -> TcamRule {
        self.lanes.remove(pos);
        let rule = self.rules.remove(pos);
        self.used[region_index(rule.region)] -= 1;
        rule
    }

    fn position(&self, id: RuleId) -> Option<usize> {
        self.rules.iter().position(|r| r.id == id)
    }

    /// Removes a rule by id.
    ///
    /// # Errors
    ///
    /// [`TcamError::NoSuchRule`] if the id is not installed.
    pub fn remove_rule(&mut self, id: RuleId) -> Result<TcamRule, TcamError> {
        let pos = self.position(id).ok_or(TcamError::NoSuchRule)?;
        Ok(self.remove_at(pos))
    }

    /// Removes the first monitoring rule of `priority` whose pattern
    /// equals `pattern` (the runtime library's `removeTCAMRule(filter)`,
    /// at the priority the rules seeds add carry).
    ///
    /// # Errors
    ///
    /// [`TcamError::NoSuchRule`] if nothing matches.
    pub fn remove_by_pattern(
        &mut self,
        pattern: &FilterFormula,
        priority: i32,
    ) -> Result<TcamRule, TcamError> {
        let pos = self
            .rules
            .iter()
            .position(|r| {
                r.region == TcamRegion::Monitoring
                    && r.priority == priority
                    && &r.pattern == pattern
            })
            .ok_or(TcamError::NoSuchRule)?;
        Ok(self.remove_at(pos))
    }

    /// Looks up a rule by id.
    pub fn rule(&self, id: RuleId) -> Option<&TcamRule> {
        self.rules.iter().find(|r| r.id == id)
    }

    /// All installed rules, highest priority first.
    pub fn rules(&self) -> &[TcamRule] {
        &self.rules
    }

    /// Highest-priority *forwarding* rule matching the flow. Monitoring
    /// rules never influence forwarding — that is the invariant of the
    /// region division.
    pub fn forwarding_match(&self, flow: &FlowKey) -> Option<&TcamRule> {
        let key = flow.packed();
        self.rules
            .iter()
            .zip(&self.lanes)
            .find(|(r, l)| r.region == TcamRegion::Forwarding && l.matcher.matches(key))
            .map(|(r, _)| r)
    }

    /// Records observed traffic against every matching rule's counters (in
    /// both regions; counting is what monitoring rules are for) and returns
    /// the effective rate limit, if any monitoring rule imposes one.
    pub fn record_traffic(&mut self, flow: &FlowKey, bytes: u64, packets: u64) -> Option<u64> {
        let key = flow.packed();
        let mut limit = None;
        for lane in &mut self.lanes {
            if lane.matcher.matches(key) {
                lane.stats.bytes += bytes;
                lane.stats.packets += packets;
                if let Some(bps) = lane.limit {
                    limit = Some(limit.map_or(bps, |l: u64| l.min(bps)));
                }
            }
        }
        limit
    }

    /// Counter snapshot for one rule.
    pub fn stats(&self, id: RuleId) -> Option<RuleStats> {
        self.position(id).map(|pos| self.lanes[pos].stats)
    }

    /// Iterates `(rule, stats)` for every installed rule.
    pub fn iter_stats(&self) -> impl Iterator<Item = (&TcamRule, RuleStats)> + '_ {
        self.rules
            .iter()
            .zip(&self.lanes)
            .map(|(r, l)| (r, l.stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Ipv4;

    fn pat(dst: &str) -> FilterFormula {
        FilterFormula::Atom(FilterAtom::DstIp(dst.parse::<Prefix>().unwrap()))
    }

    fn flow(dst: Ipv4) -> FlowKey {
        FlowKey::tcp(Ipv4::new(10, 9, 9, 9), 1234, dst, 80)
    }

    #[test]
    fn region_division_is_enforced() {
        let mut t = Tcam::new(10, 4);
        assert_eq!(t.region_capacity(TcamRegion::Monitoring), 4);
        assert_eq!(t.region_capacity(TcamRegion::Forwarding), 6);
        for _ in 0..4 {
            t.add_rule(
                TcamRegion::Monitoring,
                0,
                pat("10.0.0.0/8"),
                RuleAction::Count,
            )
            .unwrap();
        }
        assert_eq!(
            t.add_rule(
                TcamRegion::Monitoring,
                0,
                pat("10.0.0.0/8"),
                RuleAction::Count
            ),
            Err(TcamError::RegionFull(TcamRegion::Monitoring))
        );
        // Forwarding region unaffected by monitoring being full.
        assert!(t
            .add_rule(
                TcamRegion::Forwarding,
                0,
                pat("0.0.0.0/0"),
                RuleAction::Forward(PortId(1))
            )
            .is_ok());
        assert_eq!(t.monitoring_free(), 0);
    }

    #[test]
    fn monitoring_rules_never_affect_forwarding() {
        let mut t = Tcam::new(10, 5);
        t.add_rule(
            TcamRegion::Monitoring,
            100, // even at a higher priority
            pat("10.0.1.0/24"),
            RuleAction::Drop,
        )
        .unwrap();
        let fwd = t
            .add_rule(
                TcamRegion::Forwarding,
                0,
                pat("10.0.0.0/8"),
                RuleAction::Forward(PortId(7)),
            )
            .unwrap();
        let m = t.forwarding_match(&flow(Ipv4::new(10, 0, 1, 5))).unwrap();
        assert_eq!(m.id, fwd);
        assert_eq!(m.action, RuleAction::Forward(PortId(7)));
    }

    #[test]
    fn priority_orders_matches() {
        let mut t = Tcam::new(10, 0);
        t.add_rule(
            TcamRegion::Forwarding,
            1,
            pat("10.0.0.0/8"),
            RuleAction::Forward(PortId(1)),
        )
        .unwrap();
        let hi = t
            .add_rule(
                TcamRegion::Forwarding,
                9,
                pat("10.0.1.0/24"),
                RuleAction::Forward(PortId(2)),
            )
            .unwrap();
        assert_eq!(
            t.forwarding_match(&flow(Ipv4::new(10, 0, 1, 1)))
                .unwrap()
                .id,
            hi
        );
    }

    #[test]
    fn counters_accumulate_per_rule() {
        let mut t = Tcam::new(10, 5);
        let id = t
            .add_rule(
                TcamRegion::Monitoring,
                0,
                pat("10.0.1.0/24"),
                RuleAction::Count,
            )
            .unwrap();
        t.record_traffic(&flow(Ipv4::new(10, 0, 1, 1)), 1500, 1);
        t.record_traffic(&flow(Ipv4::new(10, 0, 1, 2)), 500, 1);
        t.record_traffic(&flow(Ipv4::new(10, 5, 0, 1)), 999, 1); // no match
        let s = t.stats(id).unwrap();
        assert_eq!(s.bytes, 2000);
        assert_eq!(s.packets, 2);
    }

    #[test]
    fn rate_limit_action_reported() {
        let mut t = Tcam::new(10, 5);
        t.add_rule(
            TcamRegion::Monitoring,
            0,
            pat("10.0.1.0/24"),
            RuleAction::RateLimit(1_000_000),
        )
        .unwrap();
        assert_eq!(
            t.record_traffic(&flow(Ipv4::new(10, 0, 1, 1)), 100, 1),
            Some(1_000_000)
        );
        assert_eq!(
            t.record_traffic(&flow(Ipv4::new(10, 9, 1, 1)), 100, 1),
            None
        );
    }

    #[test]
    fn remove_by_pattern_and_get_by_pattern() {
        let mut t = Tcam::new(10, 5);
        let p = pat("10.0.1.0/24");
        t.add_rule(TcamRegion::Monitoring, 0, p.clone(), RuleAction::Count)
            .unwrap();
        assert_eq!(t.rules().len(), 1);
        assert_eq!(t.remove_by_pattern(&p, 10), Err(TcamError::NoSuchRule));
        t.remove_by_pattern(&p, 0).unwrap();
        assert!(t.rules().is_empty());
        assert_eq!(t.remove_by_pattern(&p, 0), Err(TcamError::NoSuchRule));
    }

    #[test]
    fn counters_follow_their_rule_when_positions_shift() {
        let mut t = Tcam::new(10, 6);
        let add = |t: &mut Tcam, prio: i32, dst: &str| {
            t.add_rule(TcamRegion::Monitoring, prio, pat(dst), RuleAction::Count)
                .unwrap()
        };
        let low = add(&mut t, 0, "10.0.1.0/24");
        t.record_traffic(&flow(Ipv4::new(10, 0, 1, 1)), 100, 1);
        // A higher priority lands in front of `low`, an equal one behind.
        let high = add(&mut t, 5, "10.0.0.0/8");
        let peer = add(&mut t, 0, "10.0.1.0/24");
        let order: Vec<RuleId> = t.rules().iter().map(|r| r.id).collect();
        assert_eq!(order, vec![high, low, peer]);
        t.record_traffic(&flow(Ipv4::new(10, 0, 1, 2)), 10, 1);
        assert_eq!(t.stats(low).unwrap().bytes, 110);
        assert_eq!(t.stats(high).unwrap().bytes, 10);
        assert_eq!(t.stats(peer).unwrap().bytes, 10);
        // Removing the front rule shifts the other two down a position.
        assert_eq!(t.remove_rule(high).unwrap().id, high);
        assert_eq!(t.stats(high), None);
        assert!(t.rule(high).is_none());
        assert_eq!(t.stats(low).unwrap().bytes, 110);
        assert_eq!(t.rule(peer).unwrap().priority, 0);
        // By pattern: the first of the two equal patterns goes.
        assert_eq!(t.remove_by_pattern(&pat("10.0.1.0/24"), 0).unwrap().id, low);
        assert_eq!(t.stats(peer).unwrap().packets, 1);
        assert_eq!(t.region_used(TcamRegion::Monitoring), 1);
        assert_eq!(t.monitoring_free(), 5);
        assert_eq!(t.region_used(TcamRegion::Forwarding), 0);
    }
}
