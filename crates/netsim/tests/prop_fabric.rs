//! Properties of the indexed fabric state, each against the
//! implementation it replaced, kept here as the oracle:
//!
//! * the compiled ternary matcher ≡ `FilterFormula::matches_flow`,
//! * `Tcam` (priority-partitioned insert, inline counters, region
//!   counters) ≡ a push-and-stable-sort rule list with a `HashMap` of
//!   counters,
//! * `Network::reachable` ≡ one breadth-first search per switch, after
//!   every switch or link fault.

use std::collections::{BTreeSet, HashMap, VecDeque};

use farm_netsim::network::Network;
use farm_netsim::switch::SwitchModel;
use farm_netsim::tcam::{
    FlowMatcher, RuleAction, RuleId, RuleStats, Tcam, TcamError, TcamRegion, TcamRule,
};
use farm_netsim::topology::{Link, Role, SwitchNode, Topology};
use farm_netsim::types::{
    FilterAtom, FilterFormula, FlowKey, Ipv4, PortId, PortSel, Prefix, Proto, SwitchId,
};
use proptest::prelude::*;

// ---------------------------------------------------------------- strategies

/// Addresses from a pool small enough that generated prefixes and flows
/// meet, with the extremes of every octet in it.
fn addr() -> BoxedStrategy<Ipv4> {
    let octet = || prop_oneof![Just(0u8), Just(1), Just(2), Just(128), Just(255)];
    (Just(10u8), octet(), octet(), octet())
        .prop_map(|(a, b, c, d)| Ipv4::new(a, b, c, d))
        .boxed()
}

fn port() -> BoxedStrategy<u16> {
    prop_oneof![Just(0u16), Just(22), Just(53), Just(80), Just(65535)].boxed()
}

fn proto() -> BoxedStrategy<Proto> {
    prop_oneof![Just(Proto::Tcp), Just(Proto::Udp), Just(Proto::Icmp)].boxed()
}

fn prefix() -> BoxedStrategy<Prefix> {
    let len = prop_oneof![Just(0u8), Just(8), Just(24), Just(31), Just(32), 0u8..=32];
    (addr(), len).prop_map(|(a, l)| Prefix::new(a, l)).boxed()
}

fn atom() -> BoxedStrategy<FilterFormula> {
    prop_oneof![
        prefix().prop_map(FilterAtom::SrcIp),
        prefix().prop_map(FilterAtom::DstIp),
        port().prop_map(FilterAtom::SrcPort),
        port().prop_map(FilterAtom::DstPort),
        proto().prop_map(FilterAtom::Proto),
        Just(FilterAtom::IfPort(PortSel::Any)),
        (0u16..4).prop_map(|p| FilterAtom::IfPort(PortSel::Id(p))),
    ]
    .prop_map(FilterFormula::Atom)
    .boxed()
}

fn leaf() -> BoxedStrategy<FilterFormula> {
    prop_oneof![
        atom(),
        atom(),
        atom(),
        Just(FilterFormula::True),
        Just(FilterFormula::False),
    ]
    .boxed()
}

/// Raw constructors, not the simplifying `and`/`or`/`not` helpers: the
/// matcher has to cope with `True`/`False` inside a tree, double
/// negation and contradictions such as `proto tcp ∧ proto udp`. Only the
/// branch a case takes is built (`prop_flat_map`); the whole strategy
/// tree of depth four would be thousands of nodes per case.
fn formula(depth: u32) -> BoxedStrategy<FilterFormula> {
    if depth == 0 {
        return leaf();
    }
    (0u8..5)
        .prop_flat_map(move |shape| {
            let sub = || formula(depth - 1);
            let pair = |make: fn(Box<FilterFormula>, Box<FilterFormula>) -> FilterFormula| {
                (sub(), sub())
                    .prop_map(move |(a, b)| make(Box::new(a), Box::new(b)))
                    .boxed()
            };
            match shape {
                0 => leaf(),
                // Conjunctions twice: they are what folds into one
                // ternary entry.
                1 | 2 => pair(FilterFormula::And),
                3 => pair(FilterFormula::Or),
                _ => sub().prop_map(|a| FilterFormula::Not(Box::new(a))).boxed(),
            }
        })
        .boxed()
}

fn flow() -> BoxedStrategy<FlowKey> {
    (addr(), addr(), proto(), port(), port())
        .prop_map(|(src, dst, proto, src_port, dst_port)| FlowKey {
            src,
            dst,
            proto,
            src_port,
            dst_port,
        })
        .boxed()
}

// ------------------------------------------------------------------ matcher

proptest! {
    #[test]
    fn compiled_matcher_equals_tree_evaluation(
        f in formula(4),
        flows in proptest::collection::vec(flow(), 1..24),
    ) {
        let m = FlowMatcher::compile(&f);
        for fl in &flows {
            prop_assert_eq!(m.matches(fl.packed()), f.matches_flow(fl), "{} on {}", f, fl);
        }
    }
}

#[test]
fn matcher_edge_cases() {
    let a = |x: FilterAtom| FilterFormula::Atom(x);
    let and = |x: FilterFormula, y: FilterFormula| FilterFormula::And(Box::new(x), Box::new(y));
    let tcp = FlowKey::tcp(Ipv4::new(10, 1, 2, 3), 1000, Ipv4::new(10, 9, 9, 9), 80);
    let udp = FlowKey {
        proto: Proto::Udp,
        ..tcp
    };
    let cases = [
        // Contradiction: compiles to never-match.
        and(
            a(FilterAtom::Proto(Proto::Tcp)),
            a(FilterAtom::Proto(Proto::Udp)),
        ),
        // A contradiction stays one under further conjunction.
        and(
            and(a(FilterAtom::DstPort(80)), a(FilterAtom::DstPort(81))),
            a(FilterAtom::SrcIp(Prefix::any())),
        ),
        // /0 constrains nothing, /32 pins every bit.
        a(FilterAtom::SrcIp(Prefix::any())),
        a(FilterAtom::SrcIp(Prefix::host(tcp.src))),
        a(FilterAtom::DstIp(Prefix::host(tcp.src))),
        // Two prefixes on one field: the longer wins when they nest …
        and(
            a(FilterAtom::SrcIp("10.1.0.0/16".parse().unwrap())),
            a(FilterAtom::SrcIp("10.1.2.0/24".parse().unwrap())),
        ),
        // … and nothing matches when they are disjoint.
        and(
            a(FilterAtom::SrcIp("10.1.0.0/16".parse().unwrap())),
            a(FilterAtom::SrcIp("10.2.0.0/16".parse().unwrap())),
        ),
        and(
            a(FilterAtom::IfPort(PortSel::Id(3))),
            a(FilterAtom::DstPort(80)),
        ),
        and(
            a(FilterAtom::Proto(Proto::Tcp)),
            FilterFormula::Not(Box::new(a(FilterAtom::DstPort(80)))),
        ),
        FilterFormula::Not(Box::new(FilterFormula::False)),
    ];
    for f in &cases {
        let m = FlowMatcher::compile(f);
        for fl in [&tcp, &udp] {
            assert_eq!(m.matches(fl.packed()), f.matches_flow(fl), "{f} on {fl}");
        }
    }
}

// --------------------------------------------------------------------- tcam

#[derive(Debug, Clone)]
enum TcamOp {
    Add(TcamRegion, i32, FilterFormula, RuleAction),
    /// Index into the ids issued so far (live or already removed).
    RemoveRule(usize),
    RemoveByPattern(FilterFormula, i32),
    Record(FlowKey, u64, u64),
}

/// A handful of patterns, so that `remove_by_pattern` finds duplicates.
fn pattern() -> BoxedStrategy<FilterFormula> {
    let dst = |s: &str| FilterFormula::Atom(FilterAtom::DstIp(s.parse().unwrap()));
    prop_oneof![
        Just(FilterFormula::True),
        Just(dst("10.0.0.0/8")),
        Just(dst("10.1.0.0/16")),
        Just(dst("10.1.2.0/24").and(FilterFormula::Atom(FilterAtom::Proto(Proto::Udp)))),
        Just(FilterFormula::Atom(FilterAtom::DstPort(22)).or(dst("10.255.0.0/16"))),
        Just(FilterFormula::Atom(FilterAtom::Proto(Proto::Tcp)).not()),
    ]
    .boxed()
}

fn tcam_op() -> BoxedStrategy<TcamOp> {
    let region = prop_oneof![Just(TcamRegion::Monitoring), Just(TcamRegion::Forwarding)];
    let action = prop_oneof![
        Just(RuleAction::Count),
        Just(RuleAction::Drop),
        Just(RuleAction::Forward(PortId(1))),
        (1u64..5).prop_map(|m| RuleAction::RateLimit(m * 1_000)),
    ];
    prop_oneof![
        (region, -2i32..3, pattern(), action).prop_map(|(r, p, f, a)| TcamOp::Add(r, p, f, a)),
        (0usize..64).prop_map(TcamOp::RemoveRule),
        (pattern(), -2i32..3).prop_map(|(f, p)| TcamOp::RemoveByPattern(f, p)),
        (flow(), 1u64..2000, 1u64..4).prop_map(|(f, b, p)| TcamOp::Record(f, b, p)),
        (flow(), 1u64..2000, 1u64..4).prop_map(|(f, b, p)| TcamOp::Record(f, b, p)),
    ]
    .boxed()
}

/// The rule table as it was: append, stable-sort by descending priority,
/// counters in a map beside it, every query a scan.
struct ModelTcam {
    capacity: usize,
    reserve: usize,
    rules: Vec<TcamRule>,
    stats: HashMap<RuleId, RuleStats>,
    next_id: u64,
}

impl ModelTcam {
    fn region_capacity(&self, region: TcamRegion) -> usize {
        match region {
            TcamRegion::Monitoring => self.reserve,
            TcamRegion::Forwarding => self.capacity - self.reserve,
        }
    }

    fn region_used(&self, region: TcamRegion) -> usize {
        self.rules.iter().filter(|r| r.region == region).count()
    }

    fn add(
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
        self.rules.push(TcamRule {
            id,
            priority,
            pattern,
            action,
            region,
        });
        self.rules.sort_by_key(|r| std::cmp::Reverse(r.priority));
        self.stats.insert(id, RuleStats::default());
        Ok(id)
    }

    fn remove_where(&mut self, pred: impl Fn(&TcamRule) -> bool) -> Result<TcamRule, TcamError> {
        let pos = self
            .rules
            .iter()
            .position(pred)
            .ok_or(TcamError::NoSuchRule)?;
        let rule = self.rules.remove(pos);
        self.stats.remove(&rule.id);
        Ok(rule)
    }

    fn record(&mut self, flow: &FlowKey, bytes: u64, packets: u64) -> Option<u64> {
        let mut limit: Option<u64> = None;
        for r in &self.rules {
            if r.pattern.matches_flow(flow) {
                let s = self.stats.entry(r.id).or_default();
                s.bytes += bytes;
                s.packets += packets;
                if let RuleAction::RateLimit(bps) = r.action {
                    limit = Some(limit.map_or(bps, |l| l.min(bps)));
                }
            }
        }
        limit
    }
}

proptest! {
    #[test]
    fn tcam_equals_the_sorted_list_model(ops in proptest::collection::vec(tcam_op(), 1..60)) {
        let (capacity, reserve) = (9, 5);
        let mut tcam = Tcam::new(capacity, reserve);
        let mut model = ModelTcam {
            capacity,
            reserve,
            rules: Vec::new(),
            stats: HashMap::new(),
            next_id: 0,
        };
        for op in ops {
            match op {
                TcamOp::Add(region, priority, pattern, action) => prop_assert_eq!(
                    tcam.add_rule(region, priority, pattern.clone(), action.clone()),
                    model.add(region, priority, pattern, action)
                ),
                TcamOp::RemoveRule(k) => {
                    // Mostly an id that was issued, sometimes one that never was.
                    let id = RuleId(k as u64 % (model.next_id + 2));
                    prop_assert_eq!(tcam.remove_rule(id), model.remove_where(|r| r.id == id));
                }
                TcamOp::RemoveByPattern(p, priority) => prop_assert_eq!(
                    tcam.remove_by_pattern(&p, priority),
                    model.remove_where(|r| {
                        r.region == TcamRegion::Monitoring && r.priority == priority && r.pattern == p
                    })
                ),
                TcamOp::Record(flow, bytes, packets) => {
                    prop_assert_eq!(
                        tcam.forwarding_match(&flow),
                        model.rules.iter().find(|r| {
                            r.region == TcamRegion::Forwarding && r.pattern.matches_flow(&flow)
                        })
                    );
                    prop_assert_eq!(
                        tcam.record_traffic(&flow, bytes, packets),
                        model.record(&flow, bytes, packets)
                    );
                }
            }
            // Order, counters and accounting after every step: positions
            // shift under interleaved add/remove and must carry the
            // counters with them.
            prop_assert_eq!(tcam.rules(), model.rules.as_slice());
            let stats: Vec<(RuleId, RuleStats)> =
                tcam.iter_stats().map(|(r, s)| (r.id, s)).collect();
            let expected: Vec<(RuleId, RuleStats)> =
                model.rules.iter().map(|r| (r.id, model.stats[&r.id])).collect();
            prop_assert_eq!(stats, expected);
            for id in (0..model.next_id + 1).map(RuleId) {
                prop_assert_eq!(tcam.stats(id), model.stats.get(&id).copied());
                prop_assert_eq!(tcam.rule(id), model.rules.iter().find(|r| r.id == id));
            }
            for region in [TcamRegion::Monitoring, TcamRegion::Forwarding] {
                prop_assert_eq!(tcam.region_used(region), model.region_used(region));
            }
            prop_assert_eq!(
                tcam.monitoring_free(),
                reserve - model.region_used(TcamRegion::Monitoring)
            );
        }
    }
}

// ------------------------------------------------------------- reachability

/// The per-switch search `Network::is_reachable` used to run.
fn bfs_reachable(net: &Network, id: SwitchId) -> bool {
    if !net.is_up(id) {
        return false;
    }
    let spines: Vec<SwitchId> = net.topology().spines().filter(|s| net.is_up(*s)).collect();
    if net.topology().spines().next().is_none() {
        return true;
    }
    if spines.is_empty() {
        return false;
    }
    if spines.contains(&id) {
        return true;
    }
    let mut seen: BTreeSet<SwitchId> = spines.iter().copied().collect();
    let mut queue: VecDeque<SwitchId> = spines.into();
    while let Some(u) = queue.pop_front() {
        for &v in net.topology().neighbors(u) {
            if !net.is_up(v) || !net.is_link_up(u, v) || !seen.insert(v) {
                continue;
            }
            if v == id {
                return true;
            }
            queue.push_back(v);
        }
    }
    false
}

/// A fabric of `spines + leaves` switches with ids `base + k·stride`
/// (contiguous or sparse) handed to `from_parts` in a scrambled order,
/// wired by `wires` (pairs of node indices, self-loops skipped).
fn fabric(
    spines: usize,
    leaves: usize,
    base: u32,
    stride: u32,
    wires: &[(usize, usize)],
) -> Topology {
    let n = spines + leaves;
    let id = |k: usize| SwitchId(base + k as u32 * stride);
    let mut nodes: Vec<SwitchNode> = (0..n)
        .map(|k| SwitchNode {
            id: id(k),
            role: if k < spines { Role::Spine } else { Role::Leaf },
            prefix: None,
            model: SwitchModel::test_model(2),
        })
        .collect();
    nodes.reverse();
    nodes.rotate_left(n / 3);
    let links = wires
        .iter()
        .map(|&(a, b)| (a % n, b % n))
        .filter(|(a, b)| a != b)
        .map(|(a, b)| Link {
            a: id(a),
            b: id(b),
            bandwidth_bps: 1,
        })
        .collect();
    Topology::from_parts(nodes, links)
}

proptest! {
    #[test]
    fn reachable_set_equals_per_switch_bfs(
        spines in 0usize..4,
        leaves in 1usize..7,
        (base, stride) in (0u32..50, prop_oneof![Just(1u32), Just(1), Just(7), Just(1000)]),
        wires in proptest::collection::vec((0usize..10, 0usize..10), 0..24),
        switch_faults in proptest::collection::vec((0usize..10, any::<bool>()), 0..8),
        link_faults in proptest::collection::vec((0usize..24, any::<bool>()), 0..10),
        all_spines_down in any::<bool>(),
    ) {
        let topology = fabric(spines, leaves, base, stride, &wires);
        let links: Vec<Link> = topology.links().to_vec();
        let mut net = Network::new(topology);
        let ids = net.switch_ids();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        // The kept set, after every fault and before the first.
        let check = |net: &Network| {
            let expected: Vec<SwitchId> = ids
                .iter()
                .copied()
                .filter(|id| bfs_reachable(net, *id))
                .collect();
            prop_assert_eq!(net.reachable(), expected.clone());
            for id in &ids {
                prop_assert_eq!(net.is_reachable(*id), expected.contains(id));
            }
            prop_assert!(!net.is_reachable(SwitchId(base + 999_999)));
        };
        check(&net);
        for (k, up) in switch_faults {
            net.set_switch_up(ids[k % ids.len()], up);
            check(&net);
        }
        for (k, up) in link_faults {
            if let Some(l) = links.get(k % links.len().max(1)) {
                // Either endpoint order names the same link.
                if k % 2 == 0 {
                    net.set_link_up(l.a, l.b, up);
                } else {
                    net.set_link_up(l.b, l.a, up);
                }
                check(&net);
            }
        }
        if all_spines_down {
            let spine_ids: Vec<SwitchId> = net.topology().spines().collect();
            for s in spine_ids {
                net.set_switch_up(s, false);
                check(&net);
            }
        }
    }
}
