//! Soil state invariants under generated operation sequences.
//!
//! One soil with telemetry attached, on a switch whose monitoring region
//! holds three entries, replays a generated sequence of deploy / import /
//! realloc / undeploy / advance / traffic / offer packets / deliver to
//! machine / shed — including the ones that fail: a zero PCIe grant, a
//! full monitoring region, a snapshot of another machine, an unknown
//! seed. After every step, through the public API only:
//!
//! * **S1** `stats()`, the registry's `soil.deliveries` /
//!   `soil.asic_polls` / `soil.polls_saved` / `soil.messages_out` and the
//!   sum of the returned reports are one tally, field for field, and
//!   `soil.seed_errors` is the reports' `errors.len()`;
//! * **S2** `num_seeds()` and `seeds()` agree with the model, and no
//!   `seed(id)` answers for an id that is not deployed;
//! * `Soil::audit`: `resources_in_use()` is the fold over the seeds, and
//!   what polls and counts is theirs —
//!   * **S3** the monitoring-region entries at priority 0 are exactly the
//!     distinct rule subjects of the live seeds, one reference per
//!     trigger naming one — nothing leaks after an undeploy, a failed
//!     deploy or a failed import;
//!   * **S4** the trigger table, which `poll_rate_per_sec()` sums, is the
//!     live seeds' triggers, each of its declared kind at the interval
//!     its allocation gives;
//! * **S5** `next_deadline()` is `None` exactly when no live seed has a
//!   poll or time trigger — no trigger outlives its seed;
//! * **S6** every payload the reporting machine `Echo` sends equals what
//!   a model of poll deltas gives: per trigger of every seed, a map from
//!   subject to the cumulative counters it last delivered (a subject
//!   never delivered gives its absolute counters). Echo polls ports, a
//!   port the switch lacks, every port and a flow rule, so seeds
//!   deployed at different times share each aggregation group while
//!   keeping their own baselines.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use farm_almanac::analysis::PollSubject;
use farm_almanac::ast::TriggerType;
use farm_almanac::compile::CompiledMachine;
use farm_almanac::value::{PacketRecord, StatEntry, StatSubject, Value};
use farm_netsim::switch::{Resources, Switch, SwitchModel};
use farm_netsim::tcam::TcamRegion;
use farm_netsim::time::{Dur, Time};
use farm_netsim::types::{FlowKey, Ipv4, PortId};
use farm_soil::{SeedId, SeedSnapshot, Soil, SoilError, SoilStats, TickReport};
use farm_telemetry::{Telemetry, UndeployReason};
use proptest::prelude::*;

#[path = "util/rig.rs"]
mod rig;
use rig::{compile, rig};

/// The catalog beside the port-polling HH and the SSH probe machine:
/// three rule-subject pollers with overlapping subjects (together they
/// want four entries of a region that has three), a seed that sends on
/// every kind of event, and one whose `enter` always fails.
const CATALOG: &str = r#"
machine Web {
  place any;
  poll p = Poll { .ival = 2, .what = dstIP "10.0.1.0/24" };
  state s { }
}
machine Duo {
  place any;
  poll p = Poll { .ival = 2, .what = dstIP "10.0.1.0/24" };
  poll q = Poll { .ival = 10/res().PCIe, .what = dstIP "10.0.2.0/24" };
  state s { }
}
machine Trio {
  place any;
  poll p = Poll { .ival = 3, .what = dstIP "10.0.2.0/24" };
  poll q = Poll { .ival = 3, .what = dstIP "10.0.3.0/24" };
  poll r = Poll { .ival = 3, .what = dstIP "10.0.4.0/24" };
  state s { }
}
machine Chatty {
  place any;
  time tick = 1;
  probe udp = Probe { .ival = 1, .what = proto "udp" };
  state s {
    when (enter) do { send 1 to harvester; }
    when (realloc) do { send 2 to harvester; }
    when (tick) do { send 3 to harvester; }
    when (udp as pkt) do { send 4 to harvester; }
    when (recv long x from harvester) do { send x to harvester; }
  }
}
machine Flip {
  place any;
  state a { when (enter) do { transit b; } }
  state b { when (enter) do { transit a; } }
}
machine Echo {
  place any;
  poll p = Poll { .ival = 2, .what = port 3 or port 99 or port 1 };
  poll q = Poll { .ival = 3, .what = dstIP "10.0.1.0/24" };
  poll a = Poll { .ival = 10/res().PCIe, .what = port ANY };
  state s {
    when (p as stats) do { send pair("p", stats) to harvester; }
    when (q as stats) do { send pair("q", stats) to harvester; }
    when (a as stats) do { send pair("a", stats) to harvester; }
  }
}
"#;

const MACHINES: [&str; 8] = [
    "HH",
    "SshBruteForce",
    "Web",
    "Duo",
    "Trio",
    "Chatty",
    "Flip",
    "Echo",
];

fn catalog() -> Vec<Arc<CompiledMachine>> {
    MACHINES
        .iter()
        .map(|name| match *name {
            "HH" => compile(farm_almanac::programs::HEAVY_HITTER, name),
            "SshBruteForce" => compile(farm_almanac::programs::SSH_BRUTE_FORCE, name),
            _ => compile(CATALOG, name),
        })
        .collect()
}

#[derive(Debug, Clone)]
enum Op {
    /// `(machine, pcie)`; a PCIe grant of 0 fails HH and Duo (an interval
    /// of 10/0 ms).
    Deploy(usize, u32),
    /// `(machine, snapshot)`: with a snapshot an earlier undeploy or shed
    /// captured, of whatever machine, or a made-up one when there is none.
    Import(usize, usize),
    /// `(seed, pcie)`.
    Realloc(usize, u32),
    Undeploy(usize),
    AdvanceMs(u64),
    /// `(port, bytes)`.
    Traffic(u16, u64),
    /// `(udp, dst_port)` per packet.
    Offer(Vec<(bool, u16)>),
    /// `(machine, value)`.
    Tell(usize, i64),
    /// Polls per second the bus still carries.
    Shed(u32),
}

/// Operations per generated sequence, at most.
const MAX_OPS: usize = 48;

fn op() -> impl Strategy<Value = Op> {
    let machine = 0usize..MACHINES.len();
    let packet = (any::<bool>(), prop_oneof![Just(22u16), Just(53), Just(80)]);
    prop_oneof![
        (machine.clone(), 0u32..=20).prop_map(|(m, pcie)| Op::Deploy(m, pcie)),
        (machine.clone(), 0u32..=20).prop_map(|(m, pcie)| Op::Deploy(m, pcie)),
        (machine.clone(), 0usize..8).prop_map(|(m, snap)| Op::Import(m, snap)),
        (0usize..8, 0u32..=20).prop_map(|(seed, pcie)| Op::Realloc(seed, pcie)),
        (0usize..8).prop_map(Op::Undeploy),
        (0u64..=5).prop_map(Op::AdvanceMs),
        (0u64..=5).prop_map(Op::AdvanceMs),
        (0u16..8, 1u64..5_000_000).prop_map(|(port, bytes)| Op::Traffic(port, bytes)),
        proptest::collection::vec(packet, 0..4).prop_map(Op::Offer),
        (machine, 1i64..2_000_000).prop_map(|(m, value)| Op::Tell(m, value)),
        (0u32..5_000).prop_map(Op::Shed),
    ]
}

/// The `seed`-th live seed, or an id the soil never handed out.
fn pick(live: &BTreeMap<SeedId, usize>, seed: usize) -> SeedId {
    let nth = seed % (live.len() + 1);
    live.keys().nth(nth).copied().unwrap_or(SeedId(9_999))
}

fn alloc(pcie: u32) -> Resources {
    Resources::new(2.0, 512.0, 16.0, f64::from(pcie))
}

/// The soil under test beside what the test knows from the calls it made.
struct Harness {
    soil: Soil,
    switch: Switch,
    telemetry: Telemetry,
    now: Time,
    /// Deployed and not yet undeployed or shed: catalog index by seed id.
    live: BTreeMap<SeedId, usize>,
    /// What the returned reports add up to.
    total: SoilStats,
    errors: u64,
    /// Snapshots undeploys and sheds handed back.
    captured: Vec<SeedSnapshot>,
    /// S6's model: per (seed, trigger), the cumulative counters each
    /// subject last delivered.
    delivered: HashMap<(SeedId, String), HashMap<StatSubject, [u64; 4]>>,
    /// Echo payloads checked against the model so far.
    echoed: usize,
}

impl Harness {
    fn new() -> Harness {
        let model = SwitchModel {
            tcam_monitoring_reserve: 3,
            ..SwitchModel::test_model(8)
        };
        let (mut soil, switch) = rig(0, model);
        let telemetry = Telemetry::new();
        soil.set_telemetry(telemetry.clone());
        Harness {
            soil,
            switch,
            telemetry,
            now: Time::ZERO,
            live: BTreeMap::new(),
            total: SoilStats::default(),
            errors: 0,
            captured: Vec::new(),
            delivered: HashMap::new(),
            echoed: 0,
        }
    }

    /// What the switch holds for `subjects` right now, in poll order:
    /// ports it lacks and rules nobody installed read as nothing.
    fn counters(&self, subjects: &[PollSubject]) -> Vec<(StatSubject, [u64; 4])> {
        let mut out = Vec::new();
        let port = |p: u16| {
            let c = self.switch.port_counters(PortId(p));
            let cur = [c.tx_bytes, c.rx_bytes, c.tx_packets, c.rx_packets];
            (StatSubject::Port(p), cur)
        };
        for subject in subjects {
            match subject {
                PollSubject::AllPorts => out.extend((0..8).map(port)),
                PollSubject::Port(p) if *p < 8 => out.push(port(*p)),
                PollSubject::Port(_) => {}
                PollSubject::Rule(key) => {
                    let tcam = self.switch.tcam();
                    let rule = tcam.rules().iter().find(|r| {
                        r.region == TcamRegion::Monitoring
                            && r.priority == 0
                            && r.pattern.to_string() == *key
                    });
                    if let Some(stats) = rule.and_then(|r| tcam.stats(r.id)) {
                        let cur = [stats.bytes, 0, stats.packets, 0];
                        out.push((StatSubject::Rule(key.clone()), cur));
                    }
                }
            }
        }
        out
    }

    /// S6: each Echo payload in `report` against the delta model. The
    /// switch's counters do not move during an advance, so every poll
    /// of it reads what they are now.
    fn check_deltas(&mut self, report: &TickReport, catalog: &[Arc<CompiledMachine>]) {
        let echo = MACHINES.iter().position(|m| *m == "Echo").unwrap();
        for m in report.messages.iter().filter(|m| m.from_machine == "Echo") {
            let Value::Pair(name, got) = &m.value else {
                panic!("S6: Echo sent {}", m.value)
            };
            let Value::Str(name) = &**name else {
                panic!("S6: Echo sent {}", m.value)
            };
            let trigger = catalog[echo].triggers.iter().find(|t| t.name == *name);
            let subjects = &trigger.expect("an Echo trigger").subjects;
            let now = self.counters(subjects);
            let seen = self
                .delivered
                .entry((m.from_seed, name.clone()))
                .or_default();
            let want: Vec<Value> = now
                .into_iter()
                .map(|(subject, cur)| {
                    let prev = seen.insert(subject.clone(), cur).unwrap_or([0; 4]);
                    Value::Stat(StatEntry {
                        subject,
                        tx_bytes: cur[0] - prev[0],
                        rx_bytes: cur[1] - prev[1],
                        tx_packets: cur[2] - prev[2],
                        rx_packets: cur[3] - prev[3],
                    })
                })
                .collect();
            assert_eq!(**got, Value::List(want), "S6 {} {name}", m.from_seed);
            self.echoed += 1;
        }
    }

    fn tally(&mut self, report: &TickReport) {
        self.total.deliveries += report.deliveries;
        self.total.asic_polls += report.asic_polls;
        self.total.polls_saved += report.polls_saved;
        self.total.messages_out += report.messages.len() as u64;
        self.errors += report.errors.len() as u64;
    }

    fn planted(&mut self, id: SeedId, machine: usize, report: &TickReport) {
        self.live.insert(id, machine);
        self.tally(report);
    }

    fn apply(&mut self, op: &Op, catalog: &[Arc<CompiledMachine>]) {
        let (soil, switch, now) = (&mut self.soil, &mut self.switch, self.now);
        match op {
            Op::Deploy(machine, pcie) => {
                let def = catalog[*machine].clone();
                if let Ok((id, report)) = soil.deploy(def, "t", alloc(*pcie), now, switch) {
                    self.planted(id, *machine, &report);
                }
            }
            Op::Import(machine, snapshot) => {
                let bogus = SeedSnapshot {
                    machine: "Nobody".to_string(),
                    state: "nowhere".to_string(),
                    vars: vec![],
                };
                // Every other captured snapshot goes back into the
                // machine it was taken from.
                let (machine, snapshot) = match self.captured.len() {
                    0 => (*machine, &bogus),
                    n => {
                        let taken = &self.captured[snapshot % n];
                        let own = MACHINES.iter().position(|m| *m == taken.machine);
                        let own = own.filter(|_| snapshot % 2 == 0);
                        (own.unwrap_or(*machine), taken)
                    }
                };
                let def = catalog[machine].clone();
                match soil.import(def, "t", alloc(10), snapshot, now, switch) {
                    Ok((id, report)) => self.planted(id, machine, &report),
                    // The rolled-back deploy's `enter` did run and was
                    // counted; its report went down with the error.
                    Err(SoilError::Restore(_)) => {
                        let snap = self.telemetry.snapshot();
                        self.total = soil.stats();
                        self.errors = snap.counter("soil.seed_errors");
                    }
                    Err(_) => {}
                }
            }
            Op::Realloc(seed, pcie) => {
                let id = pick(&self.live, *seed);
                match soil.realloc(id, alloc(*pcie), now, switch) {
                    Ok(report) => self.tally(&report),
                    Err(e) => assert!(
                        self.live.contains_key(&id) || e == SoilError::UnknownSeed(id),
                        "{e}"
                    ),
                }
            }
            Op::Undeploy(seed) => {
                let id = pick(&self.live, *seed);
                match soil.undeploy(id, UndeployReason::TaskRemoved, now, switch) {
                    Ok(snapshot) => {
                        assert!(self.live.remove(&id).is_some(), "{id} was not live");
                        self.captured.push(snapshot);
                    }
                    Err(e) => {
                        assert!(!self.live.contains_key(&id), "{e}");
                        assert_eq!(e, SoilError::UnknownSeed(id));
                    }
                }
            }
            Op::AdvanceMs(ms) => {
                self.now = now + Dur::from_millis(*ms);
                let report = soil.advance(self.now, switch);
                self.tally(&report);
                self.check_deltas(&report, catalog);
            }
            Op::Traffic(port, bytes) => {
                let flow = FlowKey::tcp(Ipv4::new(10, 0, 0, 1), 1000, Ipv4::new(10, 0, 1, 1), 80);
                switch.record_traffic(&flow, None, Some(PortId(*port)), *bytes, bytes / 1500 + 1);
            }
            Op::Offer(packets) => {
                let (src, dst) = (Ipv4::new(9, 9, 9, 9), Ipv4::new(10, 0, 1, 1));
                let packets: Vec<PacketRecord> = packets
                    .iter()
                    .map(|&(udp, port)| PacketRecord {
                        flow: match udp {
                            true => FlowKey::udp(src, 1000, dst, port),
                            false => FlowKey::tcp(src, 1000, dst, port),
                        },
                        len: 64,
                        syn: !udp,
                        fin: false,
                        ack: false,
                    })
                    .collect();
                let report = soil.offer_packets(&packets, now, switch);
                self.tally(&report);
            }
            Op::Tell(machine, value) => {
                let name = MACHINES[*machine];
                let report = soil.deliver_to_machine(name, None, &Value::Int(*value), now, switch);
                self.tally(&report);
            }
            Op::Shed(polls_per_sec) => {
                let budget = f64::from(*polls_per_sec);
                let shed = soil.shed_over_poll_budget(budget, now, switch);
                assert!(soil.poll_rate_per_sec() <= budget + 1e-9);
                for s in shed {
                    // Lowest priority first: always the newest seed left.
                    assert_eq!(Some(&s.seed), self.live.keys().next_back());
                    self.live.remove(&s.seed);
                    self.captured.push(s.snapshot);
                }
            }
        }
    }

    fn check(&self, catalog: &[Arc<CompiledMachine>], after: &Op) {
        let (soil, snap) = (&self.soil, self.telemetry.snapshot());
        // S1: one tally.
        let tallied = |s: SoilStats| (s.deliveries, s.asic_polls, s.polls_saved, s.messages_out);
        let registry = (
            snap.counter("soil.deliveries"),
            snap.counter("soil.asic_polls"),
            snap.counter("soil.polls_saved"),
            snap.counter("soil.messages_out"),
        );
        let stats = tallied(soil.stats());
        assert_eq!(stats, registry, "S1 registry after {after:?}");
        assert_eq!(stats, tallied(self.total), "S1 reports after {after:?}");
        let seed_errors = snap.counter("soil.seed_errors");
        assert_eq!(seed_errors, self.errors, "S1 errors after {after:?}");

        // S2: one set of seeds.
        assert_eq!(soil.num_seeds(), self.live.len(), "S2 after {after:?}");
        let ids: Vec<SeedId> = soil.seeds().map(|s| s.id).collect();
        let live: Vec<SeedId> = self.live.keys().copied().collect();
        assert_eq!(ids, live, "S2 after {after:?}");
        // Every id the soil can have handed out: one per deploy attempt.
        for id in (0..MAX_OPS as u64).map(SeedId) {
            let machine = soil.seed(id).map(|s| s.machine_name());
            let expected = self.live.get(&id).map(|m| MACHINES[*m]);
            assert_eq!(machine, expected, "S2 {id} after {after:?}");
        }

        // The in-use total, S3 and S4: what the soil keeps equals its
        // recomputation over the seeds S2 has just held to the model.
        assert_eq!(soil.audit(&self.switch), Ok(()), "after {after:?}");

        // S5: deadlines belong to live seeds.
        let scheduled = (self.live.values())
            .any(|m| (catalog[*m].triggers.iter()).any(|t| t.kind != TriggerType::Probe));
        let due = soil.next_deadline();
        assert_eq!(due.is_some(), scheduled, "S5 after {after:?}");
        assert!(due.is_none_or(|due| due > self.now), "S5 after {after:?}");
    }
}

/// S6 on a sequence that surely reaches it: two Echo seeds deployed
/// 3 ms apart share every aggregation group, and the later one's first
/// polls deliver absolute counters while the earlier one's deliver deltas.
#[test]
fn echo_seeds_deployed_apart_keep_their_own_baselines() {
    let catalog = catalog();
    let echo = MACHINES.iter().position(|m| *m == "Echo").unwrap();
    let mut harness = Harness::new();
    let ops = [
        Op::Traffic(3, 40_000),
        Op::Deploy(echo, 10),
        Op::AdvanceMs(3),
        Op::Traffic(3, 7_000),
        Op::Traffic(1, 90_000),
        Op::Deploy(echo, 10),
        Op::AdvanceMs(3),
        Op::Traffic(5, 1_500),
        Op::AdvanceMs(4),
        Op::Undeploy(0),
        Op::Traffic(1, 3_000),
        Op::AdvanceMs(5),
    ];
    for op in &ops {
        harness.apply(op, &catalog);
        harness.check(&catalog, op);
    }
    let seeds = |name: &str| harness.delivered.keys().filter(|(_, t)| t == name).count();
    assert_eq!((seeds("p"), seeds("q"), seeds("a")), (2, 2, 2));
    assert!(harness.echoed >= 12, "{} payloads", harness.echoed);
}

proptest! {
    /// Case count comes from `PROPTEST_CASES` (CI's `interpreter` job
    /// raises it).
    #[test]
    fn soil_state_invariants_hold_after_every_step(
        ops in proptest::collection::vec(op(), 1..MAX_OPS),
    ) {
        let catalog = catalog();
        let mut harness = Harness::new();
        for op in &ops {
            harness.apply(op, &catalog);
            harness.check(&catalog, op);
        }
    }
}
