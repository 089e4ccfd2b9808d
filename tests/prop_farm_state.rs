//! Farm state invariants under generated operator and fault sequences.
//!
//! Every case builds a 3–8 switch fabric and replays a generated sequence
//! of submit / remove / drain and uncordon (of any switch, or of one the
//! fabric lacks) / crash (of any switch, or of a task's host) / restart /
//! PCIe degrade and restore / link down and up / control-channel loss and
//! heal (fabric-wide, or of one switch) / advance / advance to the next
//! heartbeat / checkpoint / import / restore / replan / seeded churn /
//! two concurrent failures under a fabric-wide `place all` task.
//! After every operation, through the public API only:
//!
//! * `Farm::audit` is clean: **I1** every live seed in the seed table
//!   runs its key's machine on an up switch; **I2** on every up,
//!   non-fenced switch the soil runs exactly the live seeds the table
//!   places there — nothing leaked, nothing planted twice, nothing
//!   undeployed from the wrong soil; **I4** `export_checkpoints()` has
//!   one entry per key, sorted by display form, every key of a
//!   registered task; **I6** `cordoned_switches()` and
//!   `fenced_switches()` are ascending, without duplicates, and name only
//!   switches of the topology; **I7** what the farm keeps to skip work
//!   equals its recomputation — the live list, the seeder's round scope,
//!   the solver memory, every soil's in-use total, trigger table and
//!   polling rules — `live_capacities()` is the reachable switches, less
//!   the fenced and the cordoned ones, at effective resources, every
//!   committed seat meets C2, the seats committed on each switch of the
//!   last round meet C3/C4, and no recovering seed has a seat;
//! * **I1** (the model's part) that machine is the one the submitted
//!   program names;
//! * **I3** `deployed_seeds() + recovery_pending()` never exceeds the
//!   seeds of the registered tasks;
//! * **I5** the same sequence twice gives the same event stream, modulo
//!   the two wall-clock events.
//!
//! Two more properties hold the snapshots to their contract: a key that
//! has had an exportable snapshot keeps one for as long as its task is
//! registered, and after a heartbeat every seed that was live on a
//! reachable switch has a row that equals a fresh capture of it — a
//! heartbeat skips a seed that has not run since its row's capture, and
//! may skip nothing else.
//!
//! A soil does not publish which task an instance belongs to, so every
//! catalog program is instantiated with the task name spliced into its
//! machine names: the machine name alone identifies (task, machine).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use farm_almanac::value::Value;
use farm_core::prelude::*;
use farm_faults::LossSpec;
use farm_netsim::switch::ResourceKind;
use farm_netsim::types::SwitchId;
use proptest::prelude::*;

/// The program catalog: every placement form the seeder distinguishes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Program {
    /// `place all;` — one pinned seed per switch, flips state per poll.
    /// Modest, like every pinned program here: pinned seeds of several
    /// tasks have to share their switch.
    All,
    /// `place any;` — one movable, hungry seed polling every millisecond.
    Any,
    /// `place all 0, 2;` — a pinned set.
    PinAll,
    /// `place any 1, 2;` — movable inside a set.
    PinAny,
    /// Two machines: a stateless rover and a seed pinned to switch 1.
    Duo,
    /// `place any;` with no demands at all: fits wherever it is put.
    Rover,
    /// `place all;`, reporting to its harvester on every poll: its
    /// reports cross the control channel the loss ops impair.
    Report,
    /// `place all;`, polling one flow rule at two rates: every seed holds
    /// two references on its switch's monitoring entry.
    Flow,
    /// `place all 1;`, hungry, polling at an interval its PCIe allocation
    /// sets: a second one on switch 1 shrinks the first, whose trigger
    /// then polls at the new interval.
    Tide,
}

const PROGRAMS: [Program; 9] = [
    Program::All,
    Program::Any,
    Program::PinAll,
    Program::PinAny,
    Program::Duo,
    Program::Rover,
    Program::Report,
    Program::Flow,
    Program::Tide,
];

/// Utility that grows with the allocation: the LP hands such a seed
/// everything its switch has left.
const HUNGRY: &str = "util (res) { if (res.vCPU >= 1 and res.RAM >= 100) then \
                      { return min(res.vCPU, res.PCIe); } }";
/// [`HUNGRY`] with room to poll: its interval is 100 ms over its PCIe.
const TIDE: &str = "util (res) { if (res.vCPU >= 1 and res.RAM >= 100 and res.PCIe >= 1) then \
                    { return min(res.vCPU, res.PCIe); } }";
/// Utility that saturates at one vCPU, so several tasks share a switch.
const MODEST: &str = "util (res) { if (res.vCPU >= 1 and res.RAM >= 100) then \
                      { return min(res.vCPU, 1); } }";

impl Program {
    /// Machine names in declaration order, unique per (task, machine).
    fn machines(self, task: &str) -> Vec<String> {
        match self {
            Program::All => vec![format!("All_{task}")],
            Program::Any => vec![format!("Any_{task}")],
            Program::PinAll => vec![format!("PinAll_{task}")],
            Program::PinAny => vec![format!("PinAny_{task}")],
            Program::Duo => vec![format!("Scout_{task}"), format!("Post_{task}")],
            Program::Rover => vec![format!("Rover_{task}")],
            Program::Report => vec![format!("Report_{task}")],
            Program::Flow => vec![format!("Flow_{task}")],
            Program::Tide => vec![format!("Tide_{task}")],
        }
    }

    fn source(self, task: &str) -> String {
        let names = self.machines(task);
        let flipper = |name: &str, place: &str| {
            format!(
                "machine {name} {{\n  {place}\n  poll p = Poll {{ .ival = 2, .what = port ANY }};\n  \
                 long n = 0;\n  state a {{\n    {MODEST}\n    when (p as stats) do {{ n = n + 1; transit b; }}\n  }}\n  \
                 state b {{\n    {MODEST}\n    when (p as stats) do {{ n = n + 1; transit a; }}\n  }}\n}}\n"
            )
        };
        let counter = |name: &str, place: &str, util: &str| {
            format!(
                "machine {name} {{\n  {place}\n  poll p = Poll {{ .ival = 1, .what = port ANY }};\n  \
                 long total = 0;\n  state s {{\n    {util}\n    when (p as stats) do {{ total = total + list_len(stats); }}\n  }}\n}}\n"
            )
        };
        let rover = |name: &str| format!("machine {name} {{ place any; state s {{ }} }}\n");
        let report = |name: &str| {
            format!(
                "machine {name} {{\n  place all;\n  poll p = Poll {{ .ival = 4, .what = port ANY }};\n  \
                 long n = 0;\n  state s {{\n    {MODEST}\n    when (p as stats) do {{ n = n + 1; send n to harvester; }}\n  }}\n}}\n"
            )
        };
        let flow = |name: &str| {
            format!(
                "machine {name} {{\n  place all;\n  \
                 poll p = Poll {{ .ival = 2, .what = dstIP \"10.0.1.0/24\" }};\n  \
                 poll q = Poll {{ .ival = 3, .what = dstIP \"10.0.1.0/24\" }};\n  \
                 long n = 0;\n  state s {{\n    {MODEST}\n    when (p as stats) do {{ n = n + 1; }}\n  }}\n}}\n"
            )
        };
        let tide = |name: &str| {
            format!(
                "machine {name} {{\n  place all 1;\n  \
                 poll p = Poll {{ .ival = 100 / res().PCIe, .what = port ANY }};\n  \
                 long total = 0;\n  state s {{\n    {TIDE}\n    when (p as stats) do {{ total = total + list_len(stats); }}\n  }}\n}}\n"
            )
        };
        match self {
            Program::All => flipper(&names[0], "place all;"),
            Program::Any => counter(&names[0], "place any;", HUNGRY),
            Program::PinAll => flipper(&names[0], "place all 0, 2;"),
            Program::PinAny => counter(&names[0], "place any 1, 2;", HUNGRY),
            Program::Duo => rover(&names[0]) + &counter(&names[1], "place all 1;", MODEST),
            Program::Rover => rover(&names[0]),
            Program::Report => report(&names[0]),
            Program::Flow => flow(&names[0]),
            Program::Tide => tide(&names[0]),
        }
    }

    /// Seeds the program asks for on an `n`-switch fabric.
    fn seeds(self, n_switches: usize) -> usize {
        match self {
            Program::All | Program::Report | Program::Flow => n_switches,
            Program::Any | Program::PinAny | Program::Rover | Program::Tide => 1,
            Program::PinAll | Program::Duo => 2,
        }
    }
}

/// One generated step. Indices are reduced modulo the population they
/// address at apply time, so any value is valid on any fabric.
#[derive(Debug, Clone, Copy)]
enum Op {
    Submit {
        task: usize,
        program: usize,
    },
    Remove(usize),
    Drain(usize),
    Uncordon(usize),
    Crash(usize),
    /// Crashes the switch hosting the first seed of task `t<i>`, if the
    /// task has one placed — a crash that is sure to orphan something.
    CrashHost(usize),
    Restart(usize),
    PcieDegrade(usize),
    PcieRestore(usize),
    LinkDown(usize),
    LinkUp(usize),
    Advance(u64),
    /// Drops the faults a churn left scheduled and advances to the next
    /// heartbeat instant: the round there sees every seed as the
    /// previous step left it.
    Heartbeat,
    Checkpoint,
    /// Imports the current export back with one variable no machine
    /// declares added to every entry, as a checkpoint file of an older
    /// program version would carry.
    Import,
    Restore,
    Replan,
    Churn {
        seed: u64,
        ms: u64,
    },
    /// Impairs the control channel of switch `Some(i)`, or of the whole
    /// fabric.
    ControlLoss(Option<usize>),
    /// Heals what a `ControlLoss` of the same scope impaired.
    ControlHeal(Option<usize>),
    /// Submits a fabric-wide `place all` task if none is registered,
    /// then two failures at one instant: two crashes, two cut links, or
    /// one of each.
    DoubleFault(usize, usize, u64),
}

fn op() -> impl Strategy<Value = Op> {
    (0usize..25, any::<usize>(), any::<u64>()).prop_map(|(kind, i, x)| match kind {
        0..=2 => Op::Submit {
            task: i % 4,
            program: (x % PROGRAMS.len() as u64) as usize,
        },
        3 => Op::Remove(i % 4),
        4 => Op::Drain(i),
        5 => Op::Uncordon(i),
        6 | 7 => Op::Crash(i),
        8 => Op::Restart(i),
        9 => Op::PcieDegrade(i),
        10 => Op::PcieRestore(i),
        11 => Op::LinkDown(i),
        12 => Op::LinkUp(i),
        13 | 14 => Op::Advance(1 + x % 40),
        15 => [Op::Checkpoint, Op::Restore, Op::Replan][i % 3],
        16 => Op::Replan,
        17 => Op::CrashHost(i % 4),
        18 => Op::Churn {
            seed: x,
            ms: 20 + x % 60,
        },
        19 => Op::ControlLoss((x % 2 == 0).then_some(i)),
        20 => Op::ControlHeal((x % 2 == 0).then_some(i)),
        21 | 22 => Op::Heartbeat,
        23 => Op::DoubleFault(i, (x >> 2) as usize, x % 3),
        _ => Op::Import,
    })
}

/// 3–8 switches: one or two spines over two to six leaves.
fn fabric() -> impl Strategy<Value = (usize, usize)> {
    (1usize..3, 2usize..7).prop_map(|(spines, leaves)| (spines, leaves.max(3 - spines)))
}

fn case() -> impl Strategy<Value = ((usize, usize), Vec<Op>)> {
    (fabric(), proptest::collection::vec(op(), 1..40))
}

/// The farm's heartbeat interval.
const HEARTBEAT: Dur = Dur::from_millis(10);

/// A seed's state as a capture holds it: machine, state and variables
/// rendered, in name order.
type Held = (String, String, Vec<(String, String)>);

/// A farm under test plus the harness's own record of what was submitted.
struct Run {
    farm: Farm,
    events: Arc<RingBufferSink>,
    ids: Vec<SwitchId>,
    links: Vec<(SwitchId, SwitchId)>,
    registered: BTreeMap<String, Program>,
}

impl Run {
    fn new((spines, leaves): (usize, usize)) -> Run {
        let topology = Topology::spine_leaf(
            spines,
            leaves,
            SwitchModel::accton_as7712(),
            SwitchModel::accton_as5712(),
        );
        let links = topology.links().iter().map(|l| (l.a, l.b)).collect();
        let events = Arc::new(RingBufferSink::new(1 << 16));
        let farm = FarmBuilder::new(topology).with_sink(events.clone()).build();
        Run {
            ids: farm.network().switch_ids(),
            farm,
            events,
            links,
            registered: BTreeMap::new(),
        }
    }

    fn switch(&self, i: usize) -> SwitchId {
        self.ids[i % self.ids.len()]
    }

    /// A switch of the fabric, or one in `ids.len() + 1` times a switch
    /// it lacks: what an operator may name.
    fn named(&self, i: usize) -> SwitchId {
        let n = self.ids.len();
        if i % (n + 1) == n {
            SwitchId(999)
        } else {
            self.ids[i % (n + 1)]
        }
    }

    /// Injects one fault at the current instant.
    fn fault(&mut self, kind: FaultKind) {
        let now = self.farm.now();
        self.farm.set_fault_plan(FaultPlan::new().with(now, kind));
        self.farm.advance(now);
    }

    /// Applies one step. Operator calls may legitimately fail (nothing
    /// placeable, planner error); the invariants hold either way.
    fn apply(&mut self, op: Op) {
        match op {
            Op::Submit { task, program } => {
                let name = format!("t{task}");
                // A name in use is rejected, as farmd does.
                if self.registered.contains_key(&name) {
                    return;
                }
                let program = PROGRAMS[program];
                // A failed deploy leaves no task behind.
                if self
                    .farm
                    .deploy_task(&name, &program.source(&name), &BTreeMap::new())
                    .is_ok()
                {
                    self.registered.insert(name, program);
                }
            }
            Op::Remove(task) => {
                let name = format!("t{task}");
                if self.registered.remove(&name).is_some() {
                    self.farm.remove_task(&name).expect("remove_task is total");
                }
            }
            Op::Drain(i) => {
                let _ = self.farm.drain(self.named(i));
            }
            Op::Uncordon(i) => {
                let _ = self.farm.uncordon(self.named(i));
            }
            Op::Crash(i) => self.fault(FaultKind::SwitchCrash {
                switch: self.switch(i),
            }),
            Op::CrashHost(task) => {
                let name = format!("t{task}");
                let statuses = self.farm.seed_statuses();
                if let Some(s) = statuses.iter().find(|s| s.key.task == name) {
                    self.fault(FaultKind::SwitchCrash { switch: s.switch });
                }
            }
            Op::Restart(i) => self.fault(FaultKind::SwitchRestart {
                switch: self.switch(i),
            }),
            Op::PcieDegrade(i) => self.fault(FaultKind::PcieDegrade {
                switch: self.switch(i),
                // Room for one seed polling every other millisecond.
                factor: 0.01,
            }),
            Op::PcieRestore(i) => self.fault(FaultKind::PcieRestore {
                switch: self.switch(i),
            }),
            Op::LinkDown(i) => {
                let (a, b) = self.links[i % self.links.len()];
                self.fault(FaultKind::LinkDown { a, b });
            }
            Op::LinkUp(i) => {
                let (a, b) = self.links[i % self.links.len()];
                self.fault(FaultKind::LinkUp { a, b });
            }
            Op::ControlLoss(scope) => self.fault(FaultKind::ControlLoss {
                switch: scope.map(|i| self.switch(i)),
                spec: LossSpec {
                    drop: 0.5,
                    duplicate: 0.25,
                    delay: Dur::from_millis(1),
                },
            }),
            Op::ControlHeal(scope) => self.fault(FaultKind::ControlHeal {
                switch: scope.map(|i| self.switch(i)),
            }),
            Op::Advance(ms) => {
                let to = self.farm.now() + Dur::from_millis(ms);
                self.farm.advance(to);
            }
            Op::Heartbeat => {
                self.farm.set_fault_plan(FaultPlan::new());
                let interval = HEARTBEAT.as_nanos();
                let next = (self.farm.now().as_nanos() / interval + 1) * interval;
                self.farm.advance(Time::ZERO + Dur::from_nanos(next));
            }
            Op::Checkpoint => {
                self.farm.checkpoint_seeds();
            }
            Op::Import => {
                let entries = self
                    .farm
                    .export_checkpoints()
                    .into_iter()
                    .map(|(k, mut s)| {
                        s.vars.push(("imported".into(), Value::Int(1)));
                        (k, s)
                    });
                assert_eq!(self.farm.import_checkpoints(entries), 0);
            }
            Op::Restore => {
                self.farm.restore_seeds();
            }
            Op::Replan => {
                let _ = self.farm.replan();
            }
            Op::DoubleFault(i, j, kinds) => {
                let spanning = self.registered.values().any(|p| *p == Program::All);
                let free = (0..4).find(|t| !self.registered.contains_key(&format!("t{t}")));
                if let (false, Some(task)) = (spanning, free) {
                    self.apply(Op::Submit { task, program: 0 });
                }
                let crash = |i| FaultKind::SwitchCrash {
                    switch: self.switch(i),
                };
                let cut = |i: usize| {
                    let (a, b) = self.links[i % self.links.len()];
                    FaultKind::LinkDown { a, b }
                };
                let (first, second) = match kinds {
                    0 => (crash(i), crash(j)),
                    1 => (cut(i), cut(j)),
                    _ => (crash(i), cut(j)),
                };
                let now = self.farm.now();
                let plan = FaultPlan::new().with(now, first).with(now, second);
                self.farm.set_fault_plan(plan);
                self.farm.advance(now);
            }
            Op::Churn { seed, ms } => {
                let now = self.farm.now();
                let end = now + Dur::from_millis(ms);
                let profile = ChurnProfile {
                    mean_gap: Dur::from_millis(8),
                    crash_outage: Dur::from_millis(15),
                    link_outage: Dur::from_millis(10),
                    pcie_outage: Dur::from_millis(12),
                    ..ChurnProfile::default()
                };
                self.farm
                    .set_fault_plan(FaultPlan::churn(seed, &self.ids, now, end, profile));
                self.farm.advance(end);
            }
        }
    }

    /// The machine name a key's live instance must carry.
    fn machine_of(&self, key: &SeedKey) -> String {
        let program = self.registered[&key.task];
        program.machines(&key.task)[key.machine].clone()
    }

    /// The model's part of I1 and I3 against the farm's current state;
    /// the rest is [`Farm::audit`]'s.
    fn check(&self, step: usize, op: Op) {
        let farm = &self.farm;
        let ctx = format!("after step {step} ({op:?})");
        let report = farm.audit();
        assert!(report.is_clean(), "audit {ctx}:\n{report}");

        // I1: a live seed runs the machine its task's program names.
        for s in farm.seed_statuses().iter().filter(|s| s.state != "lost") {
            assert_eq!(s.machine, self.machine_of(&s.key), "I1 {ctx}: {s:?}");
        }

        // I3.
        let wanted: usize = self
            .registered
            .values()
            .map(|p| p.seeds(self.ids.len()))
            .sum();
        assert!(
            farm.deployed_seeds() + farm.recovery_pending() <= wanted,
            "I3 {ctx}: {} deployed + {} recovering > {wanted} registered",
            farm.deployed_seeds(),
            farm.recovery_pending()
        );
        assert_eq!(
            farm.seeder().task_names(),
            self.registered.keys().cloned().collect::<Vec<_>>(),
            "{ctx}: task catalog"
        );
    }

    /// Every seed live on a reachable switch, as a capture would hold it.
    fn live_states(&self) -> BTreeMap<SeedKey, Held> {
        let net = self.farm.network();
        (self.farm.seed_statuses().into_iter())
            .filter(|s| s.state != "lost" && net.is_reachable(s.switch))
            .map(|s| {
                let vars = self.farm.seed_vars(&s.key).expect("a live seed has vars");
                (s.key, (s.machine, s.state, vars))
            })
            .collect()
    }

    /// Every row's snapshot, rendered as [`Run::live_states`] renders a
    /// seed.
    fn rows(&self) -> BTreeMap<SeedKey, Held> {
        (self.farm.export_checkpoints().into_iter())
            .map(|(k, s)| {
                let mut vars: Vec<(String, String)> = (s.vars.iter())
                    .map(|(n, v)| (n.clone(), v.to_string()))
                    .collect();
                vars.sort();
                (k, (s.machine, s.state, vars))
            })
            .collect()
    }

    /// Applies [`Op::Heartbeat`]: every seed live on a reachable switch
    /// before it has a row equal to its state then, which is the state
    /// the round saw (the soils catch up only after it).
    fn heartbeat(&mut self, ctx: &str) {
        let before = self.live_states();
        self.apply(Op::Heartbeat);
        let rows = self.rows();
        for (key, held) in &before {
            assert_eq!(
                rows.get(key),
                Some(held),
                "{ctx}: {key}'s row after the heartbeat"
            );
        }
    }

    /// The event stream minus the two events that carry wall-clock time.
    fn stream(&self) -> Vec<Event> {
        self.events
            .events()
            .into_iter()
            .filter(|e| !matches!(e, Event::SolverPhase { .. } | Event::ReplanSummary { .. }))
            .collect()
    }
}

/// The audit, I1 and I3 after every step, I5 over the whole run. Returns
/// the run for sequence-specific assertions.
fn hold_invariants(fabric: (usize, usize), ops: &[Op]) -> Run {
    let mut run = Run::new(fabric);
    for (step, &op) in ops.iter().enumerate() {
        run.apply(op);
        run.check(step, op);
    }
    let mut replay = Run::new(fabric);
    for &op in ops {
        replay.apply(op);
    }
    let (a, b) = (run.stream(), replay.stream());
    assert_eq!(a.len(), b.len(), "I5: event counts differ");
    for (i, (ea, eb)) in a.iter().zip(&b).enumerate() {
        assert_eq!(ea, eb, "I5: streams diverge at event {i}");
    }
    run
}

/// Once a key has an exportable snapshot it keeps one until its task is
/// removed: orphaning, recovery (landed or abandoned), shedding,
/// migration and replanned undeploys all leave the store alone.
fn keep_snapshots(fabric: (usize, usize), ops: &[Op]) -> Run {
    let mut run = Run::new(fabric);
    let mut seen: BTreeSet<SeedKey> = BTreeSet::new();
    for (step, &op) in ops.iter().enumerate() {
        run.apply(op);
        let exported = run.farm.export_checkpoints();
        let now: BTreeSet<SeedKey> = exported.into_iter().map(|(k, _)| k).collect();
        seen.retain(|k| run.registered.contains_key(&k.task));
        let gone: Vec<&SeedKey> = seen.difference(&now).collect();
        assert!(
            gone.is_empty(),
            "after step {step} ({op:?}): snapshots left the store: {gone:?}"
        );
        seen.extend(now);
    }
    run
}

/// Every [`Op::Heartbeat`] of `ops` checked by [`Run::heartbeat`].
fn capture_at_heartbeats(fabric: (usize, usize), ops: &[Op]) -> Run {
    let mut run = Run::new(fabric);
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Heartbeat => run.heartbeat(&format!("step {step}")),
            op => run.apply(op),
        }
    }
    run
}

proptest! {
    #[test]
    fn invariants_hold_after_every_op((fabric, ops) in case()) {
        hold_invariants(fabric, &ops);
    }

    #[test]
    fn a_heartbeat_leaves_every_live_seed_s_row_equal_to_a_fresh_capture((fabric, ops) in case()) {
        capture_at_heartbeats(fabric, &ops);
    }

    #[test]
    fn a_snapshot_stays_exportable_while_its_task_is_registered((fabric, ops) in case()) {
        keep_snapshots(fabric, &ops);
    }
}

// Sequences that tripped an invariant, or failed outright, before the
// seed table, the snapshot store and the plant step existed once each;
// the first three are the property's own finds, cut down by hand.
// Program indices are positions in `PROGRAMS`.

impl Run {
    /// Whether each recovery so far started cold, in event order.
    fn recoveries_cold(&self) -> Vec<bool> {
        let recovered = |e: Event| match e {
            Event::SeedRecovered { cold_start, .. } => Some(cold_start),
            _ => None,
        };
        self.stream().into_iter().filter_map(recovered).collect()
    }
}

/// I5. Task removal walked a `HashMap` of seeds, so the eight
/// `SeedUndeployed` events came out in a different order every run.
#[test]
fn pinned_task_removal_undeploys_in_key_order() {
    let submit_all = Op::Submit {
        task: 0,
        program: 0,
    };
    let run = hold_invariants((2, 6), &[submit_all, Op::Remove(0)]);
    let undeployed: Vec<u32> = run
        .stream()
        .iter()
        .filter_map(|e| match e {
            Event::SeedUndeployed { switch, .. } => Some(*switch),
            _ => None,
        })
        .collect();
    assert_eq!(undeployed, (0..8).collect::<Vec<u32>>());
}

/// I1 and I2. A switch that crashes and restarts inside one heartbeat
/// interval comes back with a soil that numbers its seeds from zero
/// again. The lost rover's record still said "switch 0, id 0", the next
/// rover planted there got id 0, and from then on the lost one was
/// reported live under the newcomer's machine, checkpointed with the
/// newcomer's state and never recovered.
#[test]
fn pinned_fast_restart_does_not_alias_the_next_seed_planted_there() {
    let rover = |task| Op::Submit { task, program: 5 };
    let ops = [
        rover(1),
        Op::Crash(0),
        Op::Restart(0),
        rover(0),
        Op::Advance(10),
    ];
    let run = hold_invariants((2, 3), &ops);
    let live: Vec<(String, SwitchId, String)> = run
        .farm
        .seed_statuses()
        .into_iter()
        .map(|s| (s.key.to_string(), s.switch, s.machine))
        .collect();
    let want = [("t0/m0/s0", "Rover_t0"), ("t1/m0/s0", "Rover_t1")];
    assert_eq!(
        live,
        want.map(|(k, m)| (k.to_string(), SwitchId(0), m.to_string())),
        "both on switch 0: the heartbeat noticed the lost one, recovery brought it back"
    );
}

/// I3. An operator replan planted a seed that was waiting in the
/// recovery queue as if it were new: cold, and with the queue entry left
/// behind to be retried and finally "abandoned" while the seed ran.
#[test]
fn pinned_replan_lands_a_queued_recovery() {
    let ops = [
        Op::Submit {
            task: 0,
            program: 2,
        },
        Op::Advance(15),
        Op::Crash(2),
        // Fenced at 40 ms; its only candidate is gone, so attempts at
        // 45, 55 and 65 ms fail and the next is due at 85 ms.
        Op::Advance(30),
        Op::Advance(10),
        Op::Advance(10),
        Op::Restart(2),
        // Rejoins at the 70 ms heartbeat.
        Op::Advance(6),
        Op::Replan,
    ];
    let run = hold_invariants((2, 3), &ops);
    assert_eq!(run.farm.recovery_pending(), 0);
    assert_eq!(
        run.recoveries_cold(),
        [false],
        "one warm recovery, landed by the replan"
    );
}

/// I7 (C4 of the committed seats). A recovery used to commit its seed's
/// deploy alone out of a round that also shrank the seeds already on the
/// target switch, so the switch stood over capacity until the next
/// replan: "C4: switch sw1 over capacity on vCPU: 5 > 4".
#[test]
fn pinned_a_landed_recovery_commits_its_round_whole() {
    let submit = |task, program| Op::Submit { task, program };
    let ops = [
        submit(3, 4),
        submit(1, 3),
        submit(2, 1),
        Op::Remove(3),
        submit(0, 1),
        Op::Crash(2),
        Op::Advance(35),
    ];
    let run = hold_invariants((2, 2), &ops);
    assert_eq!(run.farm.recovery_pending(), 0);
}

/// I7 (every soil's trigger table). The second `Tide` on switch 1 makes
/// the LP split the switch between the two, so the round reallocates the
/// first: its trigger must poll at the interval its new PCIe allocation
/// sets, which the soil's audit holds it to.
#[test]
fn pinned_a_realloc_on_a_shared_switch_moves_the_trigger_interval() {
    let tide = |task| Op::Submit { task, program: 8 };
    let ops = [tide(0), Op::Advance(5), tide(1), Op::Advance(5)];
    let run = hold_invariants((2, 2), &ops);
    assert_eq!(run.registered.len(), 2, "both placed on switch 1");
    let reallocated = (run.events.events().into_iter())
        .filter(|e| matches!(e, Event::ReplanSummary { reallocs, .. } if *reallocs > 0))
        .count();
    assert!(
        reallocated > 0,
        "no round reallocated: {:?}",
        run.farm.seed_statuses()
    );
}

/// D1. A landed recovery used to drop the seed's snapshot, so until the
/// next heartbeat the seed's state existed nowhere but on its new host:
/// a second crash inside that window restarted it cold and the
/// checkpoint export had lost it in between.
#[test]
fn pinned_snapshot_outlives_a_recovery_and_a_second_crash() {
    let ops = [
        Op::Submit {
            task: 0,
            program: 1,
        },
        // Captured at 10 and 20 ms; fenced and recovered at 50 ms.
        Op::Advance(20),
        Op::CrashHost(0),
        Op::Advance(30),
        // The new host dies before a heartbeat has seen the seed on it.
        Op::CrashHost(0),
        Op::Advance(30),
    ];
    // Three spines, so that two dead hosts leave the fabric reachable.
    let run = keep_snapshots((3, 3), &ops);
    assert_eq!(run.recoveries_cold(), [false, false]);
    assert_eq!(run.farm.seed_statuses()[0].state, "s", "and it is live");
}

/// D2. A `place all` task on all five switches plus one rover whose host
/// dies before the rover's first heartbeat checkpoint: until the detector
/// fires, any replan wants to migrate the rover off a host that is gone,
/// with no snapshot to import. That used to fail `not deployed` after
/// half the plan was committed.
fn rover_on_a_dead_host_then(op: Op) -> (Run, SeedStatus) {
    let submit = |task, program| Op::Submit { task, program };
    let ops = [
        submit(0, 0),
        submit(1, 5),
        Op::CrashHost(1),
        Op::Advance(1),
        op,
    ];
    let run = hold_invariants((2, 3), &ops);
    let statuses = run.farm.seed_statuses();
    let rover = statuses.into_iter().find(|s| s.key.task == "t1");
    (run, rover.expect("the rover is placed"))
}

#[test]
fn pinned_replan_in_the_crash_to_checkpoint_window_lands_the_seed_cold() {
    let (run, rover) = rover_on_a_dead_host_then(Op::Replan);
    assert!(
        run.farm.fenced_switches().is_empty(),
        "still inside the window"
    );
    assert_eq!(rover.state, "s", "live again, on {:?}", rover.switch);
}

#[test]
fn pinned_drain_in_the_crash_to_checkpoint_window_keeps_its_cordon() {
    let (run, rover) = rover_on_a_dead_host_then(Op::Drain(4));
    assert_eq!(run.farm.cordoned_switches(), [SwitchId(4)]);
    assert_eq!(rover.state, "s", "live again, on {:?}", rover.switch);
    assert_ne!(rover.switch, SwitchId(4));
}

/// Held seats under I1–I5: two `place all` tasks and a rover; the
/// rover's host is drained, a pinned pair is submitted under the cordon
/// (one of its two switches is the cordoned one), another switch dies
/// and an operator replans before the detector has fired. None of it
/// undeploys a pinned seed, and once the cordon is lifted and the dead
/// switch is back every seed of every task is placed.
#[test]
fn pinned_place_all_tasks_hold_their_seats_through_a_cordon_and_a_crash() {
    let submit = |task, program| Op::Submit { task, program };
    let ops = [
        submit(0, 0),
        submit(1, 0),
        submit(2, 5),
        Op::Drain(0),
        Op::Advance(5),
        submit(3, 2),
        Op::Crash(4),
        Op::Advance(10),
        Op::Replan,
        Op::Uncordon(0),
        Op::Restart(4),
        Op::Advance(60),
    ];
    let run = hold_invariants((2, 6), &ops);
    let replanned_away = run
        .stream()
        .iter()
        .filter(|e| {
            matches!(
                e,
                Event::SeedUndeployed {
                    reason: farm_telemetry::UndeployReason::Replanned,
                    ..
                }
            )
        })
        .count();
    assert_eq!(replanned_away, 0);
    assert_eq!(run.farm.recovery_pending(), 0);
    assert_eq!(run.farm.deployed_seeds(), 8 + 8 + 1 + 2);
    assert!(run.farm.seed_statuses().iter().all(|s| s.state != "lost"));
}

/// One switch's cordon through the farm's kept state: a `place all`
/// task and two watchers, a drain of a watcher's switch, that switch's
/// PCIe degraded while it is cordoned, a watcher submitted under the
/// cordon, a crash of another switch, then an uncordon. The kept live
/// list, the round scope and the solver memory follow the one switch at
/// the drain and the uncordon (each after a round that walked the list
/// again), and `Farm::audit` holds each to its recomputation after every
/// step: the uncordoned switch comes back at its degraded capacity.
#[test]
fn pinned_a_cordon_follows_one_switch_through_a_submit_a_crash_and_an_uncordon() {
    let mut run = Run::new((2, 4));
    let mut step = 0;
    let mut go = |run: &mut Run, op: Op| {
        run.apply(op);
        run.check(step, op);
        step += 1;
    };
    let submit = |task, program| Op::Submit { task, program };
    go(&mut run, submit(0, 0));
    go(&mut run, submit(1, 1));
    go(&mut run, submit(2, 1));
    let statuses = run.farm.seed_statuses();
    let host = statuses
        .iter()
        .find(|s| s.key.task == "t1")
        .expect("t1 placed");
    let cordoned = run
        .ids
        .iter()
        .position(|&n| n == host.switch)
        .expect("a switch");
    let other = (cordoned + 1) % run.ids.len();
    let pcie = |run: &Run| {
        let live = run.farm.live_capacities();
        let at = live.iter().find(|(n, _)| *n == host.switch);
        at.map(|(_, caps)| caps.get(ResourceKind::PciePoll))
    };
    let before = pcie(&run).expect("a live switch");
    for op in [
        Op::Drain(cordoned),
        Op::PcieDegrade(cordoned),
        Op::Replan,
        submit(3, 1),
        Op::Crash(other),
        Op::Advance(40),
        Op::Replan,
        Op::Uncordon(cordoned),
    ] {
        go(&mut run, op);
    }
    let after = pcie(&run).expect("uncordoned");
    assert!(
        after < before,
        "the switch returns at its degraded PCIe budget: {after} of {before}"
    );
    assert!(run.farm.seed_statuses().iter().any(|s| s.key.task == "t3"));
}

/// The switches whose harvester reports were retried after `ops` on a
/// two-spine, three-leaf fabric.
fn retried_from(ops: &[Op]) -> BTreeSet<u32> {
    let run = hold_invariants((2, 3), ops);
    let retried = |e: Event| match e {
        Event::DeliveryRetried { from_switch, .. } => Some(from_switch),
        _ => None,
    };
    run.stream().into_iter().filter_map(retried).collect()
}

/// The loss ops reach the right switches: a switch's loss impairs that
/// switch's reports only, and a fabric-wide loss, once the switch's own
/// is healed, impairs every switch's.
#[test]
fn pinned_control_loss_impairs_its_own_scope() {
    let report = Op::Submit {
        task: 0,
        program: 6,
    };
    let one = retried_from(&[report, Op::ControlLoss(Some(1)), Op::Advance(40)]);
    assert_eq!(one, BTreeSet::from([1]));
    let every = retried_from(&[
        report,
        Op::ControlLoss(Some(1)),
        Op::ControlHeal(Some(1)),
        Op::ControlLoss(None),
        Op::Advance(40),
    ]);
    assert_eq!(every, (0..5).collect());
}

/// The key of task `t0`'s first seed.
fn first_seed_of_t0() -> SeedKey {
    SeedKey {
        task: "t0".into(),
        machine: 0,
        seed: 0,
    }
}

/// The seed `key` as its soil runs it: soil-local id and events handled.
fn instance(run: &Run, key: &SeedKey) -> (u64, u64) {
    let status = run.farm.seed_status(key).expect("placed");
    let soil = run
        .farm
        .soil(status.switch)
        .expect("an up switch runs a soil");
    let mut seeds = soil.seeds().filter(|i| i.machine_name() == status.machine);
    let seed = seeds.next().expect("live");
    assert!(
        seeds.next().is_none(),
        "one instance of {key} on its switch"
    );
    (seed.id.0, seed.stats().events_handled)
}

/// A switch restarted cold inside one heartbeat interval numbers its
/// seeds from zero again. The seed recovered onto it is `SeedId(0)`
/// like the one lost, and is brought to as many handled events as the
/// lost one had at its last capture, in another state: a change count
/// per soil would call the two the same and keep the old row.
#[test]
fn pinned_a_cold_restarted_soil_s_first_seed_is_captured_though_it_ran_as_often() {
    let key = first_seed_of_t0();
    let mut run = Run::new((2, 3));
    run.apply(Op::Submit {
        task: 0,
        program: 0,
    });
    run.apply(Op::Advance(9));
    assert_eq!(run.farm.seed_status(&key).unwrap().switch, SwitchId(0));
    let (old_id, ran) = instance(&run, &key);
    run.heartbeat("first capture");
    let captured = run.rows()[&key].clone();
    run.apply(Op::Crash(0));
    run.apply(Op::Restart(0));
    // Lost at this round, recovered warm onto the restarted switch.
    run.heartbeat("loss found");
    assert_eq!(run.recoveries_cold(), [false]);
    assert_eq!(instance(&run, &key).0, old_id);
    while instance(&run, &key).1 < ran {
        run.apply(Op::Advance(1));
    }
    assert_eq!(instance(&run, &key).1, ran);
    assert_ne!(run.live_states()[&key], captured);
    run.heartbeat("after the restart");
}

/// A PCIe shed stores the seed's state from outside a capture; the
/// seed is planted again at once, and the next heartbeat comes before
/// it handles any event there.
#[test]
fn pinned_a_shed_and_replanted_seed_is_captured_at_the_next_heartbeat() {
    let key = first_seed_of_t0();
    let mut run = Run::new((2, 3));
    run.apply(Op::Submit {
        task: 0,
        program: 1,
    });
    run.heartbeat("first capture");
    run.apply(Op::Advance(3));
    let home = run.farm.seed_status(&key).unwrap().switch;
    run.fault(FaultKind::PcieDegrade {
        switch: home,
        factor: 0.01,
    });
    let away = run.farm.seed_status(&key).expect("replanted");
    assert_ne!(away.switch, home);
    assert_eq!(run.recoveries_cold(), [false]);
    run.heartbeat("after the shed");
}

/// A restore rolls the seeds back to their rows, and nothing runs
/// before the next heartbeat.
#[test]
fn pinned_a_restore_with_no_event_after_it_is_captured() {
    let mut run = Run::new((2, 3));
    run.apply(Op::Submit {
        task: 0,
        program: 0,
    });
    run.apply(Op::Advance(3));
    run.apply(Op::Checkpoint);
    let checkpointed = run.rows();
    run.apply(Op::Advance(4));
    assert_ne!(run.live_states(), checkpointed);
    run.apply(Op::Restore);
    assert_eq!(run.live_states(), checkpointed);
    run.heartbeat("after the restore");
}

/// An import writes a row from outside a capture while its seed — a
/// rover, which runs nothing after its deploy — sits at the stamp the
/// row's last capture was taken at: the next heartbeat must write over
/// the import all the same.
#[test]
fn pinned_an_imported_row_is_written_over_at_the_next_heartbeat() {
    let key = first_seed_of_t0();
    let mut run = Run::new((2, 3));
    run.apply(Op::Submit {
        task: 0,
        program: 5,
    });
    run.heartbeat("first capture");
    run.apply(Op::Import);
    assert!(run.rows()[&key].2.iter().any(|(n, _)| n == "imported"));
    run.heartbeat("after the import");
    assert!(run.rows()[&key].2.is_empty());
}
