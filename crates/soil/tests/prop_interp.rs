//! Property-based tests of the seed interpreter.
//!
//! The main one is differential: the VM in `farm_soil::interp` runs the
//! flat register code of a machine, `util/reference_interp.rs` walks its
//! AST the way the interpreter used to, and for every event of a
//! generated sequence both must produce the same effects, abstract cost,
//! statistics, state, variables and error text — over every catalog
//! program (all Tab. I use cases and the anomaly detectors), the
//! benchmark's own programs and machines `util/gen_machine.rs` generates.
//! Hand-written machines cover the scoping, limit and range corners the
//! catalog does not reach, and run to the handler budget: both must stop
//! a delivery at the same check, leaving the same variables. The older
//! properties (HH against a Rust oracle, migration round trips,
//! determinism) stay.

#[path = "util/corpus.rs"]
mod corpus;
#[path = "util/gen_machine.rs"]
mod gen_machine;
#[path = "util/reference_interp.rs"]
mod reference_interp;

use std::sync::Arc;

use corpus::corpus;
use farm_almanac::analysis::{ConstEnv, PollSubject};
use farm_almanac::ast::{Program, TriggerType};
use farm_almanac::compile::{compile_machine, frontend, CompiledMachine};
use farm_almanac::value::{ActionValue, PacketRecord, RuleValue, StatEntry, StatSubject, Value};
use farm_netsim::controller::SdnController;
use farm_netsim::switch::{Resources, SwitchModel};
use farm_netsim::topology::Topology;
use farm_netsim::types::{FilterAtom, FilterFormula, FlowKey, Ipv4, PortSel, SwitchId};
use farm_soil::interp::{
    stats_payload, FixedHost, SeedEvent, SeedId, SeedInstance, HANDLER_BUDGET_OPS,
};
use farm_soil::{Effect, Endpoint};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use reference_interp::RefSeed;

fn compile_in(program: &Program, machine: &str) -> Arc<CompiledMachine> {
    let topo = Topology::spine_leaf(1, 2, SwitchModel::test_model(8), SwitchModel::test_model(8));
    let ctl = SdnController::new(&topo);
    Arc::new(compile_machine(program, machine, &ConstEnv::new(), &ctl).unwrap())
}

fn compile(src: &str, machine: &str) -> Arc<CompiledMachine> {
    compile_in(&frontend(src).unwrap(), machine)
}

fn stat(port: u16, tx_bytes: u64) -> StatEntry {
    StatEntry {
        subject: StatSubject::Port(port),
        tx_bytes,
        rx_bytes: 0,
        tx_packets: tx_bytes / 1500,
        rx_packets: 0,
    }
}

/// One step of a generated sequence, before it is fitted to a machine
/// (trigger names and rule subjects differ per machine).
#[derive(Debug, Clone)]
enum Step {
    Enter,
    Exit,
    Realloc,
    /// Fires the `pick`-th trigger with a payload of its own kind, or —
    /// `misfit`, one time in eight — of the next kind round (type errors
    /// must agree too).
    Fire {
        pick: usize,
        misfit: bool,
        stats: Vec<(u16, u64, u64)>,
        packet: PacketRecord,
        tick: i64,
    },
    /// A trigger the machine does not declare.
    Stray,
    /// A message from the harvester (`from` 0), or from the `from`-th
    /// machine of the program.
    Recv {
        from: usize,
        value: Value,
    },
    /// Snapshot the VM's seed and restore it into fresh seeds on both
    /// sides: migration in the middle of a sequence.
    Migrate,
    /// Restore, on both sides, a snapshot whose `global`-th declared
    /// machine variable holds `value`, whatever its declared type, as a
    /// checkpoint may: a wrong tag is refused, leaving the seed as it
    /// was, or an int widened into a `float`, on both alike.
    Retag {
        global: usize,
        value: Value,
    },
}

fn packets() -> impl Strategy<Value = PacketRecord> {
    (
        (0u8..4, 0u8..4, 0u16..4, 0usize..5),
        (0u32..2000, any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(|((src, dst, sport, dport), (len, syn, fin, ack))| {
            let dport = [22, 53, 80, 443, 8080][dport];
            let (src, dst) = (Ipv4::new(10, 0, src, 1), Ipv4::new(10, 1, dst, 1));
            let mut flow = FlowKey::tcp(src, 1000 + sport, dst, dport);
            if dport == 53 {
                flow = FlowKey::udp(src, 1000 + sport, dst, dport);
            }
            PacketRecord {
                flow,
                len,
                syn,
                fin,
                ack,
            }
        })
}

/// A value of every `Value` variant, lists and pairs one level deep.
fn values() -> impl Strategy<Value = Value> {
    let scalar = || {
        prop_oneof![
            Just(Value::Unit),
            any::<bool>().prop_map(Value::Bool),
            (-5i64..3_000_000).prop_map(Value::Int),
            (-2.0f64..2_000_000.0).prop_map(Value::Float),
            "[a-z0-9./]{0,12}".prop_map(Value::Str),
            packets().prop_map(Value::Packet),
            (0u16..64).prop_map(|p| {
                Value::Filter(FilterFormula::Atom(FilterAtom::IfPort(PortSel::Id(p))))
            }),
            (0u8..5, 0u64..1000).prop_map(|(k, n)| Value::Action(match k {
                0 => ActionValue::Drop,
                1 => ActionValue::RateLimit(n),
                2 => ActionValue::SetQos(n as u8),
                3 => ActionValue::Count,
                _ => ActionValue::Mirror,
            })),
            (0u16..64).prop_map(|p| Value::Rule(RuleValue {
                pattern: FilterFormula::Atom(FilterAtom::DstPort(p)),
                action: ActionValue::Drop,
            })),
            (0.0f64..8.0).prop_map(|x| Value::Resources(Resources::new(x, 64.0 * x, x, 2.0 * x))),
            (0u16..64, 0u64..3_000_000).prop_map(|(p, b)| Value::Stat(stat(p, b))),
        ]
    };
    prop_oneof![
        scalar(),
        scalar(),
        proptest::collection::vec(scalar(), 0..5).prop_map(Value::List),
        (scalar(), scalar()).prop_map(|(a, b)| Value::Pair(Box::new(a), Box::new(b))),
    ]
}

/// What a [`Step::Retag`] writes: any value of [`values`], or as often
/// an int (which a `float` takes widened), except that a number keeps
/// to 1..=64. A machine variable that bounds a loop (`buckets`,
/// `groupSize`) would otherwise run that loop to the handler budget of
/// [`HANDLER_BUDGET_OPS`], in both interpreters, at every later poll:
/// seconds of walking per delivery, for a tag the property already has.
fn retag_values() -> impl Strategy<Value = Value> {
    let ints = any::<i64>().prop_map(Value::Int);
    prop_oneof![values(), ints].prop_map(|v| match v {
        Value::Int(i) => Value::Int(i.rem_euclid(64) + 1),
        Value::Float(f) => Value::Float(f.rem_euclid(64.0) + 0.5),
        other => other,
    })
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let entries =
        |max| proptest::collection::vec((0u16..64, 0u64..4_000_000, 0u64..4_000_000), 0..=max);
    let fire = || {
        (
            (0usize..8, 0u8..8),
            prop_oneof![entries(64), entries(6)],
            packets(),
            0i64..100,
        )
            .prop_map(|((pick, odd), stats, packet, tick)| Step::Fire {
                pick,
                misfit: odd == 0,
                stats,
                packet,
                tick,
            })
    };
    let recv = || {
        (0usize..4, values()).prop_map(|(from, value)| Step::Recv {
            from: from / 2,
            value,
        })
    };
    let retag =
        || (0usize..16, retag_values()).prop_map(|(global, value)| Step::Retag { global, value });
    let step = prop_oneof![
        retag(),
        retag(),
        fire(),
        fire(),
        fire(),
        fire(),
        fire(),
        fire(),
        recv(),
        recv(),
        recv(),
        Just(Step::Realloc),
        Just(Step::Enter),
        Just(Step::Exit),
        Just(Step::Stray),
        Just(Step::Migrate),
    ];
    proptest::collection::vec(step, 1..20)
}

/// Fits a step to a machine; `None` for [`Step::Migrate`].
fn event_for(step: &Step, program: &Program, def: &CompiledMachine) -> Option<SeedEvent> {
    Some(match step {
        Step::Enter => SeedEvent::Enter,
        Step::Exit => SeedEvent::Exit,
        Step::Realloc => SeedEvent::Realloc,
        Step::Migrate | Step::Retag { .. } => return None,
        Step::Stray => SeedEvent::Trigger {
            name: "noSuchTrigger".into(),
            payload: Value::Int(1),
        },
        Step::Recv { from, value } => SeedEvent::Recv {
            from_machine: from
                .checked_sub(1)
                .map(|i| program.machines[i % program.machines.len()].name.clone()),
            value: value.clone(),
        },
        Step::Fire {
            pick,
            misfit,
            stats,
            packet,
            tick,
        } => {
            let Some(trigger) = def.triggers.get(pick % def.triggers.len().max(1)) else {
                return Some(SeedEvent::Realloc); // no triggers at all: still a step
            };
            let kinds = [TriggerType::Poll, TriggerType::Probe, TriggerType::Time];
            let own = kinds
                .iter()
                .position(|k| *k == trigger.kind)
                .expect("a kind");
            let rule = trigger.subjects.iter().find_map(|s| match s {
                PollSubject::Rule(key) => Some(key.clone()),
                _ => None,
            });
            let payload = match kinds[(own + usize::from(*misfit)) % kinds.len()] {
                TriggerType::Poll => stats_payload(
                    stats
                        .iter()
                        .map(|&(port, tx, rx)| StatEntry {
                            // Rule-polling machines see their rule's key
                            // on every other entry.
                            subject: match &rule {
                                Some(key) if port % 2 == 0 => StatSubject::Rule(key.clone()),
                                _ => StatSubject::Port(port),
                            },
                            tx_bytes: tx,
                            rx_bytes: rx,
                            tx_packets: tx / 1000,
                            rx_packets: rx / 1000,
                        })
                        .collect(),
                ),
                TriggerType::Probe => Value::Packet(*packet),
                TriggerType::Time => Value::Int(*tick),
            };
            SeedEvent::Trigger {
                name: trigger.name.clone(),
                payload,
            }
        }
    })
}

/// Runs `steps` through the VM and the reference walker side by side.
fn assert_same_behaviour(label: &str, program: &Program, machine: &str, steps: &[Step]) {
    let def = compile_in(program, machine);
    let alloc = Resources::new(2.0, 512.0, 16.0, 10.0);
    let mut vm = SeedInstance::new(SeedId(1), def.clone(), alloc);
    let mut walker = RefSeed::new(&def, &program.functions);
    let mut host = FixedHost {
        resources: alloc,
        now_ms: 0,
        rules: vec![RuleValue {
            pattern: FilterFormula::Atom(FilterAtom::IfPort(PortSel::Id(3))),
            action: ActionValue::Count,
        }],
    };
    let first = [Step::Enter];
    for (i, step) in first.iter().chain(steps).enumerate() {
        let at = format!("{label}/{machine}, step {i} ({step:?})");
        host.now_ms += 7;
        if let Step::Retag { global, value } = step {
            let mut snap = vm.snapshot();
            let n = snap.vars.len();
            if let Some((_, slot)) = snap.vars.get_mut(global % n.max(1)) {
                *slot = value.clone();
            }
            assert_eq!(vm.restore(&snap), walker.restore(&snap), "restore at {at}");
            assert_eq!(vm.state(), walker.state, "state at {at}");
            assert_eq!(vm.snapshot().vars, walker.sorted_vars(), "vars at {at}");
            continue;
        }
        let Some(event) = event_for(step, program, &def) else {
            let snap = vm.snapshot();
            vm = SeedInstance::new(SeedId(2), def.clone(), alloc);
            vm.restore(&snap).unwrap();
            // Statistics are per instance: both sides start from zero again.
            walker = RefSeed::new(&def, &program.functions);
            walker.restore(&snap).unwrap();
            assert_eq!(vm.state(), walker.state, "state at {at}");
            continue;
        };
        let _ = assert_same_delivery(&mut vm, &mut walker, &event, &host, &at);
    }
}

/// Delivers `event` to both interpreters and compares everything a
/// caller can observe: the outcome or the error text, then state,
/// statistics and variables.
fn assert_same_delivery(
    vm: &mut SeedInstance,
    walker: &mut RefSeed<'_>,
    event: &SeedEvent,
    host: &FixedHost,
    at: &str,
) -> Result<u64, String> {
    let got = vm.handle(event, host);
    let want = walker.handle(event, host);
    match (&got, &want) {
        (Ok(g), Ok(w)) => {
            assert_eq!(g.effects, w.effects, "effects at {at}");
            assert_eq!(g.ops, w.ops, "ops at {at}");
            assert_eq!(g.transitioned, w.transitioned, "transitioned at {at}");
        }
        (Err(g), Err(w)) => assert_eq!(g.error.0, w.0, "error text at {at}"),
        _ => panic!("vm {got:?} but walker {want:?} at {at}"),
    }
    assert_eq!(vm.state(), walker.state, "state at {at}");
    assert_eq!(vm.stats(), walker.stats, "stats at {at}");
    assert_eq!(vm.snapshot().vars, walker.sorted_vars(), "vars at {at}");
    got.map(|o| o.ops).map_err(|e| e.error.0)
}

/// Every machine of every program in the corpus, each on its own
/// generated sequence: the property below picks programs at random, this
/// makes sure none is missed.
#[test]
fn vm_matches_reference_on_every_catalog_program() {
    let mut machines = 0;
    for (i, (label, source)) in corpus().iter().enumerate() {
        let program = frontend(source).unwrap_or_else(|e| panic!("{label}: {e}"));
        for (j, m) in program.machines.iter().enumerate() {
            for round in 0..4 {
                let mut rng = TestRng::seed((i * 64 + j * 8 + round) as u64);
                let steps = steps().generate(&mut rng);
                assert_same_behaviour(label, &program, &m.name, &steps);
            }
            machines += 1;
        }
    }
    assert!(machines >= 22, "corpus shrank to {machines} machines");
}

/// Runs a hand-written machine through both interpreters on `events`.
fn assert_same_on(src: &str, events: &[SeedEvent]) -> SeedInstance {
    let program = frontend(src).unwrap();
    assert_same_on_program(&program, events)
}

fn assert_same_on_program(program: &Program, events: &[SeedEvent]) -> SeedInstance {
    assert_same_ending(program, events).0
}

/// [`assert_same_on_program`], with what the last delivery gave: its
/// ops, or its error text.
fn assert_same_ending(
    program: &Program,
    events: &[SeedEvent],
) -> (SeedInstance, Result<u64, String>) {
    let def = compile_in(program, &program.machines[0].name);
    let mut vm = SeedInstance::new(SeedId(1), def.clone(), Resources::ZERO);
    let mut walker = RefSeed::new(&def, &program.functions);
    let host = FixedHost::default();
    let mut last = Ok(0);
    for (i, event) in events.iter().enumerate() {
        last = assert_same_delivery(&mut vm, &mut walker, event, &host, &format!("event {i}"));
    }
    (vm, last)
}

fn tick(name: &str, n: i64) -> SeedEvent {
    SeedEvent::Trigger {
        name: name.into(),
        payload: Value::Int(n),
    }
}

#[test]
fn payloads_and_parameters_read_in_place_and_jumping_conditions_behave_like_the_walker() {
    // `touch` writes its parameter (a copy), `peek` does not (read in
    // place, recursively, from the payload, a global and a temporary);
    // conditions mix bool-only operands, which become jumps, with plain
    // variables, which are tested as values.
    let vm = assert_same_on(
        r#"fun touch(list xs): long { list_push(xs, 9); return list_len(xs); }
           fun peek(list xs, long k): long {
             if (k <= 0) then { return list_len(xs); }
             return peek(xs, k - 1) + 1;
           }
           machine M {
             place any;
             time t = 5;
             list seen;
             long total = 0;
             bool flag = false;
             state s {
               when (t as n) do {
                 list_push(seen, n);
                 total = touch(seen) + peek(seen, n) + peek(pair_second(pair(n, seen)), 2);
                 if (not (total > 5) or flag and list_len(seen) < 3) then { flag = not flag; }
                 if (is_list_empty(seen) or not is_list_empty(seen) and total >= 0) then {
                   total = total + 1;
                 }
                 if (flag or n > 2) then { total = total * 2; } else { total = 0 - total; }
                 if (not flag) then { total = total + 1000; }
                 while (list_len(seen) > 3 and n < 9) { list_remove_at(seen, 0); }
               }
               when (recv list xs from harvester) do {
                 seen = xs;
                 total = touch(xs) + peek(xs, 1);
                 list_clear(xs);
                 total = total + list_len(xs);
               }
             }
           }"#,
        &[
            tick("t", 1),
            tick("t", 4),
            SeedEvent::Recv {
                from_machine: None,
                value: Value::List(vec![Value::Int(5), Value::Int(6)]),
            },
            tick("t", 0),
            tick("t", 7),
            tick("t", 64),
            tick("t", 3),
        ],
    );
    assert_eq!(
        vm.var("seen").and_then(|v| v.as_list()).map(<[_]>::len),
        Some(3)
    );
}

#[test]
fn shadowed_locals_in_nested_blocks_resolve_like_the_walker() {
    let vm = assert_same_on(
        r#"machine M {
             place any;
             time t = 5;
             long x = 1;
             long seen = 0;
             list trace;
             state s {
               when (t as n) do {
                 list_push(trace, x);          // machine variable: 1
                 long x = x + n;               // initialiser reads the outer x
                 list_push(trace, x);
                 if (x > 0) then {
                   list_push(trace, x);        // still the handler's local
                   long x = 100;
                   list_push(trace, x);
                   if (n > 0) then { long x = 1000; list_push(trace, x); x = x + 1; }
                   x = x + 1;
                   list_push(trace, x);        // 101
                 } else {
                   long x = -1;
                   list_push(trace, x);
                 }
                 list_push(trace, x);          // the handler's local again
                 seen = x;
               }
             }
           }"#,
        &[SeedEvent::Enter, tick("t", 4), tick("t", -9)],
    );
    assert_eq!(vm.var("x"), Some(&Value::Int(1)), "never assigned");
    assert_eq!(vm.var("seen"), Some(&Value::Int(-8)));
    let ints = |v: &[i64]| Value::List(v.iter().map(|&i| Value::Int(i)).collect());
    assert_eq!(
        vm.var("trace"),
        Some(&ints(&[1, 5, 5, 100, 1000, 101, 5, 1, -8, -1, -8]))
    );
}

#[test]
fn a_local_declared_in_a_loop_body_starts_fresh_every_iteration() {
    let vm = assert_same_on(
        r#"machine M {
             place any;
             time t = 5;
             list out;
             long total = 0;
             state s {
               when (t as n) do {
                 long i = 0;
                 while (i < n) {
                   long acc;                   // default 0, every time round
                   list seen;
                   list_push(seen, i);
                   acc = acc + i;
                   total = total + acc + list_len(seen);
                   list_push(out, acc);
                   long i2 = i + 1;
                   i = i2;
                 }
               }
             }
           }"#,
        &[SeedEvent::Enter, tick("t", 4), tick("t", 0), tick("t", 2)],
    );
    assert_eq!(vm.var("total"), Some(&Value::Int(6 + 4 + 1 + 2)));
}

#[test]
fn recursion_stops_at_the_call_depth_limit_with_the_same_error() {
    let src = r#"
        fun down(long n): long {
          if (n <= 0) then { return 0; }
          return 1 + down(n - 1);
        }
        machine M {
          place any;
          time t = 5;
          long got = -1;
          state s { when (t as n) do { got = down(n); } }
        }"#;
    // 64 nested calls is the deepest that fits: down(63) makes 64.
    let vm = assert_same_on(src, &[tick("t", 63), tick("t", 64), tick("t", 500)]);
    assert_eq!(vm.var("got"), Some(&Value::Int(63)));
    let def = compile(src, "M");
    let mut seed = SeedInstance::new(SeedId(9), def, Resources::ZERO);
    let err = seed
        .handle(&tick("t", 64), &FixedHost::default())
        .unwrap_err();
    assert_eq!(err.error.0, "call depth exceeded");
}

/// The error a delivery past its op budget fails with.
fn over_budget() -> String {
    format!("handler budget of {HANDLER_BUDGET_OPS} ops exceeded")
}

/// Delivers `event` to `vm` alone: the error text, or the ops.
fn vm_outcome(vm: &SeedInstance, event: &SeedEvent) -> Result<u64, String> {
    let out = vm.clone().handle(event, &FixedHost::default());
    out.map(|o| o.ops).map_err(|e| e.error.0)
}

#[test]
fn nested_loops_stop_at_the_budget_on_the_same_iteration() {
    // Each loop alone runs far under what a per-loop count would allow;
    // together they pass the one budget of the delivery.
    let src = r#"
        machine M {
          place any;
          time t = 5;
          long bumps = 0;
          long done = 0;
          state s {
            when (t as n) do {
              bumps = 0;
              long i = 0;
              while (i < n) {
                long j = 0;
                while (j < n) { bumps = bumps + 1; j = j + 1; }
                i = i + 1;
              }
              done = done + 1;
            }
          }
        }"#;
    let (vm, last) = assert_same_ending(&frontend(src).unwrap(), &[tick("t", 3), tick("t", 1_000)]);
    assert_eq!(vm.var("done"), Some(&Value::Int(1)));
    let Some(&Value::Int(bumps)) = vm.var("bumps") else {
        panic!("bumps is an int");
    };
    // 13 ops an inner iteration, and 16 more per outer one: a little
    // under HANDLER_BUDGET_OPS / 13 bumps.
    assert_eq!(bumps, 644_484);
    assert_eq!(last, Err(over_budget()));
}

#[test]
fn doubling_recursion_stops_at_the_budget_with_the_same_error() {
    // Never deeper than 41 calls, so the depth limit never fires: the
    // calls' count is what the budget bounds, checked before each call.
    // The loop's global shows which call of `f` the delivery stopped in.
    let src = r#"
        fun f(long n): long {
          if (n <= 0) then { return 1; }
          return f(n - 1) + f(n - 1);
        }
        machine M {
          place any;
          time t = 5;
          long got = 0;
          long k = 0;
          state s {
            when (t as n) do {
              k = 0;
              while (k < n) { got = f(k); k = k + 1; }
            }
          }
        }"#;
    let (vm, last) = assert_same_ending(&frontend(src).unwrap(), &[tick("t", 4), tick("t", 40)]);
    assert_eq!(vm.var("got"), Some(&Value::Int(1 << 17)), "f(17) returned");
    assert_eq!(vm.var("k"), Some(&Value::Int(18)), "f(18) ran out");
    assert_eq!(last, Err(over_budget()));
}

#[test]
fn a_transit_chain_shares_one_budget() {
    // Each `enter` costs under half the budget; the third, in the same
    // delivery, runs out.
    let src = r#"
        machine M {
          place any;
          time t = 5;
          long g = 0;
          long n = 240000;
          when (t as x) do { g = 0; transit b; }
          state a { }
          state b { when (enter) do { long i = 0; while (i < n) { g = g + 1; i = i + 1; } transit c; } }
          state c { when (enter) do { long i = 0; while (i < n) { g = g + 1; i = i + 1; } transit d; } }
          state d { when (enter) do { long i = 0; while (i < n) { g = g + 1; i = i + 1; } transit a; } }
        }"#;
    let (vm, last) = assert_same_ending(&frontend(src).unwrap(), &[tick("t", 0)]);
    assert_eq!(vm.state(), "d", "the third `enter` ran out");
    let Some(&Value::Int(g)) = vm.var("g") else {
        panic!("g is an int");
    };
    assert!((480_000..720_000).contains(&g), "{g}");
    assert_eq!(last, Err(over_budget()));
}

#[test]
fn a_loop_that_ends_under_the_budget_runs_to_its_end() {
    let src = r#"
        machine M {
          place any;
          time t = 5;
          long g = 0;
          state s {
            when (t as n) do {
              g = 0;
              long i = 0;
              while (i < n) { g = g + 1; i = i + 1; }
            }
          }
        }"#;
    let program = frontend(src).unwrap();
    let idle = SeedInstance::new(SeedId(1), compile_in(&program, "M"), Resources::ZERO);
    // ops(n) = fixed + per · n.
    let fixed = vm_outcome(&idle, &tick("t", 0)).unwrap();
    let per = vm_outcome(&idle, &tick("t", 1)).unwrap() - fixed;
    let most = (HANDLER_BUDGET_OPS - fixed) / per;
    let (vm, last) = assert_same_ending(&program, &[tick("t", most as i64)]);
    assert_eq!(last, Ok(fixed + per * most));
    // A check sees the ops before its iteration's body: one iteration
    // more passes every check and ends over the budget, and two more
    // are stopped at the last check, with all but that iteration run.
    let past = |n: u64| {
        let mut vm = vm.clone();
        let out = vm.handle(&tick("t", (most + n) as i64), &FixedHost::default());
        (
            out.map(|o| o.ops).map_err(|e| e.error.0),
            vm.var("g").cloned(),
        )
    };
    let ran = |n: u64| Some(Value::Int((most + n) as i64));
    assert_eq!(past(1), (Ok(fixed + per * (most + 1)), ran(1)));
    assert_eq!(past(2), (Err(over_budget()), ran(1)));
}

#[test]
fn transit_inside_a_function_is_the_same_runtime_error() {
    // The checker rejects this program, so it takes the unchecked road
    // (`parse`, not `frontend`); the runtime must still agree.
    let program = farm_almanac::parser::parse(
        r#"
        fun sneak(long n) { transit b; }
        machine M {
          place any;
          time t = 5;
          state a { when (t as n) do { sneak(n); } }
          state b { }
        }"#,
    )
    .unwrap();
    let vm = assert_same_on_program(&program, &[tick("t", 1)]);
    assert_eq!(vm.state(), "a");
    let err = vm
        .clone()
        .handle(&tick("t", 1), &FixedHost::default())
        .unwrap_err();
    assert_eq!(err.error.0, "transit inside function");
}

#[test]
fn mutation_builtins_hit_the_local_or_the_machine_variable_they_name() {
    let vm = assert_same_on(
        r#"fun build(long n): list {
             list acc;
             long i = 0;
             while (i < n) { list_push_unique(acc, i / 2); i = i + 1; }
             list_remove_at(acc, 0);
             return acc;
           }
           machine M {
             place any;
             time t = 5;
             list kept;
             list lens;
             state s {
               when (t as n) do {
                 list kept2;
                 list_push(kept2, n);
                 list_push(kept, n);
                 if (n > 2) then {
                   list kept;                  // shadows the machine variable
                   list_push(kept, 99);
                   list_push(lens, list_len(kept));
                   list_clear(kept);
                 }
                 list_push(lens, list_len(kept));
                 list_push(lens, list_len(build(n)));
                 if (n == 7) then { list_remove_at(kept, 40); }
                 if (n == 8) then { list_clear(kept); }
               }
             }
           }"#,
        &[
            SeedEvent::Enter,
            tick("t", 1),
            tick("t", 5),
            tick("t", 7), // out-of-bounds removal: error, list untouched
            tick("t", 8),
            tick("t", 0), // build(0) removes from an empty list: error
        ],
    );
    assert_eq!(vm.var("kept"), Some(&Value::List(vec![Value::Int(0)])));
}

#[test]
fn exec_counts_beyond_u32_saturate_instead_of_wrapping() {
    let src = r#"
        machine M {
          place any;
          time t = 5;
          state s {
            when (t as n) do {
              if (n == 0) then { exec_n("job", 4294967296); }
              if (n == 1) then { exec_n("job", 9223372036854775807); }
              if (n == 2) then { exec_n("job", 4294967295); }
              if (n == 3) then { exec_n("job", 0 - 3); }
            }
          }
        }"#;
    let events: Vec<SeedEvent> = (0..=3).map(|n| tick("t", n)).collect();
    let mut vm = assert_same_on(src, &events);
    let iterations: Vec<u32> = events
        .iter()
        .map(
            |e| match vm.handle(e, &FixedHost::default()).unwrap().effects[..] {
                [Effect::Exec { iterations, .. }] => iterations,
                ref other => panic!("{other:?}"),
            },
        )
        .collect();
    assert_eq!(iterations, [u32::MAX, u32::MAX, u32::MAX, 0]);
}

#[test]
fn a_send_to_a_switch_id_outside_u32_fails_naming_it() {
    let src = r#"
        machine M {
          place any;
          time t = 5;
          state s {
            when (t as n) do {
              if (n == 0) then { send 1 to M@(0 - 1); }
              if (n == 1) then { send 1 to M@4294967299; }
              if (n == 2) then { send 1 to M@4294967295; }
              if (n == 3) then { send 1 to M@3; }
            }
          }
        }"#;
    let events: Vec<SeedEvent> = (0..=3).map(|n| tick("t", n)).collect();
    let mut vm = assert_same_on(src, &events);
    let host = FixedHost::default();
    let mut run = |n| vm.handle(&tick("t", n), &host);
    assert_eq!(
        run(0).unwrap_err().error.0,
        "@destination -1 is not a switch id"
    );
    assert_eq!(
        run(1).unwrap_err().error.0,
        "@destination 4294967299 is not a switch id"
    );
    for (n, id) in [(2, u32::MAX), (3, 3)] {
        let out = run(n).unwrap();
        let [Effect::Send {
            to: Endpoint::Machine { at, .. },
            ..
        }] = &out.effects[..]
        else {
            panic!("{:?}", out.effects)
        };
        assert_eq!(*at, Some(SwitchId(id)));
    }
}

#[test]
fn declared_types_hold_at_every_store() {
    // `float x = 5` stores 5.0, so `x / 2` is 2.5; a `recv float` handler
    // given 7 holds 7.0; a `: float` function that returns 1 returns 1.0;
    // ints still compare through f64, so 2^53 + 1 == 2^53.
    let vm = assert_same_on(
        r#"fun one(): float { return 1; }
           fun halve(float v): float { return v / 2; }
           machine T {
             place any;
             time t = 5;
             float half = 0.0;
             float unit = 0.0;
             bool same = false;
             bool branched = false;
             long big = 9007199254740993;
             float got = 0.0;
             float arg = 0.0;
             state s {
               when (t as n) do {
                 float x = 5;
                 half = x / 2;
                 unit = one();
                 arg = halve(n);
                 same = big == 9007199254740992;
                 if (big == 9007199254740992) then { branched = true; }
               }
               when (recv float v from harvester) do { got = v / 2; }
             }
           }"#,
        &[
            tick("t", 3),
            SeedEvent::Recv {
                from_machine: None,
                value: Value::Int(7),
            },
        ],
    );
    assert_eq!(vm.var("half"), Some(&Value::Float(2.5)));
    assert_eq!(vm.var("unit"), Some(&Value::Float(1.0)));
    assert_eq!(vm.var("arg"), Some(&Value::Float(1.5)));
    assert_eq!(vm.var("same"), Some(&Value::Bool(true)));
    assert_eq!(vm.var("branched"), Some(&Value::Bool(true)));
    assert_eq!(vm.var("got"), Some(&Value::Float(3.5)));
}

#[test]
fn arithmetic_on_an_any_is_fitted_where_it_is_stored() {
    // The checker types the sum `any`: an int at run time, it goes into
    // the `long` as it is and into the `float` widened; a float sum is
    // refused by the `long`, naming it.
    let src = r#"
        machine A {
          place any;
          time t = 5;
          long k = 0;
          float x = 0.0;
          state s {
            when (t as n) do {
              if (n == 0) then { k = pair_first(pair(n, 1)) + 1; }
              if (n == 1) then { x = pair_first(pair(n, 1)) + 1; }
              if (n == 2) then { k = pair_first(pair(0.5, 1)) + 1; }
            }
          }
        }"#;
    let events: Vec<SeedEvent> = (0..=2).map(|n| tick("t", n)).collect();
    let mut vm = assert_same_on(src, &events);
    assert_eq!(vm.var("k"), Some(&Value::Int(1)));
    assert_eq!(vm.var("x"), Some(&Value::Float(2.0)));
    let err = vm.handle(&tick("t", 2), &FixedHost::default()).unwrap_err();
    assert_eq!(err.error.0, "cannot store float in long `k`");
}

#[test]
fn a_condition_on_an_int_fails_as_the_int_it_is() {
    // `i` is an int by its declaration, and `not i` is a `not` on an
    // int, not a condition that is not a bool; `b` is a bool by its
    // declaration, and the store of an int into it is refused. The
    // program is unchecked, so lowering must stay total on it.
    let program = farm_almanac::parser::parse(
        r#"machine N {
             place any;
             time t = 5;
             long seen = 0;
             state s {
               when (t as n) do {
                 int i = 7;
                 if (n == 0) then { if (not i) then { seen = 1; } }
                 bool b = true;
                 int j = 0;
                 while (j < 2) {
                   if (not b) then { seen = seen + 1; }
                   b = pair_first(pair(n, j));
                   j = j + 1;
                 }
               }
             }
           }"#,
    )
    .unwrap();
    assert_same_on_program(&program, &[tick("t", 0), tick("t", 1)]);
    let def = compile_in(&program, "N");
    let mut seed = SeedInstance::new(SeedId(1), def, Resources::ZERO);
    let mut error = |n| {
        seed.handle(&tick("t", n), &FixedHost::default())
            .unwrap_err()
            .error
            .0
    };
    assert_eq!(error(0), "`not` on int");
    assert_eq!(error(1), "cannot store int in bool `b`");
}

#[test]
fn every_runtime_error_a_checked_program_can_raise_has_the_same_text() {
    // One failing statement per tick value; `pair_first` returns `any`,
    // which is how a checked program gets a wrongly typed value past the
    // checker.
    let src = r#"
        machine E {
          place any;
          time t = 5;
          list xs;
          long zero = 0;
          long big = 9223372036854775807;
          float x = 0.0;
          filter f;
          state s {
            list hidden;
            when (t as n) do {
              if (n == 0) then { xs = list_get(xs, 3); }
              if (n == 1) then { zero = 1 / zero; }
              if (n == 2) then { big = big + 1; }
              if (n == 3) then { addTCAMRule(getTCAMRule(port 9)); }
              if (n == 4) then { f = srcIP "not-an-ip"; }
              if (n == 5) then { f = proto "gre"; }
              if (n == 6) then { f = dstPort 70000; }
              if (n == 7) then { list_push(hidden, 1); }
              if (n == 8) then { xs = hidden; }
              if (n == 9) then { hidden = xs; }
              if (n == 10) then { zero = to_int(pair_second(zero)); }
              if (n == 11) then { list_remove_at(xs, 5); }
              if (n == 12) then { x = 1.5 / 0; }
              if (n == 13) then { send 1 to E@pair_first(pair("a", 1)); }
              if (n == 14) then { x = pair_first(pair(n, n)).vCPU; }
              if (n == 15) then { if (not pair_first(pair(n, n))) then { zero = 0; } }
              if (n == 16) then { x = -pair_first(pair("a", 1)); }
              if (n == 17) then { if (pair_first(pair(n, n))) then { zero = 0; } }
              if (n == 18) then { while (pair_first(pair(n, n))) { zero = 0; } }
              if (n == 19) then { x = pair_first(pair("a", 1)) + 1; }
              if (n == 20) then { if (pair_first(pair("a", 1)) < pair_first(pair("a", 1))) then { zero = 0; } }
              if (n == 21) then { if (pair_first(pair(n, n)) and true) then { zero = 0; } }
              if (n == 22) then { addTCAMRule(Rule { .pattern = pair_first(pair(n, n)), .act = action_drop() }); }
              if (n == 23) then { zero = pkt_len(pair_first(pair(n, n))); }
              if (n == 24) then { while (zero <= 0) { zero = 0; } }
              if (n == 25) then { zero = list_len(pair_first(pair(n, n))); }
              if (n == 26) then { list_remove_at(xs, pair_first(pair(n, n))); }
              if (n == 27) then { zero = list_get(xs, -1); }
              if (n == 28) then { f = dstPort pair_first(pair(n, n)) and srcIP pair_first(pair(n, n)); }
              if (n == 29) then { xs = pair_first(pair(n, n)); list_push(xs, 1); }
              if (n == 30) then { zero = t; }
            }
          }
        }"#;
    let events: Vec<SeedEvent> = (0..=30).map(|n| tick("t", n)).collect();
    assert_same_on(src, &events);
    // All of them are errors, and nearly all distinct ones.
    let def = compile(src, "E");
    let mut seed = SeedInstance::new(SeedId(1), def, Resources::ZERO);
    let texts: std::collections::BTreeSet<String> = events
        .iter()
        .map(|e| seed.handle(e, &FixedHost::default()).unwrap_err().error.0)
        .collect();
    assert!(texts.len() >= 26, "{texts:#?}");
}

proptest! {
    /// The differential property: a random program of the corpus, a
    /// random machine of it, a random event sequence. Case count comes
    /// from `PROPTEST_CASES` (CI's `interpreter` job raises it).
    #[test]
    fn vm_matches_reference_effect_for_effect(
        pick in 0usize..1000,
        machine in 0usize..8,
        steps in steps(),
    ) {
        let corpus = corpus();
        let (label, source) = &corpus[pick % corpus.len()];
        let program = frontend(source).unwrap();
        let name = program.machines[machine % program.machines.len()].name.clone();
        assert_same_behaviour(label, &program, &name, &steps);
    }
}

proptest! {
    /// The same differential on a machine the generator makes from
    /// `seed`: every declared type, nested control flow, recursion,
    /// stat scans and `any` values stored into typed variables, over
    /// the same generated events.
    #[test]
    fn vm_matches_reference_on_generated_machines(seed in any::<u64>(), steps in steps()) {
        let source = gen_machine::machine(seed);
        let program = frontend(&source).unwrap_or_else(|e| panic!("{e}\n{source}"));
        let label = format!("generated machine {seed}");
        assert_same_behaviour(&label, &program, gen_machine::MACHINE, &steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The HH seed's detection agrees with a Rust oracle on arbitrary
    /// polled statistics: it transitions (and reports) iff some entry
    /// meets the threshold, and the reported list matches exactly.
    #[test]
    fn hh_seed_matches_oracle(
        volumes in proptest::collection::vec(0u64..3_000_000, 1..24),
        threshold in 1i64..2_000_000,
    ) {
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        let mut seed = SeedInstance::new(SeedId(1), def, Resources::ZERO);
        let host = FixedHost::default();
        // Set the threshold through the harvester path.
        seed.handle(
            &SeedEvent::Recv { from_machine: None, value: Value::Int(threshold) },
            &host,
        ).unwrap();
        let entries: Vec<StatEntry> = volumes
            .iter()
            .enumerate()
            .map(|(i, &v)| stat(i as u16, v))
            .collect();
        let out = seed.handle(
            &SeedEvent::Trigger {
                name: "pollStats".into(),
                payload: stats_payload(entries),
            },
            &host,
        ).unwrap();
        let oracle: Vec<u16> = volumes
            .iter()
            .enumerate()
            .filter(|(_, &v)| v as i64 >= threshold)
            .map(|(i, _)| i as u16)
            .collect();
        prop_assert_eq!(out.transitioned, !oracle.is_empty());
        let sent: Option<Vec<u16>> = out.effects.iter().find_map(|e| match e {
            Effect::Send { value: Value::List(items), .. } => Some(
                items
                    .iter()
                    .filter_map(|v| match v {
                        Value::Stat(s) => match s.subject {
                            StatSubject::Port(p) => Some(p),
                            _ => None,
                        },
                        _ => None,
                    })
                    .collect(),
            ),
            _ => None,
        });
        match sent {
            Some(ports) => prop_assert_eq!(ports, oracle),
            None => prop_assert!(oracle.is_empty(), "missing report for {:?}", oracle),
        }
    }

    /// Migration invariant: snapshot → restore reproduces *behaviour*,
    /// not just variables — the restored seed reacts to the next poll
    /// exactly as the original would.
    #[test]
    fn snapshot_restore_preserves_behaviour(
        pre in proptest::collection::vec(0u64..2_000_000, 0..8),
        post in proptest::collection::vec(0u64..2_000_000, 1..8),
        threshold in 1i64..1_500_000,
    ) {
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        let host = FixedHost::default();
        let mut original = SeedInstance::new(SeedId(1), def.clone(), Resources::ZERO);
        original.handle(
            &SeedEvent::Recv { from_machine: None, value: Value::Int(threshold) },
            &host,
        ).unwrap();
        for (i, &v) in pre.iter().enumerate() {
            original.handle(
                &SeedEvent::Trigger {
                    name: "pollStats".into(),
                    payload: stats_payload(vec![stat(i as u16, v)]),
                },
                &host,
            ).unwrap();
        }
        // Migrate.
        let snap = original.snapshot();
        let mut migrated = SeedInstance::new(SeedId(2), def, Resources::ZERO);
        migrated.restore(&snap).unwrap();
        // Both must now behave identically on the same future input.
        let payload: Vec<StatEntry> = post
            .iter()
            .enumerate()
            .map(|(i, &v)| stat(i as u16, v))
            .collect();
        let ev = SeedEvent::Trigger {
            name: "pollStats".into(),
            payload: stats_payload(payload),
        };
        let a = original.handle(&ev, &host).unwrap();
        let b = migrated.handle(&ev, &host).unwrap();
        prop_assert_eq!(a.effects, b.effects);
        prop_assert_eq!(a.transitioned, b.transitioned);
        prop_assert_eq!(original.state(), migrated.state());
    }

    /// Handlers are pure functions of (seed state, event, host): two
    /// identical seeds fed the same event sequence stay identical.
    #[test]
    fn interpreter_is_deterministic(
        seq in proptest::collection::vec((0u16..8, 0u64..2_000_000), 1..16),
    ) {
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        let host = FixedHost::default();
        let mut a = SeedInstance::new(SeedId(1), def.clone(), Resources::ZERO);
        let mut b = SeedInstance::new(SeedId(2), def, Resources::ZERO);
        for (port, v) in seq {
            let ev = SeedEvent::Trigger {
                name: "pollStats".into(),
                payload: stats_payload(vec![stat(port, v)]),
            };
            let ra = a.handle(&ev, &host).unwrap();
            let rb = b.handle(&ev, &host).unwrap();
            prop_assert_eq!(ra.effects, rb.effects);
        }
        prop_assert_eq!(a.snapshot().vars, b.snapshot().vars);
    }
}
