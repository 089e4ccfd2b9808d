//! The abstract cost model, pinned: `Outcome.ops` of every catalog and
//! benchmark machine on fixed payloads.
//!
//! The soil turns ops into switch-CPU cycles, and through them into poll
//! slack and time to detection, so these numbers are observable
//! behaviour. `prop_interp` holds the VM to its oracle; this holds both
//! to the numbers the cost model has always produced, so a change made to
//! the two together still shows here.

#[path = "util/corpus.rs"]
mod corpus;

use std::sync::Arc;

use farm_almanac::analysis::{ConstEnv, PollSubject};
use farm_almanac::ast::TriggerType;
use farm_almanac::compile::{compile_machine, frontend, CompiledMachine};
use farm_almanac::value::{PacketRecord, StatEntry, StatSubject, Value};
use farm_netsim::controller::SdnController;
use farm_netsim::switch::{Resources, SwitchModel};
use farm_netsim::topology::Topology;
use farm_netsim::types::{FlowKey, Ipv4};
use farm_soil::interp::{
    stats_payload, FixedHost, SeedEvent, SeedId, SeedInstance, HANDLER_BUDGET_OPS,
};

/// Per `label/machine`: the ops of `enter`, then of the first and the
/// last of [`ROUNDS`] rounds of one fixed event per trigger in
/// declaration order (`None`: the delivery fails). Every poll returns 48
/// ports well below any detector's threshold; by the last round every
/// detector is past its warm-up (a quiet poll then costs HH 840 ops,
/// DigMicroburst 834 and KissPortSpike 2 651).
const GOLDEN: &[(&str, &[Option<u64>])] = &[
    ("HH/HH", &[Some(0), Some(840), Some(840)]),
    ("HHH/HH", &[Some(0), Some(840), Some(840)]),
    ("HHH/HHH", &[Some(0), Some(8803), Some(8803)]),
    ("HHH2/HHH2", &[Some(0), Some(68423), Some(68423)]),
    ("DDoS/DDoS", &[Some(0), Some(46), Some(46)]),
    (
        "NewTcpConn/NewTcpConn",
        &[Some(0), Some(13), Some(6), Some(13), Some(6)],
    ),
    (
        "SynFlood/SynFlood",
        &[Some(0), Some(47), Some(46), Some(47), Some(46)],
    ),
    (
        "PartialTcpFlow/PartialTcpFlow",
        &[Some(0), Some(51), Some(45), Some(68), Some(45)],
    ),
    ("Slowloris/Slowloris", &[Some(0), Some(54), Some(54)]),
    ("LinkFailure/LinkFailure", &[Some(0), Some(8), Some(52160)]),
    ("TrafficChange/TrafficChange", &[Some(0), Some(3), Some(3)]),
    (
        "FlowSizeDist/FlowSizeDist",
        &[Some(0), Some(248341), Some(248341)],
    ),
    (
        "Superspreader/Superspreader",
        &[Some(0), Some(43), Some(49), Some(43), Some(49)],
    ),
    (
        "SshBruteForce/SshBruteForce",
        &[Some(0), Some(42), Some(31), Some(42), Some(31)],
    ),
    (
        "PortScan/PortScan",
        &[Some(0), Some(51), Some(46), Some(51), Some(46)],
    ),
    (
        "DnsReflection/DnsReflection",
        &[
            Some(0),
            Some(36),
            Some(35),
            Some(101),
            Some(36),
            Some(35),
            Some(101),
        ],
    ),
    (
        "EntropyEstimation/EntropyEstimation",
        &[Some(0), Some(2562), Some(2562)],
    ),
    (
        "FloodDefender/FloodDefender",
        &[Some(0), Some(69), Some(14), Some(69), Some(14)],
    ),
    ("KissVolume/KissVolume", &[Some(0), Some(1119), Some(1119)]),
    (
        "KissPortSpike/KissPortSpike",
        &[Some(0), Some(1499), Some(2651)],
    ),
    (
        "DigMicroburst/DigMicroburst",
        &[Some(0), Some(834), Some(834)],
    ),
    (
        "load_watcher.alm/LoadWatcher",
        &[Some(0), Some(840), Some(840)],
    ),
    (
        "pinned_watcher.alm/PinnedWatcher",
        &[Some(0), Some(840), Some(840)],
    ),
];

const ROUNDS: usize = 8;

/// One event per trigger: port polls get 48 quiet ports, rule polls one
/// entry for the rule, probes one packet, timers tick 1.
fn events(def: &CompiledMachine) -> Vec<SeedEvent> {
    let port = |p: u16| StatEntry {
        subject: StatSubject::Port(p),
        tx_bytes: 1000 + 7 * u64::from(p),
        rx_bytes: 500,
        tx_packets: 3,
        rx_packets: 1,
    };
    def.triggers
        .iter()
        .map(|t| SeedEvent::Trigger {
            name: t.name.clone(),
            payload: match t.kind {
                TriggerType::Poll => stats_payload(
                    t.subjects
                        .iter()
                        .flat_map(|s| match s {
                            PollSubject::AllPorts => (0..48).map(port).collect(),
                            PollSubject::Port(p) => vec![port(*p)],
                            PollSubject::Rule(key) => vec![StatEntry {
                                subject: StatSubject::Rule(key.clone()),
                                ..port(0)
                            }],
                        })
                        .collect(),
                ),
                TriggerType::Probe => Value::Packet(PacketRecord {
                    flow: FlowKey::tcp(Ipv4::new(10, 0, 0, 1), 1000, Ipv4::new(10, 1, 0, 1), 80),
                    len: 100,
                    syn: true,
                    fin: false,
                    ack: false,
                }),
                TriggerType::Time => Value::Int(1),
            },
        })
        .collect()
}

fn measure() -> Vec<(String, Vec<Option<u64>>)> {
    let topo = Topology::spine_leaf(1, 2, SwitchModel::test_model(8), SwitchModel::test_model(8));
    let ctl = SdnController::new(&topo);
    let alloc = Resources::new(2.0, 512.0, 16.0, 10.0);
    let host = FixedHost {
        resources: alloc,
        now_ms: 1_000,
        rules: Vec::new(),
    };
    let mut table = Vec::new();
    for (label, source) in corpus::corpus() {
        let program = frontend(&source).unwrap_or_else(|e| panic!("{label}: {e}"));
        for m in &program.machines {
            let def = Arc::new(compile_machine(&program, &m.name, &ConstEnv::new(), &ctl).unwrap());
            let events = events(&def);
            let mut seed = SeedInstance::new(SeedId(1), def, alloc);
            let mut ops = vec![seed.handle(&SeedEvent::Enter, &host).ok().map(|o| o.ops)];
            for round in 1..=ROUNDS {
                for e in &events {
                    let cost = seed.handle(e, &host).ok().map(|o| o.ops);
                    if round == 1 || round == ROUNDS {
                        ops.push(cost);
                    }
                }
            }
            table.push((format!("{label}/{}", m.name), ops));
        }
    }
    table
}

#[test]
fn ops_are_pinned_for_every_corpus_machine_on_fixed_payloads() {
    let got = measure();
    let want: Vec<(String, Vec<Option<u64>>)> = GOLDEN
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_vec()))
        .collect();
    if got != want {
        let rows: String = got
            .iter()
            .map(|(k, v)| format!("    ({k:?}, &{v:?}),\n"))
            .collect();
        panic!("the cost model moved; measured now:\n{rows}");
    }
}

/// A delivery past [`HANDLER_BUDGET_OPS`] fails, so every pinned program
/// keeps a wide margin under it: one that comes near is seen here, not
/// in production. The largest pin, FlowSizeDist's 248 341, is 1/33.8 of
/// the budget.
#[test]
fn every_pinned_delivery_is_far_under_the_handler_budget() {
    let headroom = HANDLER_BUDGET_OPS / 32;
    for (label, ops) in GOLDEN {
        for &n in ops.iter().flatten() {
            assert!(n <= headroom, "{label}: {n} ops, over budget / 32");
        }
    }
}
