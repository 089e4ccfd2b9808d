//! End-to-end telemetry: builder-attached sinks observe the seed
//! lifecycle, the registry accumulates every layer's instruments, and
//! detection latency is sampled once per harvester report.

use std::collections::BTreeMap;
use std::sync::Arc;

use farm_almanac::compile::compile_task;
use farm_core::prelude::*;
use farm_netsim::controller::SdnController;
use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig};
use farm_telemetry::{Recorded, SpanLog};

fn fabric() -> Topology {
    Topology::spine_leaf(
        2,
        3,
        SwitchModel::accton_as7712(),
        SwitchModel::accton_as5712(),
    )
}

fn run_hh(farm: &mut Farm) {
    farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
        .expect("HH compiles and places");
    let leaf = farm.network().topology().leaves().next().unwrap();
    let mut hh = HeavyHitterWorkload::new(HhConfig {
        switch: leaf,
        n_ports: 16,
        hh_ratio: 0.1,
        hh_rate_bps: 5_000_000_000,
        ..Default::default()
    });
    farm.run(&mut [&mut hh], Time::from_millis(50), Dur::from_millis(1));
}

#[test]
fn deploy_emits_seed_lifecycle_events() {
    let log = Arc::new(RingBufferSink::new(65_536));
    let mut farm = FarmBuilder::new(fabric()).with_sink(log.clone()).build();
    farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
        .expect("HH compiles and places");

    let events = log.events();
    let deployed: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            Event::SeedDeployed { task, switch, .. } => Some((task.clone(), *switch)),
            _ => None,
        })
        .collect();
    // `place all` puts one seed on each of the 5 switches.
    assert_eq!(deployed.len(), 5);
    assert!(deployed.iter().all(|(task, _)| task == "hh"));
    let mut switches: Vec<u32> = deployed.iter().map(|(_, s)| *s).collect();
    switches.sort_unstable();
    switches.dedup();
    assert_eq!(switches.len(), 5, "one seed per distinct switch");

    // Planning itself is visible: solver phases and the replan outcome.
    assert!(events.iter().any(|e| matches!(
        e,
        Event::SolverPhase {
            phase: "greedy",
            ..
        }
    )));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::ReplanCompleted { actions: 5, .. })));
}

#[test]
fn running_traffic_fills_poll_ipc_and_detection_instruments() {
    let log = Arc::new(RingBufferSink::new(1 << 20));
    let mut farm = FarmBuilder::new(fabric()).with_sink(log.clone()).build();
    run_hh(&mut farm);

    let snap = farm.telemetry().snapshot();
    assert!(snap.counter("soil.asic_polls") > 0);
    assert!(snap.counter("pcie.requests") > 0);
    assert!(snap.counter("ipc.messages") > 0);

    let poll = snap.histogram("poll.latency_us").expect("polls recorded");
    assert!(poll.count > 0);
    assert!(poll.p50.is_some() && poll.p99.is_some());
    assert!(poll.p50.unwrap() <= poll.p99.unwrap());

    // The event stream saw the polls too.
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e, Event::PollIssued { .. })));
}

#[test]
fn detection_latency_has_one_sample_per_harvester_report() {
    let mut farm = Farm::new(fabric(), FarmConfig::default());
    farm.set_harvester("hh", Box::new(CollectingHarvester::new()));
    run_hh(&mut farm);

    let snap = farm.telemetry().snapshot();
    assert!(
        snap.counter("farm.collector_bytes") > 0,
        "harvester traffic must flow"
    );

    // Detection latency: one histogram sample per harvester report.
    let detection = snap
        .histogram("detection.latency_us")
        .expect("reports were delivered");
    assert!(detection.count > 0);
    assert_eq!(detection.count, snap.counter("farm.collector_messages"));
    assert!(detection.p99.is_some());
}

#[test]
fn ring_buffer_reports_overflow_instead_of_growing() {
    let log = Arc::new(RingBufferSink::new(8));
    let mut farm = FarmBuilder::new(fabric()).with_sink(log.clone()).build();
    run_hh(&mut farm);
    assert_eq!(log.len(), 8, "capacity is a hard bound");
    assert!(log.dropped() > 0, "the run emits far more than 8 events");
}

/// Every phase time the farm, the seeder and the solver sample is the
/// duration of a span of the log they were handed, on its clock: here
/// a fake one that steps 10 µs a read.
#[test]
fn the_phase_samples_are_the_durations_of_the_log_s_spans() {
    let events = Arc::new(RingBufferSink::new(4096));
    let mut farm = Farm::builder(fabric()).with_sink(events.clone()).build();
    #[allow(clippy::disallowed_methods)] // the fake clock's origin
    let origin = std::time::Instant::now();
    let reads = std::cell::Cell::new(0u64);
    let clock = || {
        reads.set(reads.get() + 1);
        origin + std::time::Duration::from_micros(10 * reads.get())
    };
    let mut recorded = Recorded::default();
    let log = &mut SpanLog::on(&clock, origin, &mut recorded);
    for name in ["a", "b", "c"] {
        let ctl = SdnController::new(farm.network().topology());
        let rover = "machine M { place any; state s { } }";
        let task = compile_task(name, rover, &BTreeMap::new(), &ctl).unwrap();
        farm.deploy_compiled_traced(task, log).unwrap();
    }
    farm.replan_traced(log).unwrap();
    farm.remove_task_traced("b", log).unwrap();

    let spans = |names: &[&str]| -> Vec<u64> {
        (recorded.spans.iter())
            .filter(|s| names.contains(&s.name))
            .map(|s| s.end_us - s.start_us)
            .collect()
    };
    let total = |d: &[u64]| Some((d.len() as u64, d.iter().sum::<u64>()));
    let snap = farm.telemetry().snapshot();
    let sum = |name: &str| snap.histogram(name).map(|h| (h.count, h.sum));
    let rounds = spans(&["replan"]);
    assert_eq!(rounds.len(), 4);
    assert!(
        rounds.iter().all(|&us| us > 0 && us % 10 == 0),
        "{rounds:?}"
    );
    assert_eq!(sum("farm.replan_us"), total(&rounds));
    assert_eq!(sum("seeder.splice_us"), total(&spans(&["splice"])));
    let phases = spans(&["greedy", "lp_redistribution", "migration"]);
    assert_eq!(sum("solver.phase_us"), total(&phases));
    let summaries: Vec<u64> = (events.events().iter())
        .filter_map(|e| match e {
            Event::ReplanSummary { elapsed_us, .. } => Some(*elapsed_us),
            _ => None,
        })
        .collect();
    assert_eq!(summaries, rounds);
    // The counts sum over the four rounds: all but the first warm.
    assert!(
        recorded.counts.contains(&("warm", 3)),
        "{:?}",
        recorded.counts
    );
}
