//! Observability tour: build a farm with telemetry sinks attached, run
//! the heavy-hitter task, and show all three consumption styles —
//! streaming JSON-lines events, the typed ring-buffer event log, and the
//! registry of counters/histograms.
//!
//! ```text
//! cargo run --example observability
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use farm_core::prelude::*;
use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig};

fn main() {
    let topology = Topology::spine_leaf(
        2,
        3,
        SwitchModel::accton_as7712(),
        SwitchModel::accton_as5712(),
    );

    // Two sinks on the same event stream: a bounded in-memory log for
    // programmatic inspection and a JSON-lines stream to stdout.
    let log = Arc::new(RingBufferSink::new(65_536));
    let json = Arc::new(JsonLinesSink::new(Box::new(std::io::stdout())));
    let mut farm = FarmBuilder::new(topology)
        .with_config(FarmConfig::default())
        .with_harvester("hh", Box::new(CollectingHarvester::new()))
        .with_sink(log.clone())
        .with_sink(json.clone())
        .build();

    // Deploying a task emits solver-phase, seed-lifecycle and replan
    // events (visible above as JSON lines).
    farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
        .expect("HH compiles and places");

    // Drive traffic; polls, aggregations, IPC deliveries and harvester
    // reports stream out while the registry accumulates.
    let leaf = farm.network().topology().leaves().next().unwrap();
    let mut traffic = HeavyHitterWorkload::new(HhConfig {
        switch: leaf,
        n_ports: 32,
        hh_ratio: 0.1,
        hh_rate_bps: 5_000_000_000,
        ..Default::default()
    });
    farm.run(
        &mut [&mut traffic],
        Time::from_millis(60),
        Dur::from_millis(1),
    );
    json.flush();

    // 1. The typed event log, grouped by kind.
    let events = log.events();
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in &events {
        *by_kind.entry(e.kind()).or_default() += 1;
    }
    eprintln!(
        "\nevent log ({} events, {} dropped):",
        events.len(),
        log.dropped()
    );
    for (kind, n) in &by_kind {
        eprintln!("  {kind:<20} {n}");
    }

    // 2. The registry: counters and latency histograms.
    let snap = farm.telemetry().snapshot();
    eprintln!("\nregistry counters:");
    for (name, value) in &snap.counters {
        eprintln!("  {name:<28} {value}");
    }
    eprintln!("latency histograms (µs):");
    for (name, h) in &snap.histograms {
        eprintln!(
            "  {name:<28} count={} p50={:.0} p99={:.0} max={}",
            h.count,
            h.p50.unwrap_or(0.0),
            h.p99.unwrap_or(0.0),
            h.max
        );
    }
}
