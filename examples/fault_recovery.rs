//! Fault-injection tour: run FARM under a deterministic failure schedule
//! — a hard switch crash with restart, a link flap, control-channel loss
//! and PCIe degradation — and watch the failure detector, shedding and
//! automatic recovery respond. Everything is replayable: the same plan
//! yields the same event trace, so set FARM_FAULT_SEED to explore other
//! churn schedules.
//!
//! ```text
//! cargo run --example fault_recovery
//! FARM_FAULT_SEED=42 cargo run --example fault_recovery
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;

use farm_core::prelude::*;
use farm_faults::{ChurnProfile, FaultKind, FaultPlan, LossSpec};
use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig};
use farm_netsim::types::SwitchId;

/// A movable monitoring task: unlike the pinned `place all` programs it
/// can be re-placed anywhere, which is what recovery exercises.
const MONITOR: &str = r#"
machine Mon {
  place any;
  poll p = Poll { .ival = 1, .what = port ANY };
  long total = 0;
  state s {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 256) then {
        return min(res.vCPU, res.PCIe);
      }
    }
    when (p as stats) do {
      total = total + list_len(stats);
      send total to harvester;
    }
  }
}
"#;

/// Runs the walkthrough under churn seed `seed`: the farm as it ends,
/// its event log, and how many seeds were deployed before the first
/// fault. `tests/integration_faults.rs` includes this file to hold the
/// very scenario printed here to "no seed is lost".
pub fn run(seed: u64) -> (Farm, Arc<RingBufferSink>, usize) {
    let topology = Topology::spine_leaf(
        2,
        4,
        SwitchModel::accton_as7712(),
        SwitchModel::accton_as5712(),
    );
    let switches: Vec<SwitchId> = (0..6).map(SwitchId).collect();

    // A hand-written prologue (one crash, one flap, a lossy window, one
    // PCIe brown-out) followed by seeded churn across the fabric.
    let mut plan = FaultPlan::churn(
        seed,
        &switches,
        Time::from_millis(120),
        Time::from_millis(400),
        ChurnProfile::default(),
    )
    .crash_and_restart(SwitchId(4), Time::from_millis(30), Dur::from_millis(60))
    .link_flap(
        SwitchId(0),
        SwitchId(3),
        Time::from_millis(50),
        Dur::from_millis(20),
    );
    plan.push(
        Time::from_millis(60),
        FaultKind::ControlLoss {
            switch: None,
            spec: LossSpec {
                drop: 0.3,
                duplicate: 0.05,
                delay: Dur::from_micros(200),
            },
        },
    );
    plan.push(
        Time::from_millis(110),
        FaultKind::ControlHeal { switch: None },
    );
    // A fleet-wide PCIe brown-out: the fast-polling monitor no longer
    // fits the degraded bus and is shed; the slower HH seeds survive.
    for &sw in &switches {
        plan.push(
            Time::from_millis(70),
            FaultKind::PcieDegrade {
                switch: sw,
                factor: 0.01,
            },
        );
        plan.push(
            Time::from_millis(100),
            FaultKind::PcieRestore { switch: sw },
        );
    }

    let log = Arc::new(RingBufferSink::new(65_536));
    let mut farm = FarmBuilder::new(topology)
        .with_fault_plan(plan)
        .with_harvester("hh", Box::new(CollectingHarvester::new()))
        .with_harvester("mon", Box::new(CollectingHarvester::new()))
        .with_sink(log.clone())
        .build();
    farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
        .expect("HH compiles and places");
    farm.deploy_task("mon", MONITOR, &BTreeMap::new())
        .expect("monitor compiles and places");
    let deployed_at_start = farm.deployed_seeds();

    let leaf = farm.network().topology().leaves().next().unwrap();
    let mut traffic = HeavyHitterWorkload::new(HhConfig {
        switch: leaf,
        n_ports: 32,
        hh_ratio: 0.1,
        ..Default::default()
    });
    farm.run(
        &mut [&mut traffic],
        Time::from_millis(500),
        Dur::from_millis(1),
    );
    (farm, log, deployed_at_start)
}

fn main() {
    let seed: u64 = std::env::var("FARM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let (farm, log, deployed_at_start) = run(seed);

    // The fault / detection / recovery story, in event order.
    eprintln!("fault timeline (seed {seed}):");
    for e in log.events() {
        match e {
            Event::SwitchCrashed { at_ns, switch } => {
                eprintln!("  {:>6.1}ms  switch {switch} crashed", at_ns as f64 / 1e6);
            }
            Event::SwitchRestarted { at_ns, switch } => {
                eprintln!("  {:>6.1}ms  switch {switch} restarted", at_ns as f64 / 1e6);
            }
            Event::SwitchDeclaredFailed {
                at_ns,
                switch,
                missed,
            } => eprintln!(
                "  {:>6.1}ms  switch {switch} declared failed after {missed} missed heartbeats",
                at_ns as f64 / 1e6
            ),
            Event::SeedOrphaned {
                at_ns,
                switch,
                task,
                has_snapshot,
                ..
            } => eprintln!(
                "  {:>6.1}ms  seed of '{task}' orphaned on switch {switch} (snapshot: {has_snapshot})",
                at_ns as f64 / 1e6
            ),
            Event::SeedShed {
                at_ns,
                switch,
                task,
                resource,
                demand,
                budget,
                ..
            } => eprintln!(
                "  {:>6.1}ms  seed of '{task}' shed on switch {switch}: {resource:?} demand {demand:.1} > budget {budget:.1}",
                at_ns as f64 / 1e6
            ),
            Event::SeedRecovered {
                at_ns,
                switch,
                task,
                cold_start,
                mttr_ns,
                attempts,
                ..
            } => eprintln!(
                "  {:>6.1}ms  seed of '{task}' recovered on switch {switch} ({} restore, {:.1}ms MTTR, {attempts} attempt(s))",
                at_ns as f64 / 1e6,
                if cold_start { "cold" } else { "warm" },
                mttr_ns as f64 / 1e6
            ),
            Event::RecoveryAbandoned { at_ns, task, .. } => eprintln!(
                "  {:>6.1}ms  recovery of '{task}' abandoned",
                at_ns as f64 / 1e6
            ),
            _ => {}
        }
    }

    let snap = farm.telemetry().snapshot();
    eprintln!("\nreliability counters:");
    for name in [
        "farm.heartbeats",
        "farm.recoveries",
        "farm.delivery_retries",
        "farm.dead_letters",
        "soil.seeds_shed",
    ] {
        eprintln!("  {name:<24} {}", snap.counter(name));
    }
    if let Some(h) = snap.histogram("recovery.mttr_us") {
        eprintln!(
            "  MTTR (µs)                count={} p50={:.0} max={}",
            h.count,
            h.p50.unwrap_or(0.0),
            h.max
        );
    }
    eprintln!(
        "\nseeds: {} deployed at start, {} now, {} awaiting recovery",
        deployed_at_start,
        farm.deployed_seeds(),
        farm.recovery_pending()
    );
}
