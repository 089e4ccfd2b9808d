//! Integration: the seeder's global placement across the live framework —
//! capacity pressure, re-optimization, and migration with state transfer.

use std::collections::BTreeMap;

use farm_almanac::value::Value;
use farm_core::farm::{Farm, FarmConfig};
use farm_core::seeder::PlannedAction;
use farm_netsim::switch::SwitchModel;
use farm_netsim::topology::Topology;
use farm_placement::heuristic::HeuristicOptions;

fn fabric(leaves: usize) -> Topology {
    Topology::spine_leaf(
        2,
        leaves,
        SwitchModel::accton_as7712(),
        SwitchModel::accton_as5712(),
    )
}

/// A flexible one-seed task that can live on any switch and wants 1 vCPU.
fn flexible_task_src() -> &'static str {
    r#"
machine Flex {
  place any;
  poll p = Poll { .ival = 100, .what = port ANY };
  long total = 0;
  state s {
    util (res) {
      if (res.vCPU >= 1 and res.RAM >= 256) then { return res.vCPU; }
    }
    when (p as stats) do { total = total + list_len(stats); }
  }
}
"#
}

#[test]
fn placement_spreads_flexible_seeds_for_utility() {
    let mut farm = Farm::new(fabric(4), FarmConfig::default());
    // 12 flexible single-seed tasks on 6 switches with 4 vCPU each.
    for i in 0..12 {
        farm.deploy_task(&format!("flex{i}"), flexible_task_src(), &BTreeMap::new())
            .unwrap();
    }
    assert_eq!(farm.deployed_seeds(), 12);
    // The optimizer should spread seeds rather than pile onto one switch.
    let per_switch: Vec<usize> = farm
        .network()
        .switch_ids()
        .iter()
        .map(|id| farm.soil(*id).unwrap().num_seeds())
        .collect();
    let max = per_switch.iter().max().copied().unwrap();
    assert!(max <= 4, "seeds piled up: distribution {per_switch:?}");
}

#[test]
fn over_capacity_tasks_are_dropped_whole() {
    // A tiny fabric: 3 switches × 4 vCPU = 12 vCPU. Each seed of the
    // 3-seed task wants ≥ 2 vCPU; the fifth task cannot fit.
    let src = r#"
machine Big {
  place any;
  poll p = Poll { .ival = 100, .what = port ANY };
  state s {
    util (res) {
      if (res.vCPU >= 2) then { return res.vCPU; }
    }
    when (p as stats) do { }
  }
}
"#;
    let mut farm = Farm::new(fabric(1), FarmConfig::default());
    let mut dropped_any = false;
    for i in 0..8 {
        let plan = farm
            .deploy_task(&format!("big{i}"), src, &BTreeMap::new())
            .unwrap();
        if !plan.dropped_tasks.is_empty() {
            dropped_any = true;
        }
    }
    assert!(dropped_any, "capacity pressure must drop tasks");
    // Deployed seeds correspond exactly to the seeder's placements.
    assert_eq!(farm.deployed_seeds(), farm.seeder().placements().count());
}

#[test]
fn reoptimization_migrates_seed_state() {
    let mut farm = Farm::new(fabric(4), FarmConfig::default());
    farm.seeder_mut().set_options(HeuristicOptions::default());
    for i in 0..6 {
        farm.deploy_task(&format!("flex{i}"), flexible_task_src(), &BTreeMap::new())
            .unwrap();
    }
    // Accumulate some seed state.
    farm.advance(farm_netsim::time::Time::from_secs(1));
    let states_before: Vec<i64> = farm
        .network()
        .switch_ids()
        .iter()
        .flat_map(|id| {
            farm.soil(*id)
                .unwrap()
                .seeds()
                .map(|s| s.var("total").and_then(|v| v.as_int()).unwrap_or(0))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(
        states_before.iter().any(|t| *t > 0),
        "seeds accumulated state"
    );

    // Re-plan; a stable world must not migrate.
    let plan = farm.replan().unwrap();
    let moves = plan
        .actions
        .iter()
        .filter(|a| matches!(a, PlannedAction::Migrate { .. }))
        .count();
    assert_eq!(moves, 0, "stable world migrated seeds: {:?}", plan.actions);

    // Migration preserves state when it does happen: force one by
    // deploying pinned pressure tasks on a loaded switch.
    let loaded = farm
        .network()
        .switch_ids()
        .into_iter()
        .max_by_key(|id| farm.soil(*id).unwrap().num_seeds())
        .unwrap();
    let pin_src = format!(
        r#"
machine Pin {{
  place any {};
  poll p = Poll {{ .ival = 100, .what = port ANY }};
  state s {{
    util (res) {{
      if (res.vCPU >= 3 and res.RAM >= 4096) then {{ return 1000 + res.vCPU; }}
    }}
    when (p as stats) do {{ }}
  }}
}}
"#,
        loaded.0
    );
    farm.deploy_task("pin", &pin_src, &BTreeMap::new()).unwrap();
    let snap = farm.telemetry().snapshot();
    if snap.counter("farm.migrations") > 0 {
        assert!(
            snap.counter("farm.migration_bytes") > 0,
            "migrations must transfer state bytes"
        );
    }
    // Whatever happened, every seed still runs and no state was lost to
    // zero across the fleet.
    let total_after: i64 = farm
        .network()
        .switch_ids()
        .iter()
        .flat_map(|id| {
            farm.soil(*id)
                .unwrap()
                .seeds()
                .map(|s| s.var("total").and_then(|v| v.as_int()).unwrap_or(0))
                .collect::<Vec<_>>()
        })
        .sum();
    assert!(total_after >= states_before.iter().sum::<i64>());
}

#[test]
fn external_parameters_differ_per_task_instance() {
    let mut farm = Farm::new(fabric(2), FarmConfig::default());
    for (name, th) in [("a", 100), ("b", 999)] {
        let mut ext = BTreeMap::new();
        ext.insert(
            "HH".to_string(),
            farm_core::farm::external(&[("threshold", Value::Int(th))]),
        );
        farm.deploy_task(name, farm_almanac::programs::HEAVY_HITTER, &ext)
            .unwrap();
    }
    let mut seen = Vec::new();
    for id in farm.network().switch_ids() {
        for seed in farm.soil(id).unwrap().seeds() {
            seen.push(seed.var("threshold").cloned().unwrap());
        }
    }
    assert!(seen.contains(&Value::Int(100)));
    assert!(seen.contains(&Value::Int(999)));
}
