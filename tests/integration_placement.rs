//! Integration: the seeder's global placement across the live framework —
//! capacity pressure, re-optimization, and migration with state transfer.

use std::collections::BTreeMap;

use farm_almanac::value::Value;
use farm_core::farm::{Farm, FarmConfig};
use farm_core::seeder::{PlannedAction, SeedKey};
use farm_faults::{FaultKind, FaultPlan};
use farm_netsim::switch::SwitchModel;
use farm_netsim::time::{Dur, Time};
use farm_netsim::topology::Topology;
use farm_netsim::types::SwitchId;

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

// Held seats: a seed none of whose candidates is live sits the round out
// — no action for it, its task untouched — on the fabric shape
// `dc_churn` runs at paper scale: two `place all` tasks under a handful
// of `place any` watchers.

/// One seed per switch, flat utility: the planner has no reason to touch
/// it once it sits.
const PINNED: &str = r#"
machine Pinned {
  place all;
  poll p = Poll { .ival = 2, .what = port ANY };
  long polls = 0;
  state s {
    util (res) { if (res.vCPU >= 0 and res.RAM >= 0) then { return 1; } }
    when (p as stats) do { polls = polls + 1; }
  }
}
"#;

/// One movable seed that likes vCPU.
const WATCHER: &str = r#"
machine Watcher {
  place any;
  poll p = Poll { .ival = 500, .what = port ANY };
  state s {
    util (res) { if (res.vCPU >= 0 and res.RAM >= 0) then { return 1 + res.vCPU; } }
    when (p as stats) do { }
  }
}
"#;

const WATCHERS: usize = 3;

/// A 2 × 6 fabric under two pinned tasks and the watchers, replanned
/// until the solver memo is warm.
fn pinned_fabric() -> Farm {
    let mut farm = Farm::new(fabric(6), FarmConfig::default());
    for name in ["pinned0", "pinned1"] {
        farm.deploy_task(name, PINNED, &BTreeMap::new()).unwrap();
    }
    for i in 0..WATCHERS {
        farm.deploy_task(&format!("w{i}"), WATCHER, &BTreeMap::new())
            .unwrap();
    }
    assert_eq!(farm.deployed_seeds(), 2 * 8 + WATCHERS);
    for _ in 0..2 {
        farm.replan().unwrap();
    }
    farm
}

/// Keys placed on `switch` whose task name starts with `prefix`.
fn residents(farm: &Farm, switch: SwitchId, prefix: &str) -> Vec<SeedKey> {
    farm.seed_statuses()
        .into_iter()
        .filter(|s| s.switch == switch && s.key.task.starts_with(prefix))
        .map(|s| s.key)
        .collect()
}

fn crash(farm: &mut Farm, switch: SwitchId) {
    let now = farm.now();
    farm.set_fault_plan(FaultPlan::new().with(now, FaultKind::SwitchCrash { switch }));
    farm.advance(now);
}

#[test]
fn a_drain_moves_the_movable_residents_and_the_pinned_ones_hold_their_seat() {
    let mut farm = pinned_fabric();
    let w0 = SeedKey {
        task: "w0".into(),
        machine: 0,
        seed: 0,
    };
    let home = farm.seed_status(&w0).unwrap().switch;
    let movable = residents(&farm, home, "w");
    let pinned = residents(&farm, home, "pinned");
    assert_eq!(pinned.len(), 2);

    let (plan, evacuated) = farm.drain(home).unwrap();
    let moved: Vec<&SeedKey> = plan
        .actions
        .iter()
        .map(|a| match a {
            PlannedAction::Migrate { key, from, .. } if *from == home => key,
            other => panic!("a drain plans nothing but the evacuation, got {other:?}"),
        })
        .collect();
    assert_eq!(moved, movable.iter().collect::<Vec<_>>());
    assert_eq!(evacuated, movable.len());
    assert_eq!(plan.held, pinned);
    assert!(plan.dropped_tasks.is_empty());
    assert!(!plan.delta.fallback_full, "{:?}", plan.delta);

    // The pinned seeds on the cordoned switch are still placed there,
    // still live, and still polled.
    for key in &pinned {
        let status = farm.seed_status(key).expect("still listed");
        assert_eq!((status.switch, status.state.as_str()), (home, "s"));
    }
    let deliveries = |farm: &Farm| farm.soil(home).unwrap().stats().deliveries;
    let before = deliveries(&farm);
    farm.advance(farm.now() + Dur::from_millis(10));
    assert!(deliveries(&farm) > before, "a cordon stops no seed");

    let plan = farm.uncordon(home).unwrap();
    assert!(plan.held.is_empty());
    let deploys = |a: &&PlannedAction| matches!(a, PlannedAction::Deploy { .. });
    assert_eq!(plan.actions.iter().filter(deploys).count(), 0);
    assert_eq!(farm.deployed_seeds(), 2 * 8 + WATCHERS);
}

#[test]
fn a_place_all_task_submitted_under_a_cordon_places_on_the_rest() {
    let mut farm = pinned_fabric();
    let cordoned = farm.network().switch_ids()[3];
    farm.drain(cordoned).unwrap();

    let plan = farm.deploy_task("late", PINNED, &BTreeMap::new()).unwrap();
    let missing = SeedKey {
        task: "late".into(),
        machine: 0,
        seed: 3,
    };
    assert!(plan.dropped_tasks.is_empty());
    assert!(plan.held.contains(&missing), "{:?}", plan.held);
    assert_eq!(residents(&farm, cordoned, "late"), []);
    assert_eq!(
        farm.seed_statuses()
            .iter()
            .filter(|s| s.key.task == "late")
            .count(),
        7
    );

    // The uncordon is the first plan that sees the switch back.
    let plan = farm.uncordon(cordoned).unwrap();
    let deployed: Vec<_> = plan
        .actions
        .iter()
        .filter_map(|a| match a {
            PlannedAction::Deploy { key, to, .. } => Some((key, *to)),
            _ => None,
        })
        .collect();
    assert_eq!(deployed, [(&missing, cordoned)]);
    assert_eq!(farm.deployed_seeds(), 3 * 8 + WATCHERS);
}

#[test]
fn a_replan_while_a_switch_is_down_keeps_every_other_pinned_seed_in_place() {
    let mut farm = pinned_fabric();
    let down = farm.network().switch_ids()[5];
    let lost = residents(&farm, down, "pinned");
    let watchers_there = residents(&farm, down, "w").len();
    crash(&mut farm, down);

    // Before the detector fires: the crashed switch's pinned seeds hold
    // their (lost) seat, nobody else's is touched.
    let plan = farm.replan().unwrap();
    assert_eq!(plan.held, lost);
    assert!(plan.dropped_tasks.is_empty());
    let undeploys = |a: &&PlannedAction| matches!(a, PlannedAction::Undeploy { .. });
    assert_eq!(plan.actions.iter().filter(undeploys).count(), 0);
    assert_eq!(plan.actions.len(), watchers_there, "{:?}", plan.actions);
    let live_pinned = farm
        .seed_statuses()
        .iter()
        .filter(|s| s.key.task.starts_with("pinned") && s.state == "s")
        .count();
    assert_eq!(live_pinned, 2 * 7);

    // Fenced at 30 ms; the switch is back at 40 ms, and the recovery
    // queue, not an abandonment, ends the story.
    let restart = FaultKind::SwitchRestart { switch: down };
    farm.set_fault_plan(FaultPlan::new().with(Time::from_millis(40), restart));
    let queue = |farm: &Farm| farm.telemetry().snapshot().gauge("farm.recovery_queue");
    farm.advance(Time::from_millis(35));
    assert_eq!(farm.fenced_switches(), [down]);
    assert_eq!(farm.recovery_pending(), 2);
    assert_eq!(queue(&farm), Some(2.0), "the gauge rises with the crash");
    farm.advance(Time::from_millis(120));
    assert_eq!(farm.recovery_pending(), 0);
    assert_eq!(queue(&farm), Some(0.0), "and falls with the recovery");
    assert_eq!(residents(&farm, down, "pinned"), lost);
    assert_eq!(farm.deployed_seeds(), 2 * 8 + WATCHERS);
}
