//! Property-based validation of the placement solvers: every solver must
//! produce assignments satisfying the paper's constraints (C1)–(C4) on
//! arbitrary generated instances, and the documented dominance relations
//! must hold.

use farm_placement::heuristic::{solve_heuristic, solve_randomized, HeuristicOptions};
use farm_placement::model::{validate, PreviousPlacement};
use farm_placement::workload::{generate, WorkloadConfig};
use proptest::prelude::*;

fn workload() -> impl Strategy<Value = WorkloadConfig> {
    (2usize..24, 1usize..6, 4usize..120, 0u64..1000, 0.0f64..0.9).prop_map(
        |(n_switches, n_tasks, n_seeds, rng_seed, pinned_fraction)| WorkloadConfig {
            n_switches,
            n_tasks,
            n_seeds,
            candidates_per_seed: 3,
            pinned_fraction,
            rng_seed,
        },
    )
}

/// Alg. 1 always produces a C1–C4-feasible placement.
fn heuristic_always_feasible_on(cfg: &WorkloadConfig) {
    let inst = generate(cfg);
    let r = solve_heuristic(&inst, HeuristicOptions::default());
    prop_assert!(validate(&inst, &r).is_ok(), "{:?}", validate(&inst, &r));
    // Utility equals the sum over placed seeds of their util at the
    // assigned allocation (MU definition).
    let recomputed = farm_placement::model::utility_of(&inst, &r.assignment);
    prop_assert!((recomputed - r.utility).abs() < 1e-6);
}

/// Every ablation variant is also feasible, and the LP step never
/// reduces utility.
fn ablations_feasible_and_lp_monotone_on(cfg: &WorkloadConfig) {
    let inst = generate(cfg);
    let greedy = solve_heuristic(
        &inst,
        HeuristicOptions {
            lp_redistribution: false,
            migration: false,
        },
    );
    let with_lp = solve_heuristic(
        &inst,
        HeuristicOptions {
            lp_redistribution: true,
            migration: false,
        },
    );
    prop_assert!(validate(&inst, &greedy).is_ok());
    prop_assert!(validate(&inst, &with_lp).is_ok());
    prop_assert!(
        with_lp.utility >= greedy.utility - 1e-6,
        "LP made things worse: {} < {}",
        with_lp.utility,
        greedy.utility
    );
}

/// The generic randomized construction (the MILP fallback's primal
/// heuristic) is feasible with and without the LP polish, and the
/// polish never reduces utility.
fn randomized_construction_feasible_on(cfg: &WorkloadConfig, seed: u64) {
    let inst = generate(cfg);
    let raw = solve_randomized(&inst, seed, false);
    let polished = solve_randomized(&inst, seed, true);
    prop_assert!(validate(&inst, &raw).is_ok(), "{:?}", validate(&inst, &raw));
    prop_assert!(
        validate(&inst, &polished).is_ok(),
        "{:?}",
        validate(&inst, &polished)
    );
    prop_assert!(polished.utility >= raw.utility - 1e-6);
}

/// Re-optimizing against a previous placement stays feasible under the
/// migration double-occupancy accounting, never loses utility, and any
/// migration it performs must strictly pay (no gratuitous churn in an
/// unchanged world).
fn reoptimization_feasible_and_stable_on(cfg: &WorkloadConfig) {
    let inst0 = generate(cfg);
    let first = solve_heuristic(&inst0, HeuristicOptions::default());
    let mut prev = PreviousPlacement::default();
    for (s, slot) in first.assignment.iter().enumerate() {
        if let Some((n, res)) = slot {
            prev.assignment.insert(s, (*n, *res));
        }
    }
    let mut inst1 = inst0.clone();
    inst1.previous = Some(prev);
    let second = solve_heuristic(&inst1, HeuristicOptions::default());
    prop_assert!(
        validate(&inst1, &second).is_ok(),
        "{:?}",
        validate(&inst1, &second)
    );
    prop_assert!(second.placed() >= first.placed());
    prop_assert!(
        second.utility >= first.utility - 1e-6,
        "re-optimization lost utility: {} -> {}",
        first.utility,
        second.utility
    );
    if second.migrations > 0 {
        prop_assert!(
            second.utility > first.utility + 1e-9,
            "migrations without utility gain: {} -> {} ({} moves)",
            first.utility,
            second.utility,
            second.migrations
        );
    }
}

/// Repeated sequential solves of the same instance are themselves
/// bit-identical (no HashMap-iteration-order leakage into floats).
fn repeated_solves_are_reproducible_on(cfg: &WorkloadConfig) {
    let inst = generate(cfg);
    let a = solve_heuristic(&inst, HeuristicOptions::default());
    let b = solve_heuristic(&inst, HeuristicOptions::default());
    prop_assert_eq!(&a.assignment, &b.assignment);
    prop_assert_eq!(a.utility.to_bits(), b.utility.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn heuristic_always_feasible(cfg in workload()) {
        heuristic_always_feasible_on(&cfg);
    }

    #[test]
    fn ablations_feasible_and_lp_monotone(cfg in workload()) {
        ablations_feasible_and_lp_monotone_on(&cfg);
    }

    #[test]
    fn randomized_construction_feasible(cfg in workload(), seed in 0u64..100) {
        randomized_construction_feasible_on(&cfg, seed);
    }

    #[test]
    fn reoptimization_feasible_and_stable(cfg in workload()) {
        reoptimization_feasible_and_stable_on(&cfg);
    }

    /// Dropped tasks really are all-or-nothing, and only infeasibility (or
    /// capacity) justifies a drop: on generously provisioned instances
    /// nothing is dropped.
    #[test]
    fn generous_capacity_places_everything(seed in 0u64..500) {
        let cfg = WorkloadConfig {
            n_switches: 32,
            n_tasks: 4,
            n_seeds: 40, // ≈ 1.25 seeds/switch: ample capacity
            candidates_per_seed: 4,
            pinned_fraction: 0.0,
            rng_seed: seed,
        };
        let inst = generate(&cfg);
        let r = solve_heuristic(&inst, HeuristicOptions::default());
        prop_assert!(validate(&inst, &r).is_ok());
        prop_assert_eq!(r.placed(), 40, "dropped: {:?}", r.dropped_tasks);
    }

    #[test]
    fn repeated_solves_are_reproducible(cfg in workload()) {
        repeated_solves_are_reproducible_on(&cfg);
    }
}

/// Two workloads an earlier proptest shrank failures to, kept as plain
/// cases: every workload-taking property above runs on each (the
/// randomized construction on every seed its property draws from).
#[test]
fn past_shrunk_workloads_hold_every_property() {
    let shrunk = [
        WorkloadConfig {
            n_switches: 21,
            n_tasks: 2,
            n_seeds: 11,
            candidates_per_seed: 3,
            pinned_fraction: 0.718746350660732,
            rng_seed: 346,
        },
        WorkloadConfig {
            n_switches: 17,
            n_tasks: 2,
            n_seeds: 32,
            candidates_per_seed: 3,
            pinned_fraction: 0.07787614525584703,
            rng_seed: 151,
        },
    ];
    for cfg in &shrunk {
        heuristic_always_feasible_on(cfg);
        ablations_feasible_and_lp_monotone_on(cfg);
        for seed in 0..100 {
            randomized_construction_feasible_on(cfg, seed);
        }
        reoptimization_feasible_and_stable_on(cfg);
        repeated_solves_are_reproducible_on(cfg);
    }
}

/// Regression guard for the incremental engine: a 10k-seed paper-scale
/// instance must solve comfortably inside a CI debug-build budget. The
/// pre-incremental engine refolded every subject multiset per `fits()`
/// probe, which blows this budget by an order of magnitude at 10k seeds.
#[test]
fn ten_thousand_seeds_within_ci_budget() {
    let inst = generate(&WorkloadConfig {
        n_switches: 1040,
        n_tasks: 10,
        n_seeds: 10_200,
        ..WorkloadConfig::default()
    });
    let start = std::time::Instant::now();
    let r = solve_heuristic(&inst, HeuristicOptions::default());
    let elapsed = start.elapsed();
    validate(&inst, &r).expect("paper-scale placement must be feasible");
    assert_eq!(
        r.placed(),
        10_200,
        "workload is sized to be fully placeable"
    );
    assert!(
        elapsed < std::time::Duration::from_secs(30),
        "10k-seed solve blew the CI budget: {elapsed:?}"
    );
}
