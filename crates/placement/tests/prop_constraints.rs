//! Independent re-derivation of the paper's placement constraints.
//!
//! `prop_placement.rs` trusts `model::validate`; these properties do
//! not. Each constraint — C1 all-or-nothing and candidate membership,
//! C2 utility-domain feasibility, C4 capacity with poll aggregation and
//! migration double-occupancy — is recomputed in `util` from scratch,
//! so a bug shared between the heuristic and the validator cannot hide.

mod util;

use farm_placement::heuristic::{solve_heuristic, HeuristicOptions};
use farm_placement::workload::{generate, WorkloadConfig};
use proptest::prelude::*;
use util::{as_previous, check_all};

fn workload() -> impl Strategy<Value = WorkloadConfig> {
    (2usize..20, 1usize..5, 3usize..80, 0u64..10_000, 0.0f64..0.9).prop_map(
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The full heuristic never violates any independently-checked
    /// constraint on arbitrary instances.
    #[test]
    fn heuristic_respects_all_constraints(cfg in workload()) {
        let inst = generate(&cfg);
        let r = solve_heuristic(&inst, HeuristicOptions::default());
        prop_assert!(check_all(&inst, &r.assignment).is_ok(),
            "{:?}", check_all(&inst, &r.assignment));
    }

    /// Every ablation (greedy only, greedy+LP) is also constraint-clean —
    /// the LP redistribution must not push any switch over capacity.
    #[test]
    fn ablations_respect_all_constraints(cfg in workload()) {
        let inst = generate(&cfg);
        for (lp, mig) in [(false, false), (true, false)] {
            let r = solve_heuristic(
                &inst,
                HeuristicOptions { lp_redistribution: lp, migration: mig },
            );
            prop_assert!(check_all(&inst, &r.assignment).is_ok(),
                "lp={lp} mig={mig}: {:?}", check_all(&inst, &r.assignment));
        }
    }

    /// Chained re-optimization: each round feeds the next as its previous
    /// placement, and every round honors double-occupancy against that
    /// previous — the lingering source-side seats never overflow.
    #[test]
    fn chained_replans_respect_double_occupancy(cfg in workload()) {
        let mut inst = generate(&cfg);
        let mut r = solve_heuristic(&inst, HeuristicOptions::default());
        prop_assert!(check_all(&inst, &r.assignment).is_ok());
        for round in 0..3 {
            inst.previous = Some(as_previous(&r.assignment));
            r = solve_heuristic(&inst, HeuristicOptions::default());
            prop_assert!(check_all(&inst, &r.assignment).is_ok(),
                "round {round}: {:?}", check_all(&inst, &r.assignment));
        }
    }

    /// Dropped tasks are really dropped: no seed of a dropped task holds
    /// an assignment slot.
    #[test]
    fn dropped_tasks_hold_no_seats(cfg in workload()) {
        let inst = generate(&cfg);
        let r = solve_heuristic(&inst, HeuristicOptions::default());
        for &t in &r.dropped_tasks {
            for &s in &inst.tasks[t].seeds {
                prop_assert!(r.assignment[s].is_none(),
                    "dropped task {t} still owns seed {s}");
            }
        }
    }
}
