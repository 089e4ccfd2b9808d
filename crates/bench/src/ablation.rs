//! Ablation of Alg. 1's two optional steps — LP resource redistribution
//! (step 3) and the migration pass (steps 4–5) — on a re-optimisation
//! instance: a first placement is kept as the previous one and the same
//! tasks are solved again, so every move is charged its migration
//! overhead.

use farm_placement::heuristic::{solve_heuristic, HeuristicOptions};
use farm_placement::model::{validate, PlacementInstance, PlacementResult};
use farm_placement::workload::{generate, WorkloadConfig};

use crate::support::as_previous;

/// The four on/off combinations, the full algorithm first.
const VARIANTS: [(&str, bool, bool); 4] = [
    ("full", true, true),
    ("no-migration", true, false),
    ("no-lp", false, true),
    ("greedy-only", false, false),
];

/// 600 seeds of 6 tasks on 64 switches, already placed once.
fn reopt_instance() -> PlacementInstance {
    let mut inst = generate(&WorkloadConfig {
        n_switches: 64,
        n_tasks: 6,
        n_seeds: 600,
        rng_seed: 11,
        ..Default::default()
    });
    let first = solve_heuristic(&inst, HeuristicOptions::default());
    inst.previous = Some(as_previous(&first.assignment));
    inst
}

/// Solves the instance once per variant; each result carries its
/// utility, its migrations and its wall-clock runtime.
pub fn run() -> Vec<(&'static str, PlacementResult)> {
    let inst = reopt_instance();
    let solve = |&(variant, lp_redistribution, migration)| {
        let opts = HeuristicOptions {
            lp_redistribution,
            migration,
        };
        let r = solve_heuristic(&inst, opts);
        validate(&inst, &r).expect("every variant's result must be feasible");
        (variant, r)
    };
    VARIANTS.iter().map(solve).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_optional_step_earns_its_utility() {
        let rows = run();
        let by = |name: &str| &rows.iter().find(|(variant, _)| *variant == name).unwrap().1;
        assert_eq!(rows.len(), 4);
        // Redistribution only ever hands spare resources to seeds whose
        // utility grows with them; the migration pass only moves a seed
        // when the move pays for itself.
        assert!(by("full").utility >= by("no-lp").utility);
        assert!(by("no-migration").utility >= by("greedy-only").utility);
        assert!(by("full").utility >= by("greedy-only").utility);
        assert_eq!(by("no-migration").migrations, by("greedy-only").migrations);
    }
}
