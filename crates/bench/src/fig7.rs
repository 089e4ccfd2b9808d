//! Fig. 7 — global seed-placement optimization at scale: FARM's
//! heuristic vs the MILP solver with a short and a long deadline
//! (the paper's Gurobi-1 s and Gurobi-10 min).
//!
//! For every seed count the study runs several randomized instances
//! (varying resource and placement needs, § VI-D) and reports average
//! monitoring utility (MU) and average solve time.

use std::time::Duration;

use farm_placement::heuristic::{solve_heuristic, HeuristicOptions};
use farm_placement::milp::{solve_placement_milp, MilpPlacementOptions};
use farm_placement::model::validate;
use farm_placement::workload::{generate, WorkloadConfig};

/// Study parameters.
#[derive(Debug, Clone)]
pub struct Fig7Config {
    pub n_switches: usize,
    pub n_tasks: usize,
    pub(crate) seed_counts: Vec<usize>,
    pub runs_per_point: usize,
    /// Short MILP deadline (paper: 1 s).
    pub(crate) milp_short: Duration,
    /// Long MILP deadline (paper: 10 min; scaled down by default).
    pub(crate) milp_long: Duration,
}

impl Fig7Config {
    /// Quick mode: smaller fabric, fewer runs.
    pub fn quick() -> Fig7Config {
        // Keeps the paper's ~10 seeds-per-switch density at reduced size.
        Fig7Config {
            n_switches: 128,
            n_tasks: 6,
            seed_counts: vec![300, 700, 1250],
            runs_per_point: 2,
            milp_short: Duration::from_millis(250),
            milp_long: Duration::from_secs(3),
        }
    }

    /// Paper-scale mode (1 040 switches, up to 10 200 seeds); the long
    /// deadline is scaled from 10 min to 30 s to keep the harness
    /// practical — the utility/runtime *shape* is preserved.
    pub fn full() -> Fig7Config {
        Fig7Config {
            n_switches: 1040,
            n_tasks: 10,
            seed_counts: vec![1000, 4000, 7000, 10_200],
            runs_per_point: 10,
            milp_short: Duration::from_secs(1),
            milp_long: Duration::from_secs(30),
        }
    }
}

/// One point of the figure (averages over the runs).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Row {
    pub seeds: usize,
    pub heuristic_utility: f64,
    pub heuristic_secs: f64,
    pub milp_short_utility: f64,
    pub milp_short_secs: f64,
    pub milp_long_utility: f64,
    pub milp_long_secs: f64,
}

/// Runs the study.
pub fn run(cfg: &Fig7Config) -> Vec<Fig7Row> {
    cfg.seed_counts
        .iter()
        .map(|&seeds| {
            let mut acc = Fig7Row {
                seeds,
                heuristic_utility: 0.0,
                heuristic_secs: 0.0,
                milp_short_utility: 0.0,
                milp_short_secs: 0.0,
                milp_long_utility: 0.0,
                milp_long_secs: 0.0,
            };
            for run_idx in 0..cfg.runs_per_point {
                let inst = generate(&WorkloadConfig {
                    n_switches: cfg.n_switches,
                    n_tasks: cfg.n_tasks,
                    n_seeds: seeds,
                    rng_seed: 1000 + run_idx as u64,
                    ..Default::default()
                });
                let h = solve_heuristic(&inst, HeuristicOptions::default());
                validate(&inst, &h).expect("heuristic result must be feasible");
                acc.heuristic_utility += h.utility;
                acc.heuristic_secs += h.runtime.as_secs_f64();

                let short = solve_placement_milp(
                    &inst,
                    &MilpPlacementOptions {
                        time_limit: cfg.milp_short,
                    },
                );
                validate(&inst, &short.result).expect("milp-short result must be feasible");
                acc.milp_short_utility += short.result.utility;
                acc.milp_short_secs += short.result.runtime.as_secs_f64();

                let long = solve_placement_milp(
                    &inst,
                    &MilpPlacementOptions {
                        time_limit: cfg.milp_long,
                    },
                );
                validate(&inst, &long.result).expect("milp-long result must be feasible");
                acc.milp_long_utility += long.result.utility;
                acc.milp_long_secs += long.result.runtime.as_secs_f64();
            }
            let n = cfg.runs_per_point as f64;
            acc.heuristic_utility /= n;
            acc.heuristic_secs /= n;
            acc.milp_short_utility /= n;
            acc.milp_short_secs /= n;
            acc.milp_long_utility /= n;
            acc.milp_long_secs /= n;
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristic_is_fast_and_close_to_the_long_deadline_milp() {
        let cfg = Fig7Config {
            n_switches: 24,
            n_tasks: 4,
            seed_counts: vec![150],
            runs_per_point: 2,
            milp_short: Duration::from_millis(50),
            milp_long: Duration::from_millis(1500),
        };
        let rows = run(&cfg);
        let r = &rows[0];
        // Fig. 7a shape: heuristic utility ≈ long-deadline MILP, both at
        // or above the short-deadline incumbent.
        assert!(
            r.heuristic_utility >= 0.85 * r.milp_long_utility,
            "heuristic {} vs milp-long {}",
            r.heuristic_utility,
            r.milp_long_utility
        );
        assert!(r.milp_long_utility >= r.milp_short_utility * 0.99);
        // Fig. 7b shape: the heuristic runs in (milli)seconds, far below
        // the long deadline.
        assert!(
            r.heuristic_secs < cfg.milp_long.as_secs_f64(),
            "heuristic took {}s",
            r.heuristic_secs
        );
    }
}
