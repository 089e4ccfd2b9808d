//! Synthetic placement workloads for the Fig. 7 scalability study.
//!
//! The paper deploys up to 10 different tasks (from the Tab. I mix)
//! comprising up to 10 200 seeds on 1 040 switches, with 10 runs of
//! varying resource and placement needs per seed count. This generator
//! reproduces that regime: Accton-class switch capacities, per-task
//! shared polling subjects (aggregation opportunities), utility shapes
//! matching the Tab. I programs (`min(a·vCPU, cap)` over a
//! vCPU/RAM-constrained domain), and randomized candidate sets.

use farm_almanac::analysis::{Poly, UtilAnalysis, UtilBranch, UtilExpr};
use farm_netsim::switch::{ResourceKind, Resources};
use farm_netsim::types::SwitchId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::model::{PlacementInstance, PlacementSeed, PlacementTask, PollDemand};

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Switches in the fabric (paper: 1 040).
    pub n_switches: usize,
    /// Concurrent M&M tasks (paper: up to 10).
    pub n_tasks: usize,
    /// Total seeds (paper: up to 10 200).
    pub n_seeds: usize,
    /// Candidate switches per flexible seed.
    pub candidates_per_seed: usize,
    /// Fraction of seeds pinned to a single switch (`place all`-style).
    pub pinned_fraction: f64,
    /// RNG seed.
    pub rng_seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            n_switches: 1040,
            n_tasks: 10,
            n_seeds: 10_200,
            candidates_per_seed: 4,
            pinned_fraction: 0.3,
            rng_seed: 42,
        }
    }
}

/// Accton-class monitoring capacity (§ VI-A platforms (ii)/(iii)):
/// 4 vCPU, 8 GB RAM, 512 monitoring TCAM entries, and the 8 Mbit/s PCIe
/// polling budget (= 62 500 polls/s at 16 B per counter read).
pub(crate) fn accton_capacity() -> Resources {
    Resources::new(4.0, 8192.0, 512.0, 62_500.0)
}

/// Generates a placement instance.
///
/// # Panics
///
/// Panics if any count is zero.
pub fn generate(cfg: &WorkloadConfig) -> PlacementInstance {
    assert!(
        cfg.n_switches > 0 && cfg.n_tasks > 0 && cfg.n_seeds > 0,
        "workload dimensions must be positive"
    );
    let mut rng = StdRng::seed_from_u64(cfg.rng_seed);
    let switches: Vec<(SwitchId, Resources)> = (0..cfg.n_switches)
        .map(|i| (SwitchId(i as u32), accton_capacity()))
        .collect();

    let mut tasks: Vec<PlacementTask> = (0..cfg.n_tasks)
        .map(|t| PlacementTask {
            name: format!("task{t}"),
            seeds: Vec::new(),
        })
        .collect();

    // Per-task polling subjects: a couple shared within the task plus the
    // fabric-wide `port ANY` some tasks use (cross-task aggregation).
    let task_subjects: Vec<Vec<String>> = (0..cfg.n_tasks)
        .map(|t| {
            let mut subs = vec![format!("rule:task{t}-a"), format!("rule:task{t}-b")];
            if t % 3 == 0 {
                subs.push("ports:ANY".to_string());
            }
            subs
        })
        .collect();

    let mut seeds = Vec::with_capacity(cfg.n_seeds);
    for id in 0..cfg.n_seeds {
        let task = id % cfg.n_tasks;
        tasks[task].seeds.push(id);

        let candidates: Vec<SwitchId> = if rng.random::<f64>() < cfg.pinned_fraction {
            vec![SwitchId(rng.random_range(0..cfg.n_switches as u32))]
        } else {
            let mut set = std::collections::BTreeSet::new();
            while set.len() < cfg.candidates_per_seed.min(cfg.n_switches) {
                set.insert(SwitchId(rng.random_range(0..cfg.n_switches as u32)));
            }
            set.into_iter().collect()
        };

        // Domain: vCPU ≥ a, RAM ≥ b. Utility: min(base + g·vCPU, cap) —
        // a placed seed has intrinsic monitoring value (`base`, cf. the
        // Tab. I programs whose detection states return flat utilities)
        // plus accuracy gains from extra resources up to a cap.
        let min_vcpu = rng.random_range(0.05f64..0.4);
        let min_ram = rng.random_range(16.0f64..160.0);
        let gain = rng.random_range(1.0f64..20.0);
        let base = rng.random_range(2.0f64..10.0);
        let cap = base + rng.random_range(5.0f64..100.0);
        let util = UtilAnalysis {
            branches: vec![UtilBranch {
                constraints: vec![
                    Poly {
                        coeffs: [1.0, 0.0, 0.0, 0.0],
                        constant: -min_vcpu,
                    },
                    Poly {
                        coeffs: [0.0, 1.0, 0.0, 0.0],
                        constant: -min_ram,
                    },
                ],
                utility: UtilExpr::Min(
                    Box::new(UtilExpr::Poly(
                        Poly::var(ResourceKind::VCpu)
                            .scale(gain)
                            .add(&Poly::constant(base)),
                    )),
                    Box::new(UtilExpr::Poly(Poly::constant(cap))),
                ),
            }],
        };

        // Polling: one subject from the task pool; demand = c0 + c1·PCIe
        // polls/s (base rate plus resource-encouraged extra accuracy).
        let subj = task_subjects[task][rng.random_range(0..task_subjects[task].len())].clone();
        let polls = vec![PollDemand {
            subject: subj,
            demand: Poly {
                coeffs: [0.0, 0.0, 0.0, rng.random_range(0.01f64..0.1)],
                constant: rng.random_range(1.0f64..20.0),
            },
        }];

        seeds.push(PlacementSeed {
            id,
            task,
            candidates,
            util,
            polls,
        });
    }

    PlacementInstance {
        switches: switches.into(),
        tasks,
        seeds,
        previous: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::{solve_heuristic, HeuristicOptions};
    use crate::model::validate;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let cfg = WorkloadConfig {
            n_switches: 16,
            n_tasks: 4,
            n_seeds: 64,
            ..Default::default()
        };
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.seeds.len(), b.seeds.len());
        for (x, y) in a.seeds.iter().zip(&b.seeds) {
            assert_eq!(x.candidates, y.candidates);
        }
    }

    #[test]
    fn generated_instances_are_placeable() {
        let cfg = WorkloadConfig {
            n_switches: 32,
            n_tasks: 5,
            n_seeds: 300,
            rng_seed: 3,
            ..Default::default()
        };
        let inst = generate(&cfg);
        let r = solve_heuristic(&inst, HeuristicOptions::default());
        validate(&inst, &r).unwrap();
        assert!(
            r.placed() as f64 >= 0.8 * cfg.n_seeds as f64,
            "most seeds should place, got {}",
            r.placed()
        );
        assert!(r.utility > 0.0);
    }

    #[test]
    fn capacity_matches_the_paper_pcie_budget() {
        // 8 Mbit/s ÷ (16 B × 8 bit) = 62 500 polls/s.
        assert!((accton_capacity().get(ResourceKind::PciePoll) - 62_500.0).abs() < 1e-9);
    }

    #[test]
    fn full_fig7_size_generates_quickly() {
        let inst = generate(&WorkloadConfig::default());
        assert_eq!(inst.seeds.len(), 10_200);
        assert_eq!(inst.switches.len(), 1040);
        assert_eq!(inst.tasks.len(), 10);
    }
}
