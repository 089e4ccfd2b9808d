//! Ablation: Alg. 1 design choices — LP resource redistribution (step 3)
//! and the migration pass (steps 4–5) — measured on re-optimization
//! instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use farm_placement::heuristic::{solve_heuristic, HeuristicOptions};
use farm_placement::model::PreviousPlacement;
use farm_placement::workload::{generate, WorkloadConfig};
use std::hint::black_box;

fn reopt_instance() -> farm_placement::model::PlacementInstance {
    // First placement, then shrink half the candidate sets so the
    // re-optimization has real migration pressure.
    let mut inst = generate(&WorkloadConfig {
        n_switches: 64,
        n_tasks: 6,
        n_seeds: 600,
        rng_seed: 11,
        ..Default::default()
    });
    let first = solve_heuristic(&inst, HeuristicOptions::default());
    let mut prev = PreviousPlacement::default();
    for (s, slot) in first.assignment.iter().enumerate() {
        if let Some((n, res)) = slot {
            prev.assignment.insert(s, (*n, *res));
        }
    }
    inst.previous = Some(prev);
    inst
}

fn bench_ablation(c: &mut Criterion) {
    let inst = reopt_instance();
    let variants: Vec<(&str, HeuristicOptions)> = vec![
        (
            "full",
            HeuristicOptions {
                lp_redistribution: true,
                migration: true,
            },
        ),
        (
            "no-migration",
            HeuristicOptions {
                lp_redistribution: true,
                migration: false,
            },
        ),
        (
            "no-lp",
            HeuristicOptions {
                lp_redistribution: false,
                migration: true,
            },
        ),
        (
            "greedy-only",
            HeuristicOptions {
                lp_redistribution: false,
                migration: false,
            },
        ),
    ];
    let mut g = c.benchmark_group("heuristic_ablation");
    g.sample_size(10);
    for (name, opts) in variants {
        g.bench_with_input(BenchmarkId::from_parameter(name), &opts, |b, opts| {
            b.iter(|| black_box(solve_heuristic(&inst, *opts)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
