//! Global seed placement at scale: FARM's Alg. 1 heuristic vs the MILP
//! solver under a deadline, on a Fig. 7-style instance (hundreds of
//! switches, thousands of seeds, shared polling subjects).
//!
//! ```text
//! cargo run --release --example placement_at_scale
//! ```

use std::time::Duration;

use farm_placement::heuristic::{solve_heuristic, HeuristicOptions};
use farm_placement::milp::{solve_placement_milp, MilpPlacementOptions};
use farm_placement::model::validate;
use farm_placement::workload::{generate, WorkloadConfig};

fn main() {
    let cfg = WorkloadConfig {
        n_switches: 260,
        n_tasks: 10,
        n_seeds: 2550, // a quarter of the paper's top scale
        rng_seed: 2024,
        ..Default::default()
    };
    println!(
        "instance: {} seeds, {} tasks, {} switches",
        cfg.n_seeds, cfg.n_tasks, cfg.n_switches
    );
    let inst = generate(&cfg);

    let h = solve_heuristic(&inst, HeuristicOptions::default());
    validate(&inst, &h).expect("heuristic result satisfies C1-C4");
    println!(
        "FARM heuristic : utility {:>10.0}  placed {:>5}/{}  dropped tasks {}  in {:?}",
        h.utility,
        h.placed(),
        inst.seeds.len(),
        h.dropped_tasks.len(),
        h.runtime
    );

    for (label, limit) in [("MILP 1s", 1u64), ("MILP 10s", 10)] {
        let m = solve_placement_milp(
            &inst,
            &MilpPlacementOptions {
                time_limit: Duration::from_secs(limit),
            },
        );
        validate(&inst, &m.result).expect("MILP result satisfies C1-C4");
        println!(
            "{label:<14} : utility {:>10.0}  placed {:>5}/{}  exact={}  in {:?}",
            m.result.utility,
            m.result.placed(),
            inst.seeds.len(),
            m.exact,
            m.result.runtime
        );
    }
    println!(
        "\nshape check (Fig. 7): the heuristic reaches MILP-long utility at a \
         fraction of the runtime; the short deadline costs utility."
    );
}
