//! Reproduces the FARM paper's tables and figures as text output.
//!
//! ```text
//! repro [tab1|tab4|fig4|fig5|fig6|fig7|fig8|fig9|fig10|tab5|ablation|all] [--full]
//! ```
//!
//! Quick mode (default) uses reduced axes/deadlines; `--full` runs the
//! paper-scale study (notably Fig. 7 at 1 040 switches / 10 200 seeds).

use farm_bench::support::render_table;
use farm_bench::{ablation, fig10, fig4, fig5, fig6, fig7, fig8, fig9, tab1, tab4, tab5};

type Experiment = (&'static str, fn(bool));

/// Every experiment by the name the command line takes, in the order
/// `all` prints them.
const EXPERIMENTS: [Experiment; 11] = [
    ("tab1", |_| run_tab1()),
    ("tab4", |_| run_tab4()),
    ("fig4", run_fig4),
    ("fig5", run_fig5),
    ("fig6", run_fig6),
    ("fig7", run_fig7),
    ("fig8", run_fig8),
    ("fig9", run_fig9),
    ("fig10", run_fig10),
    ("tab5", |_| run_tab5()),
    ("ablation", |_| run_ablation()),
];

/// Prints one table and the blank line that ends it.
fn table(title: &str, headers: &[&str], rows: Vec<Vec<String>>) {
    print!("{}", render_table(title, headers, &rows));
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    let mut known = false;
    for (name, run) in EXPERIMENTS {
        if what == "all" || what == name {
            run(full);
            known = true;
        }
    }
    if !known {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment `{what}`; expected one of {} all",
            names.join(" ")
        );
        std::process::exit(2);
    }
}

fn run_tab1() {
    let rows = tab1::run()
        .into_iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.our_loc.to_string(),
                r.paper_seed_loc.to_string(),
                r.paper_harvester_loc.to_string(),
            ]
        })
        .collect();
    table(
        "Tab. I — Almanac use cases (lines of code)",
        &["use case", "ours", "paper seed", "paper harvester"],
        rows,
    );
}

fn run_tab4() {
    let measured = tab4::run();
    let paper = tab4::paper_values();
    let rows = measured
        .iter()
        .map(|r| {
            let paper_ms = paper
                .iter()
                .find(|(n, _)| *n == r.system)
                .map(|(_, v)| *v)
                .unwrap_or(f64::NAN);
            vec![
                r.system.clone(),
                r.kind.to_string(),
                format!("{:.2}", r.detect_ms),
                format!("{paper_ms:.0}"),
            ]
        })
        .collect();
    table(
        "Tab. 4 — HH detection time (ms)",
        &["system", "type", "measured", "paper"],
        rows,
    );
}

fn run_fig4(full: bool) {
    let axis = if full {
        fig4::FULL_PORTS
    } else {
        fig4::QUICK_PORTS
    };
    let rows = fig4::run(axis)
        .into_iter()
        .map(|r| {
            vec![
                r.ports.to_string(),
                format!("{:.1}", r.farm_bps),
                format!("{:.0}", r.sflow_1ms_bps),
                format!("{:.0}", r.sflow_10ms_bps),
                format!("{:.0}", r.sonata_bps),
            ]
        })
        .collect();
    table(
        "Fig. 4 — network load for HH detection (bits/s)",
        &["ports", "FARM", "sFlow 1ms", "sFlow 10ms", "Sonata 75%aggr"],
        rows,
    );
}

fn run_fig5(full: bool) {
    let axis = if full {
        fig5::FULL_FLOWS
    } else {
        fig5::QUICK_FLOWS
    };
    let rows = fig5::run(axis)
        .into_iter()
        .map(|r| {
            vec![
                r.flows.to_string(),
                format!("{:.1}", r.farm_cpu_percent),
                format!("{:.1}", r.sflow_cpu_percent),
            ]
        })
        .collect();
    table(
        "Fig. 5 — switch CPU load, 10 ms accuracy (% of one core)",
        &["flows", "FARM", "sFlow"],
        rows,
    );
}

fn run_fig6(full: bool) {
    for panel in [
        fig6::Panel::HhFast,
        fig6::Panel::HhSlow,
        fig6::Panel::MlParallel,
        fig6::Panel::MlPartitioned,
    ] {
        let axis = if full {
            panel.full_axis()
        } else {
            panel.quick_axis()
        };
        let rows = fig6::run(panel, axis)
            .into_iter()
            .map(|r| {
                vec![
                    r.seeds.to_string(),
                    format!("{:.1}", r.cpu_percent),
                    format!("{:.1}", r.accuracy_percent),
                ]
            })
            .collect();
        table(
            &format!(
                "Fig. 6 — {} (CPU % of one core / polling accuracy %)",
                panel.label()
            ),
            &["seeds", "CPU %", "accuracy %"],
            rows,
        );
    }
}

fn run_fig7(full: bool) {
    let cfg = if full {
        fig7::Fig7Config::full()
    } else {
        fig7::Fig7Config::quick()
    };
    let rows = fig7::run(&cfg)
        .into_iter()
        .map(|r| {
            vec![
                r.seeds.to_string(),
                format!("{:.0}", r.heuristic_utility),
                format!("{:.3}", r.heuristic_secs),
                format!("{:.0}", r.milp_short_utility),
                format!("{:.3}", r.milp_short_secs),
                format!("{:.0}", r.milp_long_utility),
                format!("{:.3}", r.milp_long_secs),
            ]
        })
        .collect();
    table(
        &format!(
            "Fig. 7 — placement at scale ({} switches, {} tasks, {} runs/point)",
            cfg.n_switches, cfg.n_tasks, cfg.runs_per_point
        ),
        &[
            "seeds",
            "FARM MU",
            "FARM s",
            "MILP-short MU",
            "MILP-short s",
            "MILP-long MU",
            "MILP-long s",
        ],
        rows,
    );
}

fn run_fig8(full: bool) {
    let axis = if full {
        fig8::FULL_SEEDS
    } else {
        fig8::QUICK_SEEDS
    };
    let rows = fig8::run(axis)
        .into_iter()
        .map(|r| {
            vec![
                r.seeds.to_string(),
                format!("{:.1}", r.pcie_unaggregated_percent),
                format!("{:.1}", r.pcie_aggregated_percent),
                format!("{:.4}", r.asic_percent),
            ]
        })
        .collect();
    table(
        "Fig. 8 — PCIe vs ASIC utilization, 1 ms polls (%)",
        &["seeds", "PCIe (no aggr)", "PCIe (aggr)", "ASIC"],
        rows,
    );
}

fn run_fig9(full: bool) {
    let axis = if full {
        fig9::FULL_SEEDS
    } else {
        fig9::QUICK_SEEDS
    };
    let rows = fig9::run(axis)
        .into_iter()
        .map(|r| {
            vec![
                r.seeds.to_string(),
                format!("{:.1}", r.threads_aggregated_percent),
                format!("{:.1}", r.threads_unaggregated_percent),
                format!("{:.1}", r.processes_aggregated_percent),
                format!("{:.1}", r.processes_unaggregated_percent),
            ]
        })
        .collect();
    table(
        "Fig. 9 — soil CPU cost of aggregation (% of one core)",
        &["seeds", "thr+aggr", "thr", "proc+aggr", "proc"],
        rows,
    );
}

fn run_fig10(full: bool) {
    let axis = if full {
        fig10::FULL_SEEDS
    } else {
        fig10::QUICK_SEEDS
    };
    let rows: Vec<Vec<String>> = fig10::run(axis)
        .into_iter()
        .map(|r| {
            vec![
                r.seeds.to_string(),
                format!("{:.2}", r.shared_threads_us),
                format!("{:.2}", r.shared_processes_us),
                format!("{:.2}", r.grpc_threads_us),
                format!("{:.2}", r.grpc_processes_us),
            ]
        })
        .collect();
    let headers = [
        "seeds",
        "shared/thr",
        "shared/proc",
        "gRPC/thr",
        "gRPC/proc",
    ];
    let title = "Fig. 10 — soil↔seed delivery latency (µs)";
    print!("{}", render_table(title, &headers, &rows));
    println!(
        "real shared ring buffer (2 threads, one hop): {:.2} µs\n",
        fig10::real_ring_buffer_round_trip(5000)
    );
}

fn run_tab5() {
    let rows = tab5::run()
        .into_iter()
        .map(|r| {
            vec![
                r.system.to_string(),
                r.decentralized.glyph().to_string(),
                r.expressive.glyph().to_string(),
                r.optimized.glyph().to_string(),
                r.platform_independent.glyph().to_string(),
                r.local_reactions.glyph().to_string(),
                r.dynamic_deployment.glyph().to_string(),
            ]
        })
        .collect();
    table(
        "Tab. V — features of generic M&M solutions (● yes ◐ partial ○ no)",
        &[
            "system", "[DEC]", "[EXP]", "[OPT]", "[IND]", "react", "dynamic",
        ],
        rows,
    );
}

fn run_ablation() {
    let rows = ablation::run()
        .into_iter()
        .map(|(variant, r)| {
            vec![
                variant.to_string(),
                format!("{:.0}", r.utility),
                r.migrations.to_string(),
                format!("{:.1}", r.runtime.as_secs_f64() * 1e3),
            ]
        })
        .collect();
    table(
        "Ablation — Alg. 1 on a re-optimisation instance (600 seeds, 64 switches)",
        &["variant", "MU", "migrations", "wall ms"],
        rows,
    );
}
