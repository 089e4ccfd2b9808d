//! Reproduces the FARM paper's tables and figures as text output, and
//! three beyond-paper studies that check their own answer.
//!
//! ```text
//! repro [tab1|tab4|fig4|fig5|fig6|fig7|fig8|fig9|fig10|tab5|ablation|churn|net|detection|all] [--full]
//! ```
//!
//! Quick mode (default) uses reduced axes/deadlines; `--full` runs the
//! paper-scale study (notably Fig. 7 at 1 040 switches / 10 200 seeds).
//! Exits 1 when an experiment's answer is wrong (`churn`: a delta solve
//! that is not the from-scratch one, `net`: a connection the event loop
//! did not hold, `detection`: a FARM task below its quality floors), and
//! 2, printing the usage line, on any argument it does not understand.

use std::process::ExitCode;

use farm_bench::detection::{drive, PRECISION_FLOOR, RECALL_FLOOR};
use farm_bench::support::render_table;
use farm_bench::{
    ablation, churn, fig10, fig4, fig5, fig6, fig7, fig8, fig9, net, tab1, tab4, tab5,
};
use farm_scenario::{ScenarioClass, ScenarioScale, ScenarioSpec};

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

/// A study that checks its own answer; `Err` names what was wrong.
type Checked = (&'static str, fn(bool) -> Result<(), String>);

/// The checked studies, printed after the experiments.
const CHECKED: [Checked; 3] = [
    ("churn", run_churn),
    ("net", run_net),
    ("detection", run_detection),
];

fn names() -> impl Iterator<Item = &'static str> {
    EXPERIMENTS
        .iter()
        .map(|e| e.0)
        .chain(CHECKED.iter().map(|e| e.0))
}

/// Prints one table and the blank line that ends it.
fn table(title: &str, headers: &[&str], rows: Vec<Vec<String>>) {
    print!("{}", render_table(title, headers, &rows));
    println!();
}

fn usage() -> String {
    let names: Vec<&str> = names().collect();
    format!("usage: repro [{}|all] [--full]", names.join("|"))
}

/// The experiment named (`all` when none is) and whether `--full` was
/// given; `Err` on an unknown flag, an unknown name or a second name.
fn parse(args: impl IntoIterator<Item = String>) -> Result<(String, bool), String> {
    let (mut what, mut full) = (None, false);
    for arg in args {
        match arg.as_str() {
            "--full" => full = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            name if what.is_some() => return Err(format!("a second experiment `{name}`")),
            name if name == "all" || names().any(|n| n == name) => what = Some(name.to_string()),
            name => return Err(format!("unknown experiment `{name}`")),
        }
    }
    Ok((what.unwrap_or_else(|| "all".into()), full))
}

fn main() -> ExitCode {
    let (what, full) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("repro: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let picked = |name| what == "all" || what == name;
    for (name, run) in EXPERIMENTS {
        if picked(name) {
            run(full);
        }
    }
    let mut code = ExitCode::SUCCESS;
    for (name, run) in CHECKED {
        if picked(name) {
            if let Err(e) = run(full) {
                eprintln!("repro {name}: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
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

fn run_churn(full: bool) -> Result<(), String> {
    let (scales, events) = if full { churn::FULL } else { churn::QUICK };
    let rows = churn::run(scales, events);
    let cells = rows
        .iter()
        .map(|r| {
            vec![
                r.seeds.to_string(),
                r.switches.to_string(),
                format!("{:.2}", r.full_ms[0]),
                format!("{:.2}", r.full_ms[1]),
                format!("{:.2}", r.delta_ms[0]),
                format!("{:.2}", r.delta_ms[1]),
                format!("{:.1}x", r.full_ms[0] / r.delta_ms[0].max(1e-9)),
                format!("{:.0}", r.frontier_p50),
                format!("{:.0}", r.steps_run_p50),
                format!("{:.0}", r.steps_visited_p50),
                format!("{:.0}", r.switches_rebuilt_p50),
                r.fallbacks.to_string(),
                match r.diverged {
                    0 => "yes".to_string(),
                    n => format!("NO at {n}"),
                },
            ]
        })
        .collect();
    let title = format!(
        "Churn replay — {events} single-seed events, full vs delta solve (wall ms; \
         switch LPs run, greedy steps run and visited and switches rebuilt per event, p50)"
    );
    let headers = [
        "seeds",
        "switches",
        "full p50",
        "full p95",
        "delta p50",
        "delta p95",
        "speedup",
        "LPs run",
        "steps run",
        "steps visited",
        "rebuilt",
        "fallbacks",
        "identical",
    ];
    table(&title, &headers, cells);
    if rows.iter().any(|r| r.diverged > 0) {
        return Err("a delta solve differs from the full one (`identical`)".into());
    }
    Ok(())
}

fn run_net(full: bool) -> Result<(), String> {
    let (conns, bursts, iters) = if full { net::FULL } else { net::QUICK };
    let rows = net::run(conns, bursts, iters)?;
    let cells = rows
        .iter()
        .map(|r| {
            vec![
                r.conns.to_string(),
                r.chatty.to_string(),
                r.burst.to_string(),
                format!("{:.0}", r.rpc_us[0]),
                format!("{:.0}", r.rpc_us[1]),
                format!("{:.0}", r.frames_per_sec),
                format!("{:.2}", r.bytes_per_sec / 1e6),
                r.held.to_string(),
            ]
        })
        .collect();
    let title = "Transport — NetServer on loopback (RPC round trip µs, frames/s, MB/s)";
    let headers = [
        "conns", "chatty", "burst", "rpc p50", "rpc p99", "frames/s", "MB/s", "held",
    ];
    table(title, &headers, cells);
    if rows.iter().any(|r| r.held < r.conns) {
        return Err("the event loop did not hold every connection (`held`)".into());
    }
    Ok(())
}

fn run_detection(full: bool) -> Result<(), String> {
    let scale = if full {
        ScenarioScale::Full
    } else {
        ScenarioScale::Smoke
    };
    let mut wrong = Vec::new();
    for class in ScenarioClass::ALL {
        let spec = ScenarioSpec {
            class,
            scale,
            seed: 42,
        };
        let run = drive(&spec).map_err(|e| format!("{}: {e}", class.name()))?;
        let rows = run
            .tasks
            .iter()
            .map(|t| {
                vec![
                    t.task.clone(),
                    t.system.to_string(),
                    format!("{:.2}", t.score.precision),
                    format!("{:.2}", t.score.recall),
                    t.score
                        .mean_ttd_ms
                        .map_or("-".to_string(), |v| format!("{v:.1}")),
                    t.score.alarms.to_string(),
                    t.score.windows.to_string(),
                    t.grace_ms.to_string(),
                ]
            })
            .collect::<Vec<_>>();
        let title = format!(
            "Detection — {} ({}, seed {}): {} events, {} packets, {} flows, {} ms virtual \
             (TTD and grace in ms)",
            run.class,
            run.scale,
            run.seed,
            run.events,
            run.packets,
            run.distinct_flows,
            run.virtual_ms
        );
        let headers = [
            "task",
            "system",
            "precision",
            "recall",
            "TTD",
            "alarms",
            "windows",
            "grace",
        ];
        print!("{}", render_table(&title, &headers, &rows));
        println!(
            "soil: {} ASIC polls, {} saved by aggregation, {} deliveries\n",
            run.soil_asic_polls, run.soil_polls_saved, run.soil_deliveries
        );
        wrong.extend(
            run.tasks
                .iter()
                .filter(|t| {
                    t.system == "farm"
                        && (t.score.recall < RECALL_FLOOR || t.score.precision < PRECISION_FLOOR)
                })
                .map(|t| format!("{}/{}", run.class, t.task)),
        );
    }
    if !wrong.is_empty() {
        let floors = format!("recall {RECALL_FLOOR} / precision {PRECISION_FLOOR}");
        return Err(format!("below {floors}: {}", wrong.join(", ")));
    }
    Ok(())
}
