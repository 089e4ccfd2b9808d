//! Machine-readable placement perf harness.
//!
//! Sweeps Fig. 10-scale instances (up to the paper's 10 200 seeds ×
//! 1 040 switches), times the heuristic per phase (greedy / LP
//! redistribution / migration) through the `SolverPhase` telemetry
//! events, and writes `BENCH_placement.json` in a stable schema
//! (`farm-bench/placement_scale/v2`) that future PRs append runs to.
//!
//! `--churn` adds a replay section: against a warm instance at each
//! scale it replays N single-seed churn events (resubmissions and
//! definition tweaks), timing a from-scratch `solve_heuristic` against
//! `replan_delta` through a retained `SolveState` on *identical*
//! inputs, asserting bit-equality of the two placements in-harness and
//! recording full/delta p50/p95 wall times plus frontier, greedy-replay
//! and benefit-pair statistics.
//!
//! ```text
//! placement_scale [--smoke] [--churn] [--iters N] [--events N]
//!                 [--out PATH] [--check BASELINE] [--max-regression X]
//! ```
//!
//! `--check` is the CI `bench-smoke` gate. It enforces two things:
//!
//! 1. every (seeds, switches) entry's p50 wall time — and every churn
//!    entry's delta p50 — stays within `--max-regression` (default
//!    2.0×) of the committed baseline ([`baseline_rules`]);
//! 2. every churn entry's delta-vs-full p50 speedup clears a floor —
//!    5.0× at ≥ 10 000 seeds (the ISSUE acceptance bar), 2.0× below.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use farm_bench::perf::{self, percentile, Flags, Limit, Rule, Section};
use farm_bench::support::as_previous;
use farm_placement::delta::{replan_delta, ReplanDelta, SolveState};
use farm_placement::heuristic::{solve_heuristic, solve_heuristic_traced, HeuristicOptions};
use farm_placement::model::{validate, PlacementInstance, PlacementResult};
use farm_placement::workload::{generate, WorkloadConfig};
use farm_telemetry::Json;
use farm_telemetry::{Event, RingBufferSink, Telemetry};

const SCHEMA: &str = "farm-bench/placement_scale/v2";
const PHASES: [&str; 3] = ["greedy", "lp_redistribution", "migration"];

struct Args {
    flags: Flags,
    churn: bool,
    events: usize,
}

fn parse_args() -> Result<Args, String> {
    let defaults = Flags {
        smoke: false,
        iters: 5,
        out: "BENCH_placement.json".to_string(),
        check: None,
        max_regression: 2.0,
    };
    let mut churn = false;
    let mut events = None;
    let flags = perf::parse_flags(std::env::args().skip(1), defaults, |flag, val| {
        match flag {
            "--churn" => churn = true,
            "--events" => events = Some(val()?.parse().map_err(|e| format!("{e}"))?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(Args {
        churn,
        events: match events {
            Some(n) if n > 0 => n,
            _ if flags.smoke => 12,
            _ => 40,
        },
        flags,
    })
}

/// One timed solve: total wall micros plus per-phase micros drained from
/// the `SolverPhase` event stream.
fn timed_solve(
    instance: &PlacementInstance,
) -> (PlacementResult, f64, BTreeMap<&'static str, f64>, u64) {
    let telemetry = Telemetry::new();
    let ring = Arc::new(RingBufferSink::new(16));
    telemetry.add_sink(ring.clone());
    let start = Instant::now();
    let result = solve_heuristic_traced(instance, HeuristicOptions::default(), Some(&telemetry));
    let total_us = start.elapsed().as_nanos() as f64 / 1_000.0;
    let mut phases = BTreeMap::new();
    let mut migration_items = 0;
    for ev in ring.events() {
        if let Event::SolverPhase {
            phase,
            elapsed_ns,
            items,
        } = ev
        {
            if let Some(p) = PHASES.iter().find(|p| **p == phase) {
                phases.insert(*p, elapsed_ns as f64 / 1_000.0);
                if phase == "migration" {
                    migration_items = items;
                }
            }
        }
    }
    (result, total_us, phases, migration_items)
}

fn pct_obj(samples: &[f64]) -> Json {
    Json::obj([
        ("p50", Json::from(percentile(samples, 0.50))),
        ("p95", Json::from(percentile(samples, 0.95))),
    ])
}

fn results_identical(a: &PlacementResult, b: &PlacementResult) -> bool {
    a.assignment == b.assignment
        && a.utility.to_bits() == b.utility.to_bits()
        && a.migrations == b.migrations
        && a.dropped_tasks == b.dropped_tasks
}

/// Churn replay at one scale: warm a retained [`SolveState`] on the
/// instance, then replay `events` single-seed churn events, timing a
/// from-scratch solve against the incremental one on identical inputs.
/// Returns the JSON entry plus the delta-vs-full p50 speedup for the
/// `--check` gate (`None` when equivalence was violated).
fn churn_replay(
    inst: &PlacementInstance,
    seeds: usize,
    switches: usize,
    tasks: usize,
    events: usize,
) -> (Json, Option<f64>) {
    let opts = HeuristicOptions::default();
    let mut inst = inst.clone();
    let mut state = SolveState::new();
    let (mut last, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
    // One warm no-change round so every memo entry exists before timing.
    inst.previous = Some(as_previous(&last.assignment));
    let (warm, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
    last = warm;

    let mut full_us = Vec::with_capacity(events);
    let mut delta_us = Vec::with_capacity(events);
    let mut delta_phases: BTreeMap<&'static str, Vec<f64>> =
        PHASES.iter().map(|p| (*p, Vec::new())).collect();
    let mut frontiers = Vec::with_capacity(events);
    let mut reused = Vec::with_capacity(events);
    let (mut replayed, mut executed, mut rebuilt) = (Vec::new(), Vec::new(), Vec::new());
    let mut pairs = Vec::with_capacity(events);
    let mut fallbacks = 0usize;
    let mut identical = true;
    for i in 0..events {
        inst.previous = Some(as_previous(&last.assignment));
        // Alternate the two single-seed event kinds the control plane
        // produces most often: a resubmission (the seed loses its seat
        // and is placed fresh — caught by the LP signatures alone) and
        // a definition tweak (invisible to signatures, declared dirty).
        let s = (i * 7919) % inst.seeds.len().max(1);
        let delta = if i % 2 == 0 {
            if let Some(prev) = &mut inst.previous {
                prev.assignment.remove(&s);
            }
            ReplanDelta::default()
        } else {
            match inst.seeds[s].polls.first_mut() {
                Some(p) => {
                    p.demand.constant += 0.01;
                    ReplanDelta::seeds([s])
                }
                None => ReplanDelta::default(),
            }
        };

        let t0 = Instant::now();
        let full = solve_heuristic(&inst, opts);
        full_us.push(t0.elapsed().as_nanos() as f64 / 1_000.0);

        let telemetry = Telemetry::new();
        let ring = Arc::new(RingBufferSink::new(16));
        telemetry.add_sink(ring.clone());
        let t1 = Instant::now();
        let (dr, report) = replan_delta(&inst, opts, &mut state, &delta, Some(&telemetry));
        delta_us.push(t1.elapsed().as_nanos() as f64 / 1_000.0);
        for ev in ring.events() {
            if let Event::SolverPhase {
                phase, elapsed_ns, ..
            } = ev
            {
                if let Some(p) = PHASES.iter().find(|p| **p == phase) {
                    delta_phases
                        .get_mut(p)
                        .expect("known phase")
                        .push(elapsed_ns as f64 / 1_000.0);
                }
            }
        }

        if !results_identical(&dr, &full) {
            eprintln!(
                "placement_scale: churn event {i} at {seeds} seeds: delta diverged from full"
            );
            identical = false;
        }
        frontiers.push(report.frontier as f64);
        reused.push(report.reused as f64);
        replayed.push(report.steps_replayed as f64);
        executed.push(report.steps_executed as f64);
        rebuilt.push(report.switches_rebuilt as f64);
        pairs.push(report.pairs_evaluated as f64);
        if report.fallback_full {
            fallbacks += 1;
        }
        last = dr;
    }

    let full_p50 = percentile(&full_us, 0.50);
    let delta_p50 = percentile(&delta_us, 0.50);
    let speedup = full_p50 / delta_p50.max(1e-9);
    println!(
        "  churn: {events} events, full p50 {:.0} us, delta p50 {:.0} us, speedup {speedup:.1}x, \
         frontier p50 {:.0}, fallbacks {fallbacks}, identical={identical}",
        full_p50,
        delta_p50,
        percentile(&frontiers, 0.50),
    );
    println!(
        "  churn greedy p50: {:.0} steps replayed, {:.0} executed, {:.0} switches rebuilt; \
         {:.0} benefit pairs evaluated",
        percentile(&replayed, 0.50),
        percentile(&executed, 0.50),
        percentile(&rebuilt, 0.50),
        percentile(&pairs, 0.50),
    );
    println!(
        "  churn delta phases p50:{}",
        delta_phases
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(p, v)| format!(" {p} {:.0} us", percentile(v, 0.50)))
            .collect::<String>(),
    );
    let delta_phase_us = Json::Obj(
        PHASES
            .iter()
            .filter(|p| !delta_phases[*p].is_empty())
            .map(|p| (p.to_string(), pct_obj(&delta_phases[p])))
            .collect(),
    );
    let entry = Json::obj([
        ("seeds", Json::from(seeds as f64)),
        ("switches", Json::from(switches as f64)),
        ("tasks", Json::from(tasks as f64)),
        ("events", Json::from(events as f64)),
        ("full_us", pct_obj(&full_us)),
        ("delta_us", pct_obj(&delta_us)),
        ("delta_phase_us", delta_phase_us),
        ("speedup_delta_vs_full", Json::from(speedup)),
        ("frontier", pct_obj(&frontiers)),
        ("reused", pct_obj(&reused)),
        ("steps_replayed", pct_obj(&replayed)),
        ("steps_executed", pct_obj(&executed)),
        ("switches_rebuilt", pct_obj(&rebuilt)),
        ("pairs_evaluated", pct_obj(&pairs)),
        ("fallback_full", Json::from(fallbacks as f64)),
        ("identical_to_full_solve", Json::Bool(identical)),
    ]);
    (entry, identical.then_some(speedup))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("placement_scale: {e}");
            return ExitCode::FAILURE;
        }
    };
    // (seeds, switches, tasks) scales; full mode tops out at the paper's
    // 10 200 × 1 040 regime, smoke keeps CI fast.
    let Args {
        flags,
        churn,
        events,
    } = args;
    let scales: &[(usize, usize, usize)] = if flags.smoke {
        &[(1_000, 128, 8)]
    } else {
        &[(1_000, 128, 8), (4_000, 512, 10), (10_200, 1_040, 10)]
    };
    let mut entries = Vec::new();
    let mut churn_entries = Vec::new();
    // (seeds, speedup) per churn entry — gate input collected in-memory
    // so `--check` does not re-parse.
    let mut churn_speedups: Vec<(usize, Option<f64>)> = Vec::new();
    let mut ok = true;
    for &(seeds, switches, tasks) in scales {
        println!("== {seeds} seeds x {switches} switches ({tasks} tasks) ==");
        let inst = generate(&WorkloadConfig {
            n_switches: switches,
            n_tasks: tasks,
            n_seeds: seeds,
            ..WorkloadConfig::default()
        });
        let mut totals = Vec::with_capacity(flags.iters);
        let mut phase_samples: BTreeMap<&'static str, Vec<f64>> =
            PHASES.iter().map(|p| (*p, Vec::new())).collect();
        // One discarded warmup solve so the first recorded iteration
        // does not pay cold caches / first-touch allocation.
        let (mut r, _, _, mut migration_items) = timed_solve(&inst);
        for _ in 0..flags.iters {
            let (result, total_us, phases, mig) = timed_solve(&inst);
            totals.push(total_us);
            for (p, us) in phases {
                phase_samples.get_mut(p).expect("known phase").push(us);
            }
            migration_items = mig;
            r = result;
        }
        if let Err(e) = validate(&inst, &r) {
            eprintln!("placement_scale: invalid placement at {seeds} seeds: {e:?}");
            ok = false;
        }
        println!(
            "  p50 {:.0} us, p95 {:.0} us, utility {:.2}, placed {}, migrations {}",
            percentile(&totals, 0.50),
            percentile(&totals, 0.95),
            r.utility,
            r.placed(),
            r.migrations,
        );
        let phase_us = Json::Obj(
            PHASES
                .iter()
                .filter(|p| !phase_samples[*p].is_empty())
                .map(|p| (p.to_string(), pct_obj(&phase_samples[p])))
                .collect(),
        );
        entries.push(Json::obj([
            ("seeds", Json::from(seeds as f64)),
            ("switches", Json::from(switches as f64)),
            ("tasks", Json::from(tasks as f64)),
            ("iters", Json::from(flags.iters as f64)),
            ("total_us", pct_obj(&totals)),
            ("phase_us", phase_us),
            ("objective", Json::from(r.utility)),
            ("placed", Json::from(r.placed() as f64)),
            ("migrations", Json::from(r.migrations as f64)),
            ("migration_moves", Json::from(migration_items as f64)),
            ("dropped_tasks", Json::from(r.dropped_tasks.len() as f64)),
        ]));
        if churn {
            let (entry, speedup) = churn_replay(&inst, seeds, switches, tasks, events);
            churn_entries.push(entry);
            churn_speedups.push((seeds, speedup));
        }
    }

    let mut doc = Json::obj([
        ("schema", Json::Str(SCHEMA.into())),
        ("entries", Json::Arr(entries)),
        ("churn", Json::Arr(churn_entries)),
    ]);
    doc.sort_keys();
    if let Err(e) = perf::write_doc(&flags.out, &doc) {
        eprintln!("placement_scale: {e}");
        return ExitCode::FAILURE;
    }

    if flags.check.is_some() {
        // Gate 2: churn speedup floors (on this run's own numbers).
        for &(seeds, speedup) in &churn_speedups {
            let floor = if seeds >= 10_000 { 5.0 } else { 2.0 };
            match speedup {
                Some(s) if s >= floor => {
                    println!("churn gate: {seeds} seeds speedup {s:.1}x >= {floor}x");
                }
                Some(s) => {
                    eprintln!(
                        "placement_scale: churn speedup {s:.1}x below the {floor}x floor at \
                         {seeds} seeds"
                    );
                    ok = false;
                }
                None => {
                    eprintln!("placement_scale: churn equivalence failed at {seeds} seeds");
                    ok = false;
                }
            }
        }
    }

    let rules = baseline_rules(flags.max_regression);
    let report = "{n} entries, worst ratio {worst}x (limit {max}x)";
    perf::verdict("placement_scale", &flags, &doc, SCHEMA, &rules, report, ok)
}

/// What `--check` holds a run to, per (seeds, switches): the solve's
/// `total_us.p50` and the churn replay's `delta_us.p50`, each within
/// `max_regression ×` of the baseline's.
fn baseline_rules(max_regression: f64) -> [Section; 2] {
    let slower = |field, breach| Rule {
        field,
        limit: Limit::Ratio(max_regression),
        breach,
        decimals: 0,
    };
    [
        Section {
            name: "entries",
            key: &["seeds", "switches"],
            label: "regression: {0}x{1}",
            rules: vec![slower(
                "total_us.p50",
                "p50 {new} us vs baseline {base} us ({by}x > {limit}x)",
            )],
        },
        Section {
            name: "churn",
            key: &["seeds", "switches"],
            label: "churn regression: {0}x{1}",
            rules: vec![slower(
                "delta_us.p50",
                "delta p50 {new} us vs baseline {base} us ({by}x > {limit}x)",
            )],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_placement.json");

    #[test]
    fn the_committed_baseline_passes_its_own_gate_and_a_slower_churn_entry_is_named() {
        let doc = perf::read_baseline(COMMITTED, SCHEMA).unwrap();
        let rules = baseline_rules(2.0);
        let tally = perf::check(&doc, COMMITTED, SCHEMA, &rules).unwrap();
        assert_eq!((tally.compared, tally.worst), (6, 1.0));

        // The 4 000-seed churn replay with its delta p50 four times
        // slower: the member put first is the one `get` finds.
        let entry = &doc.get("churn").and_then(Json::as_arr).unwrap()[1];
        let base = entry.get("delta_us").and_then(|d| d.get("p50")?.as_f64());
        let base = base.unwrap();
        let slow = Json::obj([("p50", Json::from(base * 4.0))]);
        let slow = [("delta_us".to_string(), slow)]
            .into_iter()
            .chain(entry.as_obj().unwrap().iter().cloned());
        let run = Json::obj([("churn", Json::Arr(vec![Json::Obj(slow.collect())]))]);
        assert_eq!(
            perf::check(&run, COMMITTED, SCHEMA, &rules).unwrap_err(),
            format!(
                "churn regression: 4000x512 delta p50 {:.0} us vs baseline {base:.0} us \
                 (4.00x > 2x)",
                base * 4.0
            )
        );
    }
}
