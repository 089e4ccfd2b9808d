//! Machine-readable detection-quality harness.
//!
//! Replays the hostile-traffic scenario suite (`farm-scenario`) through
//! the full FARM stack and the sFlow/Sonata baselines, scores every
//! (scenario, task, system) triple against the planted ground truth,
//! and writes `BENCH_detection.json` in a stable schema
//! (`farm-bench/detection_scale/v1`). All numbers are virtual-time
//! deterministic: identical seeds produce byte-identical output.
//!
//! ```text
//! detection_scale [--smoke] [--seed N]... [--scenario NAME]...
//!                 [--out PATH] [--check BASELINE] [--max-regression X]
//! ```
//!
//! `--check` re-reads a committed baseline and exits non-zero when any
//! matching (scenario, scale, seed, task, system) entry lost more than
//! 0.1 absolute precision or recall, or its mean time-to-detect grew by
//! more than `--max-regression` (default 2.0) — the CI
//! `detection-smoke` gate.

use std::process::ExitCode;

use farm_bench::detection::{bench_doc, drive, SCHEMA};
use farm_bench::perf::{self, Flags, Limit, Rule, Section};
use farm_scenario::{ScenarioClass, ScenarioScale, ScenarioSpec};

struct Args {
    flags: Flags,
    seeds: Vec<u64>,
    scenarios: Vec<ScenarioClass>,
}

fn parse_args() -> Result<Args, String> {
    let defaults = Flags {
        smoke: false,
        iters: 0,
        out: "BENCH_detection.json".to_string(),
        check: None,
        max_regression: 2.0,
    };
    let mut seeds = Vec::new();
    let mut scenarios = Vec::new();
    let flags = perf::parse_flags(std::env::args().skip(1), defaults, |flag, val| {
        match flag {
            "--seed" => seeds.push(val()?.parse().map_err(|e| format!("{e}"))?),
            "--scenario" => {
                let name = val()?;
                let class = ScenarioClass::from_name(&name)
                    .ok_or_else(|| format!("unknown scenario `{name}`"))?;
                scenarios.push(class);
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    if seeds.is_empty() {
        seeds.push(42);
    }
    if scenarios.is_empty() {
        scenarios = ScenarioClass::ALL.to_vec();
    }
    Ok(Args {
        flags,
        seeds,
        scenarios,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("detection_scale: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = if args.flags.smoke {
        ScenarioScale::Smoke
    } else {
        ScenarioScale::Full
    };

    let mut runs = Vec::new();
    let mut ok = true;
    for &seed in &args.seeds {
        for &class in &args.scenarios {
            let spec = ScenarioSpec { class, scale, seed };
            let run = match drive(&spec) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("detection_scale: {} seed {seed}: {e}", class.name());
                    ok = false;
                    continue;
                }
            };
            println!(
                "== {} ({}, seed {seed}): {} events, {} flows, {} ms virtual ==",
                run.class, run.scale, run.events, run.distinct_flows, run.virtual_ms
            );
            for t in &run.tasks {
                println!(
                    "  {:<14} {:<6} precision {:.2} recall {:.2} ttd {} (alarms {}, windows {})",
                    t.task,
                    t.system,
                    t.score.precision,
                    t.score.recall,
                    t.score
                        .mean_ttd_ms
                        .map_or("-".to_string(), |v| format!("{v:.0} ms")),
                    t.score.alarms,
                    t.score.windows,
                );
            }
            runs.push(run);
        }
    }

    let doc = bench_doc(&runs);
    if let Err(e) = perf::write_doc(&args.flags.out, &doc) {
        eprintln!("detection_scale: {e}");
        return ExitCode::FAILURE;
    }

    let rules = [baseline_rules(args.flags.max_regression)];
    let report = "{n} entries within limits (precision/recall drop <= 0.1, ttd <= {max}x)";
    perf::verdict(
        "detection_scale",
        &args.flags,
        &doc,
        SCHEMA,
        &rules,
        report,
        ok,
    )
}

/// What `--check` holds a run to, per (scenario, scale, seed, task,
/// system): precision and recall within 0.1 absolute of the baseline,
/// mean time-to-detect within `max_regression ×`.
fn baseline_rules(max_regression: f64) -> Section {
    let no_lower = |field, breach| Rule {
        field,
        limit: Limit::Drop(0.1),
        breach,
        decimals: 2,
    };
    Section {
        name: "entries",
        key: &["scenario", "scale", "seed", "task", "system"],
        label: "regression: {0}/{3}/{4}",
        rules: vec![
            no_lower("precision", "precision {new} vs baseline {base}"),
            no_lower("recall", "recall {new} vs baseline {base}"),
            Rule {
                field: "mean_ttd_ms",
                limit: Limit::Ratio(max_regression),
                breach: "mean_ttd_ms {new} vs baseline {base} (> {limit}x)",
                decimals: 0,
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_telemetry::Json;

    const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_detection.json");

    #[test]
    fn the_committed_baseline_passes_its_own_gate_and_a_lost_detection_is_named() {
        let doc = perf::read_baseline(COMMITTED, SCHEMA).unwrap();
        let rules = [baseline_rules(2.0)];
        let entries = doc.get("entries").and_then(Json::as_arr).unwrap();
        let tally = perf::check(&doc, COMMITTED, SCHEMA, &rules).unwrap();
        assert_eq!(tally.compared, entries.len());

        // flash_crowd / hh / farm at seed 7, recall 1.0 → 0.8: the
        // member put first is the one `get` finds.
        let worse = [("recall".to_string(), Json::from(0.8))]
            .into_iter()
            .chain(entries[0].as_obj().unwrap().iter().cloned());
        let run = Json::obj([("entries", Json::Arr(vec![Json::Obj(worse.collect())]))]);
        assert_eq!(
            perf::check(&run, COMMITTED, SCHEMA, &rules).unwrap_err(),
            "regression: flash_crowd/hh/farm recall 0.80 vs baseline 1.00"
        );
    }
}
