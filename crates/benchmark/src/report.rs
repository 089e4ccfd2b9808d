//! Turning measurements into output: the result line of one workload,
//! the table of a whole set, the A/A comparison of several sets, and
//! the `BENCHMARK.json` contract itself.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use crate::alloc;
use crate::json::Json;
use crate::pace::{pin_to_one_cpu, Pacer};
use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{blocked_tail, median, quartile_spread, within_bound, worsening, Better};
use crate::trace::Tracer;
use crate::workloads::{self, Measured, RunCfg};

/// Blocks the tail percentiles are taken over (see `blocked_tail`).
const TAIL_BLOCKS: usize = 5;
/// The run length `BENCHMARK.json` states.
const RUN_SECONDS: f64 = 10.0;

/// The `BENCHMARK.json` this binary implements.
pub fn contract() -> Json {
    let better = |b: Better| {
        Json::Str(match b {
            Better::Lower => "lower".into(),
            Better::Higher => "higher".into(),
        })
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "crates/benchmark/Cargo.toml",
                    "--",
                ]
                .map(|s| Json::Str(s.into()))
                .to_vec(),
            ),
        ),
        (
            "paths",
            Json::Arr(vec![Json::Str("crates/benchmark".into())]),
        ),
        ("run_seconds", Json::Num(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj([
                            ("name", Json::Str(w.name.into())),
                            ("why", Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name.into())),
                            ("unit", Json::Str(m.unit.into())),
                            ("better", better(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where `/proc`
/// does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The nine end-to-end values of a run, in `END_TO_END` order.
fn end_to_end_values(m: &Measured) -> Vec<f64> {
    let ok_share = 1.0 - m.failed as f64 / m.attempted.max(1) as f64;
    let by_name = |name: &str| match name {
        "setup_s" => median(&m.setup_s),
        "peak_rss_mb" => peak_rss_mb(),
        "ok_share" => ok_share,
        "work_per_s" => m.work_units / m.window_s,
        "op_p50_us" => median(&m.op_us),
        "op_tail_us" => blocked_tail(&m.op_us, TAIL_BLOCKS).0,
        "op2_p50_us" => median(&m.op2_us),
        "op2_tail_us" => blocked_tail(&m.op2_us, TAIL_BLOCKS).0,
        "result_score" => m.result_score,
        other => unreachable!("end-to-end metric `{other}` has no source"),
    };
    END_TO_END.iter().map(|e| by_name(e.name)).collect()
}

fn target_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    base.join("farm-benchmark")
}

/// Runs one workload in this process and prints its result; the last
/// line of stdout is the result object the driver reads.
pub fn run_one(name: &str, cfg: &RunCfg, trace: bool) -> Result<(), String> {
    if spec::workload(name).is_none() {
        return Err(format!(
            "unknown workload `{name}` (have: {})",
            WORKLOADS.map(|w| w.name).join(", ")
        ));
    }
    // Before any daemon thread exists, so that all of them inherit it.
    let cpu = pin_to_one_cpu();
    let mut pacer = Pacer::new();
    let tracer = trace.then(Tracer::new);
    alloc::set_enabled(trace);
    let mut m = workloads::run(name, cfg, tracer.as_ref(), &mut pacer).expect("workload is listed");
    alloc::set_enabled(false);

    println!(
        "workload {name}  seed {}  seconds {}  trace {}{}",
        cfg.seed,
        cfg.seconds,
        u8::from(trace),
        if cfg.smoke { "  (smoke)" } else { "" }
    );
    let values = end_to_end_values(&m);
    for (e, v) in END_TO_END.iter().zip(&values) {
        println!("  {:<14} {v:>16.4} {}", e.name, e.unit);
        // A metric that is zero or not a number cannot be compared by
        // ratio; it means the workload did not do its work.
        if !(v.is_finite() && *v > 0.0) {
            m.problems.push(format!("{} is {v}", e.name));
        }
    }
    println!(
        "  samples: set-up {}, op {} (tail p{}), op2 {} (tail p{}); {} of {} ops failed",
        m.setup_s.len(),
        m.op_us.len(),
        blocked_tail(&m.op_us, TAIL_BLOCKS).1 * 100.0,
        m.op2_us.len(),
        blocked_tail(&m.op2_us, TAIL_BLOCKS).1 * 100.0,
        m.failed,
        m.attempted,
    );
    let [core, heap, sync] = pacer.mean_slowdowns();
    println!(
        "  window {:.3} s on the wall clock, {:.3} s scaled (x{:.3}); reference kernels ran at core x{core:.3}, heap x{heap:.3}, sync x{sync:.3} of nominal time; {}",
        m.wall_s,
        m.window_s,
        m.window_s / m.wall_s,
        cpu.map_or("not pinned".to_string(), |c| format!("pinned to CPU {c}")),
    );
    if let Some(t) = &tracer {
        m.layer("telemetry.spans", t.span_count() as f64);
        println!("  per layer:");
        for p in PER_LAYER {
            let v = m.layers.get(p.name).copied().unwrap_or(0.0);
            println!("    {:<44} {v:>16.3} {}", p.name, p.unit);
        }
        for name in m.layers.keys() {
            if !PER_LAYER.iter().any(|p| p.name == name) {
                m.problems
                    .push(format!("layer metric `{name}` is not in the contract"));
            }
        }
        println!("  self time by span (s):");
        for (span, t) in t.totals() {
            println!(
                "    {span:<44} {:>10.4} self of {:>10.4} in {} span(s)",
                t.self_ns() as f64 / 1e9,
                t.total_ns as f64 / 1e9,
                t.count
            );
        }
        let dir = target_dir();
        let path = dir.join(format!("trace-{name}.json"));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, t.document(name).compact()))
        {
            Ok(()) => println!("  wrote {}", path.display()),
            Err(e) => m
                .problems
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
    const SHOWN: usize = 12;
    for p in m.problems.iter().take(SHOWN) {
        println!("  problem: {p}");
    }
    if m.problems.len() > SHOWN {
        println!("  ... and {} more problem(s)", m.problems.len() - SHOWN);
    }
    println!(
        "exact {}",
        Json::obj(m.exact.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))).compact()
    );

    let metrics: BTreeMap<String, Json> = if trace {
        PER_LAYER
            .iter()
            .map(|p| (p.name, p.unit, m.layers.get(p.name).copied().unwrap_or(0.0)))
            .map(metric_entry)
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(values)
            .map(|(e, v)| (e.name, e.unit, v))
            .map(metric_entry)
            .collect()
    };
    let result = Json::obj([
        ("correct", Json::Bool(m.problems.is_empty())),
        ("attempted", Json::Num(m.attempted.max(1) as f64)),
        ("failed", Json::Num(m.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.compact());
    Ok(())
}

fn metric_entry((name, unit, value): (&str, &str, f64)) -> (String, Json) {
    (
        name.to_string(),
        Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(unit.into())),
        ]),
    )
}

/// What a child process reported for one workload.
pub struct ChildResult {
    pub workload: &'static str,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    pub exact: BTreeMap<String, f64>,
}

fn numbers(obj: Option<&Json>, pick: impl Fn(&Json) -> Option<f64>) -> BTreeMap<String, f64> {
    obj.and_then(Json::as_obj)
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| Some((k.clone(), pick(v)?)))
                .collect()
        })
        .unwrap_or_default()
}

/// Runs every workload, each in a fresh child process of this binary,
/// and prints one table. Fails when any workload reports incorrect
/// output.
pub fn run_all(cfg: &RunCfg, trace: bool) -> Result<Vec<ChildResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut results = Vec::new();
    for w in &WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }]);
        if cfg.smoke {
            cmd.arg("--smoke");
        }
        // `output` waits for the child to end.
        let out = cmd
            .output()
            .map_err(|e| format!("cannot start {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() {
            return Err(format!(
                "{} exited with {}: {}",
                w.name,
                out.status,
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let doc = Json::parse(last).map_err(|e| format!("{}: bad result line: {e}", w.name))?;
        let exact = stdout
            .lines()
            .find_map(|l| l.strip_prefix("exact "))
            .and_then(|l| Json::parse(l).ok());
        results.push(ChildResult {
            workload: w.name,
            correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
            metrics: numbers(doc.get("metrics"), |v| v.get("value")?.as_f64()),
            exact: numbers(exact.as_ref(), Json::as_f64),
        });
    }
    let wrong: Vec<&str> = results
        .iter()
        .filter(|r| !r.correct)
        .map(|r| r.workload)
        .collect();
    if wrong.is_empty() {
        Ok(results)
    } else {
        Err(format!("incorrect output on: {}", wrong.join(", ")))
    }
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs `sets` full sets on this build and compares them: per metric
/// and workload the minimum, median and maximum, and the spread (the
/// quartile distance from four sets on, else the whole range, as a share
/// of the median) against the metric's bound. Exact counts must be
/// identical in every set. Writes the numbers to `out`.
pub fn run_aa(sets: usize, cfg: &RunCfg, out: Option<&str>) -> Result<(), String> {
    let mut runs = Vec::new();
    for set in 0..sets {
        println!("== A/A set {} of {sets} ==", set + 1);
        runs.push(run_all(cfg, false)?);
    }
    let mut disagreements = Vec::new();
    let mut rows = Vec::new();
    println!(
        "== A/A: {sets} sets, seed {}, {} s ==",
        cfg.seed, cfg.seconds
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for e in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r[wi].metrics.get(e.name).copied())
                .collect();
            let med = median(&values);
            let (lo, hi) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            // From four sets on, the quartile distance the driver uses;
            // below that, how much worse the worst set is than the best.
            let (best, worst) = match e.better {
                Better::Lower => (lo, hi),
                Better::Higher => (hi, lo),
            };
            let (spread, agree) = match quartile_spread(&values) {
                Some(spread) if values.len() >= 4 => (spread, spread <= e.bound),
                _ => (
                    worsening(best, worst, e.better),
                    within_bound(best, worst, e.better, e.bound),
                ),
            };
            // One slow start says nothing about the code: set-up time is
            // reported, not gated, within one build.
            let ok = agree || e.name == "setup_s";
            println!(
                "  {:<20} {:<13} min {lo:>14.4} med {med:>14.4} max {hi:>14.4} {:<5} spread {:>6.2}% of bound {:>5.1}%{}",
                w.name,
                e.name,
                e.unit,
                spread * 100.0,
                e.bound * 100.0,
                if ok { "" } else { "  DISAGREES" }
            );
            if !ok {
                disagreements.push(format!("{}@{}", e.name, w.name));
            }
            rows.push(Json::obj([
                ("workload", Json::Str(w.name.into())),
                ("metric", Json::Str(e.name.into())),
                ("unit", Json::Str(e.unit.into())),
                ("min", Json::Num(lo)),
                ("median", Json::Num(med)),
                ("max", Json::Num(hi)),
                ("spread", Json::Num(spread)),
                ("bound", Json::Num(e.bound)),
            ]));
        }
        let first = &runs[0][wi].exact;
        if runs.iter().any(|r| &r[wi].exact != first) {
            println!("  {:<20} exact counts differ between sets", w.name);
            disagreements.push(format!("exact counts@{}", w.name));
        }
    }
    let doc = Json::obj([
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds)),
        ("sets", Json::Num(sets as f64)),
        (
            "host",
            Json::obj([
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
                ),
                ("rustc", Json::Str(tool_line("rustc", &["--version"]))),
                (
                    "commit",
                    Json::Str(tool_line("git", &["rev-parse", "HEAD"])),
                ),
                ("network", Json::Str("loopback".into())),
            ]),
        ),
        ("rows", Json::Arr(rows)),
        (
            "exact",
            Json::Obj(
                WORKLOADS
                    .iter()
                    .enumerate()
                    .map(|(wi, w)| {
                        let exact = runs[0][wi].exact.iter();
                        (
                            w.name.to_string(),
                            Json::obj(exact.map(|(k, v)| (k.clone(), Json::Num(*v)))),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = out.map_or_else(
        || target_dir().join(format!("aa-seed{}.json", cfg.seed)),
        PathBuf::from,
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if disagreements.is_empty() {
        Ok(())
    } else {
        Err(format!("sets disagree on: {}", disagreements.join(", ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_printed_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            contract(),
            "regenerate with `farm-benchmark --print-contract > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn every_end_to_end_metric_has_a_source() {
        let m = Measured {
            setup_s: vec![1.0],
            window_s: 2.0,
            work_units: 10.0,
            op_us: vec![3.0; 50],
            op2_us: vec![4.0; 50],
            result_score: 1.0,
            attempted: 10,
            failed: 1,
            ..Measured::default()
        };
        let values = end_to_end_values(&m);
        assert_eq!(values.len(), END_TO_END.len());
        let by_name = |name: &str| values[END_TO_END.iter().position(|e| e.name == name).unwrap()];
        assert_eq!(by_name("work_per_s"), 5.0);
        assert_eq!(by_name("ok_share"), 0.9);
        assert_eq!(by_name("op_tail_us"), 3.0);
        assert_eq!(by_name("op2_p50_us"), 4.0);
    }
}
