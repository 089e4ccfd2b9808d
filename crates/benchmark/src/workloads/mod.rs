//! The six workloads. Each is fixed work: the amount is a function of
//! `--seconds` alone (a per-workload rate calibrated so that the
//! measured window lasts about that long at the commit that defined the
//! benchmark), so counts repeat exactly and a faster program finishes
//! sooner instead of doing more.

use std::collections::BTreeMap;

use farm_telemetry::Telemetry;

use crate::pace::Pacer;
use crate::stats::median;
use crate::trace::Tracer;

pub mod ctl;
pub mod dc_churn;
pub mod fed_read;
pub mod place_paper;
pub mod replay;

/// What one invocation asks of a workload.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Workload seed: scenario, op-choice and instance seeds derive
    /// from it.
    pub seed: u64,
    /// Nominal length of the measured window; scales the fixed work.
    pub seconds: f64,
    /// Truncated counts and no scoring, for the `cargo test` smoke run.
    pub smoke: bool,
}

impl RunCfg {
    /// `per_second × seconds`, at least `min`; `smoke` in smoke mode.
    pub fn count(&self, per_second: f64, min: usize, smoke: usize) -> usize {
        if self.smoke {
            return smoke;
        }
        ((per_second * self.seconds).round() as usize).max(min)
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every time below is in scaled seconds or microseconds: wall time
    /// times the pacer's scale at that moment (see `pace`).
    ///
    /// Each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The measured window: the work itself, without the pacer's kernel
    /// timings in between.
    pub window_s: f64,
    /// The same window on the wall clock, unscaled.
    pub wall_s: f64,
    /// Work units done in the window (what `work_per_s` counts).
    pub work_units: f64,
    /// Latency samples of the workload's first and second operation.
    pub op_us: Vec<f64>,
    pub op2_us: Vec<f64>,
    pub result_score: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold; any entry fails the run.
    pub problems: Vec<String>,
    /// Counts that must repeat exactly for one seed (A/A bit-identity).
    pub exact: BTreeMap<String, f64>,
    /// Per-layer metrics, filled on traced runs only.
    pub layers: BTreeMap<String, f64>,
}

impl Measured {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}

/// Runs `pass` once, untraced, on an ordinary run. On a traced run the
/// same work runs untraced first and traced second, and the difference
/// between the two windows is what tracing costs
/// (`telemetry.trace_overhead_pct`); `m` keeps the traced pass. A pass
/// adds its window to the `Measured` it is given.
pub fn measure_with_overhead(
    tracer: Option<&Tracer>,
    m: &mut Measured,
    mut pass: impl FnMut(Option<&Tracer>, &mut Measured),
) {
    let Some(tracer) = tracer else {
        return pass(None, m);
    };
    let mut untraced = Measured::default();
    pass(None, &mut untraced);
    pass(Some(tracer), m);
    m.layer(
        "telemetry.trace_overhead_pct",
        (m.window_s - untraced.window_s) / untraced.window_s * 100.0,
    );
}

/// Fills `placement.<mode>.{greedy,lp,migration}_us_p50` from the solver
/// phases the tracer saw (`mode` is `full` or `delta`).
pub fn solver_phase_layers(t: &Tracer, mode: &str, m: &mut Measured) {
    for (phase, short) in [
        ("greedy", "greedy"),
        ("lp_redistribution", "lp"),
        ("migration", "migration"),
    ] {
        m.layer(
            &format!("placement.{mode}.{short}_us_p50"),
            median(&t.samples(&format!("placement.{mode}.{phase}"))),
        );
    }
}

/// Fills `telemetry.snapshot_us_p50`: `Telemetry::snapshot` on a
/// daemon's populated registry.
pub fn snapshot_layer(telemetry: &Telemetry, m: &mut Measured) {
    let us: Vec<f64> = (0..200)
        .map(|_| {
            let started = std::time::Instant::now();
            std::hint::black_box(telemetry.snapshot());
            micros(started.elapsed())
        })
        .collect();
    m.layer("telemetry.snapshot_us_p50", median(&us));
}

/// Runs the named workload; `tracer` is set on `--trace 1`.
pub fn run(
    name: &str,
    cfg: &RunCfg,
    tracer: Option<&Tracer>,
    pacer: &mut Pacer,
) -> Option<Measured> {
    Some(match name {
        "replay_flash_crowd" | "replay_microburst" | "replay_multi_vector" => {
            replay::run(name, cfg, tracer, pacer)
        }
        "dc_churn" => dc_churn::run(cfg, tracer, pacer),
        "fed_read" => fed_read::run(cfg, tracer, pacer),
        "place_paper" => place_paper::run(cfg, tracer, pacer),
        _ => return None,
    })
}

/// SplitMix64: stream `k` of the workload seed. Scenario, op-choice and
/// instance seeds are different streams of one `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A tiny deterministic generator for op choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        derive_seed(self.0, 0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant for
    /// picking ops.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

pub fn micros(d: std::time::Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_by_stream_and_repeat() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
        let mut a = Rng::new(1);
        let mut b = Rng::new(1);
        let xs: Vec<usize> = (0..8).map(|_| a.below(10)).collect();
        assert_eq!(xs, (0..8).map(|_| b.below(10)).collect::<Vec<_>>());
        assert!(xs.iter().any(|x| *x != xs[0]));
    }

    #[test]
    fn fixed_work_scales_with_seconds_only() {
        let cfg = |seconds, smoke| RunCfg {
            seed: 1,
            seconds,
            smoke,
        };
        assert_eq!(cfg(10.0, false).count(12.8, 1, 3), 128);
        assert_eq!(cfg(0.01, false).count(12.8, 5, 3), 5);
        assert_eq!(cfg(10.0, true).count(12.8, 5, 3), 3);
    }
}
