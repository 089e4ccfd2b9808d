//! Solver phase telemetry: what a caller that timed a solve records.

use farm_telemetry::{Event, Telemetry};

/// Records one finished solver phase into `telemetry`: a
/// `solver.phases` counter tick, samples of the aggregate
/// `solver.phase_us` and the per-phase `solver.phase.<phase>_us`
/// histograms (so per-phase p50/p95 survive aggregation), and a
/// [`Event::SolverPhase`].
pub fn record_phase(telemetry: &Telemetry, phase: &'static str, elapsed_ns: u64, items: u64) {
    telemetry.counter("solver.phases").inc();
    let us = elapsed_ns / 1_000;
    telemetry.latency_histogram("solver.phase_us").record(us);
    telemetry
        .latency_histogram(&format!("solver.phase.{phase}_us"))
        .record(us);
    telemetry.emit_with(|| Event::SolverPhase {
        phase,
        elapsed_ns,
        items,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_ticks_the_counter_and_both_histograms() {
        let telemetry = Telemetry::new();
        record_phase(&telemetry, "simplex", 7_000, 2);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("solver.phases"), 1);
        assert_eq!(snap.histogram("solver.phase_us").unwrap().count, 1);
        assert_eq!(snap.histogram("solver.phase.simplex_us").unwrap().sum, 7);
    }
}
