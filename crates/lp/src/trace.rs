//! Telemetry-instrumented solver entry points.
//!
//! Thin wrappers around [`simplex::solve`] and [`solve_milp`] that time
//! the solve, sample the `solver.phase_us` histogram and emit a
//! [`Event::SolverPhase`]. The untraced functions stay unchanged for
//! callers without telemetry.

use std::time::Instant;

use farm_telemetry::{Event, Telemetry};

use crate::milp::{solve_milp, MilpOptions, MilpResult};
use crate::problem::Problem;
use crate::simplex;
use crate::solution::{Solution, SolveError};

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

/// [`simplex::solve`] with phase telemetry (`phase = "simplex"`, items =
/// number of variables).
pub fn solve_traced(
    problem: &Problem,
    telemetry: Option<&Telemetry>,
) -> Result<Solution, SolveError> {
    let start = Instant::now();
    let result = simplex::solve(problem);
    if let Some(t) = telemetry {
        record_phase(
            t,
            "simplex",
            start.elapsed().as_nanos() as u64,
            problem.num_vars() as u64,
        );
    }
    result
}

/// [`solve_milp`] with phase telemetry (`phase = "milp"`, items =
/// explored branch & bound nodes).
pub fn solve_milp_traced(
    problem: &Problem,
    opts: &MilpOptions,
    telemetry: Option<&Telemetry>,
) -> MilpResult {
    let result = solve_milp(problem, opts);
    if let Some(t) = telemetry {
        record_phase(
            t,
            "milp",
            result.elapsed.as_nanos() as u64,
            result.nodes as u64,
        );
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Sense};

    #[test]
    fn traced_solve_matches_untraced_and_records_phase() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 10.0);
        let y = p.add_var("y", 0.0, 10.0);
        p.add_constraint(x + y, Cmp::Le, 12.0);
        p.set_objective(2.0 * x + y);

        let telemetry = Telemetry::new();
        let traced = solve_traced(&p, Some(&telemetry)).unwrap();
        let plain = simplex::solve(&p).unwrap();
        assert!((traced.objective - plain.objective).abs() < 1e-9);

        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("solver.phases"), 1);
        assert_eq!(snap.histogram("solver.phase_us").unwrap().count, 1);
    }
}
