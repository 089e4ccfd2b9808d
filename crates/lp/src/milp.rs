//! Branch & bound for mixed-integer linear programs.
//!
//! Depth-first branch & bound over the integer variables of a
//! [`Problem`], using the bounded-variable simplex of [`crate::simplex`]
//! for node relaxations: a branch tightens a column's bounds, it adds no
//! row. A rounding-and-fix primal heuristic runs at every node so a
//! feasible incumbent usually exists long before the tree is exhausted —
//! this is what makes the "MILP with a short timeout" baseline of the FARM
//! paper's Fig. 7 behave like Gurobi-with-deadline: it returns the best
//! incumbent found so far.

use std::time::{Duration, Instant};

use crate::problem::{Problem, Sense};
use crate::simplex::{self, Limits};
use crate::solution::SolveError;
use crate::EPS;

/// Options controlling a branch & bound run.
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Wall-clock budget; `None` means unlimited.
    pub time_limit: Option<Duration>,
    /// Maximum number of explored nodes.
    pub max_nodes: usize,
    /// Per-node simplex iteration cap.
    pub node_iterations: usize,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            time_limit: None,
            max_nodes: 100_000,
            node_iterations: 200_000,
        }
    }
}

/// Outcome class of a branch & bound run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MilpStatus {
    /// Proven optimal (tree exhausted).
    Optimal,
    /// A feasible incumbent exists but optimality was not proven in budget.
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// LP relaxation unbounded at the root.
    Unbounded,
    /// Budget exhausted with no feasible point found (and no infeasibility
    /// proof).
    Unknown,
}

/// Result of [`solve_milp`].
#[derive(Debug, Clone)]
pub struct MilpResult {
    pub status: MilpStatus,
    /// Objective of the best incumbent, if any.
    pub objective: Option<f64>,
    /// Variable values of the best incumbent, if any.
    pub values: Option<Vec<f64>>,
}

struct SearchState {
    best_values: Option<Vec<f64>>,
    best_obj: f64,
    nodes: usize,
    deadline: Option<Instant>,
    hit_limit: bool,
    sense: Sense,
    opts: MilpOptions,
}

impl SearchState {
    fn is_better(&self, obj: f64) -> bool {
        match self.sense {
            Sense::Maximize => obj > self.best_obj + EPS,
            Sense::Minimize => obj < self.best_obj - EPS,
        }
    }

    fn can_beat(&self, bound: f64) -> bool {
        if self.best_values.is_none() {
            return true;
        }
        match self.sense {
            Sense::Maximize => bound > self.best_obj + EPS,
            Sense::Minimize => bound < self.best_obj - EPS,
        }
    }

    fn out_of_budget(&self) -> bool {
        self.hit_limit
            || self.nodes >= self.opts.max_nodes
            || self.deadline.map(|d| Instant::now() >= d).unwrap_or(false)
    }
}

/// Solves a mixed-integer linear program by branch & bound.
///
/// Works on a clone of `problem`; bounds are tightened in place during the
/// search and restored on backtrack. Pure LPs (no integer variables) are
/// handed straight to the simplex.
pub fn solve_milp(problem: &Problem, opts: &MilpOptions) -> MilpResult {
    let start = Instant::now();
    let deadline = opts.time_limit.map(|d| start + d);
    let mut work = problem.clone();
    let int_vars: Vec<usize> = problem.integer_vars().collect();

    let limits = Limits {
        max_iterations: opts.node_iterations,
        deadline,
    };

    // Root relaxation.
    let root = match simplex::solve_with_limits(&work, limits) {
        Ok(s) => s,
        Err(e) => {
            return MilpResult {
                status: match e {
                    SolveError::Infeasible => MilpStatus::Infeasible,
                    SolveError::Unbounded => MilpStatus::Unbounded,
                    _ => MilpStatus::Unknown,
                },
                objective: None,
                values: None,
            };
        }
    };

    let mut state = SearchState {
        best_values: None,
        best_obj: match problem.sense() {
            Sense::Maximize => f64::NEG_INFINITY,
            Sense::Minimize => f64::INFINITY,
        },
        nodes: 0,
        deadline,
        hit_limit: false,
        sense: problem.sense(),
        opts: opts.clone(),
    };

    if int_vars.is_empty() {
        return MilpResult {
            status: MilpStatus::Optimal,
            objective: Some(root.objective),
            values: Some(root.values),
        };
    }

    branch(&mut work, &int_vars, &limits, &mut state, Some(root));

    let status = if state.best_values.is_some() {
        if state.hit_limit {
            MilpStatus::Feasible
        } else {
            MilpStatus::Optimal
        }
    } else if state.hit_limit {
        MilpStatus::Unknown
    } else {
        MilpStatus::Infeasible
    };
    MilpResult {
        status,
        objective: state.best_values.is_some().then_some(state.best_obj),
        values: state.best_values,
    }
}

/// Most fractional integer variable in `values`, if any exceeds tolerance.
fn most_fractional(int_vars: &[usize], values: &[f64]) -> Option<(usize, f64)> {
    let mut pick = None;
    let mut best_dist = 1e-6;
    for &vi in int_vars {
        let v = values[vi];
        let frac = (v - v.round()).abs();
        if frac > best_dist {
            best_dist = frac;
            pick = Some((vi, v));
        }
    }
    pick
}

/// Rounding heuristic: fix all integer variables to the rounded relaxation
/// values and re-solve the continuous part. Updates the incumbent on success.
fn try_rounding(
    work: &mut Problem,
    int_vars: &[usize],
    limits: &Limits,
    state: &mut SearchState,
    relax_values: &[f64],
) {
    let saved: Vec<(usize, f64, f64)> = int_vars
        .iter()
        .map(|&vi| {
            let d = &work.vars()[vi];
            (vi, d.lower, d.upper)
        })
        .collect();
    for &(vi, lo, hi) in &saved {
        let r = relax_values[vi].round().clamp(lo, hi);
        work.set_bounds(crate::Var(vi), r, r);
    }
    if let Ok(sol) = simplex::solve_with_limits(work, *limits) {
        if state.is_better(sol.objective) && work.max_violation(&sol.values, 1e-6) <= 0.0 {
            state.best_obj = sol.objective;
            state.best_values = Some(sol.values);
        }
    }
    for &(vi, lo, hi) in &saved {
        work.set_bounds(crate::Var(vi), lo, hi);
    }
}

fn branch(
    work: &mut Problem,
    int_vars: &[usize],
    limits: &Limits,
    state: &mut SearchState,
    presolved: Option<crate::solution::Solution>,
) {
    if state.out_of_budget() {
        state.hit_limit = true;
        return;
    }
    state.nodes += 1;

    let sol = match presolved {
        Some(s) => s,
        None => match simplex::solve_with_limits(work, *limits) {
            Ok(s) => s,
            Err(SolveError::Infeasible) => return,
            Err(SolveError::Unbounded) => {
                // An unbounded node relaxation cannot prune; treat as limit.
                state.hit_limit = true;
                return;
            }
            Err(_) => {
                state.hit_limit = true;
                return;
            }
        },
    };

    if !state.can_beat(sol.objective) {
        return; // bound prune
    }

    match most_fractional(int_vars, &sol.values) {
        None => {
            // Integral relaxation: new incumbent.
            if state.is_better(sol.objective) {
                state.best_obj = sol.objective;
                state.best_values = Some(sol.values);
            }
        }
        Some((vi, v)) => {
            // Primal heuristic before branching so deadline hits still leave
            // an incumbent behind.
            if state.best_values.is_none() {
                try_rounding(work, int_vars, limits, state, &sol.values);
            }
            let d = &work.vars()[vi];
            let (lo, hi) = (d.lower, d.upper);
            let floor = v.floor();
            let ceil = v.ceil();
            // Explore the side closer to the relaxation value first.
            let down_first = v - floor <= ceil - v;
            let sides: [(f64, f64); 2] = if down_first {
                [(lo, floor), (ceil, hi)]
            } else {
                [(ceil, hi), (lo, floor)]
            };
            for &(new_lo, new_hi) in &sides {
                if new_lo > new_hi + EPS {
                    continue;
                }
                work.set_bounds(crate::Var(vi), new_lo, new_hi);
                branch(work, int_vars, limits, state, None);
                work.set_bounds(crate::Var(vi), lo, hi);
                if state.out_of_budget() {
                    state.hit_limit = true;
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Problem, Sense};

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        let c = p.add_binary("c");
        p.add_constraint(3.0 * a + 4.0 * b + 2.0 * c, Cmp::Le, 6.0);
        p.set_objective(10.0 * a + 13.0 * b + 7.0 * c);
        let r = solve_milp(&p, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!(
            (r.objective.unwrap() - 20.0).abs() < 1e-6,
            "{:?}",
            r.objective
        );
        let v = r.values.unwrap();
        assert!((v[1] - 1.0).abs() < 1e-6 && (v[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 5.0);
        p.set_objective(x + 0.0);
        let r = solve_milp(&p, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective.unwrap() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn integer_rounding_not_trusted() {
        // LP optimum is fractional; integer optimum differs from naive
        // rounding. max x + y s.t. 2x + 2y <= 3 integer → optimum 1.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_integer("x", 0.0, 10.0);
        let y = p.add_integer("y", 0.0, 10.0);
        p.add_constraint(2.0 * x + 2.0 * y, Cmp::Le, 3.0);
        p.set_objective(x + y);
        let r = solve_milp(&p, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective.unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_mip() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_binary("x");
        p.add_constraint(2.0 * x, Cmp::Ge, 3.0);
        p.set_objective(x + 0.0);
        let r = solve_milp(&p, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Infeasible);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 5b + x, x <= 2b (big-M link), x <= 1.5
        let mut p = Problem::new(Sense::Maximize);
        let b = p.add_binary("b");
        let x = p.add_var("x", 0.0, 1.5);
        p.add_constraint(x - 2.0 * b, Cmp::Le, 0.0);
        p.set_objective(5.0 * b + x);
        let r = solve_milp(&p, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective.unwrap() - 6.5).abs() < 1e-6);
    }

    #[test]
    fn respects_time_limit_and_reports_incumbent() {
        // A slightly bigger knapsack: with an absurdly small deadline the
        // solver must still not panic and must report a coherent status.
        let mut p = Problem::new(Sense::Maximize);
        let mut obj = crate::LinExpr::new();
        let mut weight = crate::LinExpr::new();
        for i in 0..24 {
            let v = p.add_binary(format!("v{i}"));
            obj.add_term(v, (i % 7 + 1) as f64);
            weight.add_term(v, (i % 5 + 1) as f64);
        }
        p.add_constraint(weight, Cmp::Le, 20.0);
        p.set_objective(obj);
        let options = MilpOptions {
            time_limit: Some(Duration::from_millis(5)),
            ..MilpOptions::default()
        };
        let r = solve_milp(&p, &options);
        match r.status {
            MilpStatus::Optimal | MilpStatus::Feasible => {
                assert!(r.objective.is_some());
                assert!(p.is_feasible(r.values.as_ref().unwrap()));
            }
            MilpStatus::Unknown => assert!(r.objective.is_none()),
            other => panic!("unexpected status {other:?}"),
        }
    }

    #[test]
    fn gap_is_zero_when_proven_optimal() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_integer("x", 0.0, 9.0);
        p.add_constraint(2.0 * x, Cmp::Ge, 5.0);
        p.set_objective(x + 0.0);
        let r = solve_milp(&p, &MilpOptions::default());
        assert_eq!(r.status, MilpStatus::Optimal);
        assert!((r.objective.unwrap() - 3.0).abs() < 1e-6);
    }
}
