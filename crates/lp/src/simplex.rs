//! Bounded-variable two-phase primal simplex on a dense tableau.
//!
//! Bounds live on the columns, not in rows: every column carries `[l, u]`
//! implicitly, a nonbasic column sits at its lower or its upper bound (a
//! free one at zero), and the ratio test limits a step by the bounds of
//! the basic columns on either side and by the entering column's own
//! opposite bound, which it may reach by a *bound flip* — a step with no
//! pivot.
//!
//! Before the tableau is built, a constraint with one nonzero coefficient
//! is folded into its variable's bounds; bounds that cross by more than
//! the feasibility tolerance make the problem infeasible. Every remaining
//! constraint is one row with one slack column whose bounds say the
//! comparison (`≤`: `[0, ∞)`, `≥`: `(-∞, 0]`, `=`: `[0, 0]`).
//!
//! Phase 1 starts from every nonbasic column at its finite bound nearest
//! zero. Only the rows that point violates get an artificial column, and
//! phase 1 minimizes their sum; phase 2 optimizes the user objective,
//! carried along in a second cost row.
//!
//! Pivoting uses Dantzig's rule with an automatic switch to Bland's rule
//! (which guarantees termination) once the iteration count grows, plus an
//! overall iteration cap and optional deadline for use inside branch & bound.

use std::time::Instant;

use crate::problem::{Cmp, Problem, Sense};
use crate::solution::{Solution, SolveError};
use crate::EPS;

/// A bound crossing or a phase-1 residual up to this size still counts as
/// feasible.
const FEAS_TOL: f64 = 1e-6;

/// Hard limits for a simplex run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    /// Maximum number of iterations (pivots and bound flips) across both
    /// phases.
    pub(crate) max_iterations: usize,
    /// Optional wall-clock deadline.
    pub(crate) deadline: Option<Instant>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_iterations: 200_000,
            deadline: None,
        }
    }
}

/// Solves the LP relaxation of `problem` with default limits.
///
/// # Errors
///
/// `SolveError::Infeasible` / `SolveError::Unbounded` for the respective
/// outcomes, `SolveError::LimitReached` if the iteration cap is hit, and
/// `SolveError::BadModel` for NaN/infinite coefficients.
pub fn solve(problem: &Problem) -> Result<Solution, SolveError> {
    solve_with_limits(problem, Limits::default())
}

/// Solves the LP relaxation of `problem` under explicit limits.
///
/// # Errors
///
/// See [`solve`].
pub(crate) fn solve_with_limits(problem: &Problem, limits: Limits) -> Result<Solution, SolveError> {
    for def in problem.vars() {
        if def.lower.is_nan() || def.upper.is_nan() {
            return Err(SolveError::BadModel(format!(
                "NaN bound on variable `{}`",
                def.name
            )));
        }
    }
    for c in problem.constraints() {
        if c.rhs.is_nan() || c.coeffs.iter().any(|&(_, v)| !v.is_finite()) {
            return Err(SolveError::BadModel("non-finite constraint data".into()));
        }
    }
    if problem.objective().iter().any(|v| !v.is_finite()) {
        return Err(SolveError::BadModel("non-finite objective".into()));
    }

    // --- Column bounds, with single-variable rows folded in. ---
    let n = problem.num_vars();
    let mut lo: Vec<f64> = problem.vars().iter().map(|d| d.lower).collect();
    let mut hi: Vec<f64> = problem.vars().iter().map(|d| d.upper).collect();
    let mut rows = Vec::with_capacity(problem.num_constraints());
    for c in problem.constraints() {
        let mut nonzero = c.coeffs.iter().filter(|&&(_, a)| a != 0.0);
        match (nonzero.next(), nonzero.next()) {
            (None, _) => {
                // `0 cmp rhs` holds or fails whatever the variables are.
                let (l, u) = slack_bounds(c.cmp);
                if c.rhs < l - FEAS_TOL || c.rhs > u + FEAS_TOL {
                    return Err(SolveError::Infeasible);
                }
            }
            (Some(&(j, a)), None) => {
                let bound = c.rhs / a;
                let (floor, ceiling) = match (c.cmp, a > 0.0) {
                    (Cmp::Eq, _) => (true, true),
                    (Cmp::Le, true) | (Cmp::Ge, false) => (false, true),
                    (Cmp::Ge, true) | (Cmp::Le, false) => (true, false),
                };
                if floor {
                    lo[j] = lo[j].max(bound);
                }
                if ceiling {
                    hi[j] = hi[j].min(bound);
                }
            }
            _ => rows.push(c),
        }
    }
    for (l, u) in lo.iter_mut().zip(hi.iter_mut()) {
        if *l > *u {
            if *l - *u > FEAS_TOL {
                return Err(SolveError::Infeasible);
            }
            let mid = 0.5 * (*l + *u);
            (*l, *u) = (mid, mid);
        }
    }
    let m = rows.len();

    // --- Starting point: every structural column at its finite bound
    // nearest zero, a free one at zero. ---
    let mut x: Vec<f64> = lo
        .iter()
        .zip(&hi)
        .map(|(&l, &u)| match (l.is_finite(), u.is_finite()) {
            (true, true) if u.abs() < l.abs() => u,
            (true, _) => l,
            (false, true) => u,
            (false, false) => 0.0,
        })
        .collect();
    // The slack value each row asks for there; a row gets an artificial
    // column exactly when that value lies outside its slack's bounds.
    let need: Vec<f64> = rows
        .iter()
        .map(|c| c.rhs - c.coeffs.iter().map(|&(j, a)| a * x[j]).sum::<f64>())
        .collect();
    for c in &rows {
        let (l, u) = slack_bounds(c.cmp);
        lo.push(l);
        hi.push(u);
    }
    let violated = |i: usize| need[i] < lo[n + i] || need[i] > hi[n + i];
    let nart = (0..m).filter(|&i| violated(i)).count();

    // --- Tableau: [structural | slack | artificial], written in place. ---
    let art_start = n + m;
    let width = art_start + nart;
    let mut tab = vec![0.0f64; m * width];
    let mut basis = vec![0usize; m];
    x.resize(width, 0.0);
    let mut next_art = art_start;
    for i in 0..m {
        let row = &mut tab[i * width..(i + 1) * width];
        let s = need[i];
        // A violated row is negated where needed so that its artificial
        // enters with coefficient +1 at the value |s|.
        let sign = if violated(i) && s < 0.0 { -1.0 } else { 1.0 };
        for &(j, a) in &rows[i].coeffs {
            row[j] += sign * a;
        }
        row[n + i] = sign;
        if violated(i) {
            row[next_art] = 1.0;
            basis[i] = next_art;
            x[next_art] = s.abs();
            next_art += 1;
        } else {
            basis[i] = n + i;
            x[n + i] = s;
        }
    }
    lo.resize(width, 0.0);
    hi.resize(width, f64::INFINITY);
    let mut t = Tableau {
        m,
        width,
        tab,
        basis,
        x,
        lo,
        hi,
        scratch: vec![0.0; width],
    };

    // Objective in minimization form over structural columns.
    let sense_factor = match problem.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut phase2 = vec![0.0f64; width];
    for (d, &c) in phase2.iter_mut().zip(problem.objective()) {
        *d = sense_factor * c;
    }

    let mut iterations = 0usize;

    // --- Phase 1 ---
    if nart > 0 {
        // Sum of artificials, reduced by the initial basis.
        let mut phase1 = vec![0.0f64; width];
        phase1[art_start..].fill(1.0);
        for i in 0..m {
            if t.basis[i] >= art_start {
                let row = &t.tab[i * width..(i + 1) * width];
                for (d, &a) in phase1.iter_mut().zip(row) {
                    *d -= a;
                }
            }
        }
        // Artificial columns never re-enter the basis: restrict entering
        // columns to the structural + slack range.
        t.optimize(
            &mut phase1,
            Some(phase2.as_mut_slice()),
            art_start,
            &limits,
            &mut iterations,
        )
        .map_err(|e| match e {
            // Phase-1 objective is bounded below by 0; "unbounded" here means
            // numerical trouble, surface as limit.
            SolveError::Unbounded => SolveError::LimitReached,
            other => other,
        })?;
        if t.x[art_start..].iter().sum::<f64>() > FEAS_TOL {
            return Err(SolveError::Infeasible);
        }
        // Drive remaining artificials out of the basis when possible; an
        // artificial left in a redundant row is pinned at zero.
        for i in 0..m {
            let art = t.basis[i];
            if art < art_start {
                continue;
            }
            match (0..art_start).find(|&j| t.tab[i * width + j].abs() > 1e-9) {
                Some(j) => {
                    let dx = t.x[art] / t.tab[i * width + j];
                    t.step(j, dx);
                    t.x[art] = 0.0;
                    t.pivot(i, j, &mut phase2, None);
                }
                None => t.hi[art] = 0.0,
            }
        }
    }

    // --- Phase 2 (entering columns restricted to non-artificials). ---
    t.optimize(&mut phase2, None, art_start, &limits, &mut iterations)?;

    let mut values = t.x;
    values.truncate(n);
    let objective = problem.objective_value(&values);
    Ok(Solution { values, objective })
}

/// Bounds of the slack `s` in `a·x + s = rhs` that make the row say `cmp`.
fn slack_bounds(cmp: Cmp) -> (f64, f64) {
    match cmp {
        Cmp::Le => (0.0, f64::INFINITY),
        Cmp::Ge => (f64::NEG_INFINITY, 0.0),
        Cmp::Eq => (0.0, 0.0),
    }
}

/// The dense tableau `B⁻¹·[A | slack | artificial]` with the current value
/// of every column beside it (basic values are not a right-hand side: a
/// nonbasic column may sit at a nonzero bound).
struct Tableau {
    m: usize,
    width: usize,
    tab: Vec<f64>,
    /// Column basic in each row.
    basis: Vec<usize>,
    /// Current value of every column.
    x: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Normalized pivot row, copied out once per pivot. Updating rows
    /// against this aliasing-free slice (instead of indexing back into
    /// `tab`) lets the row updates vectorize.
    scratch: Vec<f64>,
}

impl Tableau {
    /// Runs simplex iterations on the reduced-cost row `cost`, entering
    /// only columns below `col_limit`, until no column improves it.
    /// `other` is a second cost row kept reduced against the same basis.
    fn optimize(
        &mut self,
        cost: &mut [f64],
        mut other: Option<&mut [f64]>,
        col_limit: usize,
        limits: &Limits,
        iterations: &mut usize,
    ) -> Result<(), SolveError> {
        let width = self.width;
        loop {
            if *iterations >= limits.max_iterations {
                return Err(SolveError::LimitReached);
            }
            if let Some(dl) = limits.deadline {
                if iterations.is_multiple_of(64) && Instant::now() >= dl {
                    return Err(SolveError::LimitReached);
                }
            }
            let bland = *iterations > limits.max_iterations / 2;
            // Entering column and direction: up from a column below its
            // upper bound with negative reduced cost, down from one above
            // its lower bound with positive reduced cost.
            let mut enter = usize::MAX;
            let mut dir = 0.0;
            let mut best = EPS;
            for (j, &d) in cost.iter().enumerate().take(col_limit) {
                let (gain, up) = if d < -EPS && self.x[j] < self.hi[j] {
                    (-d, true)
                } else if d > EPS && self.x[j] > self.lo[j] {
                    (d, false)
                } else {
                    continue;
                };
                if gain > best || bland {
                    best = gain;
                    enter = j;
                    dir = if up { 1.0 } else { -1.0 };
                    if bland {
                        break;
                    }
                }
            }
            if enter == usize::MAX {
                return Ok(()); // optimal for this phase
            }
            // Ratio test over the basic columns' bounds.
            let mut leave = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            for i in 0..self.m {
                let a = dir * self.tab[i * width + enter];
                let b = self.basis[i];
                let room = if a > EPS {
                    self.x[b] - self.lo[b]
                } else if a < -EPS {
                    self.hi[b] - self.x[b]
                } else {
                    continue;
                };
                if room == f64::INFINITY {
                    continue;
                }
                let ratio = room.max(0.0) / a.abs();
                if ratio < best_ratio - EPS
                    || (ratio < best_ratio + EPS && leave != usize::MAX && b < self.basis[leave])
                {
                    best_ratio = ratio;
                    leave = i;
                }
            }
            // The entering column's own opposite bound: a flip, no pivot.
            let flip = self.hi[enter] - self.lo[enter];
            if flip <= best_ratio {
                if flip == f64::INFINITY {
                    return Err(SolveError::Unbounded);
                }
                self.step(enter, dir * flip);
                self.x[enter] = if dir > 0.0 {
                    self.hi[enter]
                } else {
                    self.lo[enter]
                };
            } else {
                let b = self.basis[leave];
                let falls = dir * self.tab[leave * width + enter] > 0.0;
                self.step(enter, dir * best_ratio);
                self.x[b] = if falls { self.lo[b] } else { self.hi[b] };
                self.pivot(leave, enter, cost, other.as_deref_mut());
            }
            *iterations += 1;
        }
    }

    /// Moves column `j` by `dx` and the basic columns with it.
    fn step(&mut self, j: usize, dx: f64) {
        for i in 0..self.m {
            let a = self.tab[i * self.width + j];
            if a != 0.0 {
                self.x[self.basis[i]] -= a * dx;
            }
        }
        self.x[j] += dx;
    }

    /// Pivots column `enter` into the basis at row `leave`, keeping the
    /// cost rows reduced.
    fn pivot(&mut self, leave: usize, enter: usize, cost: &mut [f64], other: Option<&mut [f64]>) {
        let width = self.width;
        let lrow = &mut self.tab[leave * width..(leave + 1) * width];
        let piv = lrow[enter];
        for v in lrow.iter_mut() {
            *v /= piv;
        }
        self.scratch.copy_from_slice(lrow);
        for (i, row) in self.tab.chunks_exact_mut(width).enumerate() {
            let f = row[enter];
            if i != leave && f != 0.0 {
                for (v, &s) in row.iter_mut().zip(&self.scratch) {
                    *v -= f * s;
                }
            }
        }
        for c in std::iter::once(cost).chain(other) {
            let f = c[enter];
            if f != 0.0 {
                for (v, &s) in c.iter_mut().zip(&self.scratch) {
                    *v -= f * s;
                }
            }
        }
        self.basis[leave] = enter;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, Problem, Sense};

    #[test]
    fn textbook_two_variable_max() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.add_constraint(x + y, Cmp::Le, 4.0);
        p.add_constraint(x + 3.0 * y, Cmp::Le, 6.0);
        p.set_objective(3.0 * x + 2.0 * y);
        let s = solve(&p).unwrap();
        assert!(
            (s.objective - 12.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert!((s.value(x) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn equality_and_ge_constraints() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.add_constraint(x + y, Cmp::Eq, 10.0);
        p.add_constraint(x - y, Cmp::Ge, 2.0);
        p.set_objective(2.0 * x + y);
        let s = solve(&p).unwrap();
        // optimum at x=6, y=4 → 16
        assert!((s.objective - 16.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        p.add_constraint(x, Cmp::Le, 1.0);
        p.add_constraint(x, Cmp::Ge, 2.0);
        p.set_objective(x + 0.0);
        assert_eq!(solve(&p), Err(SolveError::Infeasible));
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        p.set_objective(x + 0.0);
        assert_eq!(solve(&p), Err(SolveError::Unbounded));
    }

    #[test]
    fn honors_variable_bounds() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 1.0, 3.0);
        let y = p.add_var("y", -2.0, 2.0);
        p.add_constraint(x + y, Cmp::Le, 4.0);
        p.set_objective(x + y);
        let s = solve(&p).unwrap();
        assert!((s.objective - 4.0).abs() < 1e-6);
        assert!(s.value(x) <= 3.0 + 1e-9 && s.value(x) >= 1.0 - 1e-9);
    }

    #[test]
    fn free_variable_split() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
        p.add_constraint(x + 0.0, Cmp::Ge, -5.0);
        p.set_objective(x + 0.0);
        let s = solve(&p).unwrap();
        assert!((s.value(x) + 5.0).abs() < 1e-6);
    }

    #[test]
    fn mirrored_variable_upper_bound_only() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", f64::NEG_INFINITY, 7.0);
        p.set_objective(x + 0.0);
        let s = solve(&p).unwrap();
        assert!((s.value(x) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.add_constraint(-1.0 * x - y, Cmp::Le, -3.0); // x + y >= 3
        p.set_objective(x + 2.0 * y);
        let s = solve(&p).unwrap();
        assert!((s.objective - 3.0).abs() < 1e-6);
        assert!((s.value(x) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic cycling-prone structure; Bland fallback must terminate.
        let mut p = Problem::new(Sense::Maximize);
        let x1 = p.add_var("x1", 0.0, f64::INFINITY);
        let x2 = p.add_var("x2", 0.0, f64::INFINITY);
        let x3 = p.add_var("x3", 0.0, f64::INFINITY);
        let x4 = p.add_var("x4", 0.0, f64::INFINITY);
        p.add_constraint(0.5 * x1 - 5.5 * x2 - 2.5 * x3 + 9.0 * x4, Cmp::Le, 0.0);
        p.add_constraint(0.5 * x1 - 1.5 * x2 - 0.5 * x3 + x4, Cmp::Le, 0.0);
        p.add_constraint(LinExprFrom(x1), Cmp::Le, 1.0);
        p.set_objective(10.0 * x1 - 57.0 * x2 - 9.0 * x3 - 24.0 * x4);
        let s = solve(&p).unwrap();
        assert!((s.objective - 1.0).abs() < 1e-5);
    }

    // Helper so the test above can pass a bare Var where an expression is
    // needed without relying on trait inference gymnastics.
    #[allow(non_snake_case)]
    fn LinExprFrom(v: crate::Var) -> crate::LinExpr {
        crate::LinExpr::from(v)
    }

    #[test]
    fn objective_constant_reported() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 2.0);
        p.set_objective(x + 100.0);
        let s = solve(&p).unwrap();
        assert!((s.objective - 102.0).abs() < 1e-9);
    }

    #[test]
    fn a_bound_flip_moves_a_column_without_a_pivot() {
        // max x + y, x ∈ [0, 2], y ∈ [0, 3], x + y ≤ 10: both columns
        // reach their upper bounds by flips and the slack stays basic.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 2.0);
        let y = p.add_var("y", 0.0, 3.0);
        p.add_constraint(x + y, Cmp::Le, 10.0);
        p.set_objective(x + 2.0 * y);
        let s = solve(&p).unwrap();
        assert_eq!((s.value(x), s.value(y)), (2.0, 3.0));
        assert_eq!(s.objective, 8.0);
    }

    #[test]
    fn an_optimum_may_hold_a_column_at_its_upper_bound() {
        // max 3x + y, x ∈ [0, 4], x + y ≤ 6, y ≥ 0: x nonbasic at its
        // upper bound, y basic at 2.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 4.0);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.add_constraint(x + y, Cmp::Le, 6.0);
        p.set_objective(3.0 * x + y);
        let s = solve(&p).unwrap();
        assert!((s.value(x) - 4.0).abs() < 1e-12);
        assert!((s.value(y) - 2.0).abs() < 1e-12);
        assert!((s.objective - 14.0).abs() < 1e-12);
    }

    #[test]
    fn a_crossing_singleton_row_is_infeasible_not_a_panic() {
        // x ∈ [0, 3] and the row 2x ≥ 8 fold to x ∈ [4, 3].
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 3.0);
        let y = p.add_var("y", 0.0, 1.0);
        p.add_constraint(2.0 * x, Cmp::Ge, 8.0);
        p.add_constraint(x + y, Cmp::Le, 5.0);
        p.set_objective(x + y);
        assert_eq!(solve(&p), Err(SolveError::Infeasible));
    }

    #[test]
    fn singleton_rows_fold_into_bounds() {
        // -x ≥ -2 is x ≤ 2; 3y = 6 fixes y; x ≤ 5 is looser than the row.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 5.0);
        let y = p.add_var("y", 0.0, 10.0);
        p.add_constraint(-1.0 * x, Cmp::Ge, -2.0);
        p.add_constraint(3.0 * y, Cmp::Eq, 6.0);
        p.add_constraint(x + y, Cmp::Le, 100.0);
        p.set_objective(x + y);
        let s = solve(&p).unwrap();
        assert_eq!((s.value(x), s.value(y)), (2.0, 2.0));
    }

    #[test]
    fn only_violated_rows_get_an_artificial() {
        // x + y ≥ -1 holds at the origin, x + y ≥ 1 does not.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 5.0);
        let y = p.add_var("y", 0.0, 5.0);
        p.add_constraint(x + y, Cmp::Ge, -1.0);
        p.add_constraint(x + 2.0 * y, Cmp::Ge, 1.0);
        p.set_objective(2.0 * x + 3.0 * y);
        let s = solve(&p).unwrap();
        assert!((s.objective - 1.5).abs() < 1e-9, "{}", s.objective);
    }
}
