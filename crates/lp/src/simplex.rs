//! Dense two-phase primal simplex.
//!
//! The solver converts a [`Problem`] (ignoring integrality) to standard form
//! `min c·x  s.t.  Ax = b, x ≥ 0` by shifting variable lower bounds to zero,
//! splitting free variables, turning finite upper bounds into rows, and
//! adding slack/surplus/artificial columns. Phase 1 minimizes the sum of
//! artificials; phase 2 optimizes the user objective carried along in a
//! second cost row.
//!
//! Pivoting uses Dantzig's rule with an automatic switch to Bland's rule
//! (which guarantees termination) once the iteration count grows, plus an
//! overall iteration cap and optional deadline for use inside branch & bound.

use std::time::Instant;

use crate::problem::{Cmp, Problem, Sense};
use crate::solution::{Solution, SolveError};
use crate::EPS;

/// Hard limits for a simplex run.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    /// Maximum number of pivots across both phases.
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

/// Mapping from an original variable to standard-form columns.
#[derive(Debug, Clone, Copy)]
enum ColMap {
    /// `x = lower + col`
    Shifted { col: usize, lower: f64 },
    /// `x = upper - col`
    Mirrored { col: usize, upper: f64 },
    /// `x = pos - neg` (free variable)
    Split { pos: usize, neg: usize },
}

/// Solves the LP relaxation of `problem` under explicit limits.
///
/// # Errors
///
/// See [`solve`].
pub(crate) fn solve_with_limits(problem: &Problem, limits: Limits) -> Result<Solution, SolveError> {
    let n = problem.num_vars();

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

    // --- Map original variables to non-negative standard-form columns. ---
    let mut maps: Vec<ColMap> = Vec::with_capacity(n);
    let mut ncols = 0usize;
    // (col, upper-bound-in-col-space) rows to add.
    let mut ub_rows: Vec<(usize, f64)> = Vec::new();
    for def in problem.vars() {
        let (l, u) = (def.lower, def.upper);
        if l.is_finite() {
            let col = ncols;
            ncols += 1;
            maps.push(ColMap::Shifted { col, lower: l });
            if u.is_finite() {
                ub_rows.push((col, u - l));
            }
        } else if u.is_finite() {
            let col = ncols;
            ncols += 1;
            maps.push(ColMap::Mirrored { col, upper: u });
        } else {
            let pos = ncols;
            let neg = ncols + 1;
            ncols += 2;
            maps.push(ColMap::Split { pos, neg });
        }
    }
    let nstruct = ncols;

    // --- Build rows: (dense coeffs over struct cols, cmp, rhs). ---
    struct Row {
        coeffs: Vec<f64>,
        cmp: Cmp,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(problem.num_constraints() + ub_rows.len());
    for c in problem.constraints() {
        let mut coeffs = vec![0.0; nstruct];
        let mut rhs = c.rhs;
        for &(vi, a) in &c.coeffs {
            match maps[vi] {
                ColMap::Shifted { col, lower } => {
                    coeffs[col] += a;
                    rhs -= a * lower;
                }
                ColMap::Mirrored { col, upper } => {
                    coeffs[col] -= a;
                    rhs -= a * upper;
                }
                ColMap::Split { pos, neg } => {
                    coeffs[pos] += a;
                    coeffs[neg] -= a;
                }
            }
        }
        rows.push(Row {
            coeffs,
            cmp: c.cmp,
            rhs,
        });
    }
    for &(col, ub) in &ub_rows {
        let mut coeffs = vec![0.0; nstruct];
        coeffs[col] = 1.0;
        rows.push(Row {
            coeffs,
            cmp: Cmp::Le,
            rhs: ub,
        });
    }

    // Normalize rhs ≥ 0.
    for r in rows.iter_mut() {
        if r.rhs < 0.0 {
            for a in r.coeffs.iter_mut() {
                *a = -*a;
            }
            r.rhs = -r.rhs;
            r.cmp = match r.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
    }

    let m = rows.len();
    // Column layout: [struct | slack/surplus | artificial].
    let mut nslack = 0usize;
    for r in &rows {
        if r.cmp != Cmp::Eq {
            nslack += 1;
        }
    }
    let mut nart = 0usize;
    for r in &rows {
        if r.cmp != Cmp::Le {
            nart += 1;
        }
    }
    let total = nstruct + nslack + nart;
    let art_start = nstruct + nslack;

    // Tableau: m rows × (total + 1); last column is rhs.
    let width = total + 1;
    let mut tab = vec![0.0f64; m * width];
    let mut basis = vec![usize::MAX; m];
    {
        let mut next_slack = nstruct;
        let mut next_art = art_start;
        for (i, r) in rows.iter().enumerate() {
            let row = &mut tab[i * width..(i + 1) * width];
            row[..nstruct].copy_from_slice(&r.coeffs);
            row[total] = r.rhs;
            match r.cmp {
                Cmp::Le => {
                    row[next_slack] = 1.0;
                    basis[i] = next_slack;
                    next_slack += 1;
                }
                Cmp::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                    row[next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
                Cmp::Eq => {
                    row[next_art] = 1.0;
                    basis[i] = next_art;
                    next_art += 1;
                }
            }
        }
    }

    // Objective in minimization form over struct columns.
    let sense_factor = match problem.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut phase2 = vec![0.0f64; width]; // cost row: c_j, last entry tracks -obj
    let mut obj_shift = 0.0; // constant from bound shifting
    for (vi, &c) in problem.objective().iter().enumerate() {
        let c = sense_factor * c;
        if c == 0.0 {
            continue;
        }
        match maps[vi] {
            ColMap::Shifted { col, lower } => {
                phase2[col] += c;
                obj_shift += c * lower;
            }
            ColMap::Mirrored { col, upper } => {
                phase2[col] -= c;
                obj_shift += c * upper;
            }
            ColMap::Split { pos, neg } => {
                phase2[pos] += c;
                phase2[neg] -= c;
            }
        }
    }

    // Phase-1 cost row: sum of artificials, reduced by the initial basis.
    let mut phase1 = vec![0.0f64; width];
    phase1[art_start..total].fill(1.0);
    for (i, &b) in basis.iter().enumerate().take(m) {
        if b >= art_start {
            // Subtract the basic artificial's row to zero its reduced cost.
            let (head, tail) = tab.split_at(i * width);
            let _ = head;
            let row = &tail[..width];
            for j in 0..width {
                phase1[j] -= row[j];
            }
        }
    }

    let mut iterations = 0usize;
    // Normalized pivot row, copied out once per pivot. Reused across all
    // pivots of both phases; updating rows against this aliasing-free
    // slice (instead of indexing back into `tab`) lets the row updates
    // vectorize and saves a per-iteration allocation.
    let mut scratch = vec![0.0f64; width];

    // Runs the simplex loop on cost row `cost`, restricting entering columns
    // to `..col_limit`. Returns Ok(true) on optimality, Err on unbounded.
    let pivot_loop = |tab: &mut Vec<f64>,
                      basis: &mut Vec<usize>,
                      cost: &mut Vec<f64>,
                      other_cost: &mut Option<&mut Vec<f64>>,
                      scratch: &mut [f64],
                      col_limit: usize,
                      iterations: &mut usize|
     -> Result<(), SolveError> {
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
            // Entering column.
            let mut enter = usize::MAX;
            let mut best = -EPS;
            for (j, &c) in cost.iter().enumerate().take(col_limit) {
                if c < -EPS {
                    if bland {
                        enter = j;
                        break;
                    }
                    if c < best {
                        best = c;
                        enter = j;
                    }
                }
            }
            if enter == usize::MAX {
                return Ok(()); // optimal for this phase
            }
            // Ratio test.
            let mut leave = usize::MAX;
            let mut best_ratio = f64::INFINITY;
            for i in 0..m {
                let a = tab[i * width + enter];
                if a > EPS {
                    let ratio = tab[i * width + total] / a;
                    if ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave != usize::MAX
                            && basis[i] < basis[leave])
                    {
                        best_ratio = ratio;
                        leave = i;
                    }
                }
            }
            if leave == usize::MAX {
                return Err(SolveError::Unbounded);
            }
            // Pivot on (leave, enter).
            let piv = tab[leave * width + enter];
            let lrow_start = leave * width;
            {
                let lrow = &mut tab[lrow_start..lrow_start + width];
                for v in lrow.iter_mut() {
                    *v /= piv;
                }
                scratch.copy_from_slice(lrow);
            }
            for i in 0..m {
                if i == leave {
                    continue;
                }
                let row = &mut tab[i * width..(i + 1) * width];
                let f = row[enter];
                if f != 0.0 {
                    for (x, &s) in row.iter_mut().zip(scratch.iter()) {
                        *x -= f * s;
                    }
                }
            }
            let f = cost[enter];
            if f != 0.0 {
                for (x, &s) in cost.iter_mut().zip(scratch.iter()) {
                    *x -= f * s;
                }
            }
            if let Some(oc) = other_cost.as_deref_mut() {
                let f = oc[enter];
                if f != 0.0 {
                    for (x, &s) in oc.iter_mut().zip(scratch.iter()) {
                        *x -= f * s;
                    }
                }
            }
            basis[leave] = enter;
            *iterations += 1;
        }
    };

    // --- Phase 1 ---
    if nart > 0 {
        let mut p2 = Some(&mut phase2);
        // Artificial columns never re-enter the basis: restrict entering
        // columns to the structural + slack range.
        pivot_loop(
            &mut tab,
            &mut basis,
            &mut phase1,
            &mut p2,
            &mut scratch,
            art_start,
            &mut iterations,
        )
        .map_err(|e| match e {
            // Phase-1 objective is bounded below by 0; "unbounded" here means
            // numerical trouble, surface as limit.
            SolveError::Unbounded => SolveError::LimitReached,
            other => other,
        })?;
        // -phase1[width-1] is the phase-1 objective value.
        let p1_obj = -phase1[total];
        if p1_obj > 1e-6 {
            return Err(SolveError::Infeasible);
        }
        // Drive remaining artificials out of the basis when possible.
        for i in 0..m {
            if basis[i] >= art_start {
                let mut pivot_col = usize::MAX;
                for j in 0..art_start {
                    if tab[i * width + j].abs() > 1e-9 {
                        pivot_col = j;
                        break;
                    }
                }
                if let Some(j) = (pivot_col != usize::MAX).then_some(pivot_col) {
                    let piv = tab[i * width + j];
                    {
                        let row = &mut tab[i * width..(i + 1) * width];
                        for v in row.iter_mut() {
                            *v /= piv;
                        }
                        scratch.copy_from_slice(row);
                    }
                    for i2 in 0..m {
                        if i2 != i {
                            let row = &mut tab[i2 * width..(i2 + 1) * width];
                            let f = row[j];
                            if f != 0.0 {
                                for (x, &s) in row.iter_mut().zip(scratch.iter()) {
                                    *x -= f * s;
                                }
                            }
                        }
                    }
                    let f = phase2[j];
                    if f != 0.0 {
                        for (x, &s) in phase2.iter_mut().zip(scratch.iter()) {
                            *x -= f * s;
                        }
                    }
                    basis[i] = j;
                }
                // else: redundant row; artificial stays basic at value 0.
            }
        }
    }

    // --- Phase 2 (entering columns restricted to non-artificials). ---
    // `phase2` already has reduced costs w.r.t. the current basis for all
    // columns that entered during phase 1; re-reduce basic columns that were
    // basic from the start (slacks) — their cost is 0, so nothing to do.
    // However, struct columns basic in the initial basis are impossible, and
    // phase2 was updated on every pivot, so it is consistent.
    for i in 0..m {
        let b = basis[i];
        if b < art_start && phase2[b].abs() > EPS {
            let f = phase2[b];
            for k in 0..width {
                phase2[k] -= f * tab[i * width + k];
            }
        }
    }
    let mut none_cost: Option<&mut Vec<f64>> = None;
    pivot_loop(
        &mut tab,
        &mut basis,
        &mut phase2,
        &mut none_cost,
        &mut scratch,
        art_start,
        &mut iterations,
    )?;

    // --- Extract solution. ---
    let mut col_values = vec![0.0f64; total];
    for i in 0..m {
        if basis[i] < total {
            col_values[basis[i]] = tab[i * width + total];
        }
    }
    let mut values = vec![0.0f64; n];
    for (vi, map) in maps.iter().enumerate() {
        values[vi] = match *map {
            ColMap::Shifted { col, lower } => lower + col_values[col],
            ColMap::Mirrored { col, upper } => upper - col_values[col],
            ColMap::Split { pos, neg } => col_values[pos] - col_values[neg],
        };
    }
    let _ = obj_shift;
    let objective = problem.objective_value(&values);
    Ok(Solution { values, objective })
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
}
