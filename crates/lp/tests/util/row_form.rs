//! The row-form two-phase simplex `farm_lp::simplex` used to be, kept as
//! the oracle of `prop_solver.rs`'s differential properties.
//!
//! It converts a [`Model`] to standard form `min c·x  s.t.  Ax = b, x ≥ 0`
//! by shifting variable lower bounds to zero, splitting free variables,
//! turning finite upper bounds into rows, and adding slack/surplus/
//! artificial columns. Phase 1 minimizes the sum of artificials; phase 2
//! optimizes the user objective carried along in a second cost row.
//! Pivoting uses Dantzig's rule with a switch to Bland's rule once the
//! iteration count grows. The body is the product solver's as it was,
//! reading a plain [`Model`] instead of a `Problem`'s crate-private fields.

use farm_lp::{Cmp, Sense};

const EPS: f64 = 1e-7;
const MAX_ITERATIONS: usize = 200_000;

/// One constraint: `(variable, coefficient)` terms, comparison, rhs.
pub type Row = (Vec<(usize, f64)>, Cmp, f64);

/// A linear program as plain data: bounds per variable, rows, one
/// objective coefficient per variable.
#[derive(Debug, Clone)]
pub struct Model {
    pub sense: Sense,
    pub vars: Vec<(f64, f64)>,
    pub rows: Vec<Row>,
    pub objective: Vec<f64>,
}

/// Why the row form returned no point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    Infeasible,
    Unbounded,
    LimitReached,
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

/// Solves `model` in row form; returns the value of every variable.
pub fn solve(model: &Model) -> Result<Vec<f64>, Failure> {
    let n = model.vars.len();

    // --- Map original variables to non-negative standard-form columns. ---
    let mut maps: Vec<ColMap> = Vec::with_capacity(n);
    let mut ncols = 0usize;
    // (col, upper-bound-in-col-space) rows to add.
    let mut ub_rows: Vec<(usize, f64)> = Vec::new();
    for &(l, u) in &model.vars {
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
    struct DenseRow {
        coeffs: Vec<f64>,
        cmp: Cmp,
        rhs: f64,
    }
    let mut rows: Vec<DenseRow> = Vec::with_capacity(model.rows.len() + ub_rows.len());
    for (terms, cmp, rhs) in &model.rows {
        let mut coeffs = vec![0.0; nstruct];
        let mut rhs = *rhs;
        for &(vi, a) in terms {
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
        rows.push(DenseRow {
            coeffs,
            cmp: *cmp,
            rhs,
        });
    }
    for &(col, ub) in &ub_rows {
        let mut coeffs = vec![0.0; nstruct];
        coeffs[col] = 1.0;
        rows.push(DenseRow {
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
    let nslack = rows.iter().filter(|r| r.cmp != Cmp::Eq).count();
    let nart = rows.iter().filter(|r| r.cmp != Cmp::Le).count();
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
    let sense_factor = match model.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut phase2 = vec![0.0f64; width]; // cost row: c_j, last entry tracks -obj
    for (vi, &c) in model.objective.iter().enumerate() {
        let c = sense_factor * c;
        if c == 0.0 {
            continue;
        }
        match maps[vi] {
            ColMap::Shifted { col, .. } => phase2[col] += c,
            ColMap::Mirrored { col, .. } => phase2[col] -= c,
            ColMap::Split { pos, neg } => {
                phase2[pos] += c;
                phase2[neg] -= c;
            }
        }
    }

    // Phase-1 cost row: sum of artificials, reduced by the initial basis.
    let mut phase1 = vec![0.0f64; width];
    phase1[art_start..total].fill(1.0);
    for (i, &b) in basis.iter().enumerate() {
        if b >= art_start {
            let row = &tab[i * width..(i + 1) * width];
            for j in 0..width {
                phase1[j] -= row[j];
            }
        }
    }

    let mut iterations = 0usize;
    let mut scratch = vec![0.0f64; width];

    // Runs the simplex loop on cost row `cost`, restricting entering columns
    // to `..col_limit`. Returns Ok on optimality, Err on unbounded.
    let pivot_loop = |tab: &mut Vec<f64>,
                      basis: &mut Vec<usize>,
                      cost: &mut Vec<f64>,
                      other_cost: &mut Option<&mut Vec<f64>>,
                      scratch: &mut [f64],
                      col_limit: usize,
                      iterations: &mut usize|
     -> Result<(), Failure> {
        loop {
            if *iterations >= MAX_ITERATIONS {
                return Err(Failure::LimitReached);
            }
            let bland = *iterations > MAX_ITERATIONS / 2;
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
                return Err(Failure::Unbounded);
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
        // Artificial columns never re-enter the basis.
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
            Failure::Unbounded => Failure::LimitReached,
            other => other,
        })?;
        // -phase1[total] is the phase-1 objective value.
        let p1_obj = -phase1[total];
        if p1_obj > 1e-6 {
            return Err(Failure::Infeasible);
        }
        // Drive remaining artificials out of the basis when possible.
        for i in 0..m {
            if basis[i] >= art_start {
                if let Some(j) = (0..art_start).find(|&j| tab[i * width + j].abs() > 1e-9) {
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
    Ok(maps
        .iter()
        .map(|map| match *map {
            ColMap::Shifted { col, lower } => lower + col_values[col],
            ColMap::Mirrored { col, upper } => upper - col_values[col],
            ColMap::Split { pos, neg } => col_values[pos] - col_values[neg],
        })
        .collect())
}
