//! Property-based validation of the simplex and branch & bound solvers.
//!
//! Two families of instances:
//!
//! * `random_lp`: feasible by construction (non-negative constraint
//!   coefficients with the origin feasible), for solver invariants —
//!   returned points are feasible, LP objectives dominate any sampled
//!   feasible point (optimality witness), MILP objectives match
//!   brute-force enumeration on all-binary problems;
//! * `general_lp`: anything a caller may write — negative, infinite,
//!   equal lower/upper bounds, upper-only and free variables, `≤`/`≥`/`=`
//!   rows with mixed-sign coefficients, single-variable rows (also ones
//!   that cross a bound), empty rows, infeasible and unbounded instances —
//!   held to the row-form simplex the bounded one replaced
//!   (`util/row_form.rs`): same outcome, same objective, a feasible point,
//!   and the same bits on a second solve.

#[path = "util/row_form.rs"]
mod row_form;

use farm_lp::{solve_milp, Cmp, LinExpr, MilpOptions, MilpStatus, Problem, Sense};
use proptest::collection::vec;
use proptest::prelude::*;
use row_form::{Failure, Model, Row};

/// A randomly generated bounded-feasible LP instance.
#[derive(Debug, Clone)]
struct RandomLp {
    nvars: usize,
    upper: Vec<f64>,
    obj: Vec<f64>,
    // rows of (coeffs >= 0, rhs >= 0)
    rows: Vec<(Vec<f64>, f64)>,
}

fn random_lp() -> impl Strategy<Value = RandomLp> {
    (2usize..5)
        .prop_flat_map(|nvars| {
            let upper = proptest::collection::vec(1.0f64..20.0, nvars);
            let obj = proptest::collection::vec(-5.0f64..10.0, nvars);
            let rows = proptest::collection::vec(
                (proptest::collection::vec(0.0f64..4.0, nvars), 1.0f64..30.0),
                1..5,
            );
            (Just(nvars), upper, obj, rows)
        })
        .prop_map(|(nvars, upper, obj, rows)| RandomLp {
            nvars,
            upper,
            obj,
            rows,
        })
}

fn build(lp: &RandomLp, integer: bool) -> (Problem, Vec<farm_lp::Var>) {
    let mut p = Problem::new(Sense::Maximize);
    let vars: Vec<_> = (0..lp.nvars)
        .map(|i| {
            if integer {
                p.add_integer(format!("x{i}"), 0.0, lp.upper[i].floor().max(1.0))
            } else {
                p.add_var(format!("x{i}"), 0.0, lp.upper[i])
            }
        })
        .collect();
    for (coeffs, rhs) in &lp.rows {
        let mut e = LinExpr::new();
        for (v, c) in vars.iter().zip(coeffs) {
            e.add_term(*v, *c);
        }
        p.add_constraint(e, Cmp::Le, *rhs);
    }
    let mut o = LinExpr::new();
    for (v, c) in vars.iter().zip(&lp.obj) {
        o.add_term(*v, *c);
    }
    p.set_objective(o);
    (p, vars)
}

/// Bounds on a small integer grid: finite and distinct, fixed, lower-only,
/// upper-only, free, or the classic `[0, u]`.
fn bound() -> impl Strategy<Value = (f64, f64)> {
    (0u8..6, -6i32..=5, 1i32..=6).prop_map(|(kind, a, w)| {
        let (a, b) = (f64::from(a), f64::from(a + w));
        match kind {
            0 => (a, b),
            1 => (a, a),
            2 => (a, f64::INFINITY),
            3 => (f64::NEG_INFINITY, b),
            4 => (f64::NEG_INFINITY, f64::INFINITY),
            _ => (0.0, b.abs()),
        }
    })
}

/// A row over `nvars` variables: a sparse mixed-sign one (possibly empty)
/// or, one time in three, a single-variable one; any comparison.
fn row(nvars: usize) -> impl Strategy<Value = Row> {
    (
        0u8..3,
        vec(-4i32..=4, nvars),
        0..nvars,
        -3i32..=3,
        0usize..5,
        -8i32..=8,
    )
        .prop_map(|(singleton, dense, j, a, cmp, rhs)| {
            let terms: Vec<(usize, f64)> = if singleton == 0 && a != 0 {
                vec![(j, f64::from(a))]
            } else {
                // |a| = 4 reads as 0, so a third of the entries are absent.
                (dense.iter().enumerate())
                    .filter(|(_, &a)| a.abs() != 4)
                    .filter(|(_, &a)| a != 0)
                    .map(|(i, &a)| (i, f64::from(a)))
                    .collect()
            };
            let cmp = [Cmp::Le, Cmp::Le, Cmp::Ge, Cmp::Ge, Cmp::Eq][cmp];
            (terms, cmp, f64::from(rhs) * 0.5)
        })
}

fn general_lp() -> impl Strategy<Value = Model> {
    (1usize..=5)
        .prop_flat_map(|nvars| {
            (
                vec(bound(), nvars),
                vec(row(nvars), 0..=5),
                vec(-3i32..=3, nvars),
                any::<bool>(),
            )
        })
        .prop_map(|(vars, rows, obj, maximize)| Model {
            sense: if maximize {
                Sense::Maximize
            } else {
                Sense::Minimize
            },
            vars,
            rows,
            objective: obj.into_iter().map(f64::from).collect(),
        })
}

fn problem_of(model: &Model) -> Problem {
    let mut p = Problem::new(model.sense);
    let vars: Vec<_> = (model.vars.iter())
        .map(|&(l, u)| p.add_var_unnamed(l, u))
        .collect();
    for (terms, cmp, rhs) in &model.rows {
        let mut e = LinExpr::new();
        for &(j, a) in terms {
            e.add_term(vars[j], a);
        }
        p.add_constraint(e, *cmp, *rhs);
    }
    let mut o = LinExpr::new();
    for (v, &c) in vars.iter().zip(&model.objective) {
        o.add_term(*v, c);
    }
    p.set_objective(o);
    p
}

proptest! {

    /// The simplex always returns a feasible point on feasible instances.
    #[test]
    fn lp_solution_is_feasible(lp in random_lp()) {
        let (p, _) = build(&lp, false);
        let sol = farm_lp::simplex::solve(&p).expect("origin is feasible");
        prop_assert!(p.is_feasible(&sol.values),
            "solver returned infeasible point {:?}", sol.values);
        prop_assert!((p.objective_value(&sol.values) - sol.objective).abs() < 1e-6);
    }

    /// The LP objective dominates sampled feasible points (approximate
    /// optimality witness: grid + vertex-ish samples can never beat it).
    #[test]
    fn lp_objective_dominates_samples(lp in random_lp(), seeds in proptest::collection::vec(0u64..1000, 32)) {
        let (p, _) = build(&lp, false);
        let sol = farm_lp::simplex::solve(&p).expect("feasible");
        for s in seeds {
            // Deterministic pseudo-random candidate scaled back into the
            // feasible region along the ray from the origin.
            let mut cand: Vec<f64> = (0..lp.nvars)
                .map(|i| {
                    let h = s.wrapping_mul(6364136223846793005).wrapping_add(i as u64 * 1442695040888963407);
                    (h >> 11) as f64 / (1u64 << 53) as f64 * lp.upper[i]
                })
                .collect();
            // Shrink until feasible (origin is feasible so this terminates).
            let mut scale = 1.0;
            for _ in 0..60 {
                let scaled: Vec<f64> = cand.iter().map(|v| v * scale).collect();
                if p.is_feasible(&scaled) {
                    cand = scaled;
                    break;
                }
                scale *= 0.7;
            }
            if p.is_feasible(&cand) {
                prop_assert!(p.objective_value(&cand) <= sol.objective + 1e-5,
                    "sampled point beats 'optimal' objective: {} > {}",
                    p.objective_value(&cand), sol.objective);
            }
        }
    }

    /// Branch & bound equals brute-force enumeration on small binary models.
    #[test]
    fn milp_matches_bruteforce_on_binaries(
        obj in proptest::collection::vec(-6.0f64..10.0, 3..7),
        w in proptest::collection::vec(0.5f64..5.0, 3..7),
        cap in 2.0f64..12.0,
    ) {
        let n = obj.len().min(w.len());
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..n).map(|i| p.add_binary(format!("b{i}"))).collect();
        let mut we = LinExpr::new();
        let mut oe = LinExpr::new();
        for i in 0..n {
            we.add_term(vars[i], w[i]);
            oe.add_term(vars[i], obj[i]);
        }
        p.add_constraint(we, Cmp::Le, cap);
        p.set_objective(oe);

        let r = solve_milp(&p, &MilpOptions::default());
        prop_assert_eq!(r.status, MilpStatus::Optimal);
        let got = r.objective.unwrap();

        let mut best = f64::NEG_INFINITY;
        for mask in 0u32..(1 << n) {
            let weight: f64 = (0..n).filter(|i| mask >> i & 1 == 1).map(|i| w[i]).sum();
            if weight <= cap + 1e-9 {
                let val: f64 = (0..n).filter(|i| mask >> i & 1 == 1).map(|i| obj[i]).sum();
                best = best.max(val);
            }
        }
        prop_assert!((got - best).abs() < 1e-6,
            "milp {} != bruteforce {}", got, best);
    }

    /// MILP incumbents are always feasible, whatever the status.
    #[test]
    fn milp_incumbent_feasible(lp in random_lp()) {
        let (p, _) = build(&lp, true);
        let r = solve_milp(&p, &MilpOptions::default());
        if let Some(values) = &r.values {
            prop_assert!(p.is_feasible(values));
        }
        // Origin is integral-feasible, so a solution must exist.
        prop_assert!(matches!(r.status, MilpStatus::Optimal | MilpStatus::Feasible));
    }

    /// The bounded-variable simplex agrees with the row form it replaced:
    /// same outcome class, objectives within `1e-7·(1 + |obj|)`, a
    /// feasible point, and the same bits when asked twice.
    #[test]
    fn bounded_form_agrees_with_row_form(model in general_lp()) {
        let p = problem_of(&model);
        let got = farm_lp::simplex::solve(&p);
        let want = row_form::solve(&model);
        match (&got, &want) {
            (Ok(sol), Ok(values)) => {
                let oracle = p.objective_value(values);
                prop_assert!((sol.objective - oracle).abs() <= 1e-7 * (1.0 + oracle.abs()),
                    "objective {} against the row form's {} on {:?}", sol.objective, oracle, model);
                prop_assert!(p.is_feasible(&sol.values),
                    "infeasible point {:?} on {:?}", sol.values, model);
                prop_assert!((p.objective_value(&sol.values) - sol.objective).abs() < 1e-9);
            }
            (Err(e), Err(f)) => {
                let class = match f {
                    Failure::Infeasible => "Infeasible",
                    Failure::Unbounded => "Unbounded",
                    Failure::LimitReached => "LimitReached",
                };
                prop_assert_eq!(format!("{e:?}"), class, "on {:?}", model);
            }
            _ => prop_assert!(false, "bounded form {:?}, row form {:?} on {:?}", got, want, model),
        }
        let again = farm_lp::simplex::solve(&p);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (&got, &again) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits());
                prop_assert_eq!(bits(&a.values), bits(&b.values));
            }
            _ => prop_assert_eq!(&got, &again),
        }
    }
}
