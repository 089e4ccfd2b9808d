//! Static analysis of `util` callbacks → resource constraints `C^s(r̄)`
//! and utility functions `u^s(r̄)` (§ III-B b of the paper).
//!
//! Each root-to-`return` path of the (already restriction-checked) body
//! becomes a [`UtilBranch`]: the conjunction of conditions along the path,
//! converted by the constraint interpretation `κ^s⟦·⟧` into polynomials
//! that must be non-negative, plus the returned expression converted by
//! `ε^s⟦·⟧` into a [`UtilExpr`]. `or` operators and multiple `if`s produce
//! several branches — the paper's "splitting the seed into several copies,
//! at most one is to be placed".

use farm_netsim::switch::{ResourceKind, Resources};

use super::consteval::{const_eval, ConstEnv};
use super::poly::{Poly, Ratio, UtilExpr};
use crate::ast::*;
use crate::error::{AlmanacError, Result};

/// Result of analyzing one state's `util` callback.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilAnalysis {
    pub branches: Vec<UtilBranch>,
}

/// One feasibility region and its utility.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilBranch {
    /// Polynomials that must all be `≥ 0` for this branch to apply.
    pub constraints: Vec<Poly>,
    /// Utility returned when the constraints hold.
    pub utility: UtilExpr,
}

impl UtilAnalysis {
    /// A trivial analysis for states without `util`: always placeable with
    /// the given constant utility and no resource demands.
    pub(crate) fn constant(utility: f64) -> UtilAnalysis {
        UtilAnalysis {
            branches: vec![UtilBranch {
                constraints: Vec::new(),
                utility: UtilExpr::Poly(Poly::constant(utility)),
            }],
        }
    }

    /// Utility at a resource vector: the first branch whose constraints
    /// hold decides (branches are ordered by source position, mirroring
    /// execution order). `None` when the point is outside every domain.
    pub fn eval(&self, r: &Resources) -> Option<f64> {
        self.branches
            .iter()
            .find(|b| b.constraints.iter().all(|c| c.eval(r) >= -1e-9))
            .map(|b| b.utility.eval(r))
    }

    /// A minimal resource vector satisfying some branch, together with the
    /// utility there — the "minimum utility" that drives the heuristic's
    /// task ordering (Alg. 1 step 1). Resolves single-variable constraints
    /// exactly and relaxes multi-variable ones by a few lifting passes.
    pub fn min_feasible(&self) -> Option<(Resources, f64)> {
        let mut best: Option<(Resources, f64)> = None;
        for b in &self.branches {
            if let Some(r) = branch_min_point(b) {
                let u = b.utility.eval(&r);
                if best.as_ref().is_none_or(|(_, bu)| u < *bu) {
                    best = Some((r, u));
                }
            }
        }
        best
    }
}

fn branch_min_point(b: &UtilBranch) -> Option<Resources> {
    let mut r = Resources::ZERO;
    // Lift resources until all constraints hold (or give up).
    for _ in 0..8 {
        let mut all_ok = true;
        for c in &b.constraints {
            if c.eval(&r) < -1e-9 {
                all_ok = false;
                // Raise the first positive-coefficient resource enough to
                // satisfy this constraint at the current point.
                let deficit = -c.eval(&r);
                match (0..4).find(|i| c.coeffs[*i] > 0.0) {
                    Some(i) => r.0[i] += deficit / c.coeffs[i],
                    None => return None, // no way to satisfy by adding
                }
            }
        }
        if all_ok {
            return Some(r);
        }
    }
    // Final check after lifting passes.
    b.constraints
        .iter()
        .all(|c| c.eval(&r) >= -1e-9)
        .then_some(r)
}

/// Analyzes a `util` declaration against the machine's constant
/// environment.
///
/// # Errors
///
/// Analysis-phase errors for non-linear expressions, `min`/`max` inside
/// conditions, or fall-through `if` branches that do not return.
pub(crate) fn analyze_util(decl: &UtilDecl, consts: &ConstEnv) -> Result<UtilAnalysis> {
    let cx = Cx {
        param: &decl.param,
        consts,
    };
    let mut branches = Vec::new();
    walk(&decl.body, &cx, Vec::new(), &mut branches)?;
    Ok(UtilAnalysis { branches })
}

pub(crate) struct Cx<'a> {
    pub(crate) param: &'a str,
    pub(crate) consts: &'a ConstEnv,
}

fn walk(actions: &[Action], cx: &Cx<'_>, path: Vec<Poly>, out: &mut Vec<UtilBranch>) -> Result<()> {
    for (idx, a) in actions.iter().enumerate() {
        match a {
            Action::Return { value, span } => {
                let e = value
                    .as_ref()
                    .ok_or_else(|| AlmanacError::analysis(*span, "util must return a value"))?;
                let utility = util_expr(e, cx)?;
                out.push(UtilBranch {
                    constraints: path,
                    utility,
                });
                return Ok(());
            }
            Action::If {
                cond,
                then_branch,
                else_branch,
                span,
            } => {
                let dnf = cond_to_dnf(cond, cx)?;
                for conj in &dnf {
                    let mut p = path.clone();
                    p.extend(conj.iter().copied());
                    walk(then_branch, cx, p, out)?;
                }
                let has_tail = !else_branch.is_empty() || idx + 1 < actions.len();
                if has_tail {
                    // Statements after the `if` (or in `else`) execute when
                    // the condition is false; require the then-branch to
                    // return so paths stay disjoint.
                    if !ends_with_return(then_branch) {
                        return Err(AlmanacError::analysis(
                            *span,
                            "util if-branches followed by more code must end with return",
                        ));
                    }
                    let neg = negate_dnf(&dnf, *span)?;
                    for conj in &neg {
                        let mut p = path.clone();
                        p.extend(conj.iter().copied());
                        let mut rest: Vec<Action> = else_branch.clone();
                        rest.extend_from_slice(&actions[idx + 1..]);
                        walk(&rest, cx, p, out)?;
                    }
                    return Ok(());
                }
            }
            other => {
                return Err(AlmanacError::analysis(
                    other.span(),
                    "util bodies may only contain if-then-else and return",
                ))
            }
        }
    }
    // Falling off the end yields no utility for this path (domain hole).
    Ok(())
}

fn ends_with_return(actions: &[Action]) -> bool {
    match actions.last() {
        Some(Action::Return { .. }) => true,
        Some(Action::If {
            then_branch,
            else_branch,
            ..
        }) => {
            !else_branch.is_empty()
                && ends_with_return(then_branch)
                && ends_with_return(else_branch)
        }
        _ => false,
    }
}

/// Converts a condition into disjunctive normal form over `poly ≥ 0`
/// atoms — the constraint interpretation `κ^s⟦·⟧`.
fn cond_to_dnf(e: &Expr, cx: &Cx<'_>) -> Result<Vec<Vec<Poly>>> {
    match e {
        Expr::Lit(Literal::Bool(true), _) => Ok(vec![vec![]]),
        Expr::Lit(Literal::Bool(false), _) => Ok(vec![]),
        Expr::Binary(BinOp::And, a, b, _) => {
            let da = cond_to_dnf(a, cx)?;
            let db = cond_to_dnf(b, cx)?;
            let mut out = Vec::new();
            for ca in &da {
                for cb in &db {
                    let mut c = ca.clone();
                    c.extend(cb.iter().copied());
                    out.push(c);
                }
            }
            Ok(out)
        }
        Expr::Binary(BinOp::Or, a, b, _) => {
            let mut out = cond_to_dnf(a, cx)?;
            out.extend(cond_to_dnf(b, cx)?);
            Ok(out)
        }
        Expr::Binary(BinOp::Cmp(op), a, b, span) => {
            let pa = linear_expr(a, cx)?;
            let pb = linear_expr(b, cx)?;
            let diff_ab = pa.sub(&pb); // a - b
            let atoms = match op {
                CmpOp::Ge | CmpOp::Gt => vec![diff_ab],
                CmpOp::Le | CmpOp::Lt => vec![diff_ab.neg()],
                CmpOp::Eq => vec![diff_ab, diff_ab.neg()],
                CmpOp::Ne => {
                    return Err(AlmanacError::analysis(
                        *span,
                        "`<>` is not allowed in util conditions",
                    ))
                }
            };
            Ok(vec![atoms])
        }
        other => Err(AlmanacError::analysis(
            other.span(),
            "util conditions must be comparisons combined with and/or",
        )),
    }
}

/// Negates a DNF (yielding another DNF). Boundary points are shared
/// between a branch and its negation, matching the paper's non-strict
/// constraint semantics.
fn negate_dnf(dnf: &[Vec<Poly>], span: crate::error::Span) -> Result<Vec<Vec<Poly>>> {
    // not (C1 or C2 …) = not C1 and not C2 …
    // not (a and b)    = not a or not b
    let mut acc: Vec<Vec<Poly>> = vec![vec![]];
    for conj in dnf {
        let negs: Vec<Poly> = conj.iter().map(Poly::neg).collect();
        let mut next = Vec::new();
        for base in &acc {
            for n in &negs {
                let mut c = base.clone();
                c.push(*n);
                next.push(c);
            }
        }
        if next.len() > 64 {
            return Err(AlmanacError::analysis(
                span,
                "util condition too complex to negate for else-branch analysis",
            ));
        }
        acc = next;
    }
    Ok(acc)
}

/// The expression interpretation `ε^s⟦·⟧` extended with min/max trees.
fn util_expr(e: &Expr, cx: &Cx<'_>) -> Result<UtilExpr> {
    match e {
        Expr::Call { name, args, span } if name == "min" || name == "max" => {
            if args.len() != 2 {
                return Err(AlmanacError::analysis(
                    *span,
                    format!("{name} takes two arguments"),
                ));
            }
            let a = Box::new(util_expr(&args[0], cx)?);
            let b = Box::new(util_expr(&args[1], cx)?);
            Ok(if name == "min" {
                UtilExpr::Min(a, b)
            } else {
                UtilExpr::Max(a, b)
            })
        }
        _ => Ok(UtilExpr::Poly(linear_expr(e, cx)?)),
    }
}

/// Evaluates an expression to a linear polynomial over resources.
fn linear_expr(e: &Expr, cx: &Cx<'_>) -> Result<Poly> {
    let r = resource_ratio(e, cx)?;
    r.as_poly()
        .ok_or_else(|| AlmanacError::analysis(e.span(), "expression must be linear in resources"))
}

/// Evaluates an expression to a [`Ratio`] over resources. Shared with the
/// poll-interval analysis.
pub(crate) fn resource_ratio(e: &Expr, cx: &Cx<'_>) -> Result<Ratio> {
    match e {
        Expr::Lit(Literal::Int(i), _) => Ok(Ratio::constant(*i as f64)),
        Expr::Lit(Literal::Float(f), _) => Ok(Ratio::constant(*f)),
        Expr::Var(name, span) => {
            let v = const_eval(e, cx.consts).map_err(|_| {
                AlmanacError::analysis(
                    *span,
                    format!("`{name}` is neither a resource field nor a constant"),
                )
            })?;
            let x = v
                .as_f64()
                .ok_or_else(|| AlmanacError::analysis(*span, format!("`{name}` is not numeric")))?;
            Ok(Ratio::constant(x))
        }
        Expr::Field(base, field, span) => {
            let is_res = match base.as_ref() {
                Expr::Var(n, _) => n == cx.param,
                Expr::Call { name, args, .. } => name == "res" && args.is_empty(),
                _ => false,
            };
            if !is_res {
                return Err(AlmanacError::analysis(
                    *span,
                    "only res().<field> or the util parameter's fields are allowed",
                ));
            }
            let kind = ResourceKind::from_field_name(field).ok_or_else(|| {
                AlmanacError::analysis(*span, format!("unknown resource field `.{field}`"))
            })?;
            Ok(Ratio::from_poly(Poly::var(kind)))
        }
        Expr::Unary(UnOp::Neg, inner, _) => Ok(resource_ratio(inner, cx)?.scale(-1.0)),
        Expr::Binary(op, a, b, span) => {
            let ra = resource_ratio(a, cx)?;
            let rb = resource_ratio(b, cx)?;
            let res = match op {
                BinOp::Add => ra.add(&rb),
                BinOp::Sub => ra.sub(&rb),
                BinOp::Mul => ra.mul(&rb),
                BinOp::Div => ra.div(&rb),
                _ => {
                    return Err(AlmanacError::analysis(
                        *span,
                        "only + - * / are allowed in resource expressions",
                    ))
                }
            };
            res.map_err(|err| AlmanacError::analysis(*span, err.to_string()))
        }
        other => Err(AlmanacError::analysis(
            other.span(),
            "expression cannot be interpreted over resources",
        )),
    }
}

/// Entry point for the poll analysis to reuse the resource-expression
/// evaluator without a `util` parameter in scope.
pub(crate) fn resource_ratio_no_param(e: &Expr, consts: &ConstEnv) -> Result<Ratio> {
    let cx = Cx {
        param: "\u{0}no-param\u{0}",
        consts,
    };
    resource_ratio(e, &cx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn analyze(util_src: &str) -> Result<UtilAnalysis> {
        let src = format!("machine M {{ state s {{ util (res) {util_src} }} }}");
        let p = parse(&src).unwrap();
        let u = p.machines[0].states[0].util.clone().unwrap();
        analyze_util(&u, &ConstEnv::new())
    }

    #[test]
    fn analyzes_the_papers_observe_util() {
        // κ⟦res.vCPU >= 1 and res.RAM >= 100⟧ = {r1-1, r2-100};
        // ε⟦min(res.vCPU, res.PCIe)⟧ = min(r1, r4).
        let a = analyze(
            "{ if (res.vCPU >= 1 and res.RAM >= 100) then { return min(res.vCPU, res.PCIe); } }",
        )
        .unwrap();
        assert_eq!(a.branches.len(), 1);
        let b = &a.branches[0];
        assert_eq!(b.constraints.len(), 2);
        assert_eq!(b.constraints[0].coeffs[0], 1.0);
        assert_eq!(b.constraints[0].constant, -1.0);
        assert_eq!(b.constraints[1].coeffs[1], 1.0);
        assert_eq!(b.constraints[1].constant, -100.0);
        let r = Resources::new(2.0, 200.0, 0.0, 1.5);
        assert_eq!(a.eval(&r), Some(1.5));
        // Outside the domain → no utility.
        assert_eq!(a.eval(&Resources::new(0.5, 200.0, 0.0, 1.0)), None);
    }

    #[test]
    fn constant_util() {
        let a = analyze("{ return 100; }").unwrap();
        assert_eq!(a.branches.len(), 1);
        assert!(a.branches[0].constraints.is_empty());
        assert_eq!(a.eval(&Resources::ZERO), Some(100.0));
    }

    #[test]
    fn or_splits_into_branches() {
        let a = analyze("{ if (res.vCPU >= 2 or res.RAM >= 500) then { return 10; } }").unwrap();
        assert_eq!(a.branches.len(), 2, "or must split the seed into copies");
    }

    #[test]
    fn else_negates_condition() {
        let a = analyze("{ if (res.vCPU >= 2) then { return 10; } else { return 1; } }").unwrap();
        assert_eq!(a.branches.len(), 2);
        assert_eq!(a.eval(&Resources::new(3.0, 0.0, 0.0, 0.0)), Some(10.0));
        assert_eq!(a.eval(&Resources::new(1.0, 0.0, 0.0, 0.0)), Some(1.0));
    }

    #[test]
    fn sequential_ifs_partition_the_domain() {
        let a = analyze(
            "{ if (res.vCPU >= 4) then { return 20; }
               if (res.vCPU >= 1) then { return 5; } }",
        )
        .unwrap();
        assert_eq!(a.branches.len(), 2);
        assert_eq!(a.eval(&Resources::new(5.0, 0.0, 0.0, 0.0)), Some(20.0));
        assert_eq!(a.eval(&Resources::new(2.0, 0.0, 0.0, 0.0)), Some(5.0));
        assert_eq!(a.eval(&Resources::new(0.5, 0.0, 0.0, 0.0)), None);
    }

    #[test]
    fn min_feasible_solves_single_var_constraints() {
        let a =
            analyze("{ if (res.vCPU >= 1 and res.RAM >= 100) then { return res.vCPU; } }").unwrap();
        let (r, u) = a.min_feasible().unwrap();
        assert!((r.get(ResourceKind::VCpu) - 1.0).abs() < 1e-9);
        assert!((r.get(ResourceKind::RamMb) - 100.0).abs() < 1e-9);
        assert!((u - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_nonlinear_utility() {
        let e = analyze("{ return res.vCPU * res.RAM; }").unwrap_err();
        assert!(e.message.contains("resource-dependent"), "{e}");
    }

    #[test]
    fn division_by_resource_in_condition_is_rejected() {
        // 1/vCPU >= 2 is not linear.
        let e = analyze("{ if (1 / res.vCPU >= 2) then { return 1; } }").unwrap_err();
        assert!(e.message.contains("linear"), "{e}");
    }

    #[test]
    fn fallthrough_if_must_return() {
        let e = analyze(
            "{ if (res.vCPU >= 1) then { if (res.RAM >= 1) then { return 1; } } return 2; }",
        )
        .unwrap_err();
        assert!(e.message.contains("end with return"), "{e}");
    }
}
