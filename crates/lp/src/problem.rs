//! Problem modelling: variables, constraints, objective.

use crate::expr::{LinExpr, Var};

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    Maximize,
    Minimize,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `lhs ≤ rhs`
    Le,
    /// `lhs ≥ rhs`
    Ge,
    /// `lhs = rhs`
    Eq,
}

/// Integrality class of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum VarKind {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds (binary variables use bounds `[0,1]`).
    Integer,
}

/// Definition of a single decision variable.
#[derive(Debug, Clone)]
pub(crate) struct VarDef {
    pub(crate) name: String,
    pub(crate) lower: f64,
    pub(crate) upper: f64,
    pub(crate) kind: VarKind,
}

/// A single linear constraint in `coeffs · x  cmp  rhs` form.
#[derive(Debug, Clone)]
pub(crate) struct ConstraintDef {
    pub(crate) coeffs: Vec<(usize, f64)>,
    pub(crate) cmp: Cmp,
    pub(crate) rhs: f64,
}

impl ConstraintDef {
    /// Signed violation of the constraint at `values` (0 when satisfied).
    pub(crate) fn violation(&self, values: &[f64]) -> f64 {
        let lhs: f64 = self.coeffs.iter().map(|&(i, c)| c * values[i]).sum();
        match self.cmp {
            Cmp::Le => (lhs - self.rhs).max(0.0),
            Cmp::Ge => (self.rhs - lhs).max(0.0),
            Cmp::Eq => (lhs - self.rhs).abs(),
        }
    }
}

/// A linear or mixed-integer linear program.
///
/// Build with [`Problem::add_var`] / [`Problem::add_constraint`] /
/// [`Problem::set_objective`], then solve with [`crate::simplex::solve`]
/// (LP relaxation — integrality is ignored) or [`crate::solve_milp`].
#[derive(Debug, Clone)]
pub struct Problem {
    sense: Sense,
    vars: Vec<VarDef>,
    constraints: Vec<ConstraintDef>,
    objective: Vec<f64>,
    objective_constant: f64,
}

impl Problem {
    /// Creates an empty problem optimizing in the given direction.
    pub fn new(sense: Sense) -> Self {
        Problem {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: Vec::new(),
            objective_constant: 0.0,
        }
    }

    /// Optimization direction.
    pub(crate) fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds a continuous variable with inclusive bounds `[lower, upper]`.
    ///
    /// Use `f64::NEG_INFINITY` / `f64::INFINITY` for free sides.
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_var(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> Var {
        self.add_var_kind(name, lower, upper, VarKind::Continuous)
    }

    /// Adds a continuous variable without a debug name.
    ///
    /// Variable names are only ever read by humans (no solver path
    /// consults them); model builders on hot paths use this to skip the
    /// per-variable `String` formatting and allocation.
    pub fn add_var_unnamed(&mut self, lower: f64, upper: f64) -> Var {
        self.add_var_kind(String::new(), lower, upper, VarKind::Continuous)
    }

    /// Adds a binary (0/1 integer) variable.
    pub fn add_binary(&mut self, name: impl Into<String>) -> Var {
        self.add_var_kind(name, 0.0, 1.0, VarKind::Integer)
    }

    /// Clears the problem back to an empty model with the given sense,
    /// retaining the variable/constraint buffers' capacity. Lets callers
    /// that solve many small LPs in a loop reuse one `Problem` as an
    /// arena instead of reallocating per model.
    pub fn reset(&mut self, sense: Sense) {
        self.sense = sense;
        self.vars.clear();
        self.constraints.clear();
        self.objective.clear();
        self.objective_constant = 0.0;
    }

    /// Adds a general integer variable with inclusive bounds.
    pub fn add_integer(&mut self, name: impl Into<String>, lower: f64, upper: f64) -> Var {
        self.add_var_kind(name, lower, upper, VarKind::Integer)
    }

    fn add_var_kind(
        &mut self,
        name: impl Into<String>,
        lower: f64,
        upper: f64,
        kind: VarKind,
    ) -> Var {
        assert!(!lower.is_nan() && !upper.is_nan(), "variable bound is NaN");
        assert!(lower <= upper, "variable lower bound exceeds upper bound");
        let idx = self.vars.len();
        self.vars.push(VarDef {
            name: name.into(),
            lower,
            upper,
            kind,
        });
        self.objective.push(0.0);
        Var(idx)
    }

    /// Adds the constraint `lhs cmp rhs`.
    ///
    /// Any constant inside `lhs` is moved to the right-hand side, so
    /// `add_constraint(x + 1.0, Cmp::Le, 3.0)` stores `x ≤ 2`.
    pub fn add_constraint(&mut self, lhs: impl Into<LinExpr>, cmp: Cmp, rhs: f64) {
        let lhs = lhs.into();
        let coeffs: Vec<(usize, f64)> = lhs.terms().map(|(v, c)| (v.0, c)).collect();
        for &(i, _) in &coeffs {
            assert!(i < self.vars.len(), "constraint uses unknown variable");
        }
        self.constraints.push(ConstraintDef {
            coeffs,
            cmp,
            rhs: rhs - lhs.constant(),
        });
    }

    /// Sets the objective to optimize (replacing any previous one).
    ///
    /// A constant term is kept and added to reported objective values.
    pub fn set_objective(&mut self, expr: impl Into<LinExpr>) {
        let expr = expr.into();
        self.objective = vec![0.0; self.vars.len()];
        for (v, c) in expr.terms() {
            assert!(v.0 < self.vars.len(), "objective uses unknown variable");
            self.objective[v.0] = c;
        }
        self.objective_constant = expr.constant();
    }

    /// Number of variables.
    pub(crate) fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub(crate) fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Variable definitions, indexed by [`Var::index`].
    pub(crate) fn vars(&self) -> &[VarDef] {
        &self.vars
    }

    /// Constraint definitions.
    pub(crate) fn constraints(&self) -> &[ConstraintDef] {
        &self.constraints
    }

    /// Objective coefficients, indexed by variable.
    pub(crate) fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Indices of integer variables.
    pub(crate) fn integer_vars(&self) -> impl Iterator<Item = usize> + '_ {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, d)| d.kind == VarKind::Integer)
            .map(|(i, _)| i)
    }

    /// Tightens a variable's bounds (used by branch & bound).
    ///
    /// # Panics
    ///
    /// Panics if the variable is unknown.
    pub(crate) fn set_bounds(&mut self, var: Var, lower: f64, upper: f64) {
        let d = &mut self.vars[var.0];
        d.lower = lower;
        d.upper = upper;
    }

    /// Objective value at a full assignment.
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.objective_constant
            + self
                .objective
                .iter()
                .zip(values)
                .map(|(c, v)| c * v)
                .sum::<f64>()
    }

    /// Maximum violation of bounds, constraints and integrality at `values`.
    ///
    /// Returns 0 for a feasible point (within `tol`).
    pub(crate) fn max_violation(&self, values: &[f64], tol: f64) -> f64 {
        let mut worst: f64 = 0.0;
        for (d, &v) in self.vars.iter().zip(values) {
            worst = worst.max(d.lower - v).max(v - d.upper);
            if d.kind == VarKind::Integer {
                worst = worst.max((v - v.round()).abs());
            }
        }
        for c in &self.constraints {
            worst = worst.max(c.violation(values));
        }
        if worst <= tol {
            0.0
        } else {
            worst
        }
    }

    /// True if `values` satisfies all bounds, constraints and integrality
    /// requirements within a fixed `1e-6` tolerance.
    pub fn is_feasible(&self, values: &[f64]) -> bool {
        values.len() == self.vars.len() && self.max_violation(values, 1e-6) <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_move_to_rhs() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 10.0);
        p.add_constraint(x + 1.0, Cmp::Le, 3.0);
        assert_eq!(p.constraints()[0].rhs, 2.0);
    }

    #[test]
    fn feasibility_check_covers_bounds_constraints_integrality() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var("x", 0.0, 10.0);
        let b = p.add_binary("b");
        p.add_constraint(x + b, Cmp::Le, 5.0);
        assert!(p.is_feasible(&[4.0, 1.0]));
        assert!(!p.is_feasible(&[4.5, 0.7])); // fractional binary
        assert!(!p.is_feasible(&[11.0, 0.0])); // bound violated
        assert!(!p.is_feasible(&[5.0, 1.0])); // constraint violated
    }

    #[test]
    fn objective_value_includes_constant() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_var("x", 0.0, 1.0);
        p.set_objective(2.0 * x + 7.0);
        assert_eq!(p.objective_value(&[0.5]), 8.0);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds upper")]
    fn rejects_inverted_bounds() {
        let mut p = Problem::new(Sense::Maximize);
        p.add_var("x", 1.0, 0.0);
    }

    #[test]
    fn reset_yields_an_empty_model() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_var_unnamed(0.0, 10.0);
        p.add_constraint(x + 1.0, Cmp::Le, 3.0);
        p.set_objective(2.0 * x + 1.0);
        p.reset(Sense::Minimize);
        assert_eq!(p.sense(), Sense::Minimize);
        assert_eq!(p.num_vars(), 0);
        assert_eq!(p.num_constraints(), 0);
        assert_eq!(p.objective_constant, 0.0);
        // The reset arena builds a fresh model identical to a new one.
        let y = p.add_var_unnamed(0.0, 1.0);
        p.set_objective(LinExpr::from(y));
        assert_eq!(p.num_vars(), 1);
    }
}
