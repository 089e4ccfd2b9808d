//! Solver results and errors.

use std::fmt;

/// A successful LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Value per variable, indexed by [`crate::Var::index`].
    pub values: Vec<f64>,
    /// Objective value (including the problem's objective constant).
    pub objective: f64,
}

impl Solution {
    /// Value of a single variable.
    pub fn value(&self, var: crate::Var) -> f64 {
        self.values[var.index()]
    }
}

/// Failure to produce a solution.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// No feasible point exists.
    Infeasible,
    /// Objective unbounded in the optimization direction.
    Unbounded,
    /// Iteration cap or deadline hit before convergence.
    LimitReached,
    /// The model is malformed (e.g. NaN coefficient).
    BadModel(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "problem is infeasible"),
            SolveError::Unbounded => write!(f, "objective is unbounded"),
            SolveError::LimitReached => write!(f, "iteration or time limit reached"),
            SolveError::BadModel(m) => write!(f, "malformed model: {m}"),
        }
    }
}

impl std::error::Error for SolveError {}
