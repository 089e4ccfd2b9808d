//! Linear expressions over solver variables.
//!
//! [`Var`] is an opaque handle returned by [`crate::Problem`]; [`LinExpr`]
//! is an affine combination of variables built with ordinary `+`, `-` and
//! `*` operators:
//!
//! ```
//! use farm_lp::{Problem, Sense};
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var("x", 0.0, 1.0);
//! let y = p.add_var("y", 0.0, 1.0);
//! let e = 2.0 * x - y + 1.0;
//! assert_eq!(e.coefficient(x), 2.0);
//! assert_eq!(e.constant(), 1.0);
//! ```

use std::collections::BTreeMap;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Handle to a decision variable of a [`crate::Problem`].
///
/// Handles are only meaningful for the problem that created them; using a
/// handle with a different problem is detected at solve time when the index
/// is out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// Raw column index of this variable inside its problem.
    pub fn index(self) -> usize {
        self.0
    }
}

/// An affine expression `Σ cᵢ·xᵢ + k`.
///
/// Duplicate variables are merged; zero coefficients are kept out of the
/// term map so `terms()` only yields structurally present variables.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    terms: BTreeMap<Var, f64>,
    constant: f64,
}

impl LinExpr {
    /// The zero expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// A constant expression with no variables.
    pub fn constant_expr(k: f64) -> Self {
        LinExpr {
            terms: BTreeMap::new(),
            constant: k,
        }
    }

    /// Adds `coeff · var` to the expression, merging with any existing term.
    pub fn add_term(&mut self, var: Var, coeff: f64) -> &mut Self {
        let entry = self.terms.entry(var).or_insert(0.0);
        *entry += coeff;
        if *entry == 0.0 {
            self.terms.remove(&var);
        }
        self
    }

    /// Coefficient of `var` (0 if absent).
    pub fn coefficient(&self, var: Var) -> f64 {
        self.terms.get(&var).copied().unwrap_or(0.0)
    }

    /// The additive constant `k`.
    pub fn constant(&self) -> f64 {
        self.constant
    }

    /// Sets the additive constant.
    pub fn set_constant(&mut self, k: f64) {
        self.constant = k;
    }

    /// Iterates over `(variable, coefficient)` pairs in variable order.
    pub(crate) fn terms(&self) -> impl Iterator<Item = (Var, f64)> + '_ {
        self.terms.iter().map(|(v, c)| (*v, *c))
    }

    /// Multiplies every coefficient and the constant by `k` in place.
    pub(crate) fn scale(&mut self, k: f64) {
        if k == 0.0 {
            self.terms.clear();
            self.constant = 0.0;
            return;
        }
        for c in self.terms.values_mut() {
            *c *= k;
        }
        self.constant *= k;
    }
}

impl From<Var> for LinExpr {
    fn from(v: Var) -> Self {
        let mut e = LinExpr::new();
        e.add_term(v, 1.0);
        e
    }
}

impl From<f64> for LinExpr {
    fn from(k: f64) -> Self {
        LinExpr::constant_expr(k)
    }
}

impl AddAssign<LinExpr> for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, c);
        }
        self.constant += rhs.constant;
    }
}

impl SubAssign<LinExpr> for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        for (v, c) in rhs.terms {
            self.add_term(v, -c);
        }
        self.constant -= rhs.constant;
    }
}

macro_rules! impl_binop {
    ($lhs:ty, $rhs:ty) => {
        impl Add<$rhs> for $lhs {
            type Output = LinExpr;
            fn add(self, rhs: $rhs) -> LinExpr {
                let mut e: LinExpr = self.into();
                e += rhs.into();
                e
            }
        }
        impl Sub<$rhs> for $lhs {
            type Output = LinExpr;
            fn sub(self, rhs: $rhs) -> LinExpr {
                let mut e: LinExpr = self.into();
                e -= rhs.into();
                e
            }
        }
    };
}

impl_binop!(LinExpr, LinExpr);
impl_binop!(LinExpr, Var);
impl_binop!(LinExpr, f64);
impl_binop!(Var, LinExpr);
impl_binop!(Var, Var);
impl_binop!(Var, f64);
impl_binop!(f64, LinExpr);
impl_binop!(f64, Var);

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        self.scale(-1.0);
        self
    }
}

impl Neg for Var {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        -LinExpr::from(self)
    }
}

impl Mul<f64> for Var {
    type Output = LinExpr;
    fn mul(self, k: f64) -> LinExpr {
        let mut e = LinExpr::new();
        e.add_term(self, k);
        e
    }
}

impl Mul<Var> for f64 {
    type Output = LinExpr;
    fn mul(self, v: Var) -> LinExpr {
        v * self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, k: f64) -> LinExpr {
        self.scale(k);
        self
    }
}

impl Mul<LinExpr> for f64 {
    type Output = LinExpr;
    fn mul(self, mut e: LinExpr) -> LinExpr {
        e.scale(self);
        e
    }
}

impl std::iter::Sum for LinExpr {
    fn sum<I: Iterator<Item = LinExpr>>(iter: I) -> LinExpr {
        let mut acc = LinExpr::new();
        for e in iter {
            acc += e;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> Var {
        Var(i)
    }

    #[test]
    fn merges_duplicate_terms() {
        let e = v(0) + v(0) + 1.0;
        assert_eq!(e.coefficient(v(0)), 2.0);
        assert_eq!(e.terms.len(), 1);
        assert_eq!(e.constant(), 1.0);
    }

    #[test]
    fn cancelled_terms_are_removed() {
        let e = v(1) - v(1);
        assert!(e.terms.is_empty());
        assert_eq!(e.coefficient(v(1)), 0.0);
    }

    #[test]
    fn scaling_and_negation() {
        let e = 2.0 * v(0) + 3.0;
        let d = -e.clone();
        assert_eq!(d.coefficient(v(0)), -2.0);
        assert_eq!(d.constant(), -3.0);
        let s = e * 0.0;
        assert!(s.terms.is_empty());
        assert_eq!(s.constant(), 0.0);
    }

    #[test]
    fn sum_of_expressions() {
        let total: LinExpr = (0..4).map(|i| LinExpr::from(v(i)) * (i as f64)).sum();
        assert_eq!(total.coefficient(v(3)), 3.0);
        assert_eq!(total.coefficient(v(0)), 0.0);
    }
}
