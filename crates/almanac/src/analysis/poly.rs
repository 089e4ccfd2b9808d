//! Linear polynomials over resource variables.
//!
//! The seeder's static analysis converts `util` bodies and `poll`
//! intervals into explicit polynomials over the allocated resource amounts
//! `r̄ = (vCPU, RAM, TCAM, PCIe)` so placement optimization can treat them
//! as LP rows (§ III-B of the paper).

use std::fmt;

use farm_netsim::switch::{ResourceKind, Resources};

/// An affine function `Σ cᵢ·rᵢ + k` of the four resource amounts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Poly {
    pub coeffs: [f64; 4],
    pub constant: f64,
}

impl Poly {
    /// The zero polynomial.
    pub(crate) const ZERO: Poly = Poly {
        coeffs: [0.0; 4],
        constant: 0.0,
    };

    /// A constant polynomial.
    pub fn constant(k: f64) -> Poly {
        Poly {
            coeffs: [0.0; 4],
            constant: k,
        }
    }

    /// The polynomial `1·r` for a single resource.
    pub fn var(kind: ResourceKind) -> Poly {
        let mut p = Poly::ZERO;
        p.coeffs[kind.index()] = 1.0;
        p
    }

    /// True when no resource coefficient is non-zero.
    pub(crate) fn is_constant(&self) -> bool {
        self.coeffs.iter().all(|c| *c == 0.0)
    }

    /// Evaluates at a resource vector.
    pub fn eval(&self, r: &Resources) -> f64 {
        self.constant
            + self
                .coeffs
                .iter()
                .zip(r.0.iter())
                .map(|(c, v)| c * v)
                .sum::<f64>()
    }

    /// Component-wise sum.
    pub fn add(&self, other: &Poly) -> Poly {
        let mut out = *self;
        for i in 0..4 {
            out.coeffs[i] += other.coeffs[i];
        }
        out.constant += other.constant;
        out
    }

    /// Component-wise difference.
    pub(crate) fn sub(&self, other: &Poly) -> Poly {
        let mut out = *self;
        for i in 0..4 {
            out.coeffs[i] -= other.coeffs[i];
        }
        out.constant -= other.constant;
        out
    }

    /// Scales by a constant.
    pub fn scale(&self, k: f64) -> Poly {
        let mut out = *self;
        for c in out.coeffs.iter_mut() {
            *c *= k;
        }
        out.constant *= k;
        out
    }

    /// Negation.
    pub(crate) fn neg(&self) -> Poly {
        self.scale(-1.0)
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        for (i, c) in self.coeffs.iter().enumerate() {
            if *c != 0.0 {
                if wrote {
                    write!(f, " + ")?;
                }
                write!(f, "{}·{}", c, ResourceKind::ALL[i].field_name())?;
                wrote = true;
            }
        }
        if self.constant != 0.0 || !wrote {
            if wrote {
                write!(f, " + ")?;
            }
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

/// A ratio of polynomials `num/den`, at most one side non-constant.
///
/// This is exactly the shape the paper's model needs: `y.ival(r̄)` may be
/// `c / linear(r̄)` (so the polling *demand* `1/ival` stays linear) or a
/// plain linear function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub(crate) num: Poly,
    pub(crate) den: Poly,
}

/// Error combining polynomials beyond linear/rational shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NonlinearError(pub(crate) String);

impl fmt::Display for NonlinearError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "expression is not linear/rational in resources: {}",
            self.0
        )
    }
}

impl std::error::Error for NonlinearError {}

impl Ratio {
    /// A plain polynomial as a ratio.
    pub(crate) fn from_poly(p: Poly) -> Ratio {
        Ratio {
            num: p,
            den: Poly::constant(1.0),
        }
    }

    /// A constant ratio.
    pub(crate) fn constant(k: f64) -> Ratio {
        Ratio::from_poly(Poly::constant(k))
    }

    /// The plain polynomial view, if the denominator is constant.
    pub fn as_poly(&self) -> Option<Poly> {
        if self.den.is_constant() && self.den.constant != 0.0 {
            Some(self.num.scale(1.0 / self.den.constant))
        } else {
            None
        }
    }

    /// Evaluates at a resource vector.
    ///
    /// Returns `f64::INFINITY` when the denominator evaluates to zero.
    pub fn eval(&self, r: &Resources) -> f64 {
        let d = self.den.eval(r);
        if d == 0.0 {
            f64::INFINITY
        } else {
            self.num.eval(r) / d
        }
    }

    /// The reciprocal (used for polling demand `1/ival`).
    pub fn recip(&self) -> Ratio {
        Ratio {
            num: self.den,
            den: self.num,
        }
    }

    fn check(self, ctx: &str) -> Result<Ratio, NonlinearError> {
        if !self.num.is_constant() && !self.den.is_constant() {
            return Err(NonlinearError(format!(
                "{ctx}: both numerator and denominator depend on resources"
            )));
        }
        Ok(self)
    }

    /// `self + other`.
    pub(crate) fn add(&self, other: &Ratio) -> Result<Ratio, NonlinearError> {
        if self.den == other.den {
            return Ratio {
                num: self.num.add(&other.num),
                den: self.den,
            }
            .check("+");
        }
        if self.den.is_constant() && other.den.is_constant() {
            let a = self
                .as_poly()
                .ok_or_else(|| NonlinearError("division by zero".into()))?;
            let b = other
                .as_poly()
                .ok_or_else(|| NonlinearError("division by zero".into()))?;
            return Ok(Ratio::from_poly(a.add(&b)));
        }
        Err(NonlinearError(
            "sum of ratios with different resource-dependent denominators".into(),
        ))
    }

    /// `self - other`.
    pub(crate) fn sub(&self, other: &Ratio) -> Result<Ratio, NonlinearError> {
        self.add(&other.scale(-1.0))
    }

    /// Scales by a constant.
    pub(crate) fn scale(&self, k: f64) -> Ratio {
        Ratio {
            num: self.num.scale(k),
            den: self.den,
        }
    }

    /// `self * other`.
    pub(crate) fn mul(&self, other: &Ratio) -> Result<Ratio, NonlinearError> {
        // (n1/d1)·(n2/d2): to stay rational-linear, at least one numerator
        // and one denominator pairing must be constant.
        let num = mul_polys(&self.num, &other.num)?;
        let den = mul_polys(&self.den, &other.den)?;
        Ratio { num, den }.check("*")
    }

    /// `self / other`.
    pub(crate) fn div(&self, other: &Ratio) -> Result<Ratio, NonlinearError> {
        self.mul(&other.recip())
    }
}

fn mul_polys(a: &Poly, b: &Poly) -> Result<Poly, NonlinearError> {
    if a.is_constant() {
        Ok(b.scale(a.constant))
    } else if b.is_constant() {
        Ok(a.scale(b.constant))
    } else {
        Err(NonlinearError(
            "product of two resource-dependent terms".into(),
        ))
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den.is_constant() && self.den.constant == 1.0 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "({}) / ({})", self.num, self.den)
        }
    }
}

/// Utility expression: linear polynomials composed with `min`/`max`
/// (concave/convex piecewise-linear, which the MILP linearizes with
/// auxiliary variables).
#[derive(Debug, Clone, PartialEq)]
pub enum UtilExpr {
    Poly(Poly),
    Min(Box<UtilExpr>, Box<UtilExpr>),
    Max(Box<UtilExpr>, Box<UtilExpr>),
}

impl UtilExpr {
    /// Evaluates at a resource vector.
    pub fn eval(&self, r: &Resources) -> f64 {
        match self {
            UtilExpr::Poly(p) => p.eval(r),
            UtilExpr::Min(a, b) => a.eval(r).min(b.eval(r)),
            UtilExpr::Max(a, b) => a.eval(r).max(b.eval(r)),
        }
    }

    /// All linear pieces of the expression (leaves of the min/max tree).
    pub fn pieces(&self) -> Vec<Poly> {
        match self {
            UtilExpr::Poly(p) => vec![*p],
            UtilExpr::Min(a, b) | UtilExpr::Max(a, b) => {
                let mut v = a.pieces();
                v.extend(b.pieces());
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: f64, ram: f64, t: f64, p: f64) -> Resources {
        Resources::new(v, ram, t, p)
    }

    #[test]
    fn poly_arithmetic_and_eval() {
        let p = Poly::var(ResourceKind::VCpu)
            .scale(2.0)
            .add(&Poly::constant(3.0));
        assert_eq!(p.eval(&r(2.0, 0.0, 0.0, 0.0)), 7.0);
        let q = p.sub(&Poly::var(ResourceKind::PciePoll));
        assert_eq!(q.eval(&r(2.0, 0.0, 0.0, 5.0)), 2.0);
        assert!(!q.is_constant());
        assert!(Poly::constant(4.0).is_constant());
    }

    #[test]
    fn ratio_models_ival_shape() {
        // ival = 10 / PCIe  →  demand = PCIe / 10 (linear).
        let ival = Ratio::constant(10.0)
            .div(&Ratio::from_poly(Poly::var(ResourceKind::PciePoll)))
            .unwrap();
        assert_eq!(ival.eval(&r(0.0, 0.0, 0.0, 5.0)), 2.0);
        let demand = ival.recip();
        let p = demand.as_poly().unwrap();
        assert_eq!(p.eval(&r(0.0, 0.0, 0.0, 5.0)), 0.5);
    }

    #[test]
    fn nonlinear_products_are_rejected() {
        let v = Ratio::from_poly(Poly::var(ResourceKind::VCpu));
        assert!(v.mul(&v).is_err());
        let lin = Ratio::from_poly(Poly::var(ResourceKind::RamMb));
        assert!(v.div(&lin.recip()).is_err()); // v * lin
    }

    #[test]
    fn division_by_zero_is_infinite() {
        let q = Ratio::constant(1.0)
            .div(&Ratio::from_poly(Poly::var(ResourceKind::VCpu)))
            .unwrap();
        assert_eq!(q.eval(&r(0.0, 0.0, 0.0, 0.0)), f64::INFINITY);
    }

    #[test]
    fn util_expr_min_max_eval() {
        let e = UtilExpr::Min(
            Box::new(UtilExpr::Poly(Poly::var(ResourceKind::VCpu))),
            Box::new(UtilExpr::Poly(Poly::var(ResourceKind::PciePoll))),
        );
        assert_eq!(e.eval(&r(3.0, 0.0, 0.0, 1.0)), 1.0);
        assert_eq!(e.pieces().len(), 2);
        let m = UtilExpr::Max(
            Box::new(e.clone()),
            Box::new(UtilExpr::Poly(Poly::constant(0.5))),
        );
        assert_eq!(m.eval(&r(0.2, 0.0, 0.0, 0.1)), 0.5);
    }

    #[test]
    fn display_is_informative() {
        let p = Poly::var(ResourceKind::VCpu).sub(&Poly::constant(1.0));
        assert_eq!(p.to_string(), "1·vCPU + -1");
        assert_eq!(Poly::ZERO.to_string(), "0");
    }
}
