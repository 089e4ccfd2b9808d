//! Linear and mixed-integer linear programming for FARM's placement optimizer.
//!
//! The FARM paper (ICDCS 2024, § IV-D and § V-B) solves its seed-placement
//! model with an off-the-shelf MILP library and compares against Gurobi.
//! Neither is available offline, so this crate provides the solver substrate
//! from scratch:
//!
//! * [`Problem`] — a small modelling API (variables with bounds and
//!   integrality, linear constraints, linear objective),
//! * [`simplex`] — a bounded-variable two-phase primal simplex for linear
//!   programs: variable bounds live on the columns and single-variable
//!   rows are folded into them, so the dense tableau has one row per
//!   remaining constraint,
//! * `milp` — branch & bound with a time budget, rounding-based primal
//!   heuristics and incumbent reporting, mirroring the "Gurobi with a 1 s /
//!   10 min timeout" regimes of the paper's Fig. 7.
//!
//! # Example
//!
//! ```
//! use farm_lp::{Problem, Sense, Cmp};
//!
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_var("x", 0.0, 10.0);
//! let y = p.add_var("y", 0.0, 10.0);
//! p.add_constraint(x + y, Cmp::Le, 12.0);
//! p.add_constraint(2.0 * x + y, Cmp::Le, 18.0);
//! p.set_objective(3.0 * x + 2.0 * y);
//! let sol = farm_lp::simplex::solve(&p).expect("solvable");
//! assert!((sol.objective - 30.0).abs() < 1e-6);
//! ```

#![warn(unreachable_pub)]

mod expr;
mod milp;
mod problem;
pub mod simplex;
mod solution;
mod trace;

pub use expr::{LinExpr, Var};
pub use milp::{solve_milp, MilpOptions, MilpStatus};
pub use problem::{Cmp, Problem, Sense};
pub use trace::record_phase;

/// Numerical tolerance used throughout the solver for feasibility and
/// integrality tests.
const EPS: f64 = 1e-7;
