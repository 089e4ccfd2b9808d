//! Seeder-side static analysis of Almanac machines (§ III-B).
//!
//! Three analyses feed the placement optimizer:
//!
//! 1. `place` — resolves `place` directives into seeds and candidate
//!    switch sets (`π⟦·⟧` with the controller's `φ_path`),
//! 2. `util` — converts `util` callbacks into resource-constraint
//!    polynomials `C^s(r̄)` and utility functions `u^s(r̄)`
//!    (`κ^s⟦·⟧`, `ε^s⟦·⟧`),
//! 3. `poll` — derives interval functions `y.ival(r̄)` and canonical
//!    polling subjects `y.what` (`φ_enc`) for aggregation.

pub mod consteval;
pub(crate) mod place;
pub(crate) mod poll;
pub(crate) mod poly;
pub(crate) mod util;

pub use consteval::{const_eval, ConstEnv};
pub(crate) use place::{resolve_placements, SeedSpec};
pub use poll::PollSubject;
pub(crate) use poll::{analyze_trigger, TriggerAnalysis};
pub use poly::{Poly, UtilExpr};
pub(crate) use util::analyze_util;
pub use util::{UtilAnalysis, UtilBranch};
