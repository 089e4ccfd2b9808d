//! FARM's holistic seed-placement optimization (§ IV of the ICDCS 2024
//! paper).
//!
//! The [`model`] module captures the optimization instance — switches with
//! available resources `ares(n,r)`, tasks, seeds with candidate sets
//! `N^s`, utility branches `{C^s, u^s}`, polling demands — plus a
//! validator for the paper's constraints (C1)–(C4) with aggregation and
//! migration double-occupancy semantics. Two solvers operate on it:
//!
//! * [`heuristic`] — Alg. 1: greedy minimum-utility placement, per-switch
//!   LP resource redistribution, and a migration pass ordered by benefit.
//!   Scales to the paper's 10 200 seeds × 1 040 switches regime.
//! * [`milp`] — the exact MILP formulation (MU objective, linearized
//!   bilinear terms) solved by `farm-lp`'s branch & bound under a
//!   deadline, degrading to budgeted primal search at scales a dense
//!   simplex cannot handle — the "Gurobi with 1 s / 10 min timeout"
//!   baseline of Fig. 7.
//!
//! [`build`] converts compiled Almanac tasks into instances; [`workload`]
//! generates the Fig. 7 synthetic study.
//!
//! # Example
//!
//! ```
//! use farm_placement::workload::{generate, WorkloadConfig};
//! use farm_placement::heuristic::{solve_heuristic, HeuristicOptions};
//! use farm_placement::model::validate;
//!
//! let inst = generate(&WorkloadConfig {
//!     n_switches: 8, n_tasks: 3, n_seeds: 40, ..Default::default()
//! });
//! let result = solve_heuristic(&inst, HeuristicOptions::default());
//! validate(&inst, &result).expect("Alg. 1 keeps C1-C4");
//! assert!(result.utility > 0.0);
//! ```

#![warn(unreachable_pub)]

pub mod build;
pub mod delta;
mod fxhash;
pub mod heuristic;
pub mod milp;
pub mod model;
pub mod workload;

pub use build::instance_from_tasks;
pub use delta::{replan_delta, ReplanDelta, SolveState};
pub use heuristic::{solve_heuristic_traced, HeuristicOptions};
pub use model::{validate, PlacementInstance, PlacementResult, PreviousPlacement};
pub use workload::{generate, WorkloadConfig};
