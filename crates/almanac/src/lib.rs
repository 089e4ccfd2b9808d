//! Almanac — FARM's automata language for network management and
//! monitoring code (§ III of the ICDCS 2024 paper).
//!
//! M&M tasks are written as state machines ("seeds") with:
//!
//! * trigger variables (`time`, `poll`, `probe`) that fire periodic
//!   events, with resource-dependent intervals like
//!   `.ival = 10/res().PCIe`,
//! * per-state `util` callbacks from which the seeder derives resource
//!   constraints `C^s(r̄)` and utility polynomials `u^s(r̄)`,
//! * `place` directives (`all`/`any`, explicit switches, or path-relative
//!   `range` constraints) resolved against the SDN controller,
//! * local (re)actions: TCAM rule updates, state transitions, messages to
//!   other seeds or the task's harvester.
//!
//! The crate covers the full pipeline: `lexer` → [`parser`] →
//! `typeck` (inheritance flattening + validation) → [`analysis`]
//! (placement sets, utility polynomials, poll subjects) → [`compile`]
//! (the seeder front-end, which also runs [`lower`]: handlers and
//! functions turned into the flat register code the seed VM runs), plus
//! the canonical [`printer`] (the form programs are shipped in), and the
//! paper's 16 Tab. I use cases in [`programs`]. Execution of compiled
//! machines lives in `farm-soil`.
//!
//! # Example
//!
//! ```
//! use farm_almanac::compile::{compile_machine, frontend};
//! use farm_almanac::analysis::ConstEnv;
//! use farm_netsim::controller::SdnController;
//! use farm_netsim::switch::SwitchModel;
//! use farm_netsim::topology::Topology;
//!
//! let program = frontend(farm_almanac::programs::HEAVY_HITTER)?;
//! let topo = Topology::spine_leaf(2, 3,
//!     SwitchModel::accton_as7712(), SwitchModel::accton_as5712());
//! let ctl = SdnController::new(&topo);
//! let hh = compile_machine(&program, "HH", &ConstEnv::new(), &ctl)?;
//! assert_eq!(hh.seeds.len(), 5); // place all → one seed per switch
//! # Ok::<(), farm_almanac::error::AlmanacError>(())
//! ```

#![warn(unreachable_pub)]

pub mod analysis;
pub mod ast;
pub mod builtins;
pub mod compile;
pub mod error;
mod lexer;
pub mod lower;
pub mod parser;
pub mod printer;
pub mod programs;
mod typeck;
pub mod value;

pub use compile::frontend;
pub use error::AlmanacError;
