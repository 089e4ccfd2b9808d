//! # farm-faults — deterministic fault injection
//!
//! FARM's monitoring plane has to keep working through the same churn it is
//! supposed to observe: switches crash and come back cold, links flap, the
//! management network drops and duplicates control messages, and PCIe
//! bandwidth between ASIC and switch CPU degrades under load. This crate
//! describes those failures as *data* so the rest of the system can apply
//! them at simulated time and — crucially — replay them bit-for-bit:
//!
//! - [`FaultPlan`] / `FaultEvent` / [`FaultKind`]: an ordered schedule of
//!   failures and repairs, written explicitly or generated from a seed with
//!   [`FaultPlan::churn`].
//! - [`FaultInjector`]: a cursor the runtime drains as virtual time
//!   advances ([`FaultInjector::take_due`]).
//! - [`LossSpec`] / [`LossModel`] / [`Delivery`]: per-message
//!   drop/duplicate/delay decisions for lossy control channels, rolled from
//!   a deterministic stream.
//!
//! Both draw from vendored `rand`'s `SplitMix64`, whose stream is fixed.
//!
//! Everything here is pure and deterministic: equal seeds and inputs yield
//! identical schedules and decisions on every platform, so any failure found
//! under churn reproduces from a single integer.
//!
//! ```
//! use farm_faults::{FaultKind, FaultPlan, FaultInjector};
//! use farm_netsim::time::{Dur, Time};
//! use farm_netsim::types::SwitchId;
//!
//! let plan = FaultPlan::new()
//!     .crash_and_restart(SwitchId(2), Time::from_millis(10), Dur::from_millis(40))
//!     .link_flap(SwitchId(0), SwitchId(4), Time::from_millis(25), Dur::from_millis(5));
//! let mut injector = FaultInjector::new(plan);
//! let due = injector.take_due(Time::from_millis(10));
//! assert!(matches!(due[0].kind, FaultKind::SwitchCrash { .. }));
//! ```

#![warn(unreachable_pub)]

mod loss;
mod plan;

pub use loss::{Delivery, LossModel, LossSpec};
pub use plan::{ChurnProfile, FaultInjector, FaultKind, FaultPlan};
