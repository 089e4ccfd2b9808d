//! Baseline monitoring systems FARM is evaluated against (§ VI-B, § VII).
//!
//! * [`sflow`] — the collection-centric RFC 3176 architecture: sampling
//!   agents plus a centralized collector doing all analysis; export load
//!   grows linearly with port count.
//! * [`sonata`] — query-driven streaming telemetry: data-plane
//!   pre-aggregation feeding a micro-batch stream processor, with
//!   seconds-scale detection pipelines.
//! * `specialized` — Planck and Helios latency models, the fast
//!   purpose-built detectors of Tab. 4.
//!
//! All three operate against the same `farm-netsim` fabric as FARM so the
//! comparisons in `farm-bench` measure architecture, not substrate.

#![warn(unreachable_pub)]

pub mod sflow;
pub mod sonata;
mod specialized;

pub use sflow::{SflowConfig, SflowSystem};
pub use sonata::{SonataConfig, SonataSystem};
pub use specialized::{HeliosModel, PlanckModel};
