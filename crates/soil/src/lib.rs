//! FARM's switch-local runtime: the seed interpreter and the soil layer.
//!
//! Seeds (§ II-B a of the ICDCS 2024 paper) are state-machine instances
//! compiled from Almanac; the [`interp`] module executes them, producing
//! effects (messages, TCAM mutations, `exec()` runs) plus an abstract CPU
//! cost. The [`soil`] module is the per-switch foundation layer: it
//! schedules poll/probe/time triggers on virtual time, **aggregates
//! identical poll subjects across seeds** so the PCIe bus is crossed once
//! (§ II-B b), applies local (re)actions to the monitoring TCAM region,
//! supports migration via state snapshots, and accounts CPU/PCIe costs on
//! the simulated switch. It keeps one record per deployed seed (instance,
//! task, deploy instant) beside the trigger table its scheduler walks, and
//! counts a call's deliveries, polls, messages and seed errors once: into
//! the [`TickReport`] the call returns, which one step folds into
//! [`SoilStats`] and the `soil.*` instruments. The `channel` module
//! models the two seed execution modes (threads/processes) and channels
//! (shared buffer/gRPC) of § VI-E, including a real shared-memory ring
//! buffer.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use farm_almanac::analysis::ConstEnv;
//! use farm_almanac::compile::{compile_machine, frontend};
//! use farm_netsim::controller::SdnController;
//! use farm_netsim::switch::{Resources, Switch, SwitchModel};
//! use farm_netsim::time::Time;
//! use farm_netsim::topology::Topology;
//! use farm_netsim::types::SwitchId;
//! use farm_soil::soil::{Soil, SoilConfig};
//!
//! let topo = Topology::spine_leaf(1, 2,
//!     SwitchModel::accton_as7712(), SwitchModel::accton_as5712());
//! let ctl = SdnController::new(&topo);
//! let program = frontend(farm_almanac::programs::HEAVY_HITTER).unwrap();
//! let hh = Arc::new(compile_machine(&program, "HH", &ConstEnv::new(), &ctl).unwrap());
//!
//! let mut switch = Switch::new(SwitchId(0), SwitchModel::accton_as5712());
//! let mut soil = Soil::new(SwitchId(0), SoilConfig::default());
//! let alloc = Resources::new(1.0, 256.0, 8.0, 10.0);
//! let (seed, _) = soil.deploy(hh, "hh-task", alloc, Time::ZERO, &mut switch).unwrap();
//! let report = soil.advance(Time::from_millis(5), &mut switch);
//! assert!(report.asic_polls > 0);
//! assert!(soil.seed(seed).is_some());
//! ```

#![warn(unreachable_pub)]

mod channel;
pub mod interp;
pub mod soil;

pub use channel::{ChannelKind, CommModel, ExecMode, SharedRingBuffer};
pub use interp::{Effect, Endpoint, SeedError, SeedEvent, SeedId, SeedInstance, SeedSnapshot};
pub use soil::{OutboundMessage, Soil, SoilConfig, SoilError, SoilStats, TickReport};
