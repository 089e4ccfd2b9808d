//! FARM core: the comprehensive network monitoring & management framework
//! of the ICDCS 2024 paper, assembled over the simulated substrate.
//!
//! * [`seeder`] — the centralized control instance: task catalog, global
//!   placement planning (via `farm-placement`), migration diffing.
//! * [`harvester`] — per-task centralized components (collecting, HH
//!   threshold tuning).
//! * [`farm`] — the [`farm::Farm`] facade: network + soils + seeder +
//!   harvesters on one virtual clock, with message routing. Built via
//!   [`farm::FarmBuilder`], which also attaches telemetry sinks.
//! * [`Error`] — the structured enum every fallible API returns.
//!
//! # Example
//!
//! ```
//! use std::collections::BTreeMap;
//! use std::sync::Arc;
//! use farm_core::prelude::*;
//! use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig};
//!
//! let topo = Topology::spine_leaf(2, 3,
//!     SwitchModel::accton_as7712(), SwitchModel::accton_as5712());
//! let events = Arc::new(RingBufferSink::new(4096));
//! let mut farm = FarmBuilder::new(topo)
//!     .with_harvester("hh", Box::new(CollectingHarvester::new()))
//!     .with_sink(events.clone())
//!     .build();
//! farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())?;
//!
//! let leaf = farm.network().topology().leaves().next().unwrap();
//! let mut traffic = HeavyHitterWorkload::new(HhConfig { switch: leaf, ..Default::default() });
//! farm.run(&mut [&mut traffic], Time::from_millis(30), Dur::from_millis(1));
//!
//! let h: &CollectingHarvester = farm.harvester("hh").unwrap();
//! assert!(!h.received.is_empty());
//! // The sink saw the seed lifecycle; the registry has the counters.
//! assert!(events.events().iter().any(|e| matches!(e, Event::SeedDeployed { .. })));
//! assert!(farm.telemetry().snapshot().counter("farm.collector_messages") > 0);
//! # Ok::<(), farm_core::Error>(())
//! ```

#![warn(unreachable_pub)]

mod error;
pub mod farm;
pub mod harvester;
pub mod seeder;

pub use error::Error;
pub use farm::{Farm, FarmBuilder, FarmConfig, SeedStatus};
pub use harvester::CollectingHarvester;
pub use seeder::{PlannedAction, SeedKey};

/// One-stop imports for building and observing a farm.
///
/// ```
/// use farm_core::prelude::*;
/// ```
pub mod prelude {
    pub use crate::farm::{Farm, FarmBuilder, FarmConfig, SeedStatus};
    pub use crate::harvester::CollectingHarvester;
    pub use crate::seeder::{PlannedAction, SeedKey};
    pub use farm_faults::{ChurnProfile, FaultKind, FaultPlan};
    pub use farm_netsim::switch::SwitchModel;
    pub use farm_netsim::time::{Dur, Time};
    pub use farm_netsim::topology::Topology;
    pub use farm_telemetry::{Event, JsonLinesSink, RingBufferSink, Telemetry};
}
