//! Deterministic data-center network simulator for the FARM reproduction.
//!
//! The FARM paper evaluates on real switches (Tofino/Accton/Arista) in a
//! production SAP data center. That substrate is not available offline, so
//! this crate rebuilds its *architecture* as a deterministic simulator:
//!
//! * [`topology`] — spine-leaf fabrics with per-leaf subnets,
//! * [`switch`] — switches with port counters, a region-divided [`tcam`],
//!   a bandwidth-limited [`pcie`] polling bus (8 Mbit/s vs a 100 Gbit/s
//!   ASIC — the 1:12500 ratio of the paper's Fig. 8) and a control-plane
//!   `cpu` meter,
//! * [`controller`] — the SDN controller's `φ_path` path queries,
//! * [`traffic`] — heavy-hitter / DDoS / port-scan / Zipf workloads with
//!   the statistical features the paper reports,
//! * [`time`] — virtual instants and durations (`u64` nanoseconds), and
//! * [`types`] — flows, prefixes and the filter-formula language shared
//!   with the Almanac DSL.
//!
//! Everything is deterministic given workload seeds; no wall-clock time is
//! consulted anywhere. The crate owns no clock: whoever drives it passes
//! the instant in (`farm-core`'s fixed-tick loop, each soil's trigger
//! deadlines).
//!
//! # Example
//!
//! ```
//! use farm_netsim::network::Network;
//! use farm_netsim::switch::SwitchModel;
//! use farm_netsim::topology::Topology;
//! use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig, Workload};
//! use farm_netsim::time::{Dur, Time};
//! use farm_netsim::types::PortSel;
//!
//! let topo = Topology::spine_leaf(2, 4,
//!     SwitchModel::accton_as7712(), SwitchModel::accton_as5712());
//! let mut net = Network::new(topo);
//! let leaf = net.topology().leaves().next().unwrap();
//! let mut hh = HeavyHitterWorkload::new(HhConfig { switch: leaf, ..Default::default() });
//! let events = hh.advance(Time::ZERO, Dur::from_millis(10));
//! net.apply_traffic(&events);
//! let (stats, latency) = net.switch_mut(leaf).unwrap().poll_ports(PortSel::Any);
//! assert!(!stats.is_empty());
//! assert!(latency > Dur::ZERO);
//! ```

#![warn(unreachable_pub)]

pub mod controller;
mod cpu;
pub mod network;
pub mod pcie;
pub mod switch;
pub mod tcam;
pub mod time;
pub mod topology;
pub mod traffic;
pub mod types;
