//! Hostile-traffic scenario engine with ground-truth detection scoring.
//!
//! The FARM paper evaluates detection *latency* under cooperative
//! traffic; this crate supplies the missing axis — detection *quality*
//! under hostile traffic. A [`gen::ScenarioSpec`] deterministically
//! builds a [`gen::Scenario`]: a composed traffic workload (flash
//! crowds, diurnal drift, coordinated multi-vector attacks, high-churn
//! heavy-hitter sets, DiG-style sub-ms microbursts) together with
//! planted ground-truth labels (`truth::GroundTruth`) — attack
//! windows, offending flow keys, and heavy-set membership over time.
//!
//! The scenario replays through the ordinary netsim/soil/harvester path
//! against the Almanac detection tasks named by [`suite`]; the scorer
//! ([`mod@score`]) matches harvester output against the planted truth and
//! computes per-task precision, recall, and time-to-detect. Everything
//! is deterministic per seed: the same [`gen::ScenarioSpec`] always
//! produces byte-identical traces, labels, and (through the
//! deterministic simulator) scores.

#![warn(unreachable_pub)]

mod gen;
pub mod score;
pub mod suite;
mod truth;

pub use gen::{Scenario, ScenarioClass, ScenarioEnv, ScenarioScale, ScenarioSpec};
pub use truth::{AttackKind, TruthKey};
