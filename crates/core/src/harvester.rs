//! Harvesters: per-task centralized components (§ II-C a).
//!
//! A harvester collects what its seeds report and takes global actions
//! when seed-local decision-making is insufficient — e.g. retuning the HH
//! threshold network-wide or releasing a DDoS mitigation. Harvesters here
//! are trait objects driven by the [`crate::farm::Farm`] message router.

use std::any::Any;

use farm_almanac::value::Value;
use farm_netsim::time::{Dur, Time};
use farm_netsim::types::SwitchId;
use farm_soil::OutboundMessage;

/// Action a harvester asks the framework to take.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum HarvesterCommand {
    /// Send a value to all seeds of a machine.
    SendToMachine { machine: String, value: Value },
}

/// Per-delivery context handed to a harvester.
#[derive(Debug, Default)]
pub struct HarvesterCtx {
    pub(crate) commands: Vec<HarvesterCommand>,
}

impl HarvesterCtx {
    /// Queues a broadcast to every seed of `machine`.
    pub(crate) fn send_to_machine(&mut self, machine: impl Into<String>, value: Value) {
        self.commands.push(HarvesterCommand::SendToMachine {
            machine: machine.into(),
            value,
        });
    }
}

/// A task's centralized component.
pub trait Harvester: Send {
    /// Handles one message from a seed.
    fn on_message(&mut self, msg: &OutboundMessage, ctx: &mut HarvesterCtx);

    /// Downcast support for tests and experiment harnesses.
    fn as_any(&self) -> &dyn Any;
}

/// One message as recorded by [`CollectingHarvester`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReceivedMessage {
    /// When the seed emitted it (virtual time).
    pub(crate) at: Time,
    /// Switch-local latency until it hit the wire.
    pub(crate) latency: Dur,
    pub from_switch: SwitchId,
    pub from_machine: String,
    pub value: Value,
}

impl ReceivedMessage {
    /// Instant the harvester effectively learned about the event.
    pub fn arrival(&self) -> Time {
        self.at + self.latency
    }
}

/// Records every message — the measurement probe of the detection-latency
/// and network-load experiments.
#[derive(Debug, Default)]
pub struct CollectingHarvester {
    pub received: Vec<ReceivedMessage>,
}

impl CollectingHarvester {
    pub fn new() -> Self {
        Self::default()
    }

    /// First recorded arrival at or after `t`.
    pub fn first_arrival_after(&self, t: Time) -> Option<Time> {
        self.received
            .iter()
            .map(|m| m.arrival())
            .filter(|a| *a >= t)
            .min()
    }
}

impl Harvester for CollectingHarvester {
    fn on_message(&mut self, msg: &OutboundMessage, _ctx: &mut HarvesterCtx) {
        self.received.push(ReceivedMessage {
            at: msg.at,
            latency: msg.latency,
            from_switch: msg.from_switch,
            from_machine: msg.from_machine.clone(),
            value: msg.value.clone(),
        });
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The paper's HH harvester: receives hitter lists and dynamically adapts
/// the network-wide threshold to keep the report volume in a target band
/// (§ III-C: "the harvester sets up the threshold for a HH and can
/// dynamically change it based on the overall network load").
#[derive(Debug)]
pub struct HhThresholdHarvester {
    machine: String,
    threshold: i64,
    /// Raise the threshold when one report carries more hitters.
    pub max_hitters_per_report: usize,
    /// Lower the threshold after this many consecutive empty reports.
    pub(crate) lower_after_quiet: u32,
    quiet: u32,
    pub(crate) reports: u64,
    pub retunes: u64,
}

impl HhThresholdHarvester {
    pub fn new(machine: impl Into<String>, initial_threshold: i64) -> Self {
        HhThresholdHarvester {
            machine: machine.into(),
            threshold: initial_threshold,
            max_hitters_per_report: 8,
            lower_after_quiet: 16,
            quiet: 0,
            reports: 0,
            retunes: 0,
        }
    }

    /// Current network-wide threshold.
    pub fn threshold(&self) -> i64 {
        self.threshold
    }
}

impl Harvester for HhThresholdHarvester {
    fn on_message(&mut self, msg: &OutboundMessage, ctx: &mut HarvesterCtx) {
        let Value::List(hitters) = &msg.value else {
            return;
        };
        self.reports += 1;
        if hitters.len() > self.max_hitters_per_report {
            self.threshold = self.threshold.saturating_mul(2);
            self.retunes += 1;
            self.quiet = 0;
            ctx.send_to_machine(self.machine.clone(), Value::Int(self.threshold));
        } else if hitters.is_empty() {
            self.quiet += 1;
            if self.quiet >= self.lower_after_quiet && self.threshold > 1 {
                self.threshold = (self.threshold / 2).max(1);
                self.retunes += 1;
                self.quiet = 0;
                ctx.send_to_machine(self.machine.clone(), Value::Int(self.threshold));
            }
        } else {
            self.quiet = 0;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_soil::{Endpoint, SeedId};

    fn msg(value: Value, at_ms: u64) -> OutboundMessage {
        OutboundMessage {
            from_switch: SwitchId(3),
            from_seed: SeedId(0),
            from_machine: "HH".into(),
            task: "hh".into(),
            to: Endpoint::Harvester,
            value,
            at: Time::from_millis(at_ms),
            latency: Dur::from_micros(100),
            bytes: 16,
        }
    }

    #[test]
    fn collecting_harvester_records_arrivals() {
        let mut h = CollectingHarvester::new();
        let mut ctx = HarvesterCtx::default();
        h.on_message(&msg(Value::Int(1), 5), &mut ctx);
        h.on_message(&msg(Value::Int(2), 9), &mut ctx);
        assert_eq!(h.received.len(), 2);
        assert_eq!(
            h.first_arrival_after(Time::from_millis(6)),
            Some(Time::from_millis(9) + Dur::from_micros(100))
        );
        assert!(ctx.commands.is_empty());
    }

    #[test]
    fn hh_harvester_raises_threshold_on_noisy_reports() {
        let mut h = HhThresholdHarvester::new("HH", 1000);
        h.max_hitters_per_report = 2;
        let mut ctx = HarvesterCtx::default();
        let noisy = Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        h.on_message(&msg(noisy, 1), &mut ctx);
        assert_eq!(h.threshold(), 2000);
        assert_eq!(
            ctx.commands,
            vec![HarvesterCommand::SendToMachine {
                machine: "HH".into(),
                value: Value::Int(2000)
            }]
        );
    }

    #[test]
    fn hh_harvester_lowers_threshold_after_quiet_period() {
        let mut h = HhThresholdHarvester::new("HH", 1000);
        h.lower_after_quiet = 3;
        let mut ctx = HarvesterCtx::default();
        for i in 0..3 {
            h.on_message(&msg(Value::List(vec![]), i), &mut ctx);
        }
        assert_eq!(h.threshold(), 500);
        assert_eq!(ctx.commands.len(), 1);
    }
}
