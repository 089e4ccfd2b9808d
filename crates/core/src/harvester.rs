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
pub enum HarvesterCommand {
    /// Send a value to all seeds of a machine (or one switch's seed when
    /// `at` is set).
    SendToMachine {
        machine: String,
        at: Option<SwitchId>,
        value: Value,
    },
}

/// Per-delivery context handed to a harvester.
#[derive(Debug)]
pub struct HarvesterCtx {
    pub now: Time,
    pub commands: Vec<HarvesterCommand>,
}

impl HarvesterCtx {
    pub fn new(now: Time) -> HarvesterCtx {
        HarvesterCtx {
            now,
            commands: Vec::new(),
        }
    }

    /// Queues a broadcast to every seed of `machine`.
    pub fn send_to_machine(&mut self, machine: impl Into<String>, value: Value) {
        self.commands.push(HarvesterCommand::SendToMachine {
            machine: machine.into(),
            at: None,
            value,
        });
    }

    /// Queues a message to the seed of `machine` on one switch.
    pub fn send_to_seed_at(&mut self, machine: impl Into<String>, at: SwitchId, value: Value) {
        self.commands.push(HarvesterCommand::SendToMachine {
            machine: machine.into(),
            at: Some(at),
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
    pub at: Time,
    /// Switch-local latency until it hit the wire.
    pub latency: Dur,
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
    pub lower_after_quiet: u32,
    quiet: u32,
    pub reports: u64,
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

/// DDoS harvester: tracks per-switch mitigation reports and releases the
/// mitigation once every switch has been quiet for a grace period.
#[derive(Debug)]
pub struct DdosHarvester {
    machine: String,
    grace: Dur,
    last_alarm: Option<(SwitchId, Time)>,
    pub alarms: u64,
    pub releases: u64,
}

impl DdosHarvester {
    pub fn new(machine: impl Into<String>, grace: Dur) -> Self {
        DdosHarvester {
            machine: machine.into(),
            grace,
            last_alarm: None,
            alarms: 0,
            releases: 0,
        }
    }
}

impl Harvester for DdosHarvester {
    fn on_message(&mut self, msg: &OutboundMessage, ctx: &mut HarvesterCtx) {
        match &msg.value {
            Value::List(victims) if !victims.is_empty() => {
                self.alarms += 1;
                self.last_alarm = Some((msg.from_switch, msg.at));
            }
            _ => {
                // Quiet/recovery report: release when the grace period
                // since the last alarm has elapsed.
                if let Some((sw, at)) = self.last_alarm {
                    if msg.at.since(at) >= self.grace {
                        self.releases += 1;
                        self.last_alarm = None;
                        ctx.send_to_seed_at(self.machine.clone(), sw, Value::Str("release".into()));
                    }
                }
            }
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
        let mut ctx = HarvesterCtx::new(Time::from_millis(1));
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
        let mut ctx = HarvesterCtx::new(Time::ZERO);
        let noisy = Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        h.on_message(&msg(noisy, 1), &mut ctx);
        assert_eq!(h.threshold(), 2000);
        assert_eq!(
            ctx.commands,
            vec![HarvesterCommand::SendToMachine {
                machine: "HH".into(),
                at: None,
                value: Value::Int(2000)
            }]
        );
    }

    #[test]
    fn hh_harvester_lowers_threshold_after_quiet_period() {
        let mut h = HhThresholdHarvester::new("HH", 1000);
        h.lower_after_quiet = 3;
        let mut ctx = HarvesterCtx::new(Time::ZERO);
        for i in 0..3 {
            h.on_message(&msg(Value::List(vec![]), i), &mut ctx);
        }
        assert_eq!(h.threshold(), 500);
        assert_eq!(ctx.commands.len(), 1);
    }

    #[test]
    fn ddos_harvester_releases_after_grace() {
        let mut h = DdosHarvester::new("DDoS", Dur::from_millis(100));
        let mut ctx = HarvesterCtx::new(Time::ZERO);
        h.on_message(
            &msg(Value::List(vec![Value::Str("10.0.0.1".into())]), 10),
            &mut ctx,
        );
        assert_eq!(h.alarms, 1);
        // Quiet report before the grace elapses: no release.
        h.on_message(&msg(Value::Int(0), 50), &mut ctx);
        assert_eq!(h.releases, 0);
        // After the grace: release to the alarming switch.
        h.on_message(&msg(Value::Int(0), 150), &mut ctx);
        assert_eq!(h.releases, 1);
        assert!(matches!(
            &ctx.commands[0],
            HarvesterCommand::SendToMachine {
                at: Some(SwitchId(3)),
                ..
            }
        ));
    }
}
