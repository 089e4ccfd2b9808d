//! The typed event stream.
//!
//! Every observable state change in the FARM stack maps to one [`Event`]
//! variant. Events carry plain scalars (switch ids as `u32`, times and
//! latencies as nanoseconds in `u64`) so this crate sits below every
//! runtime crate without depending on any of them.

use std::fmt;

/// Why a seed left a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum UndeployReason {
    /// The owning task was removed.
    TaskRemoved,
    /// The seed is leaving as the first half of a migration.
    Migration,
    /// The replanner dropped the placement.
    Replanned,
    /// The soil shed the seed under resource pressure.
    Shed,
    /// The hosting switch was declared failed; the seed was fenced off.
    Fenced,
}

/// Which budget forced a soil to shed seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PressureResource {
    /// PCIe poll bandwidth between ASIC and switch CPU.
    PciePoll,
    /// Switch CPU.
    Cpu,
    /// TCAM entries.
    Tcam,
    /// Switch memory.
    Ram,
}

/// Outcome of one replanning round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplanOutcome {
    /// Every task kept or obtained a feasible placement.
    Full,
    /// Some tasks had to be dropped.
    Partial,
}

/// One observable state change somewhere in the FARM stack.
///
/// All times are absolute simulation nanoseconds (`at_ns`), all
/// durations are nanoseconds, all byte quantities are bytes. Switch ids
/// are the raw `u32` behind `farm_netsim::types::SwitchId`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Event {
    /// A seed instance started executing on a switch.
    SeedDeployed {
        at_ns: u64,
        switch: u32,
        seed: u64,
        task: String,
        /// PCIe poll budget granted, polls per second.
        poll_interval_ns: u64,
    },
    /// A seed instance stopped executing on a switch.
    SeedUndeployed {
        at_ns: u64,
        switch: u32,
        seed: u64,
        task: String,
        reason: UndeployReason,
    },
    /// A seed moved between switches (emitted once per move, at commit).
    SeedMigrated {
        at_ns: u64,
        from_switch: u32,
        to_switch: u32,
        task: String,
        /// Serialized state carried across, bytes.
        state_bytes: u64,
    },
    /// A seed's interpreter hit a runtime error.
    SeedErrored {
        at_ns: u64,
        switch: u32,
        seed: u64,
        message: String,
    },
    /// A seed issued an ASIC poll over PCIe.
    PollIssued {
        at_ns: u64,
        switch: u32,
        seed: u64,
        /// Port-stat entries fetched by the poll.
        subjects: u64,
        /// Queueing + transfer time on the PCIe bus.
        latency_ns: u64,
    },
    /// Poll aggregation served a group of seeds from one ASIC read.
    PollAggregated {
        at_ns: u64,
        switch: u32,
        /// Seeds sharing the single poll.
        group: u64,
        /// ASIC reads avoided (`group - 1`).
        saved: u64,
    },
    /// The PCIe bus of a switch crossed into (or out of) saturation.
    PcieSaturation {
        switch: u32,
        /// Offered load / capacity for the current window.
        utilization: f64,
        /// True when entering saturation, false when recovering.
        saturated: bool,
    },
    /// A message crossed the soil↔seed channel.
    ChannelDelivery {
        at_ns: u64,
        switch: u32,
        seed: u64,
        bytes: u64,
        /// Modeled one-hop IPC latency.
        latency_ns: u64,
    },
    /// One named phase of a placement/LP solve finished.
    SolverPhase {
        /// Phase label, e.g. `"greedy"`, `"lp_redistribution"`.
        phase: &'static str,
        /// The phase span's duration on the clock of the caller's `SpanLog`.
        elapsed_ns: u64,
        /// Items handled in the phase (tasks, switches, pivots...).
        items: u64,
    },
    /// A replanning round completed.
    ReplanCompleted {
        at_ns: u64,
        outcome: ReplanOutcome,
        actions: u64,
        dropped_tasks: u64,
    },
    /// A report reached a harvester (detection path closed).
    HarvesterReport {
        at_ns: u64,
        task: String,
        from_switch: u32,
        bytes: u64,
        /// Source-to-harvester latency of the report.
        latency_ns: u64,
    },
    /// A switch crashed; Soil state on it is lost.
    SwitchCrashed { at_ns: u64, switch: u32 },
    /// A crashed switch came back cold.
    SwitchRestarted { at_ns: u64, switch: u32 },
    /// A fabric link went down.
    LinkDown { at_ns: u64, a: u32, b: u32 },
    /// A downed fabric link was restored.
    LinkUp { at_ns: u64, a: u32, b: u32 },
    /// The failure detector declared a switch dead after missing
    /// heartbeats.
    SwitchDeclaredFailed {
        at_ns: u64,
        switch: u32,
        /// Consecutive heartbeats missed before declaring failure.
        missed: u64,
    },
    /// A seed lost its host (crash or fencing) and awaits re-placement.
    SeedOrphaned {
        at_ns: u64,
        switch: u32,
        seed: u64,
        task: String,
        /// True when a checkpointed snapshot exists to restore from.
        has_snapshot: bool,
    },
    /// A soil shed a seed under resource pressure instead of failing the
    /// tick.
    SeedShed {
        at_ns: u64,
        switch: u32,
        seed: u64,
        task: String,
        resource: PressureResource,
        /// Demand on the pressured resource after degradation.
        demand: f64,
        /// Remaining budget on the pressured resource.
        budget: f64,
    },
    /// An orphaned or shed seed was re-placed and resumed.
    SeedRecovered {
        at_ns: u64,
        /// Switch the seed landed on.
        switch: u32,
        seed: u64,
        task: String,
        /// True when the seed restarted without a snapshot.
        cold_start: bool,
        /// Outage duration: orphaned/shed until re-deployed.
        mttr_ns: u64,
        /// Re-placement attempts consumed (1 = first try succeeded).
        attempts: u64,
    },
    /// Recovery for a seed was abandoned after exhausting retries.
    RecoveryAbandoned {
        at_ns: u64,
        task: String,
        seed: u64,
        attempts: u64,
    },
    /// A harvester delivery was dropped by the control channel and will
    /// be retried.
    DeliveryRetried {
        at_ns: u64,
        from_switch: u32,
        task: String,
        /// Retry number (1 = first retry).
        attempt: u64,
    },
    /// A harvester delivery exhausted its retries and was dead-lettered.
    DeliveryDeadLettered {
        at_ns: u64,
        from_switch: u32,
        task: String,
        attempts: u64,
    },
    /// A replanning round's plan, broken down by action type (the
    /// companion [`Event::ReplanCompleted`] carries only the total).
    ReplanSummary {
        at_ns: u64,
        /// Planning + commit time, microseconds: the duration of the
        /// round's `replan` span on the clock of the caller's `SpanLog`.
        elapsed_us: u64,
        deploys: u64,
        migrations: u64,
        reallocs: u64,
        undeploys: u64,
    },
    /// A control-plane operation was served (the farmd audit trail).
    ControlOp {
        at_ns: u64,
        /// Operation tag, e.g. `"submit"`, `"drain"`, `"shutdown"`.
        op: String,
        /// `"ok"`, `"rejected"`, or `"error"`.
        outcome: String,
        /// Wall-clock service time, microseconds.
        elapsed_us: u64,
    },
}

impl Event {
    /// Stable kebab-case tag for the variant, used as the JSON `event`
    /// field and for quick filtering in sinks.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::SeedDeployed { .. } => "seed-deployed",
            Event::SeedUndeployed { .. } => "seed-undeployed",
            Event::SeedMigrated { .. } => "seed-migrated",
            Event::SeedErrored { .. } => "seed-errored",
            Event::PollIssued { .. } => "poll-issued",
            Event::PollAggregated { .. } => "poll-aggregated",
            Event::PcieSaturation { .. } => "pcie-saturation",
            Event::ChannelDelivery { .. } => "channel-delivery",
            Event::SolverPhase { .. } => "solver-phase",
            Event::ReplanCompleted { .. } => "replan-completed",
            Event::HarvesterReport { .. } => "harvester-report",
            Event::SwitchCrashed { .. } => "switch-crashed",
            Event::SwitchRestarted { .. } => "switch-restarted",
            Event::LinkDown { .. } => "link-down",
            Event::LinkUp { .. } => "link-up",
            Event::SwitchDeclaredFailed { .. } => "switch-declared-failed",
            Event::SeedOrphaned { .. } => "seed-orphaned",
            Event::SeedShed { .. } => "seed-shed",
            Event::SeedRecovered { .. } => "seed-recovered",
            Event::RecoveryAbandoned { .. } => "recovery-abandoned",
            Event::DeliveryRetried { .. } => "delivery-retried",
            Event::DeliveryDeadLettered { .. } => "delivery-dead-lettered",
            Event::ReplanSummary { .. } => "replan-summary",
            Event::ControlOp { .. } => "control-op",
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_kebab_case() {
        let events = [
            Event::SeedDeployed {
                at_ns: 0,
                switch: 0,
                seed: 0,
                task: String::new(),
                poll_interval_ns: 0,
            },
            Event::PollAggregated {
                at_ns: 0,
                switch: 0,
                group: 2,
                saved: 1,
            },
            Event::SolverPhase {
                phase: "greedy",
                elapsed_ns: 1,
                items: 1,
            },
            Event::SwitchCrashed {
                at_ns: 0,
                switch: 1,
            },
            Event::SeedOrphaned {
                at_ns: 0,
                switch: 1,
                seed: 2,
                task: String::new(),
                has_snapshot: true,
            },
            Event::SeedRecovered {
                at_ns: 0,
                switch: 2,
                seed: 2,
                task: String::new(),
                cold_start: false,
                mttr_ns: 7,
                attempts: 1,
            },
            Event::DeliveryDeadLettered {
                at_ns: 0,
                from_switch: 1,
                task: String::new(),
                attempts: 3,
            },
        ];
        let kinds: Vec<_> = events.iter().map(Event::kind).collect();
        assert_eq!(
            kinds,
            [
                "seed-deployed",
                "poll-aggregated",
                "solver-phase",
                "switch-crashed",
                "seed-orphaned",
                "seed-recovered",
                "delivery-dead-lettered",
            ]
        );
        for k in kinds {
            assert!(k.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }
}
