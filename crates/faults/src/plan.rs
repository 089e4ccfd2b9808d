//! Deterministic fault schedules.
//!
//! A [`FaultPlan`] is an explicit list of timed [`FaultEvent`]s, optionally
//! generated from a seed by [`FaultPlan::churn`]. Plans are data, not
//! behaviour: the runtime pulls due events out of a [`FaultInjector`] as
//! virtual time advances and applies them to the network/runtime itself.
//! Because schedules are fully determined by their inputs, any failure found
//! under churn can be replayed from the plan seed alone.

use farm_netsim::time::{Dur, Time};
use farm_netsim::types::SwitchId;

use crate::loss::LossSpec;
use rand::{RngExt, SeedableRng, SplitMix64};

/// One kind of injected failure (or the matching repair).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The switch dies: its ASIC/CPU state and the Soil runtime on it are
    /// lost; seeds hosted there become orphans.
    SwitchCrash { switch: SwitchId },
    /// The switch comes back cold (empty TCAM, no seeds).
    SwitchRestart { switch: SwitchId },
    /// The link between `a` and `b` stops carrying traffic.
    LinkDown { a: SwitchId, b: SwitchId },
    /// The link between `a` and `b` is restored.
    LinkUp { a: SwitchId, b: SwitchId },
    /// Control-channel impairment for one switch (`Some`) or the whole
    /// management network (`None`).
    ControlLoss {
        switch: Option<SwitchId>,
        spec: LossSpec,
    },
    /// Clears a previous [`FaultKind::ControlLoss`] for the same scope.
    ControlHeal { switch: Option<SwitchId> },
    /// PCIe bandwidth between ASIC and switch CPU degrades to
    /// `factor` × nominal (`0 < factor <= 1`).
    PcieDegrade { switch: SwitchId, factor: f64 },
    /// Restores nominal PCIe bandwidth.
    PcieRestore { switch: SwitchId },
}

impl FaultKind {
    /// Stable ordering key so simultaneous events apply in a reproducible
    /// order (repairs before new failures at the same instant).
    fn order_key(&self) -> (u8, u64, u64) {
        match *self {
            FaultKind::SwitchRestart { switch } => (0, switch.0 as u64, 0),
            FaultKind::LinkUp { a, b } => (1, a.0 as u64, b.0 as u64),
            FaultKind::ControlHeal { switch } => (2, switch.map_or(u64::MAX, |s| s.0 as u64), 0),
            FaultKind::PcieRestore { switch } => (3, switch.0 as u64, 0),
            FaultKind::SwitchCrash { switch } => (4, switch.0 as u64, 0),
            FaultKind::LinkDown { a, b } => (5, a.0 as u64, b.0 as u64),
            FaultKind::ControlLoss { switch, .. } => {
                (6, switch.map_or(u64::MAX, |s| s.0 as u64), 0)
            }
            FaultKind::PcieDegrade { switch, .. } => (7, switch.0 as u64, 0),
        }
    }
}

/// A failure scheduled at a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub at: Time,
    pub kind: FaultKind,
}

/// Knobs for the seeded churn generator ([`FaultPlan::churn`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnProfile {
    /// Mean gap between consecutive injected faults.
    pub mean_gap: Dur,
    /// How long a crashed switch stays down before restarting.
    pub crash_outage: Dur,
    /// How long a downed link stays down.
    pub link_outage: Dur,
    /// Relative weight of switch crashes vs. link flaps vs. PCIe
    /// degradation, in that order. Zero disables a class.
    pub weights: [u32; 3],
    /// Degradation factor applied by PCIe faults.
    pub pcie_factor: f64,
    /// How long PCIe degradation lasts.
    pub pcie_outage: Dur,
}

impl Default for ChurnProfile {
    fn default() -> Self {
        ChurnProfile {
            mean_gap: Dur::from_millis(40),
            crash_outage: Dur::from_millis(60),
            link_outage: Dur::from_millis(30),
            weights: [2, 2, 1],
            pcie_factor: 0.25,
            pcie_outage: Dur::from_millis(50),
        }
    }
}

/// An ordered, deterministic schedule of faults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (the fault-free baseline).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds one event; events may be pushed in any order.
    pub fn push(&mut self, at: Time, kind: FaultKind) -> &mut Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// Builder-style [`FaultPlan::push`].
    pub fn with(mut self, at: Time, kind: FaultKind) -> FaultPlan {
        self.push(at, kind);
        self
    }

    /// Convenience: crash at `at`, restart `outage` later.
    pub fn crash_and_restart(mut self, switch: SwitchId, at: Time, outage: Dur) -> FaultPlan {
        self.push(at, FaultKind::SwitchCrash { switch });
        self.push(at + outage, FaultKind::SwitchRestart { switch });
        self
    }

    /// Convenience: link down at `at`, back up `outage` later.
    pub fn link_flap(mut self, a: SwitchId, b: SwitchId, at: Time, outage: Dur) -> FaultPlan {
        self.push(at, FaultKind::LinkDown { a, b });
        self.push(at + outage, FaultKind::LinkUp { a, b });
        self
    }

    /// Generates a randomized-but-deterministic churn schedule over
    /// `switches` within `[start, end)`. Equal inputs yield equal plans.
    pub fn churn(
        seed: u64,
        switches: &[SwitchId],
        start: Time,
        end: Time,
        profile: ChurnProfile,
    ) -> FaultPlan {
        let mut plan = FaultPlan::new();
        if switches.is_empty() || end <= start || profile.mean_gap.is_zero() {
            return plan.sorted();
        }
        let mut rng = SplitMix64::seed_from_u64(seed);
        let total: u32 = profile.weights.iter().sum();
        if total == 0 {
            return plan.sorted();
        }
        let mut t = start;
        loop {
            // Exponential-ish gap: uniform in [0.5, 1.5) × mean keeps the
            // schedule aperiodic without needing a log().
            let gap = profile.mean_gap.mul_f64(0.5 + rng.random::<f64>());
            t += gap;
            if t >= end {
                break;
            }
            let mut pick = rng.random_range(0..total);
            let sw = switches[rng.random_range(0..switches.len())];
            if pick < profile.weights[0] {
                plan = plan.crash_and_restart(sw, t, profile.crash_outage);
                continue;
            }
            pick -= profile.weights[0];
            if pick < profile.weights[1] {
                let other = switches[rng.random_range(0..switches.len())];
                if other != sw {
                    plan = plan.link_flap(sw, other, t, profile.link_outage);
                }
                continue;
            }
            plan.push(
                t,
                FaultKind::PcieDegrade {
                    switch: sw,
                    factor: profile.pcie_factor,
                },
            );
            plan.push(
                t + profile.pcie_outage,
                FaultKind::PcieRestore { switch: sw },
            );
        }
        plan.sorted()
    }

    fn sorted(mut self) -> FaultPlan {
        self.sort();
        self
    }

    fn sort(&mut self) {
        self.events.sort_by_key(|e| (e.at, e.kind.order_key()));
    }
}

/// Cursor over a [`FaultPlan`] that hands out events as time advances.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultInjector {
    plan: FaultPlan,
    next: usize,
}

impl FaultInjector {
    /// Wraps a plan; the plan is (re-)sorted into application order.
    pub fn new(mut plan: FaultPlan) -> FaultInjector {
        plan.sort();
        FaultInjector { plan, next: 0 }
    }

    /// All events with `at <= now` that have not been handed out yet,
    /// in application order.
    pub fn take_due(&mut self, now: Time) -> Vec<FaultEvent> {
        let start = self.next;
        while self.next < self.plan.events.len() && self.plan.events[self.next].at <= now {
            self.next += 1;
        }
        self.plan.events[start..self.next].to_vec()
    }

    /// Instant of the next pending event, if any.
    pub fn next_at(&self) -> Option<Time> {
        self.plan.events.get(self.next).map(|e| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sw(n: u32) -> SwitchId {
        SwitchId(n)
    }

    #[test]
    fn plan_sorts_events_by_time_then_kind() {
        let plan = FaultPlan::new()
            .with(
                Time::from_millis(9),
                FaultKind::SwitchCrash { switch: sw(2) },
            )
            .with(
                Time::from_millis(3),
                FaultKind::SwitchCrash { switch: sw(1) },
            )
            .with(
                Time::from_millis(9),
                FaultKind::SwitchRestart { switch: sw(1) },
            );
        let mut inj = FaultInjector::new(plan);
        let due = inj.take_due(Time::from_millis(10));
        assert_eq!(due.len(), 3);
        assert_eq!(due[0].at, Time::from_millis(3));
        // At t=9 the restart (repair) applies before the crash.
        assert_eq!(due[1].kind, FaultKind::SwitchRestart { switch: sw(1) });
        assert_eq!(due[2].kind, FaultKind::SwitchCrash { switch: sw(2) });
    }

    #[test]
    fn injector_hands_out_each_event_once() {
        let plan =
            FaultPlan::new().crash_and_restart(sw(0), Time::from_millis(5), Dur::from_millis(10));
        let mut inj = FaultInjector::new(plan);
        assert!(inj.take_due(Time::from_millis(1)).is_empty());
        assert_eq!(inj.take_due(Time::from_millis(5)).len(), 1);
        assert!(inj.take_due(Time::from_millis(5)).is_empty());
        assert_eq!(inj.take_due(Time::from_millis(60)).len(), 1);
        assert_eq!(inj.next_at(), None);
        assert_eq!(inj.next_at(), None);
    }

    #[test]
    fn churn_is_deterministic_in_seed() {
        let switches: Vec<SwitchId> = (0..6).map(sw).collect();
        let a = FaultPlan::churn(
            77,
            &switches,
            Time::ZERO,
            Time::from_secs(1),
            ChurnProfile::default(),
        );
        let b = FaultPlan::churn(
            77,
            &switches,
            Time::ZERO,
            Time::from_secs(1),
            ChurnProfile::default(),
        );
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
        let c = FaultPlan::churn(
            78,
            &switches,
            Time::ZERO,
            Time::from_secs(1),
            ChurnProfile::default(),
        );
        assert_ne!(a, c);
    }

    #[test]
    fn churn_pairs_failures_with_repairs() {
        let switches: Vec<SwitchId> = (0..4).map(sw).collect();
        let plan = FaultPlan::churn(
            5,
            &switches,
            Time::ZERO,
            Time::from_secs(2),
            ChurnProfile::default(),
        );
        let crashes = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::SwitchCrash { .. }))
            .count();
        let restarts = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::SwitchRestart { .. }))
            .count();
        assert_eq!(crashes, restarts);
        let degrades = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::PcieDegrade { .. }))
            .count();
        let restores = plan
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::PcieRestore { .. }))
            .count();
        assert_eq!(degrades, restores);
    }

    #[test]
    fn empty_inputs_yield_empty_plans() {
        assert!(FaultPlan::churn(
            1,
            &[],
            Time::ZERO,
            Time::from_secs(1),
            ChurnProfile::default()
        )
        .events
        .is_empty());
        assert!(FaultPlan::churn(
            1,
            &[sw(0)],
            Time::from_secs(1),
            Time::from_secs(1),
            ChurnProfile::default()
        )
        .events
        .is_empty());
    }
}
