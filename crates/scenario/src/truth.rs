//! Planted ground-truth labels: what a perfect detector would report.

use std::collections::BTreeSet;

use farm_netsim::time::{Dur, Time};
use farm_netsim::types::{Ipv4, PortId};

/// The class of hostile behavior a label window marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttackKind {
    /// Legitimate but sudden demand surge onto a few service ports.
    FlashCrowd,
    /// An injected volume anomaly riding on top of slow diurnal drift.
    VolumeBurst,
    /// Volumetric flood toward one victim from many sources.
    Ddos,
    /// One source probing many destination ports.
    PortScan,
    /// Repeated SSH connection attempts from one source.
    SshBruteForce,
    /// A port transmitting at the heavy rate (per churn epoch).
    HeavyHitter,
    /// A sub-ms burst saturating one port.
    Microburst,
}

/// An offending entity a detector can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TruthKey {
    /// A switch port carrying the hostile traffic.
    Port(PortId),
    /// The offending source address (scanner, brute-forcer).
    Src(Ipv4),
    /// The targeted destination address (flood victim).
    Dst(Ipv4),
}

/// One labeled attack window: the kind, its extent in virtual time, and
/// the offending keys active during it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelWindow {
    pub kind: AttackKind,
    /// First instant the hostile traffic is on the wire.
    pub start: Time,
    /// Last instant (inclusive) the hostile traffic is on the wire.
    pub end: Time,
    /// Offending keys; empty when the anomaly has no nameable key
    /// (e.g. an aggregate volume shift).
    pub keys: BTreeSet<TruthKey>,
}

impl LabelWindow {
    /// True when an alarm at `t` counts as detecting this window:
    /// inside the window, or within the post-window `grace` that absorbs
    /// polling intervals and report latency.
    pub(crate) fn covers(&self, t: Time, grace: Dur) -> bool {
        t >= self.start && t <= self.end + grace
    }
}

/// All labels planted in one scenario.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroundTruth {
    pub windows: Vec<LabelWindow>,
}

impl GroundTruth {
    pub(crate) fn push(&mut self, w: LabelWindow) {
        self.windows.push(w);
    }

    /// Windows of the given kinds, in label order.
    pub fn of_kinds(&self, kinds: &[AttackKind]) -> Vec<&LabelWindow> {
        self.windows
            .iter()
            .filter(|w| kinds.contains(&w.kind))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_includes_grace() {
        let w = LabelWindow {
            kind: AttackKind::Ddos,
            start: Time::from_secs(1),
            end: Time::from_secs(2),
            keys: BTreeSet::new(),
        };
        let grace = Dur::from_millis(500);
        assert!(!w.covers(Time::from_millis(999), grace));
        assert!(w.covers(Time::from_secs(1), grace));
        assert!(w.covers(Time::from_millis(2400), grace));
        assert!(!w.covers(Time::from_millis(2501), grace));
    }

    #[test]
    fn of_kinds_filters() {
        let mut t = GroundTruth::default();
        for kind in [AttackKind::Ddos, AttackKind::PortScan, AttackKind::Ddos] {
            t.push(LabelWindow {
                kind,
                start: Time::ZERO,
                end: Time::from_secs(1),
                keys: BTreeSet::new(),
            });
        }
        assert_eq!(t.of_kinds(&[AttackKind::Ddos]).len(), 2);
        assert_eq!(
            t.of_kinds(&[AttackKind::PortScan, AttackKind::Ddos]).len(),
            3
        );
    }
}
