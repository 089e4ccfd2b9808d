//! Detection-quality scoring: match alarms against planted ground truth.
//!
//! Scoring rules (see EXPERIMENTS.md "Detection quality"):
//!
//! - A window counts as **detected** when at least one alarm fires inside
//!   `[start, end + grace]`; `grace` absorbs poll intervals and report
//!   latency.
//! - **Recall** = detected windows / labeled windows (1.0 when the task
//!   has no windows — nothing to miss).
//! - **Precision** = alarms covered by some window / all alarms (1.0 when
//!   the task raised no alarms — nothing false).
//! - **Time-to-detect** for a window is the first alarm at or after its
//!   start minus the start; `mean_ttd_ms` averages over detected windows.
//! - **Key precision/recall** compare the offending keys an alarm names
//!   (ports, source/destination addresses) against the window's planted
//!   key set; `None` when neither side names keys.

use std::collections::BTreeSet;

use farm_netsim::time::{Dur, Time};

use crate::truth::{LabelWindow, TruthKey};

/// One alarm extracted from a detector's harvester output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alarm {
    /// Arrival time at the harvester (poll time + report latency).
    pub at: Time,
    /// Offending keys the detector named, if any.
    pub keys: BTreeSet<TruthKey>,
}

/// Detection quality of one task on one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskScore {
    /// Labeled windows this task was responsible for.
    pub windows: usize,
    /// Windows with at least one covering alarm.
    pub detected: usize,
    /// Total alarms the task raised.
    pub alarms: usize,
    /// Alarms covered by at least one window.
    pub true_alarms: usize,
    /// `detected / windows` (1.0 when `windows == 0`).
    pub recall: f64,
    /// `true_alarms / alarms` (1.0 when `alarms == 0`).
    pub precision: f64,
    /// Mean time-to-detect over detected windows, in milliseconds.
    pub mean_ttd_ms: Option<f64>,
    /// Share of named alarm keys that the covering windows planted.
    pub key_precision: Option<f64>,
    /// Share of planted window keys that some covering alarm named.
    pub key_recall: Option<f64>,
}

/// Scores `alarms` against the task's `windows` with the given `grace`.
pub fn score(windows: &[&LabelWindow], alarms: &[Alarm], grace: Dur) -> TaskScore {
    let mut detected = 0usize;
    let mut ttd_ms = Vec::new();
    let mut keyed_windows = 0usize;
    let mut window_keys = 0usize;
    let mut window_keys_hit = 0usize;

    for w in windows {
        let covering: Vec<&Alarm> = alarms.iter().filter(|a| w.covers(a.at, grace)).collect();
        if covering.is_empty() {
            continue;
        }
        detected += 1;
        if let Some(first) = covering.iter().map(|a| a.at).min() {
            // Alarms can only arrive at or after the window start here
            // (covers() rejects earlier ones), so `since` never saturates.
            ttd_ms.push(first.since(w.start).as_nanos() as f64 / 1e6);
        }
        if !w.keys.is_empty() {
            keyed_windows += 1;
            window_keys += w.keys.len();
            let named: BTreeSet<&TruthKey> = covering.iter().flat_map(|a| a.keys.iter()).collect();
            window_keys_hit += w.keys.iter().filter(|k| named.contains(k)).count();
        }
    }

    let mut true_alarms = 0usize;
    let mut alarm_keys = 0usize;
    let mut alarm_keys_true = 0usize;
    for a in alarms {
        let covering: Vec<&&LabelWindow> =
            windows.iter().filter(|w| w.covers(a.at, grace)).collect();
        if covering.is_empty() {
            continue;
        }
        true_alarms += 1;
        if !a.keys.is_empty() {
            alarm_keys += a.keys.len();
            alarm_keys_true += a
                .keys
                .iter()
                .filter(|k| covering.iter().any(|w| w.keys.contains(k)))
                .count();
        }
    }

    TaskScore {
        windows: windows.len(),
        detected,
        alarms: alarms.len(),
        true_alarms,
        recall: if windows.is_empty() {
            1.0
        } else {
            detected as f64 / windows.len() as f64
        },
        precision: if alarms.is_empty() {
            1.0
        } else {
            true_alarms as f64 / alarms.len() as f64
        },
        mean_ttd_ms: if ttd_ms.is_empty() {
            None
        } else {
            Some(ttd_ms.iter().sum::<f64>() / ttd_ms.len() as f64)
        },
        key_precision: if alarm_keys == 0 {
            None
        } else {
            Some(alarm_keys_true as f64 / alarm_keys as f64)
        },
        key_recall: if keyed_windows == 0 {
            None
        } else {
            Some(window_keys_hit as f64 / window_keys as f64)
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::AttackKind;
    use farm_netsim::types::PortId;

    impl Alarm {
        /// An alarm that names no keys.
        fn at(at: Time) -> Alarm {
            Alarm {
                at,
                keys: BTreeSet::new(),
            }
        }
    }

    fn window(start_ms: u64, end_ms: u64, keys: &[TruthKey]) -> LabelWindow {
        LabelWindow {
            kind: AttackKind::HeavyHitter,
            start: Time::from_millis(start_ms),
            end: Time::from_millis(end_ms),
            keys: keys.iter().copied().collect(),
        }
    }

    fn keyed(at_ms: u64, keys: &[TruthKey]) -> Alarm {
        Alarm {
            at: Time::from_millis(at_ms),
            keys: keys.iter().copied().collect(),
        }
    }

    #[test]
    fn empty_truth_and_alarms_score_perfect() {
        let s = score(&[], &[], Dur::from_millis(100));
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.mean_ttd_ms, None);
        assert_eq!(s.key_precision, None);
        assert_eq!(s.key_recall, None);
    }

    #[test]
    fn missed_window_and_false_alarm() {
        let w1 = window(1000, 2000, &[]);
        let w2 = window(5000, 6000, &[]);
        let alarms = vec![
            Alarm::at(Time::from_millis(1500)),
            Alarm::at(Time::from_millis(9000)),
        ];
        let s = score(&[&w1, &w2], &alarms, Dur::from_millis(200));
        assert_eq!(s.detected, 1);
        assert_eq!(s.recall, 0.5);
        assert_eq!(s.true_alarms, 1);
        assert_eq!(s.precision, 0.5);
        assert_eq!(s.mean_ttd_ms, Some(500.0));
    }

    #[test]
    fn ttd_uses_first_covering_alarm() {
        let w = window(1000, 3000, &[]);
        let alarms = vec![
            Alarm::at(Time::from_millis(2500)),
            Alarm::at(Time::from_millis(1200)),
        ];
        let s = score(&[&w], &alarms, Dur::ZERO);
        assert_eq!(s.mean_ttd_ms, Some(200.0));
    }

    #[test]
    fn key_scores_compare_named_against_planted() {
        let p = |n: u16| TruthKey::Port(PortId(n));
        let w = window(1000, 2000, &[p(1), p(2), p(3)]);
        // Names two real keys and one wrong one.
        let alarms = vec![keyed(1500, &[p(1), p(2), p(9)])];
        let s = score(&[&w], &alarms, Dur::ZERO);
        assert_eq!(s.key_recall, Some(2.0 / 3.0));
        assert_eq!(s.key_precision, Some(2.0 / 3.0));
    }

    #[test]
    fn alarm_in_grace_counts() {
        let w = window(1000, 2000, &[]);
        let alarms = vec![Alarm::at(Time::from_millis(2300))];
        let s = score(&[&w], &alarms, Dur::from_millis(400));
        assert_eq!(s.detected, 1);
        assert_eq!(s.true_alarms, 1);
        // TTD measured from window start even when the alarm lands in grace.
        assert_eq!(s.mean_ttd_ms, Some(1300.0));
    }
}
