//! End-to-end detection-quality gates over the hostile-traffic scenario
//! suite (crates/scenario → netsim → soil → harvester → scorer).
//!
//! On seeds 7, 42 and 1337, every FARM task in the smoke suite must clear
//! fixed quality floors — recall ≥ 0.9 and precision ≥ 0.8 against the
//! planted ground truth — and detect within twice its committed mean
//! time-to-detect; and the whole pipeline must be deterministic:
//! replaying the same seed yields an identical run.

use farm_bench::detection::{drive, PRECISION_FLOOR, RECALL_FLOOR};
use farm_scenario::{ScenarioClass, ScenarioScale, ScenarioSpec};

const SEEDS: [u64; 3] = [7, 42, 1337];

/// A task's mean time-to-detect may grow to this multiple of its
/// committed value.
const TTD_CEILING: f64 = 2.0;

/// Mean time-to-detect (ms) of each FARM task on the smoke suite, as
/// measured at seed 42. The three seeds agree to within 0.1 ms.
const COMMITTED_TTD_MS: [(&str, &str, f64); 14] = [
    ("flash_crowd", "hh", 10.91),
    ("flash_crowd", "kiss_volume", 10.91),
    ("flash_crowd", "kiss_spike", 10.93),
    ("diurnal_drift", "hh", 10.90),
    ("diurnal_drift", "kiss_volume", 10.90),
    ("diurnal_drift", "kiss_spike", 10.92),
    ("multi_vector", "ddos", 50.03),
    ("multi_vector", "portscan", 1000.0),
    ("multi_vector", "ssh_brute", 3000.0),
    ("churn_hh", "hh", 2.94),
    ("churn_hh", "hhh2", 3.73),
    ("churn_hh", "kiss_spike", 2.96),
    ("microburst", "dig_microburst", 10.89),
    ("microburst", "hh", 10.89),
];

fn floors_hold(class: ScenarioClass) {
    for seed in SEEDS {
        let run = drive(&ScenarioSpec {
            class,
            scale: ScenarioScale::Smoke,
            seed,
        })
        .unwrap();
        let farm: Vec<_> = run.tasks.iter().filter(|t| t.system == "farm").collect();
        assert!(farm.len() >= 2, "{}: suite too small: {farm:?}", run.class);
        // sFlow/Sonata are comparison points, not gated.
        for t in farm {
            let at = format!("{}/{} seed {seed}", run.class, t.task);
            let s = &t.score;
            assert!(
                s.recall >= RECALL_FLOOR,
                "{at}: recall {:.2} below floor {RECALL_FLOOR} ({s:?})",
                s.recall
            );
            assert!(
                s.precision >= PRECISION_FLOOR,
                "{at}: precision {:.2} below floor {PRECISION_FLOOR} ({s:?})",
                s.precision
            );
            let committed = COMMITTED_TTD_MS
                .iter()
                .find(|(c, task, _)| *c == run.class && *task == t.task)
                .map(|(_, _, ms)| *ms)
                .unwrap_or_else(|| panic!("{at}: no committed time-to-detect"));
            let ttd = s.mean_ttd_ms.expect("a task that detects has a TTD");
            assert!(
                ttd <= TTD_CEILING * committed,
                "{at}: mean TTD {ttd:.2} ms above {TTD_CEILING}x its committed {committed} ms"
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "interpreter-bound replay; run with --release (CI: detection-smoke)"
)]
fn flash_crowd_meets_floors() {
    floors_hold(ScenarioClass::FlashCrowd);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "interpreter-bound replay; run with --release (CI: detection-smoke)"
)]
fn diurnal_drift_meets_floors() {
    floors_hold(ScenarioClass::DiurnalDrift);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "interpreter-bound replay; run with --release (CI: detection-smoke)"
)]
fn multi_vector_meets_floors() {
    floors_hold(ScenarioClass::MultiVector);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "interpreter-bound replay; run with --release (CI: detection-smoke)"
)]
fn churn_hh_meets_floors() {
    floors_hold(ScenarioClass::ChurnHh);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "interpreter-bound replay; run with --release (CI: detection-smoke)"
)]
fn microburst_meets_floors() {
    floors_hold(ScenarioClass::Microburst);
}

/// Identical seeds ⇒ identical runs, down to every score, trace count and
/// soil counter: the floors and ceilings above hold for a seed, not for
/// one lucky replay of it.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "interpreter-bound replay; run with --release (CI: detection-smoke)"
)]
fn identical_seeds_produce_identical_bench_bodies() {
    let spec = ScenarioSpec {
        class: ScenarioClass::FlashCrowd,
        scale: ScenarioScale::Smoke,
        seed: 1337,
    };
    let a = format!("{:?}", drive(&spec).unwrap());
    let b = format!("{:?}", drive(&spec).unwrap());
    assert_eq!(a, b, "same seed must replay identically");
    // And a different seed must actually change the measured trace.
    let c = drive(&ScenarioSpec { seed: 7, ..spec }).unwrap();
    assert_ne!(format!("{c:?}"), a, "different seed left the run unchanged");
    // 3 FARM tasks and the sFlow/Sonata rows, all scored on a real trace.
    assert_eq!(c.tasks.len(), 5, "{:?}", c.tasks);
    assert!(c.events > 0 && c.distinct_flows > 0 && c.soil_asic_polls > 0);
    for t in &c.tasks {
        assert!((0.0..=1.0).contains(&t.score.precision), "{t:?}");
        assert!((0.0..=1.0).contains(&t.score.recall), "{t:?}");
    }
}
