//! Fig. 6 — switch CPU load and polling accuracy with many co-located
//! seeds: HH at 1 ms / 10 ms accuracy (a/b) and the CPU-intensive ML task
//! at 1 ms × 1 iteration / 10 ms × 10 iterations (c/d).
//!
//! Polling accuracy is the fraction of the demanded polling work the CPU
//! can actually retire: it degrades once demanded load exceeds the
//! switch's cores (the context-switch regime of Fig. 6c, where the paper
//! partitions the ML task — Fig. 6d — to recover).

use farm_netsim::time::{Dur, Time};
use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig};

use crate::support::{colocated, hh_source_at, ml_source_at};

/// One bar of a Fig. 6 panel.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedScalingRow {
    pub seeds: usize,
    pub cpu_percent: f64,
    pub accuracy_percent: f64,
}

/// Which panel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Panel {
    /// (a) HH, 1 ms accuracy.
    HhFast,
    /// (b) HH, 10 ms accuracy.
    HhSlow,
    /// (c) ML, 1 ms accuracy, 1 iteration per poll.
    MlParallel,
    /// (d) ML, 10 ms accuracy, 10 iterations per poll (partitioned).
    MlPartitioned,
}

impl Panel {
    pub fn label(&self) -> &'static str {
        match self {
            Panel::HhFast => "HH 1ms",
            Panel::HhSlow => "HH 10ms",
            Panel::MlParallel => "ML 1ms x1",
            Panel::MlPartitioned => "ML 10ms x10",
        }
    }

    fn source(&self, switch: u32) -> String {
        match self {
            Panel::HhFast => hh_source_at(1, switch, i64::MAX / 4),
            Panel::HhSlow => hh_source_at(10, switch, i64::MAX / 4),
            Panel::MlParallel => ml_source_at(1, switch, 1),
            Panel::MlPartitioned => ml_source_at(10, switch, 10),
        }
    }

    /// The paper's x-axes.
    pub fn full_axis(&self) -> &'static [usize] {
        match self {
            Panel::HhFast | Panel::HhSlow => &[10, 20, 40, 60, 80, 100],
            Panel::MlParallel => &[10, 20, 30, 40, 50],
            Panel::MlPartitioned => &[50, 100, 150, 200, 250],
        }
    }

    /// Reduced axes for quick runs.
    pub fn quick_axis(&self) -> &'static [usize] {
        match self {
            Panel::HhFast | Panel::HhSlow => &[10, 40, 80],
            Panel::MlParallel => &[10, 30, 50],
            Panel::MlPartitioned => &[50, 150, 250],
        }
    }
}

const WINDOW_MS: u64 = 200;

/// Measures one bar: `seeds` copies of the panel's task on one switch.
pub(crate) fn measure(panel: Panel, seeds: usize) -> SeedScalingRow {
    let (mut farm, leaf) = colocated(seeds, Default::default(), |leaf| panel.source(leaf));
    // Warm up 20 ms, then measure.
    let mut hh = HeavyHitterWorkload::new(HhConfig {
        switch: leaf,
        n_ports: 48,
        ..Default::default()
    });
    farm.run(&mut [&mut hh], Time::from_millis(20), Dur::from_millis(1));
    farm.switch_mut(leaf).unwrap().reset_meters();
    farm.run(
        &mut [&mut hh],
        Time::from_millis(20 + WINDOW_MS),
        Dur::from_millis(1),
    );
    let sw = farm.network().switch(leaf).unwrap();
    let window = Dur::from_millis(WINDOW_MS);
    let cpu_percent = sw.cpu().load_percent(window);
    let capacity = sw.cpu().spec().cores as f64 * 100.0;
    let accuracy_percent = (capacity / cpu_percent.max(1e-9)).min(1.0) * 100.0;
    SeedScalingRow {
        seeds,
        cpu_percent,
        accuracy_percent,
    }
}

/// Runs one panel across an axis.
pub fn run(panel: Panel, axis: &[usize]) -> Vec<SeedScalingRow> {
    axis.iter().map(|&n| measure(panel, n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hh_load_scales_with_seed_count_and_accuracy() {
        let few_fast = measure(Panel::HhFast, 5);
        let many_fast = measure(Panel::HhFast, 25);
        let many_slow = measure(Panel::HhSlow, 25);
        assert!(
            many_fast.cpu_percent > few_fast.cpu_percent * 2.0,
            "more seeds must cost more CPU: {} vs {}",
            few_fast.cpu_percent,
            many_fast.cpu_percent
        );
        assert!(
            many_slow.cpu_percent < many_fast.cpu_percent / 3.0,
            "10 ms accuracy must be much cheaper than 1 ms: {} vs {}",
            many_slow.cpu_percent,
            many_fast.cpu_percent
        );
    }

    #[test]
    fn ml_partitioning_recovers_cpu_headroom() {
        // 30 parallel ML seeds at 1 ms vs the partitioned equivalent
        // (10× fewer parallel polls, 10 iterations each → same work per
        // second minus the scheduling overhead).
        let parallel = measure(Panel::MlParallel, 30);
        let partitioned = measure(Panel::MlPartitioned, 30);
        assert!(
            partitioned.cpu_percent < parallel.cpu_percent,
            "partitioning must reduce CPU: {} vs {}",
            partitioned.cpu_percent,
            parallel.cpu_percent
        );
        assert!(partitioned.accuracy_percent >= parallel.accuracy_percent);
    }

    #[test]
    fn ml_is_heavier_than_hh() {
        let hh = measure(Panel::HhFast, 20);
        let ml = measure(Panel::MlParallel, 20);
        assert!(
            ml.cpu_percent > hh.cpu_percent * 1.5,
            "the ML payload must dominate: {} vs {}",
            hh.cpu_percent,
            ml.cpu_percent
        );
    }
}
