//! Fig. 9 — the soil-side CPU cost of poll-request aggregation, with
//! seeds as threads vs processes.
//!
//! Aggregation trades PCIe bandwidth for soil CPU: the soil merges
//! identical requests and fans results back out. For thread seeds the
//! fan-out is an in-address-space copy (negligible); for process seeds it
//! marshals across address spaces — the visible cost in the paper's
//! figure.

use farm_netsim::time::{Dur, Time};
use farm_soil::{ChannelKind, CommModel, ExecMode, SoilConfig};

use crate::support::{colocated, hh_source_at};

/// One measurement: soil CPU at a given seed count and configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationRow {
    pub seeds: usize,
    pub threads_aggregated_percent: f64,
    pub threads_unaggregated_percent: f64,
    pub processes_aggregated_percent: f64,
    pub processes_unaggregated_percent: f64,
}

const WINDOW_MS: u64 = 200;

fn measure(seeds: usize, exec: ExecMode, aggregation: bool) -> f64 {
    let cfg = SoilConfig {
        comm: CommModel {
            exec,
            channel: ChannelKind::SharedBuffer,
        },
        aggregation,
        ..Default::default()
    };
    let (mut farm, leaf) = colocated(seeds, cfg, |leaf| hh_source_at(10, leaf, i64::MAX / 4));
    farm.switch_mut(leaf).unwrap().reset_meters();
    farm.advance(Time::from_millis(WINDOW_MS));
    let sw = farm.network().switch(leaf).unwrap();
    sw.cpu().load_percent(Dur::from_millis(WINDOW_MS))
}

/// Runs the figure.
pub fn run(seed_counts: &[usize]) -> Vec<AggregationRow> {
    seed_counts
        .iter()
        .map(|&seeds| AggregationRow {
            seeds,
            threads_aggregated_percent: measure(seeds, ExecMode::Threads, true),
            threads_unaggregated_percent: measure(seeds, ExecMode::Threads, false),
            processes_aggregated_percent: measure(seeds, ExecMode::Processes, true),
            processes_unaggregated_percent: measure(seeds, ExecMode::Processes, false),
        })
        .collect()
}

/// Quick axis.
pub const QUICK_SEEDS: &[usize] = &[10, 50, 100];
/// Full axis.
pub const FULL_SEEDS: &[usize] = &[1, 25, 50, 75, 100, 125, 150];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_cost_only_matters_for_processes() {
        let rows = run(&[60]);
        let r = &rows[0];
        // Threads: aggregation is ~free.
        let thread_overhead = r.threads_aggregated_percent - r.threads_unaggregated_percent;
        // Processes: aggregation visibly costs soil CPU.
        let process_overhead = r.processes_aggregated_percent - r.processes_unaggregated_percent;
        assert!(
            process_overhead > thread_overhead.abs() * 3.0 || process_overhead > 1.0,
            "process aggregation overhead ({process_overhead}%) must dominate \
             thread overhead ({thread_overhead}%)"
        );
        // Processes are never cheaper than threads.
        assert!(r.processes_aggregated_percent > r.threads_aggregated_percent);
    }
}
