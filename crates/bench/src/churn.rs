//! Churn replay (beyond the paper): the paper re-runs global placement
//! whenever its inputs change (§ IV); this measures that event loop when
//! the change is a single seed. Against a warm instance it replays
//! single-seed events — alternating a resubmission (the seed loses its
//! seat) and a definition tweak (declared dirty) — and solves each twice
//! on identical inputs: from scratch (`solve_heuristic`) and through a
//! retained `SolveState` (`replan_delta`). The two placements must agree
//! bit for bit at every event; the timings say what the retained state
//! saves.

use std::time::Instant;

use farm_placement::delta::{replan_delta, ReplanDelta, SolveState};
use farm_placement::heuristic::{solve_heuristic, HeuristicOptions};
use farm_placement::model::{PlacementInstance, PlacementResult};
use farm_placement::workload::{generate, WorkloadConfig};

use crate::support::{as_previous, percentile};

/// (seeds, switches, tasks) instances and events per instance.
type Sweep = (&'static [(usize, usize, usize)], usize);

/// Quick mode: one reduced instance.
pub const QUICK: Sweep = (&[(1_000, 128, 8)], 12);
/// Paper scale, up to Fig. 7's 10 200 seeds on 1 040 switches.
pub const FULL: Sweep = (
    &[(1_000, 128, 8), (4_000, 512, 10), (10_200, 1_040, 10)],
    40,
);

/// One instance's replay: wall-clock percentiles of both solves, and
/// per-event medians of what the delta solve re-ran.
#[derive(Debug)]
pub struct ChurnRow {
    pub seeds: usize,
    pub switches: usize,
    /// From-scratch solve, [p50, p95].
    pub full_ms: [f64; 2],
    /// Delta solve, [p50, p95].
    pub delta_ms: [f64; 2],
    /// Switch LPs that ran (the rest replayed their stored output).
    pub frontier_p50: f64,
    /// Greedy steps that probed (the rest replayed).
    pub steps_run_p50: f64,
    /// Greedy steps the pass visited (the rest it did not look at).
    pub steps_visited_p50: f64,
    pub switches_rebuilt_p50: f64,
    /// Warm solves in which no LP-bearing switch could replay.
    pub fallbacks: usize,
    /// Events whose delta placement differed from the from-scratch one.
    pub diverged: usize,
}

fn identical(a: &PlacementResult, b: &PlacementResult) -> bool {
    a.assignment == b.assignment
        && a.utility.to_bits() == b.utility.to_bits()
        && a.migrations == b.migrations
        && a.dropped_tasks == b.dropped_tasks
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn p50_p95(samples: &[f64]) -> [f64; 2] {
    [percentile(samples, 0.50), percentile(samples, 0.95)]
}

/// Replays `events` single-seed events at every scale.
pub fn run(scales: &[(usize, usize, usize)], events: usize) -> Vec<ChurnRow> {
    scales
        .iter()
        .map(|&(seeds, switches, tasks)| {
            let inst = generate(&WorkloadConfig {
                n_switches: switches,
                n_tasks: tasks,
                n_seeds: seeds,
                ..WorkloadConfig::default()
            });
            replay(inst, events)
        })
        .collect()
}

fn replay(mut inst: PlacementInstance, events: usize) -> ChurnRow {
    let opts = HeuristicOptions::default();
    let mut state = SolveState::new();
    let (first, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
    // One warm no-change round so every retained entry exists before
    // the first timed event.
    inst.previous = Some(as_previous(&first.assignment));
    let (mut last, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);

    let (mut full_ms, mut delta_ms) = (Vec::new(), Vec::new());
    let (mut frontier, mut steps_run, mut rebuilt) = (Vec::new(), Vec::new(), Vec::new());
    let mut steps_visited = Vec::new();
    let mut fallbacks = 0;
    let mut diverged = 0;
    for i in 0..events {
        inst.previous = Some(as_previous(&last.assignment));
        let s = (i * 7919) % inst.seeds.len().max(1);
        let delta = if i % 2 == 0 {
            if let Some(prev) = &mut inst.previous {
                prev.assignment.remove(&s);
            }
            ReplanDelta::default()
        } else {
            match inst.seeds[s].polls.first_mut() {
                Some(p) => {
                    p.demand.constant += 0.01;
                    ReplanDelta::seeds([s])
                }
                None => ReplanDelta::default(),
            }
        };

        let t = Instant::now();
        let full = solve_heuristic(&inst, opts);
        full_ms.push(ms(t));
        let t = Instant::now();
        let (warm, report) = replan_delta(&inst, opts, &mut state, &delta, None);
        delta_ms.push(ms(t));

        diverged += usize::from(!identical(&warm, &full));
        frontier.push(report.frontier as f64);
        steps_run.push(report.steps_executed as f64);
        steps_visited.push(report.steps_visited as f64);
        rebuilt.push(report.switches_rebuilt as f64);
        fallbacks += usize::from(report.fallback_full);
        last = warm;
    }
    ChurnRow {
        seeds: inst.seeds.len(),
        switches: inst.switches.len(),
        full_ms: p50_p95(&full_ms),
        delta_ms: p50_p95(&delta_ms),
        frontier_p50: percentile(&frontier, 0.50),
        steps_run_p50: percentile(&steps_run, 0.50),
        steps_visited_p50: percentile(&steps_visited, 0.50),
        switches_rebuilt_p50: percentile(&rebuilt, 0.50),
        fallbacks,
        diverged,
    }
}
