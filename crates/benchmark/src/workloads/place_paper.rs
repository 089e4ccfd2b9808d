//! `place_paper`: the placement solver alone at the paper's Fig. 7
//! scale (10 200 seeds on 1 040 switches), in both of its uses: the
//! cold from-scratch solve and the warm incremental `replan_delta`
//! through a retained [`SolveState`].
//!
//! Work unit: one single-seed churn event. `op` is a from-scratch
//! `solve_heuristic` (every tenth event, on the very input the delta
//! solve then gets, and compared with it bit for bit), `op2` the
//! `replan_delta` of an event. Events go round-robin over three
//! generated instances. The score is the solver objective of the final
//! placements, averaged over the instances.

use std::time::Instant;

use farm_netsim::switch::Resources;
use farm_netsim::types::SwitchId;
use farm_placement::{
    generate, replan_delta, solve_heuristic_traced, validate, HeuristicOptions, PlacementInstance,
    PlacementResult, PreviousPlacement, ReplanDelta, SolveState, WorkloadConfig,
};
use farm_telemetry::Telemetry;

use super::{
    derive_seed, measure_with_overhead, micros, solver_phase_layers, Measured, Rng, RunCfg,
};
use crate::pace::{Mix, Pacer};
use crate::stats::median;
use crate::trace::{span, Tracer};

/// Churn events per nominal second: ten delta solves (~11 ms each) and
/// one from-scratch solve (~75 ms) took about 0.185 s when the
/// benchmark was defined.
const EVENTS_PER_S: f64 = 55.0;
/// Every n-th event is also solved from scratch.
const FULL_EVERY: usize = 10;

/// How this workload's time moves with the machine's mood (see `pace`).
const MIX: Mix = Mix {
    heap: 0.3,
    sync: 0.0,
};

fn as_previous(assignment: &[Option<(SwitchId, Resources)>]) -> PreviousPlacement {
    let mut prev = PreviousPlacement::default();
    for (s, slot) in assignment.iter().enumerate() {
        if let Some(seat) = slot {
            prev.assignment.insert(s, *seat);
        }
    }
    prev
}

fn identical(a: &PlacementResult, b: &PlacementResult) -> bool {
    a.assignment == b.assignment
        && a.utility.to_bits() == b.utility.to_bits()
        && a.migrations == b.migrations
        && a.dropped_tasks == b.dropped_tasks
}

struct Stage {
    inst: PlacementInstance,
    state: SolveState,
    last: PlacementResult,
}

/// Instances a run churns, round-robin. Solve time differs by a tenth
/// from one generated instance to the next; over three, a seed's luck
/// with its instance averages out. Coprime with [`FULL_EVERY`], so the
/// from-scratch solves visit all of them.
const INSTANCES: usize = 3;

/// Generates instance `k` of the run and warms a retained solver state
/// on it.
fn stage(cfg: &RunCfg, k: usize) -> Stage {
    let shape = if cfg.smoke {
        WorkloadConfig {
            n_switches: 24,
            n_tasks: 3,
            n_seeds: 120,
            ..WorkloadConfig::default()
        }
    } else {
        WorkloadConfig::default()
    };
    let mut inst = generate(&WorkloadConfig {
        rng_seed: derive_seed(cfg.seed, k as u64),
        ..shape
    });
    let opts = HeuristicOptions::default();
    let mut state = SolveState::new();
    let (cold, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
    // One no-change round, so every memo entry exists before timing.
    inst.previous = Some(as_previous(&cold.assignment));
    let (last, _) = replan_delta(&inst, opts, &mut state, &ReplanDelta::default(), None);
    Stage { inst, state, last }
}

pub fn run(cfg: &RunCfg, tracer: Option<&Tracer>, pacer: &mut Pacer) -> Measured {
    let mut m = Measured::default();
    measure_with_overhead(tracer, &mut m, |tracer, m| measure(cfg, tracer, pacer, m));
    m
}

/// One pass over the fixed events.
fn measure(cfg: &RunCfg, tracer: Option<&Tracer>, pacer: &mut Pacer, m: &mut Measured) {
    // One set-up per instance: the repetitions `setup_s` is the median of.
    let mut stages: Vec<Stage> = (0..INSTANCES)
        .map(|k| {
            let (stage, secs) = pacer.time(MIX, || stage(cfg, k));
            m.setup_s.push(secs);
            stage
        })
        .collect();
    let events = cfg.count(EVENTS_PER_S, FULL_EVERY, 6);
    let opts = HeuristicOptions::default();
    let telemetry = tracer.map(|t| {
        let telemetry = Telemetry::new();
        telemetry.add_sink(t.sink());
        telemetry
    });
    let mut rng = Rng::new(derive_seed(cfg.seed, INSTANCES as u64));
    let (mut frontiers, mut reused, mut lp_switches, mut fallbacks) =
        (Vec::new(), 0usize, 0usize, 0u64);

    for i in 0..events {
        pacer.refresh();
        let scale = pacer.scale(MIX);
        let event_started = Instant::now();
        let Stage { inst, state, last } = &mut stages[i % INSTANCES];
        inst.previous = Some(as_previous(&last.assignment));
        // The two single-seed events a control plane produces most: a
        // resubmission (the seed loses its seat and is placed afresh,
        // which the solver's input signatures catch on their own) and a
        // definition tweak (invisible to signatures, so declared dirty).
        let s = rng.below(inst.seeds.len());
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
        let full = (i % FULL_EVERY == 0).then(|| {
            if let Some(t) = tracer {
                t.set_full_solve(true);
            }
            let started = Instant::now();
            let full = span(tracer, "placement.solve_full", i as u64, || {
                solve_heuristic_traced(inst, opts, telemetry.as_ref())
            });
            m.op_us.push(micros(started.elapsed()) * scale);
            if let Some(t) = tracer {
                t.set_full_solve(false);
            }
            full
        });
        let started = Instant::now();
        let (result, report) = span(tracer, "placement.solve_delta", i as u64, || {
            replan_delta(inst, opts, state, &delta, telemetry.as_ref())
        });
        m.op2_us.push(micros(started.elapsed()) * scale);
        m.attempted += 1;
        if let Some(full) = &full {
            m.attempted += 1;
            if !identical(full, &result) {
                m.failed += 1;
                m.problems.push(format!(
                    "event {i}: delta solve differs from the full solve"
                ));
            }
        }
        frontiers.push(report.frontier as f64);
        reused += report.reused;
        lp_switches += report.lp_switches;
        fallbacks += u64::from(report.fallback_full);
        *last = result;
        let wall = event_started.elapsed().as_secs_f64();
        m.wall_s += wall;
        m.window_s += wall * scale;
    }
    m.work_units = events as f64;

    for (k, Stage { inst, last, .. }) in stages.iter().enumerate() {
        if let Err(e) = validate(inst, last) {
            m.failed += 1;
            m.problems.push(format!(
                "final placement of instance {k} violates C1-C4: {e}"
            ));
        }
    }
    let utility = stages.iter().map(|s| s.last.utility).sum::<f64>() / INSTANCES as f64;
    m.result_score = utility;
    m.exact.insert("utility".into(), utility);
    m.exact.insert(
        "placed".into(),
        stages.iter().map(|s| s.last.placed()).sum::<usize>() as f64,
    );
    m.exact.insert("events".into(), events as f64);
    m.exact.insert("frontier_p50".into(), median(&frontiers));

    if let Some(t) = tracer {
        solver_phase_layers(t, "full", m);
        solver_phase_layers(t, "delta", m);
        m.layer("placement.delta.frontier_p50", median(&frontiers));
        m.layer(
            "placement.delta.reuse_ratio",
            reused as f64 / lp_switches.max(1) as f64,
        );
        m.layer("placement.delta.fallback_full", fallbacks as f64);
        m.layer("placement.solver_phase_events", t.solver_events() as f64);
    }
}
