//! `dc_churn`: the paper-scale operator path end to end. An in-process
//! `farmd` hosts a 16 x 1 024 fabric holding two `place all` tasks
//! (2 080 pinned seeds) and forty `place any` watchers; one client then
//! runs fixed cycles of submit → drain → uncordon against it over
//! loopback (frame → compile → admission → delta replan →
//! commit/deploy → reply).
//!
//! Work unit: one control op. `op` is a `Drain` of a switch that hosts a
//! watcher, `op2` the `SubmitProgram` of a new watcher. The score is the
//! share of submitted seeds that are live at the end.
//!
//! `RemoveTask` is deliberately not part of the cycle: `Farm::remove_task`
//! looks a seed up by its per-soil `SeedId` in whatever soil it finds
//! first, so on a farm this size it can undeploy another task's seed and
//! a later drain then fails. The population therefore grows by one
//! watcher per cycle; removal is timed after the run, for the traced
//! table only.

use std::collections::BTreeMap;
use std::time::Instant;

use farm_almanac::compile::{compile_task, CompiledTask};
use farm_ctl::{Farmd, FarmdConfig};
use farm_net::{ControlOp, ControlReply};
use farm_netsim::controller::SdnController;
use farm_netsim::switch::SwitchModel;
use farm_netsim::topology::Topology;
use farm_placement::instance_from_tasks;
use farm_telemetry::Snapshot;

use super::ctl::Ctl;
use super::{
    derive_seed, measure_with_overhead, micros, snapshot_layer, solver_phase_layers, Measured, Rng,
    RunCfg,
};
use crate::netprobe;
use crate::pace::{Mix, Pacer};
use crate::spec::CTL_KINDS;
use crate::stats::median;
use crate::trace::{span, Tracer};

const PINNED: &str = include_str!("../../programs/pinned_watcher.alm");
const WATCHER: &str = include_str!("../../programs/load_watcher.alm");

/// Cycles per nominal second (a cycle took about 0.135 s: submit 60 ms,
/// drain and uncordon 37 ms each, when the benchmark was defined).
const CYCLES_PER_S: f64 = 7.5;
/// Ops one cycle issues: submit, find, drain, verify, uncordon.
const OPS_PER_CYCLE: f64 = 5.0;
const PINNED_TASKS: usize = 2;
const WATCHERS_AT_START: usize = 40;

/// How this workload's time moves with the machine's mood (see `pace`).
const MIX: Mix = Mix {
    heap: 0.5,
    sync: 0.5,
};

struct Shape {
    spines: usize,
    leaves: usize,
    watchers: usize,
}

fn shape(cfg: &RunCfg) -> Shape {
    if cfg.smoke {
        Shape {
            spines: 2,
            leaves: 6,
            watchers: 3,
        }
    } else {
        Shape {
            spines: 16,
            leaves: 1_024,
            watchers: WATCHERS_AT_START,
        }
    }
}

struct Stage {
    farmd: Farmd,
    ctl: Ctl,
    /// Seeds of the pinned tasks.
    pinned_seeds: u64,
    /// Live watcher task names, oldest first.
    watchers: Vec<String>,
}

/// Starts farmd and populates it. No tick, replan or checkpoint ticker:
/// virtual time moves only when an op moves it. Returns the stage and
/// what it took in scaled seconds: set-up lasts seconds, so each step
/// is scaled by the machine's speed at that step, not one speed for all.
fn stage(shape: &Shape, pacer: &mut Pacer, m: &mut Measured) -> Option<(Stage, f64)> {
    let config = FarmdConfig::from_toml_str(&format!(
        "[server]\nlisten = \"127.0.0.1:0\"\nrequest_timeout_ms = 60000\nshutdown_drain_ms = 10\n\
         [farm]\nspines = {}\nleaves = {}\n",
        shape.spines, shape.leaves
    ))
    .ok()?;
    let (up, mut setup_s) = pacer.time(MIX, || {
        let farmd = Farmd::start(config).ok()?;
        let ctl = Ctl::connect(farmd.local_addr())?;
        Some((farmd, ctl))
    });
    let (farmd, mut ctl) = up?;
    let pinned = (0..PINNED_TASKS).map(|i| (format!("pinned{i}"), PINNED));
    let floating = (0..shape.watchers).map(|i| (format!("w{i}"), WATCHER));
    for (name, source) in pinned.chain(floating) {
        setup_s += pacer.time(MIX, || ctl.submit(&name, source, m)).1;
    }
    let stage = Stage {
        farmd,
        ctl,
        pinned_seeds: (PINNED_TASKS * (shape.spines + shape.leaves)) as u64,
        watchers: (0..shape.watchers).map(|i| format!("w{i}")).collect(),
    };
    Some((stage, setup_s))
}

pub fn run(cfg: &RunCfg, tracer: Option<&Tracer>, pacer: &mut Pacer) -> Measured {
    let mut m = Measured::default();
    let shape = shape(cfg);
    // One set-up only: it takes seconds, so its timing is steady enough
    // without a repeat.
    let Some((mut stage, setup_s)) = stage(&shape, pacer, &mut m) else {
        m.problems.push("farmd did not come up".into());
        m.attempted += 1;
        m.failed += 1;
        return m;
    };
    m.setup_s.push(setup_s);
    if !m.problems.is_empty() {
        // The population is not what the cycles assume; do not measure it.
        stage.farmd.stop();
        return m;
    }

    let cycles = cfg.count(CYCLES_PER_S, 40, 2);
    let mut rng = Rng::new(derive_seed(cfg.seed, 0));
    // Both passes of a traced run share the daemon; the traced one finds
    // it a pass's worth of watchers fuller.
    let mut before = None;
    measure_with_overhead(tracer, &mut m, |tracer, m| {
        if let Some(t) = tracer {
            stage.farmd.telemetry().add_sink(t.sink());
            stage.ctl.start_recording();
            before = Some(stage.farmd.telemetry().snapshot());
        }
        churn(&mut stage, cycles, &mut rng, tracer, pacer, m);
    });
    m.work_units = cycles as f64 * OPS_PER_CYCLE;

    // Every seed ever submitted must still be live.
    let expected = stage.pinned_seeds + stage.watchers.len() as u64;
    let live = match stage.ctl.list(0, 0, &mut m).0 {
        Some((seeds, ..)) => seeds.len() as u64,
        None => 0,
    };
    m.check(live == expected, || {
        format!("{live} seeds live at the end, {expected} submitted")
    });
    m.result_score = live as f64 / expected as f64;
    m.exact.insert("seeds_live".into(), live as f64);
    m.exact.insert("cycles".into(), cycles as f64);

    if let (Some(t), Some(before)) = (tracer, &before) {
        layers(&mut stage, &shape, cfg, (t, before), &mut m);
    }
    stage.farmd.stop();
    m
}

/// The measured window: `cycles` rounds of submit → drain → uncordon,
/// added to `m.window_s` / `m.wall_s`.
fn churn(
    stage: &mut Stage,
    cycles: usize,
    rng: &mut Rng,
    tracer: Option<&Tracer>,
    pacer: &mut Pacer,
    m: &mut Measured,
) {
    let Stage { ctl, watchers, .. } = stage;
    let first_new = watchers.len() as u64;
    for cycle in 0..cycles as u64 {
        pacer.refresh();
        let scale = pacer.scale(MIX);
        let cycle_started = Instant::now();
        let name = format!("w{}", first_new + cycle);
        let (placed, us) = span(tracer, "ctl.submit", cycle, || {
            ctl.submit(&name, WATCHER, m)
        });
        m.op2_us.push(us * scale);
        if placed {
            watchers.push(name);
        }

        // An operator drains a switch they know hosts something: look
        // the chosen watcher's switch up first.
        let victim = &watchers[rng.below(watchers.len())];
        let listing = span(tracer, "ctl.list-seeds", cycle, || ctl.list(0, 0, m).0);
        let Some(switch) = listing
            .and_then(|(seeds, ..)| seeds.iter().find(|s| &s.task == victim).map(|s| s.switch))
        else {
            m.failed += 1;
            m.problems
                .push(format!("cycle {cycle}: {victim} is not listed"));
            break;
        };

        let (reply, us) = span(tracer, "ctl.drain", cycle, || {
            ctl.op(ControlOp::Drain { switch }, m)
        });
        m.op_us.push(us * scale);
        let evacuated =
            matches!(reply, Some(ControlReply::Drained { evacuated, .. }) if evacuated >= 1);
        // While the cordon holds, the `place all` tasks cannot be placed
        // whole and are dropped (C1); the watchers must all be listed,
        // none of them on the drained switch.
        let left = span(tracer, "ctl.list-seeds", cycle, || ctl.list(0, 0, m).0).is_some_and(
            |(seeds, ..)| {
                let on: Vec<_> = seeds.iter().filter(|s| s.task.starts_with('w')).collect();
                on.len() == watchers.len() && on.iter().all(|s| s.switch != switch)
            },
        );
        if reply.is_some() && !(evacuated && left) {
            m.failed += 1;
            m.problems.push(format!(
                "cycle {cycle}: a watcher stayed on drained switch {switch}"
            ));
        }

        span(tracer, "ctl.uncordon", cycle, || {
            ctl.op(ControlOp::Uncordon { switch }, m)
        });
        let wall = cycle_started.elapsed().as_secs_f64();
        m.wall_s += wall;
        m.window_s += wall * scale;
    }
}

/// Reads per kind, and removals, timed after the window on a traced run.
const EXTRA_OPS_PER_KIND: usize = 30;

/// The per-layer rows of a traced run.
fn layers(
    stage: &mut Stage,
    shape: &Shape,
    cfg: &RunCfg,
    (t, before): (&Tracer, &Snapshot),
    m: &mut Measured,
) {
    // ctl: the read kinds the cycle does not issue, then removals (last:
    // see the module docs for what a removal can do to the farm).
    let mut rng = Rng::new(derive_seed(cfg.seed, 1));
    for _ in 0..EXTRA_OPS_PER_KIND {
        stage.ctl.op(ControlOp::stats_all(), m);
        stage.ctl.op(ControlOp::MetricsDump, m);
        let key = format!("{}/m0/s0", stage.watchers[rng.below(stage.watchers.len())]);
        stage.ctl.op(ControlOp::DescribeSeed { key }, m);
    }
    snapshot_layer(stage.farmd.telemetry(), m);
    let snap = stage.farmd.telemetry().snapshot();
    let removable = stage.watchers.len().min(EXTRA_OPS_PER_KIND);
    for name in stage.watchers.drain(..removable) {
        // Not counted as workload ops: a removal may hit the wrong seed.
        stage.ctl.op(
            ControlOp::RemoveTask { task: name },
            &mut Measured::default(),
        );
    }

    let mut serve_all = Vec::new();
    let mut handoff = Vec::new();
    for kind in CTL_KINDS {
        let client = stage.ctl.by_kind.get(kind).cloned().unwrap_or_default();
        m.layer(&format!("ctl.client_us_p50.{kind}"), median(&client));
        let serve = t.samples(&format!("ctl.serve.{kind}"));
        // One connection, one op at a time: the i-th op of a kind the
        // client timed is the i-th the server audited.
        if serve.len() == client.len() {
            handoff.extend(client.iter().zip(&serve).map(|(c, s)| c - s));
        }
        serve_all.extend(serve);
    }
    m.layer("ctl.serve_us_p50", median(&serve_all));
    m.layer("ctl.handoff_us_p50", median(&handoff));
    m.layer("ctl.rejected", snap.counter("ctl.rejected") as f64);

    // core and placement, from farmd's own events and registry.
    m.layer("core.replan_us_p50", median(&t.samples("core.replan")));
    // A registry histogram: its sum is exact, its percentiles bucketed.
    m.layer(
        "core.replan_delta_us_mean",
        snap.histogram("farm.replan_delta_us")
            .map_or(0.0, |h| h.sum as f64 / h.count.max(1) as f64),
    );
    m.layer(
        "core.plan_actions_p50",
        median(&t.samples("core.plan_actions")),
    );
    m.layer("core.commit_us_p50", median(&t.samples("core.commit")));
    solver_phase_layers(t, "delta", m);
    m.layer(
        "placement.delta.fallback_full",
        snap.counter("farm.delta_fallback_full") as f64,
    );
    m.layer("placement.solver_phase_events", t.solver_events() as f64);

    // net: the server side of the one connection, then the transport alone.
    netprobe::daemon_counters(before, &snap, m);
    m.layer("net.rtt_us_p50", netprobe::rtt_us_p50());
    netprobe::codec(&stage.ctl.kept, m);

    // almanac and placement's instance builder, shadow-driven with the
    // programs the window submitted.
    let topology = Topology::spine_leaf(
        shape.spines,
        shape.leaves,
        SwitchModel::accton_as7712(),
        SwitchModel::accton_as5712(),
    );
    let sdn = SdnController::new(&topology);
    let no_externals = BTreeMap::new();
    let mut compile_us = Vec::new();
    let mut tasks: Vec<CompiledTask> = Vec::new();
    let programs = (0..PINNED_TASKS)
        .map(|i| (format!("pinned{i}"), PINNED))
        .chain(stage.watchers.iter().map(|w| (w.clone(), WATCHER)));
    for (name, source) in programs {
        let started = Instant::now();
        let compiled = compile_task(&name, source, &no_externals, &sdn);
        if source == WATCHER {
            compile_us.push(micros(started.elapsed()));
        }
        tasks.extend(compiled);
    }
    m.layer("almanac.compile_us_p50", median(&compile_us));
    m.layer("almanac.source_bytes", WATCHER.len() as f64);
    let switches: Vec<_> = topology
        .switches()
        .iter()
        .map(|n| (n.id, n.model.total_resources()))
        .collect();
    let task_refs: Vec<&CompiledTask> = tasks.iter().collect();
    let build_us: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(instance_from_tasks(&task_refs, &switches, None).is_ok());
            micros(started.elapsed())
        })
        .collect();
    m.layer("placement.instance_build_us_p50", median(&build_us));
}
