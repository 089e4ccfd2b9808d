//! `fed_read`: reads through the federation coordinator. An in-process
//! `fedd` fronts three `farmd` pods (2 x 32 each, joined through their
//! `[fed]` sections) holding two broadcast `place all` tasks and eight
//! single-pod watchers, all submitted through fedd; one client then
//! issues fixed rounds of reads over loopback.
//!
//! Work unit: one read frame. A round is the four single-frame reads
//! (whole listing, stats, metrics dump, describe one seed) and one
//! paginated listing walked through its cursor. `op` is the mean latency
//! of the four single-frame reads of a round, `op2` the whole paginated
//! walk. The score is the completeness of the federated view: seeds
//! listed through fedd over seeds listed by the pods themselves.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use farm_ctl::{Farmd, FarmdConfig};
use farm_fed::{Fedd, FeddConfig};
use farm_net::{ControlOp, ControlReply};

use super::ctl::Ctl;
use super::{derive_seed, measure_with_overhead, micros, snapshot_layer, Measured, Rng, RunCfg};
use crate::netprobe;
use crate::pace::{Mix, Pacer};
use crate::spec::FED_KINDS;
use crate::stats::median;
use crate::trace::{span, Tracer};

const PINNED: &str = include_str!("../../programs/pinned_watcher.alm");
const WATCHER: &str = include_str!("../../programs/load_watcher.alm");

/// Rounds per nominal second (a round is seven frames and took about
/// 3 ms, pinned to one CPU, when the benchmark was defined).
const ROUNDS_PER_S: f64 = 330.0;
const POD_NAMES: [&str; 3] = ["a", "b", "c"];
const BROADCAST_TASKS: usize = 2;
const WATCHERS: usize = 8;
/// Page size of the paginated listing.
const PAGE: u64 = 100;

/// How this workload's time moves with the machine's mood (see `pace`).
const MIX: Mix = Mix {
    heap: 0.5,
    sync: 0.0,
};

struct Stage {
    // Field order is drop order: the client first, then the coordinator,
    // then the pods it talks to.
    ctl: Ctl,
    fedd: Fedd,
    pods: Vec<Farmd>,
    /// Federated keys (`pod:task/mN/sN`) of every seed.
    keys: Vec<String>,
}

fn stage(cfg: &RunCfg, m: &mut Measured) -> Result<Stage, String> {
    // A long liveness window: a stalled box must not turn pods "dead"
    // and reads into failures.
    let fedd = Fedd::start(
        FeddConfig::from_toml_str(
            "[server]\nlisten = \"127.0.0.1:0\"\nshutdown_drain_ms = 10\n\
             [fed]\nliveness_timeout_ms = 60000\npod_timeout_ms = 30000\n",
        )
        .map_err(|e| e.to_string())?,
    )
    .map_err(|e| format!("fedd: {e}"))?;
    let mut ctl = Ctl::connect(fedd.local_addr()).ok_or("fedd does not accept")?;
    let (spines, leaves) = if cfg.smoke { (1, 3) } else { (2, 32) };
    let mut pods = Vec::new();
    for (i, name) in POD_NAMES.iter().enumerate() {
        let config = FarmdConfig::from_toml_str(&format!(
            "[server]\nlisten = \"127.0.0.1:0\"\nshutdown_drain_ms = 10\n\
             [farm]\nspines = {spines}\nleaves = {leaves}\n\
             [fed]\ncoordinator = \"{}\"\npod_name = \"{name}\"\nheartbeat_ms = 500\n",
            fedd.local_addr()
        ))
        .map_err(|e| e.to_string())?;
        pods.push(Farmd::start(config).map_err(|e| format!("pod {name}: {e}"))?);
        // One at a time, so switch-id windows follow pod order on every
        // run: fedd hands them out in registration order.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let live = match ctl.op(ControlOp::ListPods, m).0 {
                Some(ControlReply::Pods { pods }) => pods.iter().filter(|p| p.live).count(),
                _ => 0,
            };
            if live == i + 1 {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("pod {name} did not register"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    for i in 0..BROADCAST_TASKS {
        ctl.submit(&format!("pinned{i}"), PINNED, m);
    }
    for i in 0..WATCHERS {
        ctl.submit(&format!("w{i}"), WATCHER, m);
    }
    let keys = match ctl.list(0, 0, m).0 {
        Some((seeds, ..)) => seeds.into_iter().map(|s| s.key).collect(),
        None => Vec::new(),
    };
    if keys.is_empty() {
        return Err("the federation lists no seed after population".into());
    }
    Ok(Stage {
        ctl,
        fedd,
        pods,
        keys,
    })
}

impl Stage {
    fn stop(self) {
        let Stage {
            ctl, fedd, pods, ..
        } = self;
        drop(ctl);
        fedd.stop();
        for pod in pods {
            pod.stop();
        }
    }
}

pub fn run(cfg: &RunCfg, tracer: Option<&Tracer>, pacer: &mut Pacer) -> Measured {
    let mut m = Measured::default();
    let setups = if cfg.smoke { 1 } else { 5 };
    let mut staged = None;
    for _ in 0..setups {
        if let Some(Ok(previous)) = staged.take() {
            Stage::stop(previous);
        }
        let (stage, secs) = pacer.time(MIX, || stage(cfg, &mut m));
        staged = Some(stage);
        m.setup_s.push(secs);
    }
    let mut stage = match staged.expect("at least one set-up") {
        Ok(stage) => stage,
        Err(e) => {
            m.problems.push(format!("set-up: {e}"));
            m.attempted += 1;
            m.failed += 1;
            return m;
        }
    };

    let rounds = cfg.count(ROUNDS_PER_S, 100, 5);
    let mut rng = Rng::new(derive_seed(cfg.seed, 0));
    let mut frames = 0u64;
    let mut before = None;
    measure_with_overhead(tracer, &mut m, |tracer, m| {
        frames = 0;
        if let Some(t) = tracer {
            for pod in &stage.pods {
                pod.telemetry().add_sink(t.sink());
            }
            stage.fedd.telemetry().add_sink(t.sink());
            stage.ctl.start_recording();
            before = Some(stage.fedd.telemetry().snapshot());
        }
        read_rounds(&mut stage, rounds, &mut rng, tracer, pacer, &mut frames, m);
    });
    if let (Some(t), Some(before)) = (tracer, &before) {
        layers(&mut stage, t, before, &mut m);
    }
    m.work_units = frames as f64;

    // The federated view must be complete: what fedd lists is what the
    // pods list, and its stats reached every pod.
    let fed_listed = match stage.ctl.list(0, 0, &mut m).0 {
        Some((seeds, ..)) => seeds.len(),
        None => 0,
    };
    let fed_total = match stage.ctl.list(0, PAGE, &mut m).0 {
        Some((_, _, total)) => total as usize,
        None => 0,
    };
    let mut direct = 0usize;
    for pod in &stage.pods {
        if let Some(mut pod_ctl) = Ctl::connect(pod.local_addr()) {
            if let Some((seeds, ..)) = pod_ctl.list(0, 0, &mut m).0 {
                direct += seeds.len();
            }
        }
    }
    m.check(
        fed_listed == direct && fed_total == direct && direct > 0,
        || {
            format!(
                "fedd lists {fed_listed} seeds (paginated total {fed_total}), the pods {direct}"
            )
        },
    );
    m.result_score = fed_listed as f64 / direct.max(1) as f64;
    m.exact.insert("seeds_listed".into(), fed_listed as f64);
    m.exact.insert("frames".into(), frames as f64);
    stage.stop();
    m
}

/// True for a stats body whose fan-out reached all three pods.
fn reached_all(reply: &Option<ControlReply>) -> bool {
    matches!(reply, Some(ControlReply::Json { body }) if body.contains("\"pods_reached\":3"))
}

/// The measured window: `rounds` read rounds, added to `m.window_s` /
/// `m.wall_s`.
fn read_rounds(
    stage: &mut Stage,
    rounds: usize,
    rng: &mut Rng,
    tracer: Option<&Tracer>,
    pacer: &mut Pacer,
    frames: &mut u64,
    m: &mut Measured,
) {
    let Stage { ctl, keys, .. } = stage;
    let n_seeds = keys.len();
    for round in 0..rounds as u64 {
        pacer.refresh();
        let scale = pacer.scale(MIX);
        let round_started = Instant::now();
        let mut single_us = 0.0;
        let (listing, us) = span(tracer, "fed.list-seeds", round, || ctl.list(0, 0, m));
        single_us += us;
        let complete = listing.is_some_and(|(seeds, ..)| seeds.len() == n_seeds);

        let (stats, us) = span(tracer, "fed.stats", round, || {
            ctl.op(ControlOp::stats_all(), m)
        });
        single_us += us;
        let reached = reached_all(&stats);

        let (dump, us) = span(tracer, "fed.metrics-dump", round, || {
            ctl.op(ControlOp::MetricsDump, m)
        });
        single_us += us;
        let dumped = matches!(dump, Some(ControlReply::Json { .. }));

        let key = keys[rng.below(n_seeds)].clone();
        let (seed, us) = span(tracer, "fed.describe-seed", round, || {
            ctl.op(ControlOp::DescribeSeed { key: key.clone() }, m)
        });
        single_us += us;
        let described = matches!(seed, Some(ControlReply::Seed { desc, .. }) if desc.key == key);
        m.op_us.push(single_us / 4.0 * scale);
        *frames += 4;
        for (ok, what) in [
            (complete, "whole listing is short"),
            (reached, "stats did not reach 3 pods"),
            (dumped, "metrics dump is not JSON"),
            (described, "describe answered another seed"),
        ] {
            if !ok {
                m.failed += 1;
                m.problems.push(format!("round {round}: {what}"));
            }
        }

        // The paginated listing, followed through its cursor.
        let walk = Instant::now();
        let (mut from, mut walked) = (0u64, 0usize);
        let walk_span = tracer.map(|t| t.begin("fed.list-walk", round));
        loop {
            *frames += 1;
            let Some((seeds, next, _)) = ctl.list(from, PAGE, m).0 else {
                break;
            };
            walked += seeds.len();
            if next == 0 {
                break;
            }
            from = next;
        }
        if let (Some(t), Some(open)) = (tracer, walk_span) {
            t.end(open);
        }
        m.op2_us.push(micros(walk.elapsed()) * scale);
        if walked != n_seeds {
            m.failed += 1;
            m.problems.push(format!(
                "round {round}: paginated walk saw {walked} of {n_seeds} seeds"
            ));
        }
        let wall = round_started.elapsed().as_secs_f64();
        m.wall_s += wall;
        m.window_s += wall * scale;
    }
}

/// Direct reads per kind at one pod, for `fed.overhead_x`.
const DIRECT_READS_PER_KIND: usize = 100;

fn layers(stage: &mut Stage, t: &Tracer, before: &farm_telemetry::Snapshot, m: &mut Measured) {
    let after = stage.fedd.telemetry().snapshot();
    let mut fed_all = Vec::new();
    for kind in FED_KINDS {
        let samples = stage.ctl.by_kind.get(kind).cloned().unwrap_or_default();
        m.layer(&format!("fed.client_us_p50.{kind}"), median(&samples));
        fed_all.extend(samples);
    }
    // fedd keeps histograms, not events: means over the window from the
    // exact sums, which the bucketed percentiles cannot give. What fedd
    // spent outside its fan-outs (merging, and the little else it
    // served: one-pod describes, pod heartbeats) is charged to the
    // fanned-out reads.
    let window = |name: &str| {
        let (a, b) = (after.histogram(name), before.histogram(name));
        (
            a.map_or(0, |h| h.sum) - b.map_or(0, |h| h.sum),
            a.map_or(0, |h| h.count) - b.map_or(0, |h| h.count),
        )
    };
    let (fanout_sum, fanouts) = window("fed.fanout_us");
    let (serve_sum, _) = window("fed.op_latency_us");
    let per_fanout = |sum: u64| sum as f64 / fanouts.max(1) as f64;
    m.layer("fed.fanout_us_mean", per_fanout(fanout_sum));
    m.layer(
        "fed.merge_us_mean",
        per_fanout(serve_sum.saturating_sub(fanout_sum)),
    );
    m.layer(
        "fed.fanout_errors",
        (after.counter("fed.fanout.errors") - before.counter("fed.fanout.errors")) as f64,
    );

    // The same reads straight at one pod.
    let addr: SocketAddr = stage.pods[0].local_addr();
    let mut direct_all = Vec::new();
    if let Some(mut pod) = Ctl::connect(addr) {
        pod.start_recording();
        let local_key = pod
            .list(0, 1, m)
            .0
            .and_then(|(seeds, ..)| seeds.first().map(|s| s.key.clone()))
            .unwrap_or_default();
        for _ in 0..DIRECT_READS_PER_KIND {
            pod.list(0, 0, m);
            pod.op(ControlOp::stats_all(), m);
            pod.op(ControlOp::MetricsDump, m);
            pod.op(
                ControlOp::DescribeSeed {
                    key: local_key.clone(),
                },
                m,
            );
        }
        for kind in FED_KINDS {
            let samples = pod.by_kind.get(kind).cloned().unwrap_or_default();
            m.layer(&format!("ctl.client_us_p50.{kind}"), median(&samples));
            direct_all.extend(samples);
        }
    }
    let direct_p50 = median(&direct_all);
    m.layer(
        "fed.overhead_x",
        if direct_p50 > 0.0 {
            median(&fed_all) / direct_p50
        } else {
            0.0
        },
    );

    // What the pods' own servers saw while fedd fanned out to them.
    let mut serve = Vec::new();
    for kind in FED_KINDS {
        serve.extend(t.samples(&format!("ctl.serve.{kind}")));
    }
    m.layer("ctl.serve_us_p50", median(&serve));
    let pod_snaps: Vec<_> = stage
        .pods
        .iter()
        .map(|p| p.telemetry().snapshot())
        .collect();
    m.layer(
        "ctl.rejected",
        pod_snaps
            .iter()
            .map(|s| s.counter("ctl.rejected"))
            .sum::<u64>() as f64,
    );
    m.layer("placement.solver_phase_events", t.solver_events() as f64);
    netprobe::daemon_counters(before, &after, m);
    m.layer("net.rtt_us_p50", netprobe::rtt_us_p50());
    netprobe::codec(&stage.ctl.kept, m);

    snapshot_layer(stage.pods[0].telemetry(), m);
}
