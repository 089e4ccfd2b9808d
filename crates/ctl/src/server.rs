//! The farmd core: a [`Farm`] served through the shared daemon skeleton
//! ([`crate::daemon`]), which owns the threading model, the op
//! accounting (`ctl.ops`, `ctl.op.<kind>`, `ctl.rejected`,
//! `ctl.op_latency_us`) and the shutdown drain.
//!
//! What farmd adds: the farm itself, the tickers between ops (virtual
//! time, periodic replan, periodic checkpoint), one [`Event::ControlOp`]
//! per op through the farm's event sinks, a final checkpoint after the
//! drain, and — with a `[fed]` section — the `Membership` that keeps
//! the pod known to its coordinator, a session the core's tick moves
//! along.

use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_almanac::compile::compile_task_with_diagnostics;
use farm_core::prelude::*;
use farm_core::seeder::{Plan, SeedKey};
use farm_net::{
    decode_checkpoint, encode_checkpoint_doc, Answer, CheckpointDoc, ControlOp, ControlReply,
    DeltaCounts, Diagnostic, Explain, Frame, LinkId, Links, Peers, SeedDescriptor, SeedSnapshot,
};
use farm_netsim::controller::SdnController;
use farm_netsim::switch::{Resources, SwitchModel};
use farm_netsim::types::SwitchId;
use farm_telemetry::{Counter, Gauge, Json, Snapshot, Span, SpanLog};

use crate::ckpt;
use crate::config::{FarmdConfig, ServerConfig};
use crate::daemon::{self, Daemon};
use crate::stats::{page, StatsDoc};

/// Human names of the four resource kinds, in `Resources` index order.
const RESOURCE_NAMES: [&str; 4] = ["vcpu", "ram_mb", "tcam", "pcie_poll"];

/// A running farmd instance: the hosted farm's core thread plus the
/// listening control endpoint.
pub type Farmd = Daemon<Core>;

/// How many heartbeats long the coordinator has to answer a
/// registration or a beat: 5 s at the default 500 ms `[fed] heartbeat_ms`.
const COORDINATOR_BEATS: u32 = 10;

/// The pod side of federation membership: register with the fedd
/// coordinator, then heartbeat it, over one session the core's tick
/// moves along — farmd never waits on the coordinator. A rejected beat
/// (the coordinator restarted) registers again at once; a failed
/// registration — refused, a transport error, or no answer within
/// [`COORDINATOR_BEATS`] heartbeats — is retried a beat later
/// (`fed.pod.errors`).
struct Membership {
    link: LinkId,
    /// The `RegisterPod` manifest, sent again on every registration.
    manifest: ControlOp,
    name: String,
    every: Duration,
    seq: u64,
    registered: bool,
    /// The request awaiting its answer, and until when it is awaited.
    asked: Option<(u64, Instant)>,
    /// When the next registration or beat is due.
    due: Instant,
    registrations: Arc<Counter>,
    /// `fed.pod.beats_sent`: beats written to the coordinator.
    sent: Arc<Counter>,
    beats: Arc<Counter>,
    errors: Arc<Counter>,
    /// `fed.pod.registered`: 1 while the coordinator knows the pod.
    up: Arc<Gauge>,
}

impl Membership {
    /// The membership a `[fed]` section asks for.
    fn new(config: &FarmdConfig, links: &mut impl Peers, telemetry: &Telemetry) -> Option<Self> {
        let fed = config.fed.as_ref()?;
        let node = format!("farmd/{}", fed.pod_name);
        Some(Membership {
            link: links.open(fed.coordinator, &node, &Telemetry::new()),
            manifest: ControlOp::RegisterPod {
                name: fed.pod_name.clone(),
                addr: fed.advertise.unwrap_or(config.server.listen).to_string(),
                switches: (config.spines + config.leaves) as u64,
                quota: config.quota,
            },
            name: fed.pod_name.clone(),
            every: fed.heartbeat,
            seq: 0,
            registered: false,
            asked: None,
            due: links.now(),
            registrations: telemetry.counter("fed.pod.registrations"),
            sent: telemetry.counter("fed.pod.beats_sent"),
            beats: telemetry.counter("fed.pod.heartbeats"),
            errors: telemetry.counter("fed.pod.errors"),
            up: telemetry.gauge("fed.pod.registered"),
        })
    }

    /// Takes the coordinator's answer from `answers`, then writes what
    /// is due.
    fn tick(&mut self, links: &mut impl Peers, answers: &[Answer], now: Instant) {
        if let Some((corr, deadline)) = self.asked {
            let answer = answers
                .iter()
                .find(|a| a.link == self.link && a.corr == corr);
            let Some(answer) = answer else {
                if now < deadline {
                    return;
                }
                links.forget(self.link, corr);
                self.asked = None;
                return self.settle(false, now);
            };
            self.asked = None;
            let ok = match (&answer.reply, self.registered) {
                (Ok(Frame::ControlReply { reply }), false) => {
                    matches!(reply, ControlReply::PodRegistered { .. })
                }
                (Ok(Frame::ControlReply { reply }), true) => matches!(reply, ControlReply::Ok),
                _ => false,
            };
            if ok && self.registered {
                self.beats.inc();
            } else if ok {
                self.registrations.inc();
            }
            self.settle(ok, now);
        }
        if self.asked.is_none() && now >= self.due {
            let op = if self.registered {
                self.seq += 1;
                ControlOp::PodHeartbeat {
                    name: self.name.clone(),
                    seq: self.seq,
                }
            } else {
                self.manifest.clone()
            };
            let beat = matches!(op, ControlOp::PodHeartbeat { .. });
            match links.request(self.link, Frame::Control { op }) {
                Ok(corr) => {
                    if beat {
                        self.sent.inc();
                    }
                    let wait = self.every.saturating_mul(COORDINATOR_BEATS);
                    self.asked = Some((corr, now + wait));
                }
                Err(_) => self.settle(false, now),
            }
        }
    }

    /// After an exchange: a good one is next due a beat later; a failed
    /// beat registers again at once, a failed registration a beat later.
    fn settle(&mut self, ok: bool, now: Instant) {
        if !ok {
            self.errors.inc();
        }
        let again = self.registered && !ok;
        self.due = if again { now } else { now + self.every };
        self.registered = ok;
        self.up.set(if ok { 1.0 } else { 0.0 });
    }
}

/// The daemon's single-threaded heart: the farm it owns, the catalog of
/// submitted program sources (persisted into checkpoints so a cold
/// restart can recompile them), and the tickers' clocks, read from `P`.
pub struct Core<P = Links> {
    farm: Farm,
    /// The coordinator session of a `[fed]` pod; empty otherwise.
    links: P,
    membership: Option<Membership>,
    config: FarmdConfig,
    /// Source of every submitted task, by name — what `FARMCKP2`
    /// program records are written from.
    programs: BTreeMap<String, String>,
    booted: Instant,
    last_tick: Instant,
    last_replan: Instant,
    last_ckpt: Instant,
    /// When the last checkpoint was captured (boot, before the first).
    ckpt_at: Instant,
    /// `ckpt.age_s`, set by every tick.
    ckpt_age: Arc<Gauge>,
}

impl<P> Core<P> {
    /// The farm this core serves.
    pub fn farm(&self) -> &Farm {
        &self.farm
    }

    /// The farm, mutably: a caller that steps the core's virtual clock
    /// itself (`Farm::advance`) instead of through the wall-clock ticker.
    pub fn farm_mut(&mut self) -> &mut Farm {
        &mut self.farm
    }
}

/// The deterministic churn plan `[faults] seed` asks for: crashes and
/// PCIe degradation over the leaf tier (leaves host seeds; leaf↔leaf
/// links don't exist in a spine-leaf fabric, so link flaps are left
/// out). Faults begin `fault_start` into virtual time — the warmup
/// window that lets the catalog load on a healthy fabric — and extend
/// `fault_horizon` beyond that.
fn churn_plan(config: &FarmdConfig, seed: u64) -> FaultPlan {
    let leaves: Vec<SwitchId> = (config.spines..config.spines + config.leaves)
        .map(|i| SwitchId(i as u32))
        .collect();
    let start = Time::ZERO + Dur::from_nanos(config.fault_start.as_nanos() as u64);
    FaultPlan::churn(
        seed,
        &leaves,
        start,
        start + Dur::from_nanos(config.fault_horizon.as_nanos() as u64),
        ChurnProfile {
            mean_gap: Dur::from_nanos(config.fault_mean_gap.as_nanos() as u64),
            weights: [2, 0, 1],
            ..ChurnProfile::default()
        },
    )
}

impl<P: Peers + 'static> daemon::Core for Core<P> {
    type Config = FarmdConfig;
    type Peers = P;
    const NAME: &'static str = "farmd";
    const PREFIX: &'static str = "ctl";

    fn server(config: &mut FarmdConfig) -> &mut ServerConfig {
        &mut config.server
    }

    /// Builds the farm and, when asked to, restores the checkpoint file
    /// into it before the first op is served.
    fn boot(config: FarmdConfig, mut links: P) -> Core<P> {
        let topo = Topology::spine_leaf(
            config.spines,
            config.leaves,
            SwitchModel::accton_as7712(),
            SwitchModel::accton_as5712(),
        );
        let mut builder = Farm::builder(topo);
        if let Some(seed) = config.fault_seed {
            builder = builder.with_fault_plan(churn_plan(&config, seed));
        }
        if let Some(path) = &config.event_log {
            match std::fs::File::create(path) {
                Ok(f) => {
                    builder = builder.with_sink(Arc::new(JsonLinesSink::new(Box::new(
                        io::BufWriter::new(f),
                    ))));
                }
                Err(e) => eprintln!("farmd: cannot open event log {}: {e}", path.display()),
            }
        }
        let farm = builder.build();
        let membership = Membership::new(&config, &mut links, farm.telemetry());
        let now = links.now();
        let mut core = Core {
            ckpt_age: farm.telemetry().gauge("ckpt.age_s"),
            farm,
            links,
            membership,
            config,
            programs: BTreeMap::new(),
            booted: now,
            last_tick: now,
            last_replan: now,
            last_ckpt: now,
            ckpt_at: now,
        };
        if core.config.restore_on_boot && core.config.checkpoint_path.is_some() {
            match restore(&mut core) {
                ControlReply::Restored { seeds, skipped } if seeds > 0 || skipped > 0 => {
                    eprintln!("farmd: boot restore: {seeds} seed(s) restored, {skipped} skipped");
                }
                ControlReply::Rejected { reason } => {
                    eprintln!("farmd: boot restore failed: {reason}");
                }
                _ => {}
            }
        }
        // The registration leaves now, on a dial the first turns land.
        if let Some(membership) = &mut core.membership {
            membership.tick(&mut core.links, &[], now);
        }
        core
    }

    fn telemetry(&self) -> &Telemetry {
        self.farm.telemetry()
    }

    fn links(&self) -> &P {
        &self.links
    }

    /// A Submit records `compile`, `admission` and the farm's phases
    /// (`register`, `replan` with its `plan`, `commit` and each `plant`
    /// and `migrate`), a Drain or an Uncordon the farm's round.
    fn serve(&mut self, op: &ControlOp, now: Instant, spans: &mut Vec<Span>) -> ControlReply {
        serve_op(self, op, now, spans)
    }

    fn tick(&mut self, now: Instant) {
        if let Some(membership) = &mut self.membership {
            let mut answers = Vec::new();
            let _ = self.links.poll(Duration::ZERO, &mut answers);
            membership.tick(&mut self.links, &answers, now);
        }
        if let Some(every) = self.config.tick_interval {
            // Advance virtual time in wall-clock lockstep so heartbeats,
            // fault injection and recovery run while the daemon idles;
            // `tick_interval` bounds how stale the virtual clock runs.
            if now.saturating_duration_since(self.last_tick) >= every {
                self.last_tick = now;
                let since_boot = now.saturating_duration_since(self.booted);
                let target = Time::ZERO + Dur::from_nanos(since_boot.as_nanos() as u64);
                self.farm.advance(target);
            }
        }
        if let Some(every) = self.config.replan_interval {
            if now.saturating_duration_since(self.last_replan) >= every {
                self.last_replan = now;
                let _ = self.farm.replan();
            }
        }
        if let Some(every) = self.config.checkpoint_interval {
            if now.saturating_duration_since(self.last_ckpt) >= every {
                self.last_ckpt = now;
                checkpoint(self);
            }
        }
        let age = now.saturating_duration_since(self.ckpt_at);
        self.ckpt_age.set(age.as_secs_f64());
    }

    /// Makes the state durable one last time.
    fn drained(&mut self) {
        if self.config.checkpoint_path.is_some() {
            checkpoint(self);
        }
    }

    fn audit(&self, kind: &'static str, outcome: &'static str, elapsed_us: u64) {
        let at_ns = self.farm.now().as_nanos();
        self.farm.telemetry().emit_with(|| Event::ControlOp {
            at_ns,
            op: kind.to_string(),
            outcome: outcome.to_string(),
            elapsed_us,
        });
    }
}

/// Serves one control op against the farm, served at `now`, and appends
/// its spans to `spans`. Total: every failure becomes a structured
/// reply, never a panic.
fn serve_op<P: Peers>(
    core: &mut Core<P>,
    op: &ControlOp,
    now: Instant,
    spans: &mut Vec<Span>,
) -> ControlReply {
    let farm = &mut core.farm;
    match op {
        ControlOp::SubmitProgram { name, source } => {
            submit(core, name, source, false, (now, spans))
        }
        ControlOp::ExplainSubmit { name, source } => submit(core, name, source, true, (now, spans)),
        ControlOp::Drain { switch } => traced(core, (now, spans), |farm, log| {
            match farm.drain_traced(SwitchId(*switch), log) {
                Ok((_, evacuated)) => ControlReply::Drained {
                    switch: *switch,
                    evacuated: evacuated as u64,
                },
                Err(e) => ControlReply::Rejected {
                    reason: e.to_string(),
                },
            }
        }),
        ControlOp::Uncordon { switch } => traced(core, (now, spans), |farm, log| {
            match farm.uncordon_traced(SwitchId(*switch), log) {
                Ok(_) => ControlReply::Ok,
                Err(e) => ControlReply::Rejected {
                    reason: e.to_string(),
                },
            }
        }),
        ControlOp::ListSeeds { from_index, limit } => list_seeds(farm, *from_index, *limit),
        ControlOp::DescribeSeed { key } => describe(farm, key),
        ControlOp::Stats { from_index, limit } => ControlReply::Json {
            body: stats_doc(farm).into_json(*from_index, *limit).to_string(),
        },
        ControlOp::MetricsDump => ControlReply::Json {
            body: metrics_json(&farm.telemetry().snapshot()).to_string(),
        },
        ControlOp::Replan => match farm.replan() {
            Ok(plan) => ControlReply::Replanned {
                actions: plan.actions.len() as u64,
                dropped_tasks: plan.dropped_tasks.len() as u64,
            },
            Err(e) => ControlReply::Rejected {
                reason: e.to_string(),
            },
        },
        ControlOp::Checkpoint => checkpoint(core),
        ControlOp::Restore => restore(core),
        ControlOp::Audit => ControlReply::Audited {
            findings: farm.audit().findings,
        },
        ControlOp::Shutdown => ControlReply::Ok,
        ControlOp::ExportTask { task } => export_task(core, task),
        ControlOp::SubmitWithSnapshot {
            name,
            source,
            seeds,
        } => submit_with_snapshot(core, name, source, seeds, (now, spans)),
        ControlOp::RemoveTask { task } => {
            if !farm.seeder().has_task(task) {
                return ControlReply::Rejected {
                    reason: format!("no task `{task}`"),
                };
            }
            match farm.remove_task(task) {
                Ok(()) => {
                    core.programs.remove(task);
                    ControlReply::Ok
                }
                Err(e) => ControlReply::Rejected {
                    reason: e.to_string(),
                },
            }
        }
        // Coordinator-side ops: a pod answers with a rejection (not a
        // wire error) so a misdirected farmctl gets a readable reason.
        ControlOp::RegisterPod { .. }
        | ControlOp::PodHeartbeat { .. }
        | ControlOp::ListPods
        | ControlOp::MigrateTask { .. } => ControlReply::Rejected {
            reason: format!("`{}` is a coordinator op; this is a pod (farmd)", op.kind()),
        },
        ControlOp::Trace { .. } => ControlReply::Rejected {
            reason: "`trace` is answered by the daemon, not its core".into(),
        },
    }
}

/// Runs `serve` on the farm with a span log timed on the core's peers'
/// clock from `now`, and appends what it recorded to `spans`.
fn traced<P: Peers>(
    core: &mut Core<P>,
    (now, spans): (Instant, &mut Vec<Span>),
    serve: impl FnOnce(&mut Farm, &mut SpanLog) -> ControlReply,
) -> ControlReply {
    let Core { farm, links, .. } = core;
    let clock = || links.now();
    let mut log = SpanLog::on(&clock, now);
    let reply = serve(farm, &mut log);
    spans.extend(log.finish());
    reply
}

/// `ExportTask` (the migration export leg): checkpoint the task's live
/// seeds and hand back its program source plus every snapshot. The task
/// keeps running — removal is a separate op, so a failed import on the
/// target pod leaves the source pod intact.
fn export_task<P>(core: &mut Core<P>, task: &str) -> ControlReply {
    if !core.farm.seeder().has_task(task) {
        return ControlReply::Rejected {
            reason: format!("no task `{task}`"),
        };
    }
    let Some(source) = core.programs.get(task).cloned() else {
        return ControlReply::Rejected {
            reason: format!("task `{task}` has no recorded program source"),
        };
    };
    core.farm.checkpoint_seeds();
    let seeds = core
        .farm
        .export_checkpoints()
        .into_iter()
        .filter(|(key, _)| key.task == task)
        .map(|(key, snap)| (key.to_string(), snap))
        .collect();
    ControlReply::TaskExport { source, seeds }
}

/// `SubmitWithSnapshot` (the migration import leg): a normal submit —
/// same name rules, admission control and compilation — then the
/// carried snapshots land in the checkpoint store and exactly this
/// task's seeds roll forward to them.
fn submit_with_snapshot<P: Peers>(
    core: &mut Core<P>,
    name: &str,
    source: &str,
    seeds: &[(String, SeedSnapshot)],
    traced: (Instant, &mut Vec<Span>),
) -> ControlReply {
    let submitted = submit(core, name, source, false, traced);
    if !matches!(submitted, ControlReply::Submitted { .. }) {
        return submitted;
    }
    import_seed_entries(&mut core.farm, seeds.to_vec());
    core.farm.restore_seeds_for(name);
    submitted
}

/// `SubmitProgram`: size gate → server-side compile with collected
/// diagnostics → admission control → deploy. With `explain` the reply
/// also says where the op's time went ([`explain_plan`]).
fn submit<P: Peers>(
    core: &mut Core<P>,
    name: &str,
    source: &str,
    explain: bool,
    (now, spans): (Instant, &mut Vec<Span>),
) -> ControlReply {
    let Core {
        farm,
        config,
        programs,
        links,
        ..
    } = core;
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return ControlReply::Rejected {
            reason: format!("bad task name `{name}` (want [A-Za-z0-9_-]+)"),
        };
    }
    if farm.seeder().has_task(name) {
        return ControlReply::Rejected {
            reason: format!("task `{name}` is already deployed"),
        };
    }
    if source.len() > config.max_program_bytes {
        return ControlReply::Rejected {
            reason: format!(
                "task `{name}`: program of {} bytes exceeds the {}-byte submission cap",
                source.len(),
                config.max_program_bytes
            ),
        };
    }
    let us = |at: Instant| at.saturating_duration_since(now).as_micros() as u64;
    let mut span = |name, start: Instant, end: Instant| {
        let (start_us, end_us) = (us(start), us(end));
        spans.push(Span {
            name,
            start_us,
            end_us,
        });
    };
    let began = links.now();
    let task = {
        let ctl = SdnController::new(farm.network().topology());
        let report = compile_task_with_diagnostics(name, source, &BTreeMap::new(), &ctl);
        match report.task {
            Some(task) => task,
            None => {
                return ControlReply::CompileFailed {
                    diagnostics: report
                        .diagnostics
                        .iter()
                        .map(|d| Diagnostic {
                            machine: d.machine.clone(),
                            phase: d.error.phase.to_string(),
                            line: d.error.span.line,
                            col: d.error.span.col,
                            message: d.error.message.clone(),
                        })
                        .collect(),
                }
            }
        }
    };
    let compiled = links.now();
    span("compile", began, compiled);
    if let Err(reason) = admission_check(farm, &task, config.quota) {
        return ControlReply::Rejected {
            reason: format!("task `{name}`: {reason}"),
        };
    }
    let admitted = links.now();
    span("admission", compiled, admitted);
    let front = explain.then(|| (compiled - began, admitted - compiled));
    let seeds = task.num_seeds() as u64;
    let clock = || links.now();
    let mut log = SpanLog::on(&clock, now);
    let deployed = farm.deploy_compiled_traced(task, &mut log);
    spans.extend(log.finish());
    match deployed {
        Ok(plan) => {
            // Remember the source: checkpoints persist the catalog so a
            // restarted daemon can recompile and re-place every task.
            programs.insert(name.to_string(), source.to_string());
            ControlReply::Submitted {
                task: name.to_string(),
                seeds,
                actions: plan.actions.len() as u64,
                explain: front.map(|(compile, admission)| explain_plan(&plan, compile, admission)),
            }
        }
        Err(e) => ControlReply::Rejected {
            reason: format!("task `{name}`: {e}"),
        },
    }
}

/// A Submit's [`Explain`]: compile and admission as `submit` timed
/// them, the rest as the plan carries it — the `seeder.splice_us` and
/// `farm.replan_us` samples, and the solver's own runtime.
fn explain_plan(plan: &Plan, compile: Duration, admission: Duration) -> Explain {
    let solve_us = plan.result.runtime.as_micros() as u64;
    let d = &plan.delta;
    Explain {
        compile_us: compile.as_micros() as u64,
        admission_us: admission.as_micros() as u64,
        splice_us: plan.splice_us,
        replan_delta_us: solve_us,
        commit_us: plan.round_us.saturating_sub(solve_us),
        delta: DeltaCounts {
            lp_switches: d.lp_switches as u64,
            frontier: d.frontier as u64,
            reused: d.reused as u64,
            fallback_full: d.fallback_full,
            warm: d.warm,
            steps_replayed: d.steps_replayed as u64,
            steps_executed: d.steps_executed as u64,
            steps_visited: d.steps_visited as u64,
            steps_cascaded: d.steps_cascaded as u64,
            switches_rebuilt: d.switches_rebuilt as u64,
            switches_read: d.switches_read as u64,
            pairs_evaluated: d.pairs_evaluated as u64,
            relocated: d.relocated as u64,
        },
    }
}

/// Per-submission resource quota: the task's minimum feasible demand
/// must fit into the live fabric's remaining headroom, scaled by the
/// configured quota, on every resource kind.
fn admission_check(
    farm: &Farm,
    task: &farm_almanac::compile::CompiledTask,
    quota: f64,
) -> Result<(), String> {
    let mut demand = Resources::ZERO;
    for m in &task.machines {
        let per_seed = m
            .util_of(&m.initial_state)
            .min_feasible()
            .map(|(r, _)| r)
            .unwrap_or(Resources::ZERO);
        for _ in 0..m.seeds.len() {
            demand = demand.add(&per_seed);
        }
    }
    let headroom = farm.headroom(quota);
    for i in 0..4 {
        if demand.0[i] > headroom[i] + 1e-9 {
            return Err(format!(
                "admission: demand {:.1} {} exceeds quota headroom {:.1}",
                demand.0[i], RESOURCE_NAMES[i], headroom[i]
            ));
        }
    }
    Ok(())
}

/// `Checkpoint`: captures every live seed, then — when a checkpoint
/// path is configured — persists the program catalog plus every
/// snapshot as a `FARMCKP2` file, atomically (temp + fsync + rename).
///
/// Persistence failure is *partial success*, not rejection: the
/// in-memory checkpoint already happened, so the reply carries the
/// seed count alongside `persist_error` instead of discarding it.
fn checkpoint<P: Peers>(core: &mut Core<P>) -> ControlReply {
    core.ckpt_at = core.links.now();
    let seeds = core.farm.checkpoint_seeds() as u64;
    let mut persist_error = None;
    if let Some(path) = &core.config.checkpoint_path {
        // Drop catalog entries whose task has since been evicted or
        // drained away entirely; the file mirrors the live farm.
        let seeder = core.farm.seeder();
        core.programs.retain(|name, _| seeder.has_task(name));
        let doc = CheckpointDoc {
            programs: core
                .programs
                .iter()
                .map(|(n, s)| (n.clone(), s.clone()))
                .collect(),
            seeds: core
                .farm
                .export_checkpoints()
                .into_iter()
                .map(|(key, snap)| (key.to_string(), snap))
                .collect(),
        };
        let bytes = encode_checkpoint_doc(&doc);
        let telemetry = core.farm.telemetry().clone();
        let started = core.links.now();
        match ckpt::write_atomic(path, &bytes) {
            Ok(()) => {
                telemetry
                    .latency_histogram("ckpt.write_us")
                    .record((core.links.now() - started).as_micros() as u64);
                telemetry.gauge("ckpt.bytes").set(bytes.len() as f64);
                telemetry.counter("ckpt.writes").inc();
            }
            Err(e) => {
                telemetry.counter("ckpt.write_errors").inc();
                persist_error = Some(format!("could not write {}: {e}", path.display()));
            }
        }
    }
    ControlReply::Checkpointed {
        seeds,
        persist_error,
    }
}

/// `Restore`: when a checkpoint path is configured and the file exists,
/// reloads it — a `FARMCKP2` file, salvaging what a damaged one still
/// holds; any other file is rejected and the live seeds stay as they
/// are. Program records recompile and re-place any task missing from
/// the live catalog — this is what lets a freshly started daemon come
/// back whole — then snapshots land in the checkpoint store and live
/// seeds roll back to them.
///
/// Entries whose seed key no longer parses, or names no seed of a
/// registered task (its program record failed to recompile), are
/// counted into `skipped` and the `ctl.restore_skipped` counter instead
/// of vanishing, and the store does not keep them.
fn restore<P>(core: &mut Core<P>) -> ControlReply {
    let telemetry = core.farm.telemetry().clone();
    let mut skipped = 0u64;
    if let Some(path) = core.config.checkpoint_path.clone() {
        match std::fs::read(&path) {
            Ok(bytes) => match decode_checkpoint(&bytes) {
                Ok(load) => {
                    if load.salvaged || load.corrupt_records > 0 {
                        let recovered = load.doc.programs.len() + load.doc.seeds.len();
                        telemetry
                            .counter("ckpt.salvaged_entries")
                            .add(recovered as u64);
                        eprintln!(
                            "farmd: checkpoint {} was damaged; salvaged {recovered} record(s), \
                             dropped {}",
                            path.display(),
                            load.corrupt_records
                        );
                    }
                    for (name, source) in &load.doc.programs {
                        redeploy_program(core, name, source);
                    }
                    skipped = import_seed_entries(&mut core.farm, load.doc.seeds);
                }
                Err(e) => {
                    return ControlReply::Rejected {
                        reason: format!("{}: {e}", path.display()),
                    }
                }
            },
            // No file yet: restore from the in-memory store alone.
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => {
                return ControlReply::Rejected {
                    reason: format!("{}: {e}", path.display()),
                }
            }
        }
    }
    ControlReply::Restored {
        seeds: core.farm.restore_seeds() as u64,
        skipped,
    }
}

/// Loads keyed seed snapshots — a checkpoint file's or a migration
/// import's — into the farm's checkpoint store, returning how many were
/// dropped for an unparseable key or one that names no seed of a
/// registered task ([`Farm::import_checkpoints`]); both are counted in
/// `ctl.restore_skipped`.
fn import_seed_entries(farm: &mut Farm, entries: Vec<(String, SeedSnapshot)>) -> u64 {
    let total = entries.len();
    let parsed: Vec<_> = (entries.into_iter())
        .filter_map(|(key, snap)| Some((parse_seed_key(&key)?, snap)))
        .collect();
    let skipped = (total - parsed.len() + farm.import_checkpoints(parsed)) as u64;
    if skipped > 0 {
        farm.telemetry().counter("ctl.restore_skipped").add(skipped);
    }
    skipped
}

/// Recompiles and re-places one program from a checkpoint's catalog
/// records. Already-deployed tasks are left alone (a live `Restore`
/// op), and compile or placement failures are logged, not fatal —
/// crash recovery must restore every task it still can. Admission
/// control is deliberately bypassed: these tasks were admitted before
/// the restart.
fn redeploy_program<P>(core: &mut Core<P>, name: &str, source: &str) {
    if core.farm.seeder().has_task(name) {
        core.programs
            .entry(name.to_string())
            .or_insert_with(|| source.to_string());
        return;
    }
    let ctl = SdnController::new(core.farm.network().topology());
    let report = compile_task_with_diagnostics(name, source, &BTreeMap::new(), &ctl);
    let Some(task) = report.task else {
        eprintln!("farmd: restore: program `{name}` no longer compiles; skipping");
        return;
    };
    match core.farm.deploy_compiled(task) {
        Ok(_) => {
            core.programs.insert(name.to_string(), source.to_string());
        }
        Err(e) => eprintln!("farmd: restore: cannot re-place `{name}`: {e}"),
    }
}

/// `ListSeeds`: the full listing, or — when the op carries a cursor —
/// one page of it. The listing is sorted by seed key either way, so
/// concatenating pages reproduces the unpaginated reply exactly.
fn list_seeds(farm: &Farm, from_index: u64, limit: u64) -> ControlReply {
    let mut seeds: Vec<SeedDescriptor> = farm.seed_statuses().into_iter().map(descriptor).collect();
    seeds.sort_by(|a, b| a.key.cmp(&b.key));
    let (range, cursor) = page(from_index, limit, seeds.len());
    let (next_index, total) = cursor.unwrap_or((0, 0));
    ControlReply::Seeds {
        seeds: seeds.drain(range).collect(),
        next_index,
        total,
    }
}

fn descriptor(s: SeedStatus) -> SeedDescriptor {
    SeedDescriptor {
        key: s.key.to_string(),
        task: s.key.task,
        machine: s.machine,
        switch: s.switch.0,
        state: s.state,
        alloc: s.alloc.0,
    }
}

/// Parses the `task/m<i>/s<j>` display form of a [`SeedKey`].
fn parse_seed_key(s: &str) -> Option<SeedKey> {
    let (rest, seed) = s.rsplit_once("/s")?;
    let (task, machine) = rest.rsplit_once("/m")?;
    Some(SeedKey {
        task: task.to_string(),
        machine: machine.parse().ok()?,
        seed: seed.parse().ok()?,
    })
}

fn describe(farm: &Farm, key: &str) -> ControlReply {
    let Some(parsed) = parse_seed_key(key) else {
        return ControlReply::Rejected {
            reason: format!("bad seed key `{key}` (want task/m<i>/s<j>)"),
        };
    };
    let Some(status) = farm.seed_status(&parsed) else {
        return ControlReply::Rejected {
            reason: format!("no seed `{key}`"),
        };
    };
    let vars = farm.seed_vars(&parsed).unwrap_or_default();
    ControlReply::Seed {
        desc: descriptor(status),
        vars,
    }
}

/// The `Stats` document of this farm; `own` carries planner health at a
/// glance — how often the farm replans, how long a round takes, and
/// whether the incremental solver is actually serving warm rounds or
/// degrading to full recomputes — and the daemon's gauges: how busy its
/// core thread's reactor was over the last turn, how many seeds wait
/// for recovery, and how old the last checkpoint is.
fn stats_doc(farm: &Farm) -> StatsDoc {
    let snap = farm.telemetry().snapshot();
    let mut replan = Json::obj([("replans", Json::from(snap.counter("farm.replans")))])
        .with("replan_delta", snap.counter("farm.replan_delta"))
        .with(
            "delta_fallback_full",
            snap.counter("farm.delta_fallback_full"),
        );
    let round = snap.histogram("farm.replan_us");
    let warm = snap.histogram("farm.replan_delta_us");
    for (name, percentile) in [
        ("replan_us_p50", round.and_then(|h| h.p50)),
        ("replan_us_p95", round.and_then(|h| h.p95)),
        ("replan_delta_us_p95", warm.and_then(|h| h.p95)),
    ] {
        if let Some(p) = percentile {
            replan = replan.with(name, p);
        }
    }
    let gauges = [
        "net.reactor_utilisation",
        "farm.recovery_queue",
        "ckpt.age_s",
    ]
    .map(|name| (name, Json::from(snap.gauge(name).unwrap_or(0.0))));
    let ids = |switches: Vec<SwitchId>| switches.iter().map(|s| u64::from(s.0)).collect();
    StatsDoc {
        now_ns: farm.now().as_nanos(),
        tasks: farm.seeder().task_names(),
        seeds: farm.deployed_seeds() as u64,
        switches: farm.network().switch_ids().len() as u64,
        cordoned: ids(farm.cordoned_switches()),
        fenced: ids(farm.fenced_switches()),
        recovery_pending: farm.recovery_pending() as u64,
        own: vec![
            ("replan".into(), replan),
            ("gauges".into(), Json::obj(gauges)),
        ],
        counters: snap.counters,
    }
}

/// The `MetricsDump` body: the whole registry (counters, gauges,
/// histograms) plus a `metrics` summary of the run's traffic accounting
/// — both read from one snapshot, so the two halves always agree.
fn metrics_json(snap: &Snapshot) -> Json {
    const FARM: [&str; 10] = [
        "collector_messages",
        "collector_bytes",
        "seed_messages",
        "seed_bytes",
        "control_messages",
        "control_bytes",
        "migrations",
        "migration_bytes",
        "seed_errors",
        "replans",
    ];
    let farm = |key: &str| snap.counter(&format!("farm.{key}"));
    let metrics = Json::obj(FARM.map(|key| (key, farm(key).into())))
        .with("net_dead_letters", snap.counter("net.dead_letters"))
        .with(
            "total_network_bytes",
            farm("collector_bytes")
                + farm("seed_bytes")
                + farm("control_bytes")
                + farm("migration_bytes"),
        );
    Json::obj([("metrics", metrics), ("registry", snap.to_json())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_netsim::switch::ResourceKind;

    #[test]
    fn seed_keys_round_trip_their_display_form() {
        let key = SeedKey {
            task: "hh-v2".into(),
            machine: 1,
            seed: 12,
        };
        assert_eq!(parse_seed_key(&key.to_string()), Some(key));
        assert!(parse_seed_key("nope").is_none());
        assert!(parse_seed_key("t/mX/s1").is_none());
    }

    /// The compact `MetricsDump` body for a fixed registry: these keys,
    /// in this order, no whitespace.
    #[test]
    fn metrics_dump_body_is_pinned() {
        let t = Telemetry::new();
        t.counter("farm.collector_bytes").add(5);
        t.counter("farm.seed_bytes").add(2);
        t.counter("net.dead_letters").add(3);
        t.gauge("ckpt.bytes").set(1.5);
        t.gauge("fed.pod.registered").set(1.0);
        t.latency_histogram("ctl.op_latency_us").record(40);
        t.latency_histogram("farm.replan_us");
        assert_eq!(
            metrics_json(&t.snapshot()).to_string(),
            concat!(
                r#"{"metrics":{"collector_messages":0,"collector_bytes":5,"seed_messages":0,"#,
                r#""seed_bytes":2,"control_messages":0,"control_bytes":0,"migrations":0,"#,
                r#""migration_bytes":0,"seed_errors":0,"replans":0,"net_dead_letters":3,"#,
                r#""total_network_bytes":7},"#,
                r#""registry":{"counters":{"farm.collector_bytes":5,"farm.seed_bytes":2,"#,
                r#""net.dead_letters":3},"gauges":{"ckpt.bytes":1.5,"fed.pod.registered":1},"#,
                r#""histograms":{"ctl.op_latency_us":{"count":1,"sum":40,"max":40,"p50":37.5,"#,
                r#""p95":48.75,"p99":49.75},"farm.replan_us":{"count":0,"sum":0,"max":0}}}}"#,
            )
        );
    }

    #[test]
    fn a_rejected_submit_leaves_the_name_free() {
        // Places (flat utility) but cannot be planted: its poll interval
        // is infinite at the zero PCIe the planner gives it.
        const UNPLANTABLE: &str = "machine Stuck { place any;
            poll p = Poll { .ival = 10/res().PCIe, .what = port ANY };
            state s { util (res) { return 1; } when (p as stats) do { } } }";
        let mut core = <Core as daemon::Core>::boot(FarmdConfig::default(), Links::default());
        let mut spans = Vec::new();
        let reply = submit(
            &mut core,
            "w1",
            UNPLANTABLE,
            false,
            (Instant::now(), &mut spans),
        );
        assert!(matches!(reply, ControlReply::Rejected { .. }), "{reply:?}");
        assert!(!core.farm.seeder().has_task("w1"));
        let reply = submit(
            &mut core,
            "w1",
            "machine M { place any; state s { } }",
            false,
            (Instant::now(), &mut spans),
        );
        assert!(matches!(reply, ControlReply::Submitted { .. }), "{reply:?}");
        assert!(core.programs.contains_key("w1"));
    }

    #[test]
    fn a_migration_import_counts_a_bad_seed_key() {
        let mut core = <Core as daemon::Core>::boot(FarmdConfig::default(), Links::default());
        let snap = SeedSnapshot {
            machine: "M".into(),
            state: "s".into(),
            vars: vec![],
        };
        let seeds = [
            ("w1/m0/s0".to_string(), snap.clone()),
            ("not-a-seed-key".to_string(), snap),
        ];
        let source = "machine M { place any; state s { } }";
        let mut spans = Vec::new();
        let traced = (Instant::now(), &mut spans);
        let reply = submit_with_snapshot(&mut core, "w1", source, &seeds, traced);
        assert!(matches!(reply, ControlReply::Submitted { .. }), "{reply:?}");
        let registry = core.farm.telemetry().snapshot();
        assert_eq!(registry.counter("ctl.restore_skipped"), 1);
    }

    #[test]
    fn stats_body_reports_replan_and_delta_health() {
        let topo = Topology::spine_leaf(
            2,
            3,
            SwitchModel::accton_as7712(),
            SwitchModel::accton_as5712(),
        );
        let mut farm = FarmBuilder::new(topo).build();
        farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
            .unwrap();
        farm.replan().unwrap(); // a warm round so the delta counters move
        let body = stats_doc(&farm).into_json(0, 0).to_string();
        for field in [
            "\"replan\":",
            "\"replans\":",
            "\"replan_delta\":",
            "\"delta_fallback_full\":",
            "\"replan_us_p95\":",
            "\"gauges\":{\"net.reactor_utilisation\":",
            "\"farm.recovery_queue\":0,",
            "\"ckpt.age_s\":",
        ] {
            assert!(body.contains(field), "stats body missing {field}: {body}");
        }
    }

    #[test]
    fn admission_counts_exactly_the_switches_placement_may_use() {
        let topo = Topology::spine_leaf(
            2,
            6,
            SwitchModel::accton_as7712(),
            SwitchModel::accton_as5712(),
        );
        let spines: Vec<SwitchId> = topo.spines().collect();
        let leaves: Vec<SwitchId> = topo.leaves().collect();
        let (fenced, cordoned, cut_off, crashed, degraded) =
            (leaves[0], leaves[1], leaves[2], leaves[3], leaves[4]);
        let plan = FaultPlan::new().with(
            Time::from_millis(1),
            FaultKind::SwitchCrash { switch: fenced },
        );
        let mut farm = FarmBuilder::new(topo).with_fault_plan(plan).build();
        // Seeds on every switch, so every soil holds something.
        let hh = farm_almanac::programs::HEAVY_HITTER;
        farm.deploy_task("hh", hh, &BTreeMap::new()).unwrap();
        // The headroom admission grants is the fold over the live list
        // and the soils' in-use totals in slot order, to the bit, however
        // the live list last changed.
        let quota = 0.7;
        let folded = |farm: &Farm| {
            let mut headroom = [0f64; 4];
            for (id, cap) in farm.live_capacities() {
                let soil = farm.soil(*id);
                let used = soil.map_or(Resources::ZERO, |s| s.resources_in_use());
                for (k, h) in headroom.iter_mut().enumerate() {
                    *h += cap.0[k] * quota - used.0[k];
                }
            }
            headroom.map(f64::to_bits)
        };
        let holds = |farm: &Farm, after: &str| {
            let audit = farm.audit();
            assert!(audit.is_clean(), "{after}: {audit}");
            assert_eq!(
                farm.headroom(quota).map(f64::to_bits),
                folded(farm),
                "{after}"
            );
        };
        holds(&farm, "before any change");
        // Three missed heartbeats fence the first leaf; the others fail
        // after the last round, so no detector sees them.
        farm.advance(Time::from_millis(35));
        assert_eq!(farm.fenced_switches(), vec![fenced]);
        holds(&farm, "fenced");
        farm.drain(cordoned).unwrap();
        holds(&farm, "cordoned");
        // Links are cut and switches crash through the fault path, which
        // takes the soil down with the switch: a soil left running on a
        // down switch fails the audit.
        let now = farm.now();
        let cuts = spines
            .iter()
            .map(|&a| FaultKind::LinkDown { a, b: cut_off });
        farm.set_fault_plan(cuts.fold(FaultPlan::new(), |plan, cut| plan.with(now, cut)));
        farm.advance(now);
        holds(&farm, "cut off");
        farm.set_fault_plan(FaultPlan::new().with(now, FaultKind::SwitchCrash { switch: crashed }));
        farm.advance(now);
        holds(&farm, "crashed");
        let full = farm
            .network()
            .switch(degraded)
            .unwrap()
            .effective_resources();
        (farm.switch_mut(degraded).unwrap())
            .pcie_mut()
            .set_degradation(0.5);
        holds(&farm, "PCIe-degraded");

        let live: Vec<SwitchId> = spines.iter().chain(&leaves[4..]).copied().collect();
        let capacities = farm.live_capacities();
        let ids: Vec<SwitchId> = capacities.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, live);
        let at = |id: SwitchId| capacities.iter().find(|(n, _)| *n == id).unwrap().1;
        let poll = |r: Resources| r.get(ResourceKind::PciePoll);
        assert_eq!(poll(at(degraded)), poll(full) * 0.5, "effective resources");

        // The quota at which the task's demand exactly meets the live
        // set's headroom on its tightest resource: admission must flip
        // there, which it does only if it sums over the same switches.
        let task = {
            let ctl = SdnController::new(farm.network().topology());
            farm_almanac::compile::compile_task("hh2", hh, &BTreeMap::new(), &ctl).unwrap()
        };
        let mut demand = Resources::ZERO;
        for m in &task.machines {
            let (per_seed, _) = m.util_of(&m.initial_state).min_feasible().unwrap();
            for _ in 0..m.seeds.len() {
                demand = demand.add(&per_seed);
            }
        }
        let used = |k: usize| -farm.headroom(0.0)[k];
        let tightest = (0..4)
            .map(|k| (demand.0[k] + used(k)) / capacities.iter().map(|(_, c)| c.0[k]).sum::<f64>())
            .fold(0.0, f64::max);
        assert!(tightest > 0.0);
        assert_eq!(admission_check(&farm, &task, tightest * 1.001), Ok(()));
        let refused = admission_check(&farm, &task, tightest * 0.999).unwrap_err();
        assert!(refused.contains("exceeds quota headroom"), "{refused}");
    }
}
