//! The fedd core: the pod `Registry` served through the daemon
//! skeleton farmd runs on ([`farm_ctl::daemon`]) — the same versioned
//! [`ControlOp`] surface a farmd serves, but federated over every
//! registered pod.
//!
//! The core thread owns the registry, the routing table and one
//! outbound session per pod ([`Links`], watched by the skeleton's
//! reactor); between ops it sweeps heartbeat liveness. The skeleton
//! accounts every op under `fed.*`.
//!
//! Coordinator ops (`RegisterPod`, `PodHeartbeat`, `ListPods`,
//! `MigrateTask`) are served locally; the legacy surface fans out:
//! reads (`ListSeeds` / `Stats` / `MetricsDump` / `Replan` /
//! `Checkpoint` / `Restore`) merge every live pod's answer into one
//! versioned reply with the existing cursor pagination, writes
//! (`SubmitProgram`, `Drain`, `Uncordon`, `RemoveTask`) route through
//! the `split` engine or the global switch-id space. A dead or stalled
//! pod degrades a fan-out (`fan_out`) to the survivors instead of
//! wedging the coordinator; every call to one pod is a fan-out of one.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_ctl::config::ServerConfig;
use farm_ctl::daemon::{self, Daemon};
use farm_ctl::stats::{page, StatsDoc};
use farm_net::{
    ControlOp, ControlReply, Frame, LinkId, Links, NetError, Peers, PodInfo, SeedDescriptor,
};
use farm_telemetry::{Gauge, Json, Span, Telemetry};

use crate::config::FeddConfig;
use crate::registry::Registry;
use crate::split::{split_program, PodTarget, Route};

/// A running fedd instance: the coordinator core thread plus the
/// listening federated control endpoint. Stopping it leaves the pods
/// running — the coordinator's death never takes a fabric with it.
pub type Fedd = Daemon<Core>;

/// The coordinator's single-threaded heart, over its pod sessions and
/// clock `P`.
pub struct Core<P = Links> {
    config: FeddConfig,
    registry: Registry,
    /// One session per pod, which redials by itself.
    links: P,
    /// Each pod's session; replaced only on re-registration.
    sessions: BTreeMap<String, LinkId>,
    /// Routing table: task → pods hosting (a part of) it.
    tasks: BTreeMap<String, Vec<String>>,
    telemetry: Telemetry,
    pods_total: Arc<Gauge>,
    pods_live: Arc<Gauge>,
}

impl<P: Peers + 'static> daemon::Core for Core<P> {
    type Config = FeddConfig;
    type Peers = P;
    const NAME: &'static str = "fedd";
    const PREFIX: &'static str = "fed";

    fn server(config: &mut FeddConfig) -> &mut ServerConfig {
        &mut config.server
    }

    fn boot(config: FeddConfig, links: P) -> Core<P> {
        let telemetry = Telemetry::new();
        Core {
            config,
            registry: Registry::new(),
            links,
            sessions: BTreeMap::new(),
            tasks: BTreeMap::new(),
            pods_total: telemetry.gauge("fed.pods.total"),
            pods_live: telemetry.gauge("fed.pods.live"),
            telemetry,
        }
    }

    fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn links(&self) -> &P {
        &self.links
    }

    fn serve(&mut self, op: &ControlOp, now: Instant, _spans: &mut Vec<Span>) -> ControlReply {
        serve_op(self, op, now)
    }

    /// Moves idle pod sessions along (a pod that hung up is noticed
    /// here), then the heartbeat-liveness sweep.
    fn tick(&mut self, now: Instant) {
        let _ = self.links.poll(Duration::ZERO, &mut Vec::new());
        let (total, live) = self.registry.sweep(self.config.liveness_timeout, now);
        self.pods_total.set(total as f64);
        self.pods_live.set(live as f64);
    }
}

/// Page size fedd uses when walking a pod's cursor-paginated replies.
const POD_PAGE: u64 = 256;

/// Serves one control op against the federation. Total: every failure
/// becomes a structured reply, never a panic.
fn serve_op<P: Peers>(core: &mut Core<P>, op: &ControlOp, now: Instant) -> ControlReply {
    match op {
        ControlOp::RegisterPod {
            name,
            addr,
            switches,
            quota,
        } => register_pod(core, name, addr, *switches, *quota, now),
        ControlOp::PodHeartbeat { name, .. } => {
            if core.registry.beat(name, now) {
                ControlReply::Ok
            } else {
                ControlReply::Rejected {
                    reason: format!("unknown pod `{name}`; re-register"),
                }
            }
        }
        ControlOp::ListPods => list_pods(core, now),
        // fedd has no phase times of its own to give yet.
        ControlOp::SubmitProgram { name, source } | ControlOp::ExplainSubmit { name, source } => {
            submit(core, name, source)
        }
        ControlOp::ListSeeds { from_index, limit } => list_seeds(core, *from_index, *limit),
        ControlOp::DescribeSeed { key } => describe(core, key),
        ControlOp::Stats { from_index, limit } => stats(core, *from_index, *limit),
        ControlOp::MetricsDump => metrics_dump(core),
        ControlOp::Drain { switch } => route_switch_op(core, *switch, true),
        ControlOp::Uncordon { switch } => route_switch_op(core, *switch, false),
        ControlOp::Replan => replan(core),
        ControlOp::Checkpoint => checkpoint(core),
        ControlOp::Restore => restore(core),
        ControlOp::MigrateTask { task, to_pod } => migrate(core, task, to_pod),
        ControlOp::RemoveTask { task } => remove_task(core, task),
        ControlOp::Audit => audit(core),
        ControlOp::Shutdown => ControlReply::Ok,
        // Pod-side halves of the migration flow; fedd drives them, it
        // does not serve them.
        ControlOp::ExportTask { .. } | ControlOp::SubmitWithSnapshot { .. } => {
            ControlReply::Rejected {
                reason: format!(
                    "`{}` is a pod op; use `migrate <task> <pod>` on the coordinator",
                    op.kind()
                ),
            }
        }
        ControlOp::Trace { .. } => ControlReply::Rejected {
            reason: "`trace` is answered by the daemon, not its core".into(),
        },
    }
}

fn register_pod<P: Peers>(
    core: &mut Core<P>,
    name: &str,
    addr: &str,
    switches: u64,
    quota: f64,
    now: Instant,
) -> ControlReply {
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return ControlReply::Rejected {
            reason: format!("bad pod name `{name}` (want [A-Za-z0-9_-]+)"),
        };
    }
    let Ok(addr) = addr.parse::<SocketAddr>() else {
        return ControlReply::Rejected {
            reason: format!("bad pod address `{addr}`"),
        };
    };
    if switches == 0 {
        return ControlReply::Rejected {
            reason: "a pod must manage at least one switch".into(),
        };
    }
    let base = match core.registry.register(name, addr, switches, quota, now) {
        Ok(base) => base,
        Err(reason) => return ControlReply::Rejected { reason },
    };
    // The session held for this name may point at a predecessor's address.
    if let Some(link) = core.sessions.remove(name) {
        core.links.close(link);
    }
    ControlReply::PodRegistered { base }
}

fn list_pods<P: Peers>(core: &Core<P>, now: Instant) -> ControlReply {
    let pods = core
        .registry
        .iter()
        .map(|(name, p)| PodInfo {
            name: name.clone(),
            addr: p.addr.to_string(),
            switches: p.switches,
            base: p.base,
            quota: p.quota,
            live: p.live,
            beats: p.beats,
            age_ms: now.saturating_duration_since(p.last_beat).as_millis() as u64,
        })
        .collect();
    ControlReply::Pods { pods }
}

/// Each pod's `(name, base, outcome)`, in name order.
type Round<T> = Vec<(String, u64, Result<T, String>)>;

/// One pod's part of a round: its walk so far, and the request it waits on.
struct Leg<W> {
    pod: String,
    base: u64,
    link: LinkId,
    walk: W,
    waiting: Option<u64>,
    outcome: Result<(), String>,
}

/// Walks every pod of `pods` (unknown names are skipped) through `step`
/// — called with `None`, then with each reply, it names the next
/// request or ends the walk, gathering into `W`. Every first request is
/// written before any answer is awaited; then the pod sessions alone
/// are waited on, for one `pod_timeout` at most, and a request still
/// unanswered is given up on, never re-sent. Returns `(pod, base,
/// walk)` in `pods`' order, whatever order the answers came in.
fn fan_out<W: Default, P: Peers>(
    core: &mut Core<P>,
    pods: Vec<String>,
    step: &mut impl FnMut(&str, &mut W, Option<ControlReply>) -> Result<Option<ControlOp>, String>,
) -> Round<W> {
    let started = core.links.now();
    let deadline = started + core.config.pod_timeout;
    let mut legs = Vec::with_capacity(pods.len());
    for pod in pods {
        let Some((base, addr)) = core.registry.get(&pod).map(|p| (p.base, p.addr)) else {
            continue;
        };
        let link = *core
            .sessions
            .entry(pod.clone())
            .or_insert_with(|| core.links.open(addr, "fedd", &Telemetry::new()));
        let mut leg = Leg {
            pod,
            base,
            link,
            walk: W::default(),
            waiting: None,
            outcome: Ok(()),
        };
        advance(core, &mut leg, step, None);
        legs.push(leg);
    }
    let mut answers = Vec::new();
    while legs.iter().any(|leg| leg.waiting.is_some()) {
        let left = deadline.saturating_duration_since(core.links.now());
        answers.clear();
        if left.is_zero() || core.links.poll(left, &mut answers).is_err() {
            break;
        }
        for answer in answers.drain(..) {
            let asked = Some(answer.corr);
            let leg = legs
                .iter_mut()
                .find(|l| l.link == answer.link && l.waiting == asked);
            let Some(leg) = leg else {
                continue;
            };
            leg.waiting = None;
            match answer.reply {
                Ok(Frame::ControlReply { reply }) => advance(core, leg, step, Some(reply)),
                Ok(other) => {
                    leg.outcome = Err(format!("pod `{}` sent `{}`", leg.pod, other.kind()))
                }
                Err(e) => leg.outcome = Err(format!("pod `{}`: {e}", leg.pod)),
            }
        }
    }
    for leg in &mut legs {
        if let Some(corr) = leg.waiting.take() {
            core.links.forget(leg.link, corr);
            leg.outcome = Err(format!("pod `{}`: {}", leg.pod, NetError::Timeout));
        }
    }
    core.telemetry
        .latency_histogram("fed.fanout_us")
        .record((core.links.now() - started).as_micros() as u64);
    let done = |leg: Leg<W>| (leg.pod, leg.base, leg.outcome.map(|()| leg.walk));
    legs.into_iter().map(done).collect()
}

/// Feeds `reply` to a leg's walk and writes the request it asks for.
fn advance<W, P: Peers>(
    core: &mut Core<P>,
    leg: &mut Leg<W>,
    step: &mut impl FnMut(&str, &mut W, Option<ControlReply>) -> Result<Option<ControlOp>, String>,
    reply: Option<ControlReply>,
) {
    let next = step(&leg.pod, &mut leg.walk, reply);
    let asked = next.map(|op| op.map(|op| core.links.request(leg.link, Frame::Control { op })));
    match asked {
        Ok(Some(Ok(corr))) => leg.waiting = Some(corr),
        Ok(None) => {}
        Ok(Some(Err(e))) => leg.outcome = Err(format!("pod `{}`: {e}", leg.pod)),
        Err(e) => leg.outcome = Err(e),
    }
}

/// Asks `pods` one request each, in one round: each pod's reply, or
/// why there is none.
fn ask<P: Peers>(core: &mut Core<P>, pods: Vec<String>, op: ControlOp) -> Round<ControlReply> {
    let mut once = |_: &str, kept: &mut Option<ControlReply>, reply: Option<ControlReply>| {
        let first = reply.is_none();
        *kept = reply;
        Ok(first.then(|| op.clone()))
    };
    let round = fan_out(core, pods, &mut once);
    let kept = |walk: Result<Option<_>, _>| walk.and_then(|r| r.ok_or_else(|| "no reply".into()));
    round
        .into_iter()
        .map(|(pod, base, walk)| (pod, base, kept(walk)))
        .collect()
}

/// Asks every live pod `op`.
fn broadcast<P: Peers>(core: &mut Core<P>, op: ControlOp) -> Round<ControlReply> {
    let live = live_pods(core);
    ask(core, live, op)
}

/// One request to one pod: a round of one. Asked exactly once: a
/// request that timed out may still have run on the pod, so no failure
/// is re-sent.
fn pod_op<P: Peers>(core: &mut Core<P>, pod: &str, op: ControlOp) -> Result<ControlReply, String> {
    match ask(core, vec![pod.to_string()], op).pop() {
        Some((_, _, reply)) => reply,
        None => Err(format!("unknown pod `{pod}`")),
    }
}

/// Live pods' names, sorted.
fn live_pods<P: Peers>(core: &Core<P>) -> Vec<String> {
    core.registry.live().map(|(name, _)| name.clone()).collect()
}

/// Live pods in admission-preference order: fewest routed tasks first,
/// name as the deterministic tie-break.
fn placement_order<P: Peers>(core: &Core<P>) -> Vec<PodTarget> {
    let mut order: Vec<(usize, PodTarget)> = core
        .registry
        .live()
        .map(|(name, p)| {
            let load = core
                .tasks
                .values()
                .filter(|pods| pods.contains(name))
                .count();
            (
                load,
                PodTarget {
                    name: name.clone(),
                    base: p.base,
                    switches: p.switches,
                },
            )
        })
        .collect();
    order.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.name.cmp(&b.1.name)));
    order.into_iter().map(|(_, t)| t).collect()
}

/// Renders a submission failure (for rollback reasons): the pod's
/// structured reply flattened into one line.
fn submit_failure(reply: &ControlReply) -> String {
    match reply {
        ControlReply::Rejected { reason } => reason.clone(),
        ControlReply::CompileFailed { diagnostics } => match diagnostics.first() {
            Some(d) => format!(
                "compile failed: {} ({}:{}:{})",
                d.message, d.machine, d.line, d.col
            ),
            None => "compile failed".into(),
        },
        other => format!("unexpected reply `{}`", other.kind()),
    }
}

/// Federated admission: route whole (single pod) or split with
/// all-or-nothing rollback.
fn submit<P: Peers>(core: &mut Core<P>, name: &str, source: &str) -> ControlReply {
    if core.tasks.contains_key(name) {
        return ControlReply::Rejected {
            reason: format!("task `{name}` is already deployed in the federation"),
        };
    }
    if source.len() > core.config.max_program_bytes {
        return ControlReply::Rejected {
            reason: format!(
                "program of {} bytes exceeds the {}-byte submission cap",
                source.len(),
                core.config.max_program_bytes
            ),
        };
    }
    let pods = placement_order(core);
    let route = match split_program(source, &pods) {
        Ok(route) => route,
        Err(reason) => return ControlReply::Rejected { reason },
    };
    let parts = match route {
        Route::Single { pod, source } => {
            core.telemetry.counter("fed.route.single").inc();
            vec![(pod, source)]
        }
        Route::Split { parts } => {
            core.telemetry.counter("fed.route.split").inc();
            parts
        }
    };
    let mut placed: Vec<String> = Vec::new();
    let mut seeds = 0u64;
    let mut actions = 0u64;
    for (pod, part) in &parts {
        let outcome = pod_op(
            core,
            pod,
            ControlOp::SubmitProgram {
                name: name.to_string(),
                source: part.clone(),
            },
        );
        match outcome {
            Ok(ControlReply::Submitted {
                seeds: s,
                actions: a,
                ..
            }) => {
                seeds += s;
                actions += a;
                placed.push(pod.clone());
            }
            failed => {
                let reason = match &failed {
                    Ok(reply) => submit_failure(reply),
                    Err(e) => e.clone(),
                };
                // All-or-nothing: evict the parts that did land.
                let mut rolled_back = 0usize;
                for done in &placed {
                    if pod_op(
                        core,
                        done,
                        ControlOp::RemoveTask {
                            task: name.to_string(),
                        },
                    )
                    .is_ok()
                    {
                        rolled_back += 1;
                    }
                }
                core.telemetry.counter("fed.route.rollback").inc();
                return ControlReply::Rejected {
                    reason: format!(
                        "pod `{pod}`: {reason} (rolled back {rolled_back}/{} placed part(s))",
                        placed.len()
                    ),
                };
            }
        }
    }
    core.tasks.insert(name.to_string(), placed);
    ControlReply::Submitted {
        task: name.to_string(),
        seeds,
        actions,
        explain: None,
    }
}

/// Walks one pod's seed listing through its cursor.
fn pod_seeds(
    pod: &str,
    seeds: &mut Vec<SeedDescriptor>,
    reply: Option<ControlReply>,
) -> Result<Option<ControlOp>, String> {
    let from_index = match reply {
        None => 0,
        Some(ControlReply::Seeds {
            seeds: page,
            next_index,
            ..
        }) => {
            seeds.extend(page);
            if next_index == 0 {
                return Ok(None);
            }
            next_index
        }
        Some(other) => return Err(format!("pod `{pod}` answered `{}`", other.kind())),
    };
    Ok(Some(ControlOp::ListSeeds {
        from_index,
        limit: POD_PAGE,
    }))
}

/// Federated `ListSeeds`: fan out to every live pod (cursor-walked),
/// globalize keys and switch ids, merge sorted, then window the merged
/// listing with the same cursor semantics a single farmd serves.
fn list_seeds<P: Peers>(core: &mut Core<P>, from_index: u64, limit: u64) -> ControlReply {
    let mut merged: Vec<SeedDescriptor> = Vec::new();
    let live = live_pods(core);
    for (pod, base, seeds) in fan_out(core, live, &mut pod_seeds) {
        match seeds {
            Ok(seeds) => merged.extend(seeds.into_iter().map(|mut d| {
                d.key = format!("{pod}:{}", d.key);
                d.switch += base as u32;
                d
            })),
            Err(_) => core.telemetry.counter("fed.fanout.errors").inc(),
        }
    }
    merged.sort_by(|a, b| a.key.cmp(&b.key));
    let (range, cursor) = page(from_index, limit, merged.len());
    let (next_index, total) = cursor.unwrap_or((0, 0));
    ControlReply::Seeds {
        seeds: merged.drain(range).collect(),
        next_index,
        total,
    }
}

/// Federated `DescribeSeed`: keys carry a `pod:` prefix.
fn describe<P: Peers>(core: &mut Core<P>, key: &str) -> ControlReply {
    let Some((pod, local_key)) = key.split_once(':') else {
        return ControlReply::Rejected {
            reason: format!("bad federated seed key `{key}` (want pod:task/m<i>/s<j>)"),
        };
    };
    let Some(base) = core.registry.get(pod).map(|p| p.base) else {
        return ControlReply::Rejected {
            reason: format!("unknown pod `{pod}`"),
        };
    };
    match pod_op(
        core,
        pod,
        ControlOp::DescribeSeed {
            key: local_key.to_string(),
        },
    ) {
        Ok(ControlReply::Seed { mut desc, vars }) => {
            desc.key = format!("{pod}:{}", desc.key);
            desc.switch += base as u32;
            ControlReply::Seed { desc, vars }
        }
        Ok(other) => other,
        Err(reason) => ControlReply::Rejected { reason },
    }
}

/// Walks one pod's `Stats` counter pages into one [`StatsDoc`] — the
/// first page's summary with every page's counters — beside the cursor
/// it asked for last.
fn pod_stats(
    pod: &str,
    (doc, from): &mut (StatsDoc, u64),
    reply: Option<ControlReply>,
) -> Result<Option<ControlOp>, String> {
    if let Some(reply) = reply {
        let ControlReply::Json { body } = reply else {
            return Err(format!("pod `{pod}` answered `{}`", reply.kind()));
        };
        let page = Json::parse(&body).map_err(|e| format!("pod `{pod}` stats: {e}"))?;
        let parsed = StatsDoc::from_json(&page);
        if *from == 0 {
            *doc = parsed;
        } else {
            doc.counters.extend(parsed.counters);
        }
        let next = page
            .get("counters_next_index")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        // 0 ends the walk; so does a cursor that fails to advance.
        if next <= *from {
            return Ok(None);
        }
        *from = next;
    }
    Ok(Some(ControlOp::Stats {
        from_index: *from,
        limit: POD_PAGE,
    }))
}

/// Federated `Stats`: every live pod's document folded into one, plus
/// the coordinator's own view (`pods_total` / `pods_live` /
/// `pods_reached`). The merged counter map is cursor-paginated exactly
/// like a single farmd's.
fn stats<P: Peers>(core: &mut Core<P>, from_index: u64, limit: u64) -> ControlReply {
    let live = live_pods(core);
    let answers = fan_out(core, live, &mut pod_stats);
    let live = answers.len();
    let mut merged = StatsDoc::default();
    let mut reached = 0u64;
    for (_, base, doc) in answers {
        match doc {
            Ok((doc, _)) => {
                reached += 1;
                merged.fold(doc, base);
            }
            Err(_) => core.telemetry.counter("fed.fanout.errors").inc(),
        }
    }
    merged.own = vec![
        ("pods_total".into(), (core.registry.len() as u64).into()),
        ("pods_live".into(), (live as u64).into()),
        ("pods_reached".into(), reached.into()),
    ];
    ControlReply::Json {
        body: merged.into_json(from_index, limit).to_string(),
    }
}

/// Federated `MetricsDump`: every live pod's dump keyed by name, plus
/// the coordinator's own `fed.*` registry. A pod whose body is not JSON
/// counts as a fan-out error instead of corrupting the merged document.
fn metrics_dump<P: Peers>(core: &mut Core<P>) -> ControlReply {
    let mut pods = Vec::new();
    for (pod, _, reply) in broadcast(core, ControlOp::MetricsDump) {
        match reply {
            Ok(ControlReply::Json { body }) => match Json::parse(&body) {
                Ok(dump) => pods.push((pod, dump)),
                Err(_) => core.telemetry.counter("fed.fanout.errors").inc(),
            },
            _ => core.telemetry.counter("fed.fanout.errors").inc(),
        }
    }
    let body = Json::obj([
        ("pods", Json::Obj(pods)),
        ("fed", core.telemetry.snapshot().to_json()),
    ]);
    ControlReply::Json {
        body: body.to_string(),
    }
}

/// `Drain` / `Uncordon` against a global switch id: resolve the owning
/// pod, forward with the local id, globalize the reply.
fn route_switch_op<P: Peers>(core: &mut Core<P>, global: u32, drain: bool) -> ControlReply {
    let Some((pod, local)) = core
        .registry
        .locate(global as u64)
        .map(|(n, l)| (n.clone(), l as u32))
    else {
        return ControlReply::Rejected {
            reason: format!("global switch id {global} is outside every registered pod"),
        };
    };
    let op = if drain {
        ControlOp::Drain { switch: local }
    } else {
        ControlOp::Uncordon { switch: local }
    };
    match pod_op(core, &pod, op) {
        Ok(ControlReply::Drained { evacuated, .. }) => ControlReply::Drained {
            switch: global,
            evacuated,
        },
        Ok(other) => other,
        Err(reason) => ControlReply::Rejected { reason },
    }
}

/// Federated `Audit`: every live pod's findings, each prefixed with
/// the pod's name; a pod that does not answer with its findings is a
/// finding of its own.
fn audit<P: Peers>(core: &mut Core<P>) -> ControlReply {
    let mut findings = Vec::new();
    for (pod, _, reply) in broadcast(core, ControlOp::Audit) {
        match reply {
            Ok(ControlReply::Audited { findings: f }) => {
                findings.extend(f.into_iter().map(|f| format!("{pod}: {f}")));
            }
            Ok(other) => findings.push(format!("{pod}: answered `{}`", other.kind())),
            Err(e) => findings.push(format!("{pod}: {e}")),
        }
    }
    ControlReply::Audited { findings }
}

fn replan<P: Peers>(core: &mut Core<P>) -> ControlReply {
    let mut actions = 0u64;
    let mut dropped_tasks = 0u64;
    for (_, _, reply) in broadcast(core, ControlOp::Replan) {
        match reply {
            Ok(ControlReply::Replanned {
                actions: a,
                dropped_tasks: d,
            }) => {
                actions += a;
                dropped_tasks += d;
            }
            _ => core.telemetry.counter("fed.fanout.errors").inc(),
        }
    }
    ControlReply::Replanned {
        actions,
        dropped_tasks,
    }
}

fn checkpoint<P: Peers>(core: &mut Core<P>) -> ControlReply {
    let mut seeds = 0u64;
    let mut errors: Vec<String> = Vec::new();
    for (pod, _, reply) in broadcast(core, ControlOp::Checkpoint) {
        match reply {
            Ok(ControlReply::Checkpointed {
                seeds: s,
                persist_error,
            }) => {
                seeds += s;
                if let Some(e) = persist_error {
                    errors.push(format!("pod `{pod}`: {e}"));
                }
            }
            Ok(other) => errors.push(format!("pod `{pod}` answered `{}`", other.kind())),
            Err(e) => errors.push(e),
        }
    }
    ControlReply::Checkpointed {
        seeds,
        persist_error: if errors.is_empty() {
            None
        } else {
            Some(errors.join("; "))
        },
    }
}

fn restore<P: Peers>(core: &mut Core<P>) -> ControlReply {
    let mut seeds = 0u64;
    let mut skipped = 0u64;
    for (_, _, reply) in broadcast(core, ControlOp::Restore) {
        match reply {
            Ok(ControlReply::Restored {
                seeds: s,
                skipped: k,
            }) => {
                seeds += s;
                skipped += k;
            }
            _ => core.telemetry.counter("fed.fanout.errors").inc(),
        }
    }
    ControlReply::Restored { seeds, skipped }
}

fn remove_task<P: Peers>(core: &mut Core<P>, task: &str) -> ControlReply {
    let Some(hosts) = core.tasks.get(task).cloned() else {
        return ControlReply::Rejected {
            reason: format!("fedd did not route task `{task}`"),
        };
    };
    let mut failed: Vec<String> = Vec::new();
    let mut left: Vec<String> = Vec::new();
    for pod in &hosts {
        match pod_op(
            core,
            pod,
            ControlOp::RemoveTask {
                task: task.to_string(),
            },
        ) {
            Ok(ControlReply::Ok) => {}
            Ok(other) => {
                failed.push(format!("pod `{pod}` answered `{}`", other.kind()));
                left.push(pod.clone());
            }
            Err(e) => {
                failed.push(e);
                left.push(pod.clone());
            }
        }
    }
    if left.is_empty() {
        core.tasks.remove(task);
        ControlReply::Ok
    } else {
        core.tasks.insert(task.to_string(), left);
        ControlReply::Rejected {
            reason: failed.join("; "),
        }
    }
}

/// Cross-pod seed migration, copy-first: export on the source
/// (checkpoint + snapshots, task keeps running), import on the target
/// (submit-with-snapshot), and only then remove from the source. A
/// failed import leaves the source untouched; a failed removal is
/// reported (the task briefly runs on both pods) instead of guessed at.
fn migrate<P: Peers>(core: &mut Core<P>, task: &str, to_pod: &str) -> ControlReply {
    let migrate_ok = core.telemetry.counter("fed.migrate.ok");
    let migrate_fail = core.telemetry.counter("fed.migrate.fail");
    let Some(hosts) = core.tasks.get(task).cloned() else {
        migrate_fail.inc();
        return ControlReply::Rejected {
            reason: format!("fedd did not route task `{task}`"),
        };
    };
    if hosts.len() != 1 {
        migrate_fail.inc();
        return ControlReply::Rejected {
            reason: format!(
                "task `{task}` spans {} pods; cross-pod migration moves single-pod tasks",
                hosts.len()
            ),
        };
    }
    let from_pod = hosts[0].clone();
    if from_pod == to_pod {
        migrate_fail.inc();
        return ControlReply::Rejected {
            reason: format!("task `{task}` already runs on pod `{to_pod}`"),
        };
    }
    match core.registry.get(to_pod) {
        Some(p) if p.live => {}
        Some(_) => {
            migrate_fail.inc();
            return ControlReply::Rejected {
                reason: format!("target pod `{to_pod}` is not live"),
            };
        }
        None => {
            migrate_fail.inc();
            return ControlReply::Rejected {
                reason: format!("unknown target pod `{to_pod}`"),
            };
        }
    }
    let (source, seeds) = match pod_op(
        core,
        &from_pod,
        ControlOp::ExportTask {
            task: task.to_string(),
        },
    ) {
        Ok(ControlReply::TaskExport { source, seeds }) => (source, seeds),
        Ok(other) => {
            migrate_fail.inc();
            return ControlReply::Rejected {
                reason: format!("export from `{from_pod}`: {}", submit_failure(&other)),
            };
        }
        Err(e) => {
            migrate_fail.inc();
            return ControlReply::Rejected {
                reason: format!("export from `{from_pod}`: {e}"),
            };
        }
    };
    let moved = seeds.len() as u64;
    match pod_op(
        core,
        to_pod,
        ControlOp::SubmitWithSnapshot {
            name: task.to_string(),
            source,
            seeds,
        },
    ) {
        Ok(ControlReply::Submitted { .. }) => {}
        Ok(other) => {
            migrate_fail.inc();
            return ControlReply::Rejected {
                reason: format!(
                    "import on `{to_pod}`: {}; source pod untouched",
                    submit_failure(&other)
                ),
            };
        }
        Err(e) => {
            migrate_fail.inc();
            return ControlReply::Rejected {
                reason: format!("import on `{to_pod}`: {e}; source pod untouched"),
            };
        }
    }
    match pod_op(
        core,
        &from_pod,
        ControlOp::RemoveTask {
            task: task.to_string(),
        },
    ) {
        Ok(ControlReply::Ok) => {
            core.tasks
                .insert(task.to_string(), vec![to_pod.to_string()]);
            migrate_ok.inc();
            ControlReply::Migrated {
                task: task.to_string(),
                from_pod,
                to_pod: to_pod.to_string(),
                seeds: moved,
            }
        }
        other => {
            // Imported but not evicted: record both hosts, report.
            core.tasks
                .insert(task.to_string(), vec![from_pod.clone(), to_pod.to_string()]);
            migrate_fail.inc();
            let detail = match other {
                Ok(reply) => format!("`{}`", reply.kind()),
                Err(e) => e,
            };
            ControlReply::Rejected {
                reason: format!(
                    "imported on `{to_pod}` but source removal on `{from_pod}` failed \
                     ({detail}); task currently runs on both pods"
                ),
            }
        }
    }
}
