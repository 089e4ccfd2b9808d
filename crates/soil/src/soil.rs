//! The soil: FARM's per-switch seed foundation layer (§ II-B b).
//!
//! The soil manages seed execution, tracks switch resources, aggregates
//! polling across seeds (one ASIC transfer for all seeds sharing a
//! subject), schedules trigger events on virtual time, applies seeds'
//! local (re)actions to the TCAM, and queues outbound messages for the
//! communication service. It also installs the monitoring-region `Count`
//! rules backing flow-level polling subjects, reference-counted across
//! seeds so shared subjects cost one TCAM entry.
//!
//! A deployed seed is one `SeedRecord` (instance, task, deploy instant)
//! plus its rows in the trigger table. Every entry point — `deploy`,
//! `realloc`, `advance`, `offer_packets`, `deliver_to_machine` — counts
//! into the [`TickReport`] it returns and ends in `settle`, the one place
//! a report becomes [`SoilStats`] and `soil.*` counters.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use farm_almanac::analysis::PollSubject;
use farm_almanac::ast::TriggerType;
use farm_almanac::compile::CompiledMachine;
use farm_almanac::value::{ActionValue, PacketRecord, RuleValue, StatEntry, StatSubject, Value};
use farm_netsim::switch::{ResourceKind, Resources, Switch};
use farm_netsim::tcam::{FlowMatcher, RuleAction, RuleId, TcamRegion};
use farm_netsim::time::{Dur, Time};
use farm_netsim::types::{FilterFormula, PortSel, SwitchId};

use farm_telemetry::{Counter, Event, Histogram, PressureResource, Telemetry, UndeployReason};

use crate::channel::CommModel;
use crate::interp::{
    Effect, Endpoint, SeedError, SeedEvent, SeedHost, SeedId, SeedInstance, SeedSnapshot,
};

/// Soil configuration knobs (the § VI-E microbenchmark axes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoilConfig {
    pub comm: CommModel,
    /// Aggregate identical poll subjects across seeds (§ II-B b).
    pub aggregation: bool,
    /// CPU cycles one `exec()` iteration costs (the ML task's SVR
    /// matrix-multiply payload; calibrated to Fig. 6c/d).
    pub exec_cost_cycles: u64,
    /// CPU cycles per abstract interpreter operation.
    pub cycles_per_op: u64,
}

impl Default for SoilConfig {
    fn default() -> Self {
        SoilConfig {
            comm: CommModel::default(),
            aggregation: true,
            exec_cost_cycles: 170_000,
            cycles_per_op: 25,
        }
    }
}

/// Soil-level failure.
///
/// `#[non_exhaustive]`: more variants may appear as the soil grows;
/// callers must keep a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SoilError {
    /// A trigger's interval is non-positive or non-finite under the
    /// given allocation (e.g. zero PCIe budget).
    BadTriggerInterval {
        trigger: String,
        interval_ms: f64,
        context: String,
    },
    /// The monitoring TCAM region rejected a polling rule.
    TcamInstall(String),
    /// The referenced seed is not deployed on this soil.
    UnknownSeed(SeedId),
    /// A migrated snapshot could not be restored into the new instance.
    Restore(String),
    /// Seeds no longer fit the switch's (possibly degraded) resource
    /// budget; the soil sheds rather than failing the tick. Carried as
    /// the structured reason on [`ShedSeed`].
    ResourcePressure {
        resource: ResourceKind,
        /// Demand on the pressured resource across deployed seeds.
        demand: f64,
        /// The budget the demand exceeded.
        budget: f64,
    },
}

impl fmt::Display for SoilError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoilError::BadTriggerInterval {
                trigger,
                interval_ms,
                context,
            } => write!(
                f,
                "soil error: trigger `{trigger}` has interval {interval_ms} ms {context}"
            ),
            SoilError::TcamInstall(e) => {
                write!(f, "soil error: cannot install polling rule: {e}")
            }
            SoilError::UnknownSeed(id) => write!(f, "soil error: unknown seed {id}"),
            SoilError::Restore(e) => write!(f, "soil error: cannot restore snapshot: {e}"),
            SoilError::ResourcePressure {
                resource,
                demand,
                budget,
            } => write!(
                f,
                "soil error: resource pressure on {resource}: demand {demand:.2} exceeds budget {budget:.2}"
            ),
        }
    }
}

/// A seed the soil dropped under resource pressure, with everything the
/// control plane needs to re-place it elsewhere.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedSeed {
    pub seed: SeedId,
    pub(crate) task: String,
    /// State captured at shed time, for warm recovery.
    pub snapshot: SeedSnapshot,
    /// The structured [`SoilError::ResourcePressure`] that forced the shed.
    pub(crate) reason: SoilError,
}

impl std::error::Error for SoilError {}

/// A message leaving the switch toward a harvester or another seed.
#[derive(Debug, Clone, PartialEq)]
pub struct OutboundMessage {
    pub from_switch: SwitchId,
    pub from_seed: SeedId,
    pub from_machine: String,
    pub task: String,
    pub to: Endpoint,
    pub value: Value,
    /// Instant the handler emitted the message.
    pub at: Time,
    /// Switch-local latency until the message hits the wire (PCIe +
    /// compute + channel).
    pub latency: Dur,
    /// Estimated serialized size.
    pub bytes: u64,
}

/// Accounting for one scheduling step / call.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// Events delivered to seeds.
    pub deliveries: u64,
    /// ASIC polls actually issued over PCIe.
    pub asic_polls: u64,
    /// Seed-level poll deliveries served from an aggregated transfer.
    pub polls_saved: u64,
    pub messages: Vec<OutboundMessage>,
    pub errors: Vec<(SeedId, SeedError)>,
}

/// Cumulative soil statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoilStats {
    pub deliveries: u64,
    pub asic_polls: u64,
    pub polls_saved: u64,
    pub(crate) exec_iterations: u64,
    pub messages_out: u64,
}

impl std::ops::Add for SoilStats {
    type Output = SoilStats;

    /// Field-wise sum, for fabric-wide aggregation across soils.
    fn add(self, rhs: SoilStats) -> SoilStats {
        SoilStats {
            deliveries: self.deliveries + rhs.deliveries,
            asic_polls: self.asic_polls + rhs.asic_polls,
            polls_saved: self.polls_saved + rhs.polls_saved,
            exec_iterations: self.exec_iterations + rhs.exec_iterations,
            messages_out: self.messages_out + rhs.messages_out,
        }
    }
}

impl std::iter::Sum for SoilStats {
    fn sum<I: Iterator<Item = SoilStats>>(iter: I) -> SoilStats {
        iter.fold(SoilStats::default(), |a, b| a + b)
    }
}

#[derive(Debug, Clone)]
struct TriggerSched {
    seed: SeedId,
    name: String,
    kind: TriggerType,
    subjects: Vec<PollSubject>,
    /// Poll triggers with equal `subjects` share a group id, assigned at
    /// deploy: one ASIC transfer serves the whole group.
    group: u32,
    what: Option<FilterFormula>,
    /// `what` compiled for packet matching; a probe without a filter
    /// sees every packet.
    matcher: FlowMatcher,
    ival: Dur,
    next_due: Time,
    tick: u64,
    /// Last-seen cumulative counters per subject: poll events deliver
    /// *deltas since the previous poll* (monitoring semantics — counters
    /// on real ASICs are cumulative since boot). Positional: entry `i`
    /// is the subject the last poll delivered at position `i`, so a poll
    /// whose subjects come in the order they came last time — every poll
    /// of a trigger, once its subjects exist — finds each one where it
    /// looks first. Otherwise it is a map in a list ([`rebase`]): a
    /// subject found elsewhere is swapped into place, one never seen is
    /// added (and delivers absolute counters), none is ever dropped.
    baseline: Vec<(StatSubject, [u64; 4])>,
    /// The list the last poll delivered, handed back by the delivery so
    /// the next poll rewrites it in place. Empty until the first poll.
    payload: Vec<Value>,
}

struct SwitchHost<'a> {
    resources: Resources,
    now_ms: i64,
    switch: &'a Switch,
}

impl SeedHost for SwitchHost<'_> {
    fn resources(&self) -> Resources {
        self.resources
    }
    fn now_ms(&self) -> i64 {
        self.now_ms
    }
    fn get_rule(&self, pattern: &FilterFormula) -> Option<RuleValue> {
        self.switch
            .tcam()
            .rules()
            .iter()
            .find(|r| r.region == TcamRegion::Monitoring && &r.pattern == pattern)
            .map(|r| RuleValue {
                pattern: r.pattern.clone(),
                action: from_rule_action(&r.action),
            })
    }
}

fn to_rule_action(a: &ActionValue) -> RuleAction {
    match a {
        ActionValue::Drop => RuleAction::Drop,
        ActionValue::RateLimit(bps) => RuleAction::RateLimit(*bps),
        ActionValue::SetQos(q) => RuleAction::SetQos(*q),
        ActionValue::Count => RuleAction::Count,
        ActionValue::Mirror => RuleAction::Mirror,
    }
}

fn from_rule_action(a: &RuleAction) -> ActionValue {
    match a {
        RuleAction::Drop => ActionValue::Drop,
        RuleAction::RateLimit(bps) => ActionValue::RateLimit(*bps),
        RuleAction::SetQos(q) => ActionValue::SetQos(*q),
        RuleAction::Mirror => ActionValue::Mirror,
        RuleAction::Count | RuleAction::Forward(_) => ActionValue::Count,
    }
}

/// Rough serialized size of a value (network-load accounting).
pub fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Unit | Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => 8 + s.len() as u64,
        Value::List(items) => 8 + items.iter().map(value_bytes).sum::<u64>(),
        Value::Packet(_) => 64,
        Value::Filter(f) => 16 + f.to_string().len() as u64,
        Value::Action(_) => 8,
        Value::Rule(r) => 24 + r.pattern.to_string().len() as u64,
        Value::Resources(_) => 32,
        Value::Stat(_) => 40,
        Value::Pair(a, b) => value_bytes(a) + value_bytes(b),
    }
}

/// Every soil instrument as a cached handle, so no path takes the
/// registry lock, plus the event emitters that carry the switch id.
#[derive(Debug, Clone)]
struct SoilInstruments {
    telemetry: Telemetry,
    switch: u32,
    seeds_deployed: Arc<Counter>,
    seeds_undeployed: Arc<Counter>,
    seeds_shed: Arc<Counter>,
    deliveries: Arc<Counter>,
    asic_polls: Arc<Counter>,
    polls_saved: Arc<Counter>,
    seed_errors: Arc<Counter>,
    messages_out: Arc<Counter>,
    poll_latency_us: Arc<Histogram>,
    ipc_messages: Arc<Counter>,
    ipc_bytes: Arc<Counter>,
    ipc_latency_us: Arc<Histogram>,
}

impl SoilInstruments {
    fn new(telemetry: Telemetry, switch: SwitchId) -> SoilInstruments {
        SoilInstruments {
            switch: switch.0,
            seeds_deployed: telemetry.counter("soil.seeds_deployed"),
            seeds_undeployed: telemetry.counter("soil.seeds_undeployed"),
            seeds_shed: telemetry.counter("soil.seeds_shed"),
            deliveries: telemetry.counter("soil.deliveries"),
            asic_polls: telemetry.counter("soil.asic_polls"),
            polls_saved: telemetry.counter("soil.polls_saved"),
            seed_errors: telemetry.counter("soil.seed_errors"),
            messages_out: telemetry.counter("soil.messages_out"),
            poll_latency_us: telemetry.latency_histogram("poll.latency_us"),
            ipc_messages: telemetry.counter("ipc.messages"),
            ipc_bytes: telemetry.counter("ipc.bytes"),
            ipc_latency_us: telemetry.latency_histogram("ipc.latency_us"),
            telemetry,
        }
    }

    /// One actual ASIC poll: a `poll.latency_us` sample and its event.
    fn poll_issued(&self, seed: SeedId, subjects: usize, latency: Dur, now: Time) {
        self.poll_latency_us.record(latency.as_nanos() / 1_000);
        self.telemetry.emit_with(|| Event::PollIssued {
            at_ns: now.as_nanos(),
            switch: self.switch,
            seed: seed.0,
            subjects: subjects as u64,
            latency_ns: latency.as_nanos(),
        });
    }

    fn seed_errored(&self, seed: SeedId, err: &SeedError, now: Time) {
        self.telemetry.emit_with(|| Event::SeedErrored {
            at_ns: now.as_nanos(),
            switch: self.switch,
            seed: seed.0,
            message: err.to_string(),
        });
    }

    /// One soil→seed channel delivery: `ipc.messages`, `ipc.bytes`, a
    /// sample of `ipc.latency_us` (the Fig. 10 metric) and its event.
    fn channel_delivery(&self, seed: SeedId, bytes: u64, latency: Dur, now: Time) {
        self.ipc_messages.inc();
        self.ipc_bytes.add(bytes);
        self.ipc_latency_us.record(latency.as_nanos() / 1_000);
        self.telemetry.emit_with(|| Event::ChannelDelivery {
            at_ns: now.as_nanos(),
            switch: self.switch,
            seed: seed.0,
            bytes,
            latency_ns: latency.as_nanos(),
        });
    }
}

/// One deployed seed's switch-local runtime, beside its rows in the
/// trigger table.
#[derive(Debug)]
struct SeedRecord {
    instance: SeedInstance,
    task: String,
    deployed_at: Time,
}

/// The TCAM priority of the count rule a soil installs for a poll of a
/// flow rule, which its polls read and only the soil removes.
const COUNT_RULE_PRIORITY: i32 = 0;
/// The TCAM priority of a rule a seed adds (`addTCAMRule`); a seed's
/// `removeTCAMRule` removes only such rules.
const SEED_RULE_PRIORITY: i32 = 10;

/// The per-switch soil instance.
#[derive(Debug)]
pub struct Soil {
    switch_id: SwitchId,
    config: SoilConfig,
    seeds: BTreeMap<SeedId, SeedRecord>,
    /// The seeds' allocations summed in id order, folded again whenever
    /// the seed set or an allocation changes.
    in_use: Resources,
    /// The scheduler's table: every trigger of every seed, in deploy
    /// order.
    triggers: Vec<TriggerSched>,
    /// Canonical rule pattern → installed Count rule + refcount.
    rule_refs: HashMap<String, (RuleId, usize)>,
    /// What one ASIC poll read, and the triggers one scheduling round
    /// or one batch of sampled packets fires: kept between calls.
    entries: Vec<StatEntry>,
    due: Vec<usize>,
    next_id: u64,
    next_group: u32,
    stats: SoilStats,
    instruments: Option<SoilInstruments>,
}

impl Soil {
    /// Creates the soil for a switch.
    pub fn new(switch_id: SwitchId, config: SoilConfig) -> Soil {
        Soil {
            switch_id,
            config,
            seeds: BTreeMap::new(),
            in_use: Resources::ZERO,
            triggers: Vec::new(),
            rule_refs: HashMap::new(),
            entries: Vec::new(),
            due: Vec::new(),
            next_id: 0,
            next_group: 0,
            stats: SoilStats::default(),
            instruments: None,
        }
    }

    /// Attaches a telemetry handle: seed lifecycle, poll aggregation and
    /// IPC deliveries start updating the `soil.*` instruments and
    /// emitting [`Event`]s.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.instruments = Some(SoilInstruments::new(telemetry, self.switch_id));
    }

    /// The switch this soil runs on.
    pub fn switch_id(&self) -> SwitchId {
        self.switch_id
    }

    /// Number of deployed seeds.
    pub fn num_seeds(&self) -> usize {
        self.seeds.len()
    }

    /// Iterates deployed seeds.
    pub fn seeds(&self) -> impl Iterator<Item = &SeedInstance> {
        self.seeds.values().map(|r| &r.instance)
    }

    /// A deployed seed by id.
    pub fn seed(&self, id: SeedId) -> Option<&SeedInstance> {
        self.seeds.get(&id).map(|r| &r.instance)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SoilStats {
        self.stats
    }

    /// Sum of resources allocated to deployed seeds, in seed-id order.
    pub fn resources_in_use(&self) -> Resources {
        self.in_use
    }

    /// Holds what the soil keeps to skip work to its recomputation: the
    /// in-use total to a fold over the seeds, the trigger table to the
    /// live seeds' machines (each seed's triggers in declaration order,
    /// each of its declared kind, at the interval its seed's allocation
    /// gives, none of a seed that is gone), and the polling rules to the
    /// rule subjects that table names — one reference per naming
    /// trigger, and exactly those rules, each under its own pattern,
    /// installed at priority 0 of `switch`'s monitoring region. Off the
    /// hot path.
    ///
    /// # Errors
    ///
    /// The first structure that differs from its recomputation.
    pub fn audit(&self, switch: &Switch) -> Result<(), String> {
        let fold = self.fold_in_use();
        if fold.0.map(f64::to_bits) != self.in_use.0.map(f64::to_bits) {
            return Err(format!("in use: kept {}, fold {fold}", self.in_use));
        }
        let rows = (self.triggers.iter()).map(|t| (t.seed, t.name.as_str(), t.kind, Some(t.ival)));
        let want = (self.seeds.iter()).flat_map(|(&id, r)| {
            let alloc = r.instance.allocated();
            (r.instance.def().triggers.iter()).map(move |t| {
                let ms = t.ival.eval(&alloc);
                let ival = (ms.is_finite() && ms > 0.0).then(|| Dur::from_secs_f64(ms / 1000.0));
                (id, t.name.as_str(), t.kind, ival)
            })
        });
        if !rows.eq(want) {
            return Err("triggers: the table is not the live seeds' triggers".into());
        }
        let mut refs: BTreeMap<&str, usize> = BTreeMap::new();
        for s in self.triggers.iter().flat_map(|t| t.subjects.iter()) {
            if let PollSubject::Rule(key) = s {
                *refs.entry(key).or_default() += 1;
            }
        }
        let kept: BTreeMap<&str, usize> = (self.rule_refs.iter())
            .map(|(key, &(_, n))| (key.as_str(), n))
            .collect();
        if kept != refs {
            return Err(format!(
                "rules: kept references {kept:?}, triggers {refs:?}"
            ));
        }
        let mut ours: Vec<(RuleId, String)> = (self.rule_refs.iter())
            .map(|(key, &(id, _))| (id, key.clone()))
            .collect();
        let mut installed: Vec<(RuleId, String)> = (switch.tcam().rules().iter())
            .filter(|r| r.region == TcamRegion::Monitoring && r.priority == COUNT_RULE_PRIORITY)
            .map(|r| (r.id, r.pattern.to_string()))
            .collect();
        ours.sort_unstable();
        installed.sort_unstable();
        if ours != installed {
            return Err(format!("rules: kept {ours:?}, installed {installed:?}"));
        }
        Ok(())
    }

    /// Folds [`Soil::resources_in_use`] again over the seeds, in order.
    fn refold(&mut self) {
        self.in_use = self.fold_in_use();
    }

    /// The seeds' allocations summed in id order.
    fn fold_in_use(&self) -> Resources {
        (self.seeds()).fold(Resources::ZERO, |acc, s| acc.add(&s.allocated()))
    }

    /// Deploys a seed of `def` with the given allocation.
    ///
    /// Installs monitoring `Count` rules for flow-level polling subjects
    /// (reference-counted across seeds) and delivers the initial `enter`
    /// event.
    ///
    /// # Errors
    ///
    /// Fails when a trigger's interval is non-positive under the
    /// allocation (e.g. no PCIe capacity assigned) or the monitoring TCAM
    /// region is full.
    pub fn deploy(
        &mut self,
        def: Arc<CompiledMachine>,
        task: &str,
        alloc: Resources,
        now: Time,
        switch: &mut Switch,
    ) -> Result<(SeedId, TickReport), SoilError> {
        let id = SeedId(self.next_id);
        self.next_id += 1;

        let mut scheds: Vec<TriggerSched> = Vec::new();
        for t in &def.triggers {
            let ival_ms = t.ival.eval(&alloc);
            if !ival_ms.is_finite() || ival_ms <= 0.0 {
                return Err(SoilError::BadTriggerInterval {
                    trigger: t.name.clone(),
                    interval_ms: ival_ms,
                    context: format!("under allocation {alloc}"),
                });
            }
            // A poll joins the group already polling its subjects, if any.
            let group = match t.kind {
                TriggerType::Poll => self
                    .triggers
                    .iter()
                    .chain(&scheds)
                    .find(|s| s.kind == TriggerType::Poll && s.subjects == t.subjects)
                    .map(|s| s.group)
                    .unwrap_or_else(|| {
                        self.next_group += 1;
                        self.next_group
                    }),
                TriggerType::Time | TriggerType::Probe => 0,
            };
            scheds.push(TriggerSched {
                seed: id,
                name: t.name.clone(),
                kind: t.kind,
                subjects: t.subjects.clone(),
                group,
                what: t.what.clone(),
                matcher: FlowMatcher::compile(t.what.as_ref().unwrap_or(&FilterFormula::True)),
                ival: Dur::from_secs_f64(ival_ms / 1000.0),
                next_due: now + Dur::from_secs_f64(ival_ms / 1000.0),
                tick: 0,
                baseline: Vec::new(),
                payload: Vec::new(),
            });
        }
        // Install flow-level polling subjects as Count rules, one
        // reference per trigger that names the subject. `taken` is every
        // reference this deploy took — on a rule it installed or on one
        // it found — so a failure mid-deploy releases exactly those (a
        // leaked reference keeps the TCAM entry installed forever).
        let mut taken: Vec<&str> = Vec::new();
        for s in scheds.iter().flat_map(|t| t.subjects.iter()) {
            let PollSubject::Rule(key) = s else {
                continue;
            };
            if let Some((_, refs)) = self.rule_refs.get_mut(key) {
                *refs += 1;
            } else {
                let formula = scheds
                    .iter()
                    .filter(|t| t.subjects.contains(s))
                    .find_map(|t| t.what.clone())
                    .expect("rule subject implies a formula");
                match switch.tcam_mut().add_rule(
                    TcamRegion::Monitoring,
                    COUNT_RULE_PRIORITY,
                    formula,
                    RuleAction::Count,
                ) {
                    Ok(rid) => {
                        self.rule_refs.insert(key.clone(), (rid, 1));
                    }
                    Err(e) => {
                        for key in taken {
                            self.release_rule(key, switch);
                        }
                        return Err(SoilError::TcamInstall(e.to_string()));
                    }
                }
            }
            taken.push(key);
        }

        let poll_interval_ns = scheds.iter().map(|t| t.ival.as_nanos()).min().unwrap_or(0);
        self.seeds.insert(
            id,
            SeedRecord {
                instance: SeedInstance::new(id, def, alloc),
                task: task.to_string(),
                deployed_at: now,
            },
        );
        self.refold();
        self.triggers.extend(scheds);
        if let Some(ins) = &self.instruments {
            ins.seeds_deployed.inc();
            ins.telemetry.emit_with(|| Event::SeedDeployed {
                at_ns: now.as_nanos(),
                switch: ins.switch,
                seed: id.0,
                task: task.to_string(),
                poll_interval_ns,
            });
        }

        let mut report = TickReport::default();
        self.deliver(id, &SeedEvent::Enter, now, switch, Dur::ZERO, &mut report);
        Ok((id, self.settle(report)))
    }

    /// Drops one reference on a shared polling rule; the last one
    /// removes the TCAM entry.
    fn release_rule(&mut self, key: &str, switch: &mut Switch) {
        if let Some((rid, refs)) = self.rule_refs.get_mut(key) {
            *refs -= 1;
            if *refs == 0 {
                let _ = switch.tcam_mut().remove_rule(*rid);
                self.rule_refs.remove(key);
            }
        }
    }

    /// Folds a finished call's report into the cumulative statistics and
    /// the instruments — the one place a delivery, a poll, a message or
    /// a seed error is counted — and hands it on to the caller.
    fn settle(&mut self, report: TickReport) -> TickReport {
        let messages = report.messages.len() as u64;
        self.stats.deliveries += report.deliveries;
        self.stats.asic_polls += report.asic_polls;
        self.stats.polls_saved += report.polls_saved;
        self.stats.messages_out += messages;
        if let Some(ins) = &self.instruments {
            ins.deliveries.add(report.deliveries);
            ins.asic_polls.add(report.asic_polls);
            ins.polls_saved.add(report.polls_saved);
            ins.messages_out.add(messages);
            ins.seed_errors.add(report.errors.len() as u64);
        }
        report
    }

    /// Removes a seed, returning its state snapshot (for migration).
    /// `reason` and `now` are what the emitted [`Event::SeedUndeployed`]
    /// records.
    ///
    /// # Errors
    ///
    /// Fails when the seed is unknown.
    pub fn undeploy(
        &mut self,
        id: SeedId,
        reason: UndeployReason,
        now: Time,
        switch: &mut Switch,
    ) -> Result<SeedSnapshot, SoilError> {
        let SeedRecord { instance, task, .. } =
            self.seeds.remove(&id).ok_or(SoilError::UnknownSeed(id))?;
        self.refold();
        if let Some(ins) = &self.instruments {
            ins.seeds_undeployed.inc();
            ins.telemetry.emit_with(|| Event::SeedUndeployed {
                at_ns: now.as_nanos(),
                switch: ins.switch,
                seed: id.0,
                task,
                reason,
            });
        }
        let (gone, keep): (Vec<_>, Vec<_>) = std::mem::take(&mut self.triggers)
            .into_iter()
            .partition(|t| t.seed == id);
        self.triggers = keep;
        for s in gone.iter().flat_map(|t| t.subjects.iter()) {
            if let PollSubject::Rule(key) = s {
                self.release_rule(key, switch);
            }
        }
        Ok(instance.snapshot())
    }

    /// Imports a migrated seed: deploy + state restore. The report is
    /// the deploy's (the `enter` delivery runs before the restore).
    ///
    /// # Errors
    ///
    /// See [`Soil::deploy`] and [`SeedInstance::restore`].
    pub fn import(
        &mut self,
        def: Arc<CompiledMachine>,
        task: &str,
        alloc: Resources,
        snapshot: &SeedSnapshot,
        now: Time,
        switch: &mut Switch,
    ) -> Result<(SeedId, TickReport), SoilError> {
        let (id, report) = self.deploy(def, task, alloc, now, switch)?;
        if let Err(e) = self.restore_seed(id, snapshot) {
            // Don't leave a half-imported seed deployed: roll the deploy
            // back so the caller can retry or cold-start cleanly.
            let _ = self.undeploy(id, UndeployReason::TaskRemoved, now, switch);
            return Err(e);
        }
        Ok((id, report))
    }

    /// Restores a deployed seed's interpreter state from a snapshot
    /// (recovery after a crash: cold deploy first, then restore).
    ///
    /// # Errors
    ///
    /// Fails when the seed is unknown or the snapshot does not match the
    /// seed's machine; the seed keeps its current (cold) state then.
    pub fn restore_seed(&mut self, id: SeedId, snapshot: &SeedSnapshot) -> Result<(), SoilError> {
        self.seeds
            .get_mut(&id)
            .ok_or(SoilError::UnknownSeed(id))?
            .instance
            .restore(snapshot)
            .map_err(|e| SoilError::Restore(e.to_string()))
    }

    /// Aggregate ASIC statistics-polling rate across all deployed seeds,
    /// in polls per second — the load the PCIe bus must sustain, in the
    /// same unit as the [`ResourceKind::PciePoll`] capacity.
    pub fn poll_rate_per_sec(&self) -> f64 {
        self.triggers
            .iter()
            .filter(|t| t.kind == TriggerType::Poll)
            .map(|t| {
                let s = t.ival.as_secs_f64();
                if s > 0.0 {
                    1.0 / s
                } else {
                    0.0
                }
            })
            .sum()
    }

    /// Sheds seeds while the aggregate polling rate exceeds
    /// `polls_per_sec` (the unit of [`ResourceKind::PciePoll`]
    /// capacities), dropping the highest [`SeedId`] (lowest priority:
    /// the most recently deployed) first, so a degraded bus sheds exactly
    /// the seeds whose polling it can no longer carry. Each shed seed is
    /// undeployed with a snapshot and a structured
    /// [`SoilError::ResourcePressure`] reason so the control plane can
    /// re-place it — the tick itself never fails.
    pub fn shed_over_poll_budget(
        &mut self,
        polls_per_sec: f64,
        now: Time,
        switch: &mut Switch,
    ) -> Vec<ShedSeed> {
        let mut shed = Vec::new();
        loop {
            let rate = self.poll_rate_per_sec();
            if rate <= polls_per_sec + 1e-9 {
                break;
            }
            let Some((&victim, record)) = self.seeds.last_key_value() else {
                break;
            };
            let task = record.task.clone();
            if let Some(ins) = &self.instruments {
                ins.seeds_shed.inc();
                ins.telemetry.emit_with(|| Event::SeedShed {
                    at_ns: now.as_nanos(),
                    switch: ins.switch,
                    seed: victim.0,
                    task: task.clone(),
                    resource: PressureResource::PciePoll,
                    demand: rate,
                    budget: polls_per_sec,
                });
            }
            let Ok(snapshot) = self.undeploy(victim, UndeployReason::Shed, now, switch) else {
                break;
            };
            shed.push(ShedSeed {
                seed: victim,
                task,
                snapshot,
                reason: SoilError::ResourcePressure {
                    resource: ResourceKind::PciePoll,
                    demand: rate,
                    budget: polls_per_sec,
                },
            });
        }
        shed
    }

    /// Changes a seed's allocation (the seeder's `realloc`), recomputing
    /// trigger intervals and delivering the `realloc` event.
    ///
    /// # Errors
    ///
    /// Fails when the seed is unknown or the new allocation yields a
    /// non-positive trigger interval; the seed then keeps its allocation
    /// and its schedule.
    pub fn realloc(
        &mut self,
        id: SeedId,
        alloc: Resources,
        now: Time,
        switch: &mut Switch,
    ) -> Result<TickReport, SoilError> {
        let record = self.seeds.get_mut(&id).ok_or(SoilError::UnknownSeed(id))?;
        let def = Arc::clone(record.instance.def());
        let refused = (def.triggers.iter())
            .map(|t| (t, t.ival.eval(&alloc)))
            .find(|&(_, ms)| !ms.is_finite() || ms <= 0.0);
        if let Some((t, interval_ms)) = refused {
            return Err(SoilError::BadTriggerInterval {
                trigger: t.name.clone(),
                interval_ms,
                context: "after realloc".to_string(),
            });
        }
        record.instance.set_allocated(alloc);
        self.refold();
        for t in self.triggers.iter_mut().filter(|t| t.seed == id) {
            if let Some(analysis) = def.triggers.iter().find(|a| a.name == t.name) {
                t.ival = Dur::from_secs_f64(analysis.ival.eval(&alloc) / 1000.0);
                t.next_due = now + t.ival;
            }
        }
        let mut report = TickReport::default();
        self.deliver(id, &SeedEvent::Realloc, now, switch, Dur::ZERO, &mut report);
        Ok(self.settle(report))
    }

    /// Current polling interval of a seed's trigger (ms), if scheduled.
    pub fn trigger_interval_ms(&self, id: SeedId, name: &str) -> Option<f64> {
        self.triggers
            .iter()
            .find(|t| t.seed == id && t.name == name)
            .map(|t| t.ival.as_secs_f64() * 1000.0)
    }

    /// Advances the trigger scheduler to `to`, firing every due poll and
    /// timer (aggregating identical poll subjects when enabled).
    pub fn advance(&mut self, to: Time, switch: &mut Switch) -> TickReport {
        let mut report = TickReport::default();
        let mut due_idx = std::mem::take(&mut self.due);
        while let Some(due) = self.next_deadline() {
            if due > to {
                break;
            }
            due_idx.clear();
            due_idx.extend(
                self.triggers
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.kind != TriggerType::Probe && t.next_due <= due)
                    .map(|(i, _)| i),
            );
            // Context-switch pressure of this scheduling round.
            switch.cpu_mut().schedule_round(due_idx.len() as u64);
            self.fire_round(&due_idx, due, switch, &mut report);
        }
        self.due = due_idx;
        self.settle(report)
    }

    /// Earliest pending (poll/time) trigger deadline.
    pub fn next_deadline(&self) -> Option<Time> {
        self.triggers
            .iter()
            .filter(|t| t.kind != TriggerType::Probe)
            .map(|t| t.next_due)
            .min()
    }

    /// Fires the triggers `due_idx` (ascending) at `now`: polls first,
    /// one subject group after the other in the order of each group's
    /// first due trigger, then timers. The order is a function of the
    /// deploy history alone, so two soils fed the same input emit the
    /// same messages in the same order.
    fn fire_round(
        &mut self,
        due_idx: &[usize],
        now: Time,
        switch: &mut Switch,
        report: &mut TickReport,
    ) {
        let is_due_poll = |t: &TriggerSched| t.kind == TriggerType::Poll && t.next_due <= now;
        let mut entries = std::mem::take(&mut self.entries);
        for (k, &first) in due_idx.iter().enumerate() {
            // Firing moves a trigger's deadline past `now`, so a poll
            // that is still due has not been served by an earlier group.
            if !is_due_poll(&self.triggers[first]) {
                continue;
            }
            let group = self.triggers[first].group;
            let rest = &due_idx[k..];
            let member = |t: &TriggerSched| is_due_poll(t) && t.group == group;
            if self.config.aggregation {
                let size = rest.iter().filter(|&&i| member(&self.triggers[i])).count() as u64;
                let subjects = &self.triggers[first].subjects;
                let latency = self.poll_subjects(subjects, switch, &mut entries);
                report.asic_polls += 1;
                report.polls_saved += size - 1;
                if let Some(ins) = &self.instruments {
                    ins.poll_issued(self.triggers[first].seed, entries.len(), latency, now);
                    if size > 1 {
                        ins.telemetry.emit_with(|| Event::PollAggregated {
                            at_ns: now.as_nanos(),
                            switch: ins.switch,
                            group: size,
                            saved: size - 1,
                        });
                    }
                }
                for &i in rest {
                    if member(&self.triggers[i]) {
                        if size > 1 {
                            // Serving one more seed from a shared transfer.
                            let cycles = self.config.comm.aggregation_cpu_cycles();
                            switch.cpu_mut().charge_cycles(cycles);
                        }
                        self.fire_poll(i, now, &entries, latency, switch, report);
                    }
                }
            } else {
                for &i in rest {
                    if member(&self.triggers[i]) {
                        let subjects = &self.triggers[i].subjects;
                        let latency = self.poll_subjects(subjects, switch, &mut entries);
                        report.asic_polls += 1;
                        if let Some(ins) = &self.instruments {
                            ins.poll_issued(self.triggers[i].seed, entries.len(), latency, now);
                        }
                        self.fire_poll(i, now, &entries, latency, switch, report);
                    }
                }
            }
        }
        self.entries = entries;
        for &i in due_idx {
            let t = &mut self.triggers[i];
            if t.kind != TriggerType::Time {
                continue;
            }
            t.tick += 1;
            t.next_due = advance_deadline(t.next_due, t.ival, now);
            let payload = Value::Int(t.tick as i64);
            self.fire(i, payload, now, switch, Dur::ZERO, report);
        }
    }

    /// Delivers trigger `idx`'s event, carrying `payload`, to its seed,
    /// and returns the payload. The event takes the trigger's name for
    /// the call and hands it back (`SeedEvent` owns its strings), so
    /// firing copies no name.
    fn fire(
        &mut self,
        idx: usize,
        payload: Value,
        now: Time,
        switch: &mut Switch,
        base_latency: Dur,
        report: &mut TickReport,
    ) -> Value {
        let t = &mut self.triggers[idx];
        let seed = t.seed;
        let event = SeedEvent::Trigger {
            name: std::mem::take(&mut t.name),
            payload,
        };
        self.deliver(seed, &event, now, switch, base_latency, report);
        let SeedEvent::Trigger { name, payload } = event else {
            unreachable!("built above")
        };
        self.triggers[idx].name = name;
        payload
    }

    fn fire_poll(
        &mut self,
        idx: usize,
        now: Time,
        entries: &[StatEntry],
        poll_latency: Dur,
        switch: &mut Switch,
        report: &mut TickReport,
    ) {
        let t = &mut self.triggers[idx];
        t.next_due = advance_deadline(t.next_due, t.ival, now);
        // Convert cumulative counters into per-interval deltas against
        // this trigger's own baseline (the first poll delivers absolute
        // values; each trigger keeps its own view under aggregation),
        // written over the list the last poll delivered.
        let mut payload = std::mem::take(&mut t.payload);
        payload.truncate(entries.len());
        // Grown once, to the size it keeps: a trigger's polls read the
        // same subjects every time.
        payload.reserve_exact(entries.len() - payload.len());
        t.baseline
            .reserve_exact(entries.len().saturating_sub(t.baseline.len()));
        for (i, e) in entries.iter().enumerate() {
            let cur = [e.tx_bytes, e.rx_bytes, e.tx_packets, e.rx_packets];
            let prev = rebase(&mut t.baseline, i, &e.subject, cur);
            let [tx_bytes, rx_bytes, tx_packets, rx_packets] =
                std::array::from_fn(|k| cur[k].saturating_sub(prev[k]));
            match payload.get_mut(i) {
                Some(Value::Stat(s)) if s.subject == e.subject => {
                    (s.tx_bytes, s.rx_bytes) = (tx_bytes, rx_bytes);
                    (s.tx_packets, s.rx_packets) = (tx_packets, rx_packets);
                }
                slot => {
                    let delta = Value::Stat(StatEntry {
                        subject: e.subject.clone(),
                        tx_bytes,
                        rx_bytes,
                        tx_packets,
                        rx_packets,
                    });
                    match slot {
                        Some(slot) => *slot = delta,
                        None => payload.push(delta),
                    }
                }
            }
        }
        let payload = Value::List(payload);
        if let Value::List(list) = self.fire(idx, payload, now, switch, poll_latency, report) {
            self.triggers[idx].payload = list;
        }
    }

    /// Reads `subjects` off the switch into `entries` (cleared first) and
    /// returns the transfer latency.
    fn poll_subjects(
        &self,
        subjects: &[PollSubject],
        switch: &mut Switch,
        entries: &mut Vec<StatEntry>,
    ) -> Dur {
        entries.clear();
        let mut latency = Dur::ZERO;
        for s in subjects {
            match s {
                PollSubject::AllPorts | PollSubject::Port(_) => {
                    let sel = match s {
                        PollSubject::Port(p) => PortSel::Id(*p),
                        _ => PortSel::Any,
                    };
                    let (stats, l) = switch.poll_ports_iter(sel);
                    latency = latency.max(l);
                    entries.extend(stats.map(|ps| StatEntry {
                        subject: StatSubject::Port(ps.port.0),
                        tx_bytes: ps.counters.tx_bytes,
                        rx_bytes: ps.counters.rx_bytes,
                        tx_packets: ps.counters.tx_packets,
                        rx_packets: ps.counters.rx_packets,
                    }));
                }
                PollSubject::Rule(key) => {
                    if let Some((rid, _)) = self.rule_refs.get(key) {
                        let stats = switch.tcam().stats(*rid).unwrap_or_default();
                        let l = switch
                            .pcie_mut()
                            .request(farm_netsim::switch::POLL_STAT_BYTES);
                        latency = latency.max(l);
                        entries.push(StatEntry {
                            subject: StatSubject::Rule(key.clone()),
                            tx_bytes: stats.bytes,
                            rx_bytes: 0,
                            tx_packets: stats.packets,
                            rx_packets: 0,
                        });
                    }
                }
            }
        }
        latency
    }

    /// Offers sampled packets to probe triggers (rate-limited by each
    /// trigger's `.ival` lower bound). Charges PCIe for mirrored bytes.
    pub fn offer_packets(
        &mut self,
        packets: &[PacketRecord],
        now: Time,
        switch: &mut Switch,
    ) -> TickReport {
        let mut report = TickReport::default();
        // `now` is fixed for the call and firing only moves a deadline
        // forward, so no probe that is not due here becomes due below.
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        due.extend(
            self.triggers
                .iter()
                .enumerate()
                .filter(|(_, t)| t.kind == TriggerType::Probe && t.next_due <= now)
                .map(|(i, _)| i),
        );
        if due.is_empty() {
            self.due = due;
            return report;
        }
        for pkt in packets {
            let key = pkt.flow.packed();
            // Mirroring one packet over PCIe is shared by all its probes:
            // charged when the first one matches, before any handler runs.
            let mut mirrored: Option<Dur> = None;
            for &i in &due {
                let t = &mut self.triggers[i];
                if t.next_due > now || !t.matcher.matches(key) {
                    continue;
                }
                t.next_due = now + t.ival;
                let latency =
                    *mirrored.get_or_insert_with(|| switch.pcie_mut().request(pkt.len as u64));
                self.fire(i, Value::Packet(*pkt), now, switch, latency, &mut report);
            }
        }
        self.due = due;
        self.settle(report)
    }

    /// Delivers a message from the harvester or another machine to every
    /// local seed of `machine`.
    pub fn deliver_to_machine(
        &mut self,
        machine: &str,
        from_machine: Option<&str>,
        value: &Value,
        now: Time,
        switch: &mut Switch,
    ) -> TickReport {
        let ids: Vec<SeedId> = self
            .seeds()
            .filter(|s| s.machine_name() == machine)
            .map(|s| s.id)
            .collect();
        let mut report = TickReport::default();
        if !ids.is_empty() {
            let event = SeedEvent::Recv {
                from_machine: from_machine.map(str::to_string),
                value: value.clone(),
            };
            for id in ids {
                self.deliver(id, &event, now, switch, Dur::ZERO, &mut report);
            }
        }
        self.settle(report)
    }

    /// Runs one event through seed `id`'s handler and applies its
    /// effects, counting into the caller's `report`; the entry point that
    /// owns the report settles it.
    fn deliver(
        &mut self,
        id: SeedId,
        event: &SeedEvent,
        now: Time,
        switch: &mut Switch,
        base_latency: Dur,
        report: &mut TickReport,
    ) {
        let active_seeds = self.seeds.len();
        let Some(record) = self.seeds.get_mut(&id) else {
            return;
        };
        let outcome = {
            let host = SwitchHost {
                resources: record.instance.allocated(),
                now_ms: now.since(record.deployed_at).as_millis() as i64,
                switch,
            };
            record.instance.handle(event, &host)
        };
        report.deliveries += 1;
        let mut fail = |err: SeedError| {
            if let Some(ins) = &self.instruments {
                ins.seed_errored(id, &err, now);
            }
            report.errors.push((id, err));
        };
        let out = match outcome {
            Ok(out) => out,
            Err(failed) => {
                let cycles = failed.ops * self.config.cycles_per_op;
                switch.cpu_mut().charge_cycles(cycles);
                return fail(failed.error);
            }
        };
        let cycles = out.ops * self.config.cycles_per_op;
        let compute = Dur::from_secs_f64(cycles as f64 / switch.cpu().spec().freq_hz as f64);
        switch.cpu_mut().charge_cycles(cycles);
        switch
            .cpu_mut()
            .charge_cycles(self.config.comm.delivery_cpu_cycles());
        let channel_latency = self.config.comm.delivery_latency(active_seeds);
        for effect in out.effects {
            match effect {
                Effect::Send { to, value } => {
                    let bytes = value_bytes(&value);
                    if let Some(ins) = &self.instruments {
                        ins.channel_delivery(id, bytes, channel_latency, now);
                    }
                    report.messages.push(OutboundMessage {
                        from_switch: self.switch_id,
                        from_seed: id,
                        from_machine: record.instance.machine_name().to_string(),
                        task: record.task.clone(),
                        to,
                        value,
                        at: now,
                        latency: base_latency + compute + channel_latency,
                        bytes,
                    });
                }
                Effect::AddRule(r) => {
                    if let Err(e) = switch.tcam_mut().add_rule(
                        TcamRegion::Monitoring,
                        SEED_RULE_PRIORITY,
                        r.pattern,
                        to_rule_action(&r.action),
                    ) {
                        fail(SeedError(e.to_string()));
                    }
                }
                Effect::RemoveRule(pattern) => {
                    // A seed removes a rule a seed added, never the count
                    // rule a poll of the soil reads. Removing a rule that
                    // is already gone is not an error for idempotent
                    // reactions.
                    let _ = (switch.tcam_mut()).remove_by_pattern(&pattern, SEED_RULE_PRIORITY);
                }
                Effect::Exec { iterations, .. } => {
                    switch
                        .cpu_mut()
                        .charge_cycles(self.config.exec_cost_cycles * iterations as u64);
                    self.stats.exec_iterations += iterations as u64;
                }
            }
        }
    }
}

/// Swaps `cur` in as `subject`'s counters in a trigger's `baseline` and
/// returns the ones it replaces — zeros for a subject never seen —
/// leaving `subject` at position `at` unless an earlier position of the
/// same poll already holds it.
fn rebase(
    baseline: &mut Vec<(StatSubject, [u64; 4])>,
    at: usize,
    subject: &StatSubject,
    cur: [u64; 4],
) -> [u64; 4] {
    if let Some((seen, counters)) = baseline.get_mut(at) {
        if seen == subject {
            return std::mem::replace(counters, cur);
        }
    }
    let (j, prev) = match baseline.iter().position(|(seen, _)| seen == subject) {
        Some(j) => (j, std::mem::replace(&mut baseline[j].1, cur)),
        None => {
            baseline.push((subject.clone(), cur));
            (baseline.len() - 1, [0; 4])
        }
    };
    if at < j {
        baseline.swap(at, j);
    }
    prev
}

/// Advances a periodic deadline past `now` without drift (catching up in
/// whole periods when the scheduler fell behind).
fn advance_deadline(due: Time, ival: Dur, now: Time) -> Time {
    let mut next = due + ival;
    if next <= now {
        let behind = now.since(next).as_nanos();
        let periods = behind / ival.as_nanos().max(1) + 1;
        next += Dur::from_nanos(periods * ival.as_nanos());
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_almanac::analysis::ConstEnv;
    use farm_almanac::compile::{compile_machine, frontend};
    use farm_netsim::controller::SdnController;
    use farm_netsim::switch::SwitchModel;
    use farm_netsim::topology::Topology;
    use farm_netsim::types::{FlowKey, Ipv4, PortId};

    fn compile(src: &str, machine: &str) -> Arc<CompiledMachine> {
        let topo =
            Topology::spine_leaf(1, 2, SwitchModel::test_model(8), SwitchModel::test_model(8));
        let ctl = SdnController::new(&topo);
        let program = frontend(src).unwrap();
        Arc::new(compile_machine(&program, machine, &ConstEnv::new(), &ctl).unwrap())
    }

    fn rig() -> (Soil, Switch) {
        let soil = Soil::new(SwitchId(0), SoilConfig::default());
        let switch = Switch::new(SwitchId(0), SwitchModel::test_model(8));
        (soil, switch)
    }

    fn alloc() -> Resources {
        Resources::new(2.0, 512.0, 16.0, 10.0)
    }

    #[test]
    fn deploys_and_polls_hh_seed() {
        let (mut soil, mut switch) = rig();
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        let (id, _) = soil
            .deploy(def, "hh", alloc(), Time::ZERO, &mut switch)
            .unwrap();
        // ival = 10/PCIe ms = 1 ms at PCIe=10.
        assert!((soil.trigger_interval_ms(id, "pollStats").unwrap() - 1.0).abs() < 1e-9);
        // Heavy traffic on port 2.
        let flow = FlowKey::tcp(Ipv4::new(10, 0, 0, 1), 1, Ipv4::new(10, 1, 0, 1), 80);
        switch.record_traffic(&flow, None, Some(PortId(2)), 5_000_000, 3000);
        let report = soil.advance(Time::from_millis(2), &mut switch);
        assert!(report.asic_polls >= 1);
        assert_eq!(report.errors, vec![]);
        let msgs: Vec<_> = report
            .messages
            .iter()
            .filter(|m| m.to == Endpoint::Harvester)
            .collect();
        assert!(!msgs.is_empty(), "HH must report to its harvester");
        // The local reaction installed a monitoring rule for port 2.
        assert!(switch
            .tcam()
            .rules()
            .iter()
            .any(|r| r.region == TcamRegion::Monitoring && r.priority == SEED_RULE_PRIORITY));
    }

    #[test]
    fn a_runaway_delivery_charges_the_switch_cpu_the_budget_it_ran() {
        let (mut soil, mut switch) = rig();
        let def = compile(
            "machine Spin { place any; long x = 0;
               state s { when (enter) do { while (x <= 1) { x = 0; } } } }",
            "Spin",
        );
        let (_, report) = (soil.deploy(def, "spin", alloc(), Time::ZERO, &mut switch)).unwrap();
        assert_eq!(report.errors.len(), 1);
        assert!(report.errors[0].1 .0.contains("handler budget"));
        let cycles = crate::interp::HANDLER_BUDGET_OPS * SoilConfig::default().cycles_per_op;
        let budget = cycles as f64 / switch.cpu().spec().freq_hz as f64;
        let busy = switch.cpu().busy().as_secs_f64();
        assert!(
            busy >= budget && busy < budget * 1.001,
            "{busy} s for {budget} s"
        );
    }

    #[test]
    fn polling_a_port_the_switch_lacks_delivers_an_empty_list() {
        let (mut soil, mut switch) = rig();
        let def = compile(
            r#"machine Far {
                 place any;
                 poll p = Poll { .ival = 1, .what = port 99 };
                 state s { when (p as stats) do { send list_len(stats) to harvester; } }
               }"#,
            "Far",
        );
        soil.deploy(def, "far", alloc(), Time::ZERO, &mut switch)
            .unwrap();
        let requests = switch.pcie().requests();
        let report = soil.advance(Time::from_millis(3), &mut switch);
        assert_eq!(report.errors, vec![]);
        let sent: Vec<&Value> = report.messages.iter().map(|m| &m.value).collect();
        assert_eq!(sent, [&Value::Int(0); 3]);
        assert_eq!(switch.pcie().requests(), requests, "nothing read");
    }

    #[test]
    fn a_seed_removes_its_own_rules_but_not_the_count_rule_its_soil_polls() {
        let (mut soil, mut switch) = rig();
        let def = compile(
            r#"machine Cut {
                 place any;
                 poll r = Poll { .ival = 1, .what = proto "tcp" };
                 state s {
                   when (enter) do {
                     addTCAMRule(Rule { .pattern = proto "tcp", .act = action_count() });
                     removeTCAMRule(proto "tcp");
                     removeTCAMRule(proto "tcp");
                   }
                   when (r as stats) do { }
                 }
               }"#,
            "Cut",
        );
        soil.deploy(def, "cut", alloc(), Time::ZERO, &mut switch)
            .unwrap();
        let rules = |switch: &Switch, priority| {
            let tcam = switch.tcam().rules().iter();
            tcam.filter(|r| r.priority == priority).count()
        };
        assert_eq!(
            rules(&switch, SEED_RULE_PRIORITY),
            0,
            "the seed's rule is gone"
        );
        assert_eq!(
            rules(&switch, COUNT_RULE_PRIORITY),
            1,
            "the count rule stays"
        );
        assert_eq!(soil.audit(&switch), Ok(()));
    }

    #[test]
    fn the_positional_baseline_is_a_map_whatever_order_subjects_come_in() {
        let port = StatSubject::Port;
        let rule = |k: &str| StatSubject::Rule(k.into());
        let polls: Vec<Vec<StatSubject>> = vec![
            vec![port(0), port(1), rule("a")],
            vec![port(0), port(1), rule("a")],
            vec![rule("a"), port(1)],
            vec![port(1), port(1), port(2), port(0)],
            vec![],
            vec![port(2), rule("b"), rule("a"), port(0), port(1)],
            vec![port(0), port(1), rule("a")],
        ];
        let mut baseline = Vec::new();
        let mut model: HashMap<StatSubject, [u64; 4]> = HashMap::new();
        for (n, subjects) in polls.iter().enumerate() {
            for (at, subject) in subjects.iter().enumerate() {
                let cur = [n as u64 * 10 + at as u64, 0, 1, n as u64];
                let want = model.insert(subject.clone(), cur).unwrap_or([0; 4]);
                assert_eq!(
                    rebase(&mut baseline, at, subject, cur),
                    want,
                    "poll {n} at {at}"
                );
            }
            let mut seen: Vec<_> = baseline.iter().map(|(s, c)| (s.clone(), *c)).collect();
            let mut want: Vec<_> = model.iter().map(|(s, c)| (s.clone(), *c)).collect();
            seen.sort_by_key(|(s, _)| format!("{s:?}"));
            want.sort_by_key(|(s, _)| format!("{s:?}"));
            assert_eq!(seen, want, "after poll {n}");
        }
        // The last poll came in an order seen before: every subject sits
        // where the next such poll looks first.
        assert_eq!(
            baseline[..3].iter().map(|(s, _)| s).collect::<Vec<_>>(),
            [&port(0), &port(1), &rule("a")]
        );
    }

    #[test]
    fn aggregation_shares_asic_polls() {
        let (mut soil, mut switch) = rig();
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        for _ in 0..4 {
            soil.deploy(def.clone(), "hh", alloc(), Time::ZERO, &mut switch)
                .unwrap();
        }
        let report = soil.advance(Time::from_millis(1), &mut switch);
        // Four seeds share one AllPorts subject: 1 ASIC poll, 3 saved.
        assert_eq!(report.asic_polls, 1);
        assert_eq!(report.polls_saved, 3);
        assert_eq!(report.deliveries, 4);
    }

    #[test]
    fn poll_groups_fire_in_deploy_order_on_every_soil() {
        // Six machines, each polling its own port and reporting every
        // poll, plus a second seed of one of them: seven triggers, six
        // subject groups, all due in the same round.
        let run = || {
            let (mut soil, mut switch) = rig();
            for n in [3, 1, 5, 0, 4, 2, 1] {
                let src = format!(
                    r#"machine P{n} {{
                         place any;
                         poll p = Poll {{ .ival = 1, .what = port {n} }};
                         state s {{ when (p as st) do {{ send {n} to harvester; }} }}
                       }}"#
                );
                soil.deploy(
                    compile(&src, &format!("P{n}")),
                    "t",
                    alloc(),
                    Time::ZERO,
                    &mut switch,
                )
                .unwrap();
            }
            let report = soil.advance(Time::from_millis(2), &mut switch);
            assert_eq!(report.asic_polls, 12);
            assert_eq!(report.polls_saved, 2);
            let order: Vec<String> = report
                .messages
                .iter()
                .map(|m| m.from_machine.clone())
                .collect();
            order
        };
        let order = run();
        // Groups fire in the order of their first trigger, i.e. of
        // deployment; the late second seed of P1 rides with its group.
        let round = ["P3", "P1", "P1", "P5", "P0", "P4", "P2"];
        assert_eq!(order[..7], round);
        assert_eq!(order[7..], round);
        // Same input, same order — on any soil, in any process.
        assert_eq!(run(), order);
    }

    #[test]
    fn no_aggregation_polls_per_seed() {
        let cfg = SoilConfig {
            aggregation: false,
            ..SoilConfig::default()
        };
        let mut soil = Soil::new(SwitchId(0), cfg);
        let mut switch = Switch::new(SwitchId(0), SwitchModel::test_model(8));
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        for _ in 0..4 {
            soil.deploy(def.clone(), "hh", alloc(), Time::ZERO, &mut switch)
                .unwrap();
        }
        let report = soil.advance(Time::from_millis(1), &mut switch);
        assert_eq!(report.asic_polls, 4);
        assert_eq!(report.polls_saved, 0);
    }

    #[test]
    fn rule_subjects_install_refcounted_tcam_rules() {
        let (mut soil, mut switch) = rig();
        let def = compile(farm_almanac::programs::DDOS, "DDoS");
        let before = switch.tcam().region_used(TcamRegion::Monitoring);
        let (a, _) = soil
            .deploy(def.clone(), "ddos", alloc(), Time::ZERO, &mut switch)
            .unwrap();
        let (b, _) = soil
            .deploy(def, "ddos", alloc(), Time::ZERO, &mut switch)
            .unwrap();
        // One shared Count rule despite two seeds.
        assert_eq!(
            switch.tcam().region_used(TcamRegion::Monitoring),
            before + 1
        );
        soil.undeploy(a, UndeployReason::TaskRemoved, Time::ZERO, &mut switch)
            .unwrap();
        assert_eq!(
            switch.tcam().region_used(TcamRegion::Monitoring),
            before + 1
        );
        soil.undeploy(b, UndeployReason::TaskRemoved, Time::ZERO, &mut switch)
            .unwrap();
        assert_eq!(switch.tcam().region_used(TcamRegion::Monitoring), before);
    }

    #[test]
    fn failed_deploy_rolls_back_claimed_refcounts() {
        // A switch whose monitoring region holds exactly one rule.
        let model = SwitchModel {
            tcam_capacity: 8,
            tcam_monitoring_reserve: 1,
            ..SwitchModel::test_model(8)
        };
        let mut switch = Switch::new(SwitchId(0), model);
        let mut soil = Soil::new(SwitchId(0), SoilConfig::default());

        // Seed A installs the single rule the region can hold.
        let one = compile(
            r#"machine One {
                 place any;
                 poll p = Poll { .ival = 10, .what = dstIP "10.0.1.0/24" };
                 state s { }
               }"#,
            "One",
        );
        let (a, _) = soil
            .deploy(one, "one", alloc(), Time::ZERO, &mut switch)
            .unwrap();
        assert_eq!(switch.tcam().region_used(TcamRegion::Monitoring), 1);

        // Seed B shares A's rule (refcount claim) but also needs a second
        // rule the full region rejects — the whole deploy must fail AND
        // release the claimed refcount.
        let two = compile(
            r#"machine Two {
                 place any;
                 poll p = Poll { .ival = 10, .what = dstIP "10.0.1.0/24" };
                 poll q = Poll { .ival = 10, .what = dstIP "10.0.2.0/24" };
                 state s { }
               }"#,
            "Two",
        );
        let err = soil
            .deploy(two, "two", alloc(), Time::ZERO, &mut switch)
            .unwrap_err();
        assert!(matches!(err, SoilError::TcamInstall(_)), "{err}");
        assert_eq!(soil.num_seeds(), 1);

        // Regression: undeploying A must now drop the shared rule to
        // zero refs and free the TCAM entry. With the leak, B's claimed
        // refcount kept the entry installed forever.
        soil.undeploy(a, UndeployReason::TaskRemoved, Time::ZERO, &mut switch)
            .unwrap();
        assert_eq!(switch.tcam().region_used(TcamRegion::Monitoring), 0);
    }

    #[test]
    fn import_restore_failure_rolls_back_the_deploy() {
        let (mut soil, mut switch) = rig();
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        let bogus = SeedSnapshot {
            machine: "NotHH".to_string(),
            state: "nope".to_string(),
            vars: vec![],
        };
        let before = switch.tcam().region_used(TcamRegion::Monitoring);
        let err = soil
            .import(def, "hh", alloc(), &bogus, Time::ZERO, &mut switch)
            .unwrap_err();
        assert!(matches!(err, SoilError::Restore(_)), "{err}");
        // The half-imported seed is gone and the TCAM is clean.
        assert_eq!(soil.num_seeds(), 0);
        assert_eq!(switch.tcam().region_used(TcamRegion::Monitoring), before);
    }

    #[test]
    fn shedding_drops_lowest_priority_seeds_with_reason() {
        let (mut soil, mut switch) = rig();
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        let mut ids = Vec::new();
        for _ in 0..3 {
            let (id, _) = soil
                .deploy(def.clone(), "hh", alloc(), Time::ZERO, &mut switch)
                .unwrap();
            ids.push(id);
        }
        // Three seeds poll 1 000 times a second each; a degraded bus
        // carrying 1 200 polls/s keeps exactly one.
        let budget = 1_200.0;
        let shed = soil.shed_over_poll_budget(budget, Time::from_millis(1), &mut switch);
        assert_eq!(shed.len(), 2);
        // Highest SeedId (lowest priority) goes first.
        assert_eq!(shed[0].seed, ids[2]);
        assert_eq!(shed[1].seed, ids[1]);
        assert!(matches!(
            shed[0].reason,
            SoilError::ResourcePressure {
                resource: ResourceKind::PciePoll,
                ..
            }
        ));
        assert_eq!(soil.num_seeds(), 1);
        assert!(soil.seed(ids[0]).is_some());
        // The fit now holds; shedding again is a no-op.
        assert!(soil
            .shed_over_poll_budget(budget, Time::from_millis(2), &mut switch)
            .is_empty());
        // Snapshots are restorable: re-import the shed seed elsewhere.
        let mut soil_b = Soil::new(SwitchId(1), SoilConfig::default());
        let mut switch_b = Switch::new(SwitchId(1), SwitchModel::test_model(8));
        soil_b
            .import(
                compile(farm_almanac::programs::HEAVY_HITTER, "HH"),
                "hh",
                alloc(),
                &shed[0].snapshot,
                Time::from_millis(2),
                &mut switch_b,
            )
            .unwrap();
    }

    /// Sends to the harvester on every kind of event a soil entry point
    /// delivers; `Flip` fails its `enter` (an endless transition chain).
    const CHATTY: &str = r#"
machine Chatty {
  place any;
  time tick = 1;
  probe udp = Probe { .ival = 1, .what = proto "udp" };
  state s {
    when (enter) do { send 1 to harvester; }
    when (realloc) do { send 2 to harvester; }
    when (tick) do { send 3 to harvester; }
    when (udp as pkt) do { send 4 to harvester; }
    when (recv long x from harvester) do { send x to harvester; }
  }
}
machine Flip {
  place any;
  state a { when (enter) do { transit b; } }
  state b { when (enter) do { transit a; } }
}
"#;

    #[test]
    fn every_entry_point_settles_its_report_into_stats_and_registry() {
        let (mut soil, mut switch) = rig();
        let telemetry = Telemetry::new();
        soil.set_telemetry(telemetry.clone());
        // What the returned reports add up to.
        let (mut total, mut errors) = (SoilStats::default(), 0);
        let mut check = |soil: &Soil, report: TickReport, what: &str| {
            total.deliveries += report.deliveries;
            total.asic_polls += report.asic_polls;
            total.polls_saved += report.polls_saved;
            total.messages_out += report.messages.len() as u64;
            errors += report.errors.len() as u64;
            assert_eq!(soil.stats(), total, "stats after {what}");
            let snap = telemetry.snapshot();
            let registry = SoilStats {
                deliveries: snap.counter("soil.deliveries"),
                asic_polls: snap.counter("soil.asic_polls"),
                polls_saved: snap.counter("soil.polls_saved"),
                messages_out: snap.counter("soil.messages_out"),
                exec_iterations: 0,
            };
            assert_eq!(registry, total, "registry after {what}");
            assert_eq!(snap.counter("soil.seed_errors"), errors, "{what}");
            assert_eq!(snap.counter("ipc.messages"), total.messages_out, "{what}");
        };

        let (id, report) = soil
            .deploy(
                compile(CHATTY, "Chatty"),
                "t",
                alloc(),
                Time::ZERO,
                &mut switch,
            )
            .unwrap();
        assert_eq!((report.deliveries, report.messages.len()), (1, 1));
        check(&soil, report, "deploy");
        let report = soil.realloc(id, alloc(), Time::ZERO, &mut switch).unwrap();
        assert_eq!((report.deliveries, report.messages.len()), (1, 1));
        check(&soil, report, "realloc");
        // Two pollers sharing `port ANY`, and a seed whose `enter` fails.
        let hh = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        for def in [hh.clone(), hh, compile(CHATTY, "Flip")] {
            let (_, report) = soil
                .deploy(def, "t", alloc(), Time::ZERO, &mut switch)
                .unwrap();
            check(&soil, report, "deploy");
        }
        let report = soil.advance(Time::from_millis(3), &mut switch);
        assert_eq!(
            (report.asic_polls, report.polls_saved, report.messages.len()),
            (3, 3, 3)
        );
        check(&soil, report, "advance");
        let pkt = PacketRecord {
            flow: FlowKey::udp(Ipv4::new(9, 9, 9, 9), 1, Ipv4::new(10, 1, 0, 1), 53),
            len: 64,
            syn: false,
            fin: false,
            ack: false,
        };
        let report = soil.offer_packets(&[pkt], Time::from_millis(3), &mut switch);
        assert_eq!(report.messages.len(), 1);
        check(&soil, report, "offer_packets");
        let now = Time::from_millis(3);
        let report = soil.deliver_to_machine("Chatty", None, &Value::Int(9), now, &mut switch);
        assert_eq!(report.messages.len(), 1);
        check(&soil, report, "deliver_to_machine");
        assert_eq!((total.deliveries, total.messages_out, errors), (16, 7, 1));
    }

    #[test]
    fn probes_deliver_matching_packets_only() {
        let (mut soil, mut switch) = rig();
        let def = compile(farm_almanac::programs::SSH_BRUTE_FORCE, "SshBruteForce");
        let (id, _) = soil
            .deploy(def, "ssh", alloc(), Time::ZERO, &mut switch)
            .unwrap();
        let ssh_syn = PacketRecord {
            flow: FlowKey::tcp(Ipv4::new(9, 9, 9, 9), 1000, Ipv4::new(10, 1, 0, 1), 22),
            len: 64,
            syn: true,
            fin: false,
            ack: false,
        };
        let http = PacketRecord {
            flow: FlowKey::tcp(Ipv4::new(9, 9, 9, 9), 1000, Ipv4::new(10, 1, 0, 1), 80),
            len: 64,
            syn: true,
            fin: false,
            ack: false,
        };
        let report = soil.offer_packets(&[ssh_syn, http], Time::from_millis(10), &mut switch);
        assert_eq!(report.deliveries, 1, "only the port-22 packet matches");
        let seed = soil.seed(id).unwrap();
        let Some(Value::List(attempts)) = seed.var("attempts") else {
            panic!("attempts missing")
        };
        assert_eq!(attempts.len(), 1);
    }

    /// Three probes on one machine: one whose interval rounds to zero
    /// (never rate-limited; the test also strips its filter), and two
    /// filtered ones at 1 ms.
    const PROBES: &str = r#"
machine P {
  place all;
  probe every = Probe { .ival = 0.0000001, .what = dstPort 1 };
  probe web = Probe { .ival = 1, .what = dstPort 80 };
  probe tcpOnly = Probe { .ival = 1, .what = proto "tcp" };
  int seenEvery = 0;
  int seenWeb = 0;
  int seenTcp = 0;
  state s {
    when (every as pkt) do { seenEvery = seenEvery + 1; }
    when (web as pkt) do { seenWeb = seenWeb + 1; }
    when (tcpOnly as pkt) do { seenTcp = seenTcp + 1; }
  }
}
"#;

    #[test]
    fn shared_and_unfiltered_probes_charge_pcie_once_per_mirrored_packet() {
        let (mut soil, mut switch) = rig();
        // Almanac cannot spell a probe without `.what`; the runtime
        // treats one as matching every packet.
        let mut def = compile(PROBES, "P");
        let every = &mut Arc::get_mut(&mut def).unwrap().triggers[0];
        (every.what, every.subjects) = (None, Vec::new());
        let (id, _) = soil
            .deploy(def, "p", alloc(), Time::ZERO, &mut switch)
            .unwrap();
        let pkt = |flow: FlowKey, len: u32| PacketRecord {
            flow,
            len,
            syn: false,
            fin: false,
            ack: false,
        };
        let (src, dst) = (Ipv4::new(9, 9, 9, 9), Ipv4::new(10, 1, 0, 1));
        let batch = [
            // All three probes see the first packet: one mirror transfer.
            pkt(FlowKey::tcp(src, 1000, dst, 80), 100),
            // `web` and `tcpOnly` are rate-limited from here on; the
            // zero-interval probe keeps firing.
            pkt(FlowKey::tcp(src, 1000, dst, 22), 200),
            pkt(FlowKey::udp(src, 1000, dst, 80), 400),
        ];
        let now = Time::from_millis(10);
        let (requests, bytes) = (switch.pcie().requests(), switch.pcie().bytes_requested());
        let report = soil.offer_packets(&batch, now, &mut switch);
        assert_eq!(report.deliveries, 5);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(switch.pcie().requests() - requests, 3);
        assert_eq!(switch.pcie().bytes_requested() - bytes, 700);
        let var = |name: &str| soil.seed(id).unwrap().var(name);
        assert_eq!(var("seenEvery"), Some(Value::Int(3)));
        assert_eq!(var("seenWeb"), Some(Value::Int(1)));
        assert_eq!(var("seenTcp"), Some(Value::Int(1)));

        // Same instant again: only the zero-interval probe is still due,
        // and a batch nothing is due for mirrors nothing.
        let report = soil.offer_packets(&batch[..1], now, &mut switch);
        assert_eq!(report.deliveries, 1);
        assert_eq!(switch.pcie().requests() - requests, 4);
        // A millisecond later the filtered probes are due again; the UDP
        // packet to port 80 matches `web` but not `tcpOnly`.
        let report = soil.offer_packets(&batch[2..], now + Dur::from_millis(1), &mut switch);
        assert_eq!(report.deliveries, 2);
        assert_eq!(switch.pcie().requests() - requests, 5);
        assert_eq!(soil.stats().deliveries, 1 + 5 + 1 + 2, "enter + probes");
    }

    #[test]
    fn migration_snapshot_restores_on_another_soil() {
        let (mut soil_a, mut switch_a) = rig();
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        let (id, _) = soil_a
            .deploy(def.clone(), "hh", alloc(), Time::ZERO, &mut switch_a)
            .unwrap();
        // Harvester retunes the threshold on A.
        soil_a.deliver_to_machine("HH", None, &Value::Int(777), Time::ZERO, &mut switch_a);
        let snap = soil_a
            .undeploy(id, UndeployReason::Migration, Time::ZERO, &mut switch_a)
            .unwrap();

        let mut soil_b = Soil::new(SwitchId(1), SoilConfig::default());
        let mut switch_b = Switch::new(SwitchId(1), SwitchModel::test_model(8));
        let (new_id, _) = soil_b
            .import(
                def,
                "hh",
                alloc(),
                &snap,
                Time::from_millis(5),
                &mut switch_b,
            )
            .unwrap();
        assert_eq!(
            soil_b.seed(new_id).unwrap().var("threshold"),
            Some(Value::Int(777))
        );
    }

    #[test]
    fn realloc_rescales_polling() {
        let (mut soil, mut switch) = rig();
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        let (id, _) = soil
            .deploy(def, "hh", alloc(), Time::ZERO, &mut switch)
            .unwrap();
        assert!((soil.trigger_interval_ms(id, "pollStats").unwrap() - 1.0).abs() < 1e-9);
        soil.realloc(
            id,
            Resources::new(2.0, 512.0, 16.0, 5.0),
            Time::from_millis(1),
            &mut switch,
        )
        .unwrap();
        assert!((soil.trigger_interval_ms(id, "pollStats").unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_pcie_allocation_is_rejected() {
        let (mut soil, mut switch) = rig();
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        let err = soil
            .deploy(
                def,
                "hh",
                Resources::new(1.0, 128.0, 4.0, 0.0),
                Time::ZERO,
                &mut switch,
            )
            .unwrap_err();
        assert!(matches!(err, SoilError::BadTriggerInterval { .. }), "{err}");
        assert!(err.to_string().contains("interval"), "{err}");
    }

    #[test]
    fn a_refused_realloc_leaves_the_seed_as_it_was() {
        let (mut soil, mut switch) = rig();
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        let alloc = Resources::new(1.0, 128.0, 4.0, 10.0);
        let (id, _) = (soil.deploy(def, "hh", alloc, Time::ZERO, &mut switch)).unwrap();
        let ival = soil.trigger_interval_ms(id, "pollStats");
        let zero_pcie = Resources::new(2.0, 256.0, 8.0, 0.0);
        let err = (soil.realloc(id, zero_pcie, Time::from_millis(1), &mut switch)).unwrap_err();
        assert!(matches!(err, SoilError::BadTriggerInterval { .. }), "{err}");
        assert_eq!(soil.seed(id).unwrap().allocated(), alloc);
        assert_eq!(soil.resources_in_use(), alloc);
        assert_eq!(soil.trigger_interval_ms(id, "pollStats"), ival);
        assert_eq!(soil.audit(&switch), Ok(()));
    }

    #[test]
    fn exec_charges_cpu() {
        let src = r#"
            machine Ml {
              place any;
              time tick = 1;
              state s { when (tick) do { exec("svr"); } }
            }
        "#;
        let (mut soil, mut switch) = rig();
        let def = compile(src, "Ml");
        soil.deploy(def, "ml", alloc(), Time::ZERO, &mut switch)
            .unwrap();
        switch.cpu_mut().reset();
        soil.advance(Time::from_millis(10), &mut switch);
        assert_eq!(soil.stats().exec_iterations, 10);
        let expected_exec_secs = 10.0 * SoilConfig::default().exec_cost_cycles as f64
            / switch.cpu().spec().freq_hz as f64;
        assert!(switch.cpu().busy().as_secs_f64() >= expected_exec_secs);
    }

    #[test]
    fn periodic_deadlines_do_not_drift() {
        assert_eq!(
            advance_deadline(
                Time::from_millis(5),
                Dur::from_millis(5),
                Time::from_millis(5)
            ),
            Time::from_millis(10)
        );
        // Fell behind: catch up in whole periods beyond `now`.
        let next = advance_deadline(
            Time::from_millis(5),
            Dur::from_millis(5),
            Time::from_millis(23),
        );
        assert!(next > Time::from_millis(23));
        assert_eq!(next.as_nanos() % Dur::from_millis(5).as_nanos(), 0);
    }
}
