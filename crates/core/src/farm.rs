//! The `Farm` facade: the whole framework wired together.
//!
//! Owns the simulated [`Network`], one row per switch (its [`Soil`] and
//! what the heartbeat detector, the operator and the control channel
//! know of it), the [`Seeder`] and the per-task harvesters, and drives
//! everything on virtual time: traffic application, probe sampling,
//! trigger scheduling, message routing (seed ↔ seed and seed ↔
//! harvester), harvester commands, and placement (re)optimization with
//! live migrations.
//!
//! Construction goes through [`FarmBuilder`] (also reachable as
//! [`Farm::builder`]): topology, configuration, harvesters and telemetry
//! sinks in one fluent chain. The builder wires a shared
//! [`Telemetry`] handle through every layer — network, soils, seeder —
//! so one registry accumulates the whole stack's counters and
//! histograms and one sink set observes the whole event stream.

use std::cell::OnceCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use farm_almanac::analysis::ConstEnv;
use farm_almanac::compile::{compile_task, CompiledTask};
use farm_almanac::value::{PacketRecord, Value};
use farm_faults::{Delivery, FaultInjector, FaultKind, FaultPlan, LossModel};
use farm_netsim::controller::SdnController;
use farm_netsim::network::{Network, TrafficEvent};
use farm_netsim::switch::{ResourceKind, Resources, Switch};
use farm_netsim::time::{Dur, Time};
use farm_netsim::topology::Topology;
use farm_netsim::traffic::Workload;
use farm_netsim::types::{Proto, SwitchId};
use farm_placement::model::SwitchList;
use farm_soil::{
    Endpoint, OutboundMessage, SeedId, SeedInstance, SeedSnapshot, Soil, SoilConfig, SoilStats,
    TickReport,
};
use farm_telemetry::{
    Counter, Event, EventSink, Gauge, Histogram, ReplanOutcome, SpanLog, Telemetry, UndeployReason,
};

pub(crate) use crate::error::Error;
use crate::harvester::{Harvester, HarvesterCommand, HarvesterCtx};
use crate::seeder::{Placed, Plan, PlannedAction, SeedKey, Seeder};

mod audit;
pub use audit::AuditReport;

/// Framework configuration.
#[derive(Debug, Clone, Default)]
pub struct FarmConfig {
    /// Soil configuration applied to every switch.
    pub soil: SoilConfig,
}

/// Soil heartbeat period. Each round checkpoints live seeds and drives
/// the missed-heartbeat detector.
const HEARTBEAT_INTERVAL: Dur = Dur::from_millis(10);
/// Consecutive missed heartbeats before a switch is declared failed and
/// its seeds are orphaned for re-placement.
const MISS_THRESHOLD: u32 = 3;
/// Re-placement attempts per orphaned seed before recovery is abandoned.
const MAX_RECOVERY_ATTEMPTS: u32 = 5;
/// Backoff before the first recovery retry; doubles per attempt.
const RECOVERY_BACKOFF: Dur = Dur::from_millis(5);
/// Extra delivery attempts for a harvester report dropped by a lossy
/// control channel before it is dead-lettered.
const DELIVERY_RETRIES: u32 = 3;

/// Base seed for control-channel loss decision streams; per-switch
/// models fork off it so runs replay identically.
const LOSS_SEED_BASE: u64 = 0xFA12_5EED;

/// One orphaned or shed seed awaiting re-placement. Its last known
/// state, when it has one, stays where every snapshot lives: in its
/// seed table row.
#[derive(Debug, Clone)]
struct RecoveryItem {
    /// When the seed's host was lost (crash instant when known,
    /// detection instant otherwise) — the MTTR clock starts here.
    lost_at: Time,
    /// Re-placement attempts consumed so far.
    attempts: u32,
    /// Earliest instant of the next attempt (exponential backoff).
    next_at: Time,
}

/// One switch's state, at the switch's [`Network::slot_of`].
#[derive(Default)]
struct SwitchRow {
    /// The soil running on the switch. A crash empties it, a restart
    /// refills it.
    soil: Option<Soil>,
    /// Consecutive missed heartbeats while the switch is unreachable.
    missed: u32,
    /// Declared failed: its stale seeds are killed when (if) it rejoins,
    /// and it hosts nothing until then.
    fenced: bool,
    /// Administratively cordoned ([`Farm::drain`]): healthy but excluded
    /// from placement until [`Farm::uncordon`].
    cordoned: bool,
    /// Crash instant while the switch is affected (starts the MTTR clock
    /// for the seeds it hosted).
    down_since: Option<Time>,
    /// Control-channel impairment of this switch (wins over
    /// `global_loss`).
    loss: Option<LossModel>,
}

/// The live switches ([`Farm::live_capacities`]) in one pass over the
/// slots: reached ([`Network::reachable`]), neither fenced nor cordoned,
/// at effective resources.
fn live_list(network: &Network, rows: &[SwitchRow]) -> SwitchList {
    let switches = network.switches().zip(rows).zip(network.reached());
    (switches.filter(|&((_, row), &reached)| reached && !row.fenced && !row.cordoned))
        .map(|((sw, _), _)| (sw.id(), sw.effective_resources()))
        .collect::<Vec<_>>()
        .into()
}

/// Maximum message-routing rounds per step (seed→harvester→seed→… chains).
const MAX_ROUTING_ROUNDS: usize = 8;

/// Cached handles for the framework-level instruments, so the routing
/// hot path never takes the registry lock.
struct FarmCounters {
    collector_messages: Arc<Counter>,
    collector_bytes: Arc<Counter>,
    seed_messages: Arc<Counter>,
    seed_bytes: Arc<Counter>,
    control_messages: Arc<Counter>,
    control_bytes: Arc<Counter>,
    migrations: Arc<Counter>,
    migration_bytes: Arc<Counter>,
    seed_errors: Arc<Counter>,
    replans: Arc<Counter>,
    /// Planning rounds served warm by the incremental solver without
    /// degrading to a full recompute.
    replan_delta: Arc<Counter>,
    /// Warm rounds whose dirty frontier exceeded the limit and fell back
    /// to a full recompute.
    delta_fallback_full: Arc<Counter>,
    heartbeats: Arc<Counter>,
    delivery_retries: Arc<Counter>,
    dead_letters: Arc<Counter>,
    recoveries: Arc<Counter>,
    /// Seeds waiting in the recovery queue.
    recovery_queue: Arc<Gauge>,
    /// Source-to-harvester report latency, microseconds.
    detection_latency_us: Arc<Histogram>,
    /// Seed outage duration (host lost → re-deployed), microseconds.
    mttr_us: Arc<Histogram>,
    /// Wall-clock duration of one placement round (plan + commit),
    /// microseconds.
    replan_us: Arc<Histogram>,
    /// Same clock, but only rounds the incremental solver served warm
    /// without a full fallback — the latency the delta path delivers.
    replan_delta_us: Arc<Histogram>,
}

impl FarmCounters {
    fn new(telemetry: &Telemetry) -> FarmCounters {
        // A delivery-health counter farm-net owns: registered up front
        // so a farm that never opens a connection reports it as 0, not
        // as absent.
        telemetry.counter("net.dead_letters");
        FarmCounters {
            collector_messages: telemetry.counter("farm.collector_messages"),
            collector_bytes: telemetry.counter("farm.collector_bytes"),
            seed_messages: telemetry.counter("farm.seed_messages"),
            seed_bytes: telemetry.counter("farm.seed_bytes"),
            control_messages: telemetry.counter("farm.control_messages"),
            control_bytes: telemetry.counter("farm.control_bytes"),
            migrations: telemetry.counter("farm.migrations"),
            migration_bytes: telemetry.counter("farm.migration_bytes"),
            seed_errors: telemetry.counter("farm.seed_errors"),
            replans: telemetry.counter("farm.replans"),
            replan_delta: telemetry.counter("farm.replan_delta"),
            delta_fallback_full: telemetry.counter("farm.delta_fallback_full"),
            heartbeats: telemetry.counter("farm.heartbeats"),
            delivery_retries: telemetry.counter("farm.delivery_retries"),
            dead_letters: telemetry.counter("farm.dead_letters"),
            recoveries: telemetry.counter("farm.recoveries"),
            recovery_queue: telemetry.gauge("farm.recovery_queue"),
            detection_latency_us: telemetry.latency_histogram("detection.latency_us"),
            mttr_us: telemetry.latency_histogram("recovery.mttr_us"),
            replan_us: telemetry.latency_histogram("farm.replan_us"),
            replan_delta_us: telemetry.latency_histogram("farm.replan_delta_us"),
        }
    }
}

/// Fluent constructor for [`Farm`]: topology, config, harvesters and
/// telemetry sinks in one chain.
///
/// ```
/// use std::sync::Arc;
/// use farm_core::prelude::*;
///
/// let topo = Topology::spine_leaf(2, 3,
///     SwitchModel::accton_as7712(), SwitchModel::accton_as5712());
/// let events = Arc::new(RingBufferSink::new(1024));
/// let farm = FarmBuilder::new(topo)
///     .with_config(FarmConfig::default())
///     .with_harvester("hh", Box::new(CollectingHarvester::new()))
///     .with_sink(events.clone())
///     .build();
/// assert_eq!(farm.deployed_seeds(), 0);
/// ```
pub struct FarmBuilder {
    topology: Topology,
    config: FarmConfig,
    sinks: Vec<Arc<dyn EventSink>>,
    harvesters: Vec<(String, Box<dyn Harvester>)>,
    fault_plan: FaultPlan,
}

impl FarmBuilder {
    /// Starts a builder over a topology with default configuration.
    pub fn new(topology: Topology) -> FarmBuilder {
        FarmBuilder {
            topology,
            config: FarmConfig::default(),
            sinks: Vec::new(),
            harvesters: Vec::new(),
            fault_plan: FaultPlan::new(),
        }
    }

    /// Schedules a deterministic fault plan; the farm injects its events
    /// as virtual time advances. Equal plans yield equal runs.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> FarmBuilder {
        self.fault_plan = plan;
        self
    }

    /// Replaces the framework configuration.
    pub fn with_config(mut self, config: FarmConfig) -> FarmBuilder {
        self.config = config;
        self
    }

    /// Registers a harvester for a task (replacing a previous one for
    /// the same task).
    pub fn with_harvester(mut self, task: impl Into<String>, h: Box<dyn Harvester>) -> FarmBuilder {
        self.harvesters.push((task.into(), h));
        self
    }

    /// Attaches an event sink; every [`Event`] from any layer reaches it.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> FarmBuilder {
        self.sinks.push(sink);
        self
    }

    /// Assembles the framework: one [`Telemetry`] handle is created and
    /// threaded through the network, every soil, and the seeder.
    pub fn build(self) -> Farm {
        let telemetry = Telemetry::new();
        for sink in self.sinks {
            telemetry.add_sink(sink);
        }
        let mut network = Network::new(self.topology);
        network.set_telemetry(&telemetry);
        let rows: Vec<SwitchRow> = network
            .switches()
            .map(|sw| SwitchRow {
                soil: Some(new_soil(sw.id(), self.config.soil, &telemetry)),
                ..SwitchRow::default()
            })
            .collect();
        let n_switches = rows.len();
        let mut seeder = Seeder::new();
        seeder.set_telemetry(telemetry.clone());
        let counters = FarmCounters::new(&telemetry);
        let mut farm = Farm {
            network,
            rows,
            seeder,
            harvesters: HashMap::new(),
            now: Time::ZERO,
            telemetry,
            counters,
            soil_config: self.config.soil,
            injector: FaultInjector::new(self.fault_plan),
            heartbeat_due: Time::ZERO + HEARTBEAT_INTERVAL,
            recovery: BTreeMap::new(),
            global_loss: None,
            sampled: vec![Vec::new(); n_switches],
            sampled_slots: Vec::new(),
            live: OnceCell::new(),
        };
        for (task, h) in self.harvesters {
            farm.set_harvester(task, h);
        }
        farm
    }
}

/// Control-plane view of one placed seed ([`Farm::seed_statuses`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SeedStatus {
    pub key: SeedKey,
    /// Machine name, empty when the seed is placed but not live (host
    /// crashed, recovery pending).
    pub machine: String,
    pub switch: SwitchId,
    /// Current state-machine state, or `"lost"` when not live.
    pub state: String,
    pub alloc: Resources,
}

/// The assembled FARM framework over a simulated fabric.
pub struct Farm {
    network: Network,
    /// One row per switch, addressed by [`Network::slot_of`] like the
    /// switches themselves, so slot order is id order.
    rows: Vec<SwitchRow>,
    /// Task catalog and seed table: where every placed seed is, what it
    /// holds, what its soil calls it and its last known state.
    seeder: Seeder,
    harvesters: HashMap<String, Box<dyn Harvester>>,
    now: Time,
    telemetry: Telemetry,
    counters: FarmCounters,
    /// Kept so switches restarting after a crash get a fresh soil with
    /// the same configuration.
    soil_config: SoilConfig,
    injector: FaultInjector,
    /// Next heartbeat round.
    heartbeat_due: Time,
    /// Orphaned/shed seeds awaiting re-placement.
    recovery: BTreeMap<SeedKey, RecoveryItem>,
    /// Control-channel impairment for the whole management network.
    global_loss: Option<LossModel>,
    /// Scratch of [`Farm::apply_traffic`]: sampled packets per network
    /// slot, emptied (capacity kept) by the end of every call.
    sampled: Vec<Vec<PacketRecord>>,
    /// Scratch of [`Farm::apply_traffic`]: the non-empty `sampled` slots.
    sampled_slots: Vec<(SwitchId, usize)>,
    /// The live switches as of the first read since the last change to
    /// what makes a switch live (up, reached, fenced, PCIe degradation),
    /// which empties it; a cordon or an uncordon sets its one entry.
    live: OnceCell<SwitchList>,
}

impl Farm {
    /// Builds the framework over a topology. Equivalent to
    /// `Farm::builder(topology).with_config(config).build()`; prefer
    /// [`FarmBuilder`] when attaching harvesters or sinks.
    pub fn new(topology: Topology, config: FarmConfig) -> Farm {
        Farm::builder(topology).with_config(config).build()
    }

    /// Starts a [`FarmBuilder`] over a topology.
    pub fn builder(topology: Topology) -> FarmBuilder {
        FarmBuilder::new(topology)
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// The simulated network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// One switch, to write: its meters, PCIe window and degradation.
    /// A switch goes down, or a link is cut, only through the fault
    /// plan, which takes the soil down with it.
    pub fn switch_mut(&mut self, id: SwitchId) -> Option<&mut Switch> {
        self.live.take();
        self.network.switch_mut(id)
    }

    /// The soil running on a switch.
    pub fn soil(&self, id: SwitchId) -> Option<&Soil> {
        self.row(id)?.soil.as_ref()
    }

    /// The row of switch `id`, `None` for a switch the fabric lacks.
    fn row(&self, id: SwitchId) -> Option<&SwitchRow> {
        self.rows.get(self.network.slot_of(id)?)
    }

    /// [`Farm::row`], to write.
    fn row_mut(&mut self, id: SwitchId) -> Option<&mut SwitchRow> {
        self.rows.get_mut(self.network.slot_of(id)?)
    }

    /// Fabric-wide soil statistics (summed across every switch) —
    /// poll-aggregation savings, ASIC polls, deliveries.
    pub fn soil_stats(&self) -> SoilStats {
        let soils = self.rows.iter().filter_map(|r| r.soil.as_ref());
        soils.map(|s| s.stats()).sum()
    }

    /// The seeder (task catalog and placements).
    pub fn seeder(&self) -> &Seeder {
        &self.seeder
    }

    /// The telemetry handle shared by every layer: registry of
    /// counters/gauges/histograms plus the event-sink fan-out.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Number of deployed seeds across the fabric.
    pub fn deployed_seeds(&self) -> usize {
        self.seeder.deployed_seeds()
    }

    /// Registers (or replaces) the harvester of a task.
    pub fn set_harvester(&mut self, task: impl Into<String>, h: Box<dyn Harvester>) {
        self.harvesters.insert(task.into(), h);
    }

    /// Typed view of a task's harvester.
    pub fn harvester<T: 'static>(&self, task: &str) -> Option<&T> {
        self.harvesters
            .get(task)
            .and_then(|h| h.as_any().downcast_ref::<T>())
    }

    /// Compiles and deploys an M&M task: parse/check/analyze the Almanac
    /// source, register it, and re-run global placement (which deploys
    /// the new seeds and may migrate existing ones). A failure leaves the
    /// task unregistered ([`Farm::deploy_compiled`]).
    ///
    /// # Errors
    ///
    /// Compilation errors, placement failures, or soil deployment errors.
    pub fn deploy_task(
        &mut self,
        name: &str,
        source: &str,
        externals: &BTreeMap<String, ConstEnv>,
    ) -> Result<Plan, Error> {
        let task = {
            let ctl = SdnController::new(self.network.topology());
            compile_task(name, source, externals, &ctl)?
        };
        self.deploy(vec![task], &mut SpanLog::off())
    }

    /// Compiles every task, then registers them all and runs a *single*
    /// global placement round — the efficient path for deploying fleets
    /// (the paper's seeder also batches: placement runs when inputs
    /// change, not per seed). A compile error registers none of them; a
    /// later failure leaves none of them registered
    /// ([`Farm::deploy_compiled`]).
    ///
    /// # Errors
    ///
    /// Compilation or plan-execution failures.
    pub fn deploy_tasks(
        &mut self,
        tasks: &[(&str, &str, BTreeMap<String, ConstEnv>)],
    ) -> Result<Plan, Error> {
        let ctl = SdnController::new(self.network.topology());
        let compiled = tasks
            .iter()
            .map(|(name, source, externals)| compile_task(name, source, externals, &ctl))
            .collect::<Result<Vec<_>, _>>()?;
        self.deploy(compiled, &mut SpanLog::off())
    }

    /// Registers `tasks` and replans. A same-named task already
    /// registered is withdrawn, seeds and all (its harvester stays), once
    /// the new definition has been accepted: a replacement starts its own
    /// seeds, and a rejected one changes nothing. On any failure every
    /// task this call registered is withdrawn again and whatever the
    /// round planted for them is undeployed, the way [`Farm::drain`]
    /// rolls back its cordon.
    fn deploy(&mut self, tasks: Vec<CompiledTask>, spans: &mut SpanLog) -> Result<Plan, Error> {
        let mut registered = Vec::with_capacity(tasks.len());
        let started = spans.start();
        let result = tasks.into_iter().try_for_each(|task| {
            let name = task.name.clone();
            if let Some(replaced) = self.seeder.register_task(task)? {
                self.undeploy_withdrawn(&name, replaced);
            }
            registered.push(name);
            Ok(())
        });
        spans.end("register", started);
        let result = result.and_then(|()| self.replan_traced(spans));
        if result.is_err() {
            for name in &registered {
                self.withdraw(name);
            }
        }
        result
    }

    /// Removes a task: undeploys its seeds, in key order, and drops its
    /// harvester.
    pub fn remove_task(&mut self, name: &str) -> Result<(), Error> {
        self.withdraw(name);
        self.harvesters.remove(name);
        Ok(())
    }

    /// Unregisters a task and undeploys its seeds, in key order, with
    /// its snapshots and recovery entries. Its harvester stays.
    fn withdraw(&mut self, name: &str) {
        let seeds = self.seeder.remove_task(name).unwrap_or_default();
        self.undeploy_withdrawn(name, seeds);
    }

    /// Undeploys `seeds`, the records of task `name` the seeder has
    /// just let go (its snapshots went with its rows), in order, and
    /// drops the task's recovery entries.
    fn undeploy_withdrawn(&mut self, name: &str, seeds: Vec<Placed>) {
        for placed in seeds {
            if let Some((soil, switch)) = host_mut(&mut self.rows, &mut self.network, placed) {
                let _ = soil.undeploy(placed.id, UndeployReason::TaskRemoved, self.now, switch);
            }
        }
        self.recovery.retain(|k, _| k.task != name);
        self.recovery_changed();
    }

    /// Re-runs global placement over every registered task and executes
    /// the resulting plan (deploy / migrate / realloc / undeploy). The
    /// solver is incremental: switches whose inputs did not change since
    /// the last round reuse their memoized LP outputs, and the plan is
    /// bit-identical to a from-scratch solve.
    ///
    /// # Errors
    ///
    /// Soil-level failures while executing the plan.
    pub fn replan(&mut self) -> Result<Plan, Error> {
        self.replan_traced(&mut SpanLog::off())
    }

    /// [`Farm::replan`], its round recorded in `spans` (`replan`, and
    /// within it `plan`, `commit` and each `plant` and `migrate`).
    fn replan_traced(&mut self, spans: &mut SpanLog) -> Result<Plan, Error> {
        let mut outbound = Vec::new();
        let plan = self.replan_into(&mut outbound, spans);
        self.route(outbound);
        plan
    }

    /// [`Farm::replan`], leaving the messages the round's seeds send for
    /// the caller to route: plans a round and commits every action of
    /// it, in order.
    fn replan_into(
        &mut self,
        outbound: &mut Vec<OutboundMessage>,
        spans: &mut SpanLog,
    ) -> Result<Plan, Error> {
        let started = std::time::Instant::now();
        let round = spans.start();
        let live = (self.live).get_or_init(|| live_list(&self.network, &self.rows));
        let mut plan = self.seeder.plan(live);
        spans.end("plan", round);
        let commit = spans.start();
        let now = self.now;
        for action in &plan.actions {
            let planted = match action {
                PlannedAction::Deploy { key, to, alloc } => {
                    Some(self.plant(key, *to, *alloc, outbound, spans)?)
                }
                PlannedAction::Migrate {
                    key,
                    from,
                    to,
                    alloc,
                } => {
                    let started = spans.start();
                    let def = self
                        .seeder
                        .machine_of(key)
                        .ok_or_else(|| Error::UnknownMachine(key.to_string()))?;
                    let placed = self
                        .seeder
                        .placed(key)
                        .ok_or_else(|| Error::NotDeployed(key.to_string()))?;
                    // The source instance may be gone — its host crashed,
                    // or restarted cold, and the detector has not fired
                    // yet. The migration then degrades into a
                    // recovery-style import of the last stored snapshot,
                    // or a cold start for a seed never captured.
                    let snapshot = match host_mut(&mut self.rows, &mut self.network, placed) {
                        Some((soil, switch)) => Some(soil.undeploy(
                            placed.id,
                            UndeployReason::Migration,
                            now,
                            switch,
                        )?),
                        None => self.seeder.snapshot(key).cloned(),
                    };
                    let (id, bytes) = match snapshot {
                        Some(snapshot) => {
                            let (soil, switch) = soil_on(&mut self.rows, &mut self.network, *to)
                                .expect("a planned target runs a soil");
                            let (id, report) =
                                soil.import(def, &key.task, *alloc, &snapshot, now, switch)?;
                            // Counted, not routed: what a migrated seed's
                            // `enter` sends has never reached a harvester.
                            let _ = take_report(&self.counters, report);
                            let bytes = snapshot
                                .vars
                                .iter()
                                .map(|(_, v)| farm_soil::soil::value_bytes(v))
                                .sum();
                            (id, bytes)
                        }
                        None => (self.plant(key, *to, *alloc, outbound, spans)?, 0),
                    };
                    self.counters.migrations.inc();
                    self.counters.migration_bytes.add(bytes);
                    let at_ns = now.as_nanos();
                    self.telemetry.emit_with(|| Event::SeedMigrated {
                        at_ns,
                        from_switch: from.0,
                        to_switch: to.0,
                        task: key.task.clone(),
                        state_bytes: bytes,
                    });
                    spans.end("migrate", started);
                    Some(id)
                }
                PlannedAction::Realloc { key, alloc } => {
                    if let Some(placed) = self.seeder.placed(key) {
                        if let Some((soil, switch)) =
                            host_mut(&mut self.rows, &mut self.network, placed)
                        {
                            let report = soil.realloc(placed.id, *alloc, now, switch)?;
                            outbound.extend(take_report(&self.counters, report));
                        }
                    }
                    None
                }
                PlannedAction::Undeploy { key, .. } => {
                    if let Some(placed) = self.seeder.placed(key) {
                        // A lost host already took the seed with it.
                        if let Some((soil, switch)) =
                            host_mut(&mut self.rows, &mut self.network, placed)
                        {
                            soil.undeploy(placed.id, UndeployReason::Replanned, now, switch)?;
                        }
                    }
                    None
                }
            };
            self.seeder.commit(action, planted);
        }
        spans.end("commit", commit);
        self.counters.replans.inc();
        let at_ns = self.now.as_nanos();
        let outcome = if plan.dropped_tasks.is_empty() {
            ReplanOutcome::Full
        } else {
            ReplanOutcome::Partial
        };
        let (actions, dropped) = (plan.actions.len() as u64, plan.dropped_tasks.len() as u64);
        self.telemetry.emit_with(|| Event::ReplanCompleted {
            at_ns,
            outcome,
            actions,
            dropped_tasks: dropped,
        });
        let elapsed_us = started.elapsed().as_micros() as u64;
        self.counters.replan_us.record(elapsed_us);
        plan.round_us = elapsed_us;
        if plan.delta.warm {
            if plan.delta.fallback_full {
                self.counters.delta_fallback_full.inc();
            } else {
                self.counters.replan_delta.inc();
                self.counters.replan_delta_us.record(elapsed_us);
            }
        }
        let (mut deploys, mut migrations, mut reallocs, mut undeploys) = (0u64, 0u64, 0u64, 0u64);
        for action in &plan.actions {
            match action {
                PlannedAction::Deploy { .. } => deploys += 1,
                PlannedAction::Migrate { .. } => migrations += 1,
                PlannedAction::Realloc { .. } => reallocs += 1,
                PlannedAction::Undeploy { .. } => undeploys += 1,
            }
        }
        self.telemetry.emit_with(|| Event::ReplanSummary {
            at_ns,
            elapsed_us,
            deploys,
            migrations,
            reallocs,
            undeploys,
        });
        spans.end("replan", round);
        Ok(plan)
    }

    /// Plants one seed — the one place a seed is deployed, whoever
    /// planned it. A key waiting in the recovery queue lands its recovery
    /// here: warm restore when the snapshot store knows the seed,
    /// [`Event::SeedRecovered`], MTTR. Returns the soil-local id for
    /// [`Seeder::commit`].
    fn plant(
        &mut self,
        key: &SeedKey,
        to: SwitchId,
        alloc: Resources,
        outbound: &mut Vec<OutboundMessage>,
        spans: &mut SpanLog,
    ) -> Result<SeedId, Error> {
        let started = spans.start();
        let def = self
            .seeder
            .machine_of(key)
            .ok_or_else(|| Error::UnknownMachine(key.to_string()))?;
        let now = self.now;
        let (soil, switch) =
            soil_on(&mut self.rows, &mut self.network, to).expect("a planned target runs a soil");
        let (id, report) = soil.deploy(def, &key.task, alloc, now, switch)?;
        outbound.extend(take_report(&self.counters, report));
        if let Some(item) = self.recovery.remove(key) {
            (self.counters.recovery_queue).set(self.recovery.len() as f64);
            // A stale or mismatched snapshot falls back to the cold start
            // the deploy already performed.
            let cold_start =
                (self.seeder.snapshot(key)).is_none_or(|snap| soil.restore_seed(id, snap).is_err());
            let mttr = now.since(item.lost_at);
            self.counters.recoveries.inc();
            self.counters.mttr_us.record(mttr.as_nanos() / 1_000);
            let (at_ns, task, attempts) = (now.as_nanos(), key.task.clone(), item.attempts as u64);
            self.telemetry.emit_with(|| Event::SeedRecovered {
                at_ns,
                switch: to.0,
                seed: id.0,
                task,
                cold_start,
                mttr_ns: mttr.as_nanos(),
                attempts,
            });
        }
        spans.end("plant", started);
        Ok(id)
    }

    /// Applies traffic to the fabric and offers per-event samples to
    /// probe triggers.
    pub fn apply_traffic(&mut self, events: &[TrafficEvent]) {
        self.network.apply_traffic(events);
        // Sample into one reused bucket per up switch, resolving the slot
        // once per run of same-switch events.
        let mut run: Option<(SwitchId, Option<usize>)> = None;
        for e in events {
            let slot = match run {
                Some((id, slot)) if id == e.switch => slot,
                _ => {
                    let slot = self
                        .network
                        .slot_of(e.switch)
                        .filter(|_| self.network.is_up(e.switch));
                    run = Some((e.switch, slot));
                    slot
                }
            };
            let Some(slot) = slot else {
                continue;
            };
            let bucket = &mut self.sampled[slot];
            if bucket.is_empty() {
                self.sampled_slots.push((e.switch, slot));
            }
            bucket.push(sample_packet(e));
        }
        // Switches process their samples in id order, so event traces are
        // identical across runs.
        self.sampled_slots.sort_unstable();
        let mut outbound = Vec::new();
        for &(swid, slot) in &self.sampled_slots {
            let pkts = &mut self.sampled[slot];
            if let Some(soil) = &mut self.rows[slot].soil {
                let switch = self.network.switch_mut(swid).expect("switch exists");
                let report = soil.offer_packets(pkts, self.now, switch);
                outbound.extend(take_report(&self.counters, report));
            }
            pkts.clear();
        }
        self.sampled_slots.clear();
        self.route(outbound);
    }

    /// Advances virtual time to `to`: scheduled faults and heartbeat
    /// rounds apply in timestamp order, every live soil fires its due
    /// triggers, due recoveries run, and resulting messages are routed.
    pub fn advance(&mut self, to: Time) {
        // Interleave fault injection and heartbeat rounds by timestamp;
        // faults win ties so a heartbeat at the crash instant already
        // sees the switch down.
        loop {
            let next_fault = self.injector.next_at().filter(|t| *t <= to);
            let next_hb = Some(self.heartbeat_due).filter(|t| *t <= to);
            match (next_fault, next_hb) {
                (Some(f), Some(h)) if f <= h => self.apply_due_faults(f),
                (Some(f), None) => self.apply_due_faults(f),
                (None, Some(h)) | (Some(_), Some(h)) => {
                    self.heartbeat_round(h);
                    self.heartbeat_due = h + HEARTBEAT_INTERVAL;
                }
                (None, None) => break,
            }
        }
        let mut outbound = Vec::new();
        for soil in self.rows.iter_mut().filter_map(|r| r.soil.as_mut()) {
            let id = soil.switch_id();
            if !self.network.is_up(id) {
                continue;
            }
            let switch = self.network.switch_mut(id).expect("switch exists");
            let report = soil.advance(to, switch);
            outbound.extend(take_report(&self.counters, report));
        }
        self.now = to;
        outbound.extend(self.process_recovery());
        self.route(outbound);
    }

    /// Capacities the planner may use right now: up, reachable,
    /// non-fenced, non-cordoned switches at their *effective*
    /// (PCIe-degraded) resources, in id order. The one definition of
    /// "live" that placement and the daemon's admission control share.
    pub fn live_capacities(&self) -> &[(SwitchId, Resources)] {
        (self.live).get_or_init(|| live_list(&self.network, &self.rows))
    }

    /// Per resource kind, the live switches' capacity scaled by `quota`
    /// less what their soils' seeds hold, summed in slot order: the
    /// headroom admission control grants a new task from.
    pub fn headroom(&self, quota: f64) -> [f64; 4] {
        let mut headroom = [0f64; 4];
        for (id, cap) in self.live_capacities() {
            let soil = (self.network.slot_of(*id)).and_then(|s| self.rows[s].soil.as_ref());
            let used = soil.map_or(Resources::ZERO, Soil::resources_in_use);
            for (h, (c, u)) in headroom.iter_mut().zip(cap.0.iter().zip(used.0.iter())) {
                *h += c * quota - u;
            }
        }
        headroom
    }

    /// Applies every scheduled fault due at or before `at`.
    fn apply_due_faults(&mut self, at: Time) {
        for event in self.injector.take_due(at) {
            self.apply_fault(event.at, event.kind);
        }
    }

    fn apply_fault(&mut self, at: Time, kind: FaultKind) {
        let at_ns = at.as_nanos();
        if !matches!(
            kind,
            FaultKind::ControlLoss { .. } | FaultKind::ControlHeal { .. }
        ) {
            self.live.take();
        }
        match kind {
            FaultKind::SwitchCrash { switch } => {
                if !self.network.is_up(switch) {
                    return;
                }
                self.network.set_switch_up(switch, false);
                // The soil runtime dies with the switch: every seed on it
                // is lost along with its un-checkpointed state.
                if let Some(row) = self.row_mut(switch) {
                    row.soil = None;
                    row.down_since.get_or_insert(at);
                }
                self.seeder.soil_lost(switch);
                self.telemetry.emit_with(|| Event::SwitchCrashed {
                    at_ns,
                    switch: switch.0,
                });
            }
            FaultKind::SwitchRestart { switch } => {
                if self.network.is_up(switch) {
                    return;
                }
                self.network.set_switch_up(switch, true);
                let soil = new_soil(switch, self.soil_config, &self.telemetry);
                if let Some(row) = self.row_mut(switch) {
                    row.soil = Some(soil);
                    row.missed = 0;
                }
                self.telemetry.emit_with(|| Event::SwitchRestarted {
                    at_ns,
                    switch: switch.0,
                });
            }
            FaultKind::LinkDown { a, b } => {
                self.network.set_link_up(a, b, false);
                self.telemetry.emit_with(|| Event::LinkDown {
                    at_ns,
                    a: a.0,
                    b: b.0,
                });
            }
            FaultKind::LinkUp { a, b } => {
                self.network.set_link_up(a, b, true);
                self.telemetry.emit_with(|| Event::LinkUp {
                    at_ns,
                    a: a.0,
                    b: b.0,
                });
            }
            FaultKind::ControlLoss { switch, spec } => match switch {
                Some(sw) => {
                    let seed = LOSS_SEED_BASE ^ (sw.0 as u64 + 1);
                    if let Some(row) = self.row_mut(sw) {
                        row.loss = Some(LossModel::new(spec, seed));
                    }
                }
                None => self.global_loss = Some(LossModel::new(spec, LOSS_SEED_BASE)),
            },
            FaultKind::ControlHeal { switch } => match switch {
                Some(sw) => {
                    if let Some(row) = self.row_mut(sw) {
                        row.loss = None;
                    }
                }
                None => self.global_loss = None,
            },
            FaultKind::PcieDegrade { switch, factor } => {
                let Some(sw) = self.network.switch_mut(switch) else {
                    return;
                };
                sw.pcie_mut().set_degradation(factor);
                // Graceful degradation: shed lowest-priority seeds until
                // the surviving polling rate fits the degraded bus; shed
                // seeds re-enter placement through the recovery queue.
                let budget = sw.effective_resources().get(ResourceKind::PciePoll);
                let shed = match soil_on(&mut self.rows, &mut self.network, switch) {
                    Some((soil, sw)) => soil.shed_over_poll_budget(budget, at, sw),
                    None => Vec::new(),
                };
                for s in shed {
                    let Some(key) = self.seeder.key_of(switch, s.seed).cloned() else {
                        continue;
                    };
                    self.seeder.forget(&key);
                    self.seeder.set_snapshot(&key, s.snapshot);
                    self.recovery.insert(
                        key,
                        RecoveryItem {
                            lost_at: at,
                            attempts: 0,
                            next_at: at,
                        },
                    );
                }
                self.recovery_changed();
            }
            FaultKind::PcieRestore { switch } => {
                if let Some(sw) = self.network.switch_mut(switch) {
                    sw.pcie_mut().set_degradation(1.0);
                }
            }
        }
    }

    /// One heartbeat round: reachable soils checkpoint their seeds (and
    /// reveal state loss after a fast restart); unreachable switches
    /// accumulate misses until the detector declares them failed and
    /// orphans their seeds.
    fn heartbeat_round(&mut self, at: Time) {
        self.counters.heartbeats.inc();
        // One walk over the seed table captures every seed an alive soil
        // still hosts into its row and sets aside the ones it lost
        // (orphaning mutates the table): the soil answers heartbeats but
        // the seed is gone — the switch restarted cold before the
        // detector fired.
        let mut lost: Vec<(SwitchId, SeedKey)> = Vec::new();
        let (rows, network) = (&self.rows, &self.network);
        self.seeder.store_snapshots(|key, placed, taken_at, snap| {
            if !network.is_reachable(placed.switch) {
                return false;
            }
            let Some(seed) = live(rows, network, placed) else {
                lost.push((placed.switch, key.clone()));
                return false;
            };
            capture(seed, taken_at, snap);
            true
        });
        lost.sort();
        let mut lost = lost.into_iter().peekable();
        for slot in 0..self.rows.len() {
            let id = self.network.topology().node_at(slot).id;
            if self.network.is_reachable(id) {
                self.rows[slot].missed = 0;
                if std::mem::take(&mut self.rows[slot].fenced) {
                    self.live.take();
                    self.kill_stale_seeds(id, at);
                }
                while let Some((_, key)) = lost.next_if(|(host, _)| *host == id) {
                    if let Some(sid) = self.seeder.forget(&key) {
                        self.orphan_seed(key, sid, id, at);
                    }
                }
                self.rows[slot].down_since = None;
            } else {
                let row = &mut self.rows[slot];
                row.missed += 1;
                let missed = row.missed;
                if missed >= MISS_THRESHOLD && !row.fenced {
                    row.fenced = true;
                    self.live.take();
                    let at_ns = at.as_nanos();
                    self.telemetry.emit_with(|| Event::SwitchDeclaredFailed {
                        at_ns,
                        switch: id.0,
                        missed: missed as u64,
                    });
                    for (key, sid) in self.seeder.evict_switch(id) {
                        self.orphan_seed(key, sid, id, at);
                    }
                }
            }
        }
    }

    /// Kills the seeds still running on a switch that rejoined after
    /// being declared failed: fencing evicted every one of them from the
    /// seed table and nothing is planted on a fenced switch, so their
    /// replacements live elsewhere and keeping the originals would
    /// double-run the task (split brain).
    fn kill_stale_seeds(&mut self, id: SwitchId, at: Time) {
        let Some((soil, switch)) = soil_on(&mut self.rows, &mut self.network, id) else {
            return;
        };
        let stale: Vec<SeedId> = soil.seeds().map(|s| s.id).collect();
        for sid in stale {
            let _ = soil.undeploy(sid, UndeployReason::Fenced, at, switch);
        }
    }

    /// Queues one seed the seed table just forgot for re-placement and
    /// emits [`Event::SeedOrphaned`]. `sid` is what the lost soil called
    /// it.
    fn orphan_seed(&mut self, key: SeedKey, sid: SeedId, from: SwitchId, at: Time) {
        let lost_at = self.row(from).and_then(|r| r.down_since).unwrap_or(at);
        let (at_ns, task) = (at.as_nanos(), key.task.clone());
        let has_snapshot = self.seeder.snapshot(&key).is_some();
        self.telemetry.emit_with(|| Event::SeedOrphaned {
            at_ns,
            switch: from.0,
            seed: sid.0,
            task,
            has_snapshot,
        });
        self.recovery.insert(
            key,
            RecoveryItem {
                lost_at,
                attempts: 0,
                next_at: at,
            },
        );
        self.recovery_changed();
    }

    /// Attempts to re-place every due orphaned/shed seed through the
    /// regular placement heuristic. Seeds that cannot be placed yet back
    /// off exponentially; after [`MAX_RECOVERY_ATTEMPTS`] recovery is
    /// abandoned with an event.
    fn process_recovery(&mut self) -> Vec<OutboundMessage> {
        let now = self.now;
        let due: Vec<SeedKey> = self
            .recovery
            .iter()
            .filter(|(_, r)| r.next_at <= now)
            .map(|(k, _)| k.clone())
            .collect();
        if due.is_empty() {
            return Vec::new();
        }
        // The round's whole plan is committed: a recovery's deploy counts
        // on the reallocs and migrations of its target's residents that
        // the same plan makes. A landed recovery leaves the queue inside
        // `plant`; an error stops the round where an operator's replan
        // stops, and the keys it did not land wait for their next try.
        for key in &due {
            if let Some(item) = self.recovery.get_mut(key) {
                item.attempts += 1;
            }
        }
        let mut outbound = Vec::new();
        let _ = self.replan_into(&mut outbound, &mut SpanLog::off());
        for key in due {
            let Some(item) = self.recovery.get_mut(&key) else {
                continue;
            };
            let attempts = item.attempts;
            // Exponential backoff should this attempt fail too:
            // base × 2^(attempts-1).
            let factor = 1u64 << (attempts - 1).min(16);
            item.next_at = now + Dur::from_nanos(RECOVERY_BACKOFF.as_nanos() * factor);
            if attempts >= MAX_RECOVERY_ATTEMPTS {
                let (at_ns, task) = (now.as_nanos(), key.task.clone());
                let seed = key.seed as u64;
                self.telemetry.emit_with(|| Event::RecoveryAbandoned {
                    at_ns,
                    task,
                    seed,
                    attempts: attempts as u64,
                });
                self.recovery.remove(&key);
            }
        }
        self.recovery_changed();
        outbound
    }

    /// Seeds currently waiting in the recovery queue.
    pub fn recovery_pending(&self) -> usize {
        self.recovery.len()
    }

    /// Settles the `farm.recovery_queue` gauge after the queue changed.
    fn recovery_changed(&self) {
        self.counters.recovery_queue.set(self.recovery.len() as f64);
    }

    /// Switches currently declared failed by the heartbeat detector, in
    /// id order.
    pub fn fenced_switches(&self) -> Vec<SwitchId> {
        self.switches_where(|r| r.fenced)
    }

    /// The switches whose row `pick` selects, in id order.
    fn switches_where(&self, pick: impl Fn(&SwitchRow) -> bool) -> Vec<SwitchId> {
        let rows = self.network.switches().zip(&self.rows);
        rows.filter(|(_, row)| pick(row))
            .map(|(sw, _)| sw.id())
            .collect()
    }

    /// Registers an already-compiled task and replans — the deployment
    /// path for programs compiled out-of-band (farmd's `SubmitProgram`
    /// compiles server-side to report full diagnostics first).
    ///
    /// # Errors
    ///
    /// Placement failures or soil errors while executing the plan. Either
    /// withdraws the task again: its name is free, nothing it planted
    /// keeps running, and a same-named task it replaced is gone.
    pub fn deploy_compiled(&mut self, task: CompiledTask) -> Result<Plan, Error> {
        self.deploy(vec![task], &mut SpanLog::off())
    }

    /// [`Farm::deploy_compiled`], its phases recorded in `spans`
    /// (`register`, then the round as [`Farm::replan`] runs it: `replan`
    /// and within it `plan`, `commit` and each `plant` and `migrate`).
    ///
    /// # Errors
    ///
    /// As [`Farm::deploy_compiled`].
    pub fn deploy_compiled_traced(
        &mut self,
        task: CompiledTask,
        spans: &mut SpanLog,
    ) -> Result<Plan, Error> {
        self.deploy(vec![task], spans)
    }

    /// Administratively cordons a switch — healthy, but the planner may
    /// no longer place on it — and replans so movable seeds migrate off.
    /// Returns the plan and the number of seeds evacuated. Seeds pinned
    /// to the switch by `place all` / explicit constraints have nowhere
    /// else to go: they hold their seat ([`Plan::held`]) and keep
    /// running there, and the rest of their task is not touched.
    ///
    /// A failure rolls back the cordon this call set (one an
    /// earlier drain set stays), leaving the farm as it was.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSwitch`] for a switch the fabric does not have,
    /// before anything is cordoned or replanned; soil failures while
    /// evacuating.
    pub fn drain(&mut self, switch: SwitchId) -> Result<(Plan, usize), Error> {
        self.drain_traced(switch, &mut SpanLog::off())
    }

    /// [`Farm::drain`], its round recorded in `spans` as
    /// [`Farm::deploy_compiled_traced`] records one.
    ///
    /// # Errors
    ///
    /// As [`Farm::drain`].
    pub fn drain_traced(
        &mut self,
        switch: SwitchId,
        spans: &mut SpanLog,
    ) -> Result<(Plan, usize), Error> {
        let slot = (self.network.slot_of(switch)).ok_or(Error::UnknownSwitch(switch))?;
        let newly_cordoned = !std::mem::replace(&mut self.rows[slot].cordoned, true);
        self.patch_live(slot);
        match self.replan_traced(spans) {
            Ok(plan) => {
                let evacuated = plan
                    .actions
                    .iter()
                    .filter(|a| matches!(a, PlannedAction::Migrate { from, .. } if *from == switch))
                    .count();
                Ok((plan, evacuated))
            }
            Err(e) => {
                if newly_cordoned {
                    self.rows[slot].cordoned = false;
                    self.patch_live(slot);
                }
                Err(e)
            }
        }
    }

    /// Lifts a cordon and replans so the switch is usable again.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownSwitch`] for a switch the fabric does not have,
    /// before anything is replanned; soil failures while executing the
    /// plan.
    pub fn uncordon(&mut self, switch: SwitchId) -> Result<Plan, Error> {
        self.uncordon_traced(switch, &mut SpanLog::off())
    }

    /// [`Farm::uncordon`], its round recorded in `spans` as
    /// [`Farm::deploy_compiled_traced`] records one.
    ///
    /// # Errors
    ///
    /// As [`Farm::uncordon`].
    pub fn uncordon_traced(
        &mut self,
        switch: SwitchId,
        spans: &mut SpanLog,
    ) -> Result<Plan, Error> {
        let slot = (self.network.slot_of(switch)).ok_or(Error::UnknownSwitch(switch))?;
        self.rows[slot].cordoned = false;
        self.patch_live(slot);
        self.replan_traced(spans)
    }

    /// The kept live list, if there is one, follows switch `slot`'s
    /// cordon: its one entry is set ([`SwitchList::set`]). Faults that
    /// can change many switches' reachability or capacity at once empty
    /// the list instead.
    fn patch_live(&mut self, slot: usize) {
        let (Some(live), Some(sw)) = (self.live.get_mut(), self.network.switches().nth(slot))
        else {
            return;
        };
        let row = &self.rows[slot];
        let up = self.network.reached()[slot] && !row.fenced && !row.cordoned;
        live.set(sw.id(), up.then(|| sw.effective_resources()));
    }

    /// Switches currently cordoned by [`Farm::drain`], in id order.
    pub fn cordoned_switches(&self) -> Vec<SwitchId> {
        self.switches_where(|r| r.cordoned)
    }

    /// Control-plane inventory: one [`SeedStatus`] per placed seed, in
    /// key order.
    pub fn seed_statuses(&self) -> Vec<SeedStatus> {
        self.seeder
            .table()
            .map(|(key, placed)| self.status_of(key, placed))
            .collect()
    }

    /// The [`SeedStatus`] of one placed seed, `None` when `key` is not
    /// placed.
    pub fn seed_status(&self, key: &SeedKey) -> Option<SeedStatus> {
        let placed = self.seeder.placed(key)?;
        Some(self.status_of(key, placed))
    }

    fn status_of(&self, key: &SeedKey, placed: Placed) -> SeedStatus {
        let (machine, state) = match live(&self.rows, &self.network, placed) {
            Some(seed) => (seed.machine_name().to_string(), seed.state().to_string()),
            // Placed per the seeder but not live on the soil: the host
            // crashed and recovery has not landed it yet.
            None => (String::new(), "lost".to_string()),
        };
        SeedStatus {
            key: key.clone(),
            machine,
            switch: placed.switch,
            state,
            alloc: placed.alloc,
        }
    }

    /// The variable bindings of one live seed, rendered as strings in
    /// name order (the `DescribeSeed` control surface).
    pub fn seed_vars(&self, key: &SeedKey) -> Option<Vec<(String, String)>> {
        let seed = live(&self.rows, &self.network, self.seeder.placed(key)?)?;
        let mut vars: Vec<(String, String)> = seed
            .snapshot()
            .vars
            .into_iter()
            .map(|(name, v)| (name, v.to_string()))
            .collect();
        vars.sort();
        Some(vars)
    }

    /// Checkpoints every live seed into its seed table row, as the
    /// heartbeat rounds do: a seed that has not run since its row's
    /// capture is not captured again. Returns the number of live seeds
    /// whose rows now hold their state.
    pub fn checkpoint_seeds(&mut self) -> usize {
        let (rows, network) = (&self.rows, &self.network);
        (self.seeder).store_snapshots(|_, placed, taken_at, snap| {
            let Some(seed) = live(rows, network, placed) else {
                return false;
            };
            capture(seed, taken_at, snap);
            true
        })
    }

    /// Every stored snapshot as a portable entry, sorted by the key's
    /// display form — what the daemon persists into a checkpoint file.
    /// A seed sitting in the recovery queue has one like any other, so
    /// a daemon that dies mid-recovery still has every crashed seed's
    /// state in its final file.
    pub fn export_checkpoints(&self) -> Vec<(SeedKey, SeedSnapshot)> {
        self.seeder.export_snapshots()
    }

    /// Loads checkpoint entries (e.g. parsed back from a checkpoint
    /// file) into the seed table rows [`Farm::restore_seeds`] reads,
    /// replacing their snapshots. Only a seed of a registered task has a
    /// row, so no export carries a snapshot of a task it has no program
    /// for. Returns how many entries were left out for naming no row.
    pub fn import_checkpoints(
        &mut self,
        entries: impl IntoIterator<Item = (SeedKey, SeedSnapshot)>,
    ) -> usize {
        let mut unknown = 0;
        for (key, snap) in entries {
            unknown += usize::from(!self.seeder.set_snapshot(&key, snap));
        }
        unknown
    }

    /// Rolls every live seed back to its last checkpoint (from heartbeat
    /// rounds or [`Farm::checkpoint_seeds`]). Seeds without a matching
    /// checkpoint keep running untouched. Returns the number restored.
    pub fn restore_seeds(&mut self) -> usize {
        self.restore_where(|_| true)
    }

    /// Rolls the live seeds of exactly one task back to their imported
    /// or captured checkpoints, leaving every other task untouched —
    /// the landing half of a snapshot-carrying deploy (a federation
    /// migration deploys the program on the target pod, imports the
    /// travelling snapshots, then restores only that task). Returns the
    /// number restored.
    pub fn restore_seeds_for(&mut self, task: &str) -> usize {
        self.restore_where(|key| key.task == task)
    }

    /// The restore walk: every live seed `wanted` selects goes back to
    /// its stored snapshot.
    fn restore_where(&mut self, wanted: impl Fn(&SeedKey) -> bool) -> usize {
        let mut restored = 0;
        for (key, placed) in self.seeder.table() {
            let Some(snap) = self.seeder.snapshot(key).filter(|_| wanted(key)) else {
                continue;
            };
            if let Some((soil, _)) = host_mut(&mut self.rows, &mut self.network, placed) {
                if soil.restore_seed(placed.id, snap).is_ok() {
                    restored += 1;
                }
            }
        }
        restored
    }

    /// Replaces the scheduled fault plan (events already handed out are
    /// not replayed).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.injector = FaultInjector::new(plan);
    }

    /// Rolls the control-channel loss model for one harvester delivery
    /// (the per-switch model wins over the global one). Dropped sends
    /// retry up to [`DELIVERY_RETRIES`] times; after that the report is
    /// dead-lettered. Returns the copies to deliver (0 = dead-lettered)
    /// plus the channel's added delay.
    fn roll_delivery(&mut self, from: SwitchId, task: &str) -> (u8, Dur) {
        let slot = self.network.slot_of(from);
        let Some(model) =
            (slot.and_then(|slot| self.rows[slot].loss.as_mut())).or(self.global_loss.as_mut())
        else {
            return (1, Dur::ZERO);
        };
        let mut attempt: u64 = 0;
        loop {
            match model.roll() {
                Delivery::Delivered { copies } => return (copies, model.delay()),
                Delivery::Dropped => {
                    attempt += 1;
                    let at_ns = self.now.as_nanos();
                    let task = task.to_string();
                    if attempt > DELIVERY_RETRIES as u64 {
                        self.counters.dead_letters.inc();
                        self.telemetry.emit_with(|| Event::DeliveryDeadLettered {
                            at_ns,
                            from_switch: from.0,
                            task,
                            attempts: attempt,
                        });
                        return (0, Dur::ZERO);
                    }
                    self.counters.delivery_retries.inc();
                    self.telemetry.emit_with(|| Event::DeliveryRetried {
                        at_ns,
                        from_switch: from.0,
                        task,
                        attempt,
                    });
                }
            }
        }
    }

    /// Runs workloads against the fabric until `until`, stepping traffic
    /// and triggers every `tick`.
    pub fn run(&mut self, workloads: &mut [&mut dyn Workload], until: Time, tick: Dur) {
        assert!(!tick.is_zero(), "tick must be positive");
        while self.now < until {
            let step_end = (self.now + tick).min(until);
            let dt = step_end.since(self.now);
            let mut events = Vec::new();
            for w in workloads.iter_mut() {
                events.extend(w.advance(self.now, dt));
            }
            self.apply_traffic(&events);
            self.advance(step_end);
        }
    }

    /// Routes outbound messages to harvesters and seeds, applying
    /// harvester commands; message chains are bounded per step.
    fn route(&mut self, mut messages: Vec<OutboundMessage>) {
        for _round in 0..MAX_ROUTING_ROUNDS {
            if messages.is_empty() {
                return;
            }
            let mut next = Vec::new();
            for msg in messages.drain(..) {
                match &msg.to {
                    Endpoint::Harvester => {
                        // Harvester reports cross the (possibly impaired)
                        // control channel: drops retry up to the budget
                        // then dead-letter; duplication delivers twice.
                        let (copies, channel_delay) =
                            self.roll_delivery(msg.from_switch, &msg.task);
                        if copies == 0 {
                            continue;
                        }
                        let latency = msg.latency + channel_delay;
                        for _ in 0..copies {
                            self.counters.collector_messages.inc();
                            self.counters.collector_bytes.add(msg.bytes);
                            self.counters
                                .detection_latency_us
                                .record(latency.as_nanos() / 1_000);
                            let at_ns = self.now.as_nanos();
                            self.telemetry.emit_with(|| Event::HarvesterReport {
                                at_ns,
                                task: msg.task.clone(),
                                from_switch: msg.from_switch.0,
                                bytes: msg.bytes,
                                latency_ns: latency.as_nanos(),
                            });
                            if let Some(h) = self.harvesters.get_mut(&msg.task) {
                                let mut ctx = HarvesterCtx::default();
                                h.on_message(&msg, &mut ctx);
                                for cmd in ctx.commands {
                                    next.extend(self.apply_command(cmd));
                                }
                            }
                        }
                    }
                    Endpoint::Machine { name, at } => {
                        self.counters.seed_messages.inc();
                        self.counters.seed_bytes.add(msg.bytes);
                        let sender = (msg.from_machine.as_str(), msg.from_switch);
                        next.extend(self.send_to_machine(name, *at, Some(sender), &msg.value));
                    }
                }
            }
            messages = next;
        }
        if !messages.is_empty() {
            // Routing chain exceeded the bound: account and drop.
            self.counters.seed_errors.add(messages.len() as u64);
        }
    }

    fn apply_command(&mut self, cmd: HarvesterCommand) -> Vec<OutboundMessage> {
        match cmd {
            HarvesterCommand::SendToMachine { machine, value } => {
                self.counters.control_messages.inc();
                self.counters
                    .control_bytes
                    .add(farm_soil::soil::value_bytes(&value));
                self.send_to_machine(&machine, None, None, &value)
            }
        }
    }

    /// Delivers `value` to the seeds of `machine` on switch `at`, or on
    /// every switch when `None` — except, for a message a seed sent
    /// (`sender`: its machine and switch), the one it came from. Returns
    /// what the receiving handlers sent in turn.
    fn send_to_machine(
        &mut self,
        machine: &str,
        at: Option<SwitchId>,
        sender: Option<(&str, SwitchId)>,
        value: &Value,
    ) -> Vec<OutboundMessage> {
        let targets: Vec<SwitchId> = match at {
            Some(sw) => vec![sw],
            None => self.network.switch_ids(),
        };
        let from_machine = sender.map(|(machine, _)| machine);
        let mut out = Vec::new();
        for swid in targets {
            if at.is_none() && sender.is_some_and(|(_, from)| from == swid) {
                continue;
            }
            if let Some((soil, switch)) = soil_on(&mut self.rows, &mut self.network, swid) {
                let report =
                    soil.deliver_to_machine(machine, from_machine, value, self.now, switch);
                out.extend(take_report(&self.counters, report));
            }
        }
        out
    }
}

/// Takes what one soil call produced: its handler errors are counted
/// here, its messages are the caller's to route.
fn take_report(counters: &FarmCounters, report: TickReport) -> Vec<OutboundMessage> {
    counters.seed_errors.add(report.errors.len() as u64);
    report.messages
}

/// A fresh soil for a switch, at boot and after a restart.
fn new_soil(id: SwitchId, config: SoilConfig, telemetry: &Telemetry) -> Soil {
    let mut soil = Soil::new(id, config);
    soil.set_telemetry(telemetry.clone());
    soil
}

/// The soil on a switch together with the switch — the pair every soil
/// call takes. `None` for an unknown switch or a row without a soil
/// (crashed and not restarted).
fn soil_on<'a>(
    rows: &'a mut [SwitchRow],
    network: &'a mut Network,
    id: SwitchId,
) -> Option<(&'a mut Soil, &'a mut Switch)> {
    let soil = rows[network.slot_of(id)?].soil.as_mut()?;
    Some((soil, network.switch_mut(id)?))
}

/// The join from a seed-table record to the running seed: the soil in
/// the record's switch row, asked for the record's soil-local id.
/// `None` for a seed that is placed but not live — its soil died with
/// the switch.
fn live<'a>(rows: &'a [SwitchRow], network: &Network, placed: Placed) -> Option<&'a SeedInstance> {
    let soil = rows[network.slot_of(placed.switch)?].soil.as_ref()?;
    soil.seed(placed.id).filter(|_| !placed.lost)
}

/// Writes `seed`'s state over a row's snapshot taken at stamp
/// `taken_at`, unless the seed has not changed since.
fn capture(seed: &SeedInstance, taken_at: &mut u64, snap: &mut SeedSnapshot) {
    if *taken_at != seed.stamp() {
        seed.snapshot_into(snap);
        *taken_at = seed.stamp();
    }
}

/// [`live`] for callers that act on the seed: the soil hosting it, and
/// the switch.
fn host_mut<'a>(
    rows: &'a mut [SwitchRow],
    network: &'a mut Network,
    placed: Placed,
) -> Option<(&'a mut Soil, &'a mut Switch)> {
    soil_on(rows, network, placed.switch).filter(|_| !placed.lost)
}

/// Synthesizes a sampled packet from a flow-level traffic event. TCP
/// flows with small average packets are treated as connection attempts
/// (SYN) — the granularity the probe-based Tab. I tasks need.
fn sample_packet(e: &TrafficEvent) -> PacketRecord {
    let avg = e.bytes.checked_div(e.packets).unwrap_or(e.bytes);
    let syn = e.flow.proto == Proto::Tcp && avg <= 128;
    PacketRecord {
        flow: e.flow,
        len: avg.min(u32::MAX as u64) as u32,
        syn,
        fin: false,
        ack: false,
    }
}

/// Utility value helpers for external assignments.
pub fn external(pairs: &[(&str, Value)]) -> ConstEnv {
    farm_almanac::compile::externals(pairs)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::harvester::CollectingHarvester;
    use farm_netsim::switch::SwitchModel;
    use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig};
    use farm_netsim::types::{FlowKey, Ipv4, PortId};
    use farm_telemetry::RingBufferSink;

    /// The two-spine, three-leaf fabric the unit tests run on.
    pub(crate) fn fabric() -> Topology {
        Topology::spine_leaf(
            2,
            3,
            SwitchModel::accton_as7712(),
            SwitchModel::accton_as5712(),
        )
    }

    #[test]
    fn deploys_hh_task_on_every_switch() {
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        let plan = farm
            .deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
            .unwrap();
        assert_eq!(plan.actions.len(), 5);
        assert_eq!(farm.deployed_seeds(), 5);
        for id in farm.network().switch_ids() {
            assert_eq!(farm.soil(id).unwrap().num_seeds(), 1);
        }
    }

    #[test]
    fn end_to_end_hh_detection() {
        let mut farm = Farm::builder(fabric())
            .with_harvester("hh", Box::new(CollectingHarvester::new()))
            .build();
        farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
            .unwrap();
        let leaf = farm.network().topology().leaves().next().unwrap();
        let mut hh = HeavyHitterWorkload::new(HhConfig {
            switch: leaf,
            n_ports: 16,
            hh_ratio: 0.1,
            ..Default::default()
        });
        farm.run(&mut [&mut hh], Time::from_millis(50), Dur::from_millis(1));
        let h: &CollectingHarvester = farm.harvester("hh").unwrap();
        assert!(!h.received.is_empty(), "harvester must receive HH reports");
        // Detection comes from the leaf carrying the traffic.
        assert!(h.received.iter().any(|m| m.from_switch == leaf));
        let snap = farm.telemetry().snapshot();
        assert!(snap.counter("farm.collector_bytes") > 0);
        let detection = snap.histogram("detection.latency_us").unwrap();
        assert_eq!(detection.count, snap.counter("farm.collector_messages"));
    }

    #[test]
    fn removing_a_task_cleans_up() {
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
            .unwrap();
        assert_eq!(farm.deployed_seeds(), 5);
        farm.remove_task("hh").unwrap();
        assert_eq!(farm.deployed_seeds(), 0);
        for id in farm.network().switch_ids() {
            assert_eq!(farm.soil(id).unwrap().num_seeds(), 0);
        }
    }

    #[test]
    fn removing_a_task_leaves_the_other_tasks_seeds_alone() {
        // Ten switches. A movable seed lands first, so per-soil `SeedId`s
        // differ from switch to switch: id 1 is task `a`'s seed on the
        // rover's switch and task `b`'s seed everywhere else.
        let topology = Topology::spine_leaf(
            2,
            8,
            SwitchModel::accton_as7712(),
            SwitchModel::accton_as5712(),
        );
        let mut farm = Farm::new(topology, FarmConfig::default());
        farm.deploy_task("rover", ROVER, &BTreeMap::new()).unwrap();
        farm.deploy_task("a", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
            .unwrap();
        farm.deploy_task(
            "b",
            farm_almanac::programs::TRAFFIC_CHANGE,
            &BTreeMap::new(),
        )
        .unwrap();
        assert_eq!(farm.deployed_seeds(), 21);

        farm.remove_task("a").unwrap();

        assert_eq!(farm.deployed_seeds(), 11);
        let statuses = farm.seed_statuses();
        let live_b = statuses
            .iter()
            .filter(|s| s.key.task == "b" && s.machine == "TrafficChange")
            .count();
        assert_eq!(live_b, 10, "every seed of `b` is still live: {statuses:?}");
        let rover_home = statuses.iter().find(|s| s.key.task == "rover").unwrap();
        assert_eq!(rover_home.machine, "M");
        for id in farm.network().switch_ids() {
            let expected = if id == rover_home.switch { 2 } else { 1 };
            assert_eq!(farm.soil(id).unwrap().num_seeds(), expected, "{id:?}");
        }
        // Bookkeeping and soils still agree, so a drain finds its seeds.
        let home = rover_home.switch;
        let (_, evacuated) = farm.drain(home).unwrap();
        assert!(evacuated >= 1);
    }

    #[test]
    fn a_plan_carries_the_samples_the_registry_took() {
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        let mut splices = 0;
        let mut rounds = 0;
        for name in ["a", "b", "c"] {
            let plan = farm
                .deploy_task(
                    name,
                    "machine M { place any; state s { } }",
                    &BTreeMap::new(),
                )
                .unwrap();
            splices += plan.splice_us;
            rounds += plan.round_us;
            assert!(plan.round_us >= plan.result.runtime.as_micros() as u64);
        }
        let snap = farm.telemetry().snapshot();
        let sum = |name: &str| snap.histogram(name).map(|h| (h.count, h.sum));
        assert_eq!(sum("seeder.splice_us"), Some((3, splices)));
        assert_eq!(sum("farm.replan_us"), Some((3, rounds)));
    }

    #[test]
    fn a_replacement_undeploys_the_seeds_of_the_task_it_replaces() {
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        farm.deploy_task(
            "t",
            "machine Fine { place all; state s { } }",
            &BTreeMap::new(),
        )
        .unwrap();
        assert_eq!(farm.deployed_seeds(), 5);
        farm.deploy_task(
            "t",
            "machine M { place any; state s { } }",
            &BTreeMap::new(),
        )
        .unwrap();
        let ids = farm.network().switch_ids();
        let hosted: usize = ids.iter().map(|&n| farm.soil(n).unwrap().num_seeds()).sum();
        assert_eq!(hosted, 1, "the replaced task's five seeds are gone");
        let statuses = farm.seed_statuses();
        assert_eq!(statuses.len(), 1, "{statuses:?}");
        assert_eq!(statuses[0].machine, "M");
    }

    #[test]
    fn a_rejected_replacement_leaves_the_running_task_alone() {
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        let src = farm_almanac::programs::HEAVY_HITTER;
        farm.deploy_task("t", src, &BTreeMap::new()).unwrap();
        let before = farm.seed_statuses();
        assert_eq!(before.len(), 5);
        // The same task with its polling interval turned upside down
        // (PCIe/10 for 10/PCIe): a demand `1/ival` that is not linear,
        // which the placement rows reject.
        let ctl = SdnController::new(farm.network().topology());
        let mut task = compile_task("t", src, &BTreeMap::new(), &ctl).unwrap();
        for trigger in &mut task.machines[0].triggers {
            trigger.ival = trigger.ival.recip();
        }
        assert!(farm.deploy(vec![task], &mut SpanLog::off()).is_err());
        assert_eq!(farm.seed_statuses(), before);
        let ids = farm.network().switch_ids();
        let hosted: usize = ids.iter().map(|&n| farm.soil(n).unwrap().num_seeds()).sum();
        assert_eq!(hosted, 5, "the running task keeps its seeds");
        assert_eq!(farm.seeder().task_names(), ["t"]);
    }

    #[test]
    fn removing_a_task_leaves_tasks_with_adjacent_names_alone() {
        // `w1` < `w1-x` < `w10` in key order: the removal's range over
        // `w1`'s keys must stop at its own.
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        for name in ["w1", "w10", "w1-x"] {
            farm.deploy_task(name, farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
                .unwrap();
        }
        assert_eq!(farm.deployed_seeds(), 15);
        farm.remove_task("w1").unwrap();
        let statuses = farm.seed_statuses();
        let tasks: Vec<&str> = statuses.iter().map(|s| s.key.task.as_str()).collect();
        assert_eq!(tasks, [["w1-x"; 5], ["w10"; 5]].concat());
        assert!(statuses.iter().all(|s| s.machine == "HH"), "{statuses:?}");
        for id in farm.network().switch_ids() {
            assert_eq!(farm.soil(id).unwrap().num_seeds(), 2, "{id:?}");
        }
        assert_eq!(farm.seeder().task_names(), ["w1-x", "w10"]);
    }

    #[test]
    fn two_tasks_coexist() {
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
            .unwrap();
        farm.deploy_task(
            "traffic-change",
            farm_almanac::programs::TRAFFIC_CHANGE,
            &BTreeMap::new(),
        )
        .unwrap();
        assert_eq!(farm.deployed_seeds(), 10);
        // Both tasks poll `port ANY`: the soils should aggregate.
        farm.advance(Time::from_millis(2000));
        let saved: u64 = farm
            .network()
            .switch_ids()
            .iter()
            .map(|id| farm.soil(*id).unwrap().stats().polls_saved)
            .sum();
        assert!(saved > 0, "co-located tasks must share ASIC polls");
    }

    #[test]
    fn external_assignment_reaches_seeds() {
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        let mut ext = BTreeMap::new();
        ext.insert("HH".to_string(), external(&[("threshold", Value::Int(77))]));
        farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &ext)
            .unwrap();
        let leaf = farm.network().topology().leaves().next().unwrap();
        let soil = farm.soil(leaf).unwrap();
        let seed = soil.seeds().next().unwrap();
        assert_eq!(seed.var("threshold"), Some(&Value::Int(77)));
    }

    #[test]
    fn builder_sinks_see_lifecycle_and_replan_events() {
        let events = Arc::new(RingBufferSink::new(4096));
        let mut farm = Farm::builder(fabric()).with_sink(events.clone()).build();
        farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
            .unwrap();
        let seen = events.events();
        assert_eq!(
            seen.iter()
                .filter(|e| matches!(e, Event::SeedDeployed { .. }))
                .count(),
            5
        );
        assert!(seen.iter().any(|e| matches!(
            e,
            Event::ReplanCompleted {
                outcome: ReplanOutcome::Full,
                ..
            }
        )));
    }

    /// One movable seed: `place any` gives the planner every switch as a
    /// candidate, so a cordon can actually evacuate it.
    const ROVER: &str = "machine M { place any; state s { } }";

    #[test]
    fn drain_evacuates_movable_seeds() {
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        farm.deploy_task("rover", ROVER, &BTreeMap::new()).unwrap();
        assert_eq!(farm.deployed_seeds(), 1);
        let home = farm.seed_statuses()[0].switch;
        let (_, evacuated) = farm.drain(home).unwrap();
        assert_eq!(evacuated, 1, "the seed must migrate off the cordon");
        let status = &farm.seed_statuses()[0];
        assert_ne!(status.switch, home);
        assert_eq!(status.state, "s");
        assert_eq!(farm.cordoned_switches(), vec![home]);
        farm.uncordon(home).unwrap();
        assert!(farm.cordoned_switches().is_empty());
        let snap = farm.telemetry().snapshot();
        // Deploy + drain + uncordon = three timed replan rounds.
        assert!(snap.histogram("farm.replan_us").unwrap().count >= 3);
    }

    /// Places (flat utility, nothing asks for PCIe) but cannot be
    /// planted: its poll interval is infinite at zero PCIe.
    const UNPLANTABLE: &str = "machine Stuck { place any;
        poll p = Poll { .ival = 10/res().PCIe, .what = port ANY };
        state s { util (res) { return 1; } when (p as stats) do { } } }";

    #[test]
    fn a_failed_drain_rolls_back_only_the_cordon_it_set() {
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        let ids = farm.network().switch_ids();
        // A switch the fabric lacks is refused before a cordon or a
        // replan (which would count in `farm.replans`).
        let unknown = |id| Error::UnknownSwitch(SwitchId(id));
        assert_eq!(farm.drain(SwitchId(999)).unwrap_err(), unknown(999));
        assert_eq!(farm.uncordon(SwitchId(12345)).unwrap_err(), unknown(12345));
        assert!(farm.cordoned_switches().is_empty());
        assert_eq!(farm.telemetry().snapshot().counter("farm.replans"), 0);
        farm.drain(ids[2]).unwrap();
        // Pinned to a cordoned switch, the unplantable seed holds its
        // seat and the deploy succeeds. Once the cordon lifts, every
        // replan fails at its deploy.
        farm.drain(ids[3]).unwrap();
        let pinned = UNPLANTABLE.replace("place any", &format!("place all {}", ids[3].0));
        farm.deploy_task("stuck", &pinned, &BTreeMap::new())
            .unwrap();
        farm.uncordon(ids[3]).unwrap_err();
        // The operator's earlier cordon survives a second, failing drain
        // of the same switch; the cordon a failing drain set does not.
        farm.drain(ids[2]).unwrap_err();
        farm.drain(ids[4]).unwrap_err();
        assert_eq!(farm.cordoned_switches(), vec![ids[2]]);
    }

    #[test]
    fn a_failed_deploy_withdraws_its_task_and_what_it_planted() {
        // One machine plants on every switch, the other on none: the
        // plan deploys the first five seeds, then fails.
        let half = format!("machine Fine {{ place all; state s {{ }} }}\n{UNPLANTABLE}");
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        farm.deploy_task("half", &half, &BTreeMap::new())
            .unwrap_err();
        assert!(farm.seeder().task_names().is_empty());
        assert_eq!(farm.deployed_seeds(), 0);
        let ids = farm.network().switch_ids();
        let hosted: usize = ids.iter().map(|&n| farm.soil(n).unwrap().num_seeds()).sum();
        assert_eq!(hosted, 0, "the planted half is undeployed again");
        // The name is free again, and the batch path rolls back alike.
        farm.deploy_tasks(&[
            (
                "ok",
                "machine M { place any; state s { } }",
                BTreeMap::new(),
            ),
            ("half", &half, BTreeMap::new()),
        ])
        .unwrap_err();
        assert!(farm.seeder().task_names().is_empty());
        farm.deploy_task(
            "half",
            "machine M { place any; state s { } }",
            &BTreeMap::new(),
        )
        .unwrap();
        assert_eq!(farm.seeder().task_names(), vec!["half".to_string()]);
        assert_eq!(farm.deployed_seeds(), 1);
    }

    #[test]
    fn a_failed_replacement_withdraws_the_task_it_replaced_and_keeps_its_harvester() {
        let half = format!("machine Fine {{ place all; state s {{ }} }}\n{UNPLANTABLE}");
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        farm.deploy_task(
            "half",
            "machine M { place any; state s { } }",
            &BTreeMap::new(),
        )
        .unwrap();
        farm.set_harvester("half", Box::new(CollectingHarvester::new()));
        assert_eq!(farm.deployed_seeds(), 1);
        // The replacement plants its first machine, then fails: the
        // rollback withdraws the name, so the replaced definition and
        // its running seed go too. The caller's harvester stays.
        farm.deploy_task("half", &half, &BTreeMap::new())
            .unwrap_err();
        assert!(farm.seeder().task_names().is_empty());
        assert_eq!(farm.deployed_seeds(), 0);
        let ids = farm.network().switch_ids();
        let hosted: usize = ids.iter().map(|&n| farm.soil(n).unwrap().num_seeds()).sum();
        assert_eq!(hosted, 0);
        assert!(farm.harvester::<CollectingHarvester>("half").is_some());
    }

    #[test]
    fn an_imported_seeds_enter_errors_count_in_both_registries() {
        // `enter` fails whenever it runs (an endless transition chain):
        // at the deploy, and again when the drain imports the seed on
        // its new switch.
        const FLIP: &str = "machine Flip { place any;
            state a { when (enter) do { transit b; } }
            state b { when (enter) do { transit a; } } }";
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        farm.deploy_task("flip", FLIP, &BTreeMap::new()).unwrap();
        let home = farm.seed_statuses()[0].switch;
        let (_, evacuated) = farm.drain(home).unwrap();
        assert_eq!(evacuated, 1);
        let snap = farm.telemetry().snapshot();
        assert_eq!(snap.counter("soil.seed_errors"), 2);
        assert_eq!(snap.counter("farm.seed_errors"), 2);
    }

    #[test]
    fn checkpoint_and_restore_cover_live_seeds() {
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
            .unwrap();
        assert_eq!(farm.checkpoint_seeds(), 5);
        // Nothing ran since: no seed is captured again, every one counts.
        assert_eq!(farm.checkpoint_seeds(), 5);
        assert_eq!(farm.restore_seeds(), 5);
        let vars = farm
            .seed_vars(&farm.seed_statuses()[0].key)
            .expect("live seed has vars");
        assert!(vars.iter().any(|(n, _)| n == "threshold"));
    }

    #[test]
    fn replan_emits_a_summary_event() {
        let events = Arc::new(RingBufferSink::new(4096));
        let mut farm = Farm::builder(fabric()).with_sink(events.clone()).build();
        farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
            .unwrap();
        let seen = events.events();
        assert!(seen.iter().any(|e| matches!(
            e,
            Event::ReplanSummary {
                deploys: 5,
                migrations: 0,
                undeploys: 0,
                ..
            }
        )));
    }

    /// One never-rate-limited probe per switch that reports the source
    /// port of every UDP packet it is offered.
    const TAP: &str = r#"
machine Tap {
  place all;
  probe tap = Probe { .ival = 0.0000001, .what = proto "udp" };
  state s {
    when (tap as pkt) do { send pkt_src_port(pkt) to harvester; }
  }
}
"#;

    #[test]
    fn interleaved_batch_is_offered_switch_by_switch_in_batch_order() {
        let mut farm = Farm::builder(fabric())
            .with_harvester("tap", Box::new(CollectingHarvester::new()))
            .build();
        farm.deploy_task("tap", TAP, &BTreeMap::new()).unwrap();
        let ids = farm.network().switch_ids();
        let (s0, l0, l1, l2) = (ids[0], ids[2], ids[3], ids[4]);
        // Crashed through the fault plan, which takes its soil with it.
        farm.set_fault_plan(
            FaultPlan::new().with(Time::ZERO, FaultKind::SwitchCrash { switch: l1 }),
        );
        farm.advance(Time::ZERO);
        assert!(farm.soil(l1).is_none());
        let ev = |switch: SwitchId, tag: u16, proto: Proto| TrafficEvent {
            switch,
            rx_port: None,
            tx_port: Some(PortId(0)),
            flow: FlowKey {
                src: Ipv4::new(10, 0, 0, 1),
                dst: Ipv4::new(10, 0, 0, 2),
                proto,
                src_port: tag,
                dst_port: 9,
            },
            bytes: 800,
            packets: 1,
        };
        farm.apply_traffic(&[
            ev(l2, 1, Proto::Udp),
            ev(l0, 2, Proto::Udp),
            ev(l1, 3, Proto::Udp),
            ev(s0, 4, Proto::Udp),
            ev(l0, 5, Proto::Udp),
            ev(l2, 6, Proto::Tcp),
            ev(l1, 7, Proto::Udp),
            ev(l0, 8, Proto::Udp),
            ev(s0, 9, Proto::Udp),
        ]);
        // Switches ascending, batch order within a switch, the crashed
        // switch skipped, the TCP packet unmatched.
        let h: &CollectingHarvester = farm.harvester("tap").unwrap();
        let got: Vec<(SwitchId, Value)> = h
            .received
            .iter()
            .map(|m| (m.from_switch, m.value.clone()))
            .collect();
        let want: Vec<(SwitchId, Value)> = [(s0, 4), (s0, 9), (l0, 2), (l0, 5), (l0, 8), (l2, 1)]
            .into_iter()
            .map(|(sw, tag)| (sw, Value::Int(tag)))
            .collect();
        assert_eq!(got, want);
        // Deliveries per soil: the `enter` event plus the matched packets.
        let deliveries = |id| farm.soil(id).unwrap().stats().deliveries;
        assert_eq!(deliveries(s0), 3);
        assert_eq!(deliveries(ids[1]), 1);
        assert_eq!(deliveries(l0), 4);
        assert_eq!(deliveries(l2), 2);
        assert_eq!(farm.soil_stats().messages_out, 6);
        let tx = |id| {
            let switch = farm.network().switch(id).unwrap();
            switch.port_counters(PortId(0)).tx_bytes
        };
        assert_eq!((tx(s0), tx(l0), tx(l1), tx(l2)), (1600, 2400, 0, 1600));
        // The scratch is empty again: a second, smaller batch sees none
        // of the first one's packets.
        farm.apply_traffic(&[ev(l2, 10, Proto::Udp)]);
        let h: &CollectingHarvester = farm.harvester("tap").unwrap();
        assert_eq!(h.received.len(), 7);
        assert_eq!(h.received[6].value, Value::Int(10));
    }

    #[test]
    fn heartbeat_checkpoints_orphans_and_fences_per_switch() {
        // Crash one leaf for good (fenced after three misses) and bounce
        // another inside one heartbeat interval (its soil comes back
        // empty: the seed is orphaned without the switch ever being
        // fenced). Every other seed is checkpointed each round.
        let ids: Vec<SwitchId> = fabric().switches().iter().map(|n| n.id).collect();
        let (dead, bounced) = (ids[2], ids[4]);
        let plan = FaultPlan::new()
            .with(
                Time::from_millis(1),
                FaultKind::SwitchCrash { switch: dead },
            )
            .crash_and_restart(bounced, Time::from_millis(2), Dur::from_millis(1));
        let events = Arc::new(RingBufferSink::new(4096));
        let mut farm = Farm::builder(fabric())
            .with_fault_plan(plan)
            .with_sink(events.clone())
            .build();
        farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
            .unwrap();
        farm.advance(Time::from_millis(10));
        let orphaned: Vec<u32> = events
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SeedOrphaned { switch, .. } => Some(*switch),
                _ => None,
            })
            .collect();
        assert_eq!(orphaned, vec![bounced.0], "first round: the cold soil");
        assert_eq!(farm.export_checkpoints().len(), 3, "one per surviving seed");
        farm.advance(Time::from_millis(35));
        assert_eq!(farm.fenced_switches(), vec![dead]);
        let orphaned = events
            .events()
            .iter()
            .filter(|e| matches!(e, Event::SeedOrphaned { switch, .. } if *switch == dead.0))
            .count();
        assert_eq!(orphaned, 1);
    }

    #[test]
    fn sample_packet_flags_syns() {
        let e = TrafficEvent {
            switch: SwitchId(0),
            rx_port: None,
            tx_port: None,
            flow: FlowKey::tcp(Ipv4::new(1, 1, 1, 1), 9, Ipv4::new(2, 2, 2, 2), 22),
            bytes: 64,
            packets: 1,
        };
        assert!(sample_packet(&e).syn);
        let big = TrafficEvent {
            bytes: 1500 * 10,
            packets: 10,
            ..e
        };
        assert!(!sample_packet(&big).syn);
    }
}
