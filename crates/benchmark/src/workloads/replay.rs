//! `replay_*`: a hostile-traffic scenario replayed through an in-process
//! [`Farm`] (`deploy_tasks`, then `apply_traffic`/`advance` per tick,
//! then the harvesters), scored against the scenario's ground truth.
//!
//! Work unit: one virtual millisecond replayed. `op` is one
//! `Farm::advance` call (a tick's polls, handlers and routing), `op2`
//! one whole tick (`apply_traffic`, the tick's traffic events and probe
//! matching, then `advance`). The score is the mean recall over the
//! scenario's tasks.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use farm_almanac::analysis::PollSubject;
use farm_almanac::ast::TriggerType;
use farm_almanac::compile::{compile_task, CompiledMachine, CompiledTask};
use farm_almanac::value::{PacketRecord, StatEntry, StatSubject, Value};
use farm_core::{CollectingHarvester, Farm, FarmBuilder, SeedStatus};
use farm_netsim::controller::SdnController;
use farm_netsim::network::{Network, TrafficEvent};
use farm_netsim::switch::{Resources, SwitchModel};
use farm_netsim::time::{Dur, Time};
use farm_netsim::topology::Topology;
use farm_netsim::traffic::Workload;
use farm_netsim::types::{PortSel, Proto, SwitchId};
use farm_scenario::score::{score, Alarm, TaskScore};
use farm_scenario::{Scenario, ScenarioClass, ScenarioEnv, ScenarioScale, ScenarioSpec};
use farm_soil::interp::{stats_payload, FixedHost};
use farm_soil::{SeedEvent, SeedId, SeedInstance, Soil, SoilConfig, SoilStats};

use super::{derive_seed, measure_with_overhead, micros, Measured, RunCfg};
use crate::alloc;
use crate::pace::{Mix, Pacer};
use crate::spec::MACHINES;
use crate::stats::{median, percentile};
use crate::trace::{span, Tracer};

/// Virtual milliseconds of Full `flash_crowd` per nominal second
/// (60 s of it took about 16 s when the benchmark was defined).
const FLASH_VIRTUAL_MS_PER_S: f64 = 3_600.0;
/// Virtual microseconds of Smoke `microburst` per nominal second
/// (0.4 s of it took 24 to 29 s).
const MICROBURST_VIRTUAL_US_PER_S: f64 = 15_000.0;
/// Whole Full `multi_vector` replays per nominal second.
const MULTI_VECTOR_REPLAYS_PER_S: f64 = 3.2;

/// Per-task floors a replay's detection must meet.
const MIN_RECALL: f64 = 0.9;
const MIN_PRECISION: f64 = 0.8;

struct Plan {
    class: ScenarioClass,
    scale: ScenarioScale,
    /// Virtual length of one replay; `None` replays the whole scenario.
    horizon: Option<Dur>,
    replays: usize,
    /// How this workload's time moves with the machine's mood (see
    /// `pace`).
    mix: Mix,
}

fn plan(name: &str, cfg: &RunCfg) -> Plan {
    match name {
        "replay_flash_crowd" => Plan {
            class: ScenarioClass::FlashCrowd,
            scale: ScenarioScale::Full,
            horizon: Some(Dur::from_millis(
                cfg.count(FLASH_VIRTUAL_MS_PER_S, 3_000, 150).min(60_000) as u64,
            )),
            replays: 1,
            mix: Mix {
                heap: 0.5,
                sync: 0.5,
            },
        },
        "replay_microburst" => Plan {
            class: ScenarioClass::Microburst,
            scale: ScenarioScale::Smoke,
            horizon: Some(Dur::from_micros(
                cfg.count(MICROBURST_VIRTUAL_US_PER_S, 60_000, 600)
                    .min(400_000) as u64,
            )),
            replays: 1,
            mix: Mix {
                heap: 0.0,
                sync: 1.0,
            },
        },
        _ => Plan {
            class: ScenarioClass::MultiVector,
            scale: ScenarioScale::Full,
            horizon: cfg.smoke.then(|| Dur::from_millis(150)),
            replays: cfg.count(MULTI_VECTOR_REPLAYS_PER_S, 1, 1),
            mix: Mix {
                heap: 0.5,
                sync: 0.5,
            },
        },
    }
}

/// The fabric every scenario replays on (the one `detection_scale`
/// uses): 2 spines, 4 leaves, traffic on the first leaf.
fn fabric() -> Topology {
    Topology::spine_leaf(
        2,
        4,
        SwitchModel::accton_as7712(),
        SwitchModel::accton_as5712(),
    )
}

fn scenario_env(topology: &Topology) -> ScenarioEnv {
    let leaf = topology.leaves().next().expect("fabric has a leaf");
    let node = topology.node(leaf).expect("leaf is a node");
    ScenarioEnv {
        switch: leaf,
        n_ports: node.model.num_ports,
        prefix: node.prefix.expect("leaf has a prefix"),
    }
}

/// Everything set-up produces: the composed scenario and a farm with
/// the scenario's task suite placed.
struct Stage {
    scenario: Scenario,
    farm: Farm,
    deploy_us: f64,
}

fn stage(spec: &ScenarioSpec) -> Result<Stage, String> {
    let topology = fabric();
    let scenario = spec.build(&scenario_env(&topology));
    let mut builder = FarmBuilder::new(topology);
    for binding in &scenario.tasks {
        builder = builder.with_harvester(binding.def.name, Box::new(CollectingHarvester::new()));
    }
    let mut farm = builder.build();
    // One placement round for the whole suite, as `farm_bench::detection`
    // does: sequential deploys let early tasks starve later ones.
    let batch: Vec<(&str, &str, _)> = scenario
        .tasks
        .iter()
        .map(|b| (b.def.name, b.def.source, b.externals.clone()))
        .collect();
    let started = Instant::now();
    farm.deploy_tasks(&batch)
        .map_err(|e| format!("deploy suite: {e}"))?;
    let deploy_us = micros(started.elapsed());
    let placed: BTreeSet<String> = farm
        .seed_statuses()
        .into_iter()
        .map(|s| s.key.task)
        .collect();
    for binding in &scenario.tasks {
        if !placed.contains(binding.def.name) {
            return Err(format!("planner placed no seed of {}", binding.def.name));
        }
    }
    Ok(Stage {
        scenario,
        farm,
        deploy_us,
    })
}

/// Counts that must repeat exactly when a seed is replayed again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    soil: SoilStats,
    alarms: u64,
}

fn fingerprint(farm: &Farm, scenario: &Scenario) -> Fingerprint {
    let alarms = scenario
        .tasks
        .iter()
        .filter_map(|b| farm.harvester::<CollectingHarvester>(b.def.name))
        .map(|h| h.received.len() as u64)
        .sum();
    Fingerprint {
        soil: farm.soil_stats(),
        alarms,
    }
}

#[derive(Default)]
struct Pass {
    /// The window in scaled seconds (see `pace`), and on the wall clock.
    window_s: f64,
    wall_s: f64,
    gen_s: f64,
    apply_s: f64,
    advance_s: f64,
    advance_us: Vec<f64>,
    tick_us: Vec<f64>,
    events: u64,
    ticks: u64,
    virtual_ms: f64,
    allocs: u64,
    /// Fingerprint after `early_ticks` ticks and at the end.
    early: Option<Fingerprint>,
    last: Option<Fingerprint>,
}

/// Replays `stage.scenario` up to `until`, or for `stop_after` ticks.
fn replay(
    stage: &mut Stage,
    until: Time,
    early_ticks: u64,
    stop_after: Option<u64>,
    tracer: Option<&Tracer>,
    (pacer, mix): (&mut Pacer, Mix),
) -> Pass {
    let Stage { scenario, farm, .. } = stage;
    let mut pass = Pass::default();
    let mut now = Time::ZERO;
    while now < until && stop_after.is_none_or(|n| pass.ticks < n) {
        let tick = pass.ticks;
        let step = scenario.tick.min(until.since(now));
        pacer.refresh();
        let scale = pacer.scale(mix);
        let t0 = Instant::now();
        let batch = span(tracer, "scenario.gen", tick, || {
            scenario.workload.advance(now, step)
        });
        let t1 = Instant::now();
        let allocs_before = alloc::count();
        span(tracer, "core.apply_traffic", tick, || {
            farm.apply_traffic(&batch)
        });
        let t2 = Instant::now();
        now += step;
        span(tracer, "core.advance", tick, || farm.advance(now));
        let t3 = Instant::now();
        pass.allocs += alloc::count() - allocs_before;
        // The window is the farm's share of the ticks: neither the
        // pacer's kernel timings between them nor the traffic generator
        // (benchmark input, reported as `scenario.gen_s`) are part of it.
        pass.wall_s += (t3 - t1).as_secs_f64();
        pass.window_s += (t3 - t1).as_secs_f64() * scale;
        pass.gen_s += (t1 - t0).as_secs_f64() * scale;
        pass.apply_s += (t2 - t1).as_secs_f64() * scale;
        pass.advance_s += (t3 - t2).as_secs_f64() * scale;
        pass.advance_us.push(micros(t3 - t2) * scale);
        pass.tick_us.push(micros(t3 - t1) * scale);
        pass.events += batch.len() as u64;
        pass.ticks += 1;
        if pass.ticks == early_ticks {
            pass.early = Some(fingerprint(farm, scenario));
        }
    }
    pass.virtual_ms = now.as_nanos() as f64 / 1e6;
    pass.last = Some(fingerprint(farm, scenario));
    pass
}

/// Scores every task on the windows that lie wholly (grace included)
/// inside `[0, until]`. Alarms from a later, cut-off window are not
/// false alarms, so each task's alarms stop counting where its first
/// excluded window starts.
fn score_tasks(stage: &Stage, until: Time) -> Vec<(String, TaskScore)> {
    let mut out = Vec::new();
    for binding in &stage.scenario.tasks {
        let Some(h) = stage
            .farm
            .harvester::<CollectingHarvester>(binding.def.name)
        else {
            continue;
        };
        let all = stage.scenario.truth.of_kinds(&binding.kinds);
        let (inside, cut): (Vec<_>, Vec<_>) = all
            .into_iter()
            .partition(|w| w.end + binding.grace <= until);
        let stop = cut.iter().map(|w| w.start).min().unwrap_or(Time(u64::MAX));
        let alarms: Vec<Alarm> = h
            .received
            .iter()
            .filter_map(|m| {
                (binding.def.extract)(&m.value).map(|keys| Alarm {
                    at: m.arrival(),
                    keys,
                })
            })
            .filter(|a| a.at < stop)
            .collect();
        out.push((
            binding.def.name.to_string(),
            score(&inside, &alarms, binding.grace),
        ));
    }
    out
}

pub fn run(name: &str, cfg: &RunCfg, tracer: Option<&Tracer>, pacer: &mut Pacer) -> Measured {
    let plan = plan(name, cfg);
    let mut m = Measured::default();
    measure_with_overhead(tracer, &mut m, |tracer, m| {
        measure(&plan, cfg, tracer, pacer, m)
    });
    if tracer.is_some() {
        shadow(&plan, cfg, pacer, &mut m);
    }
    m
}

/// One full pass over the plan's replays, filling `m`.
fn measure(
    plan: &Plan,
    cfg: &RunCfg,
    tracer: Option<&Tracer>,
    pacer: &mut Pacer,
    m: &mut Measured,
) {
    // A single replay has a single set-up of well under a millisecond;
    // repeat it so the median means something. Back-to-back replays set
    // up once each anyway.
    let spare_setups = if plan.replays == 1 && !cfg.smoke {
        24
    } else {
        0
    };
    let mut recalls = Vec::new();
    let mut precisions = Vec::new();
    let mut ttds = Vec::new();
    let mut soil = SoilStats::default();
    let mut alarms = 0u64;
    let (mut gen_s, mut apply_s, mut advance_s, mut allocs, mut ticks) =
        (0.0, 0.0, 0.0, 0u64, 0u64);
    let mut deploy_us = Vec::new();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    for r in 0..plan.replays {
        let spec = ScenarioSpec {
            class: plan.class,
            scale: plan.scale,
            seed: derive_seed(cfg.seed, r as u64),
        };
        let mut staged = None;
        for _ in 0..=spare_setups {
            let (stage, secs) = pacer.time(plan.mix, || stage(&spec));
            staged = Some(stage);
            m.setup_s.push(secs);
        }
        let mut stage = match staged.expect("at least one set-up") {
            Ok(s) => s,
            Err(e) => {
                m.problems.push(format!("replay {r}: {e}"));
                m.attempted += 1;
                m.failed += 1;
                continue;
            }
        };
        deploy_us.push(stage.deploy_us);
        if let Some(t) = tracer {
            // Attached after set-up: only the measured window is traced.
            stage.farm.telemetry().add_sink(t.sink());
        }
        let until = plan.horizon.map_or(stage.scenario.until, |h| {
            (Time::ZERO + h).min(stage.scenario.until)
        });
        let total_ticks = until.as_nanos().div_ceil(stage.scenario.tick.as_nanos());
        let early_ticks = (total_ticks / 10).max(1);
        let pass = replay(
            &mut stage,
            until,
            early_ticks,
            None,
            tracer,
            (pacer, plan.mix),
        );

        m.window_s += pass.window_s;
        m.wall_s += pass.wall_s;
        m.work_units += pass.virtual_ms;
        m.op_us.extend(&pass.advance_us);
        m.op2_us.extend(&pass.tick_us);
        // One op per tick: a tick "fails" only through seed errors,
        // which are counted below from the farm's own counter.
        m.attempted += pass.ticks;
        gen_s += pass.gen_s;
        apply_s += pass.apply_s;
        advance_s += pass.advance_s;
        allocs += pass.allocs;
        ticks += pass.ticks;
        let last = pass.last.expect("replay ran");
        soil = soil + last.soil;
        alarms += last.alarms;
        *m.exact.entry("events".into()).or_default() += pass.events as f64;

        let snap = stage.farm.telemetry().snapshot();
        // Both layers count the same errors.
        let seed_errors = snap
            .counter("farm.seed_errors")
            .max(snap.counter("soil.seed_errors"));
        m.failed += seed_errors.min(pass.ticks);
        m.check(seed_errors == 0, || {
            format!("replay {r}: {seed_errors} seed handler error(s)")
        });
        for name in [
            "pcie.requests",
            "pcie.bytes",
            "pcie.saturation_events",
            "switch.port_polls",
            "farm.heartbeats",
            "farm.collector_messages",
            "soil.seed_errors",
        ] {
            *counters.entry(name).or_default() += snap.counter(name);
        }

        if !cfg.smoke {
            for (task, s) in score_tasks(&stage, until) {
                if s.windows > 0 {
                    recalls.push(s.recall);
                    m.check(s.recall >= MIN_RECALL, || {
                        format!(
                            "replay {r}: task {task} recall {:.2} < {MIN_RECALL}",
                            s.recall
                        )
                    });
                }
                precisions.push(s.precision);
                m.check(s.precision >= MIN_PRECISION, || {
                    format!(
                        "replay {r}: task {task} precision {:.2} < {MIN_PRECISION}",
                        s.precision
                    )
                });
                ttds.extend(s.mean_ttd_ms);
            }
            // Same seed again, on a fresh farm, for the first tenth of
            // the ticks: every soil count and the alarm count must match.
            if r == 0 {
                match self::stage(&spec) {
                    Ok(mut again) => {
                        let repeat = replay(
                            &mut again,
                            until,
                            early_ticks,
                            Some(early_ticks),
                            None,
                            (pacer, plan.mix),
                        );
                        m.check(repeat.early == pass.early && pass.early.is_some(), || {
                            format!(
                                "same-seed repeat diverged after {early_ticks} ticks: {:?} vs {:?}",
                                pass.early, repeat.early
                            )
                        });
                    }
                    Err(e) => m.problems.push(format!("repeat set-up: {e}")),
                }
            }
        }
    }
    m.result_score = if recalls.is_empty() {
        // Smoke runs skip scoring; a scored run always has windows.
        m.check(cfg.smoke, || {
            "no truth window fell inside the horizon".into()
        });
        1.0
    } else {
        recalls.iter().sum::<f64>() / recalls.len() as f64
    };
    for (k, v) in [
        ("soil.deliveries", soil.deliveries),
        ("soil.asic_polls", soil.asic_polls),
        ("soil.polls_saved", soil.polls_saved),
        ("soil.messages_out", soil.messages_out),
        ("alarms", alarms),
        ("ticks", ticks),
    ] {
        m.exact.insert(k.into(), v as f64);
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    m.exact.insert("detect_ttd_ms".into(), mean(&ttds));

    if tracer.is_some() {
        // Zero when no replay got as far as running.
        let counted = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
        m.layer("scenario.gen_s", gen_s);
        m.layer("scenario.ttd_ms", mean(&ttds));
        m.layer("scenario.recall", mean(&recalls));
        m.layer("scenario.precision", mean(&precisions));
        m.layer("core.deploy_tasks_us", median(&deploy_us));
        m.layer("core.advance_s", advance_s);
        m.layer("core.apply_traffic_s", apply_s);
        m.layer("core.allocs_per_tick", allocs as f64 / ticks.max(1) as f64);
        m.layer("core.heartbeats", counted("farm.heartbeats"));
        m.layer(
            "core.collector_messages",
            counted("farm.collector_messages"),
        );
        m.layer("soil.deliveries", soil.deliveries as f64);
        m.layer("soil.asic_polls", soil.asic_polls as f64);
        m.layer("soil.polls_saved", soil.polls_saved as f64);
        m.layer("soil.messages_out", soil.messages_out as f64);
        m.layer("soil.seed_errors", counted("soil.seed_errors"));
        let issued_and_saved = (soil.asic_polls + soil.polls_saved).max(1);
        m.layer(
            "soil.aggregation_ratio",
            soil.polls_saved as f64 / issued_and_saved as f64,
        );
        m.layer("netsim.pcie_requests", counted("pcie.requests"));
        m.layer("netsim.pcie_bytes", counted("pcie.bytes"));
        m.layer(
            "netsim.pcie_saturation_events",
            counted("pcie.saturation_events"),
        );
        m.layer("netsim.port_polls", counted("switch.port_polls"));
    }
}

// ---------------------------------------------------------------------
// Shadow layer drivers (traced runs only)
// ---------------------------------------------------------------------

/// What `Farm::apply_traffic` hands a soil for one traffic event — the
/// farm's private `sample_packet`, restated: small-packet TCP flows
/// count as connection attempts.
fn sample_packet(e: &TrafficEvent) -> PacketRecord {
    let avg = e.bytes.checked_div(e.packets).unwrap_or(e.bytes);
    PacketRecord {
        flow: e.flow,
        len: avg.min(u64::from(u32::MAX)) as u32,
        syn: e.flow.proto == Proto::Tcp && avg <= 128,
        fin: false,
        ack: false,
    }
}

/// Drives standalone layer objects — a bare `Network`, one `Soil` per
/// switch — with the workload's own batches and the farm's own
/// placement, timing each layer alone; then times `SeedInstance::handle`
/// on payloads captured from the shadow switch.
fn shadow(plan: &Plan, cfg: &RunCfg, pacer: &mut Pacer, m: &mut Measured) {
    // Scaled nanoseconds (see `pace`), like every time the run reports.
    let mut apply_ns = 0.0f64;
    let mut offer_ns = 0.0f64;
    let mut advance_ns = 0.0f64;
    let (mut events, mut packets) = (0u64, 0u64);
    let mut poll_ports_ns = Vec::new();
    let mut snapshot_us = Vec::new();
    let mut compile_us = Vec::new();
    let mut source_bytes = 0usize;
    let (mut ops, mut deliveries) = (0u64, 0u64);
    let mut bench = HandlerBench::default();

    for r in 0..plan.replays {
        let spec = ScenarioSpec {
            class: plan.class,
            scale: plan.scale,
            seed: derive_seed(cfg.seed, r as u64),
        };
        // The farm's placement decides where and with what allocation
        // each shadow seed sits.
        let Ok(stage) = stage(&spec) else { continue };
        let statuses = stage.farm.seed_statuses();
        let mut scenario = stage.scenario;
        let topology = fabric();
        let ctl = SdnController::new(&topology);
        let mut defs: BTreeMap<(String, usize), Arc<CompiledMachine>> = BTreeMap::new();
        for b in &scenario.tasks {
            let mut task: Option<CompiledTask> = None;
            for _ in 0..5 {
                let started = Instant::now();
                task = compile_task(b.def.name, b.def.source, &b.externals, &ctl).ok();
                compile_us.push(micros(started.elapsed()));
            }
            if r == 0 {
                source_bytes += b.def.source.len();
            }
            for (i, cm) in task.into_iter().flat_map(|t| t.machines).enumerate() {
                defs.insert((b.def.name.to_string(), i), Arc::new(cm));
            }
        }
        let mut net = Network::new(topology.clone());
        let mut soils: BTreeMap<SwitchId, Soil> = net
            .switch_ids()
            .into_iter()
            .map(|id| (id, Soil::new(id, SoilConfig::default())))
            .collect();
        for SeedStatus {
            key, switch, alloc, ..
        } in &statuses
        {
            let (Some(def), Some(soil), Some(sw)) = (
                defs.get(&(key.task.clone(), key.machine)),
                soils.get_mut(switch),
                net.switch_mut(*switch),
            ) else {
                continue;
            };
            let _ = soil.deploy(Arc::clone(def), &key.task, *alloc, Time::ZERO, sw);
        }

        let until = plan
            .horizon
            .map_or(scenario.until, |h| (Time::ZERO + h).min(scenario.until));
        let total_ticks = until.as_nanos().div_ceil(scenario.tick.as_nanos());
        let capture_every = (total_ticks / 48).max(1);
        let leaf = scenario_env(&topology).switch;
        let mut last_counters: BTreeMap<u16, [u64; 4]> = BTreeMap::new();
        let mut now = Time::ZERO;
        let mut tick = 0u64;
        while now < until {
            let step = scenario.tick.min(until.since(now));
            let batch = scenario.workload.advance(now, step);
            events += batch.len() as u64;
            pacer.refresh();
            let scale = pacer.scale(plan.mix);
            let started = Instant::now();
            net.apply_traffic(&batch);
            apply_ns += started.elapsed().as_nanos() as f64 * scale;

            let mut per_switch: BTreeMap<SwitchId, Vec<PacketRecord>> = BTreeMap::new();
            for e in &batch {
                per_switch
                    .entry(e.switch)
                    .or_default()
                    .push(sample_packet(e));
            }
            for (id, pkts) in &per_switch {
                if let (Some(soil), Some(sw)) = (soils.get_mut(id), net.switch_mut(*id)) {
                    packets += pkts.len() as u64;
                    let started = Instant::now();
                    std::hint::black_box(soil.offer_packets(pkts, now, sw));
                    offer_ns += started.elapsed().as_nanos() as f64 * scale;
                }
            }
            now += step;
            for (id, soil) in soils.iter_mut() {
                if let Some(sw) = net.switch_mut(*id) {
                    let started = Instant::now();
                    std::hint::black_box(soil.advance(now, sw));
                    advance_ns += started.elapsed().as_nanos() as f64 * scale;
                }
            }
            if tick.is_multiple_of(capture_every) && r == 0 {
                if let Some(sw) = net.switch_mut(leaf) {
                    let started = Instant::now();
                    let (stats, _) = sw.poll_ports(PortSel::Any);
                    poll_ports_ns.push(started.elapsed().as_nanos() as f64);
                    let deltas = stats
                        .iter()
                        .map(|ps| {
                            let c = &ps.counters;
                            let cur = [c.tx_bytes, c.rx_bytes, c.tx_packets, c.rx_packets];
                            let prev = last_counters.insert(ps.port.0, cur).unwrap_or([0; 4]);
                            StatEntry {
                                subject: StatSubject::Port(ps.port.0),
                                tx_bytes: cur[0].saturating_sub(prev[0]),
                                rx_bytes: cur[1].saturating_sub(prev[1]),
                                tx_packets: cur[2].saturating_sub(prev[2]),
                                rx_packets: cur[3].saturating_sub(prev[3]),
                            }
                        })
                        .collect();
                    bench.port_payloads.push(deltas);
                    bench
                        .packets
                        .extend(batch.iter().take(4).map(sample_packet));
                }
            }
            tick += 1;
        }
        for soil in soils.values() {
            deliveries += soil.stats().deliveries;
            for seed in soil.seeds() {
                ops += seed.stats().ops;
                let started = Instant::now();
                std::hint::black_box(seed.snapshot());
                snapshot_us.push(micros(started.elapsed()));
            }
        }
        if r == 0 {
            for def in defs.values() {
                let alloc = statuses
                    .iter()
                    .find(|s| s.machine == def.machine.name)
                    .map(|s| s.alloc);
                if let Some(alloc) = alloc {
                    let handles = if cfg.smoke {
                        SMOKE_HANDLES_PER_MACHINE
                    } else {
                        HANDLES_PER_MACHINE
                    };
                    bench.run(def, alloc, handles);
                }
            }
        }
    }

    m.layer("almanac.compile_us_p50", median(&compile_us));
    m.layer("almanac.source_bytes", source_bytes as f64);
    m.layer("soil.advance_s", advance_ns / 1e9);
    m.layer("soil.offer_ns_per_packet", offer_ns / packets.max(1) as f64);
    m.layer("netsim.apply_ns_per_event", apply_ns / events.max(1) as f64);
    m.layer("netsim.poll_ports_ns_p50", median(&poll_ports_ns));
    m.layer("soil.snapshot_us_p50", median(&snapshot_us));
    m.layer(
        "soil.interp.ops_per_delivery",
        ops as f64 / deliveries.max(1) as f64,
    );
    let core_advance = m.layers.get("core.advance_s").copied().unwrap_or(0.0);
    m.layer("core.overhead_s", core_advance - advance_ns / 1e9);
    for (machine, ns) in &bench.handle_ns {
        if MACHINES.contains(&machine.as_str()) {
            m.layer(
                &format!("soil.interp.handle_ns_p50.{machine}"),
                percentile(ns, 0.5),
            );
        }
    }
    m.layer(
        "soil.interp.ns_per_op",
        bench.wall_ns as f64 / bench.ops.max(1) as f64,
    );
    m.layer(
        "soil.interp.allocs_per_handle",
        bench.allocs as f64 / bench.handles.max(1) as f64,
    );
}

/// Handles per machine in the handler microbenchmark (and in a smoke
/// run, which only has to show that it works).
const HANDLES_PER_MACHINE: usize = 2_000;
const SMOKE_HANDLES_PER_MACHINE: usize = 20;

/// `SeedInstance::handle` timed alone, under a `FixedHost`, on payloads
/// captured from the shadow switch.
#[derive(Default)]
struct HandlerBench {
    port_payloads: Vec<Vec<StatEntry>>,
    packets: Vec<PacketRecord>,
    handle_ns: BTreeMap<String, Vec<f64>>,
    wall_ns: u128,
    ops: u64,
    handles: u64,
    allocs: u64,
}

impl HandlerBench {
    /// The events a machine's triggers can receive, built from what was
    /// captured: port polls get captured port deltas, rule polls one
    /// entry carrying the interval's total volume, probes a captured
    /// packet the trigger's filter accepts, timers a tick count.
    fn events_for(&self, def: &CompiledMachine) -> Vec<SeedEvent> {
        let mut events = Vec::new();
        for trig in &def.triggers {
            match trig.kind {
                TriggerType::Poll => {
                    for deltas in &self.port_payloads {
                        let mut entries = Vec::new();
                        for subject in &trig.subjects {
                            match subject {
                                PollSubject::AllPorts => entries.extend(deltas.iter().cloned()),
                                PollSubject::Port(p) => entries.extend(
                                    deltas
                                        .iter()
                                        .filter(|e| e.subject == StatSubject::Port(*p))
                                        .cloned(),
                                ),
                                PollSubject::Rule(key) => entries.push(StatEntry {
                                    subject: StatSubject::Rule(key.clone()),
                                    tx_bytes: deltas.iter().map(|e| e.tx_bytes).sum(),
                                    rx_bytes: 0,
                                    tx_packets: deltas.iter().map(|e| e.tx_packets).sum(),
                                    rx_packets: 0,
                                }),
                            }
                        }
                        events.push(SeedEvent::Trigger {
                            name: trig.name.clone(),
                            payload: stats_payload(entries),
                        });
                    }
                }
                TriggerType::Probe => {
                    events.extend(
                        self.packets
                            .iter()
                            .filter(|p| trig.what.as_ref().is_none_or(|f| f.matches_flow(&p.flow)))
                            .take(self.port_payloads.len().max(1))
                            .map(|p| SeedEvent::Trigger {
                                name: trig.name.clone(),
                                payload: Value::Packet(*p),
                            }),
                    );
                }
                TriggerType::Time => events.push(SeedEvent::Trigger {
                    name: trig.name.clone(),
                    payload: Value::Int(1),
                }),
            }
        }
        events
    }

    fn run(&mut self, def: &Arc<CompiledMachine>, alloc: Resources, handles: usize) {
        let events = self.events_for(def);
        if events.is_empty() {
            return;
        }
        let host = FixedHost {
            resources: alloc,
            now_ms: 1_000,
            rules: Vec::new(),
        };
        let mut seed = SeedInstance::new(SeedId(0), Arc::clone(def), alloc);
        let _ = seed.handle(&SeedEvent::Enter, &host);
        let samples = self.handle_ns.entry(def.machine.name.clone()).or_default();
        for event in events.iter().cycle().take(handles) {
            let allocs_before = alloc::count();
            let started = Instant::now();
            let outcome = seed.handle(event, &host);
            let ns = started.elapsed().as_nanos();
            self.allocs += alloc::count() - allocs_before;
            samples.push(ns as f64);
            self.wall_ns += ns;
            self.handles += 1;
            self.ops += outcome.map_or(0, |o| o.ops);
        }
    }
}
