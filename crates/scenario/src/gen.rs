//! Deterministic scenario generation.
//!
//! A [`ScenarioSpec`] (class + scale + seed) builds a [`Scenario`]:
//! a composed [`CompositeWorkload`] of traffic primitives together with
//! the [`GroundTruth`] labels the composition plants and the
//! [`TaskBinding`]s naming which detection tasks are responsible for
//! which labels. Everything derives from one seeded RNG in a fixed
//! order, so the same spec always yields the same trace and labels.
//!
//! Five scenario classes cover the axes the FARM paper leaves
//! unmeasured:
//!
//! - **flash_crowd** — sudden legitimate demand surges on a few service
//!   ports, with high-churn crowds of distinct client flows.
//! - **diurnal_drift** — a slow sinusoidal load drift with injected
//!   volume bursts riding on top (detectors must not alarm on drift).
//! - **multi_vector** — a coordinated attack: UDP flood toward one
//!   victim, a port scan, and an SSH brute force, all overlapping in
//!   time, buried in benign flow churn.
//! - **churn_hh** — the heavy-hitter set reshuffles every epoch; labels
//!   track set membership over time.
//! - **microburst** — DiG-style sub-ms bursts injected through a
//!   pre-scheduled [`TraceWorkload`], exercising the PCIe model at the
//!   fastest polling interval the budget sustains.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use farm_netsim::network::TrafficEvent;
use farm_netsim::time::{Dur, Time};
use farm_netsim::traffic::{
    bytes_for, packets_for, CompositeWorkload, TraceWorkload, Workload, MTU_BYTES,
};
use farm_netsim::types::{FlowKey, Ipv4, PortId, Prefix, Proto, SwitchId};

use crate::suite::{self, TaskDef};
use crate::truth::{AttackKind, GroundTruth, LabelWindow, TruthKey};

/// The scenario families the engine can compose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScenarioClass {
    FlashCrowd,
    DiurnalDrift,
    MultiVector,
    ChurnHh,
    Microburst,
}

impl ScenarioClass {
    /// All classes, in benchmark order.
    pub const ALL: [ScenarioClass; 5] = [
        ScenarioClass::FlashCrowd,
        ScenarioClass::DiurnalDrift,
        ScenarioClass::MultiVector,
        ScenarioClass::ChurnHh,
        ScenarioClass::Microburst,
    ];

    /// Stable identifier used in `repro detection`'s table.
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioClass::FlashCrowd => "flash_crowd",
            ScenarioClass::DiurnalDrift => "diurnal_drift",
            ScenarioClass::MultiVector => "multi_vector",
            ScenarioClass::ChurnHh => "churn_hh",
            ScenarioClass::Microburst => "microburst",
        }
    }
}

/// How big a scenario to compose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioScale {
    /// Seconds of virtual time, tens of thousands of events — CI-fast.
    Smoke,
    /// The full benchmark size (million-flow traces on multi_vector).
    Full,
}

impl ScenarioScale {
    pub fn name(&self) -> &'static str {
        match self {
            ScenarioScale::Smoke => "smoke",
            ScenarioScale::Full => "full",
        }
    }
}

/// Where a scenario runs: the leaf switch carrying the traffic, how many
/// of its ports participate, and the address prefix of the hosts behind
/// it.
#[derive(Debug, Clone)]
pub struct ScenarioEnv {
    pub switch: SwitchId,
    pub n_ports: u16,
    pub prefix: Prefix,
}

impl ScenarioEnv {
    /// The `j`-th host address behind the leaf.
    pub(crate) fn host(&self, j: u32) -> Ipv4 {
        Ipv4(self.prefix.addr.0 + j)
    }
}

/// One detection task deployed against a scenario: its definition and
/// externals, the label kinds it is responsible for, and the scoring
/// grace that absorbs its polling/report latency.
pub struct TaskBinding {
    pub def: &'static TaskDef,
    pub externals: std::collections::BTreeMap<String, farm_almanac::analysis::ConstEnv>,
    pub kinds: Vec<AttackKind>,
    pub grace: Dur,
}

/// A fully composed scenario, ready to replay.
pub struct Scenario {
    /// `<class>-<scale>`, e.g. `flash_crowd-smoke`.
    pub(crate) name: String,
    pub class: ScenarioClass,
    pub scale: ScenarioScale,
    pub seed: u64,
    /// Virtual end of the replay.
    pub until: Time,
    /// Simulation tick used to drive the workload.
    pub tick: Dur,
    pub workload: CompositeWorkload,
    pub truth: GroundTruth,
    pub tasks: Vec<TaskBinding>,
    /// Heavy-hitter threshold handed to the sFlow/Sonata baselines;
    /// `None` skips baseline scoring for this scenario.
    pub baseline_hh_bps: Option<u64>,
    /// Label kinds the baselines are scored against.
    pub baseline_kinds: Vec<AttackKind>,
}

/// A seedable recipe for one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    pub class: ScenarioClass,
    pub scale: ScenarioScale,
    pub seed: u64,
}

impl ScenarioSpec {
    /// Composes the scenario. Deterministic: the same spec and env
    /// always produce the same workload, labels, and task bindings.
    pub fn build(&self, env: &ScenarioEnv) -> Scenario {
        // Salt the seed per class so the same numeric seed yields
        // unrelated streams across classes.
        let salt = self
            .class
            .name()
            .bytes()
            .fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64));
        let rng = StdRng::seed_from_u64(self.seed ^ salt.rotate_left(17));
        let mut scenario = match self.class {
            ScenarioClass::FlashCrowd => flash_crowd(env, self.scale, rng),
            ScenarioClass::DiurnalDrift => diurnal_drift(env, self.scale, rng),
            ScenarioClass::MultiVector => multi_vector(env, self.scale, rng),
            ScenarioClass::ChurnHh => churn_hh(env, self.scale, rng),
            ScenarioClass::Microburst => microburst(env, self.scale, rng),
        };
        scenario.name = format!("{}-{}", self.class.name(), self.scale.name());
        scenario.seed = self.seed;
        scenario.scale = self.scale;
        scenario
    }
}

// ---------------------------------------------------------------------------
// Traffic primitives
// ---------------------------------------------------------------------------

/// A scheduled multiplicative surge on a set of ports.
#[derive(Debug, Clone)]
pub(crate) struct Surge {
    pub(crate) ports: Vec<PortId>,
    pub(crate) start: Time,
    pub(crate) end: Time,
    pub(crate) factor: f64,
}

/// Configuration of a [`PortBaseline`].
#[derive(Debug, Clone)]
pub(crate) struct PortBaselineCfg {
    pub(crate) switch: SwitchId,
    /// Ports `0..n_ports` each carry one long-lived flow.
    pub(crate) n_ports: u16,
    /// Steady per-port byte rate, bits/s.
    pub(crate) rate_bps: u64,
    /// Sinusoidal drift amplitude as a fraction of `rate_bps`
    /// (0 disables drift).
    pub(crate) drift_amp: f64,
    /// Period of the drift sinusoid.
    pub(crate) drift_period: Dur,
    /// Scheduled surges (flash crowds, volume bursts, churn epochs).
    pub(crate) surges: Vec<Surge>,
    pub(crate) seed: u64,
}

/// Steady per-port transmit traffic with multiplicative jitter, optional
/// slow sinusoidal drift, and scheduled surges. One MTU-sized long-lived
/// TCP flow per port (so probe-based detectors ignore it).
#[derive(Debug)]
pub(crate) struct PortBaseline {
    cfg: PortBaselineCfg,
    rng: StdRng,
    flows: Vec<FlowKey>,
}

impl PortBaseline {
    pub(crate) fn new(cfg: PortBaselineCfg) -> PortBaseline {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let flows = (0..cfg.n_ports)
            .map(|p| {
                FlowKey::tcp(
                    Ipv4::new(10, 100, (p >> 8) as u8, (p & 0xff) as u8),
                    40_000 + p,
                    Ipv4::new(10, 200, 0, 1),
                    443,
                )
            })
            .collect();
        PortBaseline { cfg, rng, flows }
    }
}

impl Workload for PortBaseline {
    fn advance(&mut self, now: Time, dt: Dur) -> Vec<TrafficEvent> {
        let drift = if self.cfg.drift_amp > 0.0 {
            let phase = now.as_secs_f64() / self.cfg.drift_period.as_secs_f64();
            1.0 + self.cfg.drift_amp * (2.0 * std::f64::consts::PI * phase).sin()
        } else {
            1.0
        };
        let mut out = Vec::with_capacity(self.cfg.n_ports as usize);
        for p in 0..self.cfg.n_ports {
            let jitter: f64 = self.rng.random_range(0.95..1.05);
            let mut rate = self.cfg.rate_bps as f64 * jitter * drift;
            for s in &self.cfg.surges {
                if now >= s.start && now < s.end && s.ports.contains(&PortId(p)) {
                    rate *= s.factor;
                }
            }
            let bytes = bytes_for(rate as u64, dt);
            if bytes == 0 {
                continue;
            }
            out.push(TrafficEvent {
                switch: self.cfg.switch,
                rx_port: None,
                tx_port: Some(PortId(p)),
                flow: self.flows[p as usize],
                bytes,
                packets: packets_for(bytes, MTU_BYTES),
            });
        }
        out
    }
}

/// Configuration of a [`FlowChurn`].
#[derive(Debug, Clone)]
pub(crate) struct FlowChurnCfg {
    pub(crate) switch: SwitchId,
    /// Transmit ports cycled round-robin; empty → events carry none.
    pub(crate) tx_ports: Vec<PortId>,
    pub(crate) rx_port: Option<PortId>,
    pub(crate) dst: Ipv4,
    pub(crate) dst_port: u16,
    pub(crate) proto: Proto,
    /// Bytes carried by each fresh flow's event.
    pub(crate) bytes_per_flow: u64,
    /// Average packet size (drives SYN classification: TCP ≤ 128 bytes
    /// is treated as a connection attempt by the probe path).
    pub(crate) pkt_bytes: u64,
    /// Fresh flows per tick.
    pub(crate) flows_per_tick: u32,
    /// Active window; `None` runs for the whole scenario.
    pub(crate) window: Option<(Time, Time)>,
    /// Fresh sources are `src_base + k` for a global counter `k`.
    pub(crate) src_base: Ipv4,
}

/// High-churn traffic: every tick introduces `flows_per_tick` flows from
/// never-before-seen sources. This is what pushes full-scale traces to
/// million-flow cardinality without million-event baselines.
#[derive(Debug)]
pub(crate) struct FlowChurn {
    cfg: FlowChurnCfg,
    counter: u32,
}

impl FlowChurn {
    pub(crate) fn new(cfg: FlowChurnCfg) -> FlowChurn {
        FlowChurn { cfg, counter: 0 }
    }
}

impl Workload for FlowChurn {
    fn advance(&mut self, now: Time, _dt: Dur) -> Vec<TrafficEvent> {
        if let Some((start, end)) = self.cfg.window {
            if now < start || now >= end {
                return Vec::new();
            }
        }
        let mut out = Vec::with_capacity(self.cfg.flows_per_tick as usize);
        for _ in 0..self.cfg.flows_per_tick {
            let src = Ipv4(self.cfg.src_base.0.wrapping_add(self.counter));
            let tx_port = if self.cfg.tx_ports.is_empty() {
                None
            } else {
                Some(self.cfg.tx_ports[self.counter as usize % self.cfg.tx_ports.len()])
            };
            self.counter = self.counter.wrapping_add(1);
            let flow = FlowKey {
                src,
                dst: self.cfg.dst,
                proto: self.cfg.proto,
                src_port: 40_000,
                dst_port: self.cfg.dst_port,
            };
            out.push(TrafficEvent {
                switch: self.cfg.switch,
                rx_port: self.cfg.rx_port,
                tx_port,
                flow,
                bytes: self.cfg.bytes_per_flow,
                packets: packets_for(self.cfg.bytes_per_flow, self.cfg.pkt_bytes),
            });
        }
        out
    }
}

/// A windowed port scan: one source sweeping destination ports with
/// 64-byte TCP SYN probes.
#[derive(Debug)]
pub(crate) struct ScanBurst {
    pub(crate) switch: SwitchId,
    pub(crate) rx_port: PortId,
    pub(crate) src: Ipv4,
    pub(crate) dst: Ipv4,
    pub(crate) window: (Time, Time),
    pub(crate) probes_per_tick: u32,
    next_port: u16,
}

impl ScanBurst {
    pub(crate) fn new(
        switch: SwitchId,
        rx_port: PortId,
        src: Ipv4,
        dst: Ipv4,
        window: (Time, Time),
        probes_per_tick: u32,
    ) -> ScanBurst {
        ScanBurst {
            switch,
            rx_port,
            src,
            dst,
            window,
            probes_per_tick,
            next_port: 1024,
        }
    }
}

impl Workload for ScanBurst {
    fn advance(&mut self, now: Time, _dt: Dur) -> Vec<TrafficEvent> {
        if now < self.window.0 || now >= self.window.1 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.probes_per_tick as usize);
        for _ in 0..self.probes_per_tick {
            // Skip port 22 so the scan never pollutes SSH accounting.
            if self.next_port == 22 {
                self.next_port += 1;
            }
            out.push(TrafficEvent {
                switch: self.switch,
                rx_port: Some(self.rx_port),
                tx_port: None,
                flow: FlowKey::tcp(self.src, 55_000, self.dst, self.next_port),
                bytes: 64,
                packets: 1,
            });
            self.next_port = self.next_port.checked_add(1).unwrap_or(1024);
        }
        out
    }
}

/// A windowed SSH brute force: repeated 64-byte SYNs to port 22 from one
/// source.
#[derive(Debug)]
pub(crate) struct SshBrute {
    pub(crate) switch: SwitchId,
    pub(crate) rx_port: PortId,
    pub(crate) src: Ipv4,
    pub(crate) dst: Ipv4,
    pub(crate) window: (Time, Time),
    pub(crate) attempts_per_tick: u32,
}

impl Workload for SshBrute {
    fn advance(&mut self, now: Time, _dt: Dur) -> Vec<TrafficEvent> {
        if now < self.window.0 || now >= self.window.1 {
            return Vec::new();
        }
        (0..self.attempts_per_tick)
            .map(|_| TrafficEvent {
                switch: self.switch,
                rx_port: Some(self.rx_port),
                tx_port: None,
                flow: FlowKey::tcp(self.src, 51_000, self.dst, 22),
                bytes: 64,
                packets: 1,
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Window scheduling helpers
// ---------------------------------------------------------------------------

/// Splits `[from, until)` into `n` equal segments and places one window
/// of `min_len..=max_len` at a random offset inside each — globally
/// disjoint by construction.
fn disjoint_windows(
    rng: &mut StdRng,
    from: Time,
    until: Time,
    n: usize,
    min_len: Dur,
    max_len: Dur,
) -> Vec<(Time, Time)> {
    let span_ns = until.since(from).as_nanos();
    let seg_ns = span_ns / n as u64;
    assert!(
        seg_ns > max_len.as_nanos(),
        "segments too short for requested windows"
    );
    (0..n as u64)
        .map(|i| {
            let len = Dur(rng.random_range(min_len.as_nanos()..=max_len.as_nanos()));
            let slack = seg_ns - len.as_nanos();
            let off = Dur(rng.random_range(0..=slack));
            let start = from + Dur(i * seg_ns) + off;
            (start, start + len)
        })
        .collect()
}

/// Picks `k` distinct ports from `0..n_ports`.
fn pick_ports(rng: &mut StdRng, n_ports: u16, k: usize) -> Vec<PortId> {
    let mut picked = BTreeSet::new();
    while picked.len() < k.min(n_ports as usize) {
        picked.insert(rng.random_range(0..n_ports));
    }
    picked.into_iter().map(PortId).collect()
}

fn port_keys(ports: &[PortId]) -> BTreeSet<TruthKey> {
    ports.iter().map(|p| TruthKey::Port(*p)).collect()
}

/// Snaps a window to tick boundaries so labels line up exactly with the
/// ticks that carry the labeled traffic.
fn snap(w: (Time, Time), tick: Dur) -> (Time, Time) {
    let t = tick.as_nanos();
    let start = Time(w.0.as_nanos() / t * t);
    let end = Time(w.1.as_nanos().div_ceil(t) * t);
    (start, end)
}

// ---------------------------------------------------------------------------
// Scenario builders
// ---------------------------------------------------------------------------

/// Ports that actively carry baseline traffic in a scenario.
fn active_ports(env: &ScenarioEnv) -> u16 {
    env.n_ports.min(12)
}

fn flash_crowd(env: &ScenarioEnv, scale: ScenarioScale, mut rng: StdRng) -> Scenario {
    let tick = Dur::from_millis(10);
    let (until, n_windows, crowd_per_tick) = match scale {
        ScenarioScale::Smoke => (Time::from_secs(12), 3, 50),
        ScenarioScale::Full => (Time::from_secs(60), 6, 220),
    };
    let ports = active_ports(env);
    let hot = pick_ports(&mut rng, ports, 2);
    let windows: Vec<(Time, Time)> = disjoint_windows(
        &mut rng,
        Time::from_secs(2),
        until,
        n_windows,
        Dur::from_millis(1500),
        Dur::from_millis(2500),
    )
    .into_iter()
    .map(|w| snap(w, tick))
    .collect();

    let mut truth = GroundTruth::default();
    let mut workload = CompositeWorkload::new();
    let surges = windows
        .iter()
        .map(|&(start, end)| Surge {
            ports: hot.clone(),
            start,
            end,
            factor: 50.0,
        })
        .collect();
    workload.push(Box::new(PortBaseline::new(PortBaselineCfg {
        switch: env.switch,
        n_ports: ports,
        rate_bps: 10_000_000,
        drift_amp: 0.0,
        drift_period: Dur::from_secs(1),
        surges,
        seed: rng.random_range(0..u64::MAX),
    })));
    for &(start, end) in &windows {
        // The crowd itself: fresh client flows converging on the hot
        // service ports for the duration of the surge.
        workload.push(Box::new(FlowChurn::new(FlowChurnCfg {
            switch: env.switch,
            tx_ports: hot.clone(),
            rx_port: None,
            dst: env.host(1),
            dst_port: 443,
            proto: Proto::Tcp,
            bytes_per_flow: 1500,
            pkt_bytes: MTU_BYTES,
            flows_per_tick: crowd_per_tick,
            window: Some((start, end)),
            src_base: Ipv4::new(100, 64, 0, 0),
        })));
        truth.push(LabelWindow {
            kind: AttackKind::FlashCrowd,
            start,
            end,
            keys: port_keys(&hot),
        });
    }

    Scenario {
        name: String::new(),
        class: ScenarioClass::FlashCrowd,
        scale,
        seed: 0,
        until,
        tick,
        workload,
        truth,
        tasks: vec![
            TaskBinding {
                def: &suite::HH_TASK,
                externals: suite::hh_externals(60_000),
                kinds: vec![AttackKind::FlashCrowd],
                grace: Dur::from_millis(500),
            },
            TaskBinding {
                def: &suite::KISS_VOLUME_TASK,
                externals: suite::kiss_volume_externals(4.0, 8),
                kinds: vec![AttackKind::FlashCrowd],
                grace: Dur::from_millis(1000),
            },
            TaskBinding {
                def: &suite::KISS_SPIKE_TASK,
                externals: suite::kiss_spike_externals(8.0, 5, 1000.0),
                kinds: vec![AttackKind::FlashCrowd],
                grace: Dur::from_millis(1000),
            },
        ],
        baseline_hh_bps: Some(100_000_000),
        baseline_kinds: vec![AttackKind::FlashCrowd],
    }
}

fn diurnal_drift(env: &ScenarioEnv, scale: ScenarioScale, mut rng: StdRng) -> Scenario {
    let tick = Dur::from_millis(10);
    let (until, n_bursts) = match scale {
        ScenarioScale::Smoke => (Time::from_secs(12), 2),
        ScenarioScale::Full => (Time::from_secs(60), 5),
    };
    let ports = active_ports(env);
    let windows: Vec<(Time, Time)> = disjoint_windows(
        &mut rng,
        Time::from_secs(2),
        until,
        n_bursts,
        Dur::from_millis(1200),
        Dur::from_millis(2200),
    )
    .into_iter()
    .map(|w| snap(w, tick))
    .collect();
    // Each burst hits its own pair of ports.
    let burst_ports: Vec<Vec<PortId>> = windows
        .iter()
        .map(|_| pick_ports(&mut rng, ports, 2))
        .collect();

    let mut truth = GroundTruth::default();
    let surges = windows
        .iter()
        .zip(&burst_ports)
        .map(|(&(start, end), bp)| {
            truth.push(LabelWindow {
                kind: AttackKind::VolumeBurst,
                start,
                end,
                keys: port_keys(bp),
            });
            Surge {
                ports: bp.clone(),
                start,
                end,
                factor: 40.0,
            }
        })
        .collect();
    let mut workload = CompositeWorkload::new();
    workload.push(Box::new(PortBaseline::new(PortBaselineCfg {
        switch: env.switch,
        n_ports: ports,
        rate_bps: 10_000_000,
        drift_amp: 0.5,
        // Half a diurnal cycle over the run: load rises and falls.
        drift_period: Dur(2 * until.as_nanos()),
        surges,
        seed: rng.random_range(0..u64::MAX),
    })));

    Scenario {
        name: String::new(),
        class: ScenarioClass::DiurnalDrift,
        scale,
        seed: 0,
        until,
        tick,
        workload,
        truth,
        tasks: vec![
            TaskBinding {
                def: &suite::HH_TASK,
                externals: suite::hh_externals(100_000),
                kinds: vec![AttackKind::VolumeBurst],
                grace: Dur::from_millis(500),
            },
            TaskBinding {
                def: &suite::KISS_VOLUME_TASK,
                externals: suite::kiss_volume_externals(4.0, 8),
                kinds: vec![AttackKind::VolumeBurst],
                grace: Dur::from_millis(1000),
            },
            TaskBinding {
                def: &suite::KISS_SPIKE_TASK,
                externals: suite::kiss_spike_externals(8.0, 5, 1000.0),
                kinds: vec![AttackKind::VolumeBurst],
                grace: Dur::from_millis(1000),
            },
        ],
        baseline_hh_bps: Some(100_000_000),
        baseline_kinds: vec![AttackKind::VolumeBurst],
    }
}

fn multi_vector(env: &ScenarioEnv, scale: ScenarioScale, mut rng: StdRng) -> Scenario {
    let tick = Dur::from_millis(10);
    let (until, benign_per_tick, flood_per_tick) = match scale {
        ScenarioScale::Smoke => (Time::from_secs(14), 50, 40),
        ScenarioScale::Full => (Time::from_secs(30), 400, 60),
    };
    let ports = active_ports(env);
    let victim = env.host(9);
    let scanner = Ipv4::new(192, 0, 2, 66);
    let brute = Ipv4::new(203, 0, 113, 5);
    let secs = until.as_secs_f64() as u64;
    let ddos_win = (Time::from_secs(3), Time::from_secs(secs * 8 / 14));
    let scan_win = (Time::from_secs(4), Time::from_secs(secs * 10 / 14));
    let ssh_win = (Time::from_secs(2), Time::from_secs(secs * 12 / 14));

    let mut workload = CompositeWorkload::new();
    // Attack vectors come before the benign floor: probe triggers are
    // rate-limited to one mirrored packet per interval, and within a
    // simulation tick the first matching packet wins. Listing attacks
    // first models a mirror that catches the attack packets at line
    // rate instead of being permanently shadowed by the benign bulk
    // (which would starve any `proto tcp` probe of every SYN).
    // Vector 1: UDP flood toward the victim from rotating sources.
    workload.push(Box::new(FlowChurn::new(FlowChurnCfg {
        switch: env.switch,
        tx_ports: Vec::new(),
        rx_port: Some(PortId(9 % ports)),
        dst: victim,
        dst_port: 80,
        proto: Proto::Udp,
        bytes_per_flow: 5000,
        pkt_bytes: 512,
        flows_per_tick: flood_per_tick,
        window: Some(ddos_win),
        src_base: Ipv4::new(198, 18, 0, 0),
    })));
    // Vector 2: port scan.
    workload.push(Box::new(ScanBurst::new(
        env.switch,
        PortId(3 % ports),
        scanner,
        env.host(20),
        scan_win,
        2,
    )));
    // Vector 3: SSH brute force against a bastion host (distinct from
    // the flood victim so each label's keys match only its own vector).
    workload.push(Box::new(SshBrute {
        switch: env.switch,
        rx_port: PortId(11 % ports),
        src: brute,
        dst: env.host(11),
        window: ssh_win,
        attempts_per_tick: 1,
    }));
    // Benign floor: steady per-port load plus high-churn MTU flows that
    // never trip the probe-based detectors (full packets, no SYN flag).
    workload.push(Box::new(PortBaseline::new(PortBaselineCfg {
        switch: env.switch,
        n_ports: ports,
        rate_bps: 10_000_000,
        drift_amp: 0.0,
        drift_period: Dur::from_secs(1),
        surges: Vec::new(),
        seed: rng.random_range(0..u64::MAX),
    })));
    workload.push(Box::new(FlowChurn::new(FlowChurnCfg {
        switch: env.switch,
        tx_ports: (0..ports).map(PortId).collect(),
        rx_port: None,
        dst: env.host(30),
        dst_port: 8080,
        proto: Proto::Tcp,
        bytes_per_flow: 3000,
        pkt_bytes: MTU_BYTES,
        flows_per_tick: benign_per_tick,
        window: None,
        src_base: Ipv4::new(100, 64, 0, 0),
    })));

    let mut truth = GroundTruth::default();
    truth.push(LabelWindow {
        kind: AttackKind::Ddos,
        start: ddos_win.0,
        end: ddos_win.1,
        keys: [TruthKey::Dst(victim)].into_iter().collect(),
    });
    truth.push(LabelWindow {
        kind: AttackKind::PortScan,
        start: scan_win.0,
        end: scan_win.1,
        keys: [TruthKey::Src(scanner)].into_iter().collect(),
    });
    truth.push(LabelWindow {
        kind: AttackKind::SshBruteForce,
        start: ssh_win.0,
        end: ssh_win.1,
        keys: [TruthKey::Src(brute)].into_iter().collect(),
    });

    Scenario {
        name: String::new(),
        class: ScenarioClass::MultiVector,
        scale,
        seed: 0,
        until,
        tick,
        workload,
        truth,
        tasks: vec![
            TaskBinding {
                def: &suite::DDOS_TASK,
                externals: suite::ddos_externals(&format!("{victim}/32"), 100_000, 2),
                kinds: vec![AttackKind::Ddos],
                grace: Dur::from_millis(1000),
            },
            TaskBinding {
                def: &suite::PORTSCAN_TASK,
                externals: suite::portscan_externals(50),
                kinds: vec![AttackKind::PortScan],
                grace: Dur::from_millis(1500),
            },
            TaskBinding {
                def: &suite::SSH_TASK,
                externals: suite::ssh_externals(20),
                kinds: vec![AttackKind::SshBruteForce],
                // The program's counting window fires every 5 s, so an
                // attack ending mid-window reports up to 5 s late.
                grace: Dur::from_millis(5500),
            },
        ],
        // The flood is receive-side only: counter-polling baselines
        // (sFlow reads tx counters) cannot see it, which is the point.
        baseline_hh_bps: None,
        baseline_kinds: Vec::new(),
    }
}

fn churn_hh(env: &ScenarioEnv, scale: ScenarioScale, mut rng: StdRng) -> Scenario {
    let tick = Dur::from_millis(10);
    let warmup = Time::from_secs(3);
    let (n_epochs, epoch, churn_per_tick) = match scale {
        ScenarioScale::Smoke => (5usize, Dur::from_secs(2), 30),
        ScenarioScale::Full => (10usize, Dur::from_secs(3), 150),
    };
    let until = warmup + Dur(epoch.as_nanos() * n_epochs as u64);
    let ports = active_ports(env);

    let mut truth = GroundTruth::default();
    let mut surges = Vec::with_capacity(n_epochs);
    for e in 0..n_epochs {
        let heavy = pick_ports(&mut rng, ports, 4);
        let start = warmup + Dur(epoch.as_nanos() * e as u64);
        let end = start + epoch;
        truth.push(LabelWindow {
            kind: AttackKind::HeavyHitter,
            start,
            end,
            keys: port_keys(&heavy),
        });
        surges.push(Surge {
            ports: heavy,
            start,
            end,
            factor: 100.0,
        });
    }

    let mut workload = CompositeWorkload::new();
    workload.push(Box::new(PortBaseline::new(PortBaselineCfg {
        switch: env.switch,
        n_ports: ports,
        rate_bps: 10_000_000,
        drift_amp: 0.0,
        drift_period: Dur::from_secs(1),
        surges,
        seed: rng.random_range(0..u64::MAX),
    })));
    workload.push(Box::new(FlowChurn::new(FlowChurnCfg {
        switch: env.switch,
        tx_ports: (0..ports).map(PortId).collect(),
        rx_port: None,
        dst: env.host(40),
        dst_port: 8080,
        proto: Proto::Tcp,
        bytes_per_flow: 3000,
        pkt_bytes: MTU_BYTES,
        flows_per_tick: churn_per_tick,
        window: None,
        src_base: Ipv4::new(100, 64, 0, 0),
    })));

    Scenario {
        name: String::new(),
        class: ScenarioClass::ChurnHh,
        scale,
        seed: 0,
        until,
        tick,
        workload,
        truth,
        tasks: vec![
            TaskBinding {
                def: &suite::HH_TASK,
                externals: suite::hh_externals(60_000),
                kinds: vec![AttackKind::HeavyHitter],
                grace: Dur::from_millis(500),
            },
            TaskBinding {
                def: &suite::HHH2_TASK,
                externals: suite::hhh2_externals(60_000, 250_000, 8),
                kinds: vec![AttackKind::HeavyHitter],
                grace: Dur::from_millis(800),
            },
            TaskBinding {
                def: &suite::KISS_SPIKE_TASK,
                externals: suite::kiss_spike_externals(8.0, 5, 1000.0),
                kinds: vec![AttackKind::HeavyHitter],
                grace: Dur::from_millis(1000),
            },
        ],
        baseline_hh_bps: Some(200_000_000),
        baseline_kinds: vec![AttackKind::HeavyHitter],
    }
}

fn microburst(env: &ScenarioEnv, scale: ScenarioScale, mut rng: StdRng) -> Scenario {
    let tick = Dur::from_micros(100);
    let (until, n_bursts) = match scale {
        ScenarioScale::Smoke => (Time::from_millis(400), 6),
        ScenarioScale::Full => (Time::from_millis(1200), 18),
    };
    let ports = active_ports(env).min(8);

    // One burst per disjoint segment: a random port at 10 Gbit/s for
    // 1–4 ms, delivered as a pre-scheduled trace through the injection
    // hook (the same path externally captured traces would use).
    let windows: Vec<(Time, Time)> = disjoint_windows(
        &mut rng,
        Time::from_millis(50),
        until,
        n_bursts,
        Dur::from_millis(1),
        Dur::from_millis(4),
    )
    .into_iter()
    .map(|w| snap(w, tick))
    .collect();
    let mut truth = GroundTruth::default();
    let mut events = Vec::new();
    for &(start, end) in &windows {
        let port = PortId(rng.random_range(0..ports));
        truth.push(LabelWindow {
            kind: AttackKind::Microburst,
            start,
            end,
            keys: port_keys(&[port]),
        });
        let slice_bytes = bytes_for(10_000_000_000, tick);
        let mut t = start;
        while t < end {
            events.push((
                t,
                TrafficEvent {
                    switch: env.switch,
                    rx_port: None,
                    tx_port: Some(port),
                    flow: FlowKey::udp(Ipv4::new(10, 250, 0, 1), 9000, env.host(2), 9000),
                    bytes: slice_bytes,
                    packets: packets_for(slice_bytes, MTU_BYTES),
                },
            ));
            t += tick;
        }
    }

    let mut workload = CompositeWorkload::new();
    workload.push(Box::new(PortBaseline::new(PortBaselineCfg {
        switch: env.switch,
        n_ports: ports,
        rate_bps: 100_000_000,
        drift_amp: 0.0,
        drift_period: Dur::from_secs(1),
        surges: Vec::new(),
        seed: rng.random_range(0..u64::MAX),
    })));
    workload.push(Box::new(TraceWorkload::new(events)));

    Scenario {
        name: String::new(),
        class: ScenarioClass::Microburst,
        scale,
        seed: 0,
        until,
        tick,
        workload,
        truth,
        tasks: vec![
            TaskBinding {
                def: &suite::DIG_TASK,
                externals: suite::dig_externals(30_000),
                kinds: vec![AttackKind::Microburst],
                grace: Dur::from_millis(20),
            },
            TaskBinding {
                // With only two tasks on the fabric the planner hands hh
                // a large opportunistic PCIe share (~625), so its poll
                // interval (10/PCIe ms) lands in the 16 µs–100 µs range.
                // A 10 Gbit/s burst moves ≥ 20 KB per 16 µs poll while
                // the 100 Mbit/s benign floor stays ≤ 1.25 KB per port
                // even over a full 100 µs tick — 10 KB separates the two
                // with ≥ 2x margin on both sides at any sub-tick cadence.
                def: &suite::HH_TASK,
                externals: suite::hh_externals(10_000),
                kinds: vec![AttackKind::Microburst],
                grace: Dur::from_millis(100),
            },
        ],
        // Included to demonstrate the counter-interval floor: 100 ms
        // sFlow polling cannot resolve millisecond bursts.
        baseline_hh_bps: Some(1_000_000_000),
        baseline_kinds: vec![AttackKind::Microburst],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_netsim::traffic::record_trace;

    fn env() -> ScenarioEnv {
        ScenarioEnv {
            switch: SwitchId(2),
            n_ports: 48,
            prefix: "10.0.1.0/24".parse().unwrap(),
        }
    }

    #[test]
    fn every_class_builds_with_truth_and_tasks() {
        for class in ScenarioClass::ALL {
            let spec = ScenarioSpec {
                class,
                scale: ScenarioScale::Smoke,
                seed: 42,
            };
            let s = spec.build(&env());
            assert!(!s.truth.windows.is_empty(), "{}: no labels", s.name);
            assert!(s.tasks.len() >= 2, "{}: too few tasks", s.name);
            assert!(s.until > Time::ZERO && !s.tick.is_zero());
            for w in &s.truth.windows {
                assert!(w.start < w.end, "{}: empty window", s.name);
                assert!(w.end <= s.until + s.tick, "{}: window past end", s.name);
            }
        }
    }

    #[test]
    fn same_seed_same_trace_and_labels() {
        for class in [ScenarioClass::FlashCrowd, ScenarioClass::MultiVector] {
            let spec = ScenarioSpec {
                class,
                scale: ScenarioScale::Smoke,
                seed: 1337,
            };
            let mut a = spec.build(&env());
            let mut b = spec.build(&env());
            assert_eq!(a.truth, b.truth);
            let ta = record_trace(&mut a.workload, a.until, a.tick);
            let tb = record_trace(&mut b.workload, b.until, b.tick);
            assert_eq!(ta.len(), tb.len());
            assert_eq!(ta, tb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let base = ScenarioSpec {
            class: ScenarioClass::ChurnHh,
            scale: ScenarioScale::Smoke,
            seed: 1,
        };
        let other = ScenarioSpec { seed: 2, ..base };
        let a = base.build(&env());
        let b = other.build(&env());
        assert_ne!(a.truth, b.truth);
    }

    #[test]
    fn multi_vector_attack_flows_stay_inside_their_windows() {
        let spec = ScenarioSpec {
            class: ScenarioClass::MultiVector,
            scale: ScenarioScale::Smoke,
            seed: 7,
        };
        let mut s = spec.build(&env());
        let trace = record_trace(&mut s.workload, s.until, s.tick);
        for w in &s.truth.windows {
            for (t, e) in &trace {
                let hit = w.keys.iter().any(|k| match k {
                    TruthKey::Src(ip) => e.flow.src == *ip,
                    TruthKey::Dst(ip) => e.flow.dst == *ip,
                    TruthKey::Port(_) => false,
                });
                if hit {
                    assert!(
                        *t >= w.start && *t < w.end,
                        "{:?} event at {t} outside window [{}, {})",
                        w.kind,
                        w.start,
                        w.end
                    );
                }
            }
        }
    }

    #[test]
    fn disjoint_windows_do_not_overlap() {
        let mut rng = StdRng::seed_from_u64(3);
        let ws = disjoint_windows(
            &mut rng,
            Time::from_secs(1),
            Time::from_secs(13),
            4,
            Dur::from_millis(800),
            Dur::from_millis(2000),
        );
        for pair in ws.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "{pair:?} overlap");
        }
    }
}
