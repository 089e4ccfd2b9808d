//! Synthetic traffic workloads.
//!
//! The paper evaluates against production SAP traffic; here every scenario
//! is generated synthetically with the statistical features the paper
//! states: heavy hitters affect 1–10 % of ports and the HH ratio changes up
//! to once a minute (§ VI-B), DDoS floods come from many sources, port
//! scans sweep destination ports, and flow sizes follow a Zipf law.
//!
//! A [`Workload`] produces [`TrafficEvent`]s per simulation tick; callers
//! apply them to a [`crate::network::Network`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::network::TrafficEvent;
use crate::time::{Dur, Time};
use crate::types::{FlowKey, Ipv4, PortId, Proto, SwitchId};

/// Typical MTU-sized payload used to derive packet counts from byte rates.
pub const MTU_BYTES: u64 = 1500;

/// A generator of traffic events over virtual time.
pub trait Workload {
    /// Produces the traffic for the tick `[now, now + dt)`.
    fn advance(&mut self, now: Time, dt: Dur) -> Vec<TrafficEvent>;
}

/// Bytes carried in a tick of length `dt` at `rate_bps` bits/s.
pub fn bytes_for(rate_bps: u64, dt: Dur) -> u64 {
    (rate_bps as f64 / 8.0 * dt.as_secs_f64()).round() as u64
}

/// Packet count for `bytes` at the given packet size (at least one
/// packet whenever any bytes flow).
pub fn packets_for(bytes: u64, pkt_size: u64) -> u64 {
    bytes.div_ceil(pkt_size).max(u64::from(bytes > 0))
}

/// Configuration of a [`HeavyHitterWorkload`].
#[derive(Debug, Clone)]
pub struct HhConfig {
    /// Switch whose ports carry the traffic (typically a leaf).
    pub switch: SwitchId,
    /// Number of monitored ports.
    pub n_ports: u16,
    /// Fraction of ports that are heavy at any time (paper: 0.01–0.10).
    pub hh_ratio: f64,
    /// How often the heavy set reshuffles (paper: up to once a minute).
    pub churn_interval: Dur,
    /// Byte rate of a normal port, bits/s.
    pub normal_rate_bps: u64,
    /// Byte rate of a heavy port, bits/s.
    pub hh_rate_bps: u64,
    /// RNG seed (workloads are deterministic given the seed).
    pub seed: u64,
}

impl Default for HhConfig {
    fn default() -> Self {
        HhConfig {
            switch: SwitchId(0),
            n_ports: 48,
            hh_ratio: 0.01,
            churn_interval: Dur::from_secs(60),
            normal_rate_bps: 10_000_000, // 10 Mbit/s
            hh_rate_bps: 5_000_000_000,  // 5 Gbit/s
            seed: 7,
        }
    }
}

/// Heavy-hitter traffic on one switch: most ports carry light traffic, a
/// churning subset transmits at heavy rates.
#[derive(Debug)]
pub struct HeavyHitterWorkload {
    cfg: HhConfig,
    heavy: Vec<bool>,
    rng: StdRng,
    next_churn: Time,
    flows: Vec<FlowKey>,
}

impl HeavyHitterWorkload {
    /// Builds the workload and draws the initial heavy set.
    ///
    /// # Panics
    ///
    /// Panics if `hh_ratio` is outside `[0, 1]` or `n_ports` is zero.
    pub fn new(cfg: HhConfig) -> HeavyHitterWorkload {
        assert!((0.0..=1.0).contains(&cfg.hh_ratio), "hh_ratio out of range");
        assert!(cfg.n_ports > 0, "need at least one port");
        let rng = StdRng::seed_from_u64(cfg.seed);
        // One long-lived flow per port: host behind the port sends to a
        // fixed remote address.
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
        let mut w = HeavyHitterWorkload {
            heavy: vec![false; cfg.n_ports as usize],
            next_churn: Time::ZERO + cfg.churn_interval,
            flows,
            cfg,
            rng,
        };
        w.reshuffle();
        w
    }

    fn reshuffle(&mut self) {
        let n_heavy = ((self.cfg.n_ports as f64 * self.cfg.hh_ratio).round() as usize).clamp(
            usize::from(self.cfg.hh_ratio > 0.0),
            self.cfg.n_ports as usize,
        );
        let mut idx: Vec<usize> = (0..self.cfg.n_ports as usize).collect();
        idx.shuffle(&mut self.rng);
        self.heavy.iter_mut().for_each(|h| *h = false);
        for &i in idx.iter().take(n_heavy) {
            self.heavy[i] = true;
        }
    }

    /// Ground truth: ports currently transmitting at the heavy rate.
    pub fn heavy_ports(&self) -> Vec<PortId> {
        self.heavy
            .iter()
            .enumerate()
            .filter(|(_, h)| **h)
            .map(|(i, _)| PortId(i as u16))
            .collect()
    }
}

impl Workload for HeavyHitterWorkload {
    fn advance(&mut self, now: Time, dt: Dur) -> Vec<TrafficEvent> {
        while now >= self.next_churn {
            self.reshuffle();
            self.next_churn += self.cfg.churn_interval;
        }
        let mut out = Vec::with_capacity(self.cfg.n_ports as usize);
        for p in 0..self.cfg.n_ports {
            let rate = if self.heavy[p as usize] {
                self.cfg.hh_rate_bps
            } else {
                self.cfg.normal_rate_bps
            };
            let bytes = bytes_for(rate, dt);
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

/// Configuration of a [`DdosWorkload`].
#[derive(Debug, Clone)]
pub struct DdosConfig {
    /// Switch in front of the victim.
    pub switch: SwitchId,
    /// Victim address.
    pub victim: Ipv4,
    /// Port the victim traffic arrives on.
    pub ingress_port: PortId,
    /// Number of attack sources once the attack starts.
    pub n_sources: u32,
    /// Byte rate per attack source, bits/s.
    pub per_source_bps: u64,
    /// Benign background byte rate toward the victim, bits/s.
    pub background_bps: u64,
    /// Attack onset instant.
    pub onset: Time,
    pub seed: u64,
}

impl Default for DdosConfig {
    fn default() -> Self {
        DdosConfig {
            switch: SwitchId(0),
            victim: Ipv4::new(10, 1, 0, 10),
            ingress_port: PortId(0),
            n_sources: 200,
            per_source_bps: 20_000_000,
            background_bps: 50_000_000,
            onset: Time::from_secs(1),
            seed: 11,
        }
    }
}

/// Volumetric DDoS: after onset, many sources flood one victim.
#[derive(Debug)]
pub struct DdosWorkload {
    cfg: DdosConfig,
    sources: Vec<Ipv4>,
}

impl DdosWorkload {
    /// Builds the workload, drawing the attack source addresses.
    pub fn new(cfg: DdosConfig) -> DdosWorkload {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let sources = (0..cfg.n_sources)
            .map(|_| Ipv4(rng.random_range(0xC0000000u32..0xC0FFFFFF)))
            .collect();
        DdosWorkload { cfg, sources }
    }

    /// True once the attack is active at `now`.
    pub(crate) fn attack_active(&self, now: Time) -> bool {
        now >= self.cfg.onset
    }
}

impl Workload for DdosWorkload {
    fn advance(&mut self, now: Time, dt: Dur) -> Vec<TrafficEvent> {
        let mut out = Vec::new();
        let bg = bytes_for(self.cfg.background_bps, dt);
        if bg > 0 {
            out.push(TrafficEvent {
                switch: self.cfg.switch,
                rx_port: Some(self.cfg.ingress_port),
                tx_port: None,
                flow: FlowKey::tcp(Ipv4::new(10, 50, 0, 1), 55_555, self.cfg.victim, 80),
                bytes: bg,
                packets: packets_for(bg, MTU_BYTES),
            });
        }
        if self.attack_active(now) {
            let per_src = bytes_for(self.cfg.per_source_bps, dt);
            for (i, src) in self.sources.iter().enumerate() {
                if per_src == 0 {
                    break;
                }
                out.push(TrafficEvent {
                    switch: self.cfg.switch,
                    rx_port: Some(self.cfg.ingress_port),
                    tx_port: None,
                    flow: FlowKey::udp(*src, 10_000 + (i as u16 % 50_000), self.cfg.victim, 80),
                    bytes: per_src,
                    packets: packets_for(per_src, 512), // small-ish flood packets
                });
            }
        }
        out
    }
}

/// Configuration of a [`PortScanWorkload`].
#[derive(Debug, Clone)]
pub struct PortScanConfig {
    pub switch: SwitchId,
    pub scanner: Ipv4,
    pub target: Ipv4,
    pub ingress_port: PortId,
    /// Destination ports probed per second.
    pub ports_per_sec: u64,
    /// Scan start.
    pub onset: Time,
}

impl Default for PortScanConfig {
    fn default() -> Self {
        PortScanConfig {
            switch: SwitchId(0),
            scanner: Ipv4::new(192, 0, 2, 66),
            target: Ipv4::new(10, 1, 0, 20),
            ingress_port: PortId(0),
            ports_per_sec: 500,
            onset: Time::ZERO,
        }
    }
}

/// Sequential TCP SYN port scan: one source, one target, many dst ports,
/// 64-byte probes.
#[derive(Debug)]
pub struct PortScanWorkload {
    cfg: PortScanConfig,
    next_port: u16,
    carry: f64,
}

impl PortScanWorkload {
    pub fn new(cfg: PortScanConfig) -> PortScanWorkload {
        PortScanWorkload {
            cfg,
            next_port: 1,
            carry: 0.0,
        }
    }

    /// Number of distinct ports probed so far.
    pub fn ports_probed(&self) -> u16 {
        self.next_port - 1
    }
}

impl Workload for PortScanWorkload {
    fn advance(&mut self, now: Time, dt: Dur) -> Vec<TrafficEvent> {
        if now < self.cfg.onset {
            return Vec::new();
        }
        self.carry += self.cfg.ports_per_sec as f64 * dt.as_secs_f64();
        let n = self.carry as u64;
        self.carry -= n as f64;
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            out.push(TrafficEvent {
                switch: self.cfg.switch,
                rx_port: Some(self.cfg.ingress_port),
                tx_port: None,
                flow: FlowKey {
                    src: self.cfg.scanner,
                    dst: self.cfg.target,
                    proto: Proto::Tcp,
                    src_port: 54_321,
                    dst_port: self.next_port,
                },
                bytes: 64,
                packets: 1,
            });
            self.next_port = self.next_port.wrapping_add(1).max(1);
        }
        out
    }
}

/// Configuration of a [`ZipfFlowWorkload`].
#[derive(Debug, Clone)]
pub struct ZipfConfig {
    pub switch: SwitchId,
    pub n_flows: u32,
    /// Zipf exponent (1.0 ≈ classic internet flow-size skew).
    pub alpha: f64,
    /// Aggregate byte rate across all flows, bits/s.
    pub total_bps: u64,
    pub seed: u64,
}

impl Default for ZipfConfig {
    fn default() -> Self {
        ZipfConfig {
            switch: SwitchId(0),
            n_flows: 1000,
            alpha: 1.0,
            total_bps: 10_000_000_000,
            seed: 23,
        }
    }
}

/// Flows with Zipf-distributed rates (for flow-size-distribution and
/// entropy-estimation tasks).
#[derive(Debug)]
pub struct ZipfFlowWorkload {
    cfg: ZipfConfig,
    flows: Vec<(FlowKey, f64)>, // flow, share of total rate
}

impl ZipfFlowWorkload {
    /// Builds the workload; flow `k` (1-based rank) carries a share
    /// `k^-α / Σ j^-α` of the aggregate rate.
    pub fn new(cfg: ZipfConfig) -> ZipfFlowWorkload {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let harmonics: f64 = (1..=cfg.n_flows).map(|k| (k as f64).powf(-cfg.alpha)).sum();
        let flows = (1..=cfg.n_flows)
            .map(|k| {
                let share = (k as f64).powf(-cfg.alpha) / harmonics;
                let flow = FlowKey::tcp(
                    Ipv4(rng.random_range(0x0A000000u32..0x0AFFFFFF)),
                    rng.random_range(1024..65_000),
                    Ipv4(rng.random_range(0x0A000000u32..0x0AFFFFFF)),
                    rng.random_range(1..1024),
                );
                (flow, share)
            })
            .collect();
        ZipfFlowWorkload { cfg, flows }
    }
}

impl Workload for ZipfFlowWorkload {
    fn advance(&mut self, _now: Time, dt: Dur) -> Vec<TrafficEvent> {
        let total = bytes_for(self.cfg.total_bps, dt) as f64;
        self.flows
            .iter()
            .filter_map(|(flow, share)| {
                let bytes = (total * share).round() as u64;
                (bytes > 0).then(|| TrafficEvent {
                    switch: self.cfg.switch,
                    rx_port: Some(PortId(0)),
                    tx_port: None,
                    flow: *flow,
                    bytes,
                    packets: packets_for(bytes, MTU_BYTES),
                })
            })
            .collect()
    }
}

/// Composition of several workloads into one event stream — the
/// injection point scenario engines use to overlay attack primitives
/// (floods, scans, bursts) onto background traffic. Parts advance in
/// insertion order, so composed traces are deterministic.
#[derive(Default)]
pub struct CompositeWorkload {
    parts: Vec<Box<dyn Workload>>,
}

impl CompositeWorkload {
    pub fn new() -> CompositeWorkload {
        CompositeWorkload::default()
    }

    /// Adds a component workload.
    pub fn push(&mut self, w: Box<dyn Workload>) {
        self.parts.push(w);
    }
}

impl std::fmt::Debug for CompositeWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CompositeWorkload({} parts)", self.parts.len())
    }
}

impl Workload for CompositeWorkload {
    fn advance(&mut self, now: Time, dt: Dur) -> Vec<TrafficEvent> {
        let mut out = Vec::new();
        for w in &mut self.parts {
            out.extend(w.advance(now, dt));
        }
        out
    }
}

/// A pre-recorded timed trace replayed on the workload clock: each event
/// is emitted in the tick that covers its timestamp. This is how
/// externally captured or hand-scheduled traces (e.g. sub-ms microburst
/// schedules) are injected through the same path synthetic workloads
/// use.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    /// Time-sorted (stable, so same-instant events keep their order).
    events: Vec<(Time, TrafficEvent)>,
    cursor: usize,
}

impl TraceWorkload {
    pub fn new(mut events: Vec<(Time, TrafficEvent)>) -> TraceWorkload {
        events.sort_by_key(|(t, _)| *t);
        TraceWorkload { events, cursor: 0 }
    }
}

impl Workload for TraceWorkload {
    fn advance(&mut self, now: Time, dt: Dur) -> Vec<TrafficEvent> {
        let end = now + dt;
        let mut out = Vec::new();
        while let Some((t, e)) = self.events.get(self.cursor) {
            // Late events (before `now`) flush into the current tick
            // rather than being silently dropped.
            if *t >= end {
                break;
            }
            out.push(e.clone());
            self.cursor += 1;
        }
        out
    }
}

/// Runs a workload over `[Time::ZERO, until)` and records the timed
/// event trace it produced — the capture side of [`TraceWorkload`].
pub fn record_trace(w: &mut dyn Workload, until: Time, tick: Dur) -> Vec<(Time, TrafficEvent)> {
    assert!(!tick.is_zero(), "tick must be positive");
    let mut out = Vec::new();
    let mut now = Time::ZERO;
    while now < until {
        let step = tick.min(until.since(now));
        for e in w.advance(now, step) {
            out.push((now, e));
        }
        now += step;
    }
    out
}

/// Deterministic 1-in-N packet sampler (sFlow-style), carrying remainders
/// across ticks so long-run sampling rates are exact.
#[derive(Debug, Clone)]
pub struct PacketSampler {
    rate: u64,
    credit: u64,
}

impl PacketSampler {
    /// Samples one packet in every `rate` packets.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    pub fn new(rate: u64) -> PacketSampler {
        assert!(rate > 0, "sampling rate must be positive");
        PacketSampler { rate, credit: 0 }
    }

    /// Number of samples drawn from `packets` observed packets.
    pub fn sample(&mut self, packets: u64) -> u64 {
        self.credit += packets;
        let n = self.credit / self.rate;
        self.credit %= self.rate;
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hh_workload_has_requested_ratio() {
        let w = HeavyHitterWorkload::new(HhConfig {
            n_ports: 100,
            hh_ratio: 0.1,
            ..Default::default()
        });
        assert_eq!(w.heavy_ports().len(), 10);
    }

    #[test]
    fn hh_rates_separate_heavy_from_normal() {
        let mut w = HeavyHitterWorkload::new(HhConfig {
            n_ports: 10,
            hh_ratio: 0.1,
            ..Default::default()
        });
        let heavy = w.heavy_ports()[0];
        let events = w.advance(Time::ZERO, Dur::from_millis(10));
        let heavy_bytes = events
            .iter()
            .find(|e| e.tx_port == Some(heavy))
            .unwrap()
            .bytes;
        let normal_bytes = events
            .iter()
            .find(|e| e.tx_port != Some(heavy))
            .unwrap()
            .bytes;
        assert!(heavy_bytes > normal_bytes * 100);
    }

    #[test]
    fn hh_churn_reshuffles_heavy_set() {
        let cfg = HhConfig {
            n_ports: 200,
            hh_ratio: 0.05,
            churn_interval: Dur::from_secs(1),
            seed: 3,
            ..Default::default()
        };
        let mut w = HeavyHitterWorkload::new(cfg);
        let before = w.heavy_ports();
        w.advance(Time::from_secs(10), Dur::from_millis(1));
        let after = w.heavy_ports();
        assert_eq!(before.len(), after.len());
        assert_ne!(before, after, "heavy set should churn over 10 s");
    }

    #[test]
    fn hh_determinism_per_seed() {
        let mk = || {
            HeavyHitterWorkload::new(HhConfig {
                n_ports: 64,
                seed: 42,
                ..Default::default()
            })
        };
        assert_eq!(mk().heavy_ports(), mk().heavy_ports());
    }

    #[test]
    fn ddos_starts_at_onset() {
        let mut w = DdosWorkload::new(DdosConfig {
            onset: Time::from_secs(1),
            n_sources: 5,
            ..Default::default()
        });
        let before = w.advance(Time::from_millis(500), Dur::from_millis(100));
        assert_eq!(before.len(), 1, "only background before onset");
        let after = w.advance(Time::from_secs(2), Dur::from_millis(100));
        assert_eq!(after.len(), 6, "background + 5 sources after onset");
        // All attack flows hit the same victim from distinct sources.
        let victims: std::collections::HashSet<_> = after.iter().map(|e| e.flow.dst).collect();
        assert_eq!(victims.len(), 1);
        let sources: std::collections::HashSet<_> = after.iter().map(|e| e.flow.src).collect();
        assert_eq!(sources.len(), 6);
    }

    #[test]
    fn port_scan_sweeps_distinct_ports() {
        let mut w = PortScanWorkload::new(PortScanConfig {
            ports_per_sec: 1000,
            ..Default::default()
        });
        let events = w.advance(Time::ZERO, Dur::from_millis(100));
        assert_eq!(events.len(), 100);
        let ports: std::collections::HashSet<_> = events.iter().map(|e| e.flow.dst_port).collect();
        assert_eq!(ports.len(), 100, "every probe hits a fresh port");
        assert!(events.iter().all(|e| e.bytes == 64));
    }

    #[test]
    fn zipf_shares_sum_to_one_and_are_skewed() {
        let w = ZipfFlowWorkload::new(ZipfConfig {
            n_flows: 100,
            ..Default::default()
        });
        let total: f64 = w.flows.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(w.flows[0].1 > w.flows[99].1 * 10.0);
    }

    #[test]
    fn composite_merges_parts_in_order() {
        let mut c = CompositeWorkload::new();
        c.push(Box::new(PortScanWorkload::new(PortScanConfig {
            ports_per_sec: 100,
            ..Default::default()
        })));
        c.push(Box::new(DdosWorkload::new(DdosConfig {
            onset: Time::ZERO,
            n_sources: 3,
            ..Default::default()
        })));
        let events = c.advance(Time::ZERO, Dur::from_millis(100));
        // 10 scan probes, then background + 3 flood sources.
        assert_eq!(events.len(), 14);
        assert!(events[0].bytes == 64, "scan events come first");
    }

    #[test]
    fn trace_workload_replays_by_timestamp() {
        let ev = |ms: u64| {
            (
                Time::from_millis(ms),
                TrafficEvent {
                    switch: SwitchId(0),
                    rx_port: None,
                    tx_port: Some(PortId(0)),
                    flow: FlowKey::tcp(Ipv4::new(1, 1, 1, 1), 1, Ipv4::new(2, 2, 2, 2), 2),
                    bytes: ms,
                    packets: 1,
                },
            )
        };
        // Out of order on purpose: TraceWorkload sorts.
        let mut t = TraceWorkload::new(vec![ev(25), ev(5), ev(15)]);
        assert_eq!(t.cursor, 0);
        let first = t.advance(Time::ZERO, Dur::from_millis(10));
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].bytes, 5);
        let second = t.advance(Time::from_millis(10), Dur::from_millis(10));
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].bytes, 15);
        let third = t.advance(Time::from_millis(20), Dur::from_millis(10));
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].bytes, 25);
        assert_eq!(t.cursor, 3);
    }

    #[test]
    fn recorded_trace_replays_identically() {
        let mk = || {
            HeavyHitterWorkload::new(HhConfig {
                n_ports: 8,
                seed: 9,
                ..Default::default()
            })
        };
        let until = Time::from_millis(100);
        let tick = Dur::from_millis(10);
        let trace = record_trace(&mut mk(), until, tick);
        let mut replay = TraceWorkload::new(trace.clone());
        let mut live = mk();
        let mut now = Time::ZERO;
        while now < until {
            assert_eq!(replay.advance(now, tick), live.advance(now, tick));
            now += tick;
        }
    }

    #[test]
    fn sampler_is_exact_in_the_long_run() {
        let mut s = PacketSampler::new(128);
        let mut total = 0;
        for _ in 0..1000 {
            total += s.sample(100);
        }
        assert_eq!(total, 100_000 / 128);
    }
}
