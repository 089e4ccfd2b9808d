//! Sonata baseline: stream-processing telemetry.
//!
//! Sonata partially compiles queries into the data plane and offloads the
//! rest to a Spark Streaming backend; detection latency is dominated by
//! query windowing plus micro-batch scheduling and shuffle stages —
//! the source of the 3 427 ms HH figure in Tab. 4. Newton inherits the
//! same architecture and the same detection latency (it only loads
//! queries without a reboot, § VII), so it has no model of its own.
//! Because Sonata cannot merge
//! streams from several switches, its HH query is switch-local (noted in
//! the paper's Tab. 4 footnote); stream tuples still cross the network to
//! the stream processor, reduced by the achievable data-plane
//! aggregation factor (75 % at the paper's HH churn).

use std::collections::HashMap;

use farm_netsim::network::{Network, TrafficEvent};
use farm_netsim::time::{Dur, Time};
use farm_netsim::types::{PortId, SwitchId};

/// Sonata deployment parameters.
#[derive(Debug, Clone)]
pub struct SonataConfig {
    /// Query window length.
    pub window: Dur,
    /// Spark micro-batch interval (tuples wait for batch alignment).
    pub batch_interval: Dur,
    /// Number of shuffle/processing stages of the compiled query plan.
    pub stages: u32,
    /// Scheduling plus processing latency per stage.
    pub stage_latency: Dur,
    /// Fraction of tuples reduced in the data plane before export
    /// (paper: 0.75 is the best achievable with the HH ratio changing up
    /// to once a minute).
    pub aggregation_factor: f64,
    /// Bytes per exported stream tuple.
    pub tuple_bytes: u64,
    /// Collector HH threshold in bytes/s.
    pub hh_threshold_bps: u64,
    /// Packet mirroring rate to the stream pipeline (1-in-N); Sonata's
    /// switch-side bottleneck is the PCIe sampling path (§ VI-B c).
    pub mirror_rate: u64,
}

impl Default for SonataConfig {
    fn default() -> Self {
        SonataConfig {
            window: Dur::from_millis(1000),
            batch_interval: Dur::from_millis(500),
            stages: 4,
            stage_latency: Dur::from_millis(600),
            aggregation_factor: 0.75,
            tuple_bytes: 64,
            hh_threshold_bps: 1_000_000_000,
            mirror_rate: 64,
        }
    }
}

/// A detection produced by the stream backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SonataDetection {
    /// When the result left the last stage.
    pub at: Time,
    pub switch: SwitchId,
    pub port: PortId,
}

/// Stream-backend accounting.
#[derive(Debug, Default, Clone)]
pub(crate) struct StreamStats {
    pub(crate) tuples_received: u64,
    pub(crate) bytes_received: u64,
    pub(crate) batches: u64,
}

/// A Sonata deployment over the simulated fabric.
#[derive(Debug)]
pub struct SonataSystem {
    cfg: SonataConfig,
    /// Per (switch, port) bytes accumulated in the open window.
    window_bytes: HashMap<(SwitchId, PortId), u64>,
    window_close: Time,
    pub(crate) stream: StreamStats,
    pub detections: Vec<SonataDetection>,
    switches: Vec<SwitchId>,
}

impl SonataSystem {
    pub fn new(switches: &[SwitchId], cfg: SonataConfig) -> SonataSystem {
        SonataSystem {
            window_close: Time::ZERO + cfg.window,
            cfg,
            window_bytes: HashMap::new(),
            stream: StreamStats::default(),
            detections: Vec::new(),
            switches: switches.to_vec(),
        }
    }

    /// Feeds the tick's traffic into the per-window aggregation and
    /// charges the mirroring path (PCIe + switch CPU).
    pub fn observe_traffic(&mut self, events: &[TrafficEvent], net: &mut Network) {
        for e in events {
            if !self.switches.contains(&e.switch) {
                continue;
            }
            if let Some(port) = e.tx_port.or(e.rx_port) {
                *self.window_bytes.entry((e.switch, port)).or_insert(0) += e.bytes;
            }
            // Mirror a 1-in-N share of packets over PCIe to the streaming
            // pipeline.
            let mirrored = e.packets / self.cfg.mirror_rate;
            if mirrored > 0 {
                if let Some(sw) = net.switch_mut(e.switch) {
                    sw.pcie_mut().request(mirrored * 256);
                    sw.cpu_mut().charge_cycles(mirrored * 800);
                }
            }
        }
    }

    /// Advances to `to`, closing windows and emitting detections after
    /// the full pipeline latency.
    pub fn advance(&mut self, to: Time) {
        while self.window_close <= to {
            let close = self.window_close;
            let threshold =
                (self.cfg.hh_threshold_bps as f64 / 8.0 * self.cfg.window.as_secs_f64()) as u64;
            // Tuples exported to the stream backend, post data-plane
            // aggregation.
            let tuples = self.window_bytes.len() as u64;
            let exported = ((tuples as f64) * (1.0 - self.cfg.aggregation_factor)).ceil() as u64;
            self.stream.tuples_received += exported;
            self.stream.bytes_received += exported * self.cfg.tuple_bytes;
            self.stream.batches += 1;
            // Micro-batch alignment: the window's tuples wait for the next
            // batch boundary, then traverse the stages.
            let batch_ns = self.cfg.batch_interval.as_nanos().max(1);
            let aligned = close.as_nanos().div_ceil(batch_ns) * batch_ns;
            let done = Time(aligned)
                + Dur::from_nanos(self.cfg.stage_latency.as_nanos() * self.cfg.stages as u64);
            for (&(sw, port), &bytes) in &self.window_bytes {
                if bytes >= threshold.max(1) {
                    self.detections.push(SonataDetection {
                        at: done,
                        switch: sw,
                        port,
                    });
                }
            }
            self.window_bytes.clear();
            self.window_close = close + self.cfg.window;
        }
    }

    /// First detection completed at or after `t` for a heavy port whose
    /// traffic began at `t`.
    pub fn first_detection_after(&self, t: Time, switch: SwitchId) -> Option<Time> {
        self.detections
            .iter()
            .filter(|d| d.switch == switch && d.at >= t)
            .map(|d| d.at)
            .min()
    }

    /// Stream-export bandwidth in bits/s for `total_ports` active ports —
    /// the Fig. 4 Sonata line (post-aggregation tuple stream).
    pub fn export_bps(&self, total_ports: u64) -> f64 {
        let tuples_per_window = total_ports as f64 * (1.0 - self.cfg.aggregation_factor);
        tuples_per_window * self.cfg.tuple_bytes as f64 * 8.0 / self.cfg.window.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_netsim::switch::SwitchModel;
    use farm_netsim::topology::Topology;
    use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig, Workload};

    /// Window close straight into a batch, then the staged computation.
    fn min_latency(cfg: &SonataConfig) -> Dur {
        cfg.window + Dur::from_nanos(cfg.stage_latency.as_nanos() * cfg.stages as u64)
    }

    #[test]
    fn pipeline_latency_matches_tab4_regime() {
        // One heavy port in the first window: the result leaves the last
        // stage a window, a batch alignment and four stages later.
        let mut sonata = SonataSystem::new(&[SwitchId(0)], SonataConfig::default());
        sonata
            .window_bytes
            .insert((SwitchId(0), PortId(0)), u64::MAX);
        sonata.advance(Time::from_secs(1));
        let ms = sonata.detections[0].at.as_nanos() / 1_000_000;
        assert!(
            (3000..4000).contains(&ms),
            "Sonata pipeline should be in the ~3.4 s regime, got {ms} ms"
        );
        assert_eq!(
            sonata.detections[0].at,
            Time::ZERO + min_latency(&SonataConfig::default())
        );
    }

    #[test]
    fn detects_hh_only_after_the_pipeline() {
        let topo = Topology::spine_leaf(
            1,
            2,
            SwitchModel::test_model(16),
            SwitchModel::test_model(16),
        );
        let mut net = Network::new(topo);
        let leaf = net.topology().leaves().next().unwrap();
        let ids = net.switch_ids();
        let mut sonata = SonataSystem::new(&ids, SonataConfig::default());
        let mut hh = HeavyHitterWorkload::new(HhConfig {
            switch: leaf,
            n_ports: 16,
            hh_ratio: 0.1,
            hh_rate_bps: 5_000_000_000,
            ..Default::default()
        });
        let tick = Dur::from_millis(100);
        let mut now = Time::ZERO;
        while now < Time::from_secs(6) {
            let events = hh.advance(now, tick);
            net.apply_traffic(&events);
            sonata.observe_traffic(&events, &mut net);
            now += tick;
            sonata.advance(now);
        }
        let det = sonata.first_detection_after(Time::ZERO, leaf).unwrap();
        let expected_min = min_latency(&SonataConfig::default());
        assert!(
            det >= Time::ZERO + expected_min,
            "detection {det} earlier than the pipeline allows ({expected_min})"
        );
    }

    #[test]
    fn aggregation_factor_scales_export() {
        let full = SonataSystem::new(
            &[SwitchId(0)],
            SonataConfig {
                aggregation_factor: 0.0,
                ..Default::default()
            },
        );
        let reduced = SonataSystem::new(&[SwitchId(0)], SonataConfig::default());
        let ports = 1000;
        assert!(
            (full.export_bps(ports) * 0.25 - reduced.export_bps(ports)).abs() < 1e-6,
            "75% aggregation must cut export to a quarter"
        );
    }

    #[test]
    fn mirroring_pressures_the_pcie_bus() {
        let topo =
            Topology::spine_leaf(1, 1, SwitchModel::test_model(4), SwitchModel::test_model(4));
        let mut net = Network::new(topo);
        let leaf = net.topology().leaves().next().unwrap();
        let mut sonata = SonataSystem::new(&[leaf], SonataConfig::default());
        let events = vec![TrafficEvent {
            switch: leaf,
            rx_port: Some(PortId(0)),
            tx_port: None,
            flow: farm_netsim::types::FlowKey::udp(
                farm_netsim::types::Ipv4::new(1, 1, 1, 1),
                1,
                farm_netsim::types::Ipv4::new(2, 2, 2, 2),
                2,
            ),
            bytes: 150_000_000,
            packets: 100_000,
        }];
        net.apply_traffic(&events);
        sonata.observe_traffic(&events, &mut net);
        assert!(
            net.switch(leaf).unwrap().pcie().bytes_requested() > 0,
            "mirroring must consume PCIe budget"
        );
    }
}
