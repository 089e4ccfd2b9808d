//! sFlow baseline (RFC 3176): collection-centric monitoring.
//!
//! Agents on every switch sample packets (1-in-N) and export port
//! counters on a fixed probing period; *all* analysis happens at a
//! logically centralized collector. This is the architecture whose
//! bandwidth and collector-CPU scaling FARM's Fig. 4/5 compare against:
//! export load grows linearly with the port count regardless of whether
//! anything interesting is happening.

use std::collections::HashMap;

use farm_netsim::network::{Network, TrafficEvent};
use farm_netsim::time::{Dur, Time};
use farm_netsim::traffic::PacketSampler;
use farm_netsim::types::{PortId, PortSel, SwitchId};

/// sFlow deployment parameters.
#[derive(Debug, Clone)]
pub struct SflowConfig {
    /// Counter-export (probing) period — the paper evaluates 1 ms and
    /// 10 ms variants against FARM, and the RFC-typical 100 ms for
    /// detection latency.
    pub counter_interval: Dur,
    /// 1-in-N packet sampling rate.
    pub sampling_rate: u64,
    /// Bytes per exported counter record.
    pub counter_record_bytes: u64,
    /// Bytes per packet-sample datagram.
    pub sample_bytes: u64,
    /// Collector HH threshold (bytes per interval scaled to bytes/s).
    pub hh_threshold_bps: u64,
    /// Collector CPU cost per processed record, cycles.
    pub collector_cycles_per_record: u64,
    /// Agent CPU cost per exported record/sample, cycles (sFlow agents
    /// are deliberately lightweight: sample-and-forward, no filtering).
    pub agent_cycles_per_record: u64,
}

impl Default for SflowConfig {
    fn default() -> Self {
        SflowConfig {
            counter_interval: Dur::from_millis(100),
            sampling_rate: 128,
            counter_record_bytes: 88,
            sample_bytes: 144,
            hh_threshold_bps: 1_000_000_000,
            collector_cycles_per_record: 4_000,
            agent_cycles_per_record: 1_200,
        }
    }
}

/// A heavy-hitter detection made by the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SflowDetection {
    pub at: Time,
    pub switch: SwitchId,
    pub port: PortId,
}

#[derive(Debug)]
struct Agent {
    switch: SwitchId,
    sampler: PacketSampler,
    next_export: Time,
}

/// The centralized collector's accounting.
#[derive(Debug, Default, Clone)]
pub struct CollectorStats {
    pub(crate) records_received: u64,
    pub(crate) samples_received: u64,
    pub bytes_received: u64,
    /// CPU cycles burned processing records.
    pub(crate) cpu_cycles: u64,
}

/// A full sFlow deployment over the simulated fabric.
#[derive(Debug)]
pub struct SflowSystem {
    cfg: SflowConfig,
    agents: Vec<Agent>,
    /// Collector-side last-seen tx counters per (switch, port).
    last_counters: HashMap<(SwitchId, PortId), u64>,
    pub collector: CollectorStats,
    pub detections: Vec<SflowDetection>,
    /// Ports currently flagged as heavy (for churn tracking).
    flagged: HashMap<(SwitchId, PortId), bool>,
}

impl SflowSystem {
    /// Deploys agents on the given switches.
    pub fn new(switches: &[SwitchId], cfg: SflowConfig) -> SflowSystem {
        let agents = switches
            .iter()
            .map(|&s| Agent {
                switch: s,
                sampler: PacketSampler::new(cfg.sampling_rate),
                next_export: Time::ZERO + cfg.counter_interval,
            })
            .collect();
        SflowSystem {
            cfg,
            agents,
            last_counters: HashMap::new(),
            collector: CollectorStats::default(),
            detections: Vec::new(),
            flagged: HashMap::new(),
        }
    }

    /// Offers the tick's traffic to the packet samplers (the sampled
    /// datagrams go straight to the collector).
    pub fn observe_traffic(&mut self, events: &[TrafficEvent], net: &mut Network) {
        for agent in &mut self.agents {
            let packets: u64 = events
                .iter()
                .filter(|e| e.switch == agent.switch)
                .map(|e| e.packets)
                .sum();
            let samples = agent.sampler.sample(packets);
            if samples > 0 {
                self.collector.samples_received += samples;
                self.collector.bytes_received += samples * self.cfg.sample_bytes;
                self.collector.cpu_cycles += samples * self.cfg.collector_cycles_per_record;
                if let Some(sw) = net.switch_mut(agent.switch) {
                    sw.cpu_mut()
                        .charge_cycles(samples * self.cfg.agent_cycles_per_record);
                }
            }
        }
    }

    /// Advances to `to`, exporting counters at every elapsed interval and
    /// running the collector's HH analysis.
    pub fn advance(&mut self, to: Time, net: &mut Network) {
        loop {
            let Some(due) = self.agents.iter().map(|a| a.next_export).min() else {
                return;
            };
            if due > to {
                return;
            }
            for ai in 0..self.agents.len() {
                if self.agents[ai].next_export > due {
                    continue;
                }
                let swid = self.agents[ai].switch;
                let interval = self.cfg.counter_interval;
                self.agents[ai].next_export = due + interval;
                let Some(sw) = net.switch_mut(swid) else {
                    continue;
                };
                // The agent reads counters (over the same PCIe path FARM
                // uses) and forwards one record per port — no filtering.
                let (stats, _latency) = sw.poll_ports(PortSel::Any);
                sw.cpu_mut()
                    .charge_cycles(stats.len() as u64 * self.cfg.agent_cycles_per_record);
                self.collector.records_received += stats.len() as u64;
                self.collector.bytes_received += stats.len() as u64 * self.cfg.counter_record_bytes;
                self.collector.cpu_cycles +=
                    stats.len() as u64 * self.cfg.collector_cycles_per_record;
                // Collector-side HH detection from counter deltas.
                let per_interval_threshold =
                    (self.cfg.hh_threshold_bps as f64 / 8.0 * interval.as_secs_f64()) as u64;
                for ps in stats {
                    let key = (swid, ps.port);
                    // Agents boot with the switch, so the first export's
                    // baseline is zero.
                    let prev = self.last_counters.insert(key, ps.counters.tx_bytes);
                    let delta = ps.counters.tx_bytes - prev.unwrap_or(0);
                    let was = self.flagged.get(&key).copied().unwrap_or(false);
                    let is_heavy = delta >= per_interval_threshold.max(1);
                    if is_heavy && !was {
                        self.detections.push(SflowDetection {
                            at: due,
                            switch: swid,
                            port: ps.port,
                        });
                    }
                    self.flagged.insert(key, is_heavy);
                }
            }
        }
    }

    /// First detection at or after `t` on a switch.
    pub fn first_detection_after(&self, t: Time, switch: SwitchId) -> Option<Time> {
        self.detections
            .iter()
            .filter(|d| d.switch == switch && d.at >= t)
            .map(|d| d.at)
            .min()
    }

    /// Export bandwidth in bits/s for a fabric with `total_ports` ports —
    /// the closed-form line of Fig. 4 (load is traffic-independent).
    pub fn export_bps(&self, total_ports: u64) -> f64 {
        total_ports as f64 * self.cfg.counter_record_bytes as f64 * 8.0
            / self.cfg.counter_interval.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_netsim::switch::SwitchModel;
    use farm_netsim::topology::Topology;
    use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig, Workload};

    fn rig() -> (Network, SwitchId) {
        let topo = Topology::spine_leaf(
            1,
            2,
            SwitchModel::test_model(16),
            SwitchModel::test_model(16),
        );
        let net = Network::new(topo);
        let leaf = net.topology().leaves().next().unwrap();
        (net, leaf)
    }

    #[test]
    fn detects_heavy_hitters_at_export_granularity() {
        let (mut net, leaf) = rig();
        let ids = net.switch_ids();
        let mut sflow = SflowSystem::new(
            &ids,
            SflowConfig {
                counter_interval: Dur::from_millis(100),
                hh_threshold_bps: 1_000_000_000,
                ..Default::default()
            },
        );
        let mut hh = HeavyHitterWorkload::new(HhConfig {
            switch: leaf,
            n_ports: 16,
            hh_ratio: 0.1,
            hh_rate_bps: 5_000_000_000,
            ..Default::default()
        });
        let tick = Dur::from_millis(10);
        let mut now = Time::ZERO;
        for _ in 0..30 {
            let events = hh.advance(now, tick);
            net.apply_traffic(&events);
            sflow.observe_traffic(&events, &mut net);
            now += tick;
            sflow.advance(now, &mut net);
        }
        let det = sflow.first_detection_after(Time::ZERO, leaf);
        assert!(det.is_some(), "sFlow must find the heavy port");
        // Detection cannot be faster than the export interval.
        assert!(det.unwrap() >= Time::from_millis(100));
    }

    #[test]
    fn export_load_scales_linearly_with_ports() {
        let cfg = SflowConfig {
            counter_interval: Dur::from_millis(10),
            ..Default::default()
        };
        let s = SflowSystem::new(&[SwitchId(0)], cfg);
        let at_100 = s.export_bps(100);
        let at_1000 = s.export_bps(1000);
        assert!((at_1000 / at_100 - 10.0).abs() < 1e-9);
        // 1 ms export is 10× the load of 10 ms export.
        let fast = SflowSystem::new(
            &[SwitchId(0)],
            SflowConfig {
                counter_interval: Dur::from_millis(1),
                ..Default::default()
            },
        );
        assert!((fast.export_bps(100) / at_100 - 10.0).abs() < 1e-9);
    }

    #[test]
    fn collector_pays_for_every_record() {
        let (mut net, leaf) = rig();
        let ids = net.switch_ids();
        let mut sflow = SflowSystem::new(&ids, SflowConfig::default());
        let mut hh = HeavyHitterWorkload::new(HhConfig {
            switch: leaf,
            n_ports: 16,
            ..Default::default()
        });
        let events = hh.advance(Time::ZERO, Dur::from_millis(200));
        net.apply_traffic(&events);
        sflow.observe_traffic(&events, &mut net);
        sflow.advance(Time::from_millis(200), &mut net);
        assert!(sflow.collector.records_received > 0);
        assert_eq!(
            sflow.collector.cpu_cycles,
            (sflow.collector.records_received + sflow.collector.samples_received)
                * SflowConfig::default().collector_cycles_per_record
        );
        // Agents burned switch CPU without any local analysis.
        assert!(net.switch(leaf).unwrap().cpu().busy() > Dur::ZERO);
    }

    #[test]
    fn sampling_respects_rate() {
        let (mut net, leaf) = rig();
        let mut sflow = SflowSystem::new(
            &[leaf],
            SflowConfig {
                sampling_rate: 100,
                ..Default::default()
            },
        );
        let events = vec![TrafficEvent {
            switch: leaf,
            rx_port: None,
            tx_port: Some(PortId(0)),
            flow: farm_netsim::types::FlowKey::tcp(
                farm_netsim::types::Ipv4::new(1, 1, 1, 1),
                1,
                farm_netsim::types::Ipv4::new(2, 2, 2, 2),
                2,
            ),
            bytes: 1_500_000,
            packets: 1000,
        }];
        net.apply_traffic(&events);
        sflow.observe_traffic(&events, &mut net);
        assert_eq!(sflow.collector.samples_received, 10);
    }
}
