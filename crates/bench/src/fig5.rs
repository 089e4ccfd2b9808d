//! Fig. 5 — switch CPU load of FARM vs sFlow while polling statistics
//! from a growing number of flows at 10 ms accuracy.
//!
//! sFlow's agent is a lightweight sample-and-forward pipeline: its CPU
//! cost follows the (fixed) traffic volume, not the number of monitored
//! flows. FARM analyzes the polled statistics on the switch, so its load
//! grows with the flow count — the price of local decision-making that
//! § VI-B c trades against not congesting the SDN control plane.

use farm_baselines::{SflowConfig, SflowSystem};
use farm_netsim::network::Network;
use farm_netsim::switch::SwitchModel;
use farm_netsim::time::{Dur, Time};
use farm_netsim::topology::Topology;
use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig, Workload};

use crate::support::{farm_with, hh_source_at, no_externals};

/// One curve point.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuLoadRow {
    pub flows: u64,
    pub farm_cpu_percent: f64,
    pub sflow_cpu_percent: f64,
}

const WINDOW: Dur = Dur::from_millis(1000);
/// Total traffic is fixed; flow count divides it (Fig. 5 isolates the
/// per-flow monitoring cost from the traffic volume).
const TOTAL_BPS: u64 = 40_000_000_000;

fn flows_topology(flows: u64) -> Topology {
    let mut model = SwitchModel::accton_as5712();
    model.num_ports = flows.min(60_000) as u16;
    Topology::spine_leaf(1, 1, SwitchModel::accton_as7712(), model)
}

fn traffic(switch: farm_netsim::types::SwitchId, flows: u64) -> HeavyHitterWorkload {
    HeavyHitterWorkload::new(HhConfig {
        switch,
        n_ports: flows as u16,
        hh_ratio: 0.01,
        normal_rate_bps: TOTAL_BPS / flows.max(1),
        hh_rate_bps: TOTAL_BPS / flows.max(1),
        churn_interval: Dur::from_secs(60),
        ..Default::default()
    })
}

/// Measures FARM's switch CPU at 10 ms accuracy over `flows` flows.
pub(crate) fn farm_cpu_percent(flows: u64) -> f64 {
    let topo = flows_topology(flows);
    let mut farm = farm_with(topo, Default::default());
    let leaf = farm.network().topology().leaves().next().unwrap();
    farm.deploy_task(
        "hh",
        &hh_source_at(10, leaf.0, i64::MAX / 4),
        &no_externals(),
    )
    .unwrap();
    let mut hh = traffic(leaf, flows);
    // Warm up, then measure one window.
    farm.run(&mut [&mut hh], Time::from_millis(100), Dur::from_millis(10));
    farm.switch_mut(leaf).unwrap().reset_meters();
    farm.run(
        &mut [&mut hh],
        Time::from_millis(100 + WINDOW.as_millis()),
        Dur::from_millis(10),
    );
    let sw = farm.network().switch(leaf).unwrap();
    sw.cpu().load_percent(WINDOW)
}

/// Measures sFlow's switch CPU under the same traffic and accuracy.
pub(crate) fn sflow_cpu_percent(flows: u64) -> f64 {
    let topo = flows_topology(flows);
    let mut net = Network::new(topo);
    let leaf = net.topology().leaves().next().unwrap();
    // At "equal monitoring accuracy", sFlow's per-flow visibility comes
    // from its packet sampling pipeline (counter export stays at the
    // RFC-typical 30 s and is negligible here). Sampling cost follows the
    // traffic volume — which Fig. 5 holds fixed — hence the flat line.
    let mut sflow = SflowSystem::new(
        &[leaf],
        SflowConfig {
            counter_interval: Dur::from_secs(30),
            sampling_rate: 16,
            agent_cycles_per_record: 5_000, // datagram assembly + UDP send
            ..Default::default()
        },
    );
    let mut hh = traffic(leaf, flows);
    let tick = Dur::from_millis(10);
    let mut now = Time::ZERO;
    // Warm up.
    while now < Time::from_millis(100) {
        let events = hh.advance(now, tick);
        net.apply_traffic(&events);
        sflow.observe_traffic(&events, &mut net);
        now += tick;
        sflow.advance(now, &mut net);
    }
    net.switch_mut(leaf).unwrap().reset_meters();
    let end = now + WINDOW;
    while now < end {
        let events = hh.advance(now, tick);
        net.apply_traffic(&events);
        sflow.observe_traffic(&events, &mut net);
        now += tick;
        sflow.advance(now, &mut net);
    }
    let sw = net.switch(leaf).unwrap();
    sw.cpu().load_percent(WINDOW)
}

/// Runs the figure.
pub fn run(flow_counts: &[u64]) -> Vec<CpuLoadRow> {
    flow_counts
        .iter()
        .map(|&flows| CpuLoadRow {
            flows,
            farm_cpu_percent: farm_cpu_percent(flows),
            sflow_cpu_percent: sflow_cpu_percent(flows),
        })
        .collect()
}

/// Quick axis.
pub const QUICK_FLOWS: &[u64] = &[100, 1000, 5000];
/// Full axis.
pub const FULL_FLOWS: &[u64] = &[100, 500, 1000, 5000, 10000];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farm_grows_with_flows_sflow_stays_flat() {
        let rows = run(&[100, 2000]);
        let farm_ratio = rows[1].farm_cpu_percent / rows[0].farm_cpu_percent.max(1e-9);
        let sflow_ratio = rows[1].sflow_cpu_percent / rows[0].sflow_cpu_percent.max(1e-9);
        assert!(
            farm_ratio > 3.0,
            "FARM CPU must grow with flows: {} → {}",
            rows[0].farm_cpu_percent,
            rows[1].farm_cpu_percent
        );
        assert!(
            sflow_ratio < 2.0,
            "sFlow CPU must stay near-flat: {} → {}",
            rows[0].sflow_cpu_percent,
            rows[1].sflow_cpu_percent
        );
    }
}
