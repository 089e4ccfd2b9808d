//! Fig. 4 — network load of HH detection vs fabric port count:
//! FARM vs sFlow (1 ms and 10 ms probing) vs Sonata (75 % aggregation).
//!
//! sFlow and Sonata are collection-centric: their export load is a closed
//! form, linear in the port count and independent of traffic. FARM is
//! selection-centric: seeds stay silent until the HH set changes (up to
//! once a minute, § VI-B b), so its load is measured by running the real
//! system through a churn event and amortizing the report burst over the
//! churn period.

use farm_baselines::{SflowConfig, SflowSystem, SonataConfig, SonataSystem};
use farm_core::harvester::CollectingHarvester;
use farm_netsim::switch::SwitchModel;
use farm_netsim::time::{Dur, Time};
use farm_netsim::topology::Topology;
use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig};
use farm_netsim::types::SwitchId;

use crate::support::{farm_with, hh_change_source_at, no_externals};

/// One curve point.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkLoadRow {
    pub ports: u64,
    pub farm_bps: f64,
    pub sflow_1ms_bps: f64,
    pub sflow_10ms_bps: f64,
    pub sonata_bps: f64,
}

/// Measures FARM's collector traffic for a fabric with `ports` monitored
/// ports, amortized over the HH churn interval.
pub(crate) fn farm_bps(ports: u64) -> f64 {
    // One big switch hosting all monitored ports keeps the experiment
    // focused on collector bandwidth (which is what Fig. 4 plots).
    let mut model = SwitchModel::accton_as5712();
    model.num_ports = ports.min(60_000) as u16;
    let topo = Topology::spine_leaf(1, 1, SwitchModel::accton_as7712(), model);
    let mut farm = farm_with(topo, Default::default());
    let leaf = farm.network().topology().leaves().next().unwrap();
    farm.set_harvester("hh", Box::new(CollectingHarvester::new()));
    farm.deploy_task(
        "hh",
        &hh_change_source_at(10, leaf.0, 100_000),
        &no_externals(),
    )
    .unwrap();
    let churn = Dur::from_millis(500);
    let mut hh = HeavyHitterWorkload::new(HhConfig {
        switch: leaf,
        n_ports: ports as u16,
        hh_ratio: 0.01,
        churn_interval: churn,
        hh_rate_bps: 5_000_000_000,
        ..Default::default()
    });
    // Run across two churn events; every report burst corresponds to one
    // HH-set change.
    farm.run(
        &mut [&mut hh],
        Time::from_millis(1100),
        Dur::from_millis(10),
    );
    let bytes = farm.telemetry().snapshot().counter("farm.collector_bytes") as f64;
    // Two churn windows observed; in production the set changes at most
    // once a minute, so the amortized rate is bytes-per-change / 60 s.
    let bytes_per_change = bytes / 2.0;
    bytes_per_change * 8.0 / 60.0
}

/// Runs the figure for the given port counts.
pub fn run(port_counts: &[u64]) -> Vec<NetworkLoadRow> {
    let sflow_1 = SflowSystem::new(
        &[SwitchId(0)],
        SflowConfig {
            counter_interval: Dur::from_millis(1),
            ..Default::default()
        },
    );
    let sflow_10 = SflowSystem::new(
        &[SwitchId(0)],
        SflowConfig {
            counter_interval: Dur::from_millis(10),
            ..Default::default()
        },
    );
    let sonata = SonataSystem::new(&[SwitchId(0)], SonataConfig::default());
    port_counts
        .iter()
        .map(|&ports| NetworkLoadRow {
            ports,
            farm_bps: farm_bps(ports),
            sflow_1ms_bps: sflow_1.export_bps(ports),
            sflow_10ms_bps: sflow_10.export_bps(ports),
            sonata_bps: sonata.export_bps(ports),
        })
        .collect()
}

/// Default port axis (quick mode).
pub const QUICK_PORTS: &[u64] = &[100, 500, 1000];
/// Full port axis.
pub const FULL_PORTS: &[u64] = &[100, 500, 1000, 2000, 4000];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farm_load_is_orders_of_magnitude_below_sflow() {
        let rows = run(&[200]);
        let r = &rows[0];
        assert!(
            r.farm_bps * 100.0 < r.sflow_1ms_bps,
            "FARM {} bps should be ≫100× below sFlow-1ms {} bps",
            r.farm_bps,
            r.sflow_1ms_bps
        );
        assert!(r.farm_bps * 10.0 < r.sonata_bps);
        assert!(r.sflow_10ms_bps * 10.0 <= r.sflow_1ms_bps + 1e-9);
    }

    #[test]
    fn collector_load_scales_linearly_for_collection_centric_systems() {
        let rows = run(&[100, 1000]);
        let ratio = rows[1].sflow_1ms_bps / rows[0].sflow_1ms_bps;
        assert!((ratio - 10.0).abs() < 1e-9);
        let sratio = rows[1].sonata_bps / rows[0].sonata_bps;
        assert!((sratio - 10.0).abs() < 1e-9);
        // FARM grows far sub-linearly in comparison (reports scale with
        // the number of *heavy* ports, which is 1 %).
        let fratio = rows[1].farm_bps / rows[0].farm_bps.max(1e-9);
        assert!(
            fratio < ratio,
            "FARM slope {fratio} must stay below collection-centric slope {ratio}"
        );
    }
}
