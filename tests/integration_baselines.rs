//! Integration: FARM and the baselines observing the *same* traffic on
//! the *same* fabric — the comparisons behind Tab. 4 and Fig. 4.

use std::collections::BTreeMap;

use farm_baselines::{SflowConfig, SflowSystem, SonataConfig, SonataSystem};
use farm_core::farm::{Farm, FarmConfig};
use farm_core::harvester::CollectingHarvester;
use farm_netsim::network::Network;
use farm_netsim::switch::SwitchModel;
use farm_netsim::time::{Dur, Time};
use farm_netsim::topology::Topology;
use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig, Workload};

fn fabric() -> Topology {
    Topology::spine_leaf(
        2,
        4,
        SwitchModel::accton_as7712(),
        SwitchModel::accton_as5712(),
    )
}

fn hh_config(switch: farm_netsim::types::SwitchId) -> HhConfig {
    HhConfig {
        switch,
        n_ports: 48,
        hh_ratio: 0.05,
        hh_rate_bps: 5_000_000_000,
        seed: 7,
        ..Default::default()
    }
}

#[test]
fn farm_detects_before_every_baseline() {
    // FARM.
    let farm_ms = {
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        let leaf = farm.network().topology().leaves().next().unwrap();
        farm.set_harvester("hh", Box::new(CollectingHarvester::new()));
        let src = format!(
            r#"
machine HH {{
  place any {};
  poll p = Poll {{ .ival = 1, .what = port ANY }};
  list hot;
  state observe {{
    util (res) {{ if (res.vCPU >= 0) then {{ return 1; }} }}
    when (p as stats) do {{
      int i = 0;
      while (i < list_len(stats)) {{
        if (stat_tx_bytes(list_get(stats, i)) >= 100000) then {{
          list_push(hot, stat_port(list_get(stats, i)));
        }}
        i = i + 1;
      }}
      if (not is_list_empty(hot)) then {{
        send hot to harvester;
        list_clear(hot);
      }}
    }}
  }}
}}
"#,
            leaf.0
        );
        farm.deploy_task("hh", &src, &BTreeMap::new()).unwrap();
        let mut traffic = HeavyHitterWorkload::new(hh_config(leaf));
        farm.run(
            &mut [&mut traffic],
            Time::from_millis(100),
            Dur::from_millis(1),
        );
        let h: &CollectingHarvester = farm.harvester("hh").unwrap();
        h.first_arrival_after(Time::ZERO).unwrap().as_nanos() as f64 / 1e6
    };

    // sFlow on an identical fresh fabric.
    let sflow_ms = {
        let mut net = Network::new(fabric());
        let leaf = net.topology().leaves().next().unwrap();
        let ids = net.switch_ids();
        let mut sflow = SflowSystem::new(
            &ids,
            SflowConfig {
                counter_interval: Dur::from_millis(100),
                hh_threshold_bps: 800_000_000,
                ..Default::default()
            },
        );
        let mut traffic = HeavyHitterWorkload::new(hh_config(leaf));
        let mut now = Time::ZERO;
        while now < Time::from_secs(1) {
            let events = traffic.advance(now, Dur::from_millis(10));
            net.apply_traffic(&events);
            sflow.observe_traffic(&events, &mut net);
            now += Dur::from_millis(10);
            sflow.advance(now, &mut net);
        }
        sflow
            .first_detection_after(Time::ZERO, leaf)
            .unwrap()
            .as_nanos() as f64
            / 1e6
    };

    // Sonata on an identical fresh fabric.
    let sonata_ms = {
        let mut net = Network::new(fabric());
        let leaf = net.topology().leaves().next().unwrap();
        let ids = net.switch_ids();
        let mut sonata = SonataSystem::new(
            &ids,
            SonataConfig {
                hh_threshold_bps: 800_000_000,
                ..Default::default()
            },
        );
        let mut traffic = HeavyHitterWorkload::new(hh_config(leaf));
        let mut now = Time::ZERO;
        while now < Time::from_secs(8) {
            let events = traffic.advance(now, Dur::from_millis(50));
            net.apply_traffic(&events);
            sonata.observe_traffic(&events, &mut net);
            now += Dur::from_millis(50);
            sonata.advance(now);
        }
        sonata
            .first_detection_after(Time::ZERO, leaf)
            .unwrap()
            .as_nanos() as f64
            / 1e6
    };

    assert!(
        farm_ms < sflow_ms && sflow_ms < sonata_ms,
        "detection ordering: FARM {farm_ms} < sFlow {sflow_ms} < Sonata {sonata_ms}"
    );
    assert!(
        farm_ms < 5.0,
        "FARM must be in the millisecond band, got {farm_ms}"
    );
    assert!(
        sonata_ms / farm_ms > 500.0,
        "headline speedup must be orders of magnitude"
    );
}

#[test]
fn farm_collector_traffic_is_orders_of_magnitude_below_sflow() {
    // FARM with change-detecting HH.
    let farm_bytes = {
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        let leaf = farm.network().topology().leaves().next().unwrap();
        farm.set_harvester("hh", Box::new(CollectingHarvester::new()));
        farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
            .unwrap();
        let mut traffic = HeavyHitterWorkload::new(hh_config(leaf));
        farm.run(
            &mut [&mut traffic],
            Time::from_secs(1),
            Dur::from_millis(10),
        );
        farm.telemetry().snapshot().counter("farm.collector_bytes")
    };

    let sflow_bytes = {
        let mut net = Network::new(fabric());
        let leaf = net.topology().leaves().next().unwrap();
        let ids = net.switch_ids();
        let mut sflow = SflowSystem::new(
            &ids,
            SflowConfig {
                counter_interval: Dur::from_millis(10),
                ..Default::default()
            },
        );
        let mut traffic = HeavyHitterWorkload::new(hh_config(leaf));
        let mut now = Time::ZERO;
        while now < Time::from_secs(1) {
            let events = traffic.advance(now, Dur::from_millis(10));
            net.apply_traffic(&events);
            sflow.observe_traffic(&events, &mut net);
            now += Dur::from_millis(10);
            sflow.advance(now, &mut net);
        }
        sflow.collector.bytes_received
    };

    assert!(
        farm_bytes * 50 < sflow_bytes,
        "FARM {farm_bytes}B must be far below sFlow {sflow_bytes}B"
    );
}
