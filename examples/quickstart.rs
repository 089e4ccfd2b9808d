//! Quickstart: deploy the paper's heavy-hitter task on a simulated
//! spine-leaf fabric, drive traffic through it, and watch seeds react
//! locally while reporting to their harvester.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::collections::BTreeMap;

use farm_core::prelude::*;
use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig};

fn main() {
    // 1. A 2-spine / 4-leaf fabric of the paper's Accton switches, with
    //    the harvester registered up front via the builder.
    let topology = Topology::spine_leaf(
        2,
        4,
        SwitchModel::accton_as7712(),
        SwitchModel::accton_as5712(),
    );
    let mut farm = FarmBuilder::new(topology)
        .with_config(FarmConfig::default())
        .with_harvester("hh", Box::new(CollectingHarvester::new()))
        .build();

    // 2. Deploy the Tab. I heavy-hitter task — `place all` puts one seed
    //    on every switch, placement-optimized.
    let plan = farm
        .deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
        .expect("HH compiles and places");
    println!(
        "deployed {} seeds (placement utility {:.1})",
        plan.actions.len(),
        plan.result.utility
    );

    // 3. Heavy-hitter traffic on one leaf: 10% of 48 ports are heavy.
    let leaf = farm.network().topology().leaves().next().unwrap();
    let mut traffic = HeavyHitterWorkload::new(HhConfig {
        switch: leaf,
        n_ports: 48,
        hh_ratio: 0.1,
        hh_rate_bps: 5_000_000_000,
        ..Default::default()
    });
    println!("ground truth heavy ports: {:?}", traffic.heavy_ports());

    // 4. Run 100 ms of virtual time at 1 ms ticks.
    farm.run(
        &mut [&mut traffic],
        Time::from_millis(100),
        Dur::from_millis(1),
    );

    // 5. The seeds detected the hitters, installed TCAM reactions locally,
    //    and reported to the harvester.
    let harvester: &CollectingHarvester = farm.harvester("hh").unwrap();
    println!(
        "harvester received {} reports; first at {}",
        harvester.received.len(),
        harvester
            .first_arrival_after(Time::ZERO)
            .map(|t| t.to_string())
            .unwrap_or_else(|| "never".into())
    );
    let reactions = farm
        .network()
        .switch(leaf)
        .unwrap()
        .tcam()
        .rules()
        .iter()
        .filter(|r| r.priority == 10)
        .count();
    println!("local TCAM reactions installed on {leaf}: {reactions}");
    println!(
        "monitoring traffic to the collector: {} bytes in 100 ms",
        farm.telemetry().snapshot().counter("farm.collector_bytes")
    );
    if let Some(d) = farm
        .telemetry()
        .snapshot()
        .histogram("detection.latency_us")
    {
        println!(
            "detection latency: p50 {:.0} µs, p99 {:.0} µs over {} reports",
            d.p50.unwrap_or(0.0),
            d.p99.unwrap_or(0.0),
            d.count
        );
    }
}
