//! End-to-end integration: several M&M tasks co-deployed on a fabric,
//! traffic flowing, seeds reacting locally, harvesters steering globally.

use std::collections::BTreeMap;

use farm_almanac::value::Value;
use farm_core::farm::{external, Farm, FarmConfig};
use farm_core::harvester::{CollectingHarvester, HhThresholdHarvester};
use farm_netsim::switch::SwitchModel;
use farm_netsim::tcam::RuleAction;
use farm_netsim::time::{Dur, Time};
use farm_netsim::topology::Topology;
use farm_netsim::traffic::{HeavyHitterWorkload, HhConfig};

fn fabric() -> Topology {
    Topology::spine_leaf(
        2,
        4,
        SwitchModel::accton_as7712(),
        SwitchModel::accton_as5712(),
    )
}

#[test]
fn hh_detection_reaction_and_harvester_reporting() {
    let mut farm = Farm::new(fabric(), FarmConfig::default());
    farm.set_harvester("hh", Box::new(CollectingHarvester::new()));
    farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
        .unwrap();
    let leaf = farm.network().topology().leaves().next().unwrap();
    let mut traffic = HeavyHitterWorkload::new(HhConfig {
        switch: leaf,
        n_ports: 48,
        hh_ratio: 0.1,
        hh_rate_bps: 5_000_000_000,
        ..Default::default()
    });
    let truth = traffic.heavy_ports();
    farm.run(
        &mut [&mut traffic],
        Time::from_millis(60),
        Dur::from_millis(1),
    );

    // Reports reached the harvester from the loaded leaf.
    let h: &CollectingHarvester = farm.harvester("hh").unwrap();
    assert!(h.received.iter().any(|m| m.from_switch == leaf));

    // Local reactions: a QoS rule for every ground-truth heavy port.
    let sw = farm.network().switch(leaf).unwrap();
    for p in &truth {
        let reacted = sw.tcam().rules().iter().any(|r| {
            r.action == RuleAction::SetQos(1)
                && r.pattern
                    == farm_netsim::types::FilterFormula::Atom(
                        farm_netsim::types::FilterAtom::IfPort(farm_netsim::types::PortSel::Id(
                            p.0,
                        )),
                    )
        });
        assert!(reacted, "no local reaction for heavy port {p}");
    }
    // No seed runtime errors anywhere.
    assert_eq!(farm.telemetry().snapshot().counter("farm.seed_errors"), 0);
}

#[test]
fn harvester_retunes_thresholds_network_wide() {
    let mut farm = Farm::new(fabric(), FarmConfig::default());
    let mut harvester = HhThresholdHarvester::new("HH", 1_000_000);
    harvester.max_hitters_per_report = 2;
    farm.set_harvester("hh", Box::new(harvester));
    // A low threshold makes many ports "heavy" → noisy reports → the
    // harvester must raise the threshold on every seed.
    let mut ext = BTreeMap::new();
    ext.insert(
        "HH".to_string(),
        external(&[("threshold", Value::Int(1_000))]),
    );
    farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &ext)
        .unwrap();
    let leaf = farm.network().topology().leaves().next().unwrap();
    let mut traffic = HeavyHitterWorkload::new(HhConfig {
        switch: leaf,
        n_ports: 48,
        hh_ratio: 0.2,
        ..Default::default()
    });
    farm.run(
        &mut [&mut traffic],
        Time::from_millis(50),
        Dur::from_millis(1),
    );

    let h: &HhThresholdHarvester = farm.harvester("hh").unwrap();
    assert!(h.retunes > 0, "harvester never retuned");
    let new_threshold = h.threshold();
    assert!(new_threshold > 1_000);
    // Every seed across the fabric received the new threshold.
    for id in farm.network().switch_ids() {
        let soil = farm.soil(id).unwrap();
        for seed in soil.seeds() {
            assert_eq!(
                seed.var("threshold"),
                Some(&Value::Int(new_threshold)),
                "seed on {id} missed the broadcast"
            );
        }
    }
}

#[test]
fn co_deployed_tasks_aggregate_polling_and_stay_isolated() {
    let mut farm = Farm::new(fabric(), FarmConfig::default());
    farm.set_harvester("hh", Box::new(CollectingHarvester::new()));
    farm.set_harvester("traffic-change", Box::new(CollectingHarvester::new()));
    farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
        .unwrap();
    farm.deploy_task(
        "traffic-change",
        farm_almanac::programs::TRAFFIC_CHANGE,
        &BTreeMap::new(),
    )
    .unwrap();
    let leaf = farm.network().topology().leaves().next().unwrap();
    let mut traffic = HeavyHitterWorkload::new(HhConfig {
        switch: leaf,
        n_ports: 48,
        ..Default::default()
    });
    farm.run(
        &mut [&mut traffic],
        Time::from_secs(3),
        Dur::from_millis(10),
    );

    // Aggregation: both tasks poll `port ANY`; the soils must have shared
    // ASIC transfers.
    let saved: u64 = farm
        .network()
        .switch_ids()
        .iter()
        .map(|id| farm.soil(*id).unwrap().stats().polls_saved)
        .sum();
    assert!(saved > 0, "no polls were aggregated across tasks");

    // Isolation: the traffic-change harvester receives stats from its own
    // machine only.
    let tc: &CollectingHarvester = farm.harvester("traffic-change").unwrap();
    assert!(!tc.received.is_empty());
    assert!(tc
        .received
        .iter()
        .all(|m| m.from_machine == "TrafficChange"));
    let hh: &CollectingHarvester = farm.harvester("hh").unwrap();
    assert!(hh.received.iter().all(|m| m.from_machine == "HH"));
}

#[test]
fn task_removal_releases_resources() {
    let mut farm = Farm::new(fabric(), FarmConfig::default());
    farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
        .unwrap();
    let before: usize = farm
        .network()
        .switch_ids()
        .iter()
        .map(|id| farm.soil(*id).unwrap().num_seeds())
        .sum();
    assert_eq!(before, 6);
    farm.remove_task("hh").unwrap();
    let after: usize = farm
        .network()
        .switch_ids()
        .iter()
        .map(|id| farm.soil(*id).unwrap().num_seeds())
        .sum();
    assert_eq!(after, 0);
    // Redeployment works after removal.
    farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
        .unwrap();
    assert_eq!(farm.deployed_seeds(), 6);
}

#[test]
fn deterministic_given_the_same_seed() {
    let run_once = || {
        let mut farm = Farm::new(fabric(), FarmConfig::default());
        farm.set_harvester("hh", Box::new(CollectingHarvester::new()));
        farm.deploy_task("hh", farm_almanac::programs::HEAVY_HITTER, &BTreeMap::new())
            .unwrap();
        let leaf = farm.network().topology().leaves().next().unwrap();
        let mut traffic = HeavyHitterWorkload::new(HhConfig {
            switch: leaf,
            n_ports: 32,
            hh_ratio: 0.1,
            seed: 99,
            ..Default::default()
        });
        farm.run(
            &mut [&mut traffic],
            Time::from_millis(30),
            Dur::from_millis(1),
        );
        let h: &CollectingHarvester = farm.harvester("hh").unwrap();
        (
            farm.telemetry().snapshot().counter("farm.collector_bytes"),
            h.received.len(),
            h.first_arrival_after(Time::ZERO),
        )
    };
    assert_eq!(
        run_once(),
        run_once(),
        "virtual-time runs must be reproducible"
    );
}
