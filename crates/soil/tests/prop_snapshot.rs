//! Property: a soil-level undeploy → import round trip is lossless.
//!
//! Whatever state an HH seed accumulated — state machine position,
//! variables (threshold, detected hitters), trigger schedule, resource
//! accounting — survives migration to a fresh soil, and the source soil
//! is left fully clean. This is the invariant FARM's crash recovery
//! leans on when it restores orphans from their last checkpoint.

use farm_almanac::value::Value;
use farm_netsim::switch::{Resources, SwitchModel};
use farm_netsim::time::{Dur, Time};
use farm_netsim::types::{FlowKey, Ipv4, PortId};
use farm_telemetry::UndeployReason;
use proptest::prelude::*;

#[path = "util/rig.rs"]
mod rig;
use rig::{compile, rig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn undeploy_import_round_trip_is_lossless(
        pcie in 1u32..=20,
        threshold in 1i64..2_000_000,
        volumes in proptest::collection::vec(1u64..5_000_000, 1..8),
        migrate_after_ms in 1u64..40,
    ) {
        let def = compile(farm_almanac::programs::HEAVY_HITTER, "HH");
        let alloc = Resources::new(2.0, 512.0, 16.0, f64::from(pcie));

        // Deploy on soil A, retune the threshold, and let the seed run
        // over arbitrary per-port traffic so it accumulates real state.
        let (mut soil_a, mut switch_a) = rig(0, SwitchModel::test_model(8));
        let (id, _) = soil_a
            .deploy(def.clone(), "hh", alloc, Time::ZERO, &mut switch_a)
            .unwrap();
        soil_a.deliver_to_machine("HH", None, &Value::Int(threshold), Time::ZERO, &mut switch_a);
        let mut now = Time::ZERO;
        for (i, &bytes) in volumes.iter().enumerate() {
            let flow = FlowKey::tcp(
                Ipv4::new(10, 0, 0, 1),
                1000 + i as u16,
                Ipv4::new(10, 1, 0, 1),
                80,
            );
            switch_a.record_traffic(&flow, None, Some(PortId(i as u16)), bytes, bytes / 1500 + 1);
            now += Dur::from_millis(1);
            soil_a.advance(now, &mut switch_a);
        }

        // Resource accounting while deployed is exactly the allocation.
        prop_assert_eq!(soil_a.resources_in_use(), alloc);
        let interval_a = soil_a.trigger_interval_ms(id, "pollStats").unwrap();
        let rate_a = soil_a.poll_rate_per_sec();
        let seed_a = soil_a.seed(id).unwrap();
        let state_a = seed_a.state().to_string();
        let vars_a = seed_a.snapshot().vars;

        let migrate_at = now + Dur::from_millis(migrate_after_ms);
        let snap = soil_a
            .undeploy(id, UndeployReason::Migration, now, &mut switch_a)
            .unwrap();

        // The source soil forgets the seed entirely: no residual seeds,
        // no claimed resources, no scheduled polling.
        prop_assert_eq!(soil_a.num_seeds(), 0);
        prop_assert_eq!(soil_a.resources_in_use(), Resources::ZERO);
        prop_assert_eq!(soil_a.poll_rate_per_sec(), 0.0);
        prop_assert!(soil_a.seed(id).is_none());

        // Import on a fresh soil B.
        let (mut soil_b, mut switch_b) = rig(1, SwitchModel::test_model(8));
        let (new_id, _) = soil_b
            .import(def, "hh", alloc, &snap, migrate_at, &mut switch_b)
            .unwrap();

        // State machine position and every variable are preserved.
        let seed_b = soil_b.seed(new_id).unwrap();
        prop_assert_eq!(seed_b.state(), state_a.as_str());
        prop_assert_eq!(seed_b.snapshot().vars, vars_a);

        // Trigger deadlines: the same allocation yields the same poll
        // interval and aggregate polling rate on the new soil...
        let interval_b = soil_b.trigger_interval_ms(new_id, "pollStats").unwrap();
        prop_assert!((interval_b - interval_a).abs() < 1e-9);
        prop_assert!((soil_b.poll_rate_per_sec() - rate_a).abs() < 1e-9);
        // ...and the next poll is due within one interval of the import
        // instant, not rescheduled from zero.
        let one_ival = Dur::from_secs_f64(interval_b / 1000.0);
        let report = soil_b.advance(migrate_at + one_ival + Dur::from_millis(1), &mut switch_b);
        prop_assert!(report.asic_polls >= 1, "migrated trigger never fired");
        prop_assert_eq!(report.errors, vec![]);

        // Resource accounting transferred with the seed.
        prop_assert_eq!(soil_b.resources_in_use(), alloc);
    }
}
