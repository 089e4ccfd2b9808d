//! Fig. 8 — the PCIe bus congests orders of magnitude before the ASIC:
//! statistics polling is limited to 8 Mbit/s while the ASIC forwards at
//! 100 Gbit/s (a 1:12500 ratio), which is what motivates the soil's
//! polling aggregation.

use farm_netsim::pcie::PcieSpec;
use farm_netsim::time::{Dur, Time};

use crate::support::{colocated, hh_source_at};
use farm_soil::SoilConfig;

/// One curve point: seeds polling TCAM statistics at 1 ms.
#[derive(Debug, Clone, PartialEq)]
pub struct PcieRow {
    pub seeds: usize,
    /// PCIe polling-path utilization without aggregation (%).
    pub pcie_unaggregated_percent: f64,
    /// PCIe utilization with the soil aggregating identical requests (%).
    pub pcie_aggregated_percent: f64,
    /// The same polled volume relative to ASIC bandwidth (%).
    pub asic_percent: f64,
}

const WINDOW_MS: u64 = 100;

fn measure(seeds: usize, aggregation: bool) -> f64 {
    let cfg = SoilConfig {
        aggregation,
        ..SoilConfig::default()
    };
    let (mut farm, leaf) = colocated(seeds, cfg, |leaf| hh_source_at(1, leaf, i64::MAX / 4));
    farm.switch_mut(leaf).unwrap().reset_meters();
    farm.switch_mut(leaf)
        .unwrap()
        .pcie_mut()
        .set_window(Dur::from_millis(WINDOW_MS));
    farm.advance(Time::from_millis(WINDOW_MS));
    farm.network()
        .switch(leaf)
        .unwrap()
        .pcie()
        .utilization_percent()
}

/// Runs the figure.
pub fn run(seed_counts: &[usize]) -> Vec<PcieRow> {
    let ratio = PcieSpec::measured().capacity_ratio();
    seed_counts
        .iter()
        .map(|&seeds| {
            let un = measure(seeds, false);
            let ag = measure(seeds, true);
            PcieRow {
                seeds,
                pcie_unaggregated_percent: un,
                pcie_aggregated_percent: ag,
                asic_percent: un / ratio,
            }
        })
        .collect()
}

/// Quick axis.
pub const QUICK_SEEDS: &[usize] = &[1, 4, 8];
/// Full axis.
pub const FULL_SEEDS: &[usize] = &[1, 2, 4, 8, 16, 32];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unaggregated_polling_congests_quickly() {
        let rows = run(&[1, 8]);
        assert!(
            rows[1].pcie_unaggregated_percent > rows[0].pcie_unaggregated_percent * 4.0,
            "polling load must grow with seeds: {} → {}",
            rows[0].pcie_unaggregated_percent,
            rows[1].pcie_unaggregated_percent
        );
        // Aggregation flattens the curve: 8 seeds share one transfer.
        assert!(
            rows[1].pcie_aggregated_percent < rows[1].pcie_unaggregated_percent / 4.0,
            "aggregation must collapse identical requests: {} vs {}",
            rows[1].pcie_aggregated_percent,
            rows[1].pcie_unaggregated_percent
        );
    }

    #[test]
    fn asic_headroom_is_four_orders_of_magnitude() {
        let rows = run(&[8]);
        let r = &rows[0];
        assert!(r.asic_percent * 10_000.0 <= r.pcie_unaggregated_percent * 1.01);
    }
}
