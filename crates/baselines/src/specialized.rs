//! Specialized link-utilization monitors: Planck and Helios.
//!
//! Both systems are purpose-built detectors the paper cites in Tab. 4 as
//! the fastest non-FARM baselines. They are not generic frameworks, so we
//! model them at the level the comparison needs: the structural latency
//! of their detection paths, parameterized by their published designs.
//!
//! * **Planck** (SIGCOMM'14): mirrors traffic through an oversubscribed
//!   monitoring port to a collector sampling at line rate; milliseconds-
//!   scale detection (≈ 4 ms at 10 Gb/s per the paper's Tab. 4).
//! * **Helios** (SIGCOMM'10): a hybrid electrical/optical architecture
//!   whose topology manager polls transceiver counters on a scheduling
//!   loop (≈ 77 ms detection in Tab. 4).

use farm_netsim::time::Dur;

/// Planck's detection path: mirror-port serialization + sampling window +
/// collector processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanckModel {
    /// Mirror-port drain/serialization delay.
    pub(crate) mirror_delay: Dur,
    /// Sampling window the collector needs to confirm a heavy flow.
    pub(crate) sample_window: Dur,
    /// Collector processing time.
    pub(crate) processing: Dur,
}

impl PlanckModel {
    /// The 10 Gb/s configuration of the paper's Tab. 4.
    pub fn at_10gbps() -> PlanckModel {
        PlanckModel {
            mirror_delay: Dur::from_micros(500),
            sample_window: Dur::from_millis(3),
            processing: Dur::from_micros(500),
        }
    }

    /// End-to-end detection latency.
    pub fn detection_latency(&self) -> Dur {
        self.mirror_delay + self.sample_window + self.processing
    }
}

/// Helios' detection path: transceiver counter polling on the topology
/// manager's scheduling loop plus demand estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeliosModel {
    /// Counter polling period of the topology manager.
    pub(crate) poll_period: Dur,
    /// Demand estimation + scheduling computation.
    pub(crate) estimation: Dur,
}

impl HeliosModel {
    /// The configuration matching the paper's Tab. 4 (≈ 77 ms).
    pub fn published() -> HeliosModel {
        HeliosModel {
            poll_period: Dur::from_millis(70),
            estimation: Dur::from_millis(7),
        }
    }

    /// End-to-end detection latency (worst case: a full polling period
    /// plus estimation).
    pub fn detection_latency(&self) -> Dur {
        self.poll_period + self.estimation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planck_is_in_the_milliseconds_band() {
        let lat = PlanckModel::at_10gbps().detection_latency();
        assert_eq!(lat.as_millis(), 4);
    }

    #[test]
    fn helios_matches_tab4() {
        let lat = HeliosModel::published().detection_latency();
        assert_eq!(lat.as_millis(), 77);
    }
}
