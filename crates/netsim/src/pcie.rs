//! PCIe bus model between the switch CPU and the ASIC.
//!
//! Fig. 8 of the paper identifies the PCIe bus as the main bottleneck of
//! M&M tasks: statistics polling over PCIe is limited to ~8 Mbit/s while
//! the ASIC forwards at 100 Gbit/s — a 1:12500 ratio. The model tracks
//! bytes requested over a window, reports utilization, and serves requests
//! with a queueing delay that explodes as utilization approaches capacity
//! (an M/M/1-style `base/(1-ρ)` law, capped for stability).

use farm_telemetry::{Event, Telemetry};

use crate::time::Dur;

/// Static PCIe/ASIC bandwidth description of a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcieSpec {
    /// Sustainable statistics-polling throughput over PCIe, bits/s.
    pub(crate) poll_capacity_bps: u64,
    /// ASIC forwarding bandwidth, bits/s (for the Fig. 8 ratio).
    pub(crate) asic_bps: u64,
}

impl PcieSpec {
    /// The configuration measured in the paper: 8 Mbit/s polling vs
    /// 100 Gbit/s ASIC.
    pub const fn measured() -> PcieSpec {
        PcieSpec {
            poll_capacity_bps: 8_000_000,
            asic_bps: 100_000_000_000,
        }
    }

    /// The paper's headline capacity ratio (≈ 12 500 for
    /// [`PcieSpec::measured`]).
    pub fn capacity_ratio(&self) -> f64 {
        self.asic_bps as f64 / self.poll_capacity_bps as f64
    }
}

/// Base service latency of a single small PCIe read when idle.
pub(crate) const PCIE_BASE_LATENCY: Dur = Dur::from_micros(10);

/// Tracks PCIe polling traffic over a measurement window.
#[derive(Debug, Clone)]
pub struct PcieBus {
    spec: PcieSpec,
    window: Dur,
    bytes_requested: u64,
    requests: u64,
    telemetry: Option<Telemetry>,
    /// Raw id of the owning switch, for event context.
    switch_id: u32,
    /// Congestion state at the last observation, to emit transitions only.
    was_congested: bool,
    /// Injected fault scaling: effective capacity = nominal × factor.
    degradation: f64,
}

impl PcieBus {
    /// A bus with a 1-second reporting window.
    pub(crate) fn new(spec: PcieSpec) -> PcieBus {
        PcieBus {
            spec,
            window: Dur::from_secs(1),
            bytes_requested: 0,
            requests: 0,
            telemetry: None,
            switch_id: 0,
            was_congested: false,
            degradation: 1.0,
        }
    }

    /// Attaches a telemetry handle; subsequent requests update the
    /// `pcie.*` counters and saturation transitions emit
    /// [`Event::PcieSaturation`] tagged with `switch_id`.
    pub(crate) fn set_telemetry(&mut self, telemetry: Telemetry, switch_id: u32) {
        self.telemetry = Some(telemetry);
        self.switch_id = switch_id;
    }

    /// Sets the measurement window.
    pub fn set_window(&mut self, window: Dur) {
        assert!(!window.is_zero(), "PCIe window must be non-zero");
        self.window = window;
    }

    /// Issues a polling transfer of `bytes` and returns its completion
    /// latency under the current load.
    pub fn request(&mut self, bytes: u64) -> Dur {
        self.bytes_requested += bytes;
        self.requests += 1;
        if let Some(t) = &self.telemetry {
            t.counter("pcie.requests").inc();
            t.counter("pcie.bytes").add(bytes);
        }
        self.observe_saturation();
        let transfer = Dur::from_secs_f64(bytes as f64 * 8.0 / self.effective_capacity_bps());
        PCIE_BASE_LATENCY + transfer + self.queueing_delay()
    }

    /// Scales the bus to `factor` × nominal capacity (an injected
    /// degradation fault). Clamped to `[0.01, 1.0]`; pass `1.0` to
    /// restore nominal bandwidth.
    pub fn set_degradation(&mut self, factor: f64) {
        self.degradation = factor.clamp(0.01, 1.0);
        self.observe_saturation();
    }

    /// Current degradation factor (`1.0` = healthy).
    pub(crate) fn degradation(&self) -> f64 {
        self.degradation
    }

    /// Capacity after degradation, bits/s.
    pub(crate) fn effective_capacity_bps(&self) -> f64 {
        self.spec.poll_capacity_bps as f64 * self.degradation
    }

    /// Emits a [`Event::PcieSaturation`] when the bus crosses the
    /// congestion threshold in either direction.
    fn observe_saturation(&mut self) {
        let congested = self.is_congested();
        if congested == self.was_congested {
            return;
        }
        self.was_congested = congested;
        if let Some(t) = &self.telemetry {
            if congested {
                t.counter("pcie.saturation_events").inc();
            }
            let utilization = self.utilization();
            let switch = self.switch_id;
            t.emit_with(|| Event::PcieSaturation {
                switch,
                utilization,
                saturated: congested,
            });
        }
    }

    /// Extra delay from contention: `base · ρ/(1-ρ)`, capped at 1000× base
    /// once the bus saturates.
    pub(crate) fn queueing_delay(&self) -> Dur {
        let rho = self.utilization().min(0.999);
        let factor = (rho / (1.0 - rho)).min(1000.0);
        PCIE_BASE_LATENCY.mul_f64(factor)
    }

    /// Offered polling load relative to capacity (1.0 = saturated; can
    /// exceed 1 when demand outstrips the bus).
    pub(crate) fn utilization(&self) -> f64 {
        let offered_bps = self.bytes_requested as f64 * 8.0 / self.window.as_secs_f64();
        offered_bps / self.effective_capacity_bps()
    }

    /// Utilization as a percentage (Fig. 8's y-axis).
    pub fn utilization_percent(&self) -> f64 {
        self.utilization() * 100.0
    }

    /// True when offered load exceeds 95 % of capacity.
    pub(crate) fn is_congested(&self) -> bool {
        self.utilization() > 0.95
    }

    /// Bytes requested in the current window.
    pub fn bytes_requested(&self) -> u64 {
        self.bytes_requested
    }

    /// Number of transfer requests in the current window.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Resets window counters (and reports saturation recovery if the
    /// previous window was congested).
    pub(crate) fn reset(&mut self) {
        self.bytes_requested = 0;
        self.requests = 0;
        self.observe_saturation();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_ratio_matches_paper() {
        assert!((PcieSpec::measured().capacity_ratio() - 12_500.0).abs() < 1e-9);
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let mut bus = PcieBus::new(PcieSpec::measured());
        // 8 Mbit/s capacity = 1 MB/s; request half of that.
        bus.request(500_000);
        assert!((bus.utilization() - 0.5).abs() < 1e-9);
        assert!(!bus.is_congested());
        bus.request(600_000);
        assert!(bus.utilization() > 1.0);
        assert!(bus.is_congested());
    }

    #[test]
    fn latency_grows_with_congestion() {
        let mut bus = PcieBus::new(PcieSpec::measured());
        let idle = bus.request(64);
        // Push the bus to ~99 % utilization.
        bus.request(980_000);
        let busy = bus.request(64);
        assert!(
            busy > idle,
            "latency under load ({busy}) must exceed idle latency ({idle})"
        );
    }

    #[test]
    fn queueing_delay_is_capped() {
        let mut bus = PcieBus::new(PcieSpec::measured());
        bus.request(100_000_000); // way past saturation
        assert!(bus.queueing_delay() <= PCIE_BASE_LATENCY.mul_f64(1000.0));
    }

    #[test]
    fn saturation_transitions_are_reported_once() {
        use farm_telemetry::RingBufferSink;
        use std::sync::Arc;

        let telemetry = Telemetry::new();
        let ring = Arc::new(RingBufferSink::new(16));
        telemetry.add_sink(ring.clone());
        let mut bus = PcieBus::new(PcieSpec::measured());
        bus.set_telemetry(telemetry.clone(), 7);

        bus.request(2_000_000); // way past saturation
        bus.request(64); // still saturated: no second event
        bus.reset(); // recovery

        let events: Vec<_> = ring
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::PcieSaturation {
                    switch, saturated, ..
                } => Some((switch, saturated)),
                _ => None,
            })
            .collect();
        assert_eq!(events, [(7, true), (7, false)]);
        assert_eq!(telemetry.snapshot().counter("pcie.saturation_events"), 1);
        assert_eq!(telemetry.snapshot().counter("pcie.requests"), 2);
    }

    #[test]
    fn degradation_scales_capacity_and_utilization() {
        let mut bus = PcieBus::new(PcieSpec::measured());
        bus.request(250_000); // 25 % of nominal
        assert!((bus.utilization() - 0.25).abs() < 1e-9);
        bus.set_degradation(0.25);
        // Same offered load, a quarter of the capacity.
        assert!((bus.utilization() - 1.0).abs() < 1e-9);
        assert!(bus.is_congested());
        bus.set_degradation(1.0);
        assert!(!bus.is_congested());
        // The clamp protects against zero/negative factors.
        bus.set_degradation(0.0);
        assert!((bus.degradation() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_window() {
        let mut bus = PcieBus::new(PcieSpec::measured());
        bus.request(1000);
        bus.reset();
        assert_eq!(bus.bytes_requested(), 0);
        assert_eq!(bus.requests(), 0);
        assert_eq!(bus.utilization(), 0.0);
    }
}
