//! Switch control-plane CPU model.
//!
//! The paper's Fig. 5/6/9 report switch CPU load as a percentage of one
//! core (so a quad-core switch saturates at 400 %). The model accumulates
//! busy nanoseconds charged by seeds/soil/agents over a measurement window,
//! adds context-switch overhead when more runnable tasks than cores exist
//! (the effect behind Fig. 6c's 150 % jump for parallel ML seeds), and
//! reports load as `busy / window · 100`.

use crate::time::Dur;

/// Static description of a switch CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSpec {
    /// Physical cores.
    pub cores: u32,
    /// Core frequency in Hz (cycles per second per core).
    pub freq_hz: u64,
}

impl CpuSpec {
    /// Intel Xeon 8-core 2.6 GHz (APS BF2556X-1T).
    pub const fn xeon_8c() -> CpuSpec {
        CpuSpec {
            cores: 8,
            freq_hz: 2_600_000_000,
        }
    }

    /// Intel Atom C2538 quad-core 2.4 GHz (Accton AS5712/AS7712).
    pub const fn atom_4c() -> CpuSpec {
        CpuSpec {
            cores: 4,
            freq_hz: 2_400_000_000,
        }
    }

    /// AMD GX-424CC quad-core 2.4 GHz (Arista 7280QRA-C36S).
    pub const fn amd_gx_4c() -> CpuSpec {
        CpuSpec {
            cores: 4,
            freq_hz: 2_400_000_000,
        }
    }

    /// Wall time one core needs to retire `cycles`.
    pub fn time_for_cycles(&self, cycles: u64) -> Dur {
        Dur::from_secs_f64(cycles as f64 / self.freq_hz as f64)
    }
}

/// Default cost of one context switch, in cycles (~5 µs at 2.4 GHz — the
/// usual control-plane ballpark including cache pollution).
pub const CONTEXT_SWITCH_CYCLES: u64 = 12_000;

/// Accumulates CPU busy time over a measurement window.
#[derive(Debug, Clone)]
pub struct CpuMeter {
    spec: CpuSpec,
    busy: Dur,
    context_switches: u64,
    window: Dur,
}

impl CpuMeter {
    /// A meter with a 1-second reporting window.
    pub fn new(spec: CpuSpec) -> CpuMeter {
        CpuMeter {
            spec,
            busy: Dur::ZERO,
            context_switches: 0,
            window: Dur::from_secs(1),
        }
    }

    /// The CPU this meter models.
    pub fn spec(&self) -> CpuSpec {
        self.spec
    }

    /// Sets the measurement window used by [`CpuMeter::load_percent`].
    pub fn set_window(&mut self, window: Dur) {
        assert!(!window.is_zero(), "CPU window must be non-zero");
        self.window = window;
    }

    /// Charges `cycles` of work (converted via the core frequency).
    pub fn charge_cycles(&mut self, cycles: u64) {
        self.busy += self.spec.time_for_cycles(cycles);
    }

    /// Charges an explicit busy span.
    pub fn charge(&mut self, d: Dur) {
        self.busy += d;
    }

    /// Charges `n` context switches at the default per-switch cost.
    pub fn charge_context_switches(&mut self, n: u64) {
        self.context_switches += n;
        self.busy += self.spec.time_for_cycles(n * CONTEXT_SWITCH_CYCLES);
    }

    /// Context-switch overhead for scheduling `tasks` runnable entities
    /// once per scheduling round: below the core count switching is ~free,
    /// above it every surplus task forces a switch.
    pub fn schedule_round(&mut self, tasks: u64) {
        let cores = self.spec.cores as u64;
        if tasks > cores {
            self.charge_context_switches(tasks - cores);
        }
    }

    /// Busy time accumulated in the current window.
    pub fn busy(&self) -> Dur {
        self.busy
    }

    /// Number of context switches charged in the current window.
    pub fn context_switches(&self) -> u64 {
        self.context_switches
    }

    /// Load over the window as a percentage of *one core* (a 4-core switch
    /// tops out at 400 %), matching the paper's plots.
    pub fn load_percent(&self) -> f64 {
        self.busy.as_secs_f64() / self.window.as_secs_f64() * 100.0
    }

    /// True when demanded work exceeds what all cores can retire in the
    /// window.
    pub fn saturated(&self) -> bool {
        self.load_percent() > self.spec.cores as f64 * 100.0
    }

    /// Resets counters for the next window.
    pub fn reset(&mut self) {
        self.busy = Dur::ZERO;
        self.context_switches = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_convert_to_time() {
        let spec = CpuSpec::atom_4c();
        let d = spec.time_for_cycles(2_400_000_000);
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn load_is_relative_to_one_core() {
        let mut m = CpuMeter::new(CpuSpec::atom_4c());
        m.charge(Dur::from_millis(2500));
        assert!((m.load_percent() - 250.0).abs() < 1e-9);
        assert!(!m.saturated()); // 250% < 400%
        m.charge(Dur::from_millis(2000));
        assert!(m.saturated()); // 450% > 400%
    }

    #[test]
    fn context_switches_kick_in_above_core_count() {
        let mut m = CpuMeter::new(CpuSpec::atom_4c());
        m.schedule_round(4);
        assert_eq!(m.context_switches(), 0);
        m.schedule_round(10);
        assert_eq!(m.context_switches(), 6);
        assert!(m.busy() > Dur::ZERO);
    }

    #[test]
    fn reset_clears_window() {
        let mut m = CpuMeter::new(CpuSpec::xeon_8c());
        m.charge_cycles(1_000_000);
        m.charge_context_switches(3);
        m.reset();
        assert_eq!(m.busy(), Dur::ZERO);
        assert_eq!(m.context_switches(), 0);
        assert_eq!(m.load_percent(), 0.0);
    }

    #[test]
    fn window_scales_load() {
        let mut m = CpuMeter::new(CpuSpec::atom_4c());
        m.set_window(Dur::from_millis(100));
        m.charge(Dur::from_millis(50));
        assert!((m.load_percent() - 50.0).abs() < 1e-9);
    }
}
