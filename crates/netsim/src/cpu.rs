//! Switch control-plane CPU model.
//!
//! The paper's Fig. 5/6/9 report switch CPU load as a percentage of one
//! core (so a quad-core switch saturates at 400 %). The model accumulates
//! busy nanoseconds charged by seeds/soil/agents since the last reset,
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
    /// Intel Atom C2538 quad-core 2.4 GHz (Accton AS5712/AS7712).
    pub(crate) const fn atom_4c() -> CpuSpec {
        CpuSpec {
            cores: 4,
            freq_hz: 2_400_000_000,
        }
    }

    /// Wall time one core needs to retire `cycles`.
    pub(crate) fn time_for_cycles(&self, cycles: u64) -> Dur {
        Dur::from_secs_f64(cycles as f64 / self.freq_hz as f64)
    }
}

/// Default cost of one context switch, in cycles (~5 µs at 2.4 GHz — the
/// usual control-plane ballpark including cache pollution).
pub(crate) const CONTEXT_SWITCH_CYCLES: u64 = 12_000;

/// Accumulates CPU busy time since the last [`CpuMeter::reset`].
#[derive(Debug, Clone)]
pub struct CpuMeter {
    spec: CpuSpec,
    busy: Dur,
}

impl CpuMeter {
    pub(crate) fn new(spec: CpuSpec) -> CpuMeter {
        CpuMeter {
            spec,
            busy: Dur::ZERO,
        }
    }

    /// The CPU this meter models.
    pub fn spec(&self) -> CpuSpec {
        self.spec
    }

    /// Charges `cycles` of work (converted via the core frequency).
    pub fn charge_cycles(&mut self, cycles: u64) {
        self.busy += self.spec.time_for_cycles(cycles);
    }

    /// Charges `n` context switches at the default per-switch cost.
    pub(crate) fn charge_context_switches(&mut self, n: u64) {
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

    /// Busy time accumulated since the last reset.
    pub fn busy(&self) -> Dur {
        self.busy
    }

    /// Load over a `window` that began at the last reset, as a
    /// percentage of *one core* (a 4-core switch tops out at 400 %),
    /// matching the paper's plots.
    pub fn load_percent(&self, window: Dur) -> f64 {
        self.busy.as_secs_f64() / window.as_secs_f64() * 100.0
    }

    /// Resets the busy time for the next window.
    pub fn reset(&mut self) {
        self.busy = Dur::ZERO;
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
        m.charge_cycles(6_000_000_000);
        // 2.5 s of work in a 1 s window: two and a half cores' worth.
        assert!((m.load_percent(Dur::from_secs(1)) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn context_switches_kick_in_above_core_count() {
        let mut m = CpuMeter::new(CpuSpec::atom_4c());
        m.schedule_round(4);
        assert_eq!(m.busy(), Dur::ZERO);
        m.schedule_round(10);
        assert_eq!(
            m.busy(),
            m.spec().time_for_cycles(6 * CONTEXT_SWITCH_CYCLES)
        );
    }

    #[test]
    fn reset_clears_window() {
        let mut m = CpuMeter::new(CpuSpec::atom_4c());
        m.charge_cycles(1_000_000);
        m.charge_context_switches(3);
        m.reset();
        assert_eq!(m.busy(), Dur::ZERO);
        assert_eq!(m.load_percent(Dur::from_secs(1)), 0.0);
    }

    #[test]
    fn window_scales_load() {
        let mut m = CpuMeter::new(CpuSpec::atom_4c());
        m.charge_cycles(120_000_000);
        assert!((m.load_percent(Dur::from_millis(100)) - 50.0).abs() < 1e-9);
    }
}
