//! Virtual time for the discrete-event simulator.
//!
//! All behavioural experiments in this reproduction run on virtual time so
//! results are deterministic and independent of host speed. [`Time`] is an
//! absolute instant (nanoseconds since simulation start) and [`Dur`] a span;
//! both are thin `u64` wrappers with saturating arithmetic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Absolute simulation instant in nanoseconds since start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Dur(pub u64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);

    /// Instant `s` seconds after start.
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// Instant `ms` milliseconds after start.
    pub const fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Nanoseconds since start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds since start (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span since an earlier instant (saturating at zero).
    pub fn since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// The empty span.
    pub const ZERO: Dur = Dur(0);

    /// Span of `s` seconds.
    pub const fn from_secs(s: u64) -> Dur {
        Dur(s * 1_000_000_000)
    }

    /// Span of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Dur {
        Dur(ms * 1_000_000)
    }

    /// Span of `us` microseconds.
    pub const fn from_micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    /// Span of `ns` nanoseconds.
    pub const fn from_nanos(ns: u64) -> Dur {
        Dur(ns)
    }

    /// Nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds in this span (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span from fractional seconds (clamped at zero).
    ///
    /// # Panics
    ///
    /// Panics if `s` is NaN or too large to represent.
    pub fn from_secs_f64(s: f64) -> Dur {
        assert!(!s.is_nan(), "NaN duration");
        assert!(s < u64::MAX as f64 / 1e9, "duration too large");
        Dur((s.max(0.0) * 1e9).round() as u64)
    }

    /// Scales the span by a non-negative factor.
    pub fn mul_f64(self, k: f64) -> Dur {
        Dur::from_secs_f64(self.as_secs_f64() * k)
    }

    /// True when the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    fn add(self, d: Dur) -> Time {
        Time(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Dur> for Time {
    fn add_assign(&mut self, d: Dur) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    fn sub(self, other: Time) -> Dur {
        self.since(other)
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    fn add(self, d: Dur) -> Dur {
        Dur(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Dur> for Dur {
    fn add_assign(&mut self, d: Dur) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<Dur> for Dur {
    type Output = Dur;
    fn sub(self, d: Dur) -> Dur {
        Dur(self.0.saturating_sub(d.0))
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Time::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(Dur::from_secs(2).as_millis(), 2000);
        assert!((Dur::from_secs_f64(0.25).as_secs_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(Time::ZERO.since(Time::from_secs(1)), Dur::ZERO);
        assert_eq!(Dur::from_millis(1) - Dur::from_millis(2), Dur::ZERO);
        let big = Time(u64::MAX);
        assert_eq!(big + Dur::from_secs(1), Time(u64::MAX));
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(Dur::from_nanos(17).to_string(), "17ns");
        assert_eq!(Dur::from_micros(4).to_string(), "4.000us");
        assert_eq!(Dur::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Dur::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn time_difference_is_duration() {
        let a = Time::from_millis(10);
        let b = Time::from_millis(25);
        assert_eq!(b - a, Dur::from_millis(15));
    }
}
