//! A tiny, dependency-free deterministic RNG.
//!
//! Fault injection must be *replayable*: the same plan seed has to yield
//! bit-identical fault schedules and loss decisions across runs and
//! platforms, so failures found under churn can be reproduced from a
//! single integer. SplitMix64 (Steele et al., "Fast splittable
//! pseudorandom number generators") is enough: statistically solid for
//! simulation, trivially portable, and stable forever — unlike external
//! RNG crates whose streams may change between versions.

/// SplitMix64 generator with convenience helpers for fault decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub(crate) fn new(seed: u64) -> DetRng {
        DetRng { state: seed }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        // 53 mantissa bits of the raw output.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "DetRng::below(0)");
        // Multiply-shift bound (Lemire); bias is negligible for the small
        // ranges fault plans draw from.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_yield_equal_streams() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn floats_stay_in_unit_interval() {
        let mut r = DetRng::new(7);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(9);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn chance_extremes_are_exact() {
        let mut r = DetRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
