//! Lossy control-channel model.
//!
//! The management network between switches and the seeder/harvesters is
//! not assumed reliable: reports can be dropped, delayed or duplicated.
//! [`LossSpec`] describes the impairment; [`LossModel`] rolls the
//! per-message dice from a deterministic stream so an impaired run is
//! replayable end to end.

use farm_netsim::time::Dur;

use rand::{RngExt, SeedableRng, SplitMix64};

/// Impairment parameters of a control channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossSpec {
    /// Probability a delivery attempt is dropped, `[0, 1]`.
    pub drop: f64,
    /// Probability a delivered message arrives twice, `[0, 1]`.
    pub duplicate: f64,
    /// Extra one-way latency added to every delivered message.
    pub delay: Dur,
}

impl LossSpec {
    /// A perfectly healthy channel.
    pub(crate) const HEALTHY: LossSpec = LossSpec {
        drop: 0.0,
        duplicate: 0.0,
        delay: Dur::ZERO,
    };

    /// Pure loss with the given drop probability.
    pub fn dropping(drop: f64) -> LossSpec {
        LossSpec {
            drop,
            ..LossSpec::HEALTHY
        }
    }
}

impl Default for LossSpec {
    fn default() -> Self {
        LossSpec::HEALTHY
    }
}

/// Outcome of one delivery attempt over a lossy channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// The attempt was dropped in transit.
    Dropped,
    /// The message arrives `copies` times after `delay`.
    Delivered {
        /// 1 normally, 2 when the channel duplicated the message.
        copies: u8,
    },
}

/// A [`LossSpec`] paired with its own deterministic decision stream.
#[derive(Debug, Clone, PartialEq)]
pub struct LossModel {
    spec: LossSpec,
    rng: SplitMix64,
}

impl LossModel {
    /// A model rolling decisions from `seed`.
    pub fn new(spec: LossSpec, seed: u64) -> LossModel {
        LossModel {
            spec,
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// Rolls the fate of one delivery attempt.
    pub fn roll(&mut self) -> Delivery {
        if self.rng.random_bool(self.spec.drop) {
            return Delivery::Dropped;
        }
        let copies = if self.rng.random_bool(self.spec.duplicate) {
            2
        } else {
            1
        };
        Delivery::Delivered { copies }
    }

    /// Extra latency applied to delivered messages.
    pub fn delay(&self) -> Dur {
        self.spec.delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_channel_delivers_everything_once() {
        let mut m = LossModel::new(LossSpec::HEALTHY, 3);
        for _ in 0..100 {
            assert_eq!(m.roll(), Delivery::Delivered { copies: 1 });
        }
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut m = LossModel::new(LossSpec::dropping(1.0), 3);
        for _ in 0..100 {
            assert_eq!(m.roll(), Delivery::Dropped);
        }
    }

    #[test]
    fn drop_rate_is_roughly_respected() {
        let mut m = LossModel::new(LossSpec::dropping(0.3), 99);
        let drops = (0..10_000)
            .filter(|_| m.roll() == Delivery::Dropped)
            .count();
        assert!((2_500..3_500).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn same_seed_same_decisions() {
        let spec = LossSpec {
            drop: 0.4,
            duplicate: 0.2,
            delay: Dur::from_micros(50),
        };
        let mut a = LossModel::new(spec, 1234);
        let mut b = LossModel::new(spec, 1234);
        for _ in 0..200 {
            assert_eq!(a.roll(), b.roll());
        }
    }
}
