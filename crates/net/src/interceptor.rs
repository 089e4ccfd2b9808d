//! Pluggable send-path interceptors.
//!
//! An [`Interceptor`] sits between a connection's caller and its
//! socket: every outgoing frame is offered to it and the returned
//! [`Verdict`] decides whether the frame is written once, several
//! times (duplication), after a delay, or not at all. This is how
//! `farm-faults`' [`LossModel`] applies to *real* wire traffic instead
//! of only to the simulated delivery path.

use std::time::Duration;

use farm_faults::{Delivery, LossModel, LossSpec};

use crate::frame::Envelope;

/// Fate of one outgoing frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Write the frame `copies` times after waiting `delay`.
    Deliver { copies: u8, delay: Duration },
    /// Silently discard the frame.
    Drop,
}

impl Verdict {
    /// The common case: one copy, no delay.
    pub(crate) const PASS: Verdict = Verdict::Deliver {
        copies: 1,
        delay: Duration::ZERO,
    };
}

/// Decides the fate of outgoing frames. Implementations run under the
/// connection's mutex, on whichever thread is sending, so they may keep
/// mutable state without locking.
pub trait Interceptor: Send {
    fn on_send(&mut self, env: &Envelope) -> Verdict;
}

/// Lets everything through untouched.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Passthrough;

impl Interceptor for Passthrough {
    fn on_send(&mut self, _env: &Envelope) -> Verdict {
        Verdict::PASS
    }
}

/// Applies a deterministic [`LossModel`] to real frames: drops,
/// duplicates and delays exactly as the simulated control channel
/// would, from the same seeded decision stream.
#[derive(Debug)]
pub struct LossInterceptor {
    model: LossModel,
    /// Responses are never impaired by default so request/response
    /// benchmarking measures forward-path loss only.
    pub(crate) impair_responses: bool,
}

impl LossInterceptor {
    pub(crate) fn new(model: LossModel) -> LossInterceptor {
        LossInterceptor {
            model,
            impair_responses: false,
        }
    }

    /// Convenience: a fresh model from spec + seed.
    pub fn from_spec(spec: LossSpec, seed: u64) -> LossInterceptor {
        LossInterceptor::new(LossModel::new(spec, seed))
    }
}

impl Interceptor for LossInterceptor {
    fn on_send(&mut self, env: &Envelope) -> Verdict {
        if env.response && !self.impair_responses {
            return Verdict::PASS;
        }
        match self.model.roll() {
            Delivery::Dropped => Verdict::Drop,
            Delivery::Delivered { copies } => Verdict::Deliver {
                copies,
                delay: Duration::from_nanos(self.model.delay().as_nanos()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;

    fn hb() -> Envelope {
        Envelope::one_way(Frame::Heartbeat {
            switch: 0,
            seq: 0,
            at_ns: 0,
        })
    }

    #[test]
    fn passthrough_never_impairs() {
        let mut p = Passthrough;
        assert_eq!(p.on_send(&hb()), Verdict::PASS);
    }

    #[test]
    fn full_loss_drops_every_frame() {
        let mut i = LossInterceptor::from_spec(LossSpec::dropping(1.0), 1);
        for _ in 0..32 {
            assert_eq!(i.on_send(&hb()), Verdict::Drop);
        }
    }

    #[test]
    fn responses_pass_a_lossy_link_by_default() {
        let mut i = LossInterceptor::from_spec(LossSpec::dropping(1.0), 1);
        let resp = Envelope::response(5, Frame::Ack);
        assert_eq!(i.on_send(&resp), Verdict::PASS);
    }

    #[test]
    fn same_seed_same_fate_sequence() {
        let spec = LossSpec {
            drop: 0.4,
            duplicate: 0.3,
            delay: farm_netsim::time::Dur::from_micros(10),
        };
        let mut a = LossInterceptor::from_spec(spec, 99);
        let mut b = LossInterceptor::from_spec(spec, 99);
        for _ in 0..128 {
            assert_eq!(a.on_send(&hb()), b.on_send(&hb()));
        }
    }
}
