//! One control connection, timed: what `dc_churn` and `fed_read` drive
//! their daemons through. Replies are treated opaquely: only the
//! failure variants and the few fields the checks need are named, so
//! the benchmark keeps compiling when the reply set grows.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use farm_ctl::CtlClient;
use farm_net::{ControlOp, ControlReply, SeedDescriptor};

use super::{micros, Measured};
use crate::netprobe::CODEC_SAMPLES;

/// Generous on purpose: a paper-scale submit on a busy box must not
/// time out and count as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Ctl {
    client: CtlClient,
    /// Client-side latency of every op since [`Ctl::start_recording`],
    /// by `ControlOp::kind`.
    pub by_kind: BTreeMap<&'static str, Vec<f64>>,
    /// The first request/reply pairs since recording began, for the
    /// codec rows of a traced run.
    pub kept: Vec<(ControlOp, ControlReply)>,
    recording: bool,
}

impl Ctl {
    /// Connects; `None` when the daemon does not accept in time.
    pub fn connect(addr: SocketAddr) -> Option<Ctl> {
        let client = CtlClient::connect_as(addr, "farm-benchmark", REQUEST_TIMEOUT);
        client
            .wait_connected(Duration::from_secs(10))
            .then_some(Ctl {
                client,
                by_kind: BTreeMap::new(),
                kept: Vec::new(),
                recording: false,
            })
    }

    pub fn start_recording(&mut self) {
        self.recording = true;
    }

    /// Sends one op, counts it, and returns the reply (when it is not a
    /// failure) with the client-side latency in microseconds. A refusal,
    /// a compile failure, an error frame, a timeout or a dead connection
    /// all count as a failed op.
    pub fn op(&mut self, op: ControlOp, m: &mut Measured) -> (Option<ControlReply>, f64) {
        let kind = op.kind();
        let keep = self.recording && self.kept.len() < CODEC_SAMPLES;
        let kept_op = keep.then(|| op.clone());
        let started = Instant::now();
        let reply = self.client.op(op);
        let us = micros(started.elapsed());
        m.attempted += 1;
        if self.recording {
            self.by_kind.entry(kind).or_default().push(us);
        }
        let reply = match reply {
            Ok(ControlReply::Rejected { reason }) => {
                m.failed += 1;
                m.problems.push(format!("{kind} rejected: {reason}"));
                None
            }
            Ok(ControlReply::CompileFailed { diagnostics }) => {
                m.failed += 1;
                m.problems
                    .push(format!("{kind}: {} compile error(s)", diagnostics.len()));
                None
            }
            Ok(reply) => Some(reply),
            Err(e) => {
                m.failed += 1;
                m.problems.push(format!("{kind} failed: {e}"));
                None
            }
        };
        if let (Some(op), Some(reply)) = (kept_op, &reply) {
            self.kept.push((op, reply.clone()));
        }
        (reply, us)
    }

    /// Submits a program; true when it placed at least one seed.
    pub fn submit(&mut self, name: &str, source: &str, m: &mut Measured) -> (bool, f64) {
        let (reply, us) = self.op(
            ControlOp::SubmitProgram {
                name: name.to_string(),
                source: source.to_string(),
            },
            m,
        );
        let placed = matches!(reply, Some(ControlReply::Submitted { seeds, .. }) if seeds >= 1);
        if reply.is_some() && !placed {
            m.failed += 1;
            m.problems.push(format!("submit {name} placed no seed"));
        }
        (placed, us)
    }

    /// One `ListSeeds` page; `None` when the reply is not a listing.
    pub fn list(
        &mut self,
        from_index: u64,
        limit: u64,
        m: &mut Measured,
    ) -> (Option<(Vec<SeedDescriptor>, u64, u64)>, f64) {
        let (reply, us) = self.op(ControlOp::ListSeeds { from_index, limit }, m);
        match reply {
            Some(ControlReply::Seeds {
                seeds,
                next_index,
                total,
            }) => (Some((seeds, next_index, total)), us),
            Some(other) => {
                m.failed += 1;
                m.problems
                    .push(format!("list-seeds answered `{}`", other.kind()));
                (None, us)
            }
            None => (None, us),
        }
    }
}
