//! The transport measured alone, for the `net.*` per-layer rows: a
//! heartbeat round trip over a bare `NetServer` + `Connection`, and the
//! frame codec over a workload's own request and reply frames.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_net::{
    decode_envelope, encode_envelope, Connection, ControlOp, ControlReply, Envelope, Frame,
    NetConfig, NetServer,
};
use farm_telemetry::{Snapshot, Telemetry};

use crate::stats::median;
use crate::workloads::{micros, Measured};

/// Round trips timed for `net.rtt_us_p50`.
const RTT_SAMPLES: usize = 2_000;
/// Request/reply pairs a workload keeps for the codec rows.
pub const CODEC_SAMPLES: usize = 256;
/// Passes over the kept frames, so small frames still time above the
/// clock's resolution.
const CODEC_PASSES: usize = 20;

/// Median heartbeat RPC over loopback, or 0 when the probe cannot run.
pub fn rtt_us_p50() -> f64 {
    let telemetry = Telemetry::new();
    let addr: SocketAddr = "127.0.0.1:0".parse().expect("loopback parses");
    let echo = Arc::new(|env: &Envelope| match &env.frame {
        Frame::Heartbeat { .. } => Some(env.frame.clone()),
        _ => None,
    });
    let Ok(server) = NetServer::bind(addr, &telemetry, echo) else {
        return 0.0;
    };
    let mut conn = Connection::connect(server.local_addr(), NetConfig::default(), &telemetry);
    if !conn.wait_connected(Duration::from_secs(5)) {
        return 0.0;
    }
    let mut samples = Vec::with_capacity(RTT_SAMPLES);
    for seq in 0..RTT_SAMPLES as u64 {
        let started = Instant::now();
        let reply = conn.request(Frame::Heartbeat {
            switch: 0,
            seq,
            at_ns: 0,
        });
        if reply.is_ok() {
            samples.push(micros(started.elapsed()));
        }
    }
    conn.close();
    drop(server);
    median(&samples)
}

/// Fills `net.encode_ns_per_kb`, `net.decode_ns_per_kb` and
/// `net.reply_bytes_p50` from the workload's own frames.
pub fn codec(pairs: &[(ControlOp, ControlReply)], m: &mut Measured) {
    let envelopes: Vec<Envelope> = pairs
        .iter()
        .enumerate()
        .flat_map(|(i, (op, reply))| {
            let corr = i as u64 + 1;
            [
                Envelope {
                    corr,
                    response: false,
                    frame: Frame::Control { op: op.clone() },
                },
                Envelope {
                    corr,
                    response: true,
                    frame: Frame::ControlReply {
                        reply: reply.clone(),
                    },
                },
            ]
        })
        .collect();
    if envelopes.is_empty() {
        return;
    }
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(envelopes.len());
    let mut encode_ns = 0u128;
    for pass in 0..CODEC_PASSES {
        for env in &envelopes {
            let mut out = Vec::new();
            let started = Instant::now();
            encode_envelope(std::hint::black_box(env), &mut out);
            encode_ns += started.elapsed().as_nanos();
            if pass == 0 {
                encoded.push(out);
            }
        }
    }
    let mut decode_ns = 0u128;
    for _ in 0..CODEC_PASSES {
        for bytes in &encoded {
            let started = Instant::now();
            let decoded = decode_envelope(std::hint::black_box(bytes));
            decode_ns += started.elapsed().as_nanos();
            std::hint::black_box(&decoded);
        }
    }
    let kb = encoded.iter().map(Vec::len).sum::<usize>() as f64 / 1024.0 * CODEC_PASSES as f64;
    m.layer("net.encode_ns_per_kb", encode_ns as f64 / kb);
    m.layer("net.decode_ns_per_kb", decode_ns as f64 / kb);
    let reply_bytes: Vec<f64> = encoded
        .iter()
        .skip(1)
        .step_by(2)
        .map(|b| b.len() as f64)
        .collect();
    m.layer("net.reply_bytes_p50", median(&reply_bytes));
}

/// Fills the daemon's side of the connection — `net.frames_sent`,
/// `net.bytes`, `net.decode_errors`, `net.rpc_timeouts` — as the change
/// of its registry between two snapshots.
pub fn daemon_counters(before: &Snapshot, after: &Snapshot, m: &mut Measured) {
    for name in [
        "net.frames_sent",
        "net.bytes",
        "net.decode_errors",
        "net.rpc_timeouts",
    ] {
        m.layer(name, (after.counter(name) - before.counter(name)) as f64);
    }
}
