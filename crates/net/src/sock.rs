//! The cached telemetry instruments of the `net.*` namespace, shared by
//! client connections and the server.

use std::sync::Arc;

use farm_telemetry::{Counter, Histogram, Telemetry};

/// Cached handles for the `net.*` instruments so the per-frame hot
/// path never takes the registry lock.
#[derive(Clone)]
pub(crate) struct NetCounters {
    /// Octets this endpoint moved on the wire, both directions.
    pub bytes: Arc<Counter>,
    pub frames_sent: Arc<Counter>,
    pub frames_received: Arc<Counter>,
    /// Frames discarded by an interceptor (injected loss).
    pub dropped_frames: Arc<Counter>,
    /// One-way frames that found no session and could not dial one, or
    /// whose write failed.
    pub dead_letters: Arc<Counter>,
    pub connects: Arc<Counter>,
    pub reconnects: Arc<Counter>,
    pub connect_failures: Arc<Counter>,
    pub rpcs: Arc<Counter>,
    pub rpc_timeouts: Arc<Counter>,
    pub decode_errors: Arc<Counter>,
    /// Request → response round-trip, microseconds (real time).
    pub rpc_latency_us: Arc<Histogram>,
}

impl NetCounters {
    pub fn new(telemetry: &Telemetry) -> NetCounters {
        NetCounters {
            bytes: telemetry.counter("net.bytes"),
            frames_sent: telemetry.counter("net.frames_sent"),
            frames_received: telemetry.counter("net.frames_received"),
            dropped_frames: telemetry.counter("net.dropped_frames"),
            dead_letters: telemetry.counter("net.dead_letters"),
            connects: telemetry.counter("net.connects"),
            reconnects: telemetry.counter("net.reconnects"),
            connect_failures: telemetry.counter("net.connect_failures"),
            rpcs: telemetry.counter("net.rpcs"),
            rpc_timeouts: telemetry.counter("net.rpc_timeouts"),
            decode_errors: telemetry.counter("net.decode_errors"),
            rpc_latency_us: telemetry.latency_histogram("net.rpc_latency_us"),
        }
    }
}
