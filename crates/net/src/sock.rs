//! The cached telemetry instruments of the `net.*` namespace, shared by
//! client connections and the server.

use std::sync::Arc;

use farm_telemetry::{Counter, Histogram, Telemetry};

/// Cached handles for the `net.*` instruments so the per-frame hot
/// path never takes the registry lock.
#[derive(Clone)]
pub(crate) struct NetCounters {
    /// Octets this endpoint moved on the wire, both directions.
    pub(crate) bytes: Arc<Counter>,
    pub(crate) frames_sent: Arc<Counter>,
    pub(crate) frames_received: Arc<Counter>,
    /// One-way frames that found no session and could not dial one, or
    /// whose write failed.
    pub(crate) dead_letters: Arc<Counter>,
    pub(crate) connects: Arc<Counter>,
    pub(crate) reconnects: Arc<Counter>,
    pub(crate) connect_failures: Arc<Counter>,
    pub(crate) rpcs: Arc<Counter>,
    pub(crate) rpc_timeouts: Arc<Counter>,
    pub(crate) decode_errors: Arc<Counter>,
    /// Request → response round-trip, microseconds (real time).
    pub(crate) rpc_latency_us: Arc<Histogram>,
}

impl NetCounters {
    pub(crate) fn new(telemetry: &Telemetry) -> NetCounters {
        NetCounters {
            bytes: telemetry.counter("net.bytes"),
            frames_sent: telemetry.counter("net.frames_sent"),
            frames_received: telemetry.counter("net.frames_received"),
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
