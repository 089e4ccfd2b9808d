//! Delivery transport selection: in-process calls or real loopback TCP.
//!
//! Under [`TransportMode::Tcp`] every harvester report, seed→seed
//! message, harvester directive and migration snapshot is encoded by
//! `farm-net`, shipped over a loopback TCP connection, decoded on the
//! receiving side, and the *decoded* message is the one the framework
//! acts on. Virtual time is untouched — the simulated control-channel
//! loss model keeps governing delivery semantics — so both modes
//! produce identical harvester-visible event streams while `Tcp` runs
//! the full wire path (codec, framing, request/response, telemetry's
//! `net.*` instruments) for real.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use farm_almanac::value::Value;
use farm_net::{Connection, Envelope, Frame, NetConfig, NetServer};
use farm_netsim::types::SwitchId;
use farm_soil::{OutboundMessage, SeedSnapshot};
use farm_telemetry::{Counter, Telemetry};

/// How Farm deliveries travel between soils, harvesters and the seeder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TransportMode {
    /// Direct in-process calls (the fastest path; the default).
    #[default]
    InProcess,
    /// Real loopback TCP through the `farm-net` wire protocol.
    Tcp,
}

/// Payloads reconstructed by the receiving end of the bridge.
enum Decoded {
    Message(Box<OutboundMessage>),
    Directive {
        machine: String,
        at: Option<SwitchId>,
        value: Value,
    },
    Snapshot(Box<SeedSnapshot>),
}

/// The loopback TCP leg: a `farm-net` server and client pair inside the
/// Farm process. `ship_*` round-trips a payload through encode → TCP →
/// decode and returns the reconstructed value; any transport hiccup
/// falls back to the original payload (counted in
/// `transport.fallbacks`) so simulation semantics never depend on
/// kernel scheduling.
pub(crate) struct TcpBridge {
    // Field order matters for Drop: sever the client before the server
    // stops accepting so the session ends with a graceful Shutdown.
    conn: Connection,
    _server: NetServer,
    rx: Mutex<mpsc::Receiver<Decoded>>,
    fallbacks: Arc<Counter>,
    heartbeat_seq: AtomicU64,
}

/// How long the bridge waits for the loopback round-trip. Generous —
/// loopback RPCs complete in microseconds; hitting this means the
/// machine is in serious trouble and the fallback path takes over.
const BRIDGE_TIMEOUT: Duration = Duration::from_secs(5);

impl TcpBridge {
    pub fn new(telemetry: &Telemetry) -> std::io::Result<TcpBridge> {
        let (tx, rx) = mpsc::channel::<Decoded>();
        let tx = Mutex::new(tx);
        let server = NetServer::bind(
            ([127, 0, 0, 1], 0).into(),
            telemetry,
            Arc::new(move |env: &Envelope| {
                let tx = tx.lock().expect("bridge tx lock");
                match &env.frame {
                    Frame::HarvesterDirective {
                        machine,
                        at_switch,
                        value,
                    } => {
                        let _ = tx.send(Decoded::Directive {
                            machine: machine.clone(),
                            at: at_switch.map(SwitchId),
                            value: value.clone(),
                        });
                    }
                    Frame::Migrate { snapshot, .. } => {
                        let _ = tx.send(Decoded::Snapshot(Box::new(snapshot.clone())));
                    }
                    // Poll reports and seed messages; nothing for the rest.
                    frame => {
                        for msg in frame.clone().into_outbound() {
                            let _ = tx.send(Decoded::Message(Box::new(msg)));
                        }
                    }
                }
                None // requests get the default Ack
            }),
        )?;
        let conn = Connection::connect(
            server.local_addr(),
            NetConfig {
                node: "farm-bridge".into(),
                ..NetConfig::default()
            },
            telemetry,
        );
        Ok(TcpBridge {
            conn,
            _server: server,
            rx: Mutex::new(rx),
            fallbacks: telemetry.counter("transport.fallbacks"),
            heartbeat_seq: AtomicU64::new(0),
        })
    }

    /// RPCs `frame` to the loopback peer and returns what the peer
    /// decoded, or `None` on any transport failure.
    fn round_trip(&self, frame: Frame) -> Option<Decoded> {
        self.conn.request_timeout(frame, BRIDGE_TIMEOUT).ok()?;
        // The handler forwards the decoded payload *before* answering,
        // so after the Ack it is already queued.
        self.rx
            .lock()
            .expect("bridge rx lock")
            .recv_timeout(BRIDGE_TIMEOUT)
            .ok()
    }

    /// Sends one delivery (harvester report or seed→seed message) over
    /// the wire and returns the decoded copy the peer reconstructed.
    pub fn ship_message(&self, msg: OutboundMessage) -> OutboundMessage {
        match self.round_trip(Frame::from_outbound(&msg)) {
            Some(Decoded::Message(decoded)) => *decoded,
            _ => {
                self.fallbacks.inc();
                msg
            }
        }
    }

    /// Ships a harvester→seed directive, returning the decoded triple.
    pub fn ship_directive(
        &self,
        machine: String,
        at: Option<SwitchId>,
        value: Value,
    ) -> (String, Option<SwitchId>, Value) {
        let frame = Frame::HarvesterDirective {
            machine: machine.clone(),
            at_switch: at.map(|s| s.0),
            value: value.clone(),
        };
        match self.round_trip(frame) {
            Some(Decoded::Directive {
                machine: m,
                at: a,
                value: v,
            }) => (m, a, v),
            _ => {
                self.fallbacks.inc();
                (machine, at, value)
            }
        }
    }

    /// Ships a migration snapshot, returning the decoded copy the
    /// destination imports.
    pub fn ship_snapshot(
        &self,
        task: &str,
        from: SwitchId,
        to: SwitchId,
        snapshot: SeedSnapshot,
    ) -> SeedSnapshot {
        let frame = Frame::Migrate {
            task: task.to_string(),
            from_switch: from.0,
            to_switch: to.0,
            snapshot: snapshot.clone(),
        };
        match self.round_trip(frame) {
            Some(Decoded::Snapshot(decoded)) => *decoded,
            _ => {
                self.fallbacks.inc();
                snapshot
            }
        }
    }

    /// Fire-and-forget liveness beacon for one heartbeat round.
    pub fn heartbeat(&self, switch: u32, at_ns: u64) {
        let seq = self.heartbeat_seq.fetch_add(1, Ordering::Relaxed);
        let _ = self.conn.send(Frame::Heartbeat { switch, seq, at_ns });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farm_netsim::time::{Dur, Time};

    fn sample_msg() -> OutboundMessage {
        OutboundMessage {
            from_switch: SwitchId(3),
            from_seed: farm_soil::SeedId(9),
            from_machine: "HH".into(),
            task: "hh".into(),
            to: farm_soil::Endpoint::Harvester,
            value: Value::List(vec![Value::Int(-4), Value::Str("x".into())]),
            at: Time::from_millis(7),
            latency: Dur::from_micros(11),
            bytes: 42,
        }
    }

    #[test]
    fn bridge_round_trips_a_harvester_report_losslessly() {
        let telemetry = Telemetry::new();
        let bridge = TcpBridge::new(&telemetry).expect("bridge");
        let msg = sample_msg();
        let got = bridge.ship_message(msg.clone());
        assert_eq!(got, msg);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("transport.fallbacks"), 0);
        assert!(snap.counter("net.rpcs") >= 1);
        assert!(snap.counter("net.bytes") > 0);
    }

    #[test]
    fn bridge_round_trips_seed_messages_and_directives() {
        let telemetry = Telemetry::new();
        let bridge = TcpBridge::new(&telemetry).expect("bridge");
        let mut msg = sample_msg();
        msg.to = farm_soil::Endpoint::Machine {
            name: "Agg".into(),
            at: Some(SwitchId(1)),
        };
        assert_eq!(bridge.ship_message(msg.clone()), msg);
        let (m, a, v) = bridge.ship_directive("HH".into(), None, Value::Float(0.25));
        assert_eq!((m.as_str(), a, v), ("HH", None, Value::Float(0.25)));
    }

    #[test]
    fn bridge_round_trips_migration_snapshots() {
        let telemetry = Telemetry::new();
        let bridge = TcpBridge::new(&telemetry).expect("bridge");
        let snap = SeedSnapshot {
            machine: "HH".into(),
            state: "run".into(),
            vars: vec![("count".into(), Value::Int(12))],
        };
        let got = bridge.ship_snapshot("hh", SwitchId(0), SwitchId(2), snap.clone());
        assert_eq!(got, snap);
    }
}
