//! # farm-net — the wire-protocol transport
//!
//! A dependency-light TCP transport carrying what crosses a process
//! boundary — farmctl ↔ farmd and fedd ↔ pods: control ops and their
//! replies, cross-pod migration snapshots among them — as
//! length-prefixed, versioned binary frames. Seed↔harvester and
//! seed↔seed traffic stays inside one `Farm` and never reaches a socket.
//!
//! Layer map, bottom-up:
//!
//! * [`wire`] — varints, zigzag, length prefixes, a bounds-checked
//!   reader (which also holds the nesting bound), the one scan of a
//!   frame's length prefix, and the crate-private `Wire` trait: "has a
//!   wire form", implemented once per field type. Every decoder is
//!   total: corrupt input yields a `WireError`, never a panic or
//!   unbounded allocation.
//! * `frame` — the typed [`Frame`] enum and the [`Envelope`] that
//!   adds multiplexing metadata (correlation id + response flag). Each
//!   message is declared once; its type, tag, `kind()`, codec and list
//!   allocation bound follow from the declaration.
//!   `encode(decode(bytes))` is byte-exact.
//! * [`snapshot`] — the version-tagged [`SeedSnapshot`] codec riding
//!   the migration ops and checkpoint files, and the one checkpoint
//!   file generation, `FARMCKP2`: one writer
//!   ([`encode_checkpoint_doc`]), one reader ([`decode_checkpoint`]).
//! * `buf` / `poll` — event-loop plumbing: a growable `ByteRing`,
//!   the incremental [`FrameDecoder`] (equivalent to the one-shot
//!   decoder on any byte split; the only frame reader, on both ends of
//!   a connection), and the `Poller` readiness abstraction (raw epoll
//!   on Linux, `poll(2)` on other unixes).
//! * `link` / `conn` / `reactor` / `server` — the runtime. The client
//!   half is one non-blocking session, waited on two ways: [`Links`],
//!   many sessions behind one poller for a daemon core that moves them
//!   along between its turns (the core's [`Reactor`] watches that
//!   poller), and the blocking [`Connection`], one session behind a
//!   mutex whose caller waits in `poll(2)` for its answer — no thread
//!   and no queue either way, redial on demand when the peer ended the
//!   session. The accepting side is [`Reactor`], a value whose owner
//!   turns it and gets every frame handed to it inline (farmd and
//!   fedd, on the thread that owns the core), or [`NetServer`], that
//!   value plus the one thread turning it for an owner with no loop of
//!   its own. All of it needs a unix (epoll on Linux, `poll(2)`
//!   elsewhere). What a daemon core does with its `Links`, and the
//!   clock it reads, is the [`Peers`] trait, so a simulated network on
//!   a virtual clock can stand in for both.
//!
//! Every endpoint reports into `farm-telemetry` under the `net.*`
//! namespace: `net.bytes`, `net.frames_sent` / `net.frames_received`,
//! `net.dead_letters`, `net.connects` / `net.reconnects` /
//! `net.connect_failures`, `net.rpcs`, `net.rpc_timeouts`,
//! `net.decode_errors`, the `net.rpc_latency_us` histogram and the
//! `net.server_conns` and `net.reactor_utilisation` gauges.

#![warn(unreachable_pub)]

mod buf;
mod conn;
mod frame;
mod link;
mod poll;
mod reactor;
mod server;
pub mod snapshot;
mod sock;
pub mod wire;

pub use buf::{Decoded, FrameDecoder};
pub use conn::{Connection, NetConfig, NetError};
pub use frame::{
    decode_body, decode_envelope, encode_envelope, ControlOp, ControlReply, Diagnostic, Envelope,
    Frame, PodInfo, SeedDescriptor,
};
pub use link::{Answer, LinkId, Links, Peers};
pub use reactor::Reactor;
pub use server::{FrameHandler, NetServer};
pub use snapshot::{decode_checkpoint, encode_checkpoint_doc, CheckpointDoc};
pub use wire::PROTOCOL_VERSION;

// The snapshot payload type carried by the fed snapshot-bearing ops,
// re-exported so wire-level consumers don't need a direct farm-soil
// dependency.
pub use farm_soil::SeedSnapshot;

#[cfg(test)]
mod tests {
    use super::*;
    use farm_telemetry::Telemetry;
    use std::net::{IpAddr, Ipv4Addr, SocketAddr};
    use std::sync::Arc;
    use std::time::Duration;

    fn loopback() -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
    }

    #[test]
    fn request_response_round_trip_over_loopback() {
        let telemetry = Telemetry::new();
        let server = NetServer::bind(
            loopback(),
            &telemetry,
            Arc::new(|env: &Envelope| match &env.frame {
                Frame::Heartbeat { seq, switch, at_ns } => Some(Frame::Heartbeat {
                    switch: *switch,
                    seq: seq + 1,
                    at_ns: *at_ns,
                }),
                _ => None,
            }),
        )
        .expect("bind");

        let conn = Connection::connect(server.local_addr(), NetConfig::default(), &telemetry);
        let reply = conn
            .request(Frame::Heartbeat {
                switch: 7,
                seq: 41,
                at_ns: 3,
            })
            .expect("rpc");
        assert_eq!(
            reply,
            Frame::Heartbeat {
                switch: 7,
                seq: 42,
                at_ns: 3
            }
        );

        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("net.rpcs"), 1);
        assert!(snap.counter("net.bytes") > 0);
        let h = snap.histogram("net.rpc_latency_us").expect("latency hist");
        assert_eq!(h.count, 1);
    }

    #[test]
    fn request_fails_fast_while_nothing_listens_then_succeeds_once_the_peer_binds() {
        let telemetry = Telemetry::new();
        // Reserve a port, then ask before anything listens on it.
        let probe = std::net::TcpListener::bind(loopback()).unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);

        let conn = Connection::connect(addr, NetConfig::default(), &telemetry);
        let asked = std::time::Instant::now();
        assert_eq!(conn.request(Frame::Ack), Err(NetError::Disconnected));
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "one dial, not the request deadline: {:?}",
            asked.elapsed()
        );
        assert!(!conn.is_connected());
        assert!(telemetry.snapshot().counter("net.connect_failures") >= 1);

        let server =
            NetServer::bind(addr, &telemetry, Arc::new(|_: &Envelope| None)).expect("bind");
        assert_eq!(conn.request(Frame::Ack), Ok(Frame::Ack), "same Connection");
        drop(server);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("net.connects"), 1);
        assert_eq!(snap.counter("net.reconnects"), 0);
    }

    #[test]
    fn close_flushes_queued_frames_before_disconnecting() {
        let telemetry = Telemetry::new();
        let seen = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen_h = Arc::clone(&seen);
        let server = NetServer::bind(
            loopback(),
            &telemetry,
            Arc::new(move |env: &Envelope| {
                if matches!(env.frame, Frame::Heartbeat { .. }) {
                    seen_h.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                None
            }),
        )
        .expect("bind");
        let mut conn = Connection::connect(server.local_addr(), NetConfig::default(), &telemetry);
        for seq in 0..64 {
            conn.send(Frame::Heartbeat {
                switch: 0,
                seq,
                at_ns: 0,
            })
            .expect("send");
        }
        conn.close();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while seen.load(std::sync::atomic::Ordering::Relaxed) < 64 {
            assert!(
                std::time::Instant::now() < deadline,
                "close dropped queued frames: {}/64",
                seen.load(std::sync::atomic::Ordering::Relaxed)
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}
