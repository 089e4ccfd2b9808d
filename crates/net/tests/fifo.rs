//! Per-connection FIFO: the handler sees one connection's frames in the
//! order the client wrote them, and a request's reply comes back only
//! after every frame written ahead of it has been handled.

use std::sync::{Arc, Mutex};

use farm_net::{Connection, Envelope, Frame, NetConfig, NetServer};
use farm_telemetry::Telemetry;

const BEACONS: u64 = 2_000;

#[test]
fn one_way_frames_are_handled_in_order_and_ahead_of_the_request_behind_them() {
    let telemetry = Telemetry::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen_h = Arc::clone(&seen);
    let server = NetServer::bind(
        "127.0.0.1:0".parse().expect("loopback parses"),
        &telemetry,
        Arc::new(move |env: &Envelope| {
            if let Frame::Heartbeat { seq, .. } = env.frame {
                seen_h.lock().expect("handler panicked").push(seq);
            }
            None
        }),
    )
    .expect("bind");
    let conn = Connection::connect(server.local_addr(), NetConfig::default(), &telemetry);
    for seq in 0..BEACONS {
        conn.send(Frame::Heartbeat {
            switch: 1,
            seq,
            at_ns: 0,
        })
        .expect("loopback send");
    }
    assert_eq!(conn.request(Frame::Ack), Ok(Frame::Ack));
    // Read at reply time, not after a grace period: the beacons were
    // written first, so they have all been handled by now.
    let seen = seen.lock().expect("handler panicked").clone();
    assert_eq!(seen, (0..BEACONS).collect::<Vec<_>>());
}
