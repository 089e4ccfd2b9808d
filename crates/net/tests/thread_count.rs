//! A client connection costs no thread. Alone in its file so that no
//! other test's threads are counted with it.
#![cfg(target_os = "linux")]

use std::sync::Arc;

use farm_net::{Connection, Envelope, Frame, NetConfig, NetServer};
use farm_telemetry::Telemetry;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn sixty_four_live_connections_add_no_thread() {
    let telemetry = Telemetry::new();
    let server = NetServer::bind(
        "127.0.0.1:0".parse().expect("loopback parses"),
        &telemetry,
        Arc::new(|_: &Envelope| None),
    )
    .expect("bind");
    let before = threads();
    let conns: Vec<Connection> = (0..64)
        .map(|_| Connection::connect(server.local_addr(), NetConfig::default(), &telemetry))
        .collect();
    for conn in &conns {
        assert_eq!(conn.request(Frame::Ack), Ok(Frame::Ack));
    }
    assert!(conns.iter().all(Connection::is_connected));
    assert!(
        threads() <= before,
        "{before} threads before, {} with 64 sessions up",
        threads()
    );
}
