//! A `Connection` holds no descriptor until it dials. This binary has one
//! test, so nothing else opens or closes descriptors while it counts.
#![cfg(target_os = "linux")]

use std::net::TcpListener;
use std::time::Duration;

use farm_net::{Connection, NetConfig};
use farm_telemetry::Telemetry;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

#[test]
fn never_used_connections_hold_no_descriptor() {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let telemetry = Telemetry::new();
    let before = open_fds();
    let idle: Vec<Connection> = (0..64)
        .map(|_| Connection::connect(addr, NetConfig::default(), &telemetry))
        .collect();
    assert_eq!(open_fds(), before, "64 never-used connections");

    // A used one holds its epoll (how it waits) and its socket.
    assert!(idle[0].wait_connected(Duration::from_secs(2)));
    let (_accepted, _) = listener.accept().expect("accept");
    assert!(
        open_fds() >= before + 2,
        "a used connection waits in an epoll"
    );
    drop(idle);
    assert_eq!(open_fds(), before + 1, "only the accepted end is left");
}
