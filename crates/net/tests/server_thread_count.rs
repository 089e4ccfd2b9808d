//! A listening `NetServer` is one thread — the one that turns its
//! reactor — whatever the machine's core count, and shutting it down
//! gives the thread back. Alone in its file so that no other test's
//! threads are counted with it.

use std::sync::Arc;

use farm_net::{Connection, Envelope, Frame, NetConfig, NetServer};
use farm_telemetry::Telemetry;

#[test]
fn a_listening_server_is_exactly_one_thread() {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        eprintln!("SKIPPED: no /proc/self/task on this platform, threads not counted");
        return;
    };
    let threads = || {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .count()
    };
    let before = tasks.count();
    let telemetry = Telemetry::new();
    let mut server = NetServer::bind(
        "127.0.0.1:0".parse().expect("loopback parses"),
        &telemetry,
        Arc::new(|_: &Envelope| None),
    )
    .expect("bind");
    assert_eq!(threads(), before + 1, "bind spawns the turning thread");
    // Serving does not grow it.
    let conn = Connection::connect(server.local_addr(), NetConfig::default(), &telemetry);
    assert_eq!(conn.request(Frame::Ack), Ok(Frame::Ack));
    assert_eq!(threads(), before + 1, "a served session adds none");
    server.shutdown();
    assert_eq!(threads(), before, "shutdown joins it");
}
