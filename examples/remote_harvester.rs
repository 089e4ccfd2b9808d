//! A harvester at the far end of a real (lossy) TCP link.
//!
//! Demonstrates the `farm-net` transport end to end:
//!
//! 1. a "harvester" process half — a [`NetServer`] on loopback that
//!    decodes incoming poll-report frames;
//! 2. a "soil" half — a [`Connection`] shipping report batches through
//!    a [`LossInterceptor`] that drops and duplicates real frames;
//! 3. a harvester outage — the client holds no queue, so every send
//!    finds the session gone, fails its one dial and is a counted dead
//!    letter at once;
//! 4. recovery — the harvester rebinds and the next send redials.
//!
//! Run with: `cargo run --example remote_harvester`

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use farm_almanac::value::Value;
use farm_faults::LossSpec;
use farm_net::{Connection, Envelope, Frame, LossInterceptor, NetConfig, NetServer, Report};
use farm_netsim::time::Dur;
use farm_telemetry::Telemetry;

/// Reports per `PollReport` frame.
const BATCH: u64 = 8;

/// Collects poll reports like a harvester would.
fn harvester(received: Arc<AtomicU64>) -> Arc<dyn farm_net::FrameHandler> {
    Arc::new(move |env: &Envelope| {
        if let Frame::PollReport { reports } = &env.frame {
            received.fetch_add(reports.len() as u64, Ordering::Relaxed);
        }
        None
    })
}

fn sample_report(seq: u64) -> Report {
    Report {
        task: "hh".into(),
        from_switch: (seq % 5) as u32,
        from_seed: seq,
        from_machine: "HH".into(),
        at_ns: seq * 1_000_000,
        latency_ns: 40_000,
        bytes: 48,
        value: Value::List(vec![Value::Int(seq as i64), Value::Str("flow".into())]),
    }
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        if Instant::now() > deadline {
            panic!("timed out waiting for {what}");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One frame carrying reports `first .. first + BATCH`.
fn batch(first: u64) -> Frame {
    Frame::PollReport {
        reports: (first..first + BATCH).map(sample_report).collect(),
    }
}

fn main() {
    // The soil side's registry; the harvester keeps its own so the
    // accounting below is the client's alone.
    let telemetry = Telemetry::new();
    let harvester_telemetry = Telemetry::new();
    let received = Arc::new(AtomicU64::new(0));

    // --- Phase 1: a harvester server and a lossy soil-side client. ---
    let mut server = NetServer::bind(
        "127.0.0.1:0".parse::<SocketAddr>().unwrap(),
        &harvester_telemetry,
        harvester(Arc::clone(&received)),
    )
    .expect("bind harvester endpoint");
    let addr = server.local_addr();
    println!("harvester listening on {addr}");

    let lossy = LossInterceptor::from_spec(
        LossSpec {
            drop: 0.2,
            duplicate: 0.05,
            delay: Dur::from_micros(50),
        },
        42,
    );
    let cfg = NetConfig {
        node: "leaf-soil".into(),
        ..NetConfig::default()
    };
    let mut conn = Connection::connect_with(addr, cfg, &telemetry, Box::new(lossy));

    for first in (0..200).step_by(BATCH as usize) {
        conn.send(batch(first)).expect("send batch");
    }
    // ~20% of frames vanish on the lossy link (a few arrive twice);
    // whatever was written, arrives. The `Hello` preamble is the one
    // written frame that carries no reports.
    let snap = telemetry.snapshot();
    let written = (snap.counter("net.frames_sent") - 1) * BATCH;
    wait_for("written batches to land", || {
        received.load(Ordering::Relaxed) == written
    });
    let after_lossy = received.load(Ordering::Relaxed);
    println!(
        "lossy link: {after_lossy} reports harvested of 200 sent ({} frames dropped on the wire)",
        snap.counter("net.dropped_frames")
    );
    assert!(snap.counter("net.dropped_frames") > 0, "the link is lossy");

    // --- Phase 2: the harvester goes down mid-run. ---
    server.shutdown();
    drop(server);
    println!("harvester down; the soil keeps reporting");
    let mut refused = 0u64;
    for first in (200..400).step_by(BATCH as usize) {
        // No queue to back up into: the send sees the session is gone,
        // fails its dial and returns at once.
        if conn.send(batch(first)).is_err() {
            refused += 1;
        }
    }
    let snap = telemetry.snapshot();
    println!(
        "outage: {refused} batches dead-lettered (net.dead_letters={}), {} failed dials",
        snap.counter("net.dead_letters"),
        snap.counter("net.connect_failures"),
    );
    assert_eq!(refused, 200 / BATCH, "every send during the outage fails");
    assert_eq!(snap.counter("net.dead_letters"), refused);
    assert_eq!(received.load(Ordering::Relaxed), after_lossy);

    // --- Phase 3: the harvester comes back on the same address. ---
    let server = {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match NetServer::bind(addr, &harvester_telemetry, harvester(Arc::clone(&received))) {
                Ok(s) => break s,
                Err(e) if Instant::now() < deadline => {
                    // The old port can linger briefly; retry.
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("rebind failed: {e}"),
            }
        }
    };
    println!("harvester back on {}", server.local_addr());
    for first in (400..600).step_by(BATCH as usize) {
        // The first of these redials; the loss model may still drop it.
        conn.send(batch(first)).expect("send after recovery");
    }
    wait_for("reports to land after recovery", || {
        received.load(Ordering::Relaxed) > after_lossy
    });
    conn.close();

    let snap = telemetry.snapshot();
    let total = received.load(Ordering::Relaxed);
    println!("--- final accounting ---");
    for key in [
        "net.bytes",
        "net.frames_sent",
        "net.dropped_frames",
        "net.dead_letters",
        "net.connects",
        "net.reconnects",
        "net.connect_failures",
    ] {
        println!("{key:24} {}", snap.counter(key));
    }
    println!("reports harvested        {total}");
    assert_eq!(snap.counter("net.connects"), 1);
    assert!(
        snap.counter("net.reconnects") >= 1,
        "the first send after the outage must redial"
    );
    assert!(total > after_lossy, "reports flow again after the redial");
}
