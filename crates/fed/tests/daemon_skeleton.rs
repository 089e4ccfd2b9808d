//! The daemon skeleton (`farm_ctl::daemon`), run against both cores it
//! hosts: the same fixed op sequence must leave the same accounting
//! under each daemon's prefix, ops the handlers queued behind a
//! `Shutdown` must still be answered (unaccounted, as a drain), and the
//! after-drain hook must run exactly once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

use farm_ctl::daemon::{run, Core, Request};
use farm_ctl::FarmdConfig;
use farm_fed::FeddConfig;
use farm_net::{ControlOp, ControlReply};
use farm_telemetry::Snapshot;

/// Queues `ops` as the connection handlers would, runs the core loop to
/// completion on this thread, and returns every reply in order plus the
/// core's final registry.
fn drive<C: Core>(config: C::Config, ops: Vec<ControlOp>) -> (Vec<ControlReply>, Snapshot) {
    let (tx, rx) = mpsc::channel();
    let replies: Vec<mpsc::Receiver<ControlReply>> = ops
        .into_iter()
        .map(|op| {
            let (reply, slot) = mpsc::channel();
            tx.send(Request { op, reply }).expect("queue is open");
            slot
        })
        .collect();
    let stop = AtomicBool::new(false);
    let mut core = C::boot(config);
    run(&mut core, &rx, &stop);
    assert!(
        stop.load(Ordering::Relaxed),
        "a served Shutdown sets the flag"
    );
    let replies = replies
        .iter()
        .map(|slot| slot.try_recv().expect("every queued op is answered"))
        .collect();
    (replies, core.telemetry().snapshot())
}

/// Six accounted ops (two of them rejected by either daemon), then two
/// reads stuck behind the shutdown.
fn sequence() -> Vec<ControlOp> {
    vec![
        ControlOp::list_all(),
        ControlOp::stats_all(),
        ControlOp::MetricsDump,
        ControlOp::DescribeSeed { key: "nope".into() },
        ControlOp::RemoveTask {
            task: "ghost".into(),
        },
        ControlOp::Shutdown,
        ControlOp::stats_all(),
        ControlOp::list_all(),
    ]
}

fn check_accounting(prefix: &str, replies: &[ControlReply], snap: &Snapshot) {
    let kinds: Vec<&str> = replies.iter().map(ControlReply::kind).collect();
    assert_eq!(
        kinds,
        ["seeds", "json", "json", "rejected", "rejected", "ok", "json", "seeds"],
        "{prefix}"
    );
    let counter = |name: &str| snap.counter(&format!("{prefix}.{name}"));
    assert_eq!(counter("ops"), 6, "{prefix}: drained ops are not accounted");
    assert_eq!(counter("rejected"), 2, "{prefix}");
    for op in &sequence()[..6] {
        assert_eq!(counter(&format!("op.{}", op.kind())), 1, "{prefix}");
    }
    let latency = snap
        .histogram(&format!("{prefix}.op_latency_us"))
        .expect("latency histogram");
    assert_eq!(latency.count, 6, "{prefix}");
}

#[test]
fn both_cores_get_the_same_accounting_drain_and_final_hook() {
    let ckpt = std::env::temp_dir().join(format!("farm-skeleton-{}.ckp", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let farmd = FarmdConfig {
        checkpoint_path: Some(ckpt.clone()),
        ..FarmdConfig::default()
    };
    let (replies, snap) = drive::<farm_ctl::server::Core>(farmd, sequence());
    check_accounting("ctl", &replies, &snap);
    // farmd's after-drain hook is the final checkpoint: written once.
    assert_eq!(snap.counter("ckpt.writes"), 1);
    assert!(std::fs::read(&ckpt).is_ok_and(|bytes| bytes.starts_with(b"FARMCKP2")));
    let _ = std::fs::remove_file(&ckpt);

    let (replies, snap) = drive::<farm_fed::server::Core>(FeddConfig::default(), sequence());
    check_accounting("fed", &replies, &snap);
    assert_eq!(
        snap.counter("ckpt.writes"),
        0,
        "fedd has no after-drain hook"
    );
}
