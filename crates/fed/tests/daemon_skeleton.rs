//! The daemon skeleton (`farm_ctl::daemon`), run against both cores it
//! hosts, through real sockets: the same fixed op sequence must get the
//! same reply kinds and leave the same accounting under each daemon's
//! prefix, ops behind a `Shutdown` must be refused (unaccounted), and
//! the after-drain hook must run exactly once.

use farm_ctl::daemon::{Core, Daemon};
use farm_ctl::{CtlClient, FarmdConfig};
use farm_fed::FeddConfig;
use farm_net::{ControlOp, ControlReply, Links, NetError};
use farm_telemetry::Snapshot;

/// Six accounted ops (two of them rejected by either daemon), then two
/// reads behind the shutdown.
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

/// Starts the daemon, sends the sequence over one client session, waits
/// the daemon out, and returns the six replies plus the core's final
/// registry.
fn drive<C: Core<Peers = Links>>(config: C::Config) -> (Vec<ControlReply>, Snapshot) {
    let daemon = Daemon::<C>::start(config).expect("start");
    let telemetry = daemon.telemetry().clone();
    let client = CtlClient::connect(daemon.local_addr());
    let mut ops = sequence();
    let late = ops.split_off(6);
    let replies = ops
        .into_iter()
        .map(|op| client.op(op).expect("every op up to Shutdown is answered"))
        .collect();
    assert!(daemon.stopping(), "a served Shutdown sets the flag");
    for op in late {
        match client.op(op) {
            Err(NetError::Rejected(why)) => assert!(why.contains("is shutting down"), "{why}"),
            Err(NetError::Disconnected) => {}
            other => panic!("an op behind Shutdown was answered: {other:?}"),
        }
    }
    daemon.wait();
    (replies, telemetry.snapshot())
}

fn check_accounting(prefix: &str, replies: &[ControlReply], snap: &Snapshot) {
    let kinds: Vec<&str> = replies.iter().map(ControlReply::kind).collect();
    assert_eq!(
        kinds,
        ["seeds", "json", "json", "rejected", "rejected", "ok"],
        "{prefix}"
    );
    let counter = |name: &str| snap.counter(&format!("{prefix}.{name}"));
    assert_eq!(counter("ops"), 6, "{prefix}: refused ops are not accounted");
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
    let (replies, snap) = drive::<farm_ctl::server::Core>(farmd);
    check_accounting("ctl", &replies, &snap);
    // farmd's after-drain hook is the final checkpoint: written once.
    assert_eq!(snap.counter("ckpt.writes"), 1);
    assert!(std::fs::read(&ckpt).is_ok_and(|bytes| bytes.starts_with(b"FARMCKP2")));
    let _ = std::fs::remove_file(&ckpt);

    let (replies, snap) = drive::<farm_fed::server::Core>(FeddConfig::default());
    check_accounting("fed", &replies, &snap);
    assert_eq!(
        snap.counter("ckpt.writes"),
        0,
        "fedd has no after-drain hook"
    );
}
