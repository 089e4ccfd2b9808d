//! The pod links on the real reactor: a fan-out that fedd's core runs
//! while a pod's heartbeat is due must not deadlock, because the core's
//! reactor watches the `Links` poller (nested epoll). The federation
//! round itself — timeouts, merge order, liveness behind a stalled
//! fan-out, a coordinator that never answers — is held in one thread
//! on one virtual clock by `fed_sim.rs`.

use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

use farm_ctl::config::FedMembership;
use farm_ctl::{CtlClient, Farmd, FarmdConfig};
use farm_fed::{Fedd, FeddConfig};
use farm_net::{ControlOp, ControlReply};

fn pod_config(coordinator: SocketAddr, name: &str, heartbeat: Duration) -> FarmdConfig {
    FarmdConfig {
        fed: Some(FedMembership {
            coordinator,
            pod_name: name.into(),
            advertise: None,
            heartbeat,
        }),
        ..FarmdConfig::default()
    }
}

#[test]
fn a_heartbeat_due_during_a_fan_out_does_not_deadlock() {
    let fedd = Fedd::start(
        FeddConfig::from_toml_str(
            "[server]\nlisten = \"127.0.0.1:0\"\nshutdown_drain_ms = 10\n\
             [fed]\nliveness_timeout_ms = 60000\npod_timeout_ms = 5000\n",
        )
        .expect("config"),
    )
    .expect("start fedd");
    let fed = CtlClient::connect(fedd.local_addr());
    let pod = Farmd::start(pod_config(fedd.local_addr(), "a", Duration::from_millis(1)))
        .expect("start pod");
    let deadline = Instant::now() + Duration::from_secs(5);
    let live = || match fed.op(ControlOp::ListPods) {
        Ok(ControlReply::Pods { pods }) => pods.iter().filter(|p| p.live).count(),
        _ => 0,
    };
    while live() < 1 {
        assert!(Instant::now() < deadline, "the pod never registered");
        thread::sleep(Duration::from_millis(2));
    }
    let sent = || pod.telemetry().snapshot().counter("fed.pod.beats_sent");
    let served = || fedd.telemetry().snapshot().counter("fed.op.pod-heartbeat");
    let first = sent();
    // Every fan-out reaches the pod while its next beat is due; a
    // deadlock would time the pod out and leave it unreached.
    for _ in 0..100 {
        let reply = fed.op(ControlOp::stats_all()).expect("answered");
        let ControlReply::Json { body } = reply else {
            panic!("{reply:?}");
        };
        assert!(body.contains("\"pods_reached\":1"), "{body}");
    }
    assert_eq!(fedd.telemetry().snapshot().counter("fed.fanout.errors"), 0);
    // Every beat the pod wrote during the fan-outs is served by fedd's
    // core, however late the scheduler lets it run; the pod writes its
    // next beat only once the last one settled, so at most one is in
    // flight when the count is read.
    let written = sent();
    assert!(written > first, "the pod kept beating");
    let deadline = Instant::now() + Duration::from_secs(5);
    while served() + 1 < written {
        assert!(
            Instant::now() < deadline,
            "fedd served {} of {written} beats",
            served()
        );
        thread::sleep(Duration::from_millis(2));
    }
    drop(fed);
    pod.stop();
    fedd.stop();
}
