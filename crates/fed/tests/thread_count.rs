//! Threads are what DESIGN § 10 says: a daemon adds its core thread to
//! the process and nothing else — a federated farmd too, whose
//! coordinator session rides its core. Alone in its file, one test, so
//! that no other test's threads are counted with it.

use std::time::{Duration, Instant};

use farm_ctl::config::FedMembership;
use farm_ctl::{CtlClient, Farmd, FarmdConfig};
use farm_fed::{Fedd, FeddConfig};
use farm_net::{ControlOp, ControlReply};

#[test]
fn a_daemon_is_its_core_thread_and_a_federated_farmd_one_more() {
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
    // `pthread_join` can return before the kernel has dropped the joined
    // task from `/proc/self/task`: after a stop, give the count up to a
    // second to come down to `want`, then read it.
    let settled = |want: usize| {
        let deadline = Instant::now() + Duration::from_secs(1);
        while threads() != want && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        threads()
    };

    let farmd = Farmd::start(FarmdConfig::default()).expect("start farmd");
    assert_eq!(threads(), before + 1, "farmd-core");
    // Serving an op adds none.
    let client = CtlClient::connect(farmd.local_addr());
    assert!(matches!(
        client.op(ControlOp::list_all()),
        Ok(ControlReply::Seeds { .. })
    ));
    assert_eq!(threads(), before + 1, "a served op adds none");
    drop(client);
    farmd.stop();
    assert_eq!(settled(before), before, "farmd stopped");

    let fedd = Fedd::start(FeddConfig::default()).expect("start fedd");
    assert_eq!(threads(), before + 1, "fedd-core");

    let pod = Farmd::start(FarmdConfig {
        fed: Some(FedMembership {
            coordinator: fedd.local_addr(),
            pod_name: "a".into(),
            advertise: None,
            heartbeat: Duration::from_millis(50),
        }),
        ..FarmdConfig::default()
    })
    .expect("start federated farmd");
    assert_eq!(threads(), before + 2, "fedd-core, farmd-core");
    // Registered and beating, still on its one thread.
    let fed = CtlClient::connect(fedd.local_addr());
    let deadline = Instant::now() + Duration::from_secs(5);
    while pod.telemetry().snapshot().counter("fed.pod.heartbeats") < 2 {
        assert!(Instant::now() < deadline, "the pod never beat twice");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(matches!(
        fed.op(ControlOp::ListPods),
        Ok(ControlReply::Pods { pods }) if pods.len() == 1 && pods[0].live
    ));
    assert_eq!(threads(), before + 2, "a beating pod adds none");
    drop(fed);
    pod.stop();
    assert_eq!(settled(before + 1), before + 1, "federated farmd stopped");
    fedd.stop();
    assert_eq!(settled(before), before, "fedd stopped");
}
