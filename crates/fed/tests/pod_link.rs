//! The pod links ride the daemon cores: a farmd never waits on its
//! coordinator, and fedd asks every pod at once, waits one `pod_timeout`
//! at most, and folds the answers in pod-name order whatever order they
//! arrive in. The pods here are either real farmds or hand-driven
//! stand-ins that answer `ListSeeds` after a set delay (or never).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use farm_ctl::config::FedMembership;
use farm_ctl::{CtlClient, Farmd, FarmdConfig};
use farm_fed::{Fedd, FeddConfig};
use farm_net::{
    encode_envelope, ControlOp, ControlReply, Decoded, Envelope, Frame, FrameDecoder,
    SeedDescriptor,
};

fn fedd(pod_timeout_ms: u64) -> Fedd {
    Fedd::start(
        FeddConfig::from_toml_str(&format!(
            "[server]\nlisten = \"127.0.0.1:0\"\nshutdown_drain_ms = 10\n\
             [fed]\nliveness_timeout_ms = 60000\npod_timeout_ms = {pod_timeout_ms}\n"
        ))
        .expect("config"),
    )
    .expect("start fedd")
}

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

/// A stand-in pod: every connection it accepts answers a `ListSeeds`
/// with one seed of its own, `delay` after the request arrived, and any
/// other request with `Ok`; with no delay it reads and never answers.
fn stand_in(name: &'static str, delay: Option<Duration>) -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let addr = listener.local_addr().expect("local addr");
    thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            thread::spawn(move || answer(stream, name, delay));
        }
    });
    addr
}

fn answer(mut stream: TcpStream, name: &str, delay: Option<Duration>) {
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 4096];
    loop {
        match decoder.next() {
            Ok(Some(Decoded::Frame(env, _))) if env.corr != 0 && !env.response => {
                let Some(delay) = delay else { continue };
                thread::sleep(delay);
                let reply = match env.frame {
                    Frame::Control {
                        op: ControlOp::ListSeeds { .. },
                    } => ControlReply::Seeds {
                        seeds: vec![SeedDescriptor {
                            key: "w/m0/s0".into(),
                            task: "w".into(),
                            machine: name.into(),
                            switch: 1,
                            state: "s".into(),
                            alloc: [1.0, 2.0, 3.0, 4.0],
                        }],
                        next_index: 0,
                        total: 0,
                    },
                    _ => ControlReply::Ok,
                };
                let mut wire = Vec::new();
                let reply = Frame::ControlReply { reply };
                encode_envelope(&Envelope::response(env.corr, reply), &mut wire);
                if stream.write_all(&wire).is_err() {
                    return;
                }
            }
            Ok(Some(_)) => {}
            Ok(None) => match stream.read(&mut chunk) {
                Ok(n) if n > 0 => decoder.extend(&chunk[..n]),
                _ => return,
            },
            Err(_) => return,
        }
    }
}

fn register(fed: &CtlClient, name: &str, addr: SocketAddr) {
    let reply = fed.op(ControlOp::RegisterPod {
        name: name.into(),
        addr: addr.to_string(),
        switches: 4,
        quota: 1.0,
    });
    assert!(
        matches!(reply, Ok(ControlReply::PodRegistered { .. })),
        "{reply:?}"
    );
}

fn fanout_errors(fedd: &Fedd) -> u64 {
    fedd.telemetry().snapshot().counter("fed.fanout.errors")
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// `ListSeeds` latencies of `n` ops on one session.
fn list_latencies(client: &CtlClient, n: usize) -> Vec<Duration> {
    (0..n)
        .map(|_| {
            let asked = Instant::now();
            let reply = client.op(ControlOp::list_all());
            assert!(matches!(reply, Ok(ControlReply::Seeds { .. })), "{reply:?}");
            asked.elapsed()
        })
        .collect()
}

#[test]
fn a_farmd_whose_coordinator_never_answers_keeps_serving() {
    let plain = Farmd::start(FarmdConfig::default()).expect("start farmd");
    let client = CtlClient::connect(plain.local_addr());
    let usual = median(list_latencies(&client, 50));
    drop(client);
    plain.stop();

    // Its backlog takes the dial; nothing ever reads or answers.
    let silent = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
    let config = pod_config(
        silent.local_addr().expect("addr"),
        "p",
        Duration::from_millis(20),
    );
    let pod = Farmd::start(config).expect("start federated farmd");
    let client = CtlClient::connect(pod.local_addr());
    let errors = || pod.telemetry().snapshot().counter("fed.pod.errors");
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut samples = Vec::new();
    while errors() == 0 {
        assert!(Instant::now() < deadline, "no registration error counted");
        samples.extend(list_latencies(&client, 10));
    }
    let worst = *samples.iter().max().expect("samples");
    assert!(
        worst < Duration::from_millis(500),
        "an op waited on the coordinator: {worst:?}"
    );
    let during = median(samples);
    assert!(
        during <= usual * 5 + Duration::from_millis(2),
        "median {during:?} while registering vs {usual:?} usually"
    );
    drop(client);
    pod.stop();
}

#[test]
fn a_stalled_pod_costs_one_pod_timeout_and_the_survivors_answer() {
    let timeout = Duration::from_millis(400);
    let fedd = fedd(timeout.as_millis() as u64);
    let fed = CtlClient::connect(fedd.local_addr());
    register(&fed, "a", stand_in("a", Some(Duration::ZERO)));
    register(&fed, "b", stand_in("b", None));
    register(&fed, "c", stand_in("c", Some(Duration::ZERO)));
    let before = fanout_errors(&fedd);
    let asked = Instant::now();
    let reply = fed.op(ControlOp::list_all()).expect("answered");
    let took = asked.elapsed();
    let ControlReply::Seeds { seeds, .. } = reply else {
        panic!("{reply:?}");
    };
    let keys: Vec<&str> = seeds.iter().map(|s| s.key.as_str()).collect();
    assert_eq!(keys, ["a:w/m0/s0", "c:w/m0/s0"]);
    assert!(
        took >= timeout && took < timeout * 2,
        "one pod_timeout ({timeout:?}), not several: {took:?}"
    );
    assert_eq!(fanout_errors(&fedd), before + 1);
    drop(fed);
    fedd.stop();
}

#[test]
fn a_heartbeat_due_during_a_fan_out_does_not_deadlock() {
    let fedd = fedd(5_000);
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
    let beats = || pod.telemetry().snapshot().counter("fed.pod.heartbeats");
    let first = beats();
    // Every fan-out reaches the pod while its next beat is due.
    for _ in 0..100 {
        let asked = Instant::now();
        let reply = fed.op(ControlOp::stats_all()).expect("answered");
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "{:?}",
            asked.elapsed()
        );
        let ControlReply::Json { body } = reply else {
            panic!("{reply:?}");
        };
        assert!(body.contains("\"pods_reached\":1"), "{body}");
    }
    assert!(beats() > first, "the pod kept beating");
    assert_eq!(pod.telemetry().snapshot().counter("fed.pod.errors"), 0);
    assert_eq!(fanout_errors(&fedd), 0);
    drop(fed);
    pod.stop();
    fedd.stop();
}

#[test]
fn a_beat_served_behind_a_stalled_fan_out_keeps_its_pod_live() {
    // The default liveness window (2 s), and a fan-out that outlasts it.
    let fedd = Fedd::start(
        FeddConfig::from_toml_str(
            "[server]\nlisten = \"127.0.0.1:0\"\nshutdown_drain_ms = 10\n\
             [fed]\npod_timeout_ms = 3000\n",
        )
        .expect("config"),
    )
    .expect("start fedd");
    let fed = CtlClient::connect(fedd.local_addr());
    register(&fed, "a", stand_in("a", None));
    register(&fed, "b", stand_in("b", None));
    // One write, so one turn serves both: the listing stalls on pods
    // that never answer, and a's beat waits behind it.
    let mut wire = Vec::new();
    let hello = Frame::Hello {
        node: "t".into(),
        protocol: 1,
    };
    encode_envelope(&Envelope::one_way(hello), &mut wire);
    for (corr, op) in [
        (1, ControlOp::list_all()),
        (
            2,
            ControlOp::PodHeartbeat {
                name: "a".into(),
                seq: 1,
            },
        ),
    ] {
        encode_envelope(&Envelope::request(corr, Frame::Control { op }), &mut wire);
    }
    let mut stream = TcpStream::connect(fedd.local_addr()).expect("connect");
    stream.write_all(&wire).expect("write");
    let mut decoder = FrameDecoder::new();
    let mut chunk = [0u8; 4096];
    let mut replies = Vec::new();
    while replies.len() < 2 {
        match decoder.next().expect("clean stream") {
            Some(Decoded::Frame(env, _)) if env.response => replies.push(env.frame),
            Some(_) => {}
            None => {
                let n = stream.read(&mut chunk).expect("read");
                assert!(n > 0, "fedd hung up after {replies:?}");
                decoder.extend(&chunk[..n]);
            }
        }
    }
    assert!(
        matches!(
            &replies[1],
            Frame::ControlReply {
                reply: ControlReply::Ok
            }
        ),
        "{replies:?}"
    );
    // Idle turns sweep liveness on a fresh clock meanwhile.
    thread::sleep(Duration::from_millis(50));
    let Ok(ControlReply::Pods { pods }) = fed.op(ControlOp::ListPods) else {
        panic!("no pod listing");
    };
    let live: Vec<(&str, bool)> = pods.iter().map(|p| (p.name.as_str(), p.live)).collect();
    // b last beat at registration, past the window; a beat just now.
    assert_eq!(live, [("a", true), ("b", false)]);
    drop(fed);
    fedd.stop();
}

/// The merged `ListSeeds` bytes of pods a, b, c answering after the
/// given delays.
fn merged_listing(delays: [u64; 3]) -> Vec<u8> {
    let fedd = fedd(5_000);
    let fed = CtlClient::connect(fedd.local_addr());
    for (name, ms) in ["a", "b", "c"].into_iter().zip(delays) {
        register(&fed, name, stand_in(name, Some(Duration::from_millis(ms))));
    }
    let reply = fed.op(ControlOp::list_all()).expect("answered");
    assert!(
        matches!(&reply, ControlReply::Seeds { seeds, .. } if seeds.len() == 3),
        "{reply:?}"
    );
    drop(fed);
    fedd.stop();
    let mut wire = Vec::new();
    encode_envelope(
        &Envelope::response(1, Frame::ControlReply { reply }),
        &mut wire,
    );
    wire
}

#[test]
fn answers_in_reverse_name_order_merge_to_the_same_bytes() {
    assert_eq!(merged_listing([0, 40, 80]), merged_listing([80, 40, 0]));
}
