//! End-to-end control-plane test: a real farmd on loopback TCP, driven
//! through the client library exactly as farmctl drives it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use farm_ctl::{CtlClient, Farmd, FarmdConfig, ServerConfig};
use farm_net::{ControlOp, ControlReply};

fn test_config() -> FarmdConfig {
    FarmdConfig {
        server: ServerConfig {
            shutdown_drain: Duration::from_millis(20),
            ..ServerConfig::default()
        },
        ..FarmdConfig::default()
    }
}

const WATCHER: &str = include_str!("../examples/load_watcher.alm");

fn submit_watcher(client: &CtlClient) -> (u64, u64) {
    match client
        .op(ControlOp::SubmitProgram {
            name: "load_watcher".into(),
            source: WATCHER.into(),
        })
        .expect("submit rpc")
    {
        ControlReply::Submitted {
            task,
            seeds,
            actions,
            explain,
        } => {
            assert_eq!(task, "load_watcher");
            assert_eq!(explain, None, "a plain submit is not explained");
            (seeds, actions)
        }
        other => panic!("submit answered {other:?}"),
    }
}

fn list_seeds(client: &CtlClient) -> Vec<farm_net::SeedDescriptor> {
    match client.op(ControlOp::list_all()).expect("list rpc") {
        ControlReply::Seeds { seeds, .. } => seeds,
        other => panic!("list answered {other:?}"),
    }
}

#[test]
fn submit_list_drain_stats_shutdown_over_loopback() {
    let farmd = Farmd::start(test_config()).expect("start farmd");
    let client = CtlClient::connect(farmd.local_addr());

    let (seeds, actions) = submit_watcher(&client);
    assert_eq!(seeds, 1, "place any yields one movable seed");
    assert!(actions >= 1);

    let listed = list_seeds(&client);
    assert_eq!(listed.len(), 1);
    let home = listed[0].switch;
    assert_eq!(listed[0].task, "load_watcher");

    // Describe surfaces the live seed with its variables.
    match client
        .op(ControlOp::DescribeSeed {
            key: listed[0].key.clone(),
        })
        .expect("describe rpc")
    {
        ControlReply::Seed { desc, vars } => {
            assert_eq!(desc.key, listed[0].key);
            assert!(
                vars.iter().any(|(n, _)| n == "threshold"),
                "expected the external var, got {vars:?}"
            );
        }
        other => panic!("describe answered {other:?}"),
    }

    // Drain the seed's switch: the movable seed must evacuate.
    match client
        .op(ControlOp::Drain { switch: home })
        .expect("drain rpc")
    {
        ControlReply::Drained { switch, evacuated } => {
            assert_eq!(switch, home);
            assert_eq!(evacuated, 1, "the watcher migrates off");
        }
        other => panic!("drain answered {other:?}"),
    }
    let moved = list_seeds(&client);
    assert_eq!(moved.len(), 1);
    assert_ne!(moved[0].switch, home, "seed left the drained switch");

    // Stats: a JSON body carrying the audit counters for what we did.
    let stats = match client.op(ControlOp::stats_all()).expect("stats rpc") {
        ControlReply::Json { body } => body,
        other => panic!("stats answered {other:?}"),
    };
    for needle in [
        "\"ctl.op.submit\":1",
        "\"ctl.op.drain\":1",
        "\"ctl.ops\":",
        "\"load_watcher\"",
    ] {
        assert!(stats.contains(needle), "stats missing {needle}: {stats}");
    }
    assert!(stats.contains(&format!("\"cordoned\":[{home}]")), "{stats}");

    // Metrics dump includes both the compat view and the registry.
    match client.op(ControlOp::MetricsDump).expect("metrics rpc") {
        ControlReply::Json { body } => {
            assert!(body.contains("\"net_dead_letters\""), "{body}");
            assert!(body.contains("\"ctl.op_latency_us\""), "{body}");
            // What the incremental solver holds, how many benefit pairs
            // it evaluated, greedy steps it visited and switches it only
            // read, after the submit and the drain; and the submit's
            // catalog splice.
            for solver in [
                "\"solver.greedy_steps_visited\":",
                "\"solver.switches_read\":",
                "\"seeder.splice_us\":{\"count\":1",
                "\"solver.delta_cache_entries\":1",
                "\"solver.delta_cache_bytes\":",
                "\"solver.benefit_pairs_evaluated\":{\"count\":2",
            ] {
                assert!(body.contains(solver), "metrics missing {solver}: {body}");
            }
        }
        other => panic!("metrics answered {other:?}"),
    }

    // Checkpoint / restore / uncordon / replan round out the surface.
    assert!(matches!(
        client.op(ControlOp::Checkpoint).expect("checkpoint rpc"),
        ControlReply::Checkpointed {
            seeds: 1,
            persist_error: None
        }
    ));
    assert!(matches!(
        client.op(ControlOp::Restore).expect("restore rpc"),
        ControlReply::Restored {
            seeds: 1,
            skipped: 0
        }
    ));
    assert!(matches!(
        client
            .op(ControlOp::Uncordon { switch: home })
            .expect("uncordon rpc"),
        ControlReply::Ok
    ));
    assert!(matches!(
        client.op(ControlOp::Replan).expect("replan rpc"),
        ControlReply::Replanned { .. }
    ));

    assert!(matches!(
        client.op(ControlOp::Shutdown).expect("shutdown rpc"),
        ControlReply::Ok
    ));
    farmd.wait();
}

#[test]
fn bad_submissions_come_back_structured() {
    let config = FarmdConfig {
        max_program_bytes: 64,
        ..test_config()
    };
    let farmd = Farmd::start(config).expect("start farmd");
    let client = CtlClient::connect(farmd.local_addr());

    // Over the submission cap: structured rejection, not an error frame.
    match client
        .op(ControlOp::SubmitProgram {
            name: "big".into(),
            source: "x".repeat(100),
        })
        .expect("submit rpc")
    {
        ControlReply::Rejected { reason } => assert!(reason.contains("cap"), "{reason}"),
        other => panic!("oversized submit answered {other:?}"),
    }

    // Broken program under the cap: compile diagnostics with positions.
    match client
        .op(ControlOp::SubmitProgram {
            name: "broken".into(),
            source: "machine M { place any; state s {".into(),
        })
        .expect("submit rpc")
    {
        ControlReply::CompileFailed { diagnostics } => {
            assert!(!diagnostics.is_empty());
            assert!(!diagnostics[0].message.is_empty());
        }
        other => panic!("broken submit answered {other:?}"),
    }

    // Unknown seed key: rejected with the expected shape spelled out.
    match client
        .op(ControlOp::DescribeSeed { key: "what".into() })
        .expect("describe rpc")
    {
        ControlReply::Rejected { reason } => assert!(reason.contains("what"), "{reason}"),
        other => panic!("describe answered {other:?}"),
    }

    // A switch the fabric lacks: rejected, and nothing is cordoned.
    match client
        .op(ControlOp::Drain { switch: 999 })
        .expect("drain rpc")
    {
        ControlReply::Rejected { reason } => assert!(reason.contains("999"), "{reason}"),
        other => panic!("drain answered {other:?}"),
    }
    match client.op(ControlOp::stats_all()).expect("stats rpc") {
        ControlReply::Json { body } => assert!(body.contains(r#""cordoned":[]"#), "{body}"),
        other => panic!("stats answered {other:?}"),
    }
    farmd.stop();
}

/// A `place any` program whose `util` returns `1` inside `depth`
/// parentheses.
fn nested_program(depth: usize) -> String {
    format!(
        "machine Deep {{ place any; state s {{ util (res) {{ return {}1{}; }} }} }}",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

#[test]
fn deeply_nested_programs_are_refused_and_farmd_keeps_serving() {
    let farmd = Farmd::start(test_config()).expect("start farmd");
    let client = CtlClient::connect(farmd.local_addr());
    // 2 KB and 200 KB of parentheses, both under the submission cap.
    for depth in [1_000, 100_000] {
        match client
            .op(ControlOp::SubmitProgram {
                name: format!("deep{depth}"),
                source: nested_program(depth),
            })
            .expect("submit rpc")
        {
            ControlReply::CompileFailed { diagnostics } => {
                let d = &diagnostics[0];
                assert!(d.message.contains("nested deeper"), "{d:?}");
                assert_eq!(d.line, 1, "{d:?}");
                assert!(d.col > 1, "{d:?}");
            }
            other => panic!("depth {depth} answered {other:?}"),
        }
        match client.op(ControlOp::stats_all()).expect("stats rpc") {
            ControlReply::Json { body } => assert!(body.contains("cordoned"), "{body}"),
            other => panic!("stats after depth {depth} answered {other:?}"),
        }
    }
    // The deepest program the parser takes compiles and deploys.
    let parses = |depth: usize| farm_almanac::parser::parse(&nested_program(depth)).is_ok();
    let deepest = (1..=farm_almanac::parser::MAX_NESTING)
        .rev()
        .find(|&d| parses(d))
        .expect("a depth that parses");
    assert!(!parses(deepest + 1));
    match client
        .op(ControlOp::SubmitProgram {
            name: "deepest".into(),
            source: nested_program(deepest),
        })
        .expect("submit rpc")
    {
        ControlReply::Submitted { seeds, .. } => assert_eq!(seeds, 1),
        other => panic!("depth {deepest} answered {other:?}"),
    }
    assert_eq!(list_seeds(&client).len(), 1);
    farmd.stop();
}

/// Two `place any` programs whose `enter` would run away: two nested
/// loops of a million iterations each (13 hours of VM time, each loop
/// well inside a count of its own), and doubling recursion 40 calls deep
/// (2^41 calls, never deeper than the depth limit).
const RUNAWAYS: [(&str, &str); 2] = [
    (
        "spin",
        "machine Spin { place any; long bumps = 0; state s { when (enter) do {
           long i = 0;
           while (i < 1000000) {
             long j = 0;
             while (j < 1000000) { bumps = bumps + 1; j = j + 1; }
             i = i + 1;
           }
         } } }",
    ),
    (
        "fork",
        "fun f(long n): long { if (n <= 0) then { return 1; } return f(n - 1) + f(n - 1); }
         machine Fork { place any; long got = 0; state s { when (enter) do { got = f(40); } } }",
    ),
];

#[test]
fn runaway_handlers_stop_at_the_budget_and_farmd_keeps_serving() {
    let farmd = Farmd::start(test_config()).expect("start farmd");
    let client = CtlClient::connect(farmd.local_addr());
    for (name, source) in RUNAWAYS {
        match client
            .op(ControlOp::SubmitProgram {
                name: name.into(),
                source: source.into(),
            })
            .expect("submit rpc")
        {
            ControlReply::Submitted { seeds, .. } => assert_eq!(seeds, 1, "{name}"),
            other => panic!("{name} answered {other:?}"),
        }
    }
    let asked = std::time::Instant::now();
    let body = match client.op(ControlOp::stats_all()).expect("stats rpc") {
        ControlReply::Json { body } => body,
        other => panic!("stats answered {other:?}"),
    };
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "{:?}",
        asked.elapsed()
    );
    for counter in ["farm.seed_errors", "soil.seed_errors"] {
        assert!(
            body.contains(&format!("\"{counter}\":2")),
            "{counter}: {body}"
        );
    }
    // Both seeds stay placed: a failed delivery drops its effects only.
    assert_eq!(list_seeds(&client).len(), 2);
    farmd.stop();
}

#[test]
fn admission_control_rejects_when_quota_exhausted() {
    let config = FarmdConfig {
        quota: 0.000001,
        ..test_config()
    };
    let farmd = Farmd::start(config).expect("start farmd");
    let client = CtlClient::connect(farmd.local_addr());
    // This machine's utility needs a whole vCPU before it runs at all,
    // so its admission demand is strictly positive.
    let greedy = "machine Greedy { place any; state s { util (res) { if (res.vCPU >= 1) then { return 1; } } } }";
    match client
        .op(ControlOp::SubmitProgram {
            name: "greedy".into(),
            source: greedy.into(),
        })
        .expect("submit rpc")
    {
        ControlReply::Rejected { reason } => {
            assert!(reason.contains("admission"), "{reason}");
        }
        other => panic!("quota submit answered {other:?}"),
    }
    assert!(list_seeds(&client).is_empty(), "nothing was deployed");
    farmd.stop();
}

#[test]
fn submit_explain_is_answered_only_when_asked() {
    let farmd = Farmd::start(test_config()).expect("start farmd");
    let addr = farmd.local_addr().to_string();
    let farmctl = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_farmctl"))
            .args(["--addr", &addr])
            .args(args)
            .output()
            .expect("run farmctl");
        assert!(out.status.success(), "farmctl {args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let program = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/load_watcher.alm"
    );

    let plain = farmctl(&["submit", program, "--name", "plain"]);
    assert_eq!(plain.lines().count(), 1, "{plain}");
    let plain = farmctl(&["--json", "submit", program, "--name", "plain_json"]);
    assert!(!plain.contains("explain"), "{plain}");

    let explained = farmctl(&["submit", program, "--name", "explained", "--explain"]);
    let lines: Vec<&str> = explained.lines().collect();
    assert_eq!(lines.len(), 2, "{explained}");
    assert!(lines[1].starts_with("explain: compile "), "{explained}");
    assert!(lines[1].contains("warm solve"), "{explained}");
    let explained = farmctl(&["--json", "submit", program, "--name", "x_json", "--explain"]);
    assert!(
        explained.contains("\"explain\":{\"compile_us\":"),
        "{explained}"
    );

    // The report is the plan's own: the solve is warm after the
    // submits above, and it visited the new task's step.
    let client = CtlClient::connect(farmd.local_addr());
    let op = ControlOp::ExplainSubmit {
        name: "direct".into(),
        source: WATCHER.into(),
    };
    match client.op(op).expect("submit rpc") {
        ControlReply::Submitted {
            explain: Some(e), ..
        } => {
            assert!(e.delta.warm, "{e:?}");
            assert!(e.delta.steps_visited >= 1, "{e:?}");
        }
        other => panic!("explained submit answered {other:?}"),
    }
    farmd.stop();
}

#[test]
fn farmctl_trace_prints_the_spans_of_a_recent_op() {
    let farmd = Farmd::start(test_config()).expect("start farmd");
    let addr = farmd.local_addr().to_string();
    let farmctl = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_farmctl"))
            .args(["--addr", &addr])
            .args(args)
            .output()
            .expect("run farmctl");
        assert!(out.status.success(), "farmctl {args:?}: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8")
    };
    let client = CtlClient::connect(farmd.local_addr());
    submit_watcher(&client);
    let switch = list_seeds(&client)[0].switch;
    client.op(ControlOp::Drain { switch }).expect("drain rpc");

    // The ring lists every op it holds, oldest first: the submit, the
    // listing and the drain, each under its own id.
    let all = farmctl(&["--json", "trace"]);
    let doc = farm_telemetry::Json::parse(all.trim()).expect("a JSON body");
    let ops = doc.get("ops").and_then(|o| o.as_arr()).expect("ops");
    let kinds: Vec<&str> = ops
        .iter()
        .filter_map(|op| op.get("kind")?.as_str())
        .collect();
    assert_eq!(kinds, ["submit", "list-seeds", "drain"], "{all}");
    let ids: Vec<u64> = ops.iter().filter_map(|op| op.get("id")?.as_u64()).collect();
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "{all}");

    // One op's spans, the phases of its round nested in `serve`.
    let submit = farmctl(&["trace", &ids[0].to_string()]);
    let lines: Vec<&str> = submit.lines().collect();
    assert_eq!(lines[0], format!("op {} submit", ids[0]), "{submit}");
    for phase in [
        "serve",
        "compile",
        "admission",
        "register",
        "replan",
        "plan",
        "commit",
        "plant",
    ] {
        assert!(
            lines.iter().any(|l| l.trim_start().starts_with(phase)),
            "no `{phase}` span: {submit}"
        );
    }
    assert!(lines[1].starts_with("  serve "), "{submit}");
    assert!(
        lines.iter().any(|l| l.starts_with("      plan ")),
        "`plan` nests in `replan` in `serve`: {submit}"
    );
    let drain = farmctl(&["trace", &ids[2].to_string()]);
    assert!(
        drain.starts_with(&format!("op {} drain", ids[2])),
        "{drain}"
    );
    assert!(drain.contains("    replan "), "{drain}");
    assert!(drain.contains("        migrate "), "{drain}");

    // An id the ring does not hold is a failure, and says so.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_farmctl"))
        .args(["--addr", &addr, "trace", "7"])
        .output()
        .expect("run farmctl");
    assert!(!out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim(),
        "no such op in the trace ring"
    );
    farmd.stop();
}

/// `farmctl audit` runs `Farm::audit` on farmd's core: clean after a
/// submit, a drain and an uncordon, in both output forms.
#[test]
fn farmctl_audit_holds_farmd_to_itself() {
    let farmd = Farmd::start(test_config()).expect("start farmd");
    let addr = farmd.local_addr().to_string();
    let client = CtlClient::connect(farmd.local_addr());
    submit_watcher(&client);
    let switch = list_seeds(&client)[0].switch;
    client.op(ControlOp::Drain { switch }).expect("drain rpc");
    let clean = ControlReply::Audited { findings: vec![] };
    assert_eq!(client.op(ControlOp::Audit).expect("audit rpc"), clean);
    client
        .op(ControlOp::Uncordon { switch })
        .expect("uncordon rpc");
    for (args, want) in [
        (&["audit"][..], "clean"),
        (
            &["--json", "audit"][..],
            r#"{"status":"audited","findings":[]}"#,
        ),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_farmctl"))
            .args(["--addr", &addr])
            .args(args)
            .output()
            .expect("run farmctl");
        assert!(out.status.success(), "farmctl {args:?}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), want);
    }
    farmd.stop();
}

#[test]
fn garbage_bytes_never_wedge_the_daemon() {
    let farmd = Farmd::start(test_config()).expect("start farmd");

    // A client that speaks no protocol at all: write junk, disconnect.
    {
        let mut raw = TcpStream::connect(farmd.local_addr()).expect("raw connect");
        raw.write_all(&[0xde, 0xad, 0xbe, 0xef, 0xff, 0x00, 0x12, 0x34])
            .expect("write junk");
        raw.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        // Drain whatever the server says (a structured error or a hangup);
        // the point is that it neither panics nor stalls.
        let mut sink = [0u8; 256];
        let _ = raw.read(&mut sink);
    }

    // The daemon still serves well-formed clients afterwards.
    let client = CtlClient::connect(farmd.local_addr());
    assert!(matches!(
        client.op(ControlOp::stats_all()).expect("stats rpc"),
        ControlReply::Json { .. }
    ));
    farmd.stop();
}
