//! Kill-tested rolling upgrade: a real `farmd` binary on loopback TCP,
//! loaded with >100 seeds, ticking virtual time under an active churn
//! fault plan and checkpointing periodically — then SIGKILLed without
//! warning, restarted, and audited for zero seed loss against the last
//! durable checkpoint.
//!
//! The contract under test is the one the rolling-upgrade runbook in
//! the README leans on:
//!
//! * checkpoint writes are atomic, so the file a dead daemon leaves
//!   behind is always a complete `FARMCKP2` document, never a torn one;
//! * restore-on-boot recompiles the persisted program catalog and rolls
//!   every seed back to its checkpointed variables, byte-identically.
//!
//! `FARM_FAULT_SEED` selects the churn seed (default 7) so CI can soak
//! several deterministic fault schedules. `UPGRADE_STATS_OUT`, when
//! set, receives the post-restore stats JSON for artifact upload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use farm_ctl::CtlClient;
use farm_net::{decode_checkpoint, CheckpointDoc, ControlOp, ControlReply};

#[path = "util/mod.rs"]
mod util;
use util::{scratch, wait_exit, write_config};

/// Fabric shape used by the soak: 2 spines + 14 leaves = 16 switches,
/// so each `place all` task plants 16 seeds and 7 tasks plant 112 —
/// comfortably past the 100-seed bar the acceptance check sets.
const SPINES: usize = 2;
const LEAVES: usize = 14;
const TASKS: usize = 7;
const SEEDS_PER_TASK: usize = SPINES + LEAVES;

/// Churn warmup: submissions must land on a healthy fabric (a `place
/// all` task cannot be placed while one of its pinned switches is
/// down), so the fault plan starts this far into virtual time.
const FAULT_START_MS: u64 = 2_000;

/// A machine whose variables advance on every poll round, so "the
/// restored variables match the checkpoint byte-for-byte" is a real
/// assertion rather than comparing constants.
const SOAK_MACHINE: &str = "\
machine Soak {
  place all;
  poll pollStats = Poll { .ival = 10, .what = port ANY };
  long polls = 0;
  long seen = 0;
  state run {
    util (res) { if (res.vCPU >= 0) then { return 1; } }
    when (pollStats as stats) do {
      polls = polls + 1;
      seen = seen + list_len(stats);
    }
  }
}
";

fn fault_seed() -> u64 {
    std::env::var("FARM_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// The real farmd binary, located before anything is spawned.
fn farmd_bin() -> PathBuf {
    util::locate_bin("farmd", option_env!("CARGO_BIN_EXE_farmd"))
}

fn submit_soak_tasks(client: &CtlClient) {
    for i in 0..TASKS {
        match client
            .op(ControlOp::SubmitProgram {
                name: format!("soak{i}"),
                source: SOAK_MACHINE.into(),
            })
            .expect("submit rpc")
        {
            ControlReply::Submitted { seeds, .. } => {
                assert_eq!(
                    seeds as usize, SEEDS_PER_TASK,
                    "place all plants everywhere"
                );
            }
            other => panic!("submit soak{i} answered {other:?}"),
        }
    }
}

/// The farm's virtual clock, read off the stats body's leading
/// `"now_ns":<n>` field.
fn virtual_now_ns(client: &CtlClient) -> u64 {
    let body = match client.op(ControlOp::stats_all()).expect("stats rpc") {
        ControlReply::Json { body } => body,
        other => panic!("stats answered {other:?}"),
    };
    let rest = body
        .split_once("\"now_ns\":")
        .unwrap_or_else(|| panic!("no now_ns in {body}"))
        .1;
    rest.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("now_ns parses")
}

fn list_keys(client: &CtlClient) -> Vec<String> {
    match client.op(ControlOp::list_all()).expect("list rpc") {
        ControlReply::Seeds { seeds, .. } => seeds.into_iter().map(|s| s.key).collect(),
        other => panic!("list answered {other:?}"),
    }
}

/// `(name, rendered value)` pairs in `farm.seed_vars` order: the same
/// `Value::to_string` rendering, sorted — what `describe` replies with.
fn rendered_vars(doc: &CheckpointDoc) -> BTreeMap<String, (String, Vec<(String, String)>)> {
    doc.seeds
        .iter()
        .map(|(key, snap)| {
            let mut vars: Vec<(String, String)> = snap
                .vars
                .iter()
                .map(|(n, v)| (n.clone(), v.to_string()))
                .collect();
            vars.sort();
            (key.clone(), (snap.state.clone(), vars))
        })
        .collect()
}

/// Polls the checkpoint file until it holds every seed (each task's
/// seeds enter the store via heartbeat checkpoints, the file via the
/// periodic ticker), then lets churn run a little longer so the kill
/// lands mid-flight, not at a quiet point.
fn wait_for_full_checkpoint(path: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(bytes) = std::fs::read(path) {
            if let Ok(load) = decode_checkpoint(&bytes) {
                if load.doc.seeds.len() == TASKS * SEEDS_PER_TASK
                    && load.doc.programs.len() == TASKS
                {
                    return;
                }
            }
        }
        assert!(
            Instant::now() < deadline,
            "checkpoint never captured all {} seeds",
            TASKS * SEEDS_PER_TASK
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn sigkill_mid_churn_loses_no_seed_state() {
    let bin = farmd_bin();
    let ckpt = scratch("kill-ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let seed = fault_seed();

    // Phase 1: the victim. Virtual time ticks in wall lockstep, a churn
    // plan crashes and degrades leaf switches, and the whole farm is
    // checkpointed to disk every 40ms.
    let soak_cfg = write_config(
        "kill-soak.toml",
        format!(
            "[server]\nlisten = \"127.0.0.1:0\"\nshutdown_drain_ms = 20\n\
             checkpoint_path = \"{}\"\ncheckpoint_interval_ms = 40\n\
             [farm]\nspines = {SPINES}\nleaves = {LEAVES}\ntick_interval_ms = 5\n\
             [faults]\nseed = {seed}\nstart_ms = {FAULT_START_MS}\n\
             mean_gap_ms = 25\nhorizon_ms = 60000\n",
            ckpt.display()
        ),
    );
    let mut victim = util::spawn_daemon(&bin, &soak_cfg);
    let client = CtlClient::connect(victim.addr);
    submit_soak_tasks(&client);
    wait_for_full_checkpoint(&ckpt);
    // Virtual time runs in wall lockstep; hold the kill until the
    // fabric is demonstrably past the warmup and inside the churn
    // window, so the SIGKILL lands mid-fault-schedule.
    let churn_live_ns = (FAULT_START_MS + 500) * 1_000_000;
    let deadline = Instant::now() + Duration::from_secs(30);
    while virtual_now_ns(&client) < churn_live_ns {
        assert!(
            Instant::now() < deadline,
            "virtual clock never reached churn"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // Let faults and polls churn the captured state a while longer.
    std::thread::sleep(Duration::from_millis(300));

    // SIGKILL: no drain, no final checkpoint, no goodbye.
    victim.child.kill().expect("kill farmd");
    let _ = victim.child.wait();

    // Ground truth: whatever checkpoint the dead daemon last completed.
    // Atomic write means the file always decodes as a whole document.
    let bytes = std::fs::read(&ckpt).expect("checkpoint survives the kill");
    let load = decode_checkpoint(&bytes).expect("post-kill checkpoint decodes");
    assert!(
        !load.salvaged,
        "an atomically renamed file has no torn tail"
    );
    assert_eq!(load.corrupt_records, 0);
    assert_eq!(load.doc.programs.len(), TASKS);
    assert_eq!(load.doc.seeds.len(), TASKS * SEEDS_PER_TASK);
    assert!(load.doc.seeds.len() >= 100, "soak must cover >=100 seeds");
    let expected = rendered_vars(&load.doc);

    // Phase 2: the successor. Quiet config — no ticking, no faults, no
    // checkpoint ticker — so the restored state holds still while we
    // audit it. Restore-on-boot does all the work before the first op.
    let quiet_cfg = write_config(
        "kill-quiet.toml",
        format!(
            "[server]\nlisten = \"127.0.0.1:0\"\nshutdown_drain_ms = 20\n\
             checkpoint_path = \"{}\"\n[farm]\nspines = {SPINES}\nleaves = {LEAVES}\n",
            ckpt.display()
        ),
    );
    let mut successor = util::spawn_daemon(&bin, &quiet_cfg);
    let client = CtlClient::connect(successor.addr);

    // Zero seed loss: every checkpointed key is live again.
    let mut live = list_keys(&client);
    live.sort();
    let mut wanted: Vec<String> = expected.keys().cloned().collect();
    wanted.sort();
    assert_eq!(live, wanted, "restored seed population drifted");

    // Byte-identical variables (and machine state) per seed.
    for (key, (state, vars)) in &expected {
        match client
            .op(ControlOp::DescribeSeed { key: key.clone() })
            .expect("describe rpc")
        {
            ControlReply::Seed { desc, vars: got } => {
                assert_eq!(&desc.state, state, "{key}: state rolled back wrong");
                assert_eq!(&got, vars, "{key}: restored vars differ from checkpoint");
            }
            other => panic!("describe {key} answered {other:?}"),
        }
    }

    // Post-restore stats: the CI artifact, plus a sanity check that the
    // audit counters reflect a restored (not empty) daemon.
    let stats = match client.op(ControlOp::stats_all()).expect("stats rpc") {
        ControlReply::Json { body } => body,
        other => panic!("stats answered {other:?}"),
    };
    assert!(
        stats.contains(&format!("\"seeds\":{}", TASKS * SEEDS_PER_TASK)),
        "{stats}"
    );
    if let Ok(out) = std::env::var("UPGRADE_STATS_OUT") {
        std::fs::write(&out, &stats).expect("write stats artifact");
    }

    assert!(matches!(
        client.op(ControlOp::Shutdown).expect("shutdown rpc"),
        ControlReply::Ok
    ));
    let status = wait_exit(&mut successor.child, "after shutdown op");
    assert_eq!(status.code(), Some(0), "farmctl-driven shutdown exits 0");
}

/// The supervised half of the runbook: SIGTERM drains, writes a final
/// checkpoint even with no checkpoint ticker configured, removes the
/// PID file, and exits with the distinct code 3.
#[cfg(unix)]
#[test]
fn sigterm_drains_writes_final_checkpoint_and_exits_3() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;

    let bin = farmd_bin();
    let ckpt = scratch("term-ckpt");
    let pid_file = scratch("term-pid");
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&pid_file);
    let cfg = write_config(
        "term.toml",
        format!(
            "[server]\nlisten = \"127.0.0.1:0\"\nshutdown_drain_ms = 20\n\
             checkpoint_path = \"{}\"\npid_file = \"{}\"\n\
             [farm]\nspines = {SPINES}\nleaves = {LEAVES}\n",
            ckpt.display(),
            pid_file.display()
        ),
    );
    let mut farmd = util::spawn_daemon(&bin, &cfg);
    let client = CtlClient::connect(farmd.addr);
    match client
        .op(ControlOp::SubmitProgram {
            name: "soak".into(),
            source: SOAK_MACHINE.into(),
        })
        .expect("submit rpc")
    {
        ControlReply::Submitted { seeds, .. } => assert_eq!(seeds as usize, SEEDS_PER_TASK),
        other => panic!("submit answered {other:?}"),
    }
    let pid_body = std::fs::read_to_string(&pid_file).expect("pid file written");
    assert_eq!(
        pid_body.trim(),
        farmd.child.id().to_string(),
        "pid file content"
    );
    // No ticker and no checkpoint op ran, so only the SIGTERM teardown
    // can account for the file we assert below.
    assert!(!ckpt.exists(), "no checkpoint before the signal");

    assert_eq!(
        unsafe { kill(farmd.child.id() as i32, SIGTERM) },
        0,
        "send TERM"
    );
    let status = wait_exit(&mut farmd.child, "after SIGTERM");
    assert_eq!(status.code(), Some(3), "signal exit is distinct (code 3)");

    let bytes = std::fs::read(&ckpt).expect("final checkpoint written on TERM");
    let load = decode_checkpoint(&bytes).expect("final checkpoint decodes");
    assert_eq!(load.doc.programs.len(), 1);
    assert_eq!(load.doc.seeds.len(), SEEDS_PER_TASK);
    assert!(!pid_file.exists(), "pid file removed on graceful exit");
}
