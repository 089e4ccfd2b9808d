//! Checkpoint-file persistence: farmd writes self-verifying `FARMCKP2`
//! checkpoint files (CRC-framed records, salvageable after torn
//! writes), `Restore` reads them back, and any other file is rejected
//! by name with the live seeds left as they were.

use std::path::PathBuf;
use std::time::Duration;

use farm_ctl::{CtlClient, Farmd, FarmdConfig, ServerConfig};
use farm_net::snapshot::CHECKPOINT_MAGIC;
use farm_net::{decode_checkpoint, encode_checkpoint_doc, CheckpointDoc, ControlOp, ControlReply};

const WATCHER: &str = include_str!("../../../examples/load_watcher.alm");

fn test_config(checkpoint_path: PathBuf) -> FarmdConfig {
    FarmdConfig {
        server: ServerConfig {
            shutdown_drain: Duration::from_millis(20),
            ..ServerConfig::default()
        },
        checkpoint_path: Some(checkpoint_path),
        ..FarmdConfig::default()
    }
}

fn scratch_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("farm-ckp-{}-{name}", std::process::id()))
}

fn submit_watcher(client: &CtlClient) {
    match client
        .op(ControlOp::SubmitProgram {
            name: "load_watcher".into(),
            source: WATCHER.into(),
        })
        .expect("submit rpc")
    {
        ControlReply::Submitted { seeds, .. } => assert_eq!(seeds, 1),
        other => panic!("submit answered {other:?}"),
    }
}

fn describe(client: &CtlClient, key: &str) -> (farm_net::SeedDescriptor, Vec<(String, String)>) {
    match client
        .op(ControlOp::DescribeSeed { key: key.into() })
        .expect("describe rpc")
    {
        ControlReply::Seed { desc, vars } => (desc, vars),
        other => panic!("describe answered {other:?}"),
    }
}

fn only_seed(client: &CtlClient) -> farm_net::SeedDescriptor {
    match client.op(ControlOp::list_all()).expect("list rpc") {
        ControlReply::Seeds { seeds, .. } => {
            assert_eq!(seeds.len(), 1);
            seeds.into_iter().next().unwrap()
        }
        other => panic!("list answered {other:?}"),
    }
}

#[test]
fn checkpoint_writes_versioned_file_and_restore_round_trips() {
    let path = scratch_file("versioned");
    let _ = std::fs::remove_file(&path);
    let farmd = Farmd::start(test_config(path.clone())).expect("start farmd");
    let client = CtlClient::connect(farmd.local_addr());
    submit_watcher(&client);

    match client.op(ControlOp::Checkpoint).expect("checkpoint rpc") {
        ControlReply::Checkpointed {
            seeds,
            persist_error,
        } => {
            assert_eq!(seeds, 1);
            assert_eq!(persist_error, None, "durable write must succeed");
        }
        other => panic!("checkpoint answered {other:?}"),
    }
    let bytes = std::fs::read(&path).expect("checkpoint file written");
    assert!(
        bytes.starts_with(CHECKPOINT_MAGIC),
        "file must lead with the FARMCKP2 magic, got {:?}",
        &bytes[..bytes.len().min(8)]
    );
    // The file carries the program catalog alongside the seed, so a
    // cold restart can recompile and replant everything.
    let load = decode_checkpoint(&bytes).expect("decode our own file");
    assert!(!load.salvaged, "a completed write has no torn tail");
    assert_eq!(load.doc.seeds.len(), 1);
    assert_eq!(load.doc.programs.len(), 1);
    assert_eq!(load.doc.programs[0].0, "load_watcher");

    match client.op(ControlOp::Restore).expect("restore rpc") {
        ControlReply::Restored { seeds, skipped } => {
            assert_eq!(seeds, 1);
            assert_eq!(skipped, 0);
        }
        other => panic!("restore answered {other:?}"),
    }
    drop(client);
    farmd.stop();
    let _ = std::fs::remove_file(&path);
}

/// Hand-truncate a `FARMCKP2` file mid-record: `Restore` must salvage
/// the intact prefix instead of rejecting the whole file.
#[test]
fn truncated_v2_checkpoint_salvages_intact_prefix() {
    let path = scratch_file("torn");
    let _ = std::fs::remove_file(&path);
    let farmd = Farmd::start(test_config(path.clone())).expect("start farmd");
    let client = CtlClient::connect(farmd.local_addr());
    submit_watcher(&client);

    match client.op(ControlOp::Checkpoint).expect("checkpoint rpc") {
        ControlReply::Checkpointed { seeds: 1, .. } => {}
        other => panic!("checkpoint answered {other:?}"),
    }
    let bytes = std::fs::read(&path).expect("checkpoint file written");
    // Tear off the tail of the final record (the seed snapshot); the
    // program record before it stays CRC-valid.
    let torn = &bytes[..bytes.len() - 3];
    let load = decode_checkpoint(torn).expect("torn v2 still decodes");
    assert!(load.salvaged, "a torn tail must raise the salvage flag");
    assert_eq!(load.doc.programs.len(), 1, "intact program record kept");
    assert!(load.doc.seeds.is_empty(), "damaged seed record dropped");
    std::fs::write(&path, torn).expect("write torn checkpoint");

    // Restore over the wire: the salvaged catalog recompiles the
    // program, and with its seed record gone the live seed simply
    // keeps its in-memory checkpoint state — no error, no wedge.
    match client.op(ControlOp::Restore).expect("restore rpc") {
        ControlReply::Restored { seeds, skipped } => {
            assert_eq!(seeds, 1, "live seed restored from in-memory state");
            assert_eq!(skipped, 0);
        }
        other => panic!("restore answered {other:?}"),
    }
    drop(client);
    farmd.stop();
    let _ = std::fs::remove_file(&path);
}

/// A program record that no longer compiles leaves its task
/// unregistered on the next boot: its seed records are skipped, not
/// kept in the snapshot store, so the next checkpoint file holds no
/// snapshot of a task it has no program for.
#[test]
fn seeds_of_a_task_that_fails_to_restore_are_skipped_not_written_back() {
    let path = scratch_file("broken-program");
    let _ = std::fs::remove_file(&path);
    let first = Farmd::start(test_config(path.clone())).expect("start farmd");
    let client = CtlClient::connect(first.local_addr());
    submit_watcher(&client);
    match client.op(ControlOp::Checkpoint).expect("checkpoint rpc") {
        ControlReply::Checkpointed { seeds: 1, .. } => {}
        other => panic!("checkpoint answered {other:?}"),
    }
    drop(client);
    first.stop();

    let bytes = std::fs::read(&path).expect("checkpoint file written");
    let mut doc = decode_checkpoint(&bytes).expect("decode our own file").doc;
    assert_eq!(doc.seeds.len(), 1);
    doc.programs[0].1 = "machine Broken {".into();
    std::fs::write(&path, encode_checkpoint_doc(&doc)).expect("write broken checkpoint");

    let second = Farmd::start(test_config(path.clone())).expect("start farmd");
    let client = CtlClient::connect(second.local_addr());
    match client.op(ControlOp::Restore).expect("restore rpc") {
        ControlReply::Restored { seeds, skipped } => {
            assert_eq!(seeds, 0);
            assert_eq!(skipped, 1, "the seed of the unregistered task");
        }
        other => panic!("restore answered {other:?}"),
    }
    match client.op(ControlOp::Checkpoint).expect("checkpoint rpc") {
        ControlReply::Checkpointed { seeds: 0, .. } => {}
        other => panic!("checkpoint answered {other:?}"),
    }
    let load = decode_checkpoint(&std::fs::read(&path).expect("checkpoint file written"))
        .expect("decode our own file");
    assert!(load.doc.programs.is_empty(), "{:?}", load.doc.programs);
    assert!(load.doc.seeds.is_empty(), "{:?}", load.doc.seeds);
    drop(client);
    second.stop();
    let _ = std::fs::remove_file(&path);
}

/// A program record under a name outside `[A-Za-z0-9_-]+` is not
/// deployed on restore, as a submit of it would be refused: a task
/// `x/m0` would list its seeds (`x/m0/m0/s0`) among task `x`'s. The
/// rest of the file restores, and the next checkpoint drops the record.
#[test]
fn a_program_record_under_a_bad_task_name_is_not_restored() {
    let path = scratch_file("bad-task-name");
    let doc = CheckpointDoc {
        programs: vec![
            ("x".into(), WATCHER.into()),
            ("x/m0".into(), WATCHER.into()),
        ],
        seeds: Vec::new(),
    };
    std::fs::write(&path, encode_checkpoint_doc(&doc)).expect("write checkpoint");

    let farmd = Farmd::start(test_config(path.clone())).expect("start farmd");
    let client = CtlClient::connect(farmd.local_addr());
    match client.op(ControlOp::Restore).expect("restore rpc") {
        ControlReply::Restored { skipped: 0, .. } => {}
        other => panic!("restore answered {other:?}"),
    }
    assert_eq!(only_seed(&client).task, "x");
    match client.op(ControlOp::Checkpoint).expect("checkpoint rpc") {
        ControlReply::Checkpointed { seeds: 1, .. } => {}
        other => panic!("checkpoint answered {other:?}"),
    }
    let load = decode_checkpoint(&std::fs::read(&path).expect("checkpoint file written"))
        .expect("decode our own file");
    let names: Vec<&str> = load.doc.programs.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["x"]);
    drop(client);
    farmd.stop();
    let _ = std::fs::remove_file(&path);
}

/// Files of the retired layouts — `FARMCKP1`, and the untagged one
/// before it — each holding a new value for the live seed: `Restore`
/// rejects them, naming what it found, and the seed keeps its state.
#[test]
fn older_generation_files_are_rejected_and_live_seeds_stay() {
    let path = scratch_file("retired");
    let _ = std::fs::remove_file(&path);
    let farmd = Farmd::start(test_config(path.clone())).expect("start farmd");
    let client = CtlClient::connect(farmd.local_addr());
    submit_watcher(&client);
    let seed = only_seed(&client);
    let (desc, before) = describe(&client, &seed.key);

    // One entry, `key` + snapshot `threshold = 4242`, as the retired
    // writers laid it out; every string here is shorter than 128 bytes,
    // so each length prefix is one byte.
    let mut untagged = vec![1];
    for s in [&seed.key, &desc.machine, &desc.state] {
        untagged.push(s.len() as u8);
        untagged.extend_from_slice(s.as_bytes());
    }
    untagged.extend_from_slice(b"\x01\x09threshold\x02\xa4\x42");
    let key_end = 2 + seed.key.len();
    let farmckp1 = [
        b"FARMCKP1",
        &untagged[..key_end],
        &[0, 1],
        &untagged[key_end..],
    ]
    .concat();

    for (file, found) in [
        (farmckp1, "a FARMCKP1 file"),
        (untagged, "no FARMCKP2 magic"),
    ] {
        std::fs::write(&path, &file).expect("write retired checkpoint");
        match client.op(ControlOp::Restore).expect("restore rpc") {
            ControlReply::Rejected { reason } => assert!(reason.contains(found), "{reason}"),
            other => panic!("restore answered {other:?}"),
        }
        assert_eq!(describe(&client, &seed.key), (desc.clone(), before.clone()));
    }
    drop(client);
    farmd.stop();
    let _ = std::fs::remove_file(&path);
}

/// A second farmd started by mistake on the live one's address must fail
/// before it boots: booting truncates the event log, and a core that
/// booted used to overwrite the live daemon's checkpoint with its own
/// empty state on its way out.
#[test]
fn a_farmd_that_cannot_bind_touches_neither_checkpoint_nor_event_log() {
    let ckpt = scratch_file("busy-port");
    let log = scratch_file("busy-port-events");
    std::fs::write(&ckpt, b"the live daemon's checkpoint").expect("write checkpoint");
    std::fs::write(&log, b"the live daemon's events\n").expect("write event log");
    let occupant = std::net::TcpListener::bind("127.0.0.1:0").expect("occupy a port");

    let mut config = test_config(ckpt.clone());
    config.server.listen = occupant.local_addr().expect("occupied address");
    config.restore_on_boot = false;
    config.event_log = Some(log.clone());
    let err = Farmd::start(config).err().expect("the address is taken");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);

    // Long enough for a core thread left running to reach its exit hook.
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        std::fs::read(&ckpt).expect("checkpoint still there"),
        b"the live daemon's checkpoint"
    );
    assert_eq!(
        std::fs::read(&log).expect("event log still there"),
        b"the live daemon's events\n"
    );
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&log);
}
