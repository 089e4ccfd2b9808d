//! Golden bytes: one pinned encoding per message variant and per
//! optional-extension form, one checkpoint file, and the bytes of the
//! retired layouts the decoders must refuse.
//!
//! The round-trip property (`tests/prop_codec.rs`) cannot see a
//! symmetric mistake — two fields swapped in both directions, a tag
//! renumbered on both sides. These bytes can: each hex string is what
//! the codec put on the wire when the row was added, and a released
//! peer or a checkpoint on disk still holds exactly that. A row is
//! never edited; a new variant or extension form adds a row.

use farm_almanac::value::{ActionValue, PacketRecord, RuleValue, StatEntry, StatSubject, Value};
use farm_net::wire::WireError;
use farm_net::{
    decode_checkpoint, decode_envelope, encode_checkpoint_doc, encode_envelope, CheckpointDoc,
    ControlOp, ControlReply, Decoded, Diagnostic, Envelope, Frame, FrameDecoder, PodInfo,
    SeedDescriptor, SeedSnapshot,
};
use farm_netsim::switch::Resources;
use farm_netsim::types::{FilterAtom, FilterFormula, FlowKey, Ipv4, PortSel, Prefix, Proto};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn op(op: ControlOp) -> Envelope {
    Envelope::request(5, Frame::Control { op })
}

fn reply(reply: ControlReply) -> Envelope {
    Envelope::response(5, Frame::ControlReply { reply })
}

fn atom(a: FilterAtom) -> Box<FilterFormula> {
    Box::new(FilterFormula::Atom(a))
}

/// One value holding all 13 value tags, 6 formula tags, 6 atom tags
/// (both port selectors), 5 actions, 3 protocols and both stat subjects.
fn every_value_tag() -> Value {
    let formula = FilterFormula::And(
        Box::new(FilterFormula::Or(
            atom(FilterAtom::SrcIp(Prefix::new(Ipv4(0x0a00_0000), 8))),
            atom(FilterAtom::DstIp(Prefix::new(Ipv4(0xc0a8_0101), 32))),
        )),
        Box::new(FilterFormula::Not(Box::new(FilterFormula::And(
            Box::new(FilterFormula::Or(
                atom(FilterAtom::SrcPort(1024)),
                atom(FilterAtom::DstPort(443)),
            )),
            Box::new(FilterFormula::Or(
                Box::new(FilterFormula::And(
                    atom(FilterAtom::Proto(Proto::Udp)),
                    atom(FilterAtom::IfPort(PortSel::Any)),
                )),
                Box::new(FilterFormula::Or(
                    atom(FilterAtom::IfPort(PortSel::Id(47))),
                    Box::new(FilterFormula::And(
                        Box::new(FilterFormula::True),
                        Box::new(FilterFormula::False),
                    )),
                )),
            )),
        )))),
    );
    Value::List(vec![
        Value::Unit,
        Value::Bool(true),
        Value::Int(-77),
        Value::Float(2.5),
        Value::Str("10.0.0.1".into()),
        Value::List(vec![]),
        Value::Packet(PacketRecord {
            flow: FlowKey {
                src: Ipv4(0x0a00_0001),
                dst: Ipv4(0x0a00_0002),
                proto: Proto::Tcp,
                src_port: 50_000,
                dst_port: 22,
            },
            len: 1500,
            syn: true,
            fin: false,
            ack: true,
        }),
        Value::Filter(formula),
        Value::Action(ActionValue::Drop),
        Value::Action(ActionValue::RateLimit(1_000_000)),
        Value::Action(ActionValue::SetQos(5)),
        Value::Action(ActionValue::Count),
        Value::Action(ActionValue::Mirror),
        Value::Rule(RuleValue {
            pattern: FilterFormula::Atom(FilterAtom::Proto(Proto::Icmp)),
            action: ActionValue::Mirror,
        }),
        Value::Resources(Resources([1.0, 100.0, 0.0, 12.5])),
        Value::Stat(StatEntry {
            subject: StatSubject::Port(9),
            tx_bytes: 1,
            rx_bytes: 2,
            tx_packets: 3,
            rx_packets: 4,
        }),
        Value::Stat(StatEntry {
            subject: StatSubject::Rule("dst_port 443".into()),
            tx_bytes: u64::MAX,
            rx_bytes: 0,
            tx_packets: 300,
            rx_packets: 128,
        }),
        Value::Pair(
            Box::new(Value::Str("k".into())),
            Box::new(Value::Pair(
                Box::new(Value::Int(i64::MIN)),
                Box::new(Value::Bool(false)),
            )),
        ),
    ])
}

fn snapshot() -> SeedSnapshot {
    SeedSnapshot {
        machine: "HH".into(),
        state: "Monitor".into(),
        vars: vec![
            ("threshold".into(), Value::Int(1000)),
            (
                "rule".into(),
                Value::Rule(RuleValue {
                    pattern: FilterFormula::Atom(FilterAtom::DstPort(443)),
                    action: ActionValue::RateLimit(1_000_000),
                }),
            ),
        ],
    }
}

fn descriptor() -> SeedDescriptor {
    SeedDescriptor {
        key: "mon/m0/s0".into(),
        task: "mon".into(),
        machine: "M".into(),
        switch: 2,
        state: "observe".into(),
        alloc: [1.0, 100.0, 0.0, 12.5],
    }
}

fn seeds_page(next_index: u64, total: u64) -> Envelope {
    reply(ControlReply::Seeds {
        seeds: vec![descriptor()],
        next_index,
        total,
    })
}

const SOURCE: &str = "machine M { place any; state s { } }";

/// `(envelope, the bytes it travels as)`.
#[rustfmt::skip]
fn golden() -> Vec<(Envelope, &'static str)> {
    vec![
        // ---- frames ------------------------------------------------
        (Envelope::one_way(Frame::Hello { node: "pod-a".into(), protocol: 1 }), "0b0100000005706f642d6101"),
        (Envelope::one_way(Frame::Heartbeat { switch: 7, seq: 42, at_ns: 1_000_000 }), "0901010000072ac0843d"),
        (Envelope::response(17, Frame::Ack), "0401060111"),
        (Envelope::response(300, Frame::Error { message: "boom".into() }), "0a010701ac0204626f6f6d"),
        (Envelope::one_way(Frame::Shutdown), "0401080000"),
        // ---- control ops -------------------------------------------
        (op(ControlOp::SubmitProgram { name: "mon".into(), source: SOURCE.into() }), "2e0109000500036d6f6e246d616368696e65204d207b20706c61636520616e793b2073746174652073207b207d207d"),
        (op(ControlOp::list_all()), "050109000501"),
        (op(ControlOp::ListSeeds { from_index: 128, limit: 0 }), "080109000501800100"),
        (op(ControlOp::ListSeeds { from_index: 0, limit: 64 }), "0701090005010040"),
        (op(ControlOp::ListSeeds { from_index: 128, limit: 64 }), "080109000501800140"),
        (op(ControlOp::DescribeSeed { key: "mon/m0/s0".into() }), "0f0109000502096d6f6e2f6d302f7330"),
        (op(ControlOp::stats_all()), "050109000503"),
        (op(ControlOp::Stats { from_index: 10, limit: 0 }), "0701090005030a00"),
        (op(ControlOp::Stats { from_index: 0, limit: 5 }), "0701090005030005"),
        (op(ControlOp::Stats { from_index: 10, limit: 5 }), "0701090005030a05"),
        (op(ControlOp::MetricsDump), "050109000504"),
        (op(ControlOp::Drain { switch: 3 }), "06010900050503"),
        (op(ControlOp::Uncordon { switch: 3 }), "06010900050603"),
        (op(ControlOp::Replan), "050109000507"),
        (op(ControlOp::Checkpoint), "050109000508"),
        (op(ControlOp::Restore), "050109000509"),
        (op(ControlOp::Shutdown), "05010900050a"),
        (op(ControlOp::RegisterPod { name: "pod-a".into(), addr: "127.0.0.1:7001".into(), switches: 48, quota: 0.8 }), "23010900050b05706f642d610e3132372e302e302e313a37303031309a9999999999e93f"),
        (op(ControlOp::PodHeartbeat { name: "pod-a".into(), seq: 17 }), "0c010900050c05706f642d6111"),
        (op(ControlOp::ListPods), "05010900050d"),
        (op(ControlOp::MigrateTask { task: "mon".into(), to_pod: "pod-b".into() }), "0f010900050e036d6f6e05706f642d62"),
        (op(ControlOp::ExportTask { task: "mon".into() }), "09010900050f036d6f6e"),
        (op(ControlOp::SubmitWithSnapshot { name: "mon".into(), source: SOURCE.into(), seeds: vec![("mon/m0/s0".into(), snapshot()), ("mon/m0/s1".into(), snapshot())] }), "95010109000510036d6f6e246d616368696e65204d207b20706c61636520616e793b2073746174652073207b207d207d02096d6f6e2f6d302f73300001024848074d6f6e69746f7202097468726573686f6c6402d00f0472756c65090203bb0301c0843d096d6f6e2f6d302f73310001024848074d6f6e69746f7202097468726573686f6c6402d00f0472756c65090203bb0301c0843d"),
        (op(ControlOp::RemoveTask { task: "mon".into() }), "090109000511036d6f6e"),
        (op(ControlOp::Trace { id: 4_294_967_297 }), "0a01090005138180808010"),
        (op(ControlOp::Audit), "050109000514"),
        (op(ControlOp::Traced { parent: 4_294_967_297, op: Box::new(ControlOp::Stats { from_index: 0, limit: 100 }) }), "0d01090005158180808010030064"),
        // ---- control replies ---------------------------------------
        (reply(ControlReply::Ok), "05010a010500"),
        (reply(ControlReply::Submitted { task: "mon".into(), seeds: 5, actions: 6 }), "0b010a010501036d6f6e0506"),
        (reply(ControlReply::Seeds { seeds: vec![descriptor(), descriptor()], next_index: 0, total: 0 }), "78010a01050202096d6f6e2f6d302f7330036d6f6e014d02076f627365727665000000000000f03f000000000000594000000000000000000000000000002940096d6f6e2f6d302f7330036d6f6e014d02076f627365727665000000000000f03f000000000000594000000000000000000000000000002940"),
        (seeds_page(3, 0), "41010a01050201096d6f6e2f6d302f7330036d6f6e014d02076f627365727665000000000000f03f0000000000005940000000000000000000000000000029400300"),
        (seeds_page(0, 9), "41010a01050201096d6f6e2f6d302f7330036d6f6e014d02076f627365727665000000000000f03f0000000000005940000000000000000000000000000029400009"),
        (seeds_page(3, 9), "41010a01050201096d6f6e2f6d302f7330036d6f6e014d02076f627365727665000000000000f03f0000000000005940000000000000000000000000000029400309"),
        (reply(ControlReply::Seed { desc: descriptor(), vars: vec![("threshold".into(), "1000".into())] }), "4e010a010503096d6f6e2f6d302f7330036d6f6e014d02076f627365727665000000000000f03f00000000000059400000000000000000000000000000294001097468726573686f6c640431303030"),
        (reply(ControlReply::Json { body: "{\"a\":1}".into() }), "0d010a010504077b2261223a317d"),
        (reply(ControlReply::Drained { switch: 2, evacuated: 3 }), "07010a0105050203"),
        (reply(ControlReply::Replanned { actions: 4, dropped_tasks: 1 }), "07010a0105060401"),
        (reply(ControlReply::Checkpointed { seeds: 7, persist_error: None }), "06010a01050707"),
        (reply(ControlReply::Checkpointed { seeds: 7, persist_error: Some(String::new()) }), "07010a0105070700"),
        (reply(ControlReply::Checkpointed { seeds: 7, persist_error: Some("disk full".into()) }), "10010a01050707096469736b2066756c6c"),
        (reply(ControlReply::Restored { seeds: 7, skipped: 0 }), "06010a01050807"),
        (reply(ControlReply::Restored { seeds: 7, skipped: 2 }), "07010a0105080702"),
        (reply(ControlReply::Rejected { reason: "quota exceeded".into() }), "14010a0105090e71756f7461206578636565646564"),
        (reply(ControlReply::CompileFailed { diagnostics: vec![Diagnostic { machine: "M".into(), phase: "parse".into(), line: 3, col: 14, message: "expected `;`".into() }] }), "1d010a01050a01014d057061727365030e0c657870656374656420603b60"),
        (reply(ControlReply::PodRegistered { base: 96 }), "06010a01050b60"),
        (reply(ControlReply::Pods { pods: vec![
            PodInfo { name: "pod-a".into(), addr: "127.0.0.1:7001".into(), switches: 48, base: 0, quota: 0.8, live: true, beats: 12, age_ms: 250 },
            PodInfo { name: "pod-b".into(), addr: "127.0.0.1:7002".into(), switches: 96, base: 48, quota: 0.5, live: false, beats: 0, age_ms: 30_000 },
        ] }), "4d010a01050c0205706f642d610e3132372e302e302e313a3730303130009a9999999999e93f010cfa0105706f642d620e3132372e302e302e313a373030326030000000000000e03f0000b0ea01"),
        (reply(ControlReply::Pods { pods: vec![] }), "06010a01050c00"),
        (reply(ControlReply::Migrated { task: "mon".into(), from_pod: "pod-a".into(), to_pod: "pod-b".into(), seeds: 4 }), "16010a01050d036d6f6e05706f642d6105706f642d6204"),
        (reply(ControlReply::TaskExport { source: SOURCE.into(), seeds: vec![("mon/m0/s0".into(), snapshot())] }), "5e010a01050e246d616368696e65204d207b20706c61636520616e793b2073746174652073207b207d207d01096d6f6e2f6d302f73300001024848074d6f6e69746f7202097468726573686f6c6402d00f0472756c65090203bb0301c0843d"),
        (reply(ControlReply::TaskExport { source: String::new(), seeds: vec![] }), "07010a01050e0000"),
        (reply(ControlReply::Audited { findings: vec![] }), "06010a01050f00"),
        (reply(ControlReply::Audited { findings: vec!["pod-a: export: not in order".into(), "pod-b: unknown pod".into()] }), "35010a01050f021b706f642d613a206578706f72743a206e6f7420696e206f7264657212706f642d623a20756e6b6e6f776e20706f64"),
        // The whole value tree travels only inside seed snapshots.
        (reply(ControlReply::TaskExport { source: String::new(), seeds: vec![("mon/m0/s0".into(), SeedSnapshot { machine: "HH".into(), state: "Monitor".into(), vars: vec![("every".into(), every_value_tag())] })] }), "eb01010a01050e0001096d6f6e2f6d302f73300001024848074d6f6e69746f72010565766572790512000101029901030000000000000440040831302e302e302e31050006818080508280805000d0860316dc0b050703040200808080500802018182a0850c20050304020280080203bb030403020401020500040205012f03000108000801c0843d0802050803080409020402040a000000000000f03f0000000000005940000000000000000000000000000029400b0009010203040b010c6473745f706f727420343433ffffffffffffffffff0100ac0280010c04016b0c02ffffffffffffffffff010100"),
    ]
}

#[test]
fn every_message_encodes_to_its_pinned_bytes() {
    let table = golden();
    for (row, (env, want)) in table.iter().enumerate() {
        let what = match &env.frame {
            Frame::Control { op } => op.kind(),
            Frame::ControlReply { reply } => reply.kind(),
            frame => frame.kind(),
        };
        let mut bytes = Vec::new();
        encode_envelope(env, &mut bytes);
        assert_eq!(hex(&bytes), *want, "row {row} ({what}): encoding drifted");
        let (got, consumed) = decode_envelope(&unhex(want)).expect("pinned bytes decode");
        assert_eq!(
            consumed,
            want.len() / 2,
            "row {row} ({what}): bytes left over"
        );
        assert_eq!(
            &got, env,
            "row {row} ({what}): pinned bytes decode differently"
        );
    }

    // The table has to keep covering the protocol: every variant of the
    // three message enums appears at least once.
    let kinds = |pick: fn(&Frame) -> Option<&'static str>| {
        let mut seen: Vec<_> = table
            .iter()
            .filter_map(|(env, _)| pick(&env.frame))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    };
    assert_eq!(kinds(|f| Some(f.kind())), 7, "frame variants");
    assert_eq!(
        kinds(|f| match f {
            Frame::Control { op } => Some(op.kind()),
            _ => None,
        }),
        21,
        "control op variants"
    );
    assert_eq!(
        kinds(|f| match f {
            Frame::ControlReply { reply } => Some(reply.kind()),
            _ => None,
        }),
        16,
        "control reply variants"
    );
}

/// Frame tags 2–5 and control op tag 18 are reserved: their messages
/// were deleted, and these are the bytes a released peer sent for them
/// (one row per tag, as the table pinned them).
#[rustfmt::skip]
const RETIRED: [(&str, u8, &str); 5] = [
    ("frame", 2, "050102000000"), // PollReport, no reports
    ("frame", 3, "11010300020248480003000000000000d03f"), // HarvesterDirective
    ("frame", 4, "1a01040003026868030b0248480341676700c09fab03f8552a0207"), // SeedMessage
    ("frame", 5, "320105000102686800040001024848074d6f6e69746f7202097468726573686f6c6402d00f0472756c65090203bb0301c0843d"), // Migrate
    ("control op", 18, "2e0109000512036d6f6e246d616368696e65204d207b20706c61636520616e793b2073746174652073207b207d207d"), // ExplainSubmit
];

#[test]
fn retired_frame_tags_are_a_typed_error_and_the_stream_stays_aligned() {
    let next = Envelope::one_way(Frame::Heartbeat {
        switch: 7,
        seq: 42,
        at_ns: 1_000_000,
    });
    for (what, tag, bytes) in RETIRED {
        let retired = unhex(bytes);
        let want = WireError::Tag { what, tag };
        assert_eq!(decode_envelope(&retired).err(), Some(want.clone()));
        let mut stream = retired.clone();
        encode_envelope(&next, &mut stream);
        let mut decoder = FrameDecoder::new();
        decoder.extend(&stream);
        match decoder.next() {
            Ok(Some(Decoded::Bad { error, nbytes, .. })) => {
                assert_eq!((error, nbytes), (want, retired.len()), "tag {tag}");
            }
            other => panic!("tag {tag}: expected Bad, got {other:?}"),
        }
        match decoder.next() {
            Ok(Some(Decoded::Frame(env, _))) => assert_eq!(env, next, "tag {tag}"),
            other => panic!("tag {tag}: expected the next frame, got {other:?}"),
        }
    }
}

fn checkpoint_snapshot() -> SeedSnapshot {
    SeedSnapshot {
        machine: "HH".into(),
        state: "Monitor".into(),
        vars: vec![
            ("threshold".into(), Value::Int(1000)),
            ("label".into(), Value::Str("hot".into())),
        ],
    }
}

fn checkpoint_seeds() -> Vec<(String, SeedSnapshot)> {
    vec![
        ("hh/m0/s0".to_string(), checkpoint_snapshot()),
        ("hh/m0/s1".to_string(), checkpoint_snapshot()),
    ]
}

/// The one generation, written and read.
const FARMCKP2: &str = "4641524d434b5032041307fd5a96000268680e6d616368696e65204848207b207d1329c1bef400026c770e6d616368696e65204c57207b207d3047739e9b010868682f6d302f73300001024848074d6f6e69746f7202097468726573686f6c6402d00f056c6162656c0403686f7430ee7817d5010868682f6d302f73310001024848074d6f6e69746f7202097468726573686f6c6402d00f056c6162656c0403686f74";
/// Refused: the layout `FARMCKP2` replaced; these bytes came out of its
/// last writer.
const FARMCKP1: &str = "4641524d434b5031020868682f6d302f73300001024848074d6f6e69746f7202097468726573686f6c6402d00f056c6162656c0403686f740868682f6d302f73310001024848074d6f6e69746f7202097468726573686f6c6402d00f056c6162656c0403686f74";
/// Refused: the pre-versioning layout (no magic, untagged snapshots).
const UNTAGGED: &str = "020868682f6d302f7330024848074d6f6e69746f7202097468726573686f6c6402d00f056c6162656c0403686f740868682f6d302f7331024848074d6f6e69746f7202097468726573686f6c6402d00f056c6162656c0403686f74";
/// Refused: a `SubmitWithSnapshot { name: "mon", source: "", seeds:
/// [("mon/m0/s0", HH/Monitor, no vars)] }` whose snapshot lacks the
/// `0x00` marker and version, as written before snapshots were tagged.
const UNTAGGED_SUBMIT: &str =
    "210109000510036d6f6e0001096d6f6e2f6d302f7330024848074d6f6e69746f7200";

#[test]
fn farmckp2_reads_its_pinned_bytes_and_older_generations_are_refused() {
    let doc = CheckpointDoc {
        programs: vec![
            ("hh".to_string(), "machine HH { }".to_string()),
            ("lw".to_string(), "machine LW { }".to_string()),
        ],
        seeds: checkpoint_seeds(),
    };
    assert_eq!(
        hex(&encode_checkpoint_doc(&doc)),
        FARMCKP2,
        "FARMCKP2 drifted"
    );
    let load = decode_checkpoint(&unhex(FARMCKP2)).expect("FARMCKP2 decodes");
    assert!(!load.salvaged);
    assert_eq!((load.corrupt_records, load.unknown_records), (0, 0));
    assert_eq!(load.doc, doc);

    for (bytes, found) in [
        (unhex(FARMCKP1), "a FARMCKP1 file"),
        (unhex(UNTAGGED), "no FARMCKP2 magic"),
        (vec![0x00], "no FARMCKP2 magic"),
    ] {
        let refused = decode_checkpoint(&bytes).expect_err(found);
        assert_eq!(refused, WireError::Checkpoint(found));
        assert!(refused.to_string().contains(found), "{refused}");
    }
}

#[test]
fn an_untagged_snapshot_in_a_frame_is_a_marker_error() {
    assert_eq!(
        decode_envelope(&unhex(UNTAGGED_SUBMIT)).err(),
        Some(WireError::Tag {
            what: "snapshot marker",
            tag: 2
        })
    );
}
