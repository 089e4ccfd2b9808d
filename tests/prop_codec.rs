//! Property tests for the farm-net codec: every frame the generators
//! can produce must round-trip byte-exactly, and arbitrary mutilation
//! of valid bytes (truncation, bit flips) must be rejected or
//! re-interpreted without ever panicking or over-reading.
//!
//! The strategies are written by hand on purpose — they carry what the
//! wire declarations in `frame.rs` do not know (identifier shapes, the
//! all-zero cursor). What keeps them complete is
//! `generators_cover_every_tag_the_decoders_know` at the bottom.

use std::collections::BTreeSet;

use farm_almanac::value::{ActionValue, PacketRecord, RuleValue, StatEntry, StatSubject, Value};
use farm_net::wire::WireError;
use farm_net::{
    decode_body, decode_checkpoint, decode_envelope, encode_checkpoint_doc, encode_envelope,
    CheckpointDoc, ControlOp, ControlReply, Decoded, DeltaCounts, Diagnostic, Envelope, Explain,
    Frame, FrameDecoder, PodInfo, SeedDescriptor, PROTOCOL_VERSION,
};
use farm_netsim::switch::Resources;
use farm_netsim::types::{FilterAtom, FilterFormula, FlowKey, Ipv4, PortSel, Prefix, Proto};
use farm_soil::SeedSnapshot;
use proptest::collection::vec;
use proptest::prelude::*;

fn proto_strategy() -> BoxedStrategy<Proto> {
    prop_oneof![Just(Proto::Tcp), Just(Proto::Udp), Just(Proto::Icmp)].boxed()
}

fn prefix_strategy() -> BoxedStrategy<Prefix> {
    // Prefix::new normalizes host bits, which is exactly the canonical
    // form the decoder insists on.
    (any::<u32>(), 0u8..33)
        .prop_map(|(addr, len)| Prefix::new(Ipv4(addr), len))
        .boxed()
}

fn flow_strategy() -> BoxedStrategy<FlowKey> {
    (
        any::<u32>(),
        any::<u32>(),
        proto_strategy(),
        any::<u16>(),
        any::<u16>(),
    )
        .prop_map(|(s, d, proto, sp, dp)| FlowKey {
            src: Ipv4(s),
            dst: Ipv4(d),
            proto,
            src_port: sp,
            dst_port: dp,
        })
        .boxed()
}

fn atom_strategy() -> BoxedStrategy<FilterAtom> {
    prop_oneof![
        prefix_strategy().prop_map(FilterAtom::SrcIp),
        prefix_strategy().prop_map(FilterAtom::DstIp),
        any::<u16>().prop_map(FilterAtom::SrcPort),
        any::<u16>().prop_map(FilterAtom::DstPort),
        proto_strategy().prop_map(FilterAtom::Proto),
        prop_oneof![Just(PortSel::Any), any::<u16>().prop_map(PortSel::Id)]
            .prop_map(FilterAtom::IfPort),
    ]
    .boxed()
}

fn filter_strategy(depth: u32) -> BoxedStrategy<FilterFormula> {
    let leaf = prop_oneof![
        Just(FilterFormula::True),
        Just(FilterFormula::False),
        atom_strategy().prop_map(FilterFormula::Atom),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = filter_strategy(depth - 1);
    prop_oneof![
        leaf,
        (sub.clone(), sub.clone()).prop_map(|(a, b)| FilterFormula::And(Box::new(a), Box::new(b))),
        (sub.clone(), sub.clone()).prop_map(|(a, b)| FilterFormula::Or(Box::new(a), Box::new(b))),
        sub.prop_map(|f| FilterFormula::Not(Box::new(f))),
    ]
    .boxed()
}

fn action_strategy() -> BoxedStrategy<ActionValue> {
    prop_oneof![
        Just(ActionValue::Drop),
        any::<u64>().prop_map(ActionValue::RateLimit),
        any::<u8>().prop_map(ActionValue::SetQos),
        Just(ActionValue::Count),
        Just(ActionValue::Mirror),
    ]
    .boxed()
}

fn stat_strategy() -> BoxedStrategy<StatEntry> {
    (
        prop_oneof![
            any::<u16>().prop_map(StatSubject::Port),
            "[a-z]{0,12}".prop_map(StatSubject::Rule),
        ],
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(subject, tb, rb, tp, rp)| StatEntry {
            subject,
            tx_bytes: tb,
            rx_bytes: rb,
            tx_packets: tp,
            rx_packets: rp,
        })
        .boxed()
}

fn value_strategy(depth: u32) -> BoxedStrategy<Value> {
    // Finite floats only: NaN breaks PartialEq, and the wire carries
    // IEEE-754 bits verbatim anyway.
    let leaf = prop_oneof![
        (0u8..3).prop_map(|b| match b {
            0 => Value::Unit,
            1 => Value::Bool(false),
            _ => Value::Bool(true),
        }),
        any::<i64>().prop_map(Value::Int),
        (-1.0e12..1.0e12).prop_map(Value::Float),
        "[ -~]{0,16}".prop_map(Value::Str),
        (flow_strategy(), any::<u32>(), 0u8..8).prop_map(|(flow, len, flags)| {
            Value::Packet(PacketRecord {
                flow,
                len,
                syn: flags & 1 != 0,
                fin: flags & 2 != 0,
                ack: flags & 4 != 0,
            })
        }),
        filter_strategy(2).prop_map(Value::Filter),
        action_strategy().prop_map(Value::Action),
        (filter_strategy(1), action_strategy())
            .prop_map(|(pattern, action)| Value::Rule(RuleValue { pattern, action })),
        (0.0..1e6, 0.0..1e6, 0.0..1e6, 0.0..1e6)
            .prop_map(|(a, b, c, d)| Value::Resources(Resources([a, b, c, d]))),
        stat_strategy().prop_map(Value::Stat),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = value_strategy(depth - 1);
    prop_oneof![
        leaf,
        vec(sub.clone(), 0..4).prop_map(Value::List),
        (sub.clone(), sub).prop_map(|(a, b)| Value::Pair(Box::new(a), Box::new(b))),
    ]
    .boxed()
}

fn snapshot_strategy() -> BoxedStrategy<SeedSnapshot> {
    (
        "[a-z]{0,8}",
        "[a-z]{1,8}",
        vec(("[a-z]{1,8}", value_strategy(2)), 0..4),
    )
        .prop_map(|(machine, state, vars)| SeedSnapshot {
            machine,
            state,
            vars,
        })
        .boxed()
}

/// A listing cursor: the all-zero "everything" form (which encodes
/// without trailing cursor bytes) plus arbitrary windows.
fn cursor_strategy() -> BoxedStrategy<(u64, u64)> {
    prop_oneof![
        Just((0u64, 0u64)),
        (any::<u64>(), any::<u64>()),
        (0u64..128, 1u64..64),
    ]
    .boxed()
}

/// Keyed seed snapshots as carried by the migration frames
/// (`SubmitWithSnapshot` / `TaskExport`).
fn snapshot_entries_strategy() -> BoxedStrategy<Vec<(String, SeedSnapshot)>> {
    vec(("[a-z/0-9]{1,16}", snapshot_strategy()), 0..4).boxed()
}

fn control_op_strategy() -> BoxedStrategy<ControlOp> {
    prop_oneof![
        ("[a-z]{1,8}", "[ -~]{0,48}")
            .prop_map(|(name, source)| ControlOp::SubmitProgram { name, source }),
        ("[a-z]{1,8}", "[ -~]{0,48}")
            .prop_map(|(name, source)| ControlOp::ExplainSubmit { name, source }),
        cursor_strategy()
            .prop_map(|(from_index, limit)| ControlOp::ListSeeds { from_index, limit }),
        "[a-z/0-9]{1,16}".prop_map(|key| ControlOp::DescribeSeed { key }),
        cursor_strategy().prop_map(|(from_index, limit)| ControlOp::Stats { from_index, limit }),
        Just(ControlOp::MetricsDump),
        any::<u32>().prop_map(|switch| ControlOp::Drain { switch }),
        any::<u32>().prop_map(|switch| ControlOp::Uncordon { switch }),
        Just(ControlOp::Replan),
        Just(ControlOp::Checkpoint),
        Just(ControlOp::Restore),
        Just(ControlOp::Shutdown),
        any::<u64>().prop_map(|id| ControlOp::Trace { id }),
        Just(ControlOp::Audit),
        fed_control_op_strategy(),
    ]
    .boxed()
}

/// The federation additions to the op space (tags 11+), kept separate
/// so the mixed-version property can generate exactly these.
fn fed_control_op_strategy() -> BoxedStrategy<ControlOp> {
    prop_oneof![
        ("[a-z-]{1,8}", "[0-9.:]{1,16}", any::<u64>(), 0.0..1e3).prop_map(
            |(name, addr, switches, quota)| ControlOp::RegisterPod {
                name,
                addr,
                switches,
                quota,
            }
        ),
        ("[a-z-]{1,8}", any::<u64>()).prop_map(|(name, seq)| ControlOp::PodHeartbeat { name, seq }),
        Just(ControlOp::ListPods),
        ("[a-z]{1,8}", "[a-z-]{1,8}")
            .prop_map(|(task, to_pod)| ControlOp::MigrateTask { task, to_pod }),
        "[a-z]{1,8}".prop_map(|task| ControlOp::ExportTask { task }),
        ("[a-z]{1,8}", "[ -~]{0,48}", snapshot_entries_strategy()).prop_map(
            |(name, source, seeds)| ControlOp::SubmitWithSnapshot {
                name,
                source,
                seeds,
            }
        ),
        "[a-z]{1,8}".prop_map(|task| ControlOp::RemoveTask { task }),
    ]
    .boxed()
}

fn pod_info_strategy() -> BoxedStrategy<PodInfo> {
    // Empty strings included: each struct's minimal encoding is what a
    // list decoder's allocation bound has to admit.
    (
        "[a-z-]{0,8}",
        "[0-9.:]{0,16}",
        (any::<u64>(), any::<u64>(), 0.0..1e3),
        (0u8..2, any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(name, addr, (switches, base, quota), (live, beats, age_ms))| PodInfo {
                name,
                addr,
                switches,
                base,
                quota,
                live: live == 1,
                beats,
                age_ms,
            },
        )
        .boxed()
}

fn seed_descriptor_strategy() -> BoxedStrategy<SeedDescriptor> {
    (
        "[a-z/0-9]{0,16}",
        "[a-z]{0,8}",
        "[A-Z]{0,6}",
        any::<u32>(),
        "[a-z]{0,8}",
        (0.0..1e6, 0.0..1e6, 0.0..1e6, 0.0..1e6),
    )
        .prop_map(
            |(key, task, machine, switch, state, (a, b, c, d))| SeedDescriptor {
                key,
                task,
                machine,
                switch,
                state,
                alloc: [a, b, c, d],
            },
        )
        .boxed()
}

fn diagnostic_strategy() -> BoxedStrategy<Diagnostic> {
    (
        "[A-Z]{0,6}",
        "[a-z]{0,9}",
        any::<u32>(),
        any::<u32>(),
        "[ -~]{0,24}",
    )
        .prop_map(|(machine, phase, line, col, message)| Diagnostic {
            machine,
            phase,
            line,
            col,
            message,
        })
        .boxed()
}

/// A Submit's explanation, or none (the reply without its extension).
fn explain_strategy() -> BoxedStrategy<Option<Explain>> {
    prop_oneof![
        Just(None),
        (vec(any::<u64>(), 16), any::<bool>(), any::<bool>()).prop_map(
            |(n, fallback_full, warm)| Some(Explain {
                compile_us: n[0],
                admission_us: n[1],
                splice_us: n[2],
                replan_delta_us: n[3],
                commit_us: n[4],
                delta: DeltaCounts {
                    lp_switches: n[5],
                    frontier: n[6],
                    reused: n[7],
                    fallback_full,
                    warm,
                    steps_replayed: n[8],
                    steps_executed: n[9],
                    steps_visited: n[10],
                    steps_cascaded: n[11],
                    switches_rebuilt: n[12],
                    switches_read: n[13],
                    pairs_evaluated: n[14],
                    relocated: n[15],
                },
            })
        ),
    ]
    .boxed()
}

fn control_reply_strategy() -> BoxedStrategy<ControlReply> {
    prop_oneof![
        Just(ControlReply::Ok),
        ("[a-z]{1,8}", any::<u64>(), any::<u64>(), explain_strategy()).prop_map(
            |(task, seeds, actions, explain)| ControlReply::Submitted {
                task,
                seeds,
                actions,
                explain,
            }
        ),
        (vec(seed_descriptor_strategy(), 0..4), cursor_strategy()).prop_map(
            |(seeds, (next_index, total))| ControlReply::Seeds {
                seeds,
                next_index,
                total
            }
        ),
        (
            seed_descriptor_strategy(),
            vec(("[a-z]{1,8}", "[ -~]{0,16}"), 0..4)
        )
            .prop_map(|(desc, vars)| ControlReply::Seed { desc, vars }),
        "[ -~]{0,48}".prop_map(|body| ControlReply::Json { body }),
        (any::<u32>(), any::<u64>())
            .prop_map(|(switch, evacuated)| ControlReply::Drained { switch, evacuated }),
        (any::<u64>(), any::<u64>()).prop_map(|(actions, dropped_tasks)| {
            ControlReply::Replanned {
                actions,
                dropped_tasks,
            }
        }),
        (
            any::<u64>(),
            prop_oneof![Just(None), "[ -~]{0,24}".prop_map(Some)],
        )
            .prop_map(|(seeds, persist_error)| ControlReply::Checkpointed {
                seeds,
                persist_error,
            }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(seeds, skipped)| ControlReply::Restored { seeds, skipped }),
        "[ -~]{0,24}".prop_map(|reason| ControlReply::Rejected { reason }),
        vec(diagnostic_strategy(), 0..4)
            .prop_map(|diagnostics| ControlReply::CompileFailed { diagnostics }),
        vec("[ -~]{0,24}", 0..4).prop_map(|findings| ControlReply::Audited { findings }),
        fed_control_reply_strategy(),
    ]
    .boxed()
}

/// The federation additions to the reply space (tags 11+).
fn fed_control_reply_strategy() -> BoxedStrategy<ControlReply> {
    prop_oneof![
        any::<u64>().prop_map(|base| ControlReply::PodRegistered { base }),
        vec(pod_info_strategy(), 0..4).prop_map(|pods| ControlReply::Pods { pods }),
        ("[a-z]{1,8}", "[a-z-]{1,8}", "[a-z-]{1,8}", any::<u64>()).prop_map(
            |(task, from_pod, to_pod, seeds)| ControlReply::Migrated {
                task,
                from_pod,
                to_pod,
                seeds,
            }
        ),
        ("[ -~]{0,48}", snapshot_entries_strategy())
            .prop_map(|(source, seeds)| ControlReply::TaskExport { source, seeds }),
    ]
    .boxed()
}

fn frame_strategy() -> BoxedStrategy<Frame> {
    prop_oneof![
        control_op_strategy().prop_map(|op| Frame::Control { op }),
        control_reply_strategy().prop_map(|reply| Frame::ControlReply { reply }),
        ("[a-z-]{1,10}", any::<u32>()).prop_map(|(node, protocol)| Frame::Hello { node, protocol }),
        (any::<u32>(), any::<u64>(), any::<u64>())
            .prop_map(|(switch, seq, at_ns)| Frame::Heartbeat { switch, seq, at_ns }),
        Just(Frame::Ack),
        "[ -~]{0,24}".prop_map(|message| Frame::Error { message }),
        Just(Frame::Shutdown),
    ]
    .boxed()
}

fn checkpoint_doc_strategy() -> BoxedStrategy<CheckpointDoc> {
    (
        vec(("[a-z_]{1,10}", "[ -~]{0,48}"), 0..4),
        vec(("[a-z/0-9]{1,16}", snapshot_strategy()), 0..5),
    )
        .prop_map(|(programs, seeds)| CheckpointDoc { programs, seeds })
        .boxed()
}

/// Byte strings that do not start with `FARMCKP2`: a retired or damaged
/// magic, a real file with one magic byte changed, or no magic at all,
/// followed by bytes that are short and mostly zero as often as not
/// (so `[0x00]` and the empty `FARMCKP1` file come up) or arbitrary.
fn not_a_checkpoint_strategy() -> BoxedStrategy<Vec<u8>> {
    let head = prop_oneof![
        Just(Vec::new()),
        Just(b"FARMCKP1".to_vec()),
        (0usize..8).prop_map(|n| b"FARMCKP2"[..n].to_vec()),
        (0usize..8, 1u8..=255).prop_map(|(at, flip)| {
            let mut magic = b"FARMCKP2".to_vec();
            magic[at] ^= flip;
            magic
        }),
    ];
    let tail = prop_oneof![
        vec(prop_oneof![Just(0u8), Just(0u8), any::<u8>()], 0..3),
        vec(any::<u8>(), 0..256),
    ];
    let file = (checkpoint_doc_strategy(), 0usize..8, 1u8..=255).prop_map(|(doc, at, flip)| {
        let mut bytes = encode_checkpoint_doc(&doc);
        bytes[at] ^= flip;
        bytes
    });
    prop_oneof![
        (head, tail).prop_map(|(head, tail)| [head, tail].concat()),
        file,
    ]
    .prop_filter("starts with the magic", |bytes| {
        !bytes.starts_with(b"FARMCKP2")
    })
    .boxed()
}

fn envelope_strategy() -> BoxedStrategy<Envelope> {
    (any::<u64>(), 0u8..2, frame_strategy())
        .prop_map(|(corr, resp, frame)| Envelope {
            corr,
            response: resp == 1,
            frame,
        })
        .boxed()
}

/// How many tags a decoder knows, counted from outside by probing all
/// 256: an unknown tag is the only input answered with a
/// [`WireError::Tag`] naming this decoder and this tag.
fn known_tags(what: &'static str, body_with: impl Fn(u8) -> Vec<u8>) -> usize {
    (0..=255u8)
        .filter(|&tag| decode_body(&body_with(tag)).err() != Some(WireError::Tag { what, tag }))
        .count()
}

fn distinct(kinds: impl Iterator<Item = &'static str>) -> usize {
    kinds.collect::<BTreeSet<_>>().len()
}

proptest! {
    /// decode(encode(env)) == env, and re-encoding the decoded envelope
    /// reproduces the exact same bytes.
    #[test]
    fn codec_round_trip_is_byte_exact(env in envelope_strategy()) {
        let mut bytes = Vec::new();
        encode_envelope(&env, &mut bytes);
        let (decoded, consumed) = decode_envelope(&bytes).expect("decode valid frame");
        prop_assert_eq!(consumed, bytes.len());
        prop_assert_eq!(&decoded, &env);
        let mut again = Vec::new();
        encode_envelope(&decoded, &mut again);
        prop_assert_eq!(again, bytes);
    }

    /// Every truncation of a valid frame reports `Truncated` — the
    /// streaming reader's "wait for more bytes" signal — and no prefix
    /// ever decodes as a different complete frame.
    #[test]
    fn every_truncation_is_detected(env in envelope_strategy(), frac in 0.0..1.0f64) {
        let mut bytes = Vec::new();
        encode_envelope(&env, &mut bytes);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert_eq!(
            decode_envelope(&bytes[..cut]).err(),
            Some(WireError::Truncated),
            "cut at {} of {}", cut, bytes.len()
        );
    }

    /// Flipping any single byte never panics, never over-reads, and a
    /// successful decode still re-encodes within the original length.
    #[test]
    fn corrupt_bytes_never_panic(env in envelope_strategy(), pos_frac in 0.0..1.0f64, flip in 1u8..=255) {
        let mut bytes = Vec::new();
        encode_envelope(&env, &mut bytes);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        // Anything else is a clean typed rejection.
        if let Ok((_, consumed)) = decode_envelope(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }

    /// Random garbage (not derived from any valid frame) is rejected or
    /// bounded — decoding can never consume more than it was given.
    #[test]
    fn random_garbage_is_handled_totally(bytes in vec(any::<u8>(), 0..256)) {
        if let Ok((_, consumed)) = decode_envelope(&bytes) {
            prop_assert!(consumed <= bytes.len());
        }
    }

    /// The event loop's incremental [`FrameDecoder`] must peel exactly
    /// the same envelopes out of a byte stream as the one-shot decoder,
    /// no matter how the kernel fragments the reads: the concatenated
    /// encoding of several frames is replayed in arbitrary chunk sizes
    /// (including single bytes) and the decoded sequence compared.
    #[test]
    fn incremental_decoder_matches_one_shot_on_any_split(
        envs in vec(envelope_strategy(), 1..5),
        chunks in vec(1usize..17, 0..32),
    ) {
        let mut stream = Vec::new();
        for env in &envs {
            encode_envelope(env, &mut stream);
        }

        // One-shot reference: repeated decode_envelope over the stream.
        let mut reference = Vec::new();
        let mut rest: &[u8] = &stream;
        while !rest.is_empty() {
            let (env, consumed) = decode_envelope(rest).expect("valid stream");
            reference.push(env);
            rest = &rest[consumed..];
        }
        prop_assert_eq!(&reference, &envs);

        // Incremental: feed the same bytes in arbitrary fragments,
        // draining complete frames after every fragment.
        let mut decoder = FrameDecoder::new();
        let mut incremental = Vec::new();
        let mut offset = 0;
        let mut sizes = chunks.iter().copied().cycle();
        while offset < stream.len() {
            let n = sizes.next().unwrap_or(1).min(stream.len() - offset);
            decoder.extend(&stream[offset..offset + n]);
            offset += n;
            while let Some(decoded) = decoder.next().expect("clean framing") {
                match decoded {
                    Decoded::Frame(env, _) => incremental.push(env),
                    Decoded::Bad { error, .. } => panic!("valid frame decoded as Bad: {error:?}"),
                }
            }
        }
        prop_assert_eq!(decoder.buffered(), 0, "no residual bytes after full replay");
        prop_assert_eq!(&incremental, &reference);
    }

    /// A `FARMCKP2` checkpoint document survives the disk round trip
    /// losslessly: same programs, same seeds, no salvage flags raised.
    #[test]
    fn checkpoint_v2_round_trips(doc in checkpoint_doc_strategy()) {
        let bytes = encode_checkpoint_doc(&doc);
        let load = decode_checkpoint(&bytes).expect("intact file decodes");
        prop_assert!(!load.salvaged);
        prop_assert_eq!(load.corrupt_records, 0);
        prop_assert_eq!(load.doc, doc);
    }

    /// Cutting a `FARMCKP2` file anywhere — a torn write — still yields
    /// a clean load of some prefix of the original records, never a
    /// panic and never invented entries. This is the crash-safety
    /// contract the restore path leans on.
    #[test]
    fn checkpoint_v2_truncation_salvages_a_prefix(
        doc in checkpoint_doc_strategy(),
        frac in 0.0..1.0f64,
    ) {
        let bytes = encode_checkpoint_doc(&doc);
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        match decode_checkpoint(&bytes[..cut]) {
            Ok(load) => {
                prop_assert!(load.doc.programs.len() <= doc.programs.len());
                prop_assert!(load.doc.seeds.len() <= doc.seeds.len());
                prop_assert_eq!(&load.doc.programs[..], &doc.programs[..load.doc.programs.len()]);
                prop_assert_eq!(&load.doc.seeds[..], &doc.seeds[..load.doc.seeds.len()]);
                let complete = load.doc.programs.len() == doc.programs.len()
                    && load.doc.seeds.len() == doc.seeds.len();
                prop_assert!(
                    load.salvaged || complete,
                    "lost records without raising the salvage flag (cut at {} of {})",
                    cut, bytes.len()
                );
            }
            // A cut inside the 8-byte magic leaves no checkpoint to
            // salvage: the file is refused with the typed error.
            Err(_) => prop_assert!(cut < 8, "v2 body cut at {} must salvage", cut),
        }
    }

    /// Flipping any single byte of a `FARMCKP2` file never panics: the
    /// CRC framing either drops the damaged record (salvage) or the
    /// file stops looking like a checkpoint and errors cleanly.
    #[test]
    fn checkpoint_v2_bit_flips_never_panic(
        doc in checkpoint_doc_strategy(),
        pos_frac in 0.0..1.0f64,
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_checkpoint_doc(&doc);
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        if let Ok(load) = decode_checkpoint(&bytes) {
            // However the damage lands, nothing is invented out of thin
            // air beyond what the original document contained.
            prop_assert!(load.doc.programs.len() <= doc.programs.len());
            prop_assert!(load.doc.seeds.len() <= doc.seeds.len());
        }
    }

    /// A `FARMCKP2` file flipped, cut, grown or with a run of its bytes
    /// duplicated anywhere — magic, record headers, CRCs, bodies — loads
    /// or is refused, never panics: the mutation loop of
    /// `prop_json.rs`'s `parser_is_total_on_mutated_documents` over the
    /// checkpoint reader.
    #[test]
    fn checkpoint_decoder_is_total_on_mutated_files(
        doc in checkpoint_doc_strategy(),
        edits in vec((any::<usize>(), any::<u8>(), 0u8..5, 1usize..64), 1..6),
    ) {
        let mut bytes = encode_checkpoint_doc(&doc);
        for (at, byte, kind, len) in edits {
            let at = at % (bytes.len() + 1);
            match kind {
                0 if at < bytes.len() => bytes[at] ^= byte.max(1),
                1 => bytes.insert(at, byte),
                2 if at < bytes.len() => drop(bytes.remove(at)),
                3 => {
                    let run = bytes[at..(at + len).min(bytes.len())].to_vec();
                    bytes.splice(at..at, run);
                }
                _ => bytes.truncate(at),
            }
        }
        if let Ok(load) = decode_checkpoint(&bytes) {
            // A duplicated record may load twice, but every record that
            // loads is one the file held: the CRCs see to that.
            prop_assert!(load.doc.programs.iter().all(|p| doc.programs.contains(p)));
            prop_assert!(load.doc.seeds.iter().all(|s| doc.seeds.contains(s)));
        }
    }

    /// Only `FARMCKP2` is read: any other byte string is refused with
    /// the typed error naming what it found, never loaded as an empty
    /// or partial checkpoint.
    #[test]
    fn anything_without_the_magic_is_refused(bytes in not_a_checkpoint_strategy()) {
        let found = if bytes.starts_with(b"FARMCKP1") {
            "a FARMCKP1 file"
        } else {
            "no FARMCKP2 magic"
        };
        prop_assert_eq!(decode_checkpoint(&bytes).err(), Some(WireError::Checkpoint(found)));
    }

    /// Mixed-version federation: a decoder that predates the fed tags
    /// must step over them without desyncing the stream. Simulated by
    /// rewriting a fed control frame's op tag to a value *no* revision
    /// knows — exactly the position a pre-federation decoder is in when
    /// tags 11+ arrive — and asserting the framing consumes the whole
    /// frame as a typed `Bad` and decodes the next frame intact.
    #[test]
    fn unknown_fed_tags_step_over_without_desync(
        op in fed_control_op_strategy(),
        corr in 1u64..1_000_000,
        follow in envelope_strategy(),
        unknown_tag in 200u8..=255,
    ) {
        let fed_env = Envelope { corr, response: false, frame: Frame::Control { op } };
        let mut bytes = Vec::new();
        encode_envelope(&fed_env, &mut bytes);
        let framed_len = bytes.len();

        // Walk the envelope header (len:varint | ver | kind | flags |
        // corr:varint) to the first payload byte — the control op tag.
        let mut at = 0;
        while bytes[at] & 0x80 != 0 { at += 1; }
        at += 1; // length varint
        at += 3; // version, frame kind, flags
        while bytes[at] & 0x80 != 0 { at += 1; }
        at += 1; // correlation varint
        bytes[at] = unknown_tag;

        prop_assert_eq!(
            decode_envelope(&bytes).err(),
            Some(WireError::Tag { what: "control op", tag: unknown_tag })
        );

        encode_envelope(&follow, &mut bytes);
        let mut decoder = FrameDecoder::new();
        decoder.extend(&bytes);
        match decoder.next().expect("framing survives an unknown tag") {
            Some(Decoded::Bad { corr: recovered, error, nbytes }) => {
                prop_assert_eq!(nbytes, framed_len, "Bad consumes exactly the framed bytes");
                prop_assert_eq!(recovered, Some(corr), "corr recoverable for an Error reply");
                prop_assert_eq!(error, WireError::Tag { what: "control op", tag: unknown_tag });
            }
            other => prop_assert!(false, "expected Bad, got {:?}", other),
        }
        match decoder.next().expect("stream stays in sync") {
            Some(Decoded::Frame(env, _)) => prop_assert_eq!(env, follow),
            other => prop_assert!(false, "expected next frame, got {:?}", other),
        }
        prop_assert_eq!(decoder.buffered(), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// No variant can be missing from the generators: each strategy
    /// must produce as many distinct kinds as its decoder knows tags,
    /// so a variant declared in `frame.rs` without a generator arm here
    /// fails the suite instead of silently shrinking what the
    /// properties above cover. (The rarest arm is drawn 1 time in 84.)
    #[test]
    fn generators_cover_every_tag_the_decoders_know(
        ops in vec(control_op_strategy(), 2048),
        replies in vec(control_reply_strategy(), 2048),
        frames in vec(frame_strategy(), 512),
    ) {
        prop_assert_eq!(
            distinct(ops.iter().map(ControlOp::kind)),
            known_tags("control op", |tag| vec![PROTOCOL_VERSION, 9, 0, 1, tag])
        );
        prop_assert_eq!(
            distinct(replies.iter().map(ControlReply::kind)),
            known_tags("control reply", |tag| vec![PROTOCOL_VERSION, 10, 1, 1, tag])
        );
        prop_assert_eq!(
            distinct(frames.iter().map(Frame::kind)),
            known_tags("frame", |tag| vec![PROTOCOL_VERSION, tag, 0, 0])
        );
    }
}
