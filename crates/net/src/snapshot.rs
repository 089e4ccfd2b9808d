//! Versioned seed-state snapshots.
//!
//! [`SeedSnapshot`] is the raw interpreter state a seed carries through
//! a migration or a checkpoint. Its wire encoding used to be untagged,
//! which strands saved state the moment the schema moves. This module
//! wraps it in [`VSeedSnapshot`] — an explicit version enum with `From`
//! upgrades from every older revision — so migration ops and
//! checkpoint files can evolve without breaking old payloads.
//!
//! ## Wire discrimination
//!
//! A versioned snapshot leads with a `0x00` marker byte, then the
//! version tag, then the version's body:
//!
//! ```text
//! ┌──────┬────────┬──────────────────────┐
//! │ 0x00 │ ver:u8 │ body (per version)   │
//! └──────┴────────┴──────────────────────┘
//! ```
//!
//! The legacy untagged encoding starts with the machine-name length
//! varint, and machine names are never empty, so its first byte is
//! always ≥ 1. Decoders peek one byte: `0x00` selects the versioned
//! path, anything else falls back to legacy — every pre-existing
//! payload still decodes, upgraded to the current revision via `From`.
//!
//! ## Checkpoint files
//!
//! Three generations of checkpoint file decode here, all through
//! [`decode_checkpoint_any`] — the one reader and so the one upgrade
//! path. Only the current generation has a writer; the two older ones
//! are read-only, held in place by byte-pinned fixtures.
//!
//! * **`FARMCKP2`** (current) — magic + varint record count + records,
//!   each framed as `varint body_len | u32-LE crc32(body) | body`. A
//!   body is `u8 record_type` + payload: type 0 is a program source
//!   (`str name` + `str source`, so a cold restart can recompile the
//!   catalog), type 1 is a seed entry (`str key` + versioned snapshot).
//!   The framing makes decoding *salvageable*: a torn tail yields the
//!   valid prefix, a CRC-mismatched record is skipped, an unknown
//!   record type is stepped over — never an error, never a panic.
//! * **`FARMCKP1`** (read-only) — magic + varint count + (`str key` +
//!   versioned snapshot). Strict: any damage rejects the file.
//! * **Legacy untagged** (read-only) — no magic, count + key + untagged
//!   snapshot; state saved before versioning restores cleanly.

use farm_almanac::value::Value;
use farm_soil::SeedSnapshot;

use crate::wire::{crc32, put_varint, Reader, Wire, WireError};

/// Magic prefix of a versioned checkpoint file.
pub(crate) const CHECKPOINT_MAGIC: &[u8; 8] = b"FARMCKP1";

/// Magic prefix of a record-framed (CRC-checked, salvageable) file.
pub const CHECKPOINT_MAGIC_V2: &[u8; 8] = b"FARMCKP2";

/// First byte of a versioned snapshot; no legacy payload starts with it.
const VERSIONED: u8 = 0x00;

/// A seed snapshot tagged with its schema revision. Adding a revision
/// means a new variant, a `From<old> for new` impl, and a decode arm —
/// old payloads keep decoding forever.
#[derive(Debug, Clone, PartialEq)]
pub enum VSeedSnapshot {
    V1(SeedSnapshot),
}

impl VSeedSnapshot {
    /// Upgrades through every revision to the current in-memory shape.
    pub fn into_latest(self) -> SeedSnapshot {
        match self {
            VSeedSnapshot::V1(s) => s,
        }
    }
}

impl From<SeedSnapshot> for VSeedSnapshot {
    fn from(s: SeedSnapshot) -> VSeedSnapshot {
        VSeedSnapshot::V1(s)
    }
}

impl From<VSeedSnapshot> for SeedSnapshot {
    fn from(v: VSeedSnapshot) -> SeedSnapshot {
        v.into_latest()
    }
}

/// Marker, version 1, then the V1 body — which is the legacy untagged
/// layout: `str(machine) str(state) varint(n) [str(name) value]*`.
fn put_v1(s: &SeedSnapshot, out: &mut Vec<u8>) {
    out.extend_from_slice(&[VERSIONED, 1]);
    s.machine.put(out);
    s.state.put(out);
    s.vars.put(out);
}

fn get_v1_body(r: &mut Reader<'_>) -> Result<SeedSnapshot, WireError> {
    Ok(SeedSnapshot {
        machine: Wire::get(r, "machine")?,
        state: Wire::get(r, "state")?,
        vars: Wire::get(r, "vars")?,
    })
}

/// Encodes a versioned snapshot (marker + version + body).
pub fn encode_vsnapshot(v: &VSeedSnapshot, out: &mut Vec<u8>) {
    match v {
        VSeedSnapshot::V1(s) => put_v1(s, out),
    }
}

/// Decodes a snapshot, versioned or legacy-untagged (see module docs).
pub(crate) fn decode_vsnapshot(r: &mut Reader<'_>) -> Result<VSeedSnapshot, WireError> {
    if r.peek_u8()? != VERSIONED {
        // Legacy untagged payload: first byte is the machine-name
        // length varint, which is never zero.
        return Ok(VSeedSnapshot::V1(get_v1_body(r)?));
    }
    r.u8()?;
    match r.u8()? {
        1 => Ok(VSeedSnapshot::V1(get_v1_body(r)?)),
        v => Err(WireError::Tag {
            what: "snapshot version",
            tag: v,
        }),
    }
}

/// The one snapshot codec: checkpoint entries carry the revision they
/// were written with.
impl Wire for VSeedSnapshot {
    /// The shortest accepted form is a legacy body: a one-byte machine
    /// name, an empty state, no variables.
    const MIN_LEN: usize = String::MIN_LEN + 1 + String::MIN_LEN + <Vec<(String, Value)>>::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        encode_vsnapshot(self, out);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<VSeedSnapshot, WireError> {
        decode_vsnapshot(r)
    }
}

/// In a frame (the keyed lists of `SubmitWithSnapshot` and
/// `TaskExport`) the in-memory shape travels stamped with the current
/// revision, and whatever revision arrives is upgraded on the way in.
impl Wire for SeedSnapshot {
    const MIN_LEN: usize = VSeedSnapshot::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        put_v1(self, out);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<SeedSnapshot, WireError> {
        decode_vsnapshot(r).map(VSeedSnapshot::into_latest)
    }
}

/// Everything a farmd needs to come back from a cold start: the
/// submitted program catalog (so seeds can be recompiled and replaced)
/// plus every checkpointed seed's versioned snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointDoc {
    /// Submitted Almanac programs, `(task name, source)`.
    pub programs: Vec<(String, String)>,
    /// Checkpointed seeds, `(seed key display form, snapshot)`.
    pub seeds: Vec<(String, VSeedSnapshot)>,
}

/// The outcome of decoding a checkpoint file of any generation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointLoad {
    pub doc: CheckpointDoc,
    /// Format generation: 0 = legacy untagged, 1 = `FARMCKP1`,
    /// 2 = `FARMCKP2`.
    pub format: u8,
    /// True when a torn tail was dropped (fewer records than the header
    /// declared, or trailing bytes past the declared count).
    pub salvaged: bool,
    /// Records skipped for CRC mismatch or an unparseable body.
    pub corrupt_records: u64,
    /// Records stepped over because their type tag is from the future.
    pub unknown_records: u64,
}

const RECORD_PROGRAM: u8 = 0;
const RECORD_SEED: u8 = 1;

fn put_record(out: &mut Vec<u8>, body: &[u8]) {
    put_varint(out, body.len() as u64);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
}

/// Serializes a checkpoint document in the `FARMCKP2` layout.
pub fn encode_checkpoint_doc(doc: &CheckpointDoc) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + doc.programs.len() * 128 + doc.seeds.len() * 64);
    out.extend_from_slice(CHECKPOINT_MAGIC_V2);
    put_varint(&mut out, (doc.programs.len() + doc.seeds.len()) as u64);
    let mut body = Vec::new();
    for (name, source) in &doc.programs {
        body.clear();
        body.push(RECORD_PROGRAM);
        name.put(&mut body);
        source.put(&mut body);
        put_record(&mut out, &body);
    }
    for (key, snap) in &doc.seeds {
        body.clear();
        body.push(RECORD_SEED);
        key.put(&mut body);
        snap.put(&mut body);
        put_record(&mut out, &body);
    }
    out
}

/// Decodes the body of one CRC-verified `FARMCKP2` record into `load`.
fn decode_record_body(body: &[u8], load: &mut CheckpointLoad) {
    let mut r = Reader::new(body);
    // Trailing bytes inside a known record type are tolerated: a future
    // revision may append fields, and the length framing already tells
    // us where the record ends.
    let parsed = match r.u8() {
        Ok(RECORD_PROGRAM) => Wire::get(&mut r, "program").map(|p| load.doc.programs.push(p)),
        Ok(RECORD_SEED) => Wire::get(&mut r, "seed").map(|s| load.doc.seeds.push(s)),
        Ok(_) => {
            load.unknown_records += 1;
            return;
        }
        Err(e) => Err(e),
    };
    if parsed.is_err() {
        load.corrupt_records += 1;
    }
}

/// Decodes a `FARMCKP2` body (the bytes after the magic). Total and
/// salvaging: damage drops records, it never produces an error.
fn decode_checkpoint_v2(body: &[u8]) -> CheckpointLoad {
    let mut load = CheckpointLoad {
        format: 2,
        ..CheckpointLoad::default()
    };
    let mut r = Reader::new(body);
    // The count is read unchecked: a truncated file declares more
    // records than remain, and those that do remain must still salvage.
    let Ok(declared) = r.varint() else {
        load.salvaged = true;
        return load;
    };
    for _ in 0..declared {
        let record = (|| {
            let len = r.varint()?;
            let crc_bytes = r.take(4)?;
            let mut crc = [0u8; 4];
            crc.copy_from_slice(crc_bytes);
            let body = r.take(len as usize)?;
            Ok::<(u32, &[u8]), WireError>((u32::from_le_bytes(crc), body))
        })();
        match record {
            Ok((crc, body)) if crc == crc32(body) => decode_record_body(body, &mut load),
            // CRC mismatch: the framing held, so step to the next record.
            Ok(_) => load.corrupt_records += 1,
            // Torn framing: everything already decoded is the salvage.
            Err(_) => {
                load.salvaged = true;
                return load;
            }
        }
    }
    if r.remaining() > 0 {
        // More bytes than the header declared records — a damaged count
        // varint. What decoded is still intact, but flag the mismatch.
        load.salvaged = true;
    }
    load
}

/// Decodes the two read-only generations: `FARMCKP1` (magic, then a
/// keyed list of versioned snapshots) and the untagged layout before
/// it (the same list, no magic, legacy snapshot bodies — which the
/// snapshot codec accepts anyway). Strict: any damage rejects the file.
fn decode_checkpoint_legacy(bytes: &[u8]) -> Result<CheckpointLoad, WireError> {
    let (format, body) = match bytes.strip_prefix(CHECKPOINT_MAGIC.as_slice()) {
        Some(body) => (1, body),
        None => (0, bytes),
    };
    let mut r = Reader::new(body);
    let seeds = Wire::get(&mut r, "seeds")?;
    r.finish()?;
    Ok(CheckpointLoad {
        doc: CheckpointDoc {
            programs: Vec::new(),
            seeds,
        },
        format,
        ..CheckpointLoad::default()
    })
}

/// Parses a checkpoint file of any generation — the only reader, and
/// so the one upgrade path: whatever generation is on disk comes back
/// as a [`CheckpointDoc`], and the next checkpoint rewrites it as
/// `FARMCKP2`.
///
/// `FARMCKP2` decodes with salvage semantics and never errors; the
/// strict `FARMCKP1` and legacy untagged layouts reject damage.
pub fn decode_checkpoint_any(bytes: &[u8]) -> Result<CheckpointLoad, WireError> {
    match bytes.strip_prefix(CHECKPOINT_MAGIC_V2.as_slice()) {
        Some(body) => Ok(decode_checkpoint_v2(body)),
        None => decode_checkpoint_legacy(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::put_str;

    fn sample() -> SeedSnapshot {
        SeedSnapshot {
            machine: "HH".into(),
            state: "Monitor".into(),
            vars: vec![
                ("threshold".into(), Value::Int(1000)),
                ("label".into(), Value::Str("hot".into())),
            ],
        }
    }

    /// Byte-pinned V1 fixture: if this encoding ever drifts, saved
    /// checkpoints and in-flight migrations would strand — the exact
    /// bytes are part of the contract, not an implementation detail.
    const V1_FIXTURE: &[u8] = &[
        0x00, 0x01, // marker, version 1
        0x02, b'H', b'H', // machine "HH"
        0x07, b'M', b'o', b'n', b'i', b't', b'o', b'r', // state
        0x02, // 2 vars
        0x09, b't', b'h', b'r', b'e', b's', b'h', b'o', b'l', b'd', 0x02, 0xd0,
        0x0f, // Value::Int(1000) → zigzag 2000 varint
        0x05, b'l', b'a', b'b', b'e', b'l', //
        0x04, 0x03, b'h', b'o', b't', // Value::Str("hot")
    ];

    #[test]
    fn v1_fixture_bytes_are_pinned() {
        let mut out = Vec::new();
        encode_vsnapshot(&VSeedSnapshot::V1(sample()), &mut out);
        assert_eq!(out, V1_FIXTURE, "V1 wire encoding drifted");
        let mut r = Reader::new(V1_FIXTURE);
        let got = decode_vsnapshot(&mut r).expect("decode fixture");
        r.finish().expect("fixture fully consumed");
        assert_eq!(got, VSeedSnapshot::V1(sample()));
    }

    #[test]
    fn legacy_untagged_bytes_decode_and_upgrade() {
        // The legacy layout is the V1 body without marker and version.
        let legacy = &V1_FIXTURE[2..];
        assert_ne!(legacy[0], 0, "legacy first byte is a nonzero length");
        let mut r = Reader::new(legacy);
        let got = decode_vsnapshot(&mut r).expect("legacy decode");
        r.finish().expect("fully consumed");
        assert_eq!(got.into_latest(), sample());
    }

    #[test]
    fn from_upgrades_are_lossless_both_ways() {
        let v: VSeedSnapshot = sample().into();
        assert!(matches!(v, VSeedSnapshot::V1(_)));
        let back: SeedSnapshot = v.into();
        assert_eq!(back, sample());
    }

    #[test]
    fn unknown_snapshot_version_is_a_typed_error() {
        let bytes = [0x00u8, 9, 1, b'M'];
        let mut r = Reader::new(&bytes);
        assert_eq!(
            decode_vsnapshot(&mut r).unwrap_err(),
            WireError::Tag {
                what: "snapshot version",
                tag: 9
            }
        );
    }

    /// A file of one of the two read-only generations, assembled around
    /// the pinned snapshot bytes exactly as their retired writers laid
    /// it out: `FARMCKP1` entries are versioned, the untagged
    /// generation's are bare V1 bodies (`tests/golden_bytes.rs` pins a
    /// whole file of each, produced by the last revision that wrote one).
    fn old_generation(magic: &[u8], keys: &[&str]) -> Vec<u8> {
        let mut out = magic.to_vec();
        put_varint(&mut out, keys.len() as u64);
        for key in keys {
            put_str(&mut out, key);
            out.extend_from_slice(&V1_FIXTURE[if magic.is_empty() { 2 } else { 0 }..]);
        }
        out
    }

    #[test]
    fn checkpoint_file_round_trips() {
        let bytes = old_generation(CHECKPOINT_MAGIC, &["hh/m0/s0", "hh/m0/s1"]);
        let load = decode_checkpoint_any(&bytes).expect("decode");
        let entries = vec![
            ("hh/m0/s0".to_string(), VSeedSnapshot::V1(sample())),
            ("hh/m0/s1".to_string(), VSeedSnapshot::V1(sample())),
        ];
        assert_eq!(load.doc.seeds, entries);
        // The upgrade: what was read re-encodes as the current generation.
        let upgraded = encode_checkpoint_doc(&load.doc);
        assert!(upgraded.starts_with(CHECKPOINT_MAGIC_V2));
        assert_eq!(decode_checkpoint_any(&upgraded).expect("v2").doc, load.doc);
    }

    #[test]
    fn legacy_checkpoint_file_restores_cleanly() {
        // The pre-versioning layout: count + (key + untagged snapshot),
        // no magic — exactly what a checkpoint written before
        // versioning would hold.
        let got = decode_checkpoint_any(&old_generation(b"", &["hh/m0/s0"]))
            .expect("legacy file")
            .doc
            .seeds;
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, "hh/m0/s0");
        assert_eq!(got[0].1.clone().into_latest(), sample());
    }

    fn sample_doc() -> CheckpointDoc {
        CheckpointDoc {
            programs: vec![
                ("hh".to_string(), "machine HH { }".to_string()),
                ("lw".to_string(), "machine LW { }".to_string()),
            ],
            seeds: vec![
                ("hh/m0/s0".to_string(), VSeedSnapshot::V1(sample())),
                ("hh/m0/s1".to_string(), VSeedSnapshot::V1(sample())),
                ("lw/m0/s0".to_string(), VSeedSnapshot::V1(sample())),
            ],
        }
    }

    #[test]
    fn checkpoint_doc_round_trips() {
        let doc = sample_doc();
        let bytes = encode_checkpoint_doc(&doc);
        assert!(bytes.starts_with(CHECKPOINT_MAGIC_V2));
        let load = decode_checkpoint_any(&bytes).expect("decode");
        assert_eq!(load.doc, doc);
        assert_eq!(load.format, 2);
        assert!(!load.salvaged);
        assert_eq!((load.corrupt_records, load.unknown_records), (0, 0));
    }

    #[test]
    fn truncated_v2_salvages_the_valid_prefix() {
        let doc = sample_doc();
        let bytes = encode_checkpoint_doc(&doc);
        let mut prefix_entries = 0;
        for cut in 0..bytes.len() {
            let load = decode_checkpoint_any(&bytes[..cut.max(8).min(bytes.len())])
                .expect("v2 never errors");
            let got = load.doc.programs.len() + load.doc.seeds.len();
            assert!(got <= 5, "cut {cut} invented records");
            prefix_entries = prefix_entries.max(got);
            if got < 5 {
                assert!(load.salvaged, "cut {cut} lost records without flagging");
            }
        }
        // The loop never reaches the intact file, so the deepest cut
        // (one byte short) salvages all but the final record.
        assert_eq!(prefix_entries, 4);
    }

    #[test]
    fn crc_mismatched_record_is_skipped_not_fatal() {
        let doc = sample_doc();
        let mut bytes = encode_checkpoint_doc(&doc);
        // Flip one bit in the middle of the second record's body (well
        // past the first record: magic 8 + count 1 + frame ≈ 20+ bytes).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let load = decode_checkpoint_any(&bytes).expect("v2 never errors");
        let got = load.doc.programs.len() + load.doc.seeds.len();
        assert!(load.corrupt_records >= 1 || load.salvaged);
        assert!(got < 5, "the damaged record must not survive");
    }

    #[test]
    fn unknown_record_types_are_stepped_over() {
        let doc = sample_doc();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CHECKPOINT_MAGIC_V2);
        put_varint(&mut bytes, 2);
        // A record from the future: type 9, opaque payload.
        let future = [9u8, 0xde, 0xad, 0xbe, 0xef];
        put_varint(&mut bytes, future.len() as u64);
        bytes.extend_from_slice(&crc32(&future).to_le_bytes());
        bytes.extend_from_slice(&future);
        // Followed by a normal seed record that must still decode.
        let mut body = vec![1u8];
        put_str(&mut body, &doc.seeds[0].0);
        encode_vsnapshot(&doc.seeds[0].1, &mut body);
        put_varint(&mut bytes, body.len() as u64);
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);

        let load = decode_checkpoint_any(&bytes).expect("decode");
        assert_eq!(load.unknown_records, 1);
        assert_eq!(load.doc.seeds, vec![doc.seeds[0].clone()]);
        assert!(!load.salvaged);
    }

    #[test]
    fn decode_any_reads_older_generations() {
        let entries = vec![("hh/m0/s0".to_string(), VSeedSnapshot::V1(sample()))];
        for (format, magic) in [(1, CHECKPOINT_MAGIC.as_slice()), (0, b"")] {
            let load = decode_checkpoint_any(&old_generation(magic, &["hh/m0/s0"]))
                .expect("old generation");
            assert_eq!((load.format, &load.doc.seeds), (format, &entries));
            assert!(load.doc.programs.is_empty());
        }
    }

    #[test]
    fn corrupt_checkpoint_is_an_error_not_a_panic() {
        assert!(decode_checkpoint_any(&[0xff; 7]).is_err());
        let mut bytes = old_generation(CHECKPOINT_MAGIC, &["k"]);
        bytes.push(0xaa);
        assert_eq!(
            decode_checkpoint_any(&bytes).unwrap_err(),
            WireError::Trailing(1)
        );
    }
}
