//! Versioned seed-state snapshots and the checkpoint file.
//!
//! A [`SeedSnapshot`] is the raw interpreter state a seed carries
//! through a migration or a checkpoint. It travels tagged with its
//! schema revision, so migration ops and checkpoint files can evolve
//! without stranding saved state: a new revision is a new version
//! number, decoded and upgraded here, never a new untagged layout.
//!
//! ## Snapshot encoding
//!
//! A snapshot leads with a `0x00` marker byte, then the version tag,
//! then the version's body:
//!
//! ```text
//! ┌──────┬────────┬──────────────────────┐
//! │ 0x00 │ ver:u8 │ body (per version)   │
//! └──────┴────────┴──────────────────────┘
//! ```
//!
//! Any other first byte is a [`WireError::Tag`] naming the
//! `snapshot marker`; an unknown version names the `snapshot version`.
//!
//! ## Checkpoint files
//!
//! One generation is written and read, **`FARMCKP2`**: magic + varint
//! record count + records, each framed as `varint body_len | u32-LE
//! crc32(body) | body`. A body is `u8 record_type` + payload: type 0 is
//! a program source (`str name` + `str source`, so a cold restart can
//! recompile the catalog), type 1 is a seed entry (`str key` +
//! snapshot). The framing makes decoding *salvageable*: a torn tail
//! yields the valid prefix, a CRC-mismatched record is skipped, an
//! unknown record type is stepped over — never an error, never a panic.
//! A file without the magic is refused with [`WireError::Checkpoint`]
//! naming what it found instead.

use farm_almanac::value::Value;
use farm_soil::SeedSnapshot;

use crate::wire::{crc32, put_varint, Reader, Wire, WireError};

/// Magic prefix of a checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"FARMCKP2";

/// First byte of every snapshot.
const MARKER: u8 = 0x00;

/// A seed snapshot as decoded, tagged with its schema revision. Adding
/// a revision means a new variant, its decode arm, and an upgrade in
/// the `From` impl below — old payloads keep decoding forever.
enum VSeedSnapshot {
    V1(SeedSnapshot),
}

impl From<VSeedSnapshot> for SeedSnapshot {
    /// Upgrades through every revision to the current in-memory shape.
    fn from(v: VSeedSnapshot) -> SeedSnapshot {
        match v {
            VSeedSnapshot::V1(s) => s,
        }
    }
}

fn decode_vsnapshot(r: &mut Reader<'_>) -> Result<VSeedSnapshot, WireError> {
    let marker = r.u8()?;
    if marker != MARKER {
        return Err(WireError::Tag {
            what: "snapshot marker",
            tag: marker,
        });
    }
    match r.u8()? {
        1 => Ok(VSeedSnapshot::V1(SeedSnapshot {
            machine: Wire::get(r, "machine")?,
            state: Wire::get(r, "state")?,
            vars: Wire::get(r, "vars")?,
        })),
        v => Err(WireError::Tag {
            what: "snapshot version",
            tag: v,
        }),
    }
}

/// The one snapshot codec, for the keyed lists of `SubmitWithSnapshot`
/// and `TaskExport` and for the checkpoint seed record: the in-memory
/// shape travels stamped with the current revision (marker, version 1,
/// `str(machine) str(state) varint(n) [str(name) value]*`), and
/// whatever revision arrives is upgraded on the way in.
impl Wire for SeedSnapshot {
    const MIN_LEN: usize = 2 + String::MIN_LEN + String::MIN_LEN + <Vec<(String, Value)>>::MIN_LEN;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&[MARKER, 1]);
        self.machine.put(out);
        self.state.put(out);
        self.vars.put(out);
    }
    fn get(r: &mut Reader<'_>, _: &'static str) -> Result<SeedSnapshot, WireError> {
        decode_vsnapshot(r).map(SeedSnapshot::from)
    }
}

/// Everything a farmd needs to come back from a cold start: the
/// submitted program catalog (so seeds can be recompiled and replaced)
/// plus every checkpointed seed's snapshot.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointDoc {
    /// Submitted Almanac programs, `(task name, source)`.
    pub programs: Vec<(String, String)>,
    /// Checkpointed seeds, `(seed key display form, snapshot)`.
    pub seeds: Vec<(String, SeedSnapshot)>,
}

/// The outcome of decoding a checkpoint file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointLoad {
    pub doc: CheckpointDoc,
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
    out.extend_from_slice(CHECKPOINT_MAGIC);
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
    let mut load = CheckpointLoad::default();
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

/// Parses a checkpoint file — the only reader. A `FARMCKP2` file
/// decodes with salvage semantics and never errors; anything else is
/// refused with [`WireError::Checkpoint`] naming what was found, a
/// retired `FARMCKP1` file or no magic at all.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointLoad, WireError> {
    match bytes.strip_prefix(CHECKPOINT_MAGIC.as_slice()) {
        Some(body) => Ok(decode_checkpoint_v2(body)),
        None if bytes.starts_with(b"FARMCKP1") => Err(WireError::Checkpoint("a FARMCKP1 file")),
        None => Err(WireError::Checkpoint("no FARMCKP2 magic")),
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
        sample().put(&mut out);
        assert_eq!(out, V1_FIXTURE, "V1 wire encoding drifted");
        let mut r = Reader::new(V1_FIXTURE);
        let got = SeedSnapshot::get(&mut r, "snapshot").expect("decode fixture");
        r.finish().expect("fixture fully consumed");
        assert_eq!(got, sample());
    }

    #[test]
    fn untagged_snapshot_bytes_are_a_marker_error() {
        // The V1 body without marker and version, as written before
        // snapshots were tagged: its first byte is the machine-name length.
        let mut r = Reader::new(&V1_FIXTURE[2..]);
        assert_eq!(
            SeedSnapshot::get(&mut r, "snapshot").unwrap_err(),
            WireError::Tag {
                what: "snapshot marker",
                tag: 2
            }
        );
    }

    #[test]
    fn unknown_snapshot_version_is_a_typed_error() {
        let bytes = [0x00u8, 9, 1, b'M'];
        let mut r = Reader::new(&bytes);
        assert_eq!(
            SeedSnapshot::get(&mut r, "snapshot").unwrap_err(),
            WireError::Tag {
                what: "snapshot version",
                tag: 9
            }
        );
    }

    fn sample_doc() -> CheckpointDoc {
        CheckpointDoc {
            programs: vec![
                ("hh".to_string(), "machine HH { }".to_string()),
                ("lw".to_string(), "machine LW { }".to_string()),
            ],
            seeds: vec![
                ("hh/m0/s0".to_string(), sample()),
                ("hh/m0/s1".to_string(), sample()),
                ("lw/m0/s0".to_string(), sample()),
            ],
        }
    }

    #[test]
    fn checkpoint_doc_round_trips() {
        let doc = sample_doc();
        let bytes = encode_checkpoint_doc(&doc);
        assert!(bytes.starts_with(CHECKPOINT_MAGIC));
        let load = decode_checkpoint(&bytes).expect("decode");
        assert_eq!(load.doc, doc);
        assert!(!load.salvaged);
        assert_eq!((load.corrupt_records, load.unknown_records), (0, 0));
    }

    /// File → document → file is byte-identical: nothing the reader
    /// keeps is lost or reordered on the way back out.
    #[test]
    fn checkpoint_file_round_trips() {
        let bytes = encode_checkpoint_doc(&sample_doc());
        let load = decode_checkpoint(&bytes).expect("decode");
        assert_eq!(encode_checkpoint_doc(&load.doc), bytes);
    }

    #[test]
    fn truncated_v2_salvages_the_valid_prefix() {
        let doc = sample_doc();
        let bytes = encode_checkpoint_doc(&doc);
        let mut prefix_entries = 0;
        for cut in 0..bytes.len() {
            let load =
                decode_checkpoint(&bytes[..cut.max(8).min(bytes.len())]).expect("v2 never errors");
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
        let load = decode_checkpoint(&bytes).expect("v2 never errors");
        let got = load.doc.programs.len() + load.doc.seeds.len();
        assert!(load.corrupt_records >= 1 || load.salvaged);
        assert!(got < 5, "the damaged record must not survive");
    }

    #[test]
    fn unknown_record_types_are_stepped_over() {
        let doc = sample_doc();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CHECKPOINT_MAGIC);
        put_varint(&mut bytes, 2);
        // A record from the future: type 9, opaque payload.
        let future = [9u8, 0xde, 0xad, 0xbe, 0xef];
        put_varint(&mut bytes, future.len() as u64);
        bytes.extend_from_slice(&crc32(&future).to_le_bytes());
        bytes.extend_from_slice(&future);
        // Followed by a normal seed record that must still decode.
        let mut body = vec![1u8];
        put_str(&mut body, &doc.seeds[0].0);
        doc.seeds[0].1.put(&mut body);
        put_varint(&mut bytes, body.len() as u64);
        bytes.extend_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);

        let load = decode_checkpoint(&bytes).expect("decode");
        assert_eq!(load.unknown_records, 1);
        assert_eq!(load.doc.seeds, vec![doc.seeds[0].clone()]);
        assert!(!load.salvaged);
    }

    #[test]
    fn corrupt_checkpoint_is_an_error_not_a_panic() {
        let no_magic = WireError::Checkpoint("no FARMCKP2 magic");
        for bytes in [&[][..], &[0x00], &[0xff; 7], b"FARMCKP", b"FARMCKP3\x00"] {
            assert_eq!(decode_checkpoint(bytes).unwrap_err(), no_magic, "{bytes:?}");
        }
        assert_eq!(
            decode_checkpoint(b"FARMCKP1\x00").unwrap_err(),
            WireError::Checkpoint("a FARMCKP1 file")
        );
    }
}
