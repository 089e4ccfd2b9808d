//! What a reader of untrusted input allocates is bounded by the input's
//! length. The checkpoint reader, the frame decoder, the Almanac
//! frontend and the two config readers each read valid inputs of
//! growing length and seeded mutations of them (bytes flipped,
//! inserted, removed, duplicated in runs, cut). On every input each
//! makes at most its [`Bound`]'s allocation calls and requested bytes
//! per input byte, plus [`SLACK_CALLS`] and [`SLACK_BYTES`]. A reader
//! whose cost grows faster than its input — a length prefix taken at
//! its word, a reservation sized by a claim the bytes cannot back —
//! fails here on the longest inputs.
//!
//! Allocations are counted the way `crates/soil/tests/allocations.rs`
//! counts them: a global allocator that forwards to `System` and counts
//! the current thread's calls, and here also the bytes each call asks
//! for (a `realloc` counts its new size).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use farm_almanac::compile::frontend;
use farm_almanac::programs;
use farm_almanac::value::Value;
use farm_ctl::FarmdConfig;
use farm_fed::FeddConfig;
use farm_net::snapshot::CHECKPOINT_MAGIC;
use farm_net::wire::crc32;
use farm_net::{
    decode_checkpoint, encode_checkpoint_doc, encode_envelope, CheckpointDoc, ControlReply,
    Envelope, Frame, FrameDecoder, SeedDescriptor, SeedSnapshot,
};
use rand::{RngExt, SeedableRng, SplitMix64};

/// What one reader may allocate per input byte: about twice what it
/// was seen to on these inputs.
struct Bound {
    calls: f64,
    bytes: f64,
}

/// The wire readers: a list decodes into at most one item per byte it
/// reads, no item the wire carries is larger than a `Value`, and a list
/// grows as its items decode. Its capacities, each asked for in turn,
/// sum to under twice the last, which is under twice the items read: a
/// checkpoint file or a frame stream asks for under four `Value`s per
/// byte. A list of `Unit`s one past a power of two comes near it. A
/// list decode that reserved what its count claims would ask for that
/// claim once per level of nested lists, and fail here on
/// [`claiming_lists`].
fn wire() -> Bound {
    Bound {
        calls: 0.25,
        bytes: 4.0 * std::mem::size_of::<Value>() as f64,
    }
}
/// The Almanac frontend: its syntax tree and types take ~115 bytes per
/// source byte, ~0.7 calls.
const FRONTEND: Bound = Bound {
    calls: 1.5,
    bytes: 256.0,
};
/// The config readers keep the few values they read.
const CONFIG: Bound = Bound {
    calls: 0.125,
    bytes: 1.0,
};
/// Calls any input may make whatever its length.
const SLACK_CALLS: u64 = 64;
/// Bytes any input may request whatever its length.
const SLACK_BYTES: u64 = 64 << 10;

/// Counts the allocation calls and requested bytes of the current
/// thread, so tests running beside this one do not count.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // During thread teardown the counters may be gone; nothing to count then.
    let _ = CALLS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// const-initialised thread-locals that allocate nothing themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see alloc).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's obligation and passes through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The calls and bytes `read` allocates on `input`, what it returns
/// included.
fn allocated<T>(input: &T, read: &impl Fn(&T)) -> (u64, u64) {
    let (calls, bytes) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    read(input);
    (CALLS.with(Cell::get) - calls, BYTES.with(Cell::get) - bytes)
}

/// Seeded mutations of `base`: the edits of the hostile-input loops
/// (`checkpoint_decoder_is_total_on_mutated_files` and kin).
fn mutations(base: &[u8], rng: &mut SplitMix64, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| {
            let mut bytes = base.to_vec();
            for _ in 0..rng.random_range(1..6usize) {
                let at = rng.random_range(0..bytes.len() + 1);
                let byte = rng.random::<u64>() as u8;
                match rng.random_range(0..5u8) {
                    0 if at < bytes.len() => bytes[at] ^= byte.max(1),
                    1 => bytes.insert(at, byte),
                    2 if at < bytes.len() => drop(bytes.remove(at)),
                    3 => {
                        let len = rng.random_range(1..64usize);
                        let run = bytes[at..(at + len).min(bytes.len())].to_vec();
                        bytes.splice(at..at, run);
                    }
                    _ => bytes.truncate(at),
                }
            }
            bytes
        })
        .collect()
}

/// Every base input and 64 mutations of each, made into what the
/// reader reads by `prepare` (not counted), stay under the bound.
fn holds_the_bound<T>(
    what: &str,
    bound: Bound,
    bases: &[Vec<u8>],
    prepare: impl Fn(Vec<u8>) -> T,
    read: impl Fn(&T),
) {
    let mut rng = SplitMix64::seed_from_u64(20261019);
    let mut worst = (0.0f64, 0.0f64);
    for base in bases {
        let mut inputs = mutations(base, &mut rng, 64);
        inputs.push(base.clone());
        for input in inputs {
            let len = input.len() as u64;
            let (calls, bytes) = allocated(&prepare(input), &read);
            assert!(
                calls as f64 <= bound.calls * len as f64 + SLACK_CALLS as f64
                    && bytes as f64 <= bound.bytes * len as f64 + SLACK_BYTES as f64,
                "{what}: {calls} calls, {bytes} bytes on {len} input bytes"
            );
            let per = |n: u64, slack: u64| n.saturating_sub(slack) as f64 / len.max(1) as f64;
            worst.0 = worst.0.max(per(calls, SLACK_CALLS));
            worst.1 = worst.1.max(per(bytes, SLACK_BYTES));
        }
    }
    let longest = bases.iter().map(Vec::len).max().unwrap_or(0);
    assert!(
        longest >= 16 << 10,
        "{what}: inputs up to {longest} bytes only"
    );
    eprintln!(
        "{what}: at most {:.3} calls and {:.2} bytes per input byte past the slack",
        worst.0, worst.1
    );
}

/// The encoding of a `Value` made of [`CLAIMS`] nested lists, each
/// claiming as items every byte after its own count and holding one,
/// the next list; the innermost holds `units` `Unit`s. Counts are
/// written three bytes wide (a varint may carry continuation zeros),
/// so each claim is known before it is written.
fn claiming_lists(units: usize) -> Vec<u8> {
    let len = 4 * CLAIMS + 4 + units;
    let mut bytes = Vec::with_capacity(len);
    for level in 0..=CLAIMS {
        let claim = if level < CLAIMS {
            len - bytes.len() - 4
        } else {
            units
        };
        bytes.extend([
            5,
            claim as u8 | 0x80,
            (claim >> 7) as u8 | 0x80,
            (claim >> 14) as u8,
        ]);
    }
    bytes.resize(len, 0);
    bytes
}

/// Levels of [`claiming_lists`], inside the decoder's depth limit.
const CLAIMS: usize = 40;

/// A `Value::Str` whose encoding is `len` bytes long, to be replaced
/// by [`splice`].
fn placeholder(len: usize) -> Value {
    let width = |n: usize| {
        [1 << 7, 1 << 14, 1 << 21]
            .iter()
            .take_while(|&&w| n >= w)
            .count()
            + 1
    };
    let chars = (1..=3)
        .map(|w| len - 1 - w)
        .find(|&n| width(n) == len - 1 - n);
    Value::Str("~".repeat(chars.expect("a length some placeholder encodes to")))
}

/// `bytes` with the encoding of [`placeholder`]`(value.len())` replaced
/// by `value`, every length around it unchanged.
fn splice(mut bytes: Vec<u8>, value: &[u8]) -> Vec<u8> {
    let Value::Str(chars) = placeholder(value.len()) else {
        unreachable!()
    };
    let run = bytes
        .windows(chars.len())
        .position(|w| w == chars.as_bytes());
    let end = run.expect("the placeholder is encoded") + chars.len();
    bytes[end - value.len()..end].copy_from_slice(value);
    bytes
}

/// A checkpoint file of one record, its CRC made right again after
/// [`splice`].
fn resealed(mut file: Vec<u8>) -> Vec<u8> {
    // The magic, then a record count of one.
    let mut at = CHECKPOINT_MAGIC.len() + 1;
    let mut len = 0;
    for shift in (0..).step_by(7) {
        let byte = file[at];
        at += 1;
        len |= ((byte & 0x7f) as usize) << shift;
        if byte & 0x80 == 0 {
            break;
        }
    }
    let crc = crc32(&file[at + 4..at + 4 + len]);
    file[at..at + 4].copy_from_slice(&crc.to_le_bytes());
    file
}

/// Input bytes as the text readers take them.
fn text(bytes: Vec<u8>) -> String {
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `n` times the same lines, numbered, joined.
fn repeated(n: usize, line: impl Fn(usize) -> String) -> String {
    (0..n).map(line).collect::<Vec<_>>().join("\n")
}

#[test]
fn the_checkpoint_reader_allocates_in_proportion_to_the_file() {
    let doc = |n: usize| CheckpointDoc {
        programs: (0..n)
            .map(|i| (format!("w{i}"), programs::HEAVY_HITTER.to_string()))
            .collect(),
        seeds: (0..n * 8)
            .map(|i| {
                let snap = SeedSnapshot {
                    machine: "HH".into(),
                    state: "watch".into(),
                    vars: vec![
                        ("count".into(), Value::Int(i as i64)),
                        ("seen".into(), Value::List(vec![Value::Int(1); i % 9])),
                    ],
                };
                (format!("w{}/m0/s{i}", i / 8), snap)
            })
            .collect(),
    };
    let mut bases = [0, 1, 2, 4, 8, 16]
        .map(|n| encode_checkpoint_doc(&doc(n)))
        .to_vec();
    // One seed whose variable is nested lists, each claiming its most.
    for units in [64, 4097, 16384] {
        let value = claiming_lists(units);
        let snap = SeedSnapshot {
            vars: vec![(String::new(), placeholder(value.len()))],
            ..SeedSnapshot::default()
        };
        let file = encode_checkpoint_doc(&CheckpointDoc {
            programs: Vec::new(),
            seeds: vec![("w/m0/s0".into(), snap)],
        });
        bases.push(resealed(splice(file, &value)));
    }
    holds_the_bound(
        "decode_checkpoint",
        wire(),
        &bases,
        |b| b,
        |bytes| {
            let _ = decode_checkpoint(bytes);
        },
    );
}

#[test]
fn the_frame_decoder_allocates_in_proportion_to_the_stream() {
    let descriptor = |i: usize| SeedDescriptor {
        key: format!("w{}/m0/s{i}", i % 7),
        task: format!("w{}", i % 7),
        machine: "HH".into(),
        switch: i as u32,
        state: "watch".into(),
        alloc: [1.0, 64.0, 2.0, 100.0],
    };
    let stream = |n: usize| {
        let mut bytes = Vec::new();
        for corr in 1..=4u64 {
            let reply = ControlReply::Seeds {
                seeds: (0..n).map(descriptor).collect(),
                next_index: corr,
                total: 4 * n as u64,
            };
            let frame = Frame::ControlReply { reply };
            encode_envelope(&Envelope::response(corr, frame), &mut bytes);
        }
        bytes
    };
    let mut bases = [0, 1, 4, 16, 64, 256].map(stream).to_vec();
    // The smallest items each list can hold, as many as fit: empty
    // variable pairs, and lists of `Unit`s inside lists; and nested
    // lists, each claiming its most.
    for n in [64, 4097, 16384] {
        let seed = ControlReply::Seed {
            desc: descriptor(0),
            vars: vec![(String::new(), String::new()); n],
        };
        let frame = Frame::ControlReply { reply: seed };
        let mut bytes = Vec::new();
        encode_envelope(&Envelope::response(1, frame), &mut bytes);
        bases.push(bytes);
        let snap = SeedSnapshot {
            vars: vec![(String::new(), Value::List(vec![Value::Unit; n]))],
            ..SeedSnapshot::default()
        };
        let op = farm_net::ControlOp::SubmitWithSnapshot {
            name: "w".into(),
            source: String::new(),
            seeds: vec![(String::new(), snap)],
        };
        let mut bytes = Vec::new();
        encode_envelope(&Envelope::request(1, Frame::Control { op }), &mut bytes);
        bases.push(bytes);
        let value = claiming_lists(n);
        let snap = SeedSnapshot {
            vars: vec![(String::new(), placeholder(value.len()))],
            ..SeedSnapshot::default()
        };
        let op = farm_net::ControlOp::SubmitWithSnapshot {
            name: "w".into(),
            source: String::new(),
            seeds: vec![(String::new(), snap)],
        };
        let mut bytes = Vec::new();
        encode_envelope(&Envelope::request(1, Frame::Control { op }), &mut bytes);
        bases.push(splice(bytes, &value));
    }
    holds_the_bound(
        "FrameDecoder",
        wire(),
        &bases,
        |b| b,
        |bytes| {
            let mut decoder = FrameDecoder::new();
            decoder.extend(bytes);
            let mut frames = Vec::new();
            while let Ok(Some(frame)) = decoder.next() {
                frames.push(frame);
            }
        },
    );
}

#[test]
fn the_almanac_frontend_allocates_in_proportion_to_the_program() {
    let program = |n: usize| {
        let machines = repeated(n, |i| {
            format!("machine M{i} {{ place any; state s {{ util (res) {{ return {i}; }} }} }}")
        });
        format!("{}\n{machines}", programs::HEAVY_HITTER)
    };
    let bases = [0, 1, 8, 64, 256].map(|n| program(n).into_bytes());
    holds_the_bound("frontend", FRONTEND, &bases, text, |source| {
        let _ = frontend(source);
    });
}

#[test]
fn the_config_readers_allocate_in_proportion_to_the_file() {
    const FARMD: &str = "[server]\nlisten = \"127.0.0.1:4520\"\nshutdown_drain_ms = 50\n\
        pid_file = \"/tmp/farmd.pid\"\ncheckpoint_path = \"/tmp/farmd.ckp\"\n\
        [farm]\nspines = 3\nleaves = 4\n[admission]\nquota = 0.8\n\
        [fed]\ncoordinator = \"127.0.0.1:4600\"\npod_name = \"a\"\nheartbeat_ms = 100\n";
    const FEDD: &str = "[server]\nlisten = \"127.0.0.1:4600\"\nshutdown_drain_ms = 20\n\
        [fed]\nliveness_timeout_ms = 1000\npod_timeout_ms = 2000\n";
    let grown = |config: &str, n: usize| {
        let comments = repeated(n, |i| format!("# line {i}: {}", "x".repeat(i % 97)));
        let log = format!("[server]\nevent_log = \"/tmp/{}\"\n", "p".repeat(n * 8));
        format!("{comments}\n{}", config.replacen("[server]\n", &log, 1)).into_bytes()
    };
    let farmd = [0, 1, 16, 256, 1024].map(|n| grown(FARMD, n));
    holds_the_bound("FarmdConfig", CONFIG, &farmd, text, |src| {
        let _ = FarmdConfig::from_toml_str(src);
    });
    let fedd = [0, 1, 16, 256, 1024].map(|n| grown(FEDD, n));
    holds_the_bound("FeddConfig", CONFIG, &fedd, text, |src| {
        let _ = FeddConfig::from_toml_str(src);
    });
}
