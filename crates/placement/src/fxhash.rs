//! Deterministic integer hashing for the solver's hot maps.
//!
//! The solver's maps (interned poll subjects, the switch-slot table,
//! the round's live-switch set) hash 4–8 byte integer keys and short
//! strings on every solve. std's
//! default `RandomState` pays SipHash's full mixing schedule for every
//! one of them *and* seeds itself randomly per process, which makes map
//! iteration order vary across runs. The solver never relies on map
//! iteration order for results (everything order-sensitive is sorted
//! first), but a fixed multiply–xor hasher in the style of rustc's
//! FxHash is both several times faster on these keys and fully
//! deterministic, which keeps debugging runs reproducible end to end.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// rustc-style FxHash: rotate, xor, multiply per 8-byte word. Not
/// collision-resistant against adversarial keys — the solver only hashes
/// its own dense small integers, where quality is a non-issue.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// Zero-sized builder: every map built from it hashes identically.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// `HashMap` with the fixed fast hasher (construct via `::default()`).
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
/// `HashSet` with the fixed fast hasher (construct via `::default()`).
pub(crate) type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal_and_runs_are_reproducible() {
        let mut m: FxHashMap<u32, i32> = FxHashMap::default();
        for k in 0..1000u32 {
            m.insert(k, k as i32 * 3);
        }
        for k in 0..1000u32 {
            assert_eq!(m.get(&k), Some(&(k as i32 * 3)));
        }
        // Fixed seed: the same key always lands on the same hash.
        let hash = |k: u64| {
            let mut h = FxHasher::default();
            h.write_u64(k);
            h.finish()
        };
        assert_eq!(hash(42), hash(42));
        assert_ne!(hash(42), hash(43));
    }

    #[test]
    fn byte_stream_writes_fold_in_word_chunks() {
        let mut a = FxHasher::default();
        a.write(b"subject-key");
        let mut b = FxHasher::default();
        b.write(b"subject-key");
        assert_eq!(a.finish(), b.finish());
    }
}
