//! The fixed hash behind every table on the symbolic path.
//!
//! The BDD manager probes its unique table and `ite` memo once per
//! Shannon step, and the per-call memos of `exists`, `rename`,
//! `sat_one_minimal` and `sat_count` once per visited node; with std's
//! default SipHash those probes took about half of certification's
//! time. The keys are small tuples of engine-assigned `u32` node ids and
//! variable indices, so an Fx-style multiplicative hash (one rotate, xor
//! and multiply per word, as in rustc's `FxHasher`) spreads them well
//! enough for std's `HashMap`, at a fraction of SipHash's cost.
//!
//! The hash is fixed, not randomly seeded. SipHash's random keys defend
//! a table against keys an adversary chooses to collide; these keys are
//! node ids the engine hands out itself, never request bytes, and the
//! node, step and deadline budgets bound every job regardless of how the
//! tables behave. A fixed hash also makes table iteration order repeat
//! from run to run, though nothing on the symbolic path depends on it.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc's `FxHasher` (64-bit).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Fx-style streaming hasher: per word, `h = (h.rotl(5) ^ w) * K`.
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(4) {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from(u32::from_le_bytes(word)));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A std `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A std `HashSet` keyed through [`FxHasher`].
pub(crate) type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(key)
    }

    #[test]
    fn hash_is_fixed_and_word_wise() {
        // One word: (0.rotl(5) ^ 1) * K.
        assert_eq!(hash_of(1u32), K);
        // A triple folds its words in order.
        let expect = [7u64, 8, 9]
            .iter()
            .fold(0u64, |h, &w| (h.rotate_left(5) ^ w).wrapping_mul(K));
        assert_eq!(hash_of((7u32, 8u32, 9u32)), expect);
        assert_ne!(hash_of((7u32, 8u32, 9u32)), hash_of((9u32, 8u32, 7u32)));
        // Byte slices hash as little-endian u32 words.
        let mut h = FxHasher::default();
        h.write(&[1, 0, 0, 0, 2]);
        let mut w = FxHasher::default();
        w.write_u32(1);
        w.write_u32(2);
        assert_eq!(h.finish(), w.finish());
    }

    #[test]
    fn node_triples_spread_over_buckets() {
        // A dense block of (var, lo, hi) keys, like a unique table's,
        // must not pile into a few of 4096 buckets by the low bits
        // hashbrown indexes with.
        let mut used = FxHashSet::default();
        for var in 0..16u32 {
            for lo in 0..16u32 {
                for hi in 0..16u32 {
                    used.insert(hash_of((var, lo, hi)) & 0xfff);
                }
            }
        }
        assert!(used.len() > 4096 / 2, "{} of 4096 buckets used", used.len());
    }
}
