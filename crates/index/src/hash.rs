//! A fast, non-cryptographic hasher for dictionary-encoded ids.
//!
//! Index lookups sit on the hot path of every random-walk step, and the
//! standard library's SipHash is needlessly slow for 4–8 byte integer keys.
//! This is an implementation of the well-known `FxHash` multiply-xor scheme
//! (as used by rustc); it is written in-repo because external hash crates
//! are not part of the approved dependency set.
//!
//! HashDoS resistance is irrelevant here: keys are dense internal term ids,
//! not attacker-controlled strings.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fx multiplier (golden-ratio derived).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash state.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// The multiply in `add_to_hash` only carries entropy *upwards*: bit
    /// `i` of the product depends on bits `0..=i` of the key alone. Hash
    /// tables pick the bucket from the low bits, so without a final mix a
    /// [`pack2`] key `(a, b)` would bucket on `b`'s low bits only — and in
    /// SPO/OPS `b` is the predicate, a few dozen values, which piles every
    /// `(s, p)` key into a handful of long probe chains. Rotating brings
    /// the well-mixed high bits down into the bucket bits (the same fix
    /// as rustc-hash 2.x).
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback: consume 8-byte chunks, then the tail.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Pack two `u32` ids into one `u64` key (used for two-level prefix maps).
#[inline]
pub const fn pack2(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | (b as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_deterministic() {
        let mut a = FxHasher::default();
        a.write_u64(12345);
        let mut b = FxHasher::default();
        b.write_u64(12345);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn different_inputs_differ() {
        let mut a = FxHasher::default();
        a.write_u32(1);
        let mut b = FxHasher::default();
        b.write_u32(2);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn byte_stream_matches_itself_regardless_of_chunking() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_basic_usage() {
        let mut m: FxHashMap<u64, u32> = FxHashMap::default();
        m.insert(pack2(1, 2), 7);
        assert_eq!(m.get(&pack2(1, 2)), Some(&7));
        assert_eq!(m.get(&pack2(2, 1)), None);
    }

    #[test]
    fn packed_keys_with_few_low_values_spread_over_bucket_bits() {
        // `(s, p)` keys as SPO/OPS produce them: many subjects, 40
        // predicates in the low half. Without the rotation in `finish`,
        // the low 16 bits (what a table of up to 65,536 buckets indexes
        // on) take only as many values as there are predicates.
        let mut low = FxHashSet::default();
        let mut keys = 0u32;
        for s in 0..2_000u32 {
            for p in 0..40u32 {
                let mut h = FxHasher::default();
                h.write_u64(pack2(s * 7 + 3, 1_000 + p * 13));
                low.insert(h.finish() & 0xffff);
                keys += 1;
            }
        }
        // 80,000 keys fill ~24,000 of the 65,536 slots (a uniform hash
        // would fill ~46,000; the multiply leaves some lattice structure),
        // against 40 — one per predicate — without the rotation.
        assert!(low.len() > 16_384, "{} distinct low-16-bit hashes of {keys} keys", low.len());
    }

    #[test]
    fn pack2_is_injective_on_examples() {
        assert_ne!(pack2(1, 2), pack2(2, 1));
        assert_eq!(pack2(0xffff_ffff, 0), 0xffff_ffff_0000_0000);
        assert_eq!(pack2(0, 0xffff_ffff), 0x0000_0000_ffff_ffff);
    }
}
