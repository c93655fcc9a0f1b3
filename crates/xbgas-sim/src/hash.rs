//! A seedless word hasher for the simulator's and the runtime's own maps.
//!
//! std's `HashMap` seeds SipHash-1-3 from the OS for every map, which buys
//! resistance to keys chosen by an attacker. Every map this workspace keys
//! on hot paths holds the program's own words — translated-block pcs, OLB
//! object IDs, page numbers, collective plan shapes — none of them
//! adversarial, so it pays SipHash's rounds for nothing. Worse, the per-map
//! seed makes iteration order, and with it the order a map's values are
//! dropped in, differ between processes: dropping a plan cache leaves the
//! allocator in a different state in every process, and the private
//! buffers of the next fabric launch land at different in-page offsets and
//! are priced differently by the cache model.
//!
//! [`WordHasher`] has no seed: the same keys hash alike in every process.
//! Each word costs one multiply; [`Hasher::finish`] folds the state's
//! well-mixed high half into its low half and multiplies once more, so both
//! the low bits (hashbrown's bucket index) and the top seven (its control
//! byte) depend on every bit of the key. Keys with a common stride — pcs
//! four bytes apart, page-aligned addresses — spread as well as sequential
//! ones. It is **not** collision-resistant: a caller that can choose keys
//! can make them all collide, so never key one of these maps on untrusted
//! input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// ⌊2^64 / φ⌋, odd: a multiply by it is a bijection on `u64` that carries
/// every input bit into the high half of the product.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// The seedless hasher; see the [module docs](self).
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline(always)]
    fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(K);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("an 8-byte chunk")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut w = [0u8; 8];
            w[..tail.len()].copy_from_slice(tail);
            self.word(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.word(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.word(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.word(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.word(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.word(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        (self.0 ^ self.0 >> 32).wrapping_mul(K)
    }
}

/// Builds [`WordHasher`]s (all alike: there is no seed).
pub type WordBuildHasher = BuildHasherDefault<WordHasher>;

/// A `HashMap` on [`WordHasher`]; make one with `WordMap::default()`.
pub type WordMap<K, V> = HashMap<K, V, WordBuildHasher>;

/// A `HashSet` on [`WordHasher`]; make one with `WordSet::default()`.
pub type WordSet<K> = HashSet<K, WordBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn hash(k: u64) -> u64 {
        WordBuildHasher::default().hash_one(k)
    }

    /// How many distinct values `bits(hash)` takes over `keys`.
    fn spread(keys: impl Iterator<Item = u64>, bits: impl Fn(u64) -> u64) -> usize {
        keys.map(|k| bits(hash(k))).collect::<WordSet<_>>().len()
    }

    #[test]
    fn sequential_and_strided_keys_fill_low_and_top_bits() {
        let low = |h: u64| h & 127;
        let top = |h: u64| h >> 57;
        // Object IDs and page numbers (consecutive), block pcs (four bytes
        // apart) and page-aligned addresses: 1 024 keys into 128 values,
        // each value should be taken.
        for stride in [1u64, 4, 4096] {
            let keys = || (0..1024u64).map(move |i| 0x1000 + i * stride);
            assert_eq!(spread(keys(), low), 128, "low bits, stride {stride}");
            assert_eq!(spread(keys(), top), 128, "top bits, stride {stride}");
        }
    }

    #[test]
    fn byte_slices_hash_by_word() {
        // A `[u64]` hashes as its bytes; a tail shorter than a word still
        // counts.
        let mut a = WordHasher::default();
        a.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut b = WordHasher::default();
        b.write(&[1, 0, 0, 0, 0, 0, 0, 0, 3]);
        assert_ne!(a.finish(), b.finish());
    }
}
