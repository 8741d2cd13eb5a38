//! A small deterministic hasher for maps keyed by simulator-internal
//! integers: DRAM addresses, `(bank, row)` pairs, `(channel, group)`
//! pairs.
//!
//! The standard library's SipHash defends against keys an adversary
//! picks to collide; these keys come from the simulator's own address
//! layout, never from outside the program, and are looked up on every
//! column access and every memory instruction, where SipHash's rounds
//! are measurable. [`IntHasher`] folds each integer the key writes with
//! one multiply and finishes with a rotate that moves the well-mixed
//! high product bits down to where the table takes its bucket index.
//! It is seeded by nothing, so it hashes the same on every run.
//!
//! Iteration order of an [`IntMap`] or [`IntSet`] is still unspecified:
//! use them only where nothing depends on that order.
//!
//! ```
//! use orderlight::hash::IntMap;
//!
//! let mut rows: IntMap<(u8, u32), u64> = IntMap::default();
//! *rows.entry((3, 17)).or_default() += 1;
//! assert_eq!(rows[&(3, 17)], 1);
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the fold step (an odd 64-bit constant with well-spread
/// bits, as in the `rustc-hash` family of hashers).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A multiply-fold hasher for integer keys (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher {
    hash: u64,
}

impl IntHasher {
    fn fold(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.fold(u64::from(i));
    }

    fn write_u16(&mut self, i: u16) {
        self.fold(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.fold(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.fold(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.fold(i as u64);
    }

    fn finish(&self) -> u64 {
        // The product's low bits depend only on the key's low bits
        // (addresses are multiples of 32), so rotate the mixed high
        // bits into the bucket-index position.
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed by [`IntHasher`].
pub type IntSet<T> = HashSet<T, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(key)
    }

    #[test]
    fn hashes_are_deterministic_and_distinguish_neighbours() {
        assert_eq!(hash_of(64u64), hash_of(64u64));
        assert_ne!(hash_of(64u64), hash_of(96u64));
        assert_ne!(hash_of((1u8, 2u32)), hash_of((2u8, 1u32)));
    }

    #[test]
    fn stripe_aligned_keys_spread_over_low_bits() {
        // 1024 addresses 32 B apart must land in many of 1024 buckets.
        let buckets: IntSet<u64> = (0..1024u64).map(|i| hash_of(i * 32) & 1023).collect();
        assert!(buckets.len() > 512, "only {} of 1024 buckets used", buckets.len());
    }
}
