//! A small deterministic hasher for the simulator's integer-keyed maps.
//!
//! The std `HashMap` default, SipHash-1-3 keyed by `RandomState`, is built
//! to resist collision attacks on untrusted keys. The simulator's keys are
//! its own line addresses, slot offsets, tickets and transaction keys, and
//! hashing them costs more than the lookups it serves. [`IntHasher`] folds
//! each written integer into the state with one 128-bit multiply, whose
//! high and low halves are XORed together so every key bit reaches both
//! the bucket-index (low) and tag (high) bits `HashMap` uses.
//!
//! No simulated result can depend on the hasher: `RandomState` already
//! gives every map a fresh random iteration order on every run, so any
//! result that followed that order would not reproduce today. Swapping
//! the hasher changes host time only.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier of the fold (the 64-bit golden-ratio constant).
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-fold hasher for integer keys (see the module docs).
///
/// # Example
///
/// ```
/// use morlog_sim_core::hash::IntHashMap;
///
/// let mut wear: IntHashMap<u64, u32> = IntHashMap::default();
/// *wear.entry(4096).or_insert(0) += 1;
/// assert_eq!(wear[&4096], 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct IntHasher {
    state: u64,
}

impl Default for IntHasher {
    fn default() -> Self {
        IntHasher {
            state: 0x243F_6A88_85A3_08D3,
        }
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(i as u64);
    }

    fn write_u16(&mut self, i: u16) {
        self.write_u64(i as u64);
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i as u64);
    }

    fn write_u64(&mut self, i: u64) {
        let product = ((self.state ^ i) as u128) * MULTIPLIER as u128;
        self.state = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// The `BuildHasher` of [`IntHasher`]: stateless, so every map built from
/// it hashes identically on every run.
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

/// A `HashMap` keyed through [`IntHasher`].
pub type IntHashMap<K, V> = HashMap<K, V, BuildIntHasher>;

/// A `HashSet` keyed through [`IntHasher`].
pub type IntHashSet<T> = HashSet<T, BuildIntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(value: impl Hash) -> u64 {
        BuildIntHasher::default().hash_one(value)
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of((3usize, 7u64)), hash_of((3usize, 7u64)));
        assert_ne!(hash_of((3usize, 7u64)), hash_of((7usize, 3u64)));
    }

    #[test]
    fn aligned_keys_spread_over_low_bits() {
        // Slot offsets and line addresses are multiples of 16 or 64; the
        // fold must still spread them over the bucket-index bits.
        let buckets: IntHashSet<u64> = (0..4096u64).map(|k| hash_of(k * 64) & 0xFFF).collect();
        assert!(
            buckets.len() > 2400,
            "{} of 4096 buckets hit",
            buckets.len()
        );
    }

    #[test]
    fn byte_writes_match_word_writes_for_whole_words() {
        let mut a = IntHasher::default();
        a.write(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        let mut b = IntHasher::default();
        b.write_u64(0x0123_4567_89AB_CDEF);
        assert_eq!(a.finish(), b.finish());
    }
}
