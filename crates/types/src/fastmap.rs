//! Shared fast hashing for the simulator's hot maps.
//!
//! The trace profiler counts page touches per op, keyed by small
//! integers. `std`'s default SipHash is DoS-resistant but costs ~10× what
//! these lookups need, so the simulator's maps use an FxHash-style
//! multiply hasher instead via the [`FastMap`]/[`FastSet`] aliases.
//!
//! The hasher is fixed-seed, so iteration order is deterministic — a
//! property the reproduction's bit-identical-runs guarantee leans on.

use core::hash::{BuildHasherDefault, Hasher};
use std::collections::{HashMap, HashSet};

/// Multiplier from the Fx (Firefox/rustc) hash: the 64-bit golden ratio.
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// An FxHash-style word-at-a-time multiply hasher.
///
/// Not DoS-resistant — keys here are simulator-internal frame numbers and
/// page numbers, never attacker-controlled input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FastHasher`] (fixed seed, deterministic order).
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` on the shared fast hasher.
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` on the shared fast hasher.
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use core::hash::BuildHasher;

    #[test]
    fn map_and_set_round_trip() {
        let mut m: FastMap<u64, usize> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 7919, i as usize);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(&(i * 7919)), Some(&(i as usize)));
        }
        let mut s: FastSet<u64> = FastSet::default();
        assert!(s.insert(42));
        assert!(!s.insert(42));
        assert!(s.contains(&42));
    }

    #[test]
    fn hashes_are_deterministic_and_spread() {
        let build = FastBuildHasher::default();
        let h = |x: u64| build.hash_one(x);
        assert_eq!(h(123), h(123));
        // Consecutive keys must land far apart (the maps key on
        // consecutive frame numbers).
        let mut top_bytes: FastSet<u8> = FastSet::default();
        for i in 0..256u64 {
            top_bytes.insert((h(i) >> 56) as u8);
        }
        assert!(
            top_bytes.len() > 100,
            "only {} distinct top bytes",
            top_bytes.len()
        );
    }

    #[test]
    fn byte_writes_cover_all_widths() {
        use core::hash::Hasher;
        let mut h = FastHasher::default();
        h.write_u8(1);
        h.write_u16(2);
        h.write_u32(3);
        h.write_u64(4);
        h.write_usize(5);
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_ne!(h.finish(), 0);
    }
}
