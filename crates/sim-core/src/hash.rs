//! The Fx hasher (the multiply-rotate hash rustc uses for its own maps)
//! and the [`FxHashMap`] alias built on it.
//!
//! std's default `RandomState` runs SipHash-1-3, which resists keys
//! crafted to collide but spends several mixing rounds on each key. The
//! engine's per-request maps are keyed by request and device ids the
//! simulator assigns itself, never by outside input, so they take this
//! hasher instead. It hashes a `u64` with one rotate, one xor and one
//! multiply. Its iteration order repeats from run to run, but callers
//! must not depend on it any more than on std's (see DESIGN §2).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Odd multiplier of the Fx hash (rustc's, from Firefox's hasher).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher: every written word is folded in as
/// `hash = (hash.rotate_left(5) ^ word) · SEED`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(key: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(key)
    }

    #[test]
    fn sequential_u64_keys_hash_distinctly() {
        let hashes: HashSet<u64> = (0..100_000u64).map(fx).collect();
        assert_eq!(hashes.len(), 100_000);
    }

    #[test]
    fn request_stage_keys_hash_distinctly() {
        // The shape of `DeviceKv`'s `(request, stage)` keys.
        let hashes: HashSet<u64> = (0..25_000u64)
            .flat_map(|r| (0..4u16).map(move |s| fx((r, s))))
            .collect();
        assert_eq!(hashes.len(), 100_000);
    }

    #[test]
    fn map_round_trip() {
        let mut m: FxHashMap<(u64, u16), u64> = FxHashMap::default();
        for k in 0..1_000u64 {
            assert_eq!(m.insert((k, (k % 3) as u16), k * 7), None);
        }
        assert_eq!(m.len(), 1_000);
        for k in 0..1_000u64 {
            assert_eq!(m.get(&(k, (k % 3) as u16)), Some(&(k * 7)));
            assert_eq!(m.get(&(k, (k % 3) as u16 + 3)), None);
        }
        for k in (0..1_000u64).step_by(2) {
            assert_eq!(m.remove(&(k, (k % 3) as u16)), Some(k * 7));
        }
        assert_eq!(m.len(), 500);
        assert!(m.keys().all(|&(k, _)| k % 2 == 1));
        assert_eq!(m.insert((0, 0), 1), None);
        assert_eq!(m.get(&(0, 0)), Some(&1));
    }
}
