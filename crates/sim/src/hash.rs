//! Deterministic hashing for simulation-side maps.
//!
//! `std`'s default `RandomState` draws fresh SipHash keys per process.
//! That never changes simulation *results* here — every protocol is
//! written to be iteration-order independent, and the golden snapshots
//! prove it across processes — but it does change map iteration order,
//! and with it the exact *allocation pattern* of anything that grows
//! while folding over a map. Allocation counts are compared as exact
//! integers (`agbench`'s `net.run_allocs_per_event`, the `ag-bench`
//! `zero_alloc` test), so run-to-run wobble of even a handful of
//! allocations would make those readings flaky.
//!
//! The fix is a fixed-key hasher: same map behaviour every process,
//! and cheaper per write than SipHash (hash-flooding resistance buys
//! nothing against a workload we generate ourselves). Protocol tables
//! use the [`DetHashMap`]/[`DetHashSet`] aliases instead of the std
//! defaults.

// ag-lint: allow(det-hash) -- the Det* aliases wrap these std types with the fixed-key hasher
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Deref, DerefMut};

/// An FxHash-style multiply-rotate hasher with no per-process state.
///
/// The mixing constant is the 64-bit golden-ratio multiplier; each
/// written word is folded in with a rotate-xor-multiply step. Quality
/// is ample for the small integer and tuple keys the protocol tables
/// use, and hashing stays a few instructions per word.
#[derive(Default, Clone)]
pub struct FastHasher(u64);

/// 2^64 / φ, the usual Fibonacci-hashing multiplier.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl FastHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // One final avalanche so low-entropy keys spread into the high
        // bits hashbrown derives its control bytes from.
        let mut z = self.0;
        z ^= z >> 32;
        z = z.wrapping_mul(SEED);
        z ^ (z >> 29)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" + "c" and "a" + "bc" differ.
            self.fold(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.fold(v as u64);
    }
}

/// [`BuildHasher`](std::hash::BuildHasher) producing [`FastHasher`]s —
/// identical in every process.
pub type DetBuildHasher = BuildHasherDefault<FastHasher>;

/// Wrapper behind [`DetHashMap`] and [`DetHashSet`]. Storage, hashing
/// and every lookup are the std collection's, reached through `Deref`.
/// The one difference is `Debug`, which renders entries in **key
/// order**: slot order depends on the insert/remove history, and state
/// identity (`ag_check::state_key`, which the checker's visited set and
/// its conformance wrapper both use) hashes the rendering, so equal
/// contents must render equally.
#[derive(Clone, Default)]
pub struct KeyOrdered<T>(T);

/// A `HashMap` with deterministic, per-process-stable hashing.
pub type DetHashMap<K, V> = KeyOrdered<HashMap<K, V, DetBuildHasher>>;

/// A `HashSet` with deterministic, per-process-stable hashing.
pub type DetHashSet<K> = KeyOrdered<HashSet<K, DetBuildHasher>>;

impl<T> Deref for KeyOrdered<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for KeyOrdered<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<K: Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for DetHashMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<(&K, &V)> = self.0.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        f.debug_map().entries(entries).finish()
    }
}

impl<K: Ord + fmt::Debug> fmt::Debug for DetHashSet<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut keys: Vec<&K> = self.0.iter().collect();
        keys.sort_unstable();
        f.debug_set().entries(keys).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        DetBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_distinct_keys_spread() {
        assert_eq!(hash_of(&(7u32, 9u32)), hash_of(&(7u32, 9u32)));
        let mut seen = DetHashSet::default();
        for i in 0..10_000u64 {
            seen.insert(hash_of(&i));
        }
        // Sequential integers must not collapse onto few hashes.
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    fn byte_stream_chunking_is_length_prefixed() {
        let mut a = FastHasher::default();
        a.write(b"ab");
        a.write(b"c");
        let mut b = FastHasher::default();
        b.write(b"a");
        b.write(b"bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_iteration_order_is_reproducible() {
        let collect = || {
            let mut m = DetHashMap::default();
            for i in 0..1000u32 {
                m.insert(i, i * 2);
            }
            m.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }
}
