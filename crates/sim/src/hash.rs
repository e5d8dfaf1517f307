//! Deterministic hashing: simulation-side maps and state identity.
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
//!
//! State identity lives here too: [`state_key`], a value's `Hash` in
//! 128 bits, keys the model checker's visited set and its conformance
//! check. A type holding a cache leaves it out of its `Hash`, and the
//! `Det*` maps hash their entries order-free ([`OrderFree`]).

// ag-lint: allow(det-hash) -- the Det* aliases wrap these std types with the fixed-key hasher
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Feeds `bytes` to `fold` as little-endian words. A short tail is
/// zero-padded with its length in the top byte, so "ab" + "c" and
/// "a" + "bc" differ.
#[inline]
fn for_each_word(bytes: &[u8], mut fold: impl FnMut(u64)) {
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        fold(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut word = [0u8; 8];
        word[..rest.len()].copy_from_slice(rest);
        fold(u64::from_le_bytes(word) ^ ((rest.len() as u64) << 56));
    }
}

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
        for_each_word(bytes, |w| self.fold(w));
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

/// The hasher behind [`state_key`]: a [`FastHasher`] lane and an
/// xxHash64-round lane over the same words. The lanes share no mixing
/// function; the second starts non-zero because the first starts at 0
/// and so absorbs leading zero words.
struct StateHasher(FastHasher, u64);

/// xxHash64's primes: the second lane's multipliers and its start.
const XX_PRIME_1: u64 = 0x9e37_79b1_85eb_ca87;
const XX_PRIME_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const XX_PRIME_5: u64 = 0x27d4_eb2f_1656_67c5;

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        self.0.finish()
    }

    fn write(&mut self, bytes: &[u8]) {
        for_each_word(bytes, |w| self.write_u64(w));
    }

    fn write_u64(&mut self, word: u64) {
        self.0.fold(word);
        let mixed = self.1.wrapping_add(word.wrapping_mul(XX_PRIME_2));
        self.1 = mixed.rotate_left(31).wrapping_mul(XX_PRIME_1);
    }
}

/// 128 bits of state identity: `value`'s `Hash` through two
/// independent 64-bit lanes. An accidental collision is astronomically
/// unlikely even at millions of states, which lets the model checker
/// keep only the keys of the states it has expanded.
pub fn state_key<T: Hash + ?Sized>(value: &T) -> (u64, u64) {
    let mut h = StateHasher(FastHasher::default(), XX_PRIME_5);
    value.hash(&mut h);
    (h.finish(), h.1)
}

/// Wrapper behind [`DetHashMap`] and [`DetHashSet`]: storage and every
/// lookup are the std collection's, reached through `Deref`. It adds
/// `Hash`, order-free because slot order depends on the insert/remove
/// history: each entry is hashed on its own ([`state_key`]) and the
/// lanes are summed, with no sort and no allocation.
#[derive(Clone, Default)]
pub struct OrderFree<T>(T);

/// A `HashMap` with deterministic, per-process-stable hashing.
pub type DetHashMap<K, V> = OrderFree<HashMap<K, V, DetBuildHasher>>;

/// A `HashSet` with deterministic, per-process-stable hashing.
pub type DetHashSet<K> = OrderFree<HashSet<K, DetBuildHasher>>;

impl<T> Deref for OrderFree<T> {
    type Target = T;
    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> DerefMut for OrderFree<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderFree<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T> Hash for OrderFree<T>
where
    for<'a> &'a T: IntoIterator<Item: Hash>,
{
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (mut len, mut a, mut b) = (0usize, 0u64, 0u64);
        for entry in &self.0 {
            let (x, y) = state_key(&entry);
            (len, a, b) = (len + 1, a.wrapping_add(x), b.wrapping_add(y));
        }
        (len, a, b).hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

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

    proptest::proptest! {
        /// Tables with equal contents are one state, whatever
        /// insert/remove history produced them. The second history grows
        /// the tables with keys it later removes, so their capacity, and
        /// with it the slot order, differs from the first's.
        #[test]
        fn prop_identity_ignores_operation_order(
            keys in proptest::collection::vec(0u32..10_000, 0..40),
            noise in proptest::collection::vec(10_000u32..20_000, 0..200),
        ) {
            type Tables = (DetHashMap<u32, u64>, DetHashSet<u32>);
            fn tables(noise: &[u32], keys: impl Iterator<Item = u32>) -> Tables {
                let mut t = Tables::default();
                for k in noise.iter().copied().chain(keys) {
                    t.0.insert(k, u64::from(k) * 7);
                    t.1.insert(k);
                }
                for k in noise {
                    t.0.remove(k);
                    t.1.remove(k);
                }
                t
            }
            let plain = tables(&[], keys.iter().copied());
            let churned = tables(&noise, keys.iter().rev().copied());
            proptest::prop_assert_eq!(state_key(&plain), state_key(&churned));
        }
    }
}
