//! A bounded FIFO duplicate-suppression cache.
//!
//! Used for RREQ flood ids, data `(origin, seq)` pairs and GRPH rounds.
//! The capacity only needs to exceed the in-flight window, not the run
//! length; eviction is strict FIFO which is deterministic and cheap.

use std::collections::VecDeque;

use ag_sim::hash::DetHashSet as HashSet;
use std::hash::Hash;

/// Bounded set remembering the most recently inserted keys.
///
/// # Example
///
/// ```
/// use ag_maodv::seen::SeenCache;
/// let mut s = SeenCache::new(2);
/// assert!(s.insert(1));
/// assert!(!s.insert(1)); // duplicate
/// assert!(s.insert(2));
/// assert!(s.insert(3)); // evicts 1
/// assert!(s.insert(1));
/// ```
#[derive(Debug, Clone)]
pub struct SeenCache<K: Ord> {
    set: HashSet<K>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Ord + Hash + Clone> SeenCache<K> {
    /// Creates a cache remembering up to `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "seen cache needs capacity");
        // `capacity` bounds eviction, not allocation: storage starts
        // empty and grows on demand. A metropolis run builds millions
        // of these caches and most nodes never relay enough distinct
        // keys to fill one, so preallocating `capacity` slots would
        // dominate per-node memory (it used to cost ~40 KiB/node).
        // The set is membership-only (never iterated), so its bucket
        // count cannot influence behaviour.
        SeenCache {
            set: HashSet::default(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Inserts `key`; returns `true` if it was *not* already present.
    pub fn insert(&mut self, key: K) -> bool {
        if self.set.contains(&key) {
            return false;
        }
        if self.order.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        self.set.insert(key.clone());
        self.order.push_back(key);
        true
    }

    /// `true` if `key` is currently remembered.
    pub fn contains(&self, key: &K) -> bool {
        self.set.contains(key)
    }

    /// Number of remembered keys.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// `true` if nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dedupes() {
        let mut s = SeenCache::new(4);
        assert!(s.insert("a"));
        assert!(!s.insert("a"));
        assert!(s.contains(&"a"));
        assert!(!s.contains(&"b"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn evicts_fifo() {
        let mut s = SeenCache::new(3);
        for k in 0..3 {
            assert!(s.insert(k));
        }
        s.insert(3); // evicts 0
        assert!(!s.contains(&0));
        assert!(s.contains(&1));
        assert!(s.contains(&3));
        assert_eq!(s.len(), 3);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = SeenCache::<u8>::new(0);
    }

    proptest! {
        /// Size never exceeds capacity and set/order stay consistent.
        #[test]
        fn prop_bounded(keys in prop::collection::vec(0u16..50, 0..300), cap in 1usize..16) {
            let mut s = SeenCache::new(cap);
            for k in keys {
                s.insert(k);
                prop_assert!(s.len() <= cap);
            }
        }

        /// Within any window of `cap` *distinct* fresh inserts, a key
        /// inserted twice without eviction in between reports duplicate.
        #[test]
        fn prop_recent_duplicates_detected(k in 0u16..100, cap in 2usize..8) {
            let mut s = SeenCache::new(cap);
            prop_assert!(s.insert(k));
            prop_assert!(!s.insert(k));
        }
    }
}
