//! The bounded FIFO keyed table every duplicate-suppression window and
//! every §4.4 buffer is built on, and the jittered relay every flood
//! rebroadcast goes through.
//!
//! [`SeenCache`] (RREQ flood ids, data `(origin, seq)` pairs, GRPH
//! rounds, ODMRP's query/reply/data windows) is the table with no
//! values; `ag-core`'s history table and lost table are the same table
//! keyed by packet id. The capacity only needs to exceed the in-flight
//! window, not the run length; eviction is strict FIFO, which is
//! deterministic and cheap. A flood that a [`SeenCache`] lets through
//! goes on to a [`FloodRelay`], MAODV's and ODMRP's alike.

use std::collections::VecDeque;
use std::hash::Hash;

use ag_net::{Message, ProtoCtx, TimerKey};
use ag_sim::hash::DetHashMap as HashMap;
use ag_sim::SimDuration;

/// Bounded map remembering the most recently inserted keys: a hash
/// index for membership plus an insertion-order queue, evicting the
/// oldest key when a new one arrives at capacity.
///
/// `capacity` bounds eviction, not allocation: storage starts empty and
/// grows on demand. A metropolis run builds millions of these and most
/// nodes never see enough distinct keys to fill one, so preallocating
/// `capacity` slots would dominate per-node memory (it used to cost
/// ~40 KiB/node). Iteration goes through the queue, never the index, so
/// the index's bucket count cannot influence behaviour.
///
/// # Example
///
/// ```
/// use ag_maodv::seen::FifoTable;
/// let mut t = FifoTable::new(2);
/// assert!(t.push("a", 1));
/// assert!(!t.push("a", 9)); // already present: kept as it was
/// assert!(t.push("b", 2));
/// assert!(t.push("c", 3)); // evicts "a", the oldest
/// assert_eq!(t.get(&"a"), None);
/// assert_eq!(t.remove(&"b"), Some(2));
/// assert_eq!(t.keys().collect::<Vec<_>>(), [&"c"]);
/// ```
#[derive(Debug, Clone, Hash)]
pub struct FifoTable<K, V> {
    map: HashMap<K, V>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V> FifoTable<K, V> {
    /// Creates a table remembering up to `capacity` keys.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "bounded table needs capacity");
        FifoTable {
            map: HashMap::default(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Stores `value` under `key` unless the key is already present
    /// (then nothing changes); evicts the oldest key when full. Returns
    /// `true` if the key was new. A duplicate costs one probe and never
    /// reserves.
    pub fn push(&mut self, key: K, value: V) -> bool {
        if self.map.contains_key(&key) {
            return false;
        }
        if self.order.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
        self.map.insert(key.clone(), value);
        self.order.push_back(key);
        true
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// `true` if `key` is currently remembered.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Forgets `key`, returning its value; the remaining keys keep their
    /// order.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let value = self.map.remove(key)?;
        if let Some(i) = self.order.iter().position(|k| k == key) {
            self.order.remove(i);
        }
        Some(value)
    }

    /// The remembered keys, oldest first.
    pub fn keys(&self) -> impl DoubleEndedIterator<Item = &K> {
        self.order.iter()
    }

    /// The stored values, oldest first.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.order.iter().filter_map(|k| self.map.get(k))
    }

    /// Number of remembered keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if nothing is remembered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The most keys the table remembers at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Bounded duplicate-suppression set: a [`FifoTable`] with no values.
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
pub type SeenCache<K> = FifoTable<K, ()>;

impl<K: Hash + Eq + Clone> FifoTable<K, ()> {
    /// Inserts `key`; returns `true` if it was *not* already present.
    pub fn insert(&mut self, key: K) -> bool {
        self.push(key, ())
    }
}

/// The copies of flood frames a node waits to rebroadcast, oldest first.
/// Each copy waits a random 0–10 ms on one timer of the caller's key and
/// goes out once, when a firing of that key calls [`FloodRelay::drain`]:
/// synchronized relays from mutually hidden nodes would otherwise
/// collide at the nodes between them *every* round — the classic
/// broadcast-storm pathology jitter exists to break. Deduplication stays
/// with the caller's [`SeenCache`].
#[derive(Debug, Clone, Hash)]
pub struct FloodRelay<M>(VecDeque<M>);

impl<M> Default for FloodRelay<M> {
    fn default() -> Self {
        FloodRelay(VecDeque::new())
    }
}

impl<M: Message> FloodRelay<M> {
    // ag-lint: hot-path
    /// Queues `msg` as it is and arms one `key` timer for it.
    pub fn queue<C: ProtoCtx<M>>(&mut self, api: &mut C, key: TimerKey, msg: M) {
        self.0.push_back(msg);
        let delay = SimDuration::from_micros(api.jitter(10_000));
        api.set_timer(delay, key);
    }

    // ag-lint: hot-path
    /// Queues the next hop's copy of a flood frame received at
    /// `hop_count` / `ttl` — `copy(hop_count + 1, ttl - 1)`, the hop count
    /// saturating — unless the TTL ends the flood here. Returns whether a
    /// copy was queued.
    pub fn relay<C: ProtoCtx<M>>(
        &mut self,
        api: &mut C,
        key: TimerKey,
        hop_count: u8,
        ttl: u8,
        copy: impl FnOnce(u8, u8) -> M,
    ) -> bool {
        if ttl <= 1 {
            return false;
        }
        self.queue(api, key, copy(hop_count.saturating_add(1), ttl - 1));
        true
    }

    // ag-lint: hot-path
    /// Broadcasts the oldest queued copy, if any; call on every firing of
    /// the key the copies were queued with.
    pub fn drain<C: ProtoCtx<M>>(&mut self, api: &mut C) {
        if let Some(msg) = self.0.pop_front() {
            api.broadcast(msg);
        }
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

    /// Only the hash index is identified order-free: two caches with
    /// the same keys pushed in another order evict differently, so they
    /// are different states.
    #[test]
    fn fifo_order_stays_in_identity() {
        use ag_sim::hash::state_key;
        let (mut ab, mut ba) = (SeenCache::new(2), SeenCache::new(2));
        for k in [1, 2] {
            ab.insert(k);
        }
        for k in [2, 1] {
            ba.insert(k);
        }
        assert_ne!(state_key(&ab), state_key(&ba));
        ab.insert(3);
        ba.insert(3);
        assert!(ab.contains(&2) && !ba.contains(&2));
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = SeenCache::<u8>::new(0);
    }

    /// A flood copy: what [`FloodRelay::relay`] steps.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Flood {
        hops: u8,
        ttl: u8,
    }

    impl Message for Flood {
        fn wire_size(&self) -> usize {
            2
        }
    }

    /// Records timers and broadcasts; every jitter draw is its bound's
    /// last value.
    #[derive(Debug, Default)]
    struct Log {
        timers: Vec<(SimDuration, TimerKey)>,
        sent: Vec<Flood>,
    }

    impl ProtoCtx<Flood> for Log {
        fn now(&self) -> ag_sim::SimTime {
            ag_sim::SimTime::ZERO
        }
        fn id(&self) -> ag_net::NodeId {
            ag_net::NodeId::new(0)
        }
        fn node_count(&self) -> usize {
            1
        }
        fn send(&mut self, _dest: ag_net::NodeId, _msg: Flood) {
            unreachable!("a relay only broadcasts");
        }
        fn broadcast(&mut self, msg: Flood) {
            self.sent.push(msg);
        }
        fn set_timer(&mut self, delay: SimDuration, key: TimerKey) {
            self.timers.push((delay, key));
        }
        fn count_n(&mut self, _name: &'static str, _n: u64) {}
        fn jitter(&mut self, bound: u64) -> u64 {
            bound - 1
        }
        fn chance(&mut self, _p: f64) -> bool {
            false
        }
        fn pick_index(&mut self, _n: usize) -> usize {
            0
        }
        fn pick_weighted<F: Fn(usize) -> f64>(&mut self, _n: usize, _weight: F) -> usize {
            0
        }
    }

    /// The shared flood relay: a copy at TTL 1 is not queued; hop and
    /// TTL are stepped, the hop count saturating; each queued copy arms
    /// exactly one timer, on the caller's key, at most 10 ms out; copies
    /// drain oldest first; draining an empty queue broadcasts nothing.
    #[test]
    fn flood_relay_steps_queues_and_drains_in_order() {
        const KEY: TimerKey = 9;
        let copy = |hops, ttl| Flood { hops, ttl };
        let (mut api, mut relay) = (Log::default(), FloodRelay::default());
        assert!(!relay.relay(&mut api, KEY, 0, 1, copy));
        assert!(!relay.relay(&mut api, KEY, 0, 0, copy));
        assert!(api.timers.is_empty());
        assert!(relay.relay(&mut api, KEY, 3, 5, copy));
        assert!(relay.relay(&mut api, KEY, u8::MAX, 2, copy));
        relay.queue(&mut api, KEY, copy(7, 7));
        let armed = (SimDuration::from_micros(9_999), KEY);
        assert_eq!(api.timers, [armed; 3]);
        for _ in 0..4 {
            relay.drain(&mut api);
        }
        assert_eq!(api.sent, [copy(4, 4), copy(u8::MAX, 1), copy(7, 7)]);
        assert_eq!(api.timers.len(), 3);
    }

    proptest! {
        /// The table against a plain oldest-first `Vec<(K, V)>` over
        /// random push / get / remove sequences, capacity 1 included:
        /// bounded, evicts strictly the oldest, `remove` keeps the
        /// survivors' order, and an evicted key is new again.
        #[test]
        fn prop_matches_vec_model(
            ops in prop::collection::vec((0u8..3, 0u8..10, 0u16..1000), 0..200),
            cap in 1usize..6,
        ) {
            let mut t = FifoTable::new(cap);
            let mut model: Vec<(u8, u16)> = Vec::new();
            for (op, k, v) in ops {
                let at = model.iter().position(|e| e.0 == k);
                match op {
                    0 => {
                        if at.is_none() {
                            if model.len() == cap {
                                model.remove(0);
                            }
                            model.push((k, v));
                        }
                        prop_assert_eq!(t.push(k, v), at.is_none());
                    }
                    1 => prop_assert_eq!(t.get(&k), at.map(|i| &model[i].1)),
                    _ => prop_assert_eq!(t.remove(&k), at.map(|i| model.remove(i).1)),
                }
                prop_assert!(t.len() <= cap);
                prop_assert_eq!(t.len(), model.len());
                prop_assert_eq!(t.is_empty(), model.is_empty());
                prop_assert_eq!(t.contains(&k), model.iter().any(|e| e.0 == k));
                let keys: Vec<u8> = t.keys().copied().collect();
                let values: Vec<u16> = t.values().copied().collect();
                prop_assert_eq!(keys, model.iter().map(|e| e.0).collect::<Vec<_>>());
                prop_assert_eq!(values, model.iter().map(|e| e.1).collect::<Vec<_>>());
            }
        }

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
