//! The lost table (§4.4): sequence numbers this member believes it is
//! missing, discovered when a packet arrives with a sequence number past
//! the expected one.

use std::collections::BTreeMap;

use ag_maodv::seen::SeenCache;
use ag_net::NodeId;

use crate::message::PacketId;

/// Bounded table of believed-lost packets plus per-origin expected
/// sequence numbers.
///
/// The lost set is a [`SeenCache`]: insertion order is tracked so the
/// gossip message can carry "the most recent entries of the lost table"
/// (§4.4), and capacity eviction drops the *oldest* entries, which are
/// the least likely to still be in anyone's history table.
///
/// # Example
///
/// ```
/// use ag_core::LostTable;
/// use ag_net::NodeId;
///
/// let origin = NodeId::new(7);
/// let mut lt = LostTable::new(200);
/// lt.observe(origin, 1); // expected becomes 2
/// lt.observe(origin, 4); // 2 and 3 are now believed lost
/// assert_eq!(lt.len(), 2);
/// assert!(lt.is_lost(&ag_core::PacketId::new(origin, 2)));
/// lt.recover(ag_core::PacketId::new(origin, 2));
/// assert_eq!(lt.len(), 1);
/// ```
#[derive(Debug, Clone, Hash)]
pub struct LostTable {
    lost: SeenCache<PacketId>,
    expected: BTreeMap<NodeId, u32>,
}

impl LostTable {
    /// Creates a table holding at most `capacity` lost entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        LostTable {
            lost: SeenCache::new(capacity),
            expected: BTreeMap::new(),
        }
    }

    /// Records that packet `(origin, seq)` was received (via tree or
    /// gossip). Packets between the old expected sequence number and
    /// `seq` become lost entries; a received packet that was in the
    /// table is removed.
    pub fn observe(&mut self, origin: NodeId, seq: u32) {
        self.recover(PacketId::new(origin, seq));
        let expected = *self.expected.entry(origin).or_insert(1);
        if seq >= expected {
            for missing in expected..seq {
                self.lost.insert(PacketId::new(origin, missing));
            }
            self.expected.insert(origin, seq + 1);
        }
    }

    /// Marks a believed-lost packet as recovered.
    pub fn recover(&mut self, id: PacketId) {
        self.lost.remove(&id);
    }

    /// `true` if `id` is currently believed lost.
    pub fn is_lost(&self, id: &PacketId) -> bool {
        self.lost.contains(id)
    }

    /// The most recently added lost entries, newest first, up to `max` —
    /// the gossip message's lost buffer (§4.1, §4.4).
    pub fn lost_buffer(&self, max: usize) -> Vec<PacketId> {
        self.lost.keys().rev().take(max).copied().collect()
    }

    /// The per-origin next expected sequence numbers.
    pub fn expected_vec(&self) -> Vec<(NodeId, u32)> {
        self.expected.iter().map(|(n, s)| (*n, *s)).collect()
    }

    /// Next expected sequence number for `origin` (1 if never heard).
    pub fn expected_for(&self, origin: NodeId) -> u32 {
        self.expected.get(&origin).copied().unwrap_or(1)
    }

    /// Number of believed-lost packets.
    pub fn len(&self) -> usize {
        self.lost.len()
    }

    /// `true` if nothing is believed lost.
    pub fn is_empty(&self) -> bool {
        self.lost.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn o() -> NodeId {
        NodeId::new(9)
    }

    #[test]
    fn in_order_arrivals_create_no_losses() {
        let mut lt = LostTable::new(10);
        for s in 1..=5 {
            lt.observe(o(), s);
        }
        assert!(lt.is_empty());
        assert_eq!(lt.expected_for(o()), 6);
    }

    #[test]
    fn gap_creates_lost_entries() {
        let mut lt = LostTable::new(10);
        lt.observe(o(), 3);
        assert_eq!(lt.len(), 2);
        assert!(lt.is_lost(&PacketId::new(o(), 1)));
        assert!(lt.is_lost(&PacketId::new(o(), 2)));
        assert_eq!(lt.expected_for(o()), 4);
    }

    #[test]
    fn late_arrival_clears_entry() {
        let mut lt = LostTable::new(10);
        lt.observe(o(), 3);
        lt.observe(o(), 1);
        assert_eq!(lt.len(), 1);
        assert!(!lt.is_lost(&PacketId::new(o(), 1)));
        // Expected does not regress.
        assert_eq!(lt.expected_for(o()), 4);
    }

    #[test]
    fn recover_removes() {
        let mut lt = LostTable::new(10);
        lt.observe(o(), 4);
        lt.recover(PacketId::new(o(), 2));
        assert_eq!(lt.len(), 2);
        assert!(!lt.is_lost(&PacketId::new(o(), 2)));
        // Recovering twice is harmless.
        lt.recover(PacketId::new(o(), 2));
        assert_eq!(lt.len(), 2);
    }

    #[test]
    fn lost_buffer_is_newest_first() {
        let mut lt = LostTable::new(10);
        lt.observe(o(), 3); // lost 1, 2
        lt.observe(o(), 6); // lost 4, 5
        let buf = lt.lost_buffer(3);
        assert_eq!(
            buf,
            vec![
                PacketId::new(o(), 5),
                PacketId::new(o(), 4),
                PacketId::new(o(), 2)
            ]
        );
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut lt = LostTable::new(3);
        lt.observe(o(), 6); // lost 1..5, capacity 3 keeps {3,4,5}
        assert_eq!(lt.len(), 3);
        assert!(!lt.is_lost(&PacketId::new(o(), 1)));
        assert!(!lt.is_lost(&PacketId::new(o(), 2)));
        assert!(lt.is_lost(&PacketId::new(o(), 5)));
    }

    #[test]
    fn multiple_origins_tracked_independently() {
        let a = NodeId::new(1);
        let b = NodeId::new(2);
        let mut lt = LostTable::new(10);
        lt.observe(a, 2);
        lt.observe(b, 3);
        assert_eq!(lt.expected_for(a), 3);
        assert_eq!(lt.expected_for(b), 4);
        assert_eq!(lt.expected_for(NodeId::new(5)), 1);
        let mut exp = lt.expected_vec();
        exp.sort();
        assert_eq!(exp, vec![(a, 3), (b, 4)]);
        assert_eq!(lt.len(), 3);
    }

    #[test]
    fn duplicate_observe_is_stable() {
        let mut lt = LostTable::new(10);
        lt.observe(o(), 3);
        let before = lt.len();
        lt.observe(o(), 3);
        assert_eq!(lt.len(), before);
        assert_eq!(lt.expected_for(o()), 4);
    }

    proptest! {
        /// Invariant: a packet is never simultaneously "received" (seq <
        /// expected and not in lost) and in the lost set; and the lost
        /// set plus received set exactly covers 1..expected.
        #[test]
        fn prop_lost_set_is_exactly_the_gaps(seqs in prop::collection::vec(1u32..60, 1..60)) {
            let mut lt = LostTable::new(1000);
            let mut received = ag_sim::hash::DetHashSet::default();
            for &s in &seqs {
                lt.observe(o(), s);
                received.insert(s);
            }
            let expected = lt.expected_for(o());
            prop_assert_eq!(expected, seqs.iter().max().unwrap() + 1);
            for s in 1..expected {
                let lost = lt.is_lost(&PacketId::new(o(), s));
                prop_assert_eq!(lost, !received.contains(&s), "seq {}", s);
            }
        }

        /// The table never exceeds its capacity.
        #[test]
        fn prop_capacity_respected(seqs in prop::collection::vec(1u32..500, 1..50), cap in 1usize..20) {
            let mut lt = LostTable::new(cap);
            for &s in &seqs {
                lt.observe(o(), s);
                prop_assert!(lt.len() <= cap);
            }
        }
    }
}
