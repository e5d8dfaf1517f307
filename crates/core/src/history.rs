//! The history table (§4.4): a bounded FIFO of the most recent packets
//! received, retained so gossip replies can carry the actual data.

use ag_maodv::seen::FifoTable;

use crate::message::{PacketId, PacketRecord};

/// Bounded FIFO packet store: a [`FifoTable`] keyed by packet id, so it
/// starts empty and costs nothing until a node actually stores packets.
///
/// # Example
///
/// ```
/// use ag_core::{HistoryTable, PacketId, PacketRecord};
/// use ag_net::NodeId;
///
/// let mut h = HistoryTable::new(100);
/// let id = PacketId::new(NodeId::new(1), 7);
/// h.push(id, PacketRecord { id, payload_len: 64 });
/// assert!(h.contains(&id));
/// assert_eq!(h.get(&id).unwrap().payload_len, 64);
/// ```
///
/// A record must be pushed under its own `id`: the reply rule filters
/// stored records by `PacketRecord::id`, not by their key.
pub type HistoryTable = FifoTable<PacketId, PacketRecord>;

/// Stores a 64-byte packet `seq` from `origin` under its own id.
#[cfg(test)]
pub(crate) fn push_packet(h: &mut HistoryTable, origin: u32, seq: u32) {
    let (id, payload_len) = (PacketId::new(ag_net::NodeId::new(origin), seq), 64);
    h.push(id, PacketRecord { id, payload_len });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_net::NodeId;
    use proptest::prelude::*;

    #[test]
    fn stores_and_fetches() {
        let mut h = HistoryTable::new(4);
        push_packet(&mut h, 1, 1);
        assert!(h.contains(&PacketId::new(NodeId::new(1), 1)));
        assert!(!h.contains(&PacketId::new(NodeId::new(1), 2)));
        assert_eq!(h.len(), 1);
        assert_eq!(h.capacity(), 4);
    }

    #[test]
    fn duplicate_push_is_noop() {
        let mut h = HistoryTable::new(4);
        push_packet(&mut h, 1, 1);
        push_packet(&mut h, 1, 1);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn evicts_fifo() {
        let mut h = HistoryTable::new(3);
        for s in 1..=4 {
            push_packet(&mut h, 1, s);
        }
        assert_eq!(h.len(), 3);
        assert!(!h.contains(&PacketId::new(NodeId::new(1), 1)));
        assert!(h.contains(&PacketId::new(NodeId::new(1), 4)));
        let order: Vec<u32> = h.values().map(|r| r.id.seq).collect();
        assert_eq!(order, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = HistoryTable::new(0);
    }

    proptest! {
        /// len never exceeds capacity; everything in `order` resolves.
        #[test]
        fn prop_bounded_and_consistent(seqs in prop::collection::vec(0u32..40, 0..200), cap in 1usize..16) {
            let mut h = HistoryTable::new(cap);
            for &s in &seqs {
                push_packet(&mut h, 1, s);
                prop_assert!(h.len() <= cap);
                prop_assert_eq!(h.values().count(), h.len());
            }
        }

        /// The most recent `cap` *distinct* pushes are always retained.
        #[test]
        fn prop_recent_retained(n in 1u32..50, cap in 1usize..10) {
            let mut h = HistoryTable::new(cap);
            for s in 1..=n {
                push_packet(&mut h, 1, s);
            }
            let lo = n.saturating_sub(cap as u32 - 1).max(1);
            for s in lo..=n {
                prop_assert!(h.contains(&PacketId::new(NodeId::new(1), s)), "seq {} missing", s);
            }
        }
    }
}
