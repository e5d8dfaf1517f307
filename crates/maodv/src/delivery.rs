//! Delivery accounting shared by the bare-MAODV baseline and the gossip
//! layer.
//!
//! The paper's headline metric is "number of packets received by each
//! group member" (de-duplicated), split here by *how* the packet arrived
//! so the harness can attribute recovery to gossip.

use ag_sim::hash::DetHashSet as HashSet;

use ag_net::NodeId;

/// How a data packet reached a member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryPath {
    /// Along the multicast tree (phase one).
    Tree,
    /// Carried by a gossip reply (phase two).
    Gossip,
}

/// Per-member record of every distinct data packet received.
#[derive(Debug, Clone, Default, Hash)]
pub struct DeliveryLog {
    seen: HashSet<(NodeId, u32)>,
    via_gossip: u64,
    duplicates: u64,
}

impl DeliveryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records packet `(origin, seq)` arriving via `path`. Returns `true`
    /// if it was new (first delivery).
    pub fn record(&mut self, origin: NodeId, seq: u32, path: DeliveryPath) -> bool {
        if self.seen.insert((origin, seq)) {
            if path == DeliveryPath::Gossip {
                self.via_gossip += 1;
            }
            true
        } else {
            self.duplicates += 1;
            false
        }
    }

    /// `true` if `(origin, seq)` has been delivered.
    pub fn contains(&self, origin: NodeId, seq: u32) -> bool {
        self.seen.contains(&(origin, seq))
    }

    /// Distinct packets delivered.
    pub fn distinct(&self) -> u64 {
        self.seen.len() as u64
    }

    /// Distinct packets that arrived along the tree: every first
    /// delivery not made by gossip.
    pub fn via_tree(&self) -> u64 {
        self.distinct() - self.via_gossip
    }

    /// Distinct packets first delivered by a gossip reply.
    pub fn via_gossip(&self) -> u64 {
        self.via_gossip
    }

    /// Re-deliveries of already-known packets.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_delivery_counts_once() {
        let mut log = DeliveryLog::new();
        let o = NodeId::new(1);
        assert!(log.record(o, 1, DeliveryPath::Tree));
        assert!(!log.record(o, 1, DeliveryPath::Gossip));
        assert_eq!(log.distinct(), 1);
        assert_eq!(log.via_tree(), 1);
        assert_eq!(log.via_gossip(), 0);
        assert_eq!(log.duplicates(), 1);
        assert!(log.contains(o, 1));
        assert!(!log.contains(o, 2));
    }

    #[test]
    fn paths_attributed_independently() {
        let mut log = DeliveryLog::new();
        let o = NodeId::new(1);
        log.record(o, 1, DeliveryPath::Tree);
        log.record(o, 2, DeliveryPath::Gossip);
        log.record(NodeId::new(2), 1, DeliveryPath::Gossip);
        assert_eq!(log.distinct(), 3);
        assert_eq!(log.via_tree(), 1);
        assert_eq!(log.via_gossip(), 2);
        assert_eq!(log.duplicates(), 0);
    }
}
