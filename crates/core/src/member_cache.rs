//! The member cache (§4.3): a bounded buffer of known group members
//! used for *cached gossip*, filled at no extra cost from data packets,
//! gossip replies and route replies.

use ag_net::NodeId;
use ag_sim::SimTime;

/// One cached member: `(node_addr, numhops, last_gossip)` exactly as
/// §4.3 defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// The member's address.
    pub node: NodeId,
    /// Shortest observed distance, in hops.
    pub numhops: u8,
    /// Last time this node gossiped with the member ([`SimTime::ZERO`]
    /// if never).
    pub last_gossip: SimTime,
}

/// The bounded member cache with the paper's eviction rule: when full,
/// evict a member that is *farther* than the newcomer; if none is
/// farther, evict the member with the most recent `last_gossip` (to
/// avoid gossiping with the same members repeatedly).
///
/// # Example
///
/// ```
/// use ag_core::MemberCache;
/// use ag_net::NodeId;
///
/// let mut mc = MemberCache::new(10);
/// mc.observe(NodeId::new(3), 2);
/// assert_eq!(mc.len(), 1);
/// assert_eq!(mc.entries()[0].numhops, 2);
/// ```
#[derive(Debug, Clone)]
pub struct MemberCache {
    entries: Vec<CacheEntry>,
    capacity: usize,
}

impl MemberCache {
    /// Creates a cache holding at most `capacity` members. Like every
    /// protocol table it starts empty: `capacity` bounds eviction, not
    /// allocation, and most nodes of a large run are not members.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "member cache needs capacity");
        MemberCache {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Records that `member` was observed `numhops` away.
    ///
    /// Existing entries keep their `last_gossip` and update `numhops`;
    /// new members enter via the eviction rule above.
    pub fn observe(&mut self, member: NodeId, numhops: u8) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.node == member) {
            e.numhops = numhops;
            return;
        }
        let new = CacheEntry {
            node: member,
            numhops,
            last_gossip: SimTime::ZERO,
        };
        if self.entries.len() < self.capacity {
            self.entries.push(new);
            return;
        }
        // Paper's rule: evict a member with greater numhops…
        if let Some(i) = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.numhops > numhops)
            .max_by_key(|(_, e)| e.numhops)
            .map(|(i, _)| i)
        {
            self.entries[i] = new;
            return;
        }
        // …else the one gossiped with most recently.
        if let Some(i) = self
            .entries
            .iter()
            .enumerate()
            .max_by_key(|(_, e)| e.last_gossip)
            .map(|(i, _)| i)
        {
            self.entries[i] = new;
        }
    }

    /// Records that we just gossiped with `member` at `now` (updates the
    /// anti-repetition timestamp).
    pub fn record_gossip(&mut self, member: NodeId, now: SimTime) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.node == member) {
            e.last_gossip = now;
        }
    }

    /// Picks a uniformly random cached member other than `exclude`. The
    /// caller supplies the uniform index draw — a `ProtoCtx::pick_index`
    /// named choice, so the selection is enumerable by the model checker
    /// and replayable by the conformance harness. `choose` runs only
    /// when at least one eligible entry exists, and receives the
    /// eligible count, below which its draw must fall.
    pub fn pick_via(
        &self,
        exclude: NodeId,
        choose: impl FnOnce(usize) -> usize,
    ) -> Option<CacheEntry> {
        let eligible = || self.entries.iter().filter(|e| e.node != exclude);
        let n = eligible().count();
        if n == 0 {
            return None;
        }
        Some(*eligible().nth(choose(n)).expect("draw out of range"))
    }

    /// The current entries, in insertion order.
    pub fn entries(&self) -> &[CacheEntry] {
        &self.entries
    }

    /// Number of cached members.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no members are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_sim::rng::{SeedSplitter, StreamKind};
    use ag_sim::SimDuration;
    use rand::Rng;

    fn id(n: u32) -> NodeId {
        NodeId::new(n)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn observe_updates_hops_in_place() {
        let mut mc = MemberCache::new(4);
        mc.observe(id(1), 5);
        mc.observe(id(1), 2);
        assert_eq!(mc.len(), 1);
        assert_eq!(mc.entries()[0].numhops, 2);
    }

    #[test]
    fn eviction_prefers_farther_member() {
        let mut mc = MemberCache::new(2);
        mc.observe(id(1), 8);
        mc.observe(id(2), 3);
        // Cache full; newcomer at 5 hops evicts the 8-hop member.
        mc.observe(id(3), 5);
        let nodes: Vec<NodeId> = mc.entries().iter().map(|e| e.node).collect();
        assert!(nodes.contains(&id(2)));
        assert!(nodes.contains(&id(3)));
        assert!(!nodes.contains(&id(1)));
    }

    #[test]
    fn eviction_falls_back_to_most_recent_gossip() {
        let mut mc = MemberCache::new(2);
        mc.observe(id(1), 1);
        mc.observe(id(2), 1);
        mc.record_gossip(id(1), t(5));
        mc.record_gossip(id(2), t(9));
        // Newcomer is farther than everyone: evict most recent gossip (2).
        mc.observe(id(3), 4);
        let nodes: Vec<NodeId> = mc.entries().iter().map(|e| e.node).collect();
        assert!(nodes.contains(&id(1)));
        assert!(nodes.contains(&id(3)));
        assert!(!nodes.contains(&id(2)));
    }

    #[test]
    fn pick_random_excludes_self() {
        let mut mc = MemberCache::new(4);
        mc.observe(id(1), 1);
        let mut rng = SeedSplitter::new(1).stream(StreamKind::Node, 0);
        assert!(mc.pick_via(id(1), |n| rng.random_range(0..n)).is_none());
        mc.observe(id(2), 1);
        for _ in 0..20 {
            assert_eq!(
                mc.pick_via(id(1), |n| rng.random_range(0..n)).unwrap().node,
                id(2)
            );
        }
    }

    #[test]
    fn pick_random_covers_all_entries() {
        let mut mc = MemberCache::new(8);
        for n in 1..=5 {
            mc.observe(id(n), 1);
        }
        let mut rng = SeedSplitter::new(2).stream(StreamKind::Node, 0);
        let mut seen = ag_sim::hash::DetHashSet::default();
        for _ in 0..200 {
            seen.insert(
                mc.pick_via(id(99), |n| rng.random_range(0..n))
                    .unwrap()
                    .node,
            );
        }
        assert_eq!(
            seen.len(),
            5,
            "all cached members should be picked eventually"
        );
    }

    #[test]
    fn record_gossip_updates_timestamp() {
        let mut mc = MemberCache::new(2);
        mc.observe(id(1), 1);
        mc.record_gossip(id(1), t(0) + SimDuration::from_secs(3));
        assert_eq!(mc.entries()[0].last_gossip, t(3));
        // Unknown member: no-op.
        mc.record_gossip(id(9), t(4));
        assert_eq!(mc.len(), 1);
    }
}
