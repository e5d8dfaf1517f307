//! The unicast AODV Route Table (paper §3).
//!
//! Each entry records the next hop toward a destination, the freshest
//! destination sequence number seen, the hop count, and a lifetime that
//! is refreshed every time the route is used or re-learned.

use ag_sim::hash::DetHashMap as HashMap;

use ag_net::NodeId;
use ag_sim::SimTime;

/// One route table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Next hop toward the destination.
    pub next_hop: NodeId,
    /// Freshest known destination sequence number.
    pub seq: u32,
    /// Hop count to the destination.
    pub hops: u8,
    /// Entry expires (becomes invalid) at this instant.
    pub expires: SimTime,
}

/// The route table: destination → entry.
///
/// # Example
///
/// ```
/// use ag_maodv::route_table::RouteTable;
/// use ag_net::NodeId;
/// use ag_sim::{SimTime, SimDuration};
///
/// let mut rt = RouteTable::new();
/// let now = SimTime::ZERO;
/// rt.update(NodeId::new(5), NodeId::new(2), 10, 3, now + SimDuration::from_secs(3));
/// assert_eq!(rt.lookup(NodeId::new(5), now).unwrap().next_hop, NodeId::new(2));
/// assert!(rt.lookup(NodeId::new(5), now + SimDuration::from_secs(4)).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    routes: HashMap<NodeId, RouteEntry>,
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the live route to `dest`, if any.
    pub fn lookup(&self, dest: NodeId, now: SimTime) -> Option<&RouteEntry> {
        self.routes.get(&dest).filter(|e| e.expires > now)
    }

    /// Installs or refreshes a route following the AODV freshness rule:
    /// accept if the new sequence number is strictly fresher, or equally
    /// fresh with a shorter hop count, or the existing entry has expired.
    ///
    /// Returns `true` if the table changed.
    pub fn update(
        &mut self,
        dest: NodeId,
        next_hop: NodeId,
        seq: u32,
        hops: u8,
        expires: SimTime,
    ) -> bool {
        self.upsert(dest, next_hop, Some(seq), hops, expires, None)
    }

    /// Installs or refreshes a route, overriding the freshness rule when
    /// the existing entry has already expired.
    pub fn update_allow_stale(
        &mut self,
        dest: NodeId,
        next_hop: NodeId,
        seq: u32,
        hops: u8,
        expires: SimTime,
        now: SimTime,
    ) -> bool {
        self.upsert(dest, next_hop, Some(seq), hops, expires, Some(now))
    }

    /// [`RouteTable::update_allow_stale`] for a route learned from a
    /// frame that says nothing about `dest`'s sequence number (any
    /// frame teaches a 1-hop route to its sender; data and routed
    /// frames teach the way back to their source): the known sequence
    /// number is kept, or starts at 0 — read by the probe that updates
    /// the entry, not by one of its own.
    pub fn update_keeping_seq(
        &mut self,
        dest: NodeId,
        next_hop: NodeId,
        hops: u8,
        expires: SimTime,
        now: SimTime,
    ) -> bool {
        self.upsert(dest, next_hop, None, hops, expires, Some(now))
    }

    /// The body of every `update*`: `seq` of `None` keeps the known
    /// sequence number, `stale_at` of `Some(now)` lets an entry expired
    /// by `now` be replaced regardless of freshness. A live entry — the
    /// per-reception case — is judged and updated through one probe;
    /// only installing over nothing or over an expired entry takes a
    /// second (`insert`, so the table grows exactly when it always did).
    #[inline]
    fn upsert(
        &mut self,
        dest: NodeId,
        next_hop: NodeId,
        seq: Option<u32>,
        hops: u8,
        expires: SimTime,
        stale_at: Option<SimTime>,
    ) -> bool {
        let seq = match self.routes.get_mut(&dest) {
            None => seq.unwrap_or(0),
            Some(e) => {
                let seq = seq.unwrap_or(e.seq);
                if stale_at.is_none_or(|now| e.expires > now) {
                    let fresher = seq > e.seq || (seq == e.seq && hops < e.hops);
                    if fresher {
                        *e = RouteEntry {
                            next_hop,
                            seq,
                            hops,
                            expires,
                        };
                    } else if seq == e.seq && next_hop == e.next_hop {
                        // Same route re-confirmed: refresh lifetime.
                        e.expires = e.expires.max(expires);
                    }
                    return fresher;
                }
                seq
            }
        };
        self.routes.insert(
            dest,
            RouteEntry {
                next_hop,
                seq,
                hops,
                expires,
            },
        );
        true
    }

    /// Extends the lifetime of the route to `dest` (route-in-use rule).
    pub fn refresh(&mut self, dest: NodeId, until: SimTime) {
        if let Some(e) = self.routes.get_mut(&dest) {
            e.expires = e.expires.max(until);
        }
    }

    /// Drops the route to `dest` (e.g. after a send failure through it).
    pub fn invalidate(&mut self, dest: NodeId) {
        self.routes.remove(&dest);
    }

    /// Drops every route whose next hop is `via` (broken-link sweep).
    /// Returns the affected destinations in id order.
    pub fn invalidate_via(&mut self, via: NodeId) -> Vec<NodeId> {
        let mut dead: Vec<NodeId> = self
            .routes
            .iter()
            .filter(|(_, e)| e.next_hop == via)
            .map(|(d, _)| *d)
            .collect();
        dead.sort_unstable();
        for d in &dead {
            self.routes.remove(d);
        }
        dead
    }

    /// Number of entries (live or expired; expired entries are lazily
    /// ignored by [`RouteTable::lookup`]).
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// `true` if the table has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// The freshest sequence number known for `dest`, expired or not.
    pub fn known_seq(&self, dest: NodeId) -> Option<u32> {
        self.routes.get(&dest).map(|e| e.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn lookup_respects_expiry() {
        let mut rt = RouteTable::new();
        rt.update(NodeId::new(1), NodeId::new(2), 1, 1, t(3));
        assert!(rt.lookup(NodeId::new(1), t(2)).is_some());
        assert!(rt.lookup(NodeId::new(1), t(3)).is_none());
        assert!(rt.lookup(NodeId::new(9), t(0)).is_none());
    }

    #[test]
    fn fresher_seq_wins() {
        let mut rt = RouteTable::new();
        rt.update(NodeId::new(1), NodeId::new(2), 5, 3, t(3));
        // Older seq rejected.
        assert!(!rt.update(NodeId::new(1), NodeId::new(7), 4, 1, t(3)));
        assert_eq!(
            rt.lookup(NodeId::new(1), t(0)).unwrap().next_hop,
            NodeId::new(2)
        );
        // Fresher seq accepted.
        assert!(rt.update(NodeId::new(1), NodeId::new(7), 6, 4, t(4)));
        assert_eq!(
            rt.lookup(NodeId::new(1), t(0)).unwrap().next_hop,
            NodeId::new(7)
        );
    }

    #[test]
    fn equal_seq_shorter_hops_wins() {
        let mut rt = RouteTable::new();
        rt.update(NodeId::new(1), NodeId::new(2), 5, 3, t(3));
        assert!(rt.update(NodeId::new(1), NodeId::new(3), 5, 2, t(3)));
        assert_eq!(rt.lookup(NodeId::new(1), t(0)).unwrap().hops, 2);
        assert!(!rt.update(NodeId::new(1), NodeId::new(4), 5, 2, t(3)));
    }

    #[test]
    fn reconfirmation_refreshes_lifetime() {
        let mut rt = RouteTable::new();
        rt.update(NodeId::new(1), NodeId::new(2), 5, 3, t(3));
        rt.update(NodeId::new(1), NodeId::new(2), 5, 3, t(9));
        assert!(rt.lookup(NodeId::new(1), t(8)).is_some());
    }

    #[test]
    fn update_allow_stale_replaces_expired() {
        let mut rt = RouteTable::new();
        rt.update(NodeId::new(1), NodeId::new(2), 9, 3, t(3));
        // At t=5 entry is expired; an older-seq update must be allowed in.
        assert!(rt.update_allow_stale(NodeId::new(1), NodeId::new(4), 2, 1, t(8), t(5)));
        assert_eq!(
            rt.lookup(NodeId::new(1), t(5)).unwrap().next_hop,
            NodeId::new(4)
        );
    }

    #[test]
    fn refresh_extends() {
        let mut rt = RouteTable::new();
        rt.update(NodeId::new(1), NodeId::new(2), 1, 1, t(3));
        rt.refresh(NodeId::new(1), t(10));
        assert!(rt.lookup(NodeId::new(1), t(9)).is_some());
        // Refreshing a missing route is a no-op.
        rt.refresh(NodeId::new(9), t(10));
        assert!(rt.lookup(NodeId::new(9), t(0)).is_none());
    }

    #[test]
    fn invalidate_via_sweeps_all_dependents() {
        let mut rt = RouteTable::new();
        rt.update(NodeId::new(1), NodeId::new(2), 1, 1, t(30));
        rt.update(NodeId::new(3), NodeId::new(2), 1, 2, t(30));
        rt.update(NodeId::new(4), NodeId::new(5), 1, 2, t(30));
        let mut dead = rt.invalidate_via(NodeId::new(2));
        dead.sort();
        assert_eq!(dead, vec![NodeId::new(1), NodeId::new(3)]);
        assert!(rt.lookup(NodeId::new(1), t(0)).is_none());
        assert!(rt.lookup(NodeId::new(4), t(0)).is_some());
        assert_eq!(rt.len(), 1);
        assert!(!rt.is_empty());
    }

    proptest::proptest! {
        /// `update_keeping_seq` is `update_allow_stale` fed the known
        /// sequence number — the two-probe spelling it replaced — over
        /// any history of fresher updates, re-learned routes and expiry.
        #[test]
        fn keeping_seq_is_allow_stale_with_known_seq(
            ops in proptest::collection::vec(((0u32..4, 0u32..4, 0u32..3), (1u8..5, 1u64..6, 0u64..8)), 0..40),
        ) {
            let (mut one, mut two) = (RouteTable::new(), RouteTable::new());
            for ((dest, via, seq), (hops, life, now)) in ops {
                let (dest, via) = (NodeId::new(dest), NodeId::new(via));
                let (now, expires) = (t(now), t(now + life));
                if seq == 0 {
                    let known = two.known_seq(dest).unwrap_or(0);
                    proptest::prop_assert_eq!(
                        one.update_keeping_seq(dest, via, hops, expires, now),
                        two.update_allow_stale(dest, via, known, hops, expires, now)
                    );
                } else {
                    one.update(dest, via, seq, hops, expires);
                    two.update(dest, via, seq, hops, expires);
                }
                proptest::prop_assert_eq!(format!("{one:?}"), format!("{two:?}"));
            }
        }
    }

    #[test]
    fn known_seq_survives_expiry() {
        let mut rt = RouteTable::new();
        rt.update(NodeId::new(1), NodeId::new(2), 42, 1, t(3));
        assert_eq!(rt.known_seq(NodeId::new(1)), Some(42));
        assert_eq!(rt.known_seq(NodeId::new(2)), None);
    }
}
