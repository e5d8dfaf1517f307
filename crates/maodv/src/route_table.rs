//! The unicast AODV Route Table (paper §3) and HELLO-based neighbour
//! liveness, kept as one record per peer.
//!
//! A route entry records the next hop toward a destination, the
//! freshest destination sequence number seen, the hop count, and a
//! lifetime that is refreshed every time the route is used or
//! re-learned. The liveness stamp records when any frame from a
//! neighbour was last heard; a neighbour silent for
//! `allowed_hello_loss × hello_interval` (2.4 s with the paper's
//! settings) is swept as gone and the caller tears down whatever ran
//! through it.
//!
//! Every frame heard from a neighbour also teaches a one-hop route to
//! it, so the neighbours are nearly a subset of the destinations, and
//! both facts live in the same record: a reception stamps the sender and
//! refreshes its route through one hash probe
//! ([`RouteTable::heard_from`]). Each removal clears only its own half —
//! [`RouteTable::invalidate`] and [`RouteTable::invalidate_via`] the
//! route, [`RouteTable::forget`] and [`RouteTable::sweep_dead`] the
//! stamp — and a record goes once both halves are empty, so every
//! answer is the one two separate tables gave.

use std::hash::{Hash, Hasher};

use ag_sim::hash::DetHashMap as HashMap;

use ag_net::NodeId;
use ag_sim::{SimDuration, SimTime};

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

/// What a node knows about one peer: the route to it, meaningful iff
/// `routed`, and when it was last heard, meaningful iff `heard`.
///
/// Packed to 4-byte alignment, fields in the order written, so the
/// record is 28 bytes and a bucket with its key is 32 (40 at 8-byte
/// alignment, whose padding every node paid once per peer it knows).
/// A packed field cannot be borrowed, so the two `SimTime` stamps are
/// read by value: copied into a block (`{ self.expires }`) before a
/// comparison operator.
#[derive(Debug, Clone, Copy)]
#[repr(C, packed(4))]
struct Peer {
    expires: SimTime,
    heard_at: SimTime,
    next_hop: NodeId,
    seq: u32,
    hops: u8,
    routed: bool,
    heard: bool,
}

impl Peer {
    const EMPTY: Peer = Peer {
        expires: SimTime::ZERO,
        heard_at: SimTime::ZERO,
        next_hop: NodeId::new(0),
        seq: 0,
        hops: 0,
        routed: false,
        heard: false,
    };

    fn route(&self) -> Option<RouteEntry> {
        self.routed.then_some(RouteEntry {
            next_hop: self.next_hop,
            seq: self.seq,
            hops: self.hops,
            expires: self.expires,
        })
    }

    fn last_heard(&self) -> Option<SimTime> {
        self.heard.then_some(self.heard_at)
    }

    fn is_empty(&self) -> bool {
        !self.routed && !self.heard
    }

    fn set_route(&mut self, next_hop: NodeId, seq: u32, hops: u8, expires: SimTime) {
        *self = Peer {
            expires,
            next_hop,
            seq,
            hops,
            routed: true,
            ..*self
        };
    }

    /// The route half of every `update*` (see
    /// [`RouteTable::update_allow_stale`] for the rule): `seq` of `None`
    /// keeps the known sequence number.
    #[inline]
    fn upsert(
        &mut self,
        next_hop: NodeId,
        seq: Option<u32>,
        hops: u8,
        expires: SimTime,
        now: SimTime,
    ) -> bool {
        if !self.routed {
            self.set_route(next_hop, seq.unwrap_or(0), hops, expires);
            return true;
        }
        let seq = seq.unwrap_or(self.seq);
        if { self.expires } <= now {
            self.set_route(next_hop, seq, hops, expires);
            return true;
        }
        let fresher = seq > self.seq || (seq == self.seq && hops < self.hops);
        if fresher {
            self.set_route(next_hop, seq, hops, expires);
        } else if seq == self.seq && next_hop == self.next_hop {
            // Same route re-confirmed: refresh lifetime.
            self.expires = self.expires.max(expires);
        }
        fresher
    }
}

/// Hashes the live halves only, so equal knowledge is one state
/// whatever a cleared half left behind.
impl Hash for Peer {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let Peer {
            expires,
            heard_at,
            next_hop,
            seq,
            hops,
            routed,
            heard,
        } = *self;
        routed.then_some((next_hop, seq, hops, expires)).hash(state);
        heard.then_some(heard_at).hash(state);
    }
}

/// The route table and the neighbour liveness stamps: peer → record.
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
/// let expires = now + SimDuration::from_secs(3);
/// rt.update_allow_stale(NodeId::new(5), NodeId::new(2), 10, 3, expires, now);
/// assert_eq!(rt.lookup(NodeId::new(5), now).unwrap().next_hop, NodeId::new(2));
/// assert!(rt.lookup(NodeId::new(5), now + SimDuration::from_secs(4)).is_none());
///
/// // A frame from neighbour 2 stamps it and teaches the one-hop route.
/// rt.heard_from(NodeId::new(2), now, now + SimDuration::from_secs(3));
/// assert_eq!(rt.lookup(NodeId::new(2), now).unwrap().hops, 1);
/// let timeout = SimDuration::from_millis(2400);
/// assert!(rt.sweep_dead(now + SimDuration::from_secs(2), timeout).is_empty());
/// assert_eq!(rt.sweep_dead(now + SimDuration::from_secs(3), timeout), [NodeId::new(2)]);
/// assert_eq!(rt.last_heard(NodeId::new(2)), None);
/// ```
#[derive(Debug, Clone)]
pub struct RouteTable {
    peers: HashMap<NodeId, Peer>,
    /// A lower bound on every liveness stamp in `peers` (`MAX` when
    /// there is none): lowered by each stamp, recomputed only by a
    /// sweep that looks. A cache, so `Hash` leaves it out.
    oldest: SimTime,
}

impl Default for RouteTable {
    fn default() -> Self {
        RouteTable {
            peers: HashMap::default(),
            oldest: SimTime::MAX,
        }
    }
}

impl Hash for RouteTable {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let RouteTable { peers, oldest: _ } = self;
        peers.hash(state);
    }
}

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the live route to `dest`, if any.
    pub fn lookup(&self, dest: NodeId, now: SimTime) -> Option<RouteEntry> {
        self.peers
            .get(&dest)
            .and_then(Peer::route)
            .filter(|e| e.expires > now)
    }

    /// Installs or refreshes a route following the AODV freshness rule:
    /// accept if the new sequence number is strictly fresher, or equally
    /// fresh with a shorter hop count, or the existing entry has expired
    /// by `now`.
    ///
    /// Returns `true` if the table changed.
    pub fn update_allow_stale(
        &mut self,
        dest: NodeId,
        next_hop: NodeId,
        seq: u32,
        hops: u8,
        expires: SimTime,
        now: SimTime,
    ) -> bool {
        self.peer_mut(dest)
            .upsert(next_hop, Some(seq), hops, expires, now)
    }

    /// [`RouteTable::update_allow_stale`] for a route learned from a
    /// frame that says nothing about `dest`'s sequence number (data and
    /// routed frames teach the way back to their source): the known
    /// sequence number is kept, or starts at 0 — read by the probe that
    /// updates the entry, not by one of its own.
    pub fn update_keeping_seq(
        &mut self,
        dest: NodeId,
        next_hop: NodeId,
        hops: u8,
        expires: SimTime,
        now: SimTime,
    ) -> bool {
        self.peer_mut(dest)
            .upsert(next_hop, None, hops, expires, now)
    }

    /// A frame from neighbour `who` was heard at `now`: stamps it alive
    /// and installs or refreshes the one-hop route to it that any frame
    /// teaches (`update_keeping_seq(who, who, 1, expires, now)`), through
    /// one probe. Returns what that route update returns.
    pub fn heard_from(&mut self, who: NodeId, now: SimTime, expires: SimTime) -> bool {
        self.oldest = self.oldest.min(now);
        let p = self.peer_mut(who);
        p.heard = true;
        p.heard_at = now;
        p.upsert(who, None, 1, expires, now)
    }

    /// The record of `who`, created empty if there is none; every caller
    /// fills a half at once. One probe (growth only when a record is
    /// added).
    #[inline]
    fn peer_mut(&mut self, who: NodeId) -> &mut Peer {
        self.peers.entry(who).or_insert(Peer::EMPTY)
    }

    /// Extends the lifetime of the route to `dest` (route-in-use rule).
    pub fn refresh(&mut self, dest: NodeId, until: SimTime) {
        if let Some(p) = self.peers.get_mut(&dest).filter(|p| p.routed) {
            p.expires = p.expires.max(until);
        }
    }

    /// Drops the route to `dest` (e.g. after a send failure through it).
    pub fn invalidate(&mut self, dest: NodeId) {
        self.clear(dest, |p| p.routed = false);
    }

    /// Forgets when `who` was last heard (its link just failed).
    pub fn forget(&mut self, who: NodeId) {
        self.clear(who, |p| p.heard = false);
    }

    /// Clears one half of `who`'s record, and the record once both are.
    fn clear(&mut self, who: NodeId, half: impl FnOnce(&mut Peer)) {
        if let Some(p) = self.peers.get_mut(&who) {
            half(p);
            if p.is_empty() {
                self.peers.remove(&who);
            }
        }
    }

    /// Drops every route whose next hop is `via` (broken-link sweep).
    pub fn invalidate_via(&mut self, via: NodeId) {
        self.peers.retain(|_, p| {
            if p.next_hop == via {
                p.routed = false;
            }
            !p.is_empty()
        });
    }

    /// Forgets and returns every neighbour silent for `timeout` or
    /// longer by `now`, in id order (deterministic regardless of
    /// hash-map seeding). Returns at once, without looking at a record,
    /// until the oldest stamp can have timed out; only a sweep that
    /// looks recomputes that bound.
    pub fn sweep_dead(&mut self, now: SimTime, timeout: SimDuration) -> Vec<NodeId> {
        if now.duration_since(self.oldest.min(now)) < timeout {
            return Vec::new();
        }
        let (mut dead, mut oldest) = (Vec::new(), SimTime::MAX);
        self.peers.retain(|&who, p| {
            if p.heard {
                if now.duration_since(p.heard_at) >= timeout {
                    p.heard = false;
                    dead.push(who);
                } else {
                    oldest = oldest.min(p.heard_at);
                }
            }
            !p.is_empty()
        });
        self.oldest = oldest;
        dead.sort_unstable();
        dead
    }

    /// When any frame from `who` was last heard, if it has not been
    /// forgotten or swept since.
    pub fn last_heard(&self, who: NodeId) -> Option<SimTime> {
        self.peers.get(&who).and_then(Peer::last_heard)
    }

    /// Number of peers with a route (live or expired; expired routes
    /// are lazily ignored by [`RouteTable::lookup`]) or a liveness stamp.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// `true` if the table knows nothing about any peer.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// The freshest sequence number known for `dest`, expired or not.
    pub fn known_seq(&self, dest: NodeId) -> Option<u32> {
        self.peers.get(&dest).filter(|p| p.routed).map(|p| p.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_sim::hash::state_key;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn lookup_respects_expiry() {
        let mut rt = RouteTable::new();
        rt.update_allow_stale(NodeId::new(1), NodeId::new(2), 1, 1, t(3), t(0));
        assert!(rt.lookup(NodeId::new(1), t(2)).is_some());
        assert!(rt.lookup(NodeId::new(1), t(3)).is_none());
        assert!(rt.lookup(NodeId::new(9), t(0)).is_none());
    }

    #[test]
    fn fresher_seq_wins() {
        let mut rt = RouteTable::new();
        rt.update_allow_stale(NodeId::new(1), NodeId::new(2), 5, 3, t(3), t(0));
        // Older seq rejected.
        assert!(!rt.update_allow_stale(NodeId::new(1), NodeId::new(7), 4, 1, t(3), t(0)));
        assert_eq!(
            rt.lookup(NodeId::new(1), t(0)).unwrap().next_hop,
            NodeId::new(2)
        );
        // Fresher seq accepted.
        assert!(rt.update_allow_stale(NodeId::new(1), NodeId::new(7), 6, 4, t(4), t(0)));
        assert_eq!(
            rt.lookup(NodeId::new(1), t(0)).unwrap().next_hop,
            NodeId::new(7)
        );
    }

    #[test]
    fn equal_seq_shorter_hops_wins() {
        let mut rt = RouteTable::new();
        rt.update_allow_stale(NodeId::new(1), NodeId::new(2), 5, 3, t(3), t(0));
        assert!(rt.update_allow_stale(NodeId::new(1), NodeId::new(3), 5, 2, t(3), t(0)));
        assert_eq!(rt.lookup(NodeId::new(1), t(0)).unwrap().hops, 2);
        assert!(!rt.update_allow_stale(NodeId::new(1), NodeId::new(4), 5, 2, t(3), t(0)));
    }

    #[test]
    fn reconfirmation_refreshes_lifetime() {
        let mut rt = RouteTable::new();
        rt.update_allow_stale(NodeId::new(1), NodeId::new(2), 5, 3, t(3), t(0));
        rt.update_allow_stale(NodeId::new(1), NodeId::new(2), 5, 3, t(9), t(0));
        assert!(rt.lookup(NodeId::new(1), t(8)).is_some());
    }

    #[test]
    fn update_allow_stale_replaces_expired() {
        let mut rt = RouteTable::new();
        rt.update_allow_stale(NodeId::new(1), NodeId::new(2), 9, 3, t(3), t(0));
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
        rt.update_allow_stale(NodeId::new(1), NodeId::new(2), 1, 1, t(3), t(0));
        rt.refresh(NodeId::new(1), t(10));
        assert!(rt.lookup(NodeId::new(1), t(9)).is_some());
        // Refreshing a missing route is a no-op.
        rt.refresh(NodeId::new(9), t(10));
        assert!(rt.lookup(NodeId::new(9), t(0)).is_none());
    }

    #[test]
    fn invalidate_via_sweeps_all_dependents() {
        let mut rt = RouteTable::new();
        rt.update_allow_stale(NodeId::new(1), NodeId::new(2), 1, 1, t(30), t(0));
        rt.update_allow_stale(NodeId::new(3), NodeId::new(2), 1, 2, t(30), t(0));
        rt.update_allow_stale(NodeId::new(4), NodeId::new(5), 1, 2, t(30), t(0));
        rt.invalidate_via(NodeId::new(2));
        assert!(rt.lookup(NodeId::new(1), t(0)).is_none());
        assert!(rt.lookup(NodeId::new(3), t(0)).is_none());
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
                    // Time zero is before every expiry: freshness alone.
                    one.update_allow_stale(dest, via, seq, hops, expires, SimTime::ZERO);
                    two.update_allow_stale(dest, via, seq, hops, expires, SimTime::ZERO);
                }
                proptest::prop_assert_eq!(format!("{one:?}"), format!("{two:?}"));
            }
        }
    }

    #[test]
    fn known_seq_survives_expiry() {
        let mut rt = RouteTable::new();
        rt.update_allow_stale(NodeId::new(1), NodeId::new(2), 42, 1, t(3), t(0));
        assert_eq!(rt.known_seq(NodeId::new(1)), Some(42));
        assert_eq!(rt.known_seq(NodeId::new(2)), None);
    }

    /// Every node holds one bucket per peer it knows; a new field here
    /// costs every one of them.
    #[test]
    fn peer_record_fits_a_32_byte_bucket() {
        assert!(std::mem::size_of::<Peer>() <= 28);
        assert!(std::mem::size_of::<(NodeId, Peer)>() <= 32);
    }

    #[test]
    fn a_record_goes_when_both_halves_are_cleared() {
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        let mut rt = RouteTable::new();
        rt.heard_from(a, t(0), t(3));
        rt.update_allow_stale(b, a, 7, 2, t(3), t(0));
        // `a`'s route is gone, but `a` itself is still heard.
        rt.invalidate_via(a);
        assert!(rt.lookup(a, t(0)).is_none() && rt.lookup(b, t(0)).is_none());
        assert_eq!(rt.last_heard(a), Some(t(0)));
        assert_eq!(rt.known_seq(a), None);
        assert_eq!(rt.len(), 1);
        rt.forget(a);
        assert!(rt.is_empty());
        // The other order: a stamp swept, the route kept until dropped.
        rt.heard_from(a, t(1), t(9));
        assert_eq!(rt.sweep_dead(t(5), SimDuration::from_secs(4)), [a]);
        assert_eq!(rt.lookup(a, t(5)).unwrap().next_hop, a);
        rt.invalidate(a);
        assert!(rt.is_empty());
    }

    /// The sweep's bound is a cache: two tables that know the same but
    /// swept differently (so their bounds differ) are one state.
    #[test]
    fn sweep_bound_stays_out_of_state_identity() {
        let timeout = SimDuration::from_secs(2);
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        let mut swept = RouteTable::new();
        swept.heard_from(a, t(0), t(9));
        swept.heard_from(b, t(3), t(9));
        assert_eq!(swept.sweep_dead(t(4), timeout), [a]);
        let mut fresh = RouteTable::new();
        fresh.heard_from(a, t(0), t(9));
        fresh.forget(a);
        fresh.heard_from(b, t(3), t(9));
        assert_ne!(swept.oldest, fresh.oldest);
        assert_eq!(state_key(&swept), state_key(&fresh));
    }

    /// A sweep that finds nothing to expire returns before looking, and
    /// one that looks leaves the bound at the oldest stamp it kept.
    #[test]
    fn sweep_skips_until_the_oldest_stamp_can_have_timed_out() {
        let timeout = SimDuration::from_secs(2);
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        let mut rt = RouteTable::new();
        assert_eq!(rt.oldest, SimTime::MAX);
        assert!(rt.sweep_dead(t(5), timeout).is_empty());
        rt.heard_from(a, t(1), t(9));
        rt.heard_from(b, t(2), t(9));
        assert_eq!(rt.oldest, t(1));
        assert!(rt.sweep_dead(t(2), timeout).is_empty());
        rt.heard_from(a, t(3), t(9));
        // Still t(1): a stamp only ever lowers the bound.
        assert_eq!(rt.oldest, t(1));
        // Looks, finds nothing dead, and tightens the bound to b's t(2).
        assert!(rt.sweep_dead(t(3), timeout).is_empty());
        assert_eq!(rt.oldest, t(2));
        assert_eq!(rt.sweep_dead(t(4), timeout), [b]);
        assert_eq!(rt.oldest, t(3));
        assert_eq!(rt.sweep_dead(t(5), timeout), [a]);
        assert_eq!(rt.oldest, SimTime::MAX);
    }

    /// The two tables the merged one replaced, kept verbatim (minus what
    /// nothing called) as the reference model for
    /// `prop_matches_the_two_tables_it_replaced`.
    mod reference {
        use ag_net::NodeId;
        use ag_sim::hash::DetHashMap as HashMap;
        use ag_sim::{SimDuration, SimTime};

        use super::RouteEntry;

        #[derive(Debug, Clone)]
        pub struct NeighborTable {
            last_heard: HashMap<NodeId, SimTime>,
            timeout: SimDuration,
        }

        impl NeighborTable {
            pub fn new(timeout: SimDuration) -> Self {
                NeighborTable {
                    last_heard: HashMap::default(),
                    timeout,
                }
            }

            pub fn heard(&mut self, who: NodeId, now: SimTime) {
                self.last_heard.insert(who, now);
            }

            pub fn last_heard(&self, who: NodeId) -> Option<SimTime> {
                self.last_heard.get(&who).copied()
            }

            pub fn sweep_dead(&mut self, now: SimTime) -> Vec<NodeId> {
                let timeout = self.timeout;
                let mut dead: Vec<NodeId> = self
                    .last_heard
                    .iter()
                    .filter(|(_, &t)| now.duration_since(t) >= timeout)
                    .map(|(n, _)| *n)
                    .collect();
                dead.sort_unstable();
                for n in &dead {
                    self.last_heard.remove(n);
                }
                dead
            }

            pub fn forget(&mut self, who: NodeId) {
                self.last_heard.remove(&who);
            }
        }

        #[derive(Debug, Clone, Default)]
        pub struct RouteTable {
            routes: HashMap<NodeId, RouteEntry>,
        }

        impl RouteTable {
            pub fn lookup(&self, dest: NodeId, now: SimTime) -> Option<&RouteEntry> {
                self.routes.get(&dest).filter(|e| e.expires > now)
            }

            pub fn upsert(
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

            pub fn refresh(&mut self, dest: NodeId, until: SimTime) {
                if let Some(e) = self.routes.get_mut(&dest) {
                    e.expires = e.expires.max(until);
                }
            }

            pub fn invalidate(&mut self, dest: NodeId) {
                self.routes.remove(&dest);
            }

            pub fn invalidate_via(&mut self, via: NodeId) {
                self.routes.retain(|_, e| e.next_hop != via);
            }

            pub fn known_seq(&self, dest: NodeId) -> Option<u32> {
                self.routes.get(&dest).map(|e| e.seq)
            }
        }
    }

    proptest::proptest! {
        /// The merged table against the two it replaced, over random
        /// histories of every operation MAODV performs — receptions,
        /// each `update*`, refreshes, invalidations, the tick's
        /// sweep-then-`invalidate_via` and the send-failure sequence —
        /// with time advancing in steps that cross the timeout: equal
        /// return values, and equal `lookup` / `known_seq` /
        /// `last_heard` for every key after every step.
        #[test]
        fn prop_matches_the_two_tables_it_replaced(
            ops in proptest::collection::vec(((0u8..9, 0u32..6, 0u32..6), (0u32..4, 1u8..5, 0u64..1500, 0u64..4000)), 0..80),
        ) {
            let timeout = SimDuration::from_millis(2400);
            let mut merged = RouteTable::new();
            let mut nt = reference::NeighborTable::new(timeout);
            let mut rt = reference::RouteTable::default();
            let mut now = SimTime::ZERO;
            for ((op, a, b), (seq, hops, step_ms, life_ms)) in ops {
                now += SimDuration::from_millis(step_ms);
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                let expires = now + SimDuration::from_millis(life_ms);
                match op {
                    0 => {
                        nt.heard(a, now);
                        let want = rt.upsert(a, a, None, 1, expires, Some(now));
                        proptest::prop_assert_eq!(merged.heard_from(a, now, expires), want);
                    }
                    1 => proptest::prop_assert_eq!(
                        merged.update_allow_stale(a, b, seq, hops, expires, SimTime::ZERO),
                        rt.upsert(a, b, Some(seq), hops, expires, Some(SimTime::ZERO))
                    ),
                    2 => proptest::prop_assert_eq!(
                        merged.update_allow_stale(a, b, seq, hops, expires, now),
                        rt.upsert(a, b, Some(seq), hops, expires, Some(now))
                    ),
                    3 => proptest::prop_assert_eq!(
                        merged.update_keeping_seq(a, b, hops, expires, now),
                        rt.upsert(a, b, None, hops, expires, Some(now))
                    ),
                    4 => {
                        merged.refresh(a, expires);
                        rt.refresh(a, expires);
                    }
                    5 => {
                        merged.invalidate(a);
                        rt.invalidate(a);
                    }
                    6 => {
                        merged.invalidate_via(a);
                        rt.invalidate_via(a);
                    }
                    7 => {
                        // The tick: sweep, then drop what ran through the dead.
                        let dead = merged.sweep_dead(now, timeout);
                        proptest::prop_assert_eq!(&dead, &nt.sweep_dead(now));
                        for d in dead {
                            merged.invalidate_via(d);
                            rt.invalidate_via(d);
                        }
                    }
                    _ => {
                        // A send failure to `a`.
                        merged.forget(a);
                        nt.forget(a);
                        merged.invalidate_via(a);
                        rt.invalidate_via(a);
                        merged.invalidate(a);
                        rt.invalidate(a);
                    }
                }
                for k in (0..6).map(NodeId::new) {
                    proptest::prop_assert_eq!(merged.lookup(k, now), rt.lookup(k, now).copied());
                    proptest::prop_assert_eq!(merged.known_seq(k), rt.known_seq(k));
                    proptest::prop_assert_eq!(merged.last_heard(k), nt.last_heard(k));
                }
            }
        }
    }
}
