//! The MAODV node state machine.
//!
//! [`Maodv`] is deliberately *not* an [`ag_net::Protocol`]: its reception
//! handler returns [`Upcall`]s so a wrapping layer (Anonymous Gossip in
//! `ag-core`, or the bare [`crate::MaodvProtocol`] baseline) can observe
//! deliveries, membership sightings and extension frames without
//! callback traits. Its timers surface nothing.
//!
//! The flow of a group join (paper §3):
//!
//! ```text
//! member S            routers                tree node T
//!   │  RREQ(join) ───────▶ rebroadcast ─────────▶ │
//!   │ ◀──────────── RREP (reverse path) ───────── │   (collect rrep_wait)
//!   │  MACT(join) ──▶ enable + cascade up ───────▶ │   (branch activated)
//! ```
//!
//! A failed join (no RREP after `rreq_retries`) makes the member the
//! group leader of its partition; GRPH floods merge partitions later.
//! Link breaks are repaired by the *downstream* node only, using the
//! hop-count-to-leader RREQ extension to rule out replies from its own
//! subtree (loop prevention).

use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::ops::{Deref, DerefMut};

use ag_sim::hash::DetHashMap as HashMap;

use ag_net::{Message, NodeId, ProtoCtx, TimerKey};
use ag_sim::{SimDuration, SimTime};

use crate::counters;
use crate::messages::{
    DataHeader, GrphPayload, MactKind, MactPayload, MaodvMsg, RoutedExt, RrepPayload, RreqPayload,
};
use crate::mrt::MulticastRouteTable;
use crate::route_table::RouteTable;
use crate::seen::{FloodRelay, SeenCache};
use crate::{GroupId, MaodvConfig};

/// Timer: periodic HELLO broadcast.
pub const TIMER_HELLO: TimerKey = 1;
/// Timer: housekeeping tick (timeouts, retries, liveness sweep).
pub const TIMER_TICK: TimerKey = 2;
/// Timer: leader's periodic group hello.
pub const TIMER_GRPH: TimerKey = 3;
/// Timer: a member's jittered initial join.
pub const TIMER_JOIN_START: TimerKey = 4;
/// Timer: the [`FloodRelay`] drain (RREQ/GRPH rebroadcasts).
pub const TIMER_RELAY: TimerKey = 5;
/// First timer key available to layers above MAODV.
pub const TIMER_USER_BASE: TimerKey = 64;

/// Events surfaced to the layer above MAODV.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum Upcall<X> {
    /// A multicast data packet was delivered to this (member) node along
    /// the tree. It also says its origin is a member `hops` away; no
    /// [`Upcall::MemberObserved`] repeats that.
    DataReceived {
        /// Originating member.
        origin: NodeId,
        /// Per-origin sequence number.
        seq: u32,
        /// Payload length (bytes).
        payload_len: u16,
        /// Tree hops it travelled.
        hops: u8,
    },
    /// A group member was observed `hops` away — the free membership
    /// information the AG member cache feeds on (§4.3).
    MemberObserved {
        /// The member.
        member: NodeId,
        /// Its observed distance in hops.
        hops: u8,
    },
    /// A one-hop extension frame arrived (gossip walk step).
    ExtNeighbor {
        /// The neighbour that sent it.
        from: NodeId,
        /// The payload.
        msg: X,
    },
    /// A routed extension frame arrived at its destination.
    ExtRouted {
        /// The original sender.
        src: NodeId,
        /// Hops it travelled.
        hops: u8,
        /// The payload.
        msg: X,
    },
}

/// An in-flight join or repair attempt at this node.
#[derive(Debug, Clone, Hash)]
struct JoinAttempt {
    rreq_id: u32,
    sent_at: SimTime,
    retries: u32,
    /// `Some(old_hops_to_leader)` when repairing a broken tree link.
    repair: Option<u8>,
    candidates: Vec<JoinCandidate>,
}

/// A branch a graft can take: the neighbour a join reply came from and
/// what the reply offered through it.
#[derive(Debug, Clone, Copy, Hash)]
struct JoinCandidate {
    via: NodeId,
    group_seq: u32,
    hops_to_tree: u8,
    leader_hops: u8,
}

/// An in-flight unicast route discovery with its packet buffer.
#[derive(Debug, Clone, Hash)]
struct Discovery<X> {
    sent_at: SimTime,
    retries: u32,
    buffer: Vec<X>,
}

/// Join and tree-forwarding bookkeeping: what a node needs only once it
/// joins or repairs, relays a join reply, discovers a route, or forwards
/// data or group hellos — most routers of a large run never do. Boxed on
/// first use ([`Maodv::cold_mut`]); never freed.
#[derive(Debug, Clone, Hash)]
struct Cold<X> {
    join: Option<JoinAttempt>,
    /// Join replies relayed toward their origin, per `(origin, rreq_id)`:
    /// the branch the MACT cascade grafts if it comes, and until when.
    pending_joins: HashMap<(NodeId, u32), (JoinCandidate, SimTime)>,
    discoveries: HashMap<NodeId, Discovery<X>>,
    data_seen: SeenCache<(NodeId, u32)>,
    grph_seen: SeenCache<(NodeId, u32)>,
    /// Best join-RREP already forwarded per (origin, rreq_id): suppresses
    /// worse duplicates of the reply flood.
    forwarded_rreps: HashMap<(NodeId, u32), (u32, u8)>,
    /// Newest `(leader, group_seq)` adopted from a tree-scoped GRPH;
    /// dedupes the downward relay.
    adopted_grph: Option<(NodeId, u32)>,
}

impl<X> Cold<X> {
    /// Empty bookkeeping; allocates nothing.
    fn new(cfg: &MaodvConfig) -> Self {
        Cold {
            join: None,
            pending_joins: HashMap::default(),
            discoveries: HashMap::default(),
            data_seen: SeenCache::new(cfg.data_seen_capacity),
            grph_seen: SeenCache::new(cfg.rreq_seen_capacity),
            forwarded_rreps: HashMap::default(),
            adopted_grph: None,
        }
    }

    /// Whether this holds no more than [`Cold::new`] does. Names every
    /// field, so a new one cannot be left out of state identity.
    fn is_empty(&self) -> bool {
        let Cold {
            join,
            pending_joins,
            discoveries,
            data_seen,
            grph_seen,
            forwarded_rreps,
            adopted_grph,
        } = self;
        join.is_none()
            && pending_joins.is_empty()
            && discoveries.is_empty()
            && data_seen.is_empty()
            && grph_seen.is_empty()
            && forwarded_rreps.is_empty()
            && adopted_grph.is_none()
    }
}

/// The [`Cold`] box, `None` until first needed.
#[derive(Debug, Clone)]
struct ColdBox<X>(Option<Box<Cold<X>>>);

/// Hashes an emptied box as an absent one, so a node that never needed
/// the box and one whose box emptied again are the same state.
impl<X: Hash> Hash for ColdBox<X> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ColdBox(cold) = self;
        cold.as_ref().filter(|c| !c.is_empty()).hash(state);
    }
}

impl<X> Deref for ColdBox<X> {
    type Target = Option<Box<Cold<X>>>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<X> DerefMut for ColdBox<X> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// The MAODV routing state of one node. See module docs.
#[derive(Debug, Clone, Hash)]
pub struct Maodv<X: Message> {
    cfg: MaodvConfig,
    id: NodeId,
    group: GroupId,
    is_member: bool,
    is_leader: bool,
    node_seq: u32,
    next_rreq_id: u32,
    data_seq: u32,
    /// Routes and neighbour liveness, one record per peer.
    rt: RouteTable,
    mrt: MulticastRouteTable,
    rreq_seen: SeenCache<(NodeId, u32)>,
    /// Set once the member's initial (jittered) join has fired; gates the
    /// tick's re-join self-healing so it cannot pre-empt the join jitter.
    join_started: bool,
    /// Last time a tree-scoped GRPH arrived from our upstream (or we led
    /// / grafted). `None` until first tree contact. Staleness means the
    /// path to the leader is gone even if the local tree edges look fine.
    last_tree_grph: Option<SimTime>,
    /// RREQ and GRPH copies awaiting their jittered rebroadcast
    /// ([`TIMER_RELAY`]).
    relay: FloodRelay<MaodvMsg<X>>,
    /// Seeded-bug canary (always `false` in production): when set, a
    /// node answers join RREQs even when its group sequence number is
    /// *stale* — exactly the reply the §3 loop-prevention guard exists
    /// to suppress. `ag-check` asserts its MRT loop-freedom property
    /// catches this mutation.
    canary_accept_stale_seq: bool,
    cold: ColdBox<X>,
}

/// Bound alias for contexts carrying MAODV frames: every
/// [`ProtoCtx<MaodvMsg<X>>`] qualifies via the blanket impl, so handler
/// signatures write one bound instead of repeating the message type.
pub trait MaodvCtx<X: Message>: ProtoCtx<MaodvMsg<X>> {}

impl<X: Message, C: ProtoCtx<MaodvMsg<X>>> MaodvCtx<X> for C {}

impl<X: Message> Maodv<X> {
    /// Creates the routing state for `id`. Members join the group after a
    /// random jitter once [`Maodv::start`] runs. Panics if `cfg` fails
    /// [`MaodvConfig::validate`].
    pub fn new(cfg: MaodvConfig, id: NodeId, group: GroupId, is_member: bool) -> Self {
        cfg.validate().expect("Maodv::new");
        Maodv {
            id,
            group,
            is_member,
            is_leader: false,
            node_seq: 0,
            next_rreq_id: 0,
            data_seq: 0,
            rt: RouteTable::new(),
            mrt: MulticastRouteTable::new(cfg.nearest_member_infinity),
            rreq_seen: SeenCache::new(cfg.rreq_seen_capacity),
            join_started: false,
            last_tree_grph: None,
            relay: FloodRelay::default(),
            canary_accept_stale_seq: false,
            cold: ColdBox(None),
            cfg,
        }
    }

    /// Arms the accept-stale-sequence-number seeded bug (model-checking
    /// canary only).
    #[cfg(any(test, feature = "bug-canary"))]
    pub fn canary_accept_stale_seq(&mut self) {
        self.canary_accept_stale_seq = true;
    }

    /// `true` if this node has recent proof of a live tree path to the
    /// group leader (it is the leader, or tree-scoped group hellos are
    /// arriving, or it grafted very recently).
    pub fn tree_connected(&self, now: SimTime) -> bool {
        if self.is_leader {
            return true;
        }
        match self.last_tree_grph {
            None => false,
            Some(t) => now.duration_since(t) < self.cfg.group_hello_interval * 5 / 2,
        }
    }

    // ───────────────────────── accessors ─────────────────────────

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The multicast group.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// Whether this node is a group member (application-level).
    pub fn is_member(&self) -> bool {
        self.is_member
    }

    /// Whether this node is currently the group leader.
    pub fn is_leader(&self) -> bool {
        self.is_leader
    }

    /// Whether this node is an active router of the multicast tree.
    pub fn on_tree(&self) -> bool {
        self.is_leader || self.mrt.enabled_count() > 0
    }

    /// The multicast route table (read access for the gossip layer's
    /// locality-weighted next-hop choice).
    pub fn mrt(&self) -> &MulticastRouteTable {
        &self.mrt
    }

    // ───────────────────────── lifecycle ─────────────────────────

    /// Schedules the initial timers. Call once from `Protocol::start`.
    pub fn start<C: MaodvCtx<X>>(&mut self, api: &mut C) {
        let hello_jitter = SimDuration::from_nanos(api.jitter(self.cfg.hello_interval.as_nanos()));
        api.set_timer(hello_jitter, TIMER_HELLO);
        let tick_jitter = SimDuration::from_nanos(api.jitter(self.cfg.tick_interval.as_nanos()));
        api.set_timer(self.cfg.tick_interval + tick_jitter, TIMER_TICK);
        api.set_timer(self.cfg.group_hello_interval, TIMER_GRPH);
        if self.is_member {
            let join_jitter =
                SimDuration::from_nanos(api.jitter(self.cfg.join_jitter.as_nanos().max(1)));
            api.set_timer(join_jitter, TIMER_JOIN_START);
        }
    }

    /// Handles one of MAODV's own timers. Returns `true` if the key was
    /// consumed (wrappers pass unknown keys to their own logic).
    pub fn on_timer<C: MaodvCtx<X>>(&mut self, api: &mut C, key: TimerKey) -> bool {
        match key {
            TIMER_HELLO => {
                api.broadcast(MaodvMsg::Hello);
                api.set_timer(self.cfg.hello_interval, TIMER_HELLO);
                true
            }
            TIMER_GRPH => {
                if self.is_leader {
                    self.mrt.group_seq += 1;
                    let (id, seq) = (self.id, self.mrt.group_seq);
                    let cold = self.cold_mut();
                    cold.grph_seen.insert((id, seq));
                    cold.adopted_grph = Some((id, seq));
                    let base = GrphPayload {
                        group: self.group,
                        leader: self.id,
                        group_seq: seq,
                        hop_count: 0,
                        ttl: self.cfg.flood_ttl,
                        tree: false,
                    };
                    // Network-wide flood (merge detection)…
                    api.broadcast(MaodvMsg::Grph(base));
                    // …and the tree-scoped copy (connectivity proof).
                    api.broadcast(MaodvMsg::Grph(GrphPayload { tree: true, ..base }));
                    api.bump(counters::GRPH_ORIGINATED);
                }
                let jitter = SimDuration::from_micros(api.jitter(500_000));
                api.set_timer(self.cfg.group_hello_interval + jitter, TIMER_GRPH);
                true
            }
            TIMER_TICK => {
                self.tick(api);
                api.set_timer(self.cfg.tick_interval, TIMER_TICK);
                true
            }
            TIMER_RELAY => {
                self.relay.drain(api);
                true
            }
            TIMER_JOIN_START => {
                self.join_started = true;
                if self.is_member && !self.on_tree() && !self.joining() {
                    self.start_join(api, None);
                }
                true
            }
            _ => false,
        }
    }

    // ag-lint: hot-path
    /// The read-only halves of the table probes [`Maodv::on_packet`]
    /// makes first for `msg` from `from` — the sender's peer record, and
    /// for a route request the reverse route and the flood id — so their
    /// cache lines are on the way before the handler needs them (see
    /// `Protocol::prefetch`). Changes nothing.
    pub fn prefetch(&self, from: NodeId, msg: &MaodvMsg<X>) {
        black_box(self.rt.last_heard(from));
        if let MaodvMsg::Rreq(r) = msg {
            black_box(self.rt.known_seq(r.origin));
            black_box(self.rreq_seen.contains(&(r.origin, r.rreq_id)));
        }
    }

    /// Handles a received frame. Returns what it surfaces to the layer
    /// above, if anything (at most one upcall per frame).
    pub fn on_packet<C: MaodvCtx<X>>(
        &mut self,
        api: &mut C,
        from: NodeId,
        msg: MaodvMsg<X>,
    ) -> Option<Upcall<X>> {
        let now = api.now();
        // The sender is alive, and any frame gives us a 1-hop route to it.
        self.rt
            .heard_from(from, now, now + self.cfg.active_route_timeout);
        match msg {
            MaodvMsg::Hello => {}
            MaodvMsg::Rreq(r) => self.handle_rreq(api, from, r),
            MaodvMsg::Rrep(p) => return self.handle_rrep(api, from, p),
            MaodvMsg::Mact(m) => self.handle_mact(api, from, m),
            MaodvMsg::Grph(g) => self.handle_grph(api, from, g),
            MaodvMsg::Data(d) => return self.handle_data(api, from, d),
            MaodvMsg::NmUpdate { group, value } => {
                if group == self.group && self.mrt.set_nearest_member(from, value) {
                    self.propagate_nearest_member(api);
                }
            }
            MaodvMsg::Ext(x) => return Some(Upcall::ExtNeighbor { from, msg: x }),
            MaodvMsg::Routed(r) => return self.handle_routed(api, from, r),
        }
        None
    }

    /// Handles a MAC-level unicast failure (retry limit exhausted): the
    /// primary link-break detector.
    pub fn on_send_failure<C: MaodvCtx<X>>(&mut self, api: &mut C, to: NodeId, msg: MaodvMsg<X>) {
        api.bump(counters::SEND_FAILURE);
        self.rt.forget(to);
        self.rt.invalidate_via(to);
        self.rt.invalidate(to);
        if let MaodvMsg::Routed(_) = msg {
            api.bump(counters::ROUTED_DROPPED);
        }
        let was_tree_edge = self.mrt.next_hop(to).is_some_and(|h| h.enabled);
        if was_tree_edge {
            self.handle_tree_break(api, to);
        }
    }

    // ───────────────────────── app-facing sends ─────────────────────────

    /// Multicasts one data packet to the group (phase one of the paper's
    /// protocol). Returns the per-origin sequence number used.
    pub fn send_data<C: MaodvCtx<X>>(&mut self, api: &mut C, payload_len: u16) -> u32 {
        self.data_seq += 1;
        let (id, seq) = (self.id, self.data_seq);
        self.cold_mut().data_seen.insert((id, seq));
        if self.on_tree() {
            api.broadcast(MaodvMsg::Data(DataHeader {
                group: self.group,
                origin: self.id,
                seq,
                payload_len,
                hops: 0,
            }));
            api.bump(counters::DATA_ORIGINATED);
        } else {
            api.bump(counters::DATA_SENT_DETACHED);
        }
        seq
    }

    /// Sends a one-hop extension frame to a direct neighbour (gossip walk
    /// step; §4.1's propagation along the tree is built from these).
    pub fn send_ext_neighbor<C: MaodvCtx<X>>(&mut self, api: &mut C, to: NodeId, payload: X) {
        api.send(to, MaodvMsg::Ext(payload));
    }

    /// Sends an extension payload to an arbitrary node via AODV unicast
    /// routing, running route discovery (and buffering) if needed.
    pub fn send_ext_routed<C: MaodvCtx<X>>(&mut self, api: &mut C, dest: NodeId, payload: X) {
        if dest == self.id {
            return;
        }
        let now = api.now();
        if let Some(route) = self.rt.lookup(dest, now) {
            let next = route.next_hop;
            self.rt.refresh(dest, now + self.cfg.active_route_timeout);
            api.send(
                next,
                MaodvMsg::Routed(RoutedExt {
                    src: self.id,
                    dest,
                    ttl: self.cfg.flood_ttl,
                    hops: 0,
                    payload,
                }),
            );
            return;
        }
        // No route: buffer and discover.
        let room = self.cfg.discovery_buffer;
        match self.cold_mut().discoveries.get_mut(&dest) {
            Some(d) => {
                if d.buffer.len() < room {
                    d.buffer.push(payload);
                } else {
                    api.bump(counters::DISCOVERY_BUFFER_DROP);
                }
            }
            None => {
                self.flood_unicast_rreq(api, dest);
                self.cold_mut().discoveries.insert(
                    dest,
                    Discovery {
                        sent_at: now,
                        retries: 0,
                        buffer: vec![payload],
                    },
                );
            }
        }
    }

    /// Installs a (reverse) route learned by an upper layer — the gossip
    /// walk records the path back to its initiator this way, which is why
    /// gossip replies need no fresh discovery (§4.1).
    pub fn note_route(&mut self, now: SimTime, dest: NodeId, via: NodeId, hops: u8) {
        if dest != self.id {
            self.learn_route(now, dest, via, hops);
        }
    }

    /// Installs or refreshes the route to `dest` through `via`, keeping
    /// whatever sequence number is already known for it.
    fn learn_route(&mut self, now: SimTime, dest: NodeId, via: NodeId, hops: u8) {
        let expires = now + self.cfg.active_route_timeout;
        self.rt.update_keeping_seq(dest, via, hops, expires, now);
    }

    // ───────────────────────── internals ─────────────────────────

    /// Whether a join or repair attempt is in flight.
    fn joining(&self) -> bool {
        self.cold.as_ref().is_some_and(|c| c.join.is_some())
    }

    /// The cold bookkeeping, boxed on first use.
    fn cold_mut(&mut self) -> &mut Cold<X> {
        self.cold
            .get_or_insert_with(|| Box::new(Cold::new(&self.cfg)))
    }

    fn start_join<C: MaodvCtx<X>>(&mut self, api: &mut C, repair: Option<u8>) {
        self.join_started = true;
        api.bump(if repair.is_some() {
            counters::REPAIR_RREQ
        } else {
            counters::JOIN_RREQ
        });
        let rreq_id = self.flood_join_rreq(api, repair);
        let sent_at = api.now();
        self.cold_mut().join = Some(JoinAttempt {
            rreq_id,
            sent_at,
            retries: 0,
            repair,
            candidates: Vec::new(),
        });
    }

    /// The id of a new route request of our own, under a new sequence
    /// number and already marked seen.
    fn fresh_rreq_id(&mut self) -> u32 {
        self.next_rreq_id += 1;
        self.node_seq += 1;
        self.rreq_seen.insert((self.id, self.next_rreq_id));
        self.next_rreq_id
    }

    /// Floods a new join (or, with `repair`, tree-repair) RREQ and
    /// returns its id.
    fn flood_join_rreq<C: MaodvCtx<X>>(&mut self, api: &mut C, repair: Option<u8>) -> u32 {
        let rreq_id = self.fresh_rreq_id();
        api.broadcast(MaodvMsg::Rreq(RreqPayload {
            origin: self.id,
            origin_seq: self.node_seq,
            rreq_id,
            dest: self.id,
            group: Some(self.group),
            known_seq: self.mrt.group_seq,
            hop_count: 0,
            ttl: self.cfg.flood_ttl,
            repair_hops: repair,
        }));
        rreq_id
    }

    /// Floods a new unicast route discovery for `dest`; the RREP that
    /// answers it is matched on `dest`, not on the request's id.
    fn flood_unicast_rreq<C: MaodvCtx<X>>(&mut self, api: &mut C, dest: NodeId) {
        let rreq_id = self.fresh_rreq_id();
        api.bump(counters::UNICAST_RREQ);
        api.broadcast(MaodvMsg::Rreq(RreqPayload {
            origin: self.id,
            origin_seq: self.node_seq,
            rreq_id,
            dest,
            group: None,
            known_seq: self.rt.known_seq(dest).unwrap_or(0),
            hop_count: 0,
            ttl: self.cfg.flood_ttl,
            repair_hops: None,
        }));
    }

    /// A MACT of ours for the group (`rreq_id` is unused by prunes).
    fn mact(&self, kind: MactKind, origin: NodeId, rreq_id: u32) -> MaodvMsg<X> {
        MaodvMsg::Mact(MactPayload {
            group: self.group,
            kind,
            origin,
            rreq_id,
            sender_is_member: self.is_member,
        })
    }

    fn become_leader<C: MaodvCtx<X>>(&mut self, api: &mut C) {
        self.is_leader = true;
        self.mrt.group_seq += 1;
        self.mrt.hops_to_leader = 0;
        self.last_tree_grph = Some(api.now());
        api.bump(counters::BECAME_LEADER);
    }

    fn tick<C: MaodvCtx<X>>(&mut self, api: &mut C) {
        let now = api.now();
        // 1. Neighbour liveness: silent tree neighbours break links.
        for dead in self.rt.sweep_dead(now, self.cfg.neighbor_timeout()) {
            self.rt.invalidate_via(dead);
            if self.mrt.next_hop(dead).is_some_and(|h| h.enabled) {
                api.bump(counters::HELLO_LINK_BREAK);
                // Best-effort prune so a *spurious* break (hellos lost to
                // collisions, neighbour actually fine) cannot leave the
                // tree edge dangling on one side only.
                api.send(dead, self.mact(MactKind::Prune, self.id, 0));
                self.handle_tree_break(api, dead);
            }
        }
        // 2. Join/repair progress.
        if let Some(mut j) = self.cold.as_mut().and_then(|c| c.join.take()) {
            if now.duration_since(j.sent_at) >= self.cfg.rrep_wait {
                if let Some(best) = Self::select_candidate(&j.candidates) {
                    self.graft(api, best, self.id, j.rreq_id);
                    api.bump(counters::MACT_SENT);
                } else if j.retries < self.cfg.rreq_retries {
                    j.retries += 1;
                    j.sent_at = now;
                    api.bump(counters::JOIN_RREQ_RETRY);
                    j.rreq_id = self.flood_join_rreq(api, j.repair);
                    self.cold_mut().join = Some(j);
                } else {
                    // Nobody answered: we are partitioned (or first).
                    self.become_leader(api);
                }
            } else {
                self.cold_mut().join = Some(j);
            }
        }
        // 3a. A tree router without an upstream and not the leader must
        //     repair (covers lost MACT cascades and leader loss).
        if self.on_tree() && !self.is_leader && self.mrt.upstream().is_none() && !self.joining() {
            let hops = self.mrt.hops_to_leader;
            self.start_join(api, Some(hops));
        }
        // 3b. A member that fell off the tree entirely (pruned away or
        //     failed graft) re-joins from scratch.
        if self.is_member && self.join_started && !self.on_tree() && !self.joining() {
            api.bump(counters::MEMBER_REJOIN);
            self.start_join(api, None);
        }
        // 3c. An orphaned subtree: local tree edges look fine but no
        //     tree-scoped GRPH has arrived for several leader rounds.
        //     Jittered so a whole subtree does not flood RREQs at once.
        if self.on_tree()
            && !self.is_leader
            && !self.joining()
            && self.last_tree_grph.is_some()
            && !self.tree_connected(now)
        {
            let jitter_ns = api.jitter(self.cfg.group_hello_interval.as_nanos());
            let stale_for = now.duration_since(self.last_tree_grph.expect("checked"));
            if stale_for.as_nanos() > self.cfg.group_hello_interval.as_nanos() * 5 / 2 + jitter_ns {
                api.bump(counters::ORPHAN_REPAIR);
                self.start_join(api, None);
            }
        }
        // Nothing below touches a node that never needed the cold box.
        let Some(cold) = self.cold.as_deref() else {
            return;
        };
        // 4. Unicast discovery timeouts.
        let mut to_retry: Vec<NodeId> = Vec::new();
        let mut to_fail: Vec<NodeId> = Vec::new();
        for (dest, d) in cold.discoveries.iter() {
            if now.duration_since(d.sent_at) >= self.cfg.rrep_wait {
                if d.retries < self.cfg.rreq_retries {
                    to_retry.push(*dest);
                } else {
                    to_fail.push(*dest);
                }
            }
        }
        to_retry.sort();
        to_fail.sort();
        for dest in to_retry {
            self.flood_unicast_rreq(api, dest);
            if let Some(d) = self.cold_mut().discoveries.get_mut(&dest) {
                d.retries += 1;
                d.sent_at = now;
            }
        }
        for dest in to_fail {
            if let Some(d) = self.cold_mut().discoveries.remove(&dest) {
                api.bump_n(counters::DISCOVERY_FAILED_PKTS, d.buffer.len() as u64);
                api.bump(counters::DISCOVERY_FAILED);
            }
        }
        // 5. Expire stale pending-join bookkeeping.
        let cold = self.cold_mut();
        cold.pending_joins
            .retain(|_, &mut (_, expires)| expires > now);
        if cold.pending_joins.is_empty() && !cold.forwarded_rreps.is_empty() {
            cold.forwarded_rreps.clear();
        }
    }

    fn select_candidate(cands: &[JoinCandidate]) -> Option<JoinCandidate> {
        cands.iter().copied().max_by(|a, b| {
            a.group_seq
                .cmp(&b.group_seq)
                .then(b.hops_to_tree.cmp(&a.hops_to_tree))
                .then(b.via.cmp(&a.via))
        })
    }

    /// Grafts this node onto the tree through `branch`: the requester
    /// with its best candidate, and every router the MACT cascade crosses
    /// with the branch it relayed the join reply from. Sends the MACT
    /// join for `origin`'s request `rreq_id` on up the branch.
    fn graft<C: MaodvCtx<X>>(
        &mut self,
        api: &mut C,
        branch: JoinCandidate,
        origin: NodeId,
        rreq_id: u32,
    ) {
        // An orphan re-graft replaces a still-enabled but disconnected
        // upstream: prune that stale edge so both sides agree (the old
        // upstream's subtree will run its own orphan repair). A router
        // the cascade crosses was off the tree, so it has no upstream.
        if let Some(old) = self.mrt.upstream() {
            if old != branch.via {
                api.send(old, self.mact(MactKind::Prune, self.id, 0));
                self.mrt.remove_next_hop(old);
            }
        }
        self.mrt.enable_next_hop(branch.via, false);
        self.mrt.set_upstream(branch.via);
        self.mrt.group_seq = self.mrt.group_seq.max(branch.group_seq);
        self.mrt.hops_to_leader = branch.leader_hops.saturating_add(branch.hops_to_tree);
        // Optimistic grace: a tree GRPH should arrive within one round.
        self.last_tree_grph = Some(api.now());
        api.send(branch.via, self.mact(MactKind::Join, origin, rreq_id));
        self.exchange_nearest_member(api, branch.via);
    }

    fn handle_rreq<C: MaodvCtx<X>>(&mut self, api: &mut C, from: NodeId, r: RreqPayload) {
        if r.origin == self.id {
            return;
        }
        let now = api.now();
        // Reverse route toward the origin.
        self.rt.update_allow_stale(
            r.origin,
            from,
            r.origin_seq,
            r.hop_count.saturating_add(1),
            now + self.cfg.active_route_timeout,
            now,
        );
        if !self.rreq_seen.insert((r.origin, r.rreq_id)) {
            return;
        }
        // What every reply of ours to this request says; each case below
        // fills in what it answers with.
        let reply = RrepPayload {
            origin: r.origin,
            rreq_id: r.rreq_id,
            responder: self.id,
            dest: self.id,
            group: None,
            seq: 0,
            hop_count: 0,
            leader_hops: 0,
            responder_is_member: self.is_member,
        };
        if r.group.is_some() {
            // Only nodes with a *proven* live path to the leader answer;
            // this is what keeps a repairing/merging node from grafting
            // onto its own orphaned subtree. Never answer our own
            // upstream: our connectivity *is* the requester — replying
            // would weld a cycle.
            let can_reply = self.on_tree()
                && self.tree_connected(now)
                && self.mrt.upstream() != Some(r.origin)
                && (self.mrt.group_seq >= r.known_seq || self.canary_accept_stale_seq)
                && (r.repair_hops.is_none_or(|rh| self.mrt.hops_to_leader < rh)
                    || self.canary_accept_stale_seq);
            if can_reply {
                api.bump(counters::JOIN_RREP_SENT);
                api.send(
                    from,
                    MaodvMsg::Rrep(RrepPayload {
                        group: Some(self.group),
                        seq: self.mrt.group_seq,
                        leader_hops: self.mrt.hops_to_leader,
                        ..reply
                    }),
                );
                return;
            }
        } else {
            if r.dest == self.id {
                self.node_seq = self.node_seq.max(r.known_seq);
                api.bump(counters::UNICAST_RREP_SENT);
                let seq = self.node_seq;
                api.send(from, MaodvMsg::Rrep(RrepPayload { seq, ..reply }));
                return;
            }
            if let Some(route) = self.rt.lookup(r.dest, now) {
                if route.seq >= r.known_seq {
                    api.bump(counters::UNICAST_RREP_INTERMEDIATE);
                    api.send(
                        from,
                        MaodvMsg::Rrep(RrepPayload {
                            dest: r.dest,
                            seq: route.seq,
                            hop_count: route.hops,
                            responder_is_member: false,
                            ..reply
                        }),
                    );
                    return;
                }
            }
        }
        // Rebroadcast the flood.
        self.relay
            .relay(api, TIMER_RELAY, r.hop_count, r.ttl, |hop_count, ttl| {
                MaodvMsg::Rreq(RreqPayload {
                    hop_count,
                    ttl,
                    ..r
                })
            });
    }

    fn handle_rrep<C: MaodvCtx<X>>(
        &mut self,
        api: &mut C,
        from: NodeId,
        p: RrepPayload,
    ) -> Option<Upcall<X>> {
        let now = api.now();
        if p.hop_count >= self.cfg.flood_ttl.saturating_mul(2) {
            // A reply circulating on stale reverse routes; kill the loop.
            api.bump(counters::RREP_LOOP_DROPPED);
            return None;
        }
        let expires = now + self.cfg.active_route_timeout;
        // Forward route to the reply's destination/responder.
        self.rt.update_allow_stale(
            p.dest,
            from,
            p.seq,
            p.hop_count.saturating_add(1),
            expires,
            now,
        );
        if p.responder != p.dest {
            self.rt.update_allow_stale(
                p.responder,
                from,
                0,
                p.hop_count.saturating_add(1),
                expires,
                now,
            );
        }
        if p.origin == self.id {
            match p.group {
                Some(g) if g == self.group => {
                    if let Some(j) = self.cold.as_mut().and_then(|c| c.join.as_mut()) {
                        if j.rreq_id == p.rreq_id {
                            j.candidates.push(JoinCandidate {
                                via: from,
                                group_seq: p.seq,
                                hops_to_tree: p.hop_count.saturating_add(1),
                                leader_hops: p.leader_hops,
                            });
                        }
                    }
                    return p.responder_is_member.then_some(Upcall::MemberObserved {
                        member: p.responder,
                        hops: p.hop_count.saturating_add(1),
                    });
                }
                _ => {
                    // Unicast discovery answered: flush the buffer.
                    if let Some(d) = self
                        .cold
                        .as_mut()
                        .and_then(|c| c.discoveries.remove(&p.dest))
                    {
                        for x in d.buffer {
                            self.send_ext_routed(api, p.dest, x);
                        }
                    }
                }
            }
            return None;
        }
        // Forward toward the origin along the reverse route.
        let Some(rev) = self.rt.lookup(p.origin, now) else {
            api.bump(counters::RREP_NO_REVERSE_ROUTE);
            return None;
        };
        let rev_next = rev.next_hop;
        if p.group.is_some() {
            // Join reply: remember the potential upstream; suppress
            // duplicates that are no better than what we already relayed.
            let key = (p.origin, p.rreq_id);
            let score = (p.seq, p.hop_count);
            let expires = now + self.cfg.rrep_wait * 4;
            let cold = self.cold_mut();
            if let Some(&(best_seq, best_hops)) = cold.forwarded_rreps.get(&key) {
                if p.seq < best_seq || (p.seq == best_seq && p.hop_count >= best_hops) {
                    return None;
                }
            }
            cold.forwarded_rreps.insert(key, score);
            let branch = JoinCandidate {
                via: from,
                group_seq: p.seq,
                hops_to_tree: p.hop_count.saturating_add(1),
                leader_hops: p.leader_hops,
            };
            cold.pending_joins.insert(key, (branch, expires));
            // Inactive entries for the potential branch, per draft-05.
            self.mrt.ensure_next_hop(from);
            self.mrt.ensure_next_hop(rev_next);
        }
        api.send(
            rev_next,
            MaodvMsg::Rrep(RrepPayload {
                hop_count: p.hop_count.saturating_add(1),
                ..p
            }),
        );
        None
    }

    fn handle_mact<C: MaodvCtx<X>>(&mut self, api: &mut C, from: NodeId, m: MactPayload) {
        if m.group != self.group {
            return;
        }
        match m.kind {
            MactKind::Prune => {
                api.bump(counters::PRUNE_RECEIVED);
                let was_upstream = self.mrt.upstream() == Some(from);
                self.mrt.remove_next_hop(from);
                self.propagate_nearest_member(api);
                if was_upstream && !self.is_leader && self.on_tree() && !self.joining() {
                    // Our upstream cut us off: repair downstream-initiated,
                    // exactly as for a detected link break.
                    let hops = self.mrt.hops_to_leader;
                    self.start_join(api, Some(hops));
                } else {
                    self.leaf_prune_check(api);
                }
            }
            MactKind::Join => {
                api.bump(counters::MACT_JOIN_RECEIVED);
                let was_on_tree = self.on_tree();
                self.mrt.enable_next_hop(from, m.sender_is_member);
                self.exchange_nearest_member(api, from);
                if !was_on_tree {
                    // We are an intermediate node being grafted: continue
                    // the activation toward the tree.
                    let key = (m.origin, m.rreq_id);
                    if let Some((branch, _)) = self
                        .cold
                        .as_mut()
                        .and_then(|c| c.pending_joins.remove(&key))
                    {
                        self.graft(api, branch, m.origin, m.rreq_id);
                    }
                    // else: stale MACT with no pending record; the tick's
                    // upstream-less repair rule will fix us up.
                }
                self.propagate_nearest_member(api);
            }
        }
    }

    fn handle_grph<C: MaodvCtx<X>>(&mut self, api: &mut C, from: NodeId, g: GrphPayload) {
        if g.group != self.group {
            return;
        }
        if g.tree {
            self.handle_tree_grph(api, from, g);
            return;
        }
        if !self.cold_mut().grph_seen.insert((g.leader, g.group_seq)) {
            return;
        }
        if self.is_leader && g.leader != self.id && self.id > g.leader {
            // Two leaders: the higher id defers and grafts its whole
            // subtree onto the other partition (a simplified merge; the
            // 3-node MAODV line in `docs/MODEL_CHECKING.md` checks it
            // stays loop-free). Only leader-connected nodes answer join
            // RREQs, so the graft cannot land in our own subtree.
            api.bump(counters::LEADER_MERGE_DEFER);
            self.is_leader = false;
            self.mrt.group_seq = self.mrt.group_seq.max(g.group_seq);
            // Grace period: our subtree stays "connected" through us
            // while the graft completes.
            self.last_tree_grph = Some(api.now());
            if !self.joining() {
                self.start_join(api, None);
            }
        } else {
            // Freshness only; leader/hops adoption is the tree copy's job.
            self.mrt.group_seq = self.mrt.group_seq.max(g.group_seq);
        }
        self.relay_grph(api, g);
    }

    fn relay_grph<C: MaodvCtx<X>>(&mut self, api: &mut C, g: GrphPayload) {
        self.relay
            .relay(api, TIMER_RELAY, g.hop_count, g.ttl, |hop_count, ttl| {
                MaodvMsg::Grph(GrphPayload {
                    hop_count,
                    ttl,
                    ..g
                })
            });
    }

    /// A tree-scoped GRPH: adopt and relay downward only when it arrives
    /// over our upstream tree edge — that chain of custody is what makes
    /// it a proof of leader connectivity.
    fn handle_tree_grph<C: MaodvCtx<X>>(&mut self, api: &mut C, from: NodeId, g: GrphPayload) {
        if self.is_leader || self.mrt.upstream() != Some(from) {
            return;
        }
        if let Some((leader, seq)) = self.cold.as_ref().and_then(|c| c.adopted_grph) {
            if g.leader == leader && g.group_seq <= seq {
                return;
            }
        }
        self.cold_mut().adopted_grph = Some((g.leader, g.group_seq));
        self.mrt.group_seq = self.mrt.group_seq.max(g.group_seq);
        self.mrt.hops_to_leader = g.hop_count.saturating_add(1);
        self.last_tree_grph = Some(api.now());
        api.bump(counters::TREE_GRPH_ADOPTED);
        if self.mrt.enabled().any(|h| h.node != from) {
            self.relay_grph(api, g);
        }
    }

    fn handle_data<C: MaodvCtx<X>>(
        &mut self,
        api: &mut C,
        from: NodeId,
        d: DataHeader,
    ) -> Option<Upcall<X>> {
        if d.group != self.group || d.origin == self.id {
            return None;
        }
        let now = api.now();
        // Free reverse route toward the origin (used by gossip replies).
        self.learn_route(now, d.origin, from, d.hops.saturating_add(1));
        // Tree discipline: accept only over an activated tree edge.
        if !self.mrt.next_hop(from).is_some_and(|h| h.enabled) {
            api.bump(counters::DATA_NON_TREE_IGNORED);
            return None;
        }
        if !self.cold_mut().data_seen.insert((d.origin, d.seq)) {
            api.bump(counters::DATA_DUPLICATE);
            return None;
        }
        // Forward along the remaining tree edges (one broadcast reaches
        // them all; non-tree neighbours ignore it).
        if self.mrt.enabled().any(|h| h.node != from) {
            api.bump(counters::DATA_FORWARDED);
            api.broadcast(MaodvMsg::Data(DataHeader {
                hops: d.hops.saturating_add(1),
                ..d
            }));
        }
        self.is_member.then_some(Upcall::DataReceived {
            origin: d.origin,
            seq: d.seq,
            payload_len: d.payload_len,
            hops: d.hops.saturating_add(1),
        })
    }

    fn handle_routed<C: MaodvCtx<X>>(
        &mut self,
        api: &mut C,
        from: NodeId,
        r: RoutedExt<X>,
    ) -> Option<Upcall<X>> {
        let now = api.now();
        // The routed frame teaches us the way back to its source.
        self.learn_route(now, r.src, from, r.hops.saturating_add(1));
        if r.dest == self.id {
            return Some(Upcall::ExtRouted {
                src: r.src,
                hops: r.hops.saturating_add(1),
                msg: r.payload,
            });
        }
        if r.ttl <= 1 {
            api.bump(counters::ROUTED_TTL_EXPIRED);
            return None;
        }
        let Some(route) = self.rt.lookup(r.dest, now) else {
            api.bump(counters::ROUTED_NO_ROUTE);
            return None;
        };
        let next = route.next_hop;
        self.rt.refresh(r.dest, now + self.cfg.active_route_timeout);
        api.send(
            next,
            MaodvMsg::Routed(RoutedExt {
                ttl: r.ttl - 1,
                hops: r.hops.saturating_add(1),
                ..r
            }),
        );
        None
    }

    fn handle_tree_break<C: MaodvCtx<X>>(&mut self, api: &mut C, neighbor: NodeId) {
        let was_upstream = self.mrt.upstream() == Some(neighbor);
        self.mrt.remove_next_hop(neighbor);
        self.propagate_nearest_member(api);
        api.bump(counters::TREE_LINK_BREAK);
        if was_upstream && !self.is_leader {
            // Paper §3: only the downstream node repairs, advertising its
            // old distance to the leader so only closer nodes answer.
            if !self.joining() {
                let hops = self.mrt.hops_to_leader;
                self.start_join(api, Some(hops));
            }
        } else {
            // Upstream side of the break: prune ourselves if now useless.
            self.leaf_prune_check(api);
        }
    }

    /// A non-member router whose tree degree fell to one is a useless
    /// leaf: prune (cascades upstream per §3).
    fn leaf_prune_check<C: MaodvCtx<X>>(&mut self, api: &mut C) {
        if self.is_member || self.is_leader {
            return;
        }
        if self.mrt.enabled_count() == 1 {
            let last = self.mrt.enabled().next().expect("count checked").node;
            api.bump(counters::PRUNE_SENT);
            api.send(last, self.mact(MactKind::Prune, self.id, 0));
            self.mrt.remove_next_hop(last);
        }
    }

    /// Sends our advertised `nearest_member` value to a newly activated
    /// neighbour (bootstraps the exchange in both directions).
    fn exchange_nearest_member<C: MaodvCtx<X>>(&mut self, api: &mut C, to: NodeId) {
        let (group, value) = (self.group, self.mrt.advertise_to(to, self.is_member));
        api.send(to, MaodvMsg::NmUpdate { group, value });
    }

    /// Sends `nearest_member` advertisements to every enabled next hop
    /// whose value changed since last sent (§4.2).
    fn propagate_nearest_member<C: MaodvCtx<X>>(&mut self, api: &mut C) {
        let group = self.group;
        self.mrt.advertise_changes(self.is_member, |to, value| {
            api.send(to, MaodvMsg::NmUpdate { group, value });
            api.bump(counters::NM_UPDATE_SENT);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoExt;
    use ag_sim::hash::state_key;

    /// Records unicasts; every other effect is swallowed and every draw
    /// is zero.
    #[derive(Debug, Default)]
    struct SendLog(Vec<(NodeId, MaodvMsg<NoExt>)>);

    impl ProtoCtx<MaodvMsg<NoExt>> for SendLog {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn id(&self) -> NodeId {
            NodeId::new(0)
        }
        fn node_count(&self) -> usize {
            2
        }
        fn send(&mut self, dest: NodeId, msg: MaodvMsg<NoExt>) {
            self.0.push((dest, msg));
        }
        fn broadcast(&mut self, _msg: MaodvMsg<NoExt>) {}
        fn set_timer(&mut self, _delay: SimDuration, _key: TimerKey) {}
        fn count_n(&mut self, _name: &'static str, _n: u64) {}
        fn jitter(&mut self, _bound: u64) -> u64 {
            0
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

    /// An emptied cold box hashes as an absent one: a node whose box
    /// was allocated and then emptied again is the same state as a
    /// fresh one.
    #[test]
    fn emptied_cold_box_digests_like_an_absent_one() {
        let fresh = || {
            Maodv::<NoExt>::new(
                MaodvConfig::paper_default(),
                NodeId::new(0),
                GroupId(0),
                false,
            )
        };
        let mut used = fresh();
        let key = (NodeId::new(1), 1);
        used.cold_mut().forwarded_rreps.insert(key, (1, 1));
        assert_ne!(state_key(&used), state_key(&fresh()));
        used.cold_mut().forwarded_rreps.clear();
        assert!(used.cold.is_some() && fresh().cold.is_none());
        assert_eq!(state_key(&used), state_key(&fresh()));
    }

    /// A tree neighbour that prunes itself and grafts again is told our
    /// `nearest_member` afresh — exactly once per graft: removing the
    /// next hop forgot what it had been told.
    #[test]
    fn regrafted_neighbour_is_sent_a_fresh_nm_update() {
        let group = GroupId(0);
        let neighbour = NodeId::new(1);
        let mut node =
            Maodv::<NoExt>::new(MaodvConfig::paper_default(), NodeId::new(0), group, true);
        let mact = |kind| {
            MaodvMsg::Mact(MactPayload {
                group,
                kind,
                origin: neighbour,
                rreq_id: 1,
                sender_is_member: false,
            })
        };
        for kind in [MactKind::Join, MactKind::Prune, MactKind::Join] {
            let mut api = SendLog::default();
            node.on_packet(&mut api, neighbour, mact(kind));
            let expect = match kind {
                MactKind::Join => vec![(neighbour, MaodvMsg::NmUpdate { group, value: 1 })],
                MactKind::Prune => vec![],
            };
            assert_eq!(api.0, expect, "{kind:?}");
            assert_eq!(
                node.mrt().next_hop(neighbour).is_some(),
                kind == MactKind::Join
            );
        }
    }

    /// The RREP loop guard is `2 × flood_ttl` saturated to a `u8`: with
    /// a TTL of 200 a 200-hop reply still travels on, and only a
    /// saturated hop count is taken for a loop.
    #[test]
    fn rrep_loop_guard_saturates_for_large_ttls() {
        let (origin, rev_next, from) = (NodeId::new(5), NodeId::new(1), NodeId::new(2));
        let cfg = MaodvConfig {
            flood_ttl: 200,
            ..MaodvConfig::paper_default()
        };
        let mut node = Maodv::<NoExt>::new(cfg, NodeId::new(0), GroupId(0), false);
        node.note_route(SimTime::ZERO, origin, rev_next, 3);
        let rrep = |hop_count| RrepPayload {
            origin,
            rreq_id: 1,
            responder: NodeId::new(3),
            dest: NodeId::new(3),
            group: None,
            seq: 1,
            hop_count,
            leader_hops: 0,
            responder_is_member: false,
        };
        for (hops, forwarded) in [(200, true), (255, false)] {
            let mut api = SendLog::default();
            let msg = MaodvMsg::Rrep(rrep(hops));
            node.on_packet(&mut api, from, msg);
            let expect = if forwarded {
                vec![(rev_next, MaodvMsg::Rrep(rrep(hops + 1)))]
            } else {
                vec![]
            };
            assert_eq!(api.0, expect, "hop count {hops}");
        }
    }
}
