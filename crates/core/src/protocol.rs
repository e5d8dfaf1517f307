//! The full Anonymous Gossip node stack.
//!
//! [`AnonymousGossip`] composes a [`Maodv`] routing instance (phase one:
//! unreliable tree multicast) with the gossip recovery layer (phase
//! two), exactly mirroring the paper's layering: "AG is implemented over
//! MAODV without much overhead" and could wrap any multicast protocol
//! exposing the same hooks.

use std::sync::{Arc, LazyLock};

use ag_maodv::delivery::{DeliveryLog, DeliveryPath};
use ag_maodv::{
    GroupId, Maodv, MaodvConfig, MaodvCtx, MaodvMsg, TrafficSource, Upcall, TIMER_USER_BASE,
};
use ag_net::{NodeId, Protocol, RxKind, TimerKey};
use ag_sim::SimDuration;

use crate::counters;
use crate::message::{AgMsg, GossipReply, GossipRequest, PacketId, PacketRecord};
use crate::{AgConfig, GossipMetrics, HistoryTable, LostTable, MemberCache};

/// Timer: one gossip round (paper: every second per member).
const TIMER_GOSSIP: TimerKey = TIMER_USER_BASE;
/// Timer: CBR traffic source.
const TIMER_TRAFFIC: TimerKey = TIMER_USER_BASE + 1;

/// Picks a next hop from the `(node, nearest_member)` candidates that
/// `candidates` yields afresh on each call, weighting toward smaller
/// member distances with weight `1 / nearest_member` (§4.2), or
/// uniformly when `locality` is off.
///
/// The selection is a single [`ProtoCtx`] named choice
/// ([`ProtoCtx::pick_weighted`] / [`ProtoCtx::pick_index`]), so the
/// engine draws exactly the values the pre-facade code drew while the
/// model checker enumerates every candidate. The candidates are walked
/// again rather than collected (count, then `nth`), so nothing is kept.
fn weighted_pick<C: MaodvCtx<AgMsg>, I: Iterator<Item = (NodeId, u8)>>(
    candidates: impl Fn() -> I,
    locality: bool,
    ctx: &mut C,
) -> Option<NodeId> {
    let nth = |i: usize| candidates().nth(i).expect("draw out of range");
    let n = candidates().count();
    if n == 0 {
        return None;
    }
    let picked = if locality {
        ctx.pick_weighted(n, |i| 1.0 / f64::from(nth(i).1.max(1)))
    } else {
        ctx.pick_index(n)
    };
    Some(nth(picked).0)
}

/// Chooses what a member puts into a gossip reply (§4.4 pull):
/// everything the initiator explicitly listed as lost (and that is still
/// in the history table), then *tail recovery* — the oldest history
/// packets at or past the initiator's expected sequence number per
/// origin, capped at `tail_recovery_max`, which reaches the packets the
/// initiator has seen nothing after and so cannot name. The total is
/// bounded by `reply_max_packets`.
pub(crate) fn select_reply_packets(
    history: &HistoryTable,
    r: &GossipRequest,
    cfg: &AgConfig,
) -> Vec<PacketRecord> {
    let mut packets: Vec<PacketRecord> = Vec::new();
    for id in &r.lost {
        if packets.len() >= cfg.reply_max_packets {
            break;
        }
        if let Some(rec) = history.get(id) {
            packets.push(*rec);
        }
    }
    for &(origin, expected) in &r.expected {
        if packets.len() >= cfg.reply_max_packets {
            break;
        }
        let mut tail: Vec<PacketRecord> = history
            .values()
            .filter(|p| p.id.origin == origin && p.id.seq >= expected)
            .copied()
            .collect();
        tail.sort_by_key(|p| p.id.seq);
        for rec in tail.into_iter().take(cfg.tail_recovery_max) {
            if packets.len() >= cfg.reply_max_packets {
                break;
            }
            if !packets.iter().any(|p| p.id == rec.id) {
                packets.push(rec);
            }
        }
    }
    packets
}

/// One node running MAODV + Anonymous Gossip (+ optionally the paper's
/// CBR source). This is the crate's primary public type.
///
/// # Example
///
/// ```
/// use ag_core::{AnonymousGossip, AgConfig};
/// use ag_maodv::{GroupId, MaodvConfig, TrafficSource};
/// use ag_net::{Engine, NodeSetup, NodeId, PhyParams};
/// use ag_mobility::{Stationary, Vec2};
/// use ag_sim::{SimTime, SimDuration};
///
/// let ag = AgConfig::paper_default();
/// let mv = MaodvConfig::paper_default();
/// let g = GroupId(0);
/// let src = TrafficSource::compact(SimTime::from_secs(30), SimDuration::from_millis(200), 20, 64);
/// let nodes = vec![
///     NodeSetup {
///         mobility: Box::new(Stationary::new(Vec2::new(0.0, 0.0))),
///         protocol: AnonymousGossip::new(ag, mv, NodeId::new(0), g, true, Some(src)),
///     },
///     NodeSetup {
///         mobility: Box::new(Stationary::new(Vec2::new(40.0, 0.0))),
///         protocol: AnonymousGossip::new(ag, mv, NodeId::new(1), g, true, None),
///     },
/// ];
/// let mut e = Engine::new(PhyParams::paper_default(75.0), 3, nodes);
/// e.run_until(SimTime::from_secs(40));
/// assert_eq!(e.protocol(NodeId::new(1)).delivery().distinct(), 20);
/// ```
#[derive(Debug, Clone, Hash)]
pub struct AnonymousGossip {
    maodv: Maodv<AgMsg>,
    gossip: Gossip,
}

/// The gossip layer's own state, kept apart from the [`Maodv`] core so
/// one handler can borrow both at once: MAODV returns the upcall, the
/// gossip layer handles it while sending through MAODV.
#[derive(Debug, Clone, Hash)]
struct Gossip {
    cfg: AgConfig,
    /// Boxed in `new` at members and the source; a router, which never
    /// delivers, carries only the pointer.
    member: Option<Box<MemberState>>,
}

/// What only a member (or the source) touches: the delivery record, the
/// §4.4 pull state, the §4.3 member cache, the §5.5 counts and the CBR
/// source.
#[derive(Debug, Clone, Hash)]
struct MemberState {
    delivery: DeliveryLog,
    lost: LostTable,
    history: HistoryTable,
    cache: MemberCache,
    metrics: GossipMetrics,
    traffic: Option<TrafficSource>,
}

impl MemberState {
    fn new(cfg: &AgConfig, traffic: Option<TrafficSource>) -> Self {
        MemberState {
            delivery: DeliveryLog::new(),
            lost: LostTable::new(cfg.lost_table_capacity),
            history: HistoryTable::new(cfg.history_capacity),
            cache: MemberCache::new(cfg.member_cache_capacity),
            metrics: GossipMetrics::new(),
            traffic,
        }
    }

    /// A data packet reached this member (any path): account for it and
    /// keep a copy for future gossip replies.
    fn deliver(&mut self, origin: NodeId, seq: u32, payload_len: u16, path: DeliveryPath) -> bool {
        let new = self.delivery.record(origin, seq, path);
        let id = PacketId::new(origin, seq);
        self.history.push(id, PacketRecord { id, payload_len });
        self.lost.observe(origin, seq);
        new
    }
}

/// What a router's member-only accessors answer from: nothing delivered,
/// nothing lost, nothing kept, no member known, no round run.
static NO_MEMBER: LazyLock<MemberState> =
    LazyLock::new(|| MemberState::new(&AgConfig::paper_default(), None));

impl AnonymousGossip {
    /// Creates a node. `traffic` makes it the group's CBR source.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`AgConfig::validate`] or `maodv_cfg` fails
    /// [`MaodvConfig::validate`].
    pub fn new(
        cfg: AgConfig,
        maodv_cfg: MaodvConfig,
        id: NodeId,
        group: GroupId,
        is_member: bool,
        traffic: Option<TrafficSource>,
    ) -> Self {
        cfg.validate().expect("AnonymousGossip::new");
        AnonymousGossip {
            maodv: Maodv::new(maodv_cfg, id, group, is_member),
            gossip: Gossip {
                member: (is_member || traffic.is_some())
                    .then(|| Box::new(MemberState::new(&cfg, traffic))),
                cfg,
            },
        }
    }

    /// Distinct packets delivered to this member (tree + gossip); empty
    /// at a router.
    pub fn delivery(&self) -> &DeliveryLog {
        &self.gossip.member().delivery
    }

    /// This node's gossip activity counters (goodput etc.); zero at a
    /// router.
    pub fn metrics(&self) -> &GossipMetrics {
        &self.gossip.member().metrics
    }

    /// The underlying MAODV state.
    pub fn maodv(&self) -> &Maodv<AgMsg> {
        &self.maodv
    }

    /// The member cache; empty at a router.
    pub fn member_cache(&self) -> &MemberCache {
        &self.gossip.member().cache
    }

    /// The lost table; empty at a router.
    pub fn lost_table(&self) -> &LostTable {
        &self.gossip.member().lost
    }
}

impl Gossip {
    /// The member-only state, or [`NO_MEMBER`]'s empty one at a router.
    fn member(&self) -> &MemberState {
        self.member.as_deref().unwrap_or(&NO_MEMBER)
    }

    /// The member-only state, for what only members and the source do:
    /// take tree data or gossip replies, run rounds, send packets.
    fn member_mut(&mut self) -> &mut MemberState {
        self.member
            .as_deref_mut()
            .expect("only members and the source keep member state")
    }

    // ───────────────────────── delivery plumbing ─────────────────────────

    /// Handles what one of MAODV's receptions surfaced.
    fn on_upcall<C: MaodvCtx<AgMsg>>(
        &mut self,
        maodv: &mut Maodv<AgMsg>,
        api: &mut C,
        up: Upcall<AgMsg>,
    ) {
        match up {
            Upcall::DataReceived {
                origin,
                seq,
                payload_len,
                hops,
            } => {
                let m = self.member_mut();
                m.deliver(origin, seq, payload_len, DeliveryPath::Tree);
                // Data implies the origin is a member (free cache feed).
                m.cache.observe(origin, hops);
            }
            Upcall::MemberObserved { member, hops } => {
                // A router's own join replies name members too; it
                // keeps no cache to put them in.
                if let Some(m) = self.member.as_deref_mut() {
                    if member != maodv.id() {
                        m.cache.observe(member, hops);
                    }
                }
            }
            Upcall::ExtNeighbor { from, msg } => match msg {
                AgMsg::Request(r) => self.handle_walking_request(maodv, api, from, r),
                AgMsg::Reply(rep) => self.handle_reply(api, rep, 1),
            },
            Upcall::ExtRouted { hops, msg, .. } => match msg {
                // Cached gossip addressed to us: always accept.
                AgMsg::Request(r) => self.accept_request(maodv, api, &r, hops),
                AgMsg::Reply(rep) => self.handle_reply(api, rep, hops),
            },
        }
    }

    // ───────────────────────── gossip rounds ─────────────────────────

    fn build_request(&self, maodv: &Maodv<AgMsg>, hops: u8, ttl: u8) -> GossipRequest {
        let lost = &self.member().lost;
        GossipRequest {
            group: maodv.group(),
            initiator: maodv.id(),
            lost: lost.lost_buffer(self.cfg.lost_buffer_max),
            expected: lost.expected_vec(),
            hops,
            ttl,
        }
    }

    /// One §4 gossip round: anonymous with probability `p_anon`, cached
    /// otherwise; each falls back to the other when impossible.
    fn gossip_round<C: MaodvCtx<AgMsg>>(&mut self, maodv: &mut Maodv<AgMsg>, api: &mut C) {
        if !maodv.is_member() {
            return;
        }
        let want_anon = api.chance(self.cfg.p_anon);
        let mrt = maodv.mrt();
        let anon_target = weighted_pick(
            || mrt.enabled().map(|h| (h.node, h.nearest_member)),
            self.cfg.locality_weighting,
            api,
        );
        let req = self.build_request(maodv, 0, self.cfg.gossip_ttl);
        let m = self.member_mut();
        m.metrics.rounds += 1;
        let cached_target = m.cache.pick_via(maodv.id(), |n| api.pick_index(n));
        match (want_anon, anon_target, cached_target) {
            (true, Some(next), _) | (false, Some(next), None) => {
                maodv.send_ext_neighbor(api, next, AgMsg::request(req));
                api.bump(counters::REQUEST_ANON_SENT);
            }
            (false, _, Some(entry)) | (true, None, Some(entry)) => {
                m.cache.record_gossip(entry.node, api.now());
                maodv.send_ext_routed(api, entry.node, AgMsg::request(req));
                api.bump(counters::REQUEST_CACHED_SENT);
            }
            (_, None, None) => api.bump(counters::ROUND_SKIPPED),
        }
    }

    /// A request walking the tree arrived from `from` (§4.1 step flow).
    fn handle_walking_request<C: MaodvCtx<AgMsg>>(
        &mut self,
        maodv: &mut Maodv<AgMsg>,
        api: &mut C,
        from: NodeId,
        r: Arc<GossipRequest>,
    ) {
        if r.initiator == maodv.id() {
            // The walk came back around; nothing useful to do.
            return;
        }
        // Record the reverse path: this is what lets the eventual
        // accepting member unicast its reply without route discovery.
        maodv.note_route(api.now(), r.initiator, from, r.hops.saturating_add(1));
        let accept = maodv.is_member() && api.chance(self.cfg.p_accept);
        if accept {
            self.accept_request(maodv, api, &r, r.hops.saturating_add(1));
            return;
        }
        // Propagate to a random next hop other than the sender, biased
        // toward nearby members (§4.2).
        let next = if r.ttl <= 1 {
            None
        } else {
            let (initiator, mrt) = (r.initiator, maodv.mrt());
            weighted_pick(
                || {
                    mrt.enabled()
                        .filter(|h| h.node != from && h.node != initiator)
                        .map(|h| (h.node, h.nearest_member))
                },
                self.cfg.locality_weighting,
                api,
            )
        };
        match next {
            Some(next) => {
                // The walk normally holds the only reference to the
                // body by now (the delivering frame has left the air),
                // so stepping hops/ttl is an in-place update, not a
                // copy of the lost/expected vecs.
                let mut body = Arc::try_unwrap(r).unwrap_or_else(|shared| (*shared).clone());
                body.hops = body.hops.saturating_add(1);
                body.ttl -= 1;
                maodv.send_ext_neighbor(api, next, AgMsg::Request(Arc::new(body)));
            }
            None if maodv.is_member() => {
                // Nowhere to go: accept rather than waste the walk.
                self.accept_request(maodv, api, &r, r.hops.saturating_add(1));
            }
            None => api.bump(counters::REQUEST_DEAD_END),
        }
    }

    /// Accepts a request that reached us over `hops` hops: its initiator
    /// is a member worth caching, and the §4.4 pull answers it — look up
    /// everything it asked for (plus tail recovery past its expected
    /// sequence numbers) and unicast it back.
    fn accept_request<C: MaodvCtx<AgMsg>>(
        &mut self,
        maodv: &mut Maodv<AgMsg>,
        api: &mut C,
        r: &GossipRequest,
        hops: u8,
    ) {
        if let Some(m) = self.member.as_deref_mut() {
            m.cache.observe(r.initiator, hops);
        }
        let packets = select_reply_packets(&self.member().history, r, &self.cfg);
        if packets.is_empty() {
            api.bump(counters::REPLY_EMPTY);
            return;
        }
        api.bump_n(counters::REPLY_PACKETS_SENT, packets.len() as u64);
        let responder = maodv.id();
        maodv.send_ext_routed(
            api,
            r.initiator,
            AgMsg::reply(GossipReply {
                group: r.group,
                responder,
                packets,
            }),
        );
    }

    /// A gossip reply arrived: deliver anything new (this is the paper's
    /// loss recovery) and measure goodput.
    fn handle_reply<C: MaodvCtx<AgMsg>>(&mut self, api: &mut C, rep: Arc<GossipReply>, hops: u8) {
        let m = self.member_mut();
        m.cache.observe(rep.responder, hops);
        for &p in &rep.packets {
            m.metrics.reply_packets_received += 1;
            if m.deliver(p.id.origin, p.id.seq, p.payload_len, DeliveryPath::Gossip) {
                m.metrics.reply_packets_useful += 1;
                api.bump(counters::RECOVERED);
            } else {
                api.bump(counters::REPLY_DUPLICATE);
            }
        }
    }
}

impl Protocol for AnonymousGossip {
    type Msg = MaodvMsg<AgMsg>;

    fn start<C: MaodvCtx<AgMsg>>(&mut self, api: &mut C) {
        self.maodv.start(api);
        let cfg = &self.gossip.cfg;
        if self.maodv.is_member() {
            let jitter = SimDuration::from_nanos(api.jitter(cfg.gossip_interval.as_nanos()));
            api.set_timer(cfg.gossip_interval + jitter, TIMER_GOSSIP);
        }
        if let Some(t) = self.gossip.member().traffic {
            t.arm(api, TIMER_TRAFFIC);
        }
    }

    fn on_packet<C: MaodvCtx<AgMsg>>(
        &mut self,
        api: &mut C,
        from: NodeId,
        msg: Self::Msg,
        _rx: RxKind,
    ) {
        let AnonymousGossip { maodv, gossip } = self;
        if let Some(up) = maodv.on_packet(api, from, msg) {
            gossip.on_upcall(maodv, api, up);
        }
    }

    // ag-lint: hot-path
    fn prefetch(&self, from: NodeId, msg: &Self::Msg) {
        self.maodv.prefetch(from, msg);
    }

    fn on_timer<C: MaodvCtx<AgMsg>>(&mut self, api: &mut C, key: TimerKey) {
        let AnonymousGossip { maodv, gossip } = self;
        if maodv.on_timer(api, key) {
            return;
        }
        match key {
            TIMER_GOSSIP => {
                gossip.gossip_round(maodv, api);
                api.set_timer(gossip.cfg.gossip_interval, TIMER_GOSSIP);
            }
            TIMER_TRAFFIC => {
                if let Some(t) = gossip.member().traffic {
                    t.tick(api, TIMER_TRAFFIC, |api| {
                        let seq = maodv.send_data(api, t.payload_len);
                        gossip.member_mut().deliver(
                            maodv.id(),
                            seq,
                            t.payload_len,
                            DeliveryPath::Tree,
                        );
                    });
                }
            }
            _ => {}
        }
    }

    fn on_send_failure<C: MaodvCtx<AgMsg>>(&mut self, api: &mut C, to: NodeId, msg: Self::Msg) {
        self.maodv.on_send_failure(api, to, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::push_packet;
    use ag_mobility::{Field, Mobility, PauseRange, RandomWaypoint, SpeedRange, Stationary, Vec2};
    use ag_net::{ChurnParams, Engine, NodeSetup, PhyParams, ProtoCtx};
    use ag_sim::rng::{SeedSplitter, StreamKind};
    use ag_sim::SimTime;
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Minimal sampling context for the `weighted_pick` unit tests:
    /// draws from a raw RNG stream and swallows every effect.
    #[derive(Debug)]
    struct RngCtx {
        rng: SmallRng,
    }

    impl ProtoCtx<MaodvMsg<AgMsg>> for RngCtx {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn id(&self) -> NodeId {
            NodeId::new(0)
        }
        fn node_count(&self) -> usize {
            1
        }
        fn send(&mut self, _dest: NodeId, _msg: MaodvMsg<AgMsg>) {}
        fn broadcast(&mut self, _msg: MaodvMsg<AgMsg>) {}
        fn set_timer(&mut self, _delay: SimDuration, _key: TimerKey) {}
        fn count_n(&mut self, _name: &'static str, _n: u64) {}
        fn jitter(&mut self, bound: u64) -> u64 {
            self.rng.random_range(0..bound)
        }
        fn chance(&mut self, p: f64) -> bool {
            self.rng.random_bool(p)
        }
        fn pick_index(&mut self, n: usize) -> usize {
            self.rng.random_range(0..n)
        }
        fn pick_weighted<F: Fn(usize) -> f64>(&mut self, n: usize, weight: F) -> usize {
            let total: f64 = (0..n).map(&weight).sum();
            let mut draw = self.rng.random_range(0.0..total);
            let mut picked = n - 1;
            for i in 0..n {
                let w = weight(i);
                if draw < w {
                    picked = i;
                    break;
                }
                draw -= w;
            }
            picked
        }
    }

    fn rng_ctx(seed: u64, stream: u64) -> RngCtx {
        RngCtx {
            rng: SeedSplitter::new(seed).stream(StreamKind::Node, stream),
        }
    }

    fn id(n: u32) -> NodeId {
        NodeId::new(n)
    }

    // ── weighted_pick unit tests ──

    #[test]
    fn weighted_pick_empty_is_none() {
        let mut ctx = rng_ctx(1, 0);
        assert_eq!(weighted_pick(std::iter::empty, true, &mut ctx), None);
        assert_eq!(weighted_pick(std::iter::empty, false, &mut ctx), None);
    }

    #[test]
    fn weighted_pick_single_always_chosen() {
        let mut ctx = rng_ctx(1, 1);
        for _ in 0..10 {
            assert_eq!(
                weighted_pick(|| [(id(4), 9)].into_iter(), true, &mut ctx),
                Some(id(4))
            );
        }
    }

    #[test]
    fn weighted_pick_biases_toward_near_members() {
        // nm=1 vs nm=8: expect roughly 8:1 preference.
        let mut ctx = rng_ctx(2, 2);
        let cands = [(id(1), 1u8), (id(2), 8u8)];
        let mut near = 0u32;
        let n = 20_000;
        for _ in 0..n {
            if weighted_pick(|| cands.into_iter(), true, &mut ctx) == Some(id(1)) {
                near += 1;
            }
        }
        let frac = near as f64 / n as f64;
        assert!((frac - 8.0 / 9.0).abs() < 0.02, "near fraction {frac}");
    }

    #[test]
    fn weighted_pick_uniform_without_locality() {
        let mut ctx = rng_ctx(3, 3);
        let cands = [(id(1), 1u8), (id(2), 8u8)];
        let mut near = 0u32;
        let n = 20_000;
        for _ in 0..n {
            if weighted_pick(|| cands.into_iter(), false, &mut ctx) == Some(id(1)) {
                near += 1;
            }
        }
        let frac = near as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "uniform fraction {frac}");
    }

    #[test]
    fn weighted_pick_handles_zero_nearest_member() {
        // nm is clamped to 1 in the weight; must not divide by zero.
        let mut ctx = rng_ctx(4, 4);
        assert!(weighted_pick(|| [(id(1), 0)].into_iter(), true, &mut ctx).is_some());
    }

    // ── select_reply_packets (the §4.4 reply rule) ──

    fn history_with(origin: u32, seqs: &[u32]) -> HistoryTable {
        let mut h = HistoryTable::new(100);
        for &s in seqs {
            push_packet(&mut h, origin, s);
        }
        h
    }

    fn request(lost: Vec<crate::PacketId>, expected: Vec<(NodeId, u32)>) -> GossipRequest {
        GossipRequest {
            group: GroupId(0),
            initiator: id(9),
            lost,
            expected,
            hops: 0,
            ttl: 8,
        }
    }

    #[test]
    fn reply_returns_exact_lost_matches() {
        let h = history_with(1, &[1, 2, 3, 4, 5]);
        let cfg = AgConfig::paper_default();
        let r = request(
            vec![
                crate::PacketId::new(id(1), 2),
                crate::PacketId::new(id(1), 4),
            ],
            vec![],
        );
        let out = select_reply_packets(&h, &r, &cfg);
        let seqs: Vec<u32> = out.iter().map(|p| p.id.seq).collect();
        assert_eq!(seqs, vec![2, 4]);
    }

    #[test]
    fn reply_skips_packets_not_in_history() {
        let h = history_with(1, &[1, 2]);
        let cfg = AgConfig::paper_default();
        let r = request(vec![crate::PacketId::new(id(1), 50)], vec![]);
        assert!(select_reply_packets(&h, &r, &cfg).is_empty());
    }

    #[test]
    fn reply_tail_recovery_starts_at_expected() {
        let h = history_with(1, &[5, 6, 7, 8, 9, 10, 11, 12]);
        let cfg = AgConfig {
            tail_recovery_max: 3,
            ..AgConfig::paper_default()
        };
        // Initiator saw nothing past seq 6 (expected == 7).
        let r = request(vec![], vec![(id(1), 7)]);
        let seqs: Vec<u32> = select_reply_packets(&h, &r, &cfg)
            .iter()
            .map(|p| p.id.seq)
            .collect();
        assert_eq!(
            seqs,
            vec![7, 8, 9],
            "oldest first, capped at tail_recovery_max"
        );
    }

    #[test]
    fn reply_deduplicates_lost_and_tail() {
        let h = history_with(1, &[5, 6, 7]);
        let cfg = AgConfig::paper_default();
        let r = request(vec![crate::PacketId::new(id(1), 5)], vec![(id(1), 5)]);
        let mut seqs: Vec<u32> = select_reply_packets(&h, &r, &cfg)
            .iter()
            .map(|p| p.id.seq)
            .collect();
        seqs.sort_unstable();
        assert_eq!(
            seqs,
            vec![5, 6, 7],
            "no duplicates across lost/tail sources"
        );
    }

    #[test]
    fn reply_respects_total_budget() {
        let h = history_with(1, &(1..=50).collect::<Vec<u32>>());
        let cfg = AgConfig {
            reply_max_packets: 4,
            ..AgConfig::paper_default()
        };
        let lost: Vec<_> = (1..=10).map(|s| crate::PacketId::new(id(1), s)).collect();
        let out = select_reply_packets(&h, &request(lost, vec![(id(1), 20)]), &cfg);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn reply_tail_recovery_covers_multiple_origins() {
        let mut h = history_with(1, &[3, 4]);
        push_packet(&mut h, 2, 7);
        let cfg = AgConfig::paper_default();
        let r = request(vec![], vec![(id(1), 3), (id(2), 7)]);
        let mut got: Vec<(u32, u32)> = select_reply_packets(&h, &r, &cfg)
            .iter()
            .map(|p| (p.id.origin.raw(), p.id.seq))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![(1, 3), (1, 4), (2, 7)]);
    }

    /// A metropolis run holds one of these per node, so a new field
    /// costs 20,000 × its size on `city_20k`: the pins make that a
    /// decision, not an accident.
    #[test]
    fn per_node_structs_stay_small() {
        use std::mem::size_of;
        let ag = size_of::<AnonymousGossip>();
        let maodv = size_of::<Maodv<AgMsg>>();
        let bare = size_of::<ag_maodv::MaodvProtocol>();
        assert!(
            ag <= 400 && maodv <= 312 && bare <= 400,
            "{ag} / {maodv} / {bare}"
        );
    }

    /// Only members and the source carry the member-only box; a
    /// router's member accessors answer from an empty value.
    #[test]
    fn routers_carry_no_member_state() {
        let router = ag_node(1, false, None);
        assert!(router.gossip.member.is_none());
        assert_eq!(router.delivery().distinct(), 0);
        assert!(router.lost_table().is_empty());
        assert!(router.member_cache().is_empty());
        assert_eq!(router.metrics().rounds_total(), 0);
        assert!(ag_node(0, true, None).gossip.member.is_some());
    }

    // ── full-stack integration ──

    /// Teleports from `a` to `b` at `at`, then back to `a` at `back`.
    #[derive(Debug)]
    struct AwayAndBack {
        a: Vec2,
        b: Vec2,
        at: SimTime,
        back: SimTime,
        phase: u8,
    }

    impl Mobility for AwayAndBack {
        fn current_leg(&self) -> ag_mobility::LegSample {
            // Per-phase jump legs; each is exact until (and past) the
            // phase's transition, when the engine re-queries.
            match self.phase {
                0 => ag_mobility::LegSample::jump(self.a, self.b, self.at),
                1 => ag_mobility::LegSample::jump(self.b, self.a, self.back),
                _ => ag_mobility::LegSample::fixed(self.a),
            }
        }
        fn next_transition(&self) -> SimTime {
            match self.phase {
                0 => self.at,
                1 => self.back,
                _ => SimTime::MAX,
            }
        }
        fn transition(&mut self, _now: SimTime, _rng: &mut SmallRng) {
            self.phase += 1;
        }
    }

    fn ag_node(i: u32, member: bool, traffic: Option<TrafficSource>) -> AnonymousGossip {
        AnonymousGossip::new(
            AgConfig::paper_default(),
            MaodvConfig::paper_default(),
            id(i),
            GroupId(0),
            member,
            traffic,
        )
    }

    #[test]
    fn stable_pair_delivers_everything_via_tree() {
        let t = TrafficSource::compact(
            SimTime::from_secs(30),
            SimDuration::from_millis(200),
            50,
            64,
        );
        let nodes = vec![
            NodeSetup {
                mobility: Box::new(Stationary::new(Vec2::new(0.0, 0.0))) as Box<dyn Mobility>,
                protocol: ag_node(0, true, Some(t)),
            },
            NodeSetup {
                mobility: Box::new(Stationary::new(Vec2::new(40.0, 0.0))),
                protocol: ag_node(1, true, None),
            },
        ];
        let mut e = Engine::new(PhyParams::paper_default(75.0), 21, nodes);
        e.run_until(SimTime::from_secs(60));
        let b = e.protocol(id(1));
        assert_eq!(b.delivery().distinct(), 50);
        // In a loss-free pair, gossip recovers little or nothing, and
        // goodput accounting stays consistent.
        assert!(b.metrics().reply_packets_useful <= b.metrics().reply_packets_received);
        // The member cache learned about the source for free.
        assert!(b.member_cache().entries().iter().any(|e| e.node == id(0)));
    }

    #[test]
    fn gossip_recovers_packets_lost_to_a_partition() {
        // A(member, source) — R — B(member). B walks away at t=40 s and
        // returns at t=70 s; the source stops sending at t≈50 s, so the
        // ~50 packets B missed can *only* arrive through gossip pull
        // (tail recovery: B saw nothing after its departure).
        let t = TrafficSource::compact(
            SimTime::from_secs(30),
            SimDuration::from_millis(200),
            100,
            64,
        );
        let nodes = vec![
            NodeSetup {
                mobility: Box::new(Stationary::new(Vec2::new(0.0, 0.0))) as Box<dyn Mobility>,
                protocol: ag_node(0, true, Some(t)),
            },
            NodeSetup {
                mobility: Box::new(Stationary::new(Vec2::new(80.0, 0.0))),
                protocol: ag_node(1, false, None),
            },
            NodeSetup {
                mobility: Box::new(AwayAndBack {
                    a: Vec2::new(160.0, 0.0),
                    b: Vec2::new(2000.0, 0.0),
                    at: SimTime::from_secs(40),
                    back: SimTime::from_secs(70),
                    phase: 0,
                }),
                protocol: ag_node(2, true, None),
            },
        ];
        let mut e = Engine::new(PhyParams::paper_default(100.0), 22, nodes);
        e.run_until(SimTime::from_secs(200));
        let b = e.protocol(id(2));
        assert!(
            b.delivery().via_gossip() > 0,
            "gossip must recover the partition loss; got {:?} tree / {:?} gossip",
            b.delivery().via_tree(),
            b.delivery().via_gossip()
        );
        assert!(
            b.delivery().distinct() >= 95,
            "nearly all 100 packets should be recovered, got {}",
            b.delivery().distinct()
        );
        // The bare tree could not have delivered what B recovered.
        assert!(b.delivery().via_tree() < 100);
    }

    #[test]
    fn goodput_accounting_is_consistent() {
        let t = TrafficSource::compact(
            SimTime::from_secs(30),
            SimDuration::from_millis(200),
            100,
            64,
        );
        let nodes = vec![
            NodeSetup {
                mobility: Box::new(Stationary::new(Vec2::new(0.0, 0.0))) as Box<dyn Mobility>,
                protocol: ag_node(0, true, Some(t)),
            },
            NodeSetup {
                mobility: Box::new(AwayAndBack {
                    a: Vec2::new(40.0, 0.0),
                    b: Vec2::new(2000.0, 0.0),
                    at: SimTime::from_secs(40),
                    back: SimTime::from_secs(60),
                    phase: 0,
                }),
                protocol: ag_node(1, true, None),
            },
        ];
        let mut e = Engine::new(PhyParams::paper_default(75.0), 23, nodes);
        e.run_until(SimTime::from_secs(150));
        let b = e.protocol(id(1));
        let m = b.metrics();
        assert!(m.reply_packets_useful <= m.reply_packets_received);
        if let Some(g) = m.goodput_percent() {
            assert!((0.0..=100.0).contains(&g));
            // Pull-based recovery with explicit ids should be mostly useful.
            assert!(g > 50.0, "goodput unexpectedly low: {g}");
        }
        assert!(m.rounds_total() > 0);
        // A useful reply packet is exactly a first delivery by gossip.
        for p in e.protocols() {
            assert_eq!(p.metrics().reply_packets_useful, p.delivery().via_gossip());
        }
    }

    /// A router's own join and repair floods draw replies that name
    /// members; only a member gossips, so the router keeps none of them.
    /// Twenty mobile nodes repair their tree often enough that non-member
    /// routers collect such replies.
    #[test]
    fn routers_keep_no_member_cache() {
        let field = Field::new(300.0, 300.0);
        let t = TrafficSource::compact(
            SimTime::from_secs(10),
            SimDuration::from_millis(200),
            100,
            64,
        );
        let nodes = (0..20u32)
            .map(|i| {
                let mut rng = SeedSplitter::new(5).stream(StreamKind::Placement, i.into());
                NodeSetup {
                    mobility: Box::new(RandomWaypoint::new(
                        field,
                        SpeedRange::new(0.5, 5.0),
                        PauseRange::uniform_secs(0.0, 2.0),
                        &mut rng,
                    )) as Box<dyn Mobility>,
                    protocol: ag_node(i, i % 3 == 0, (i == 0).then_some(t)),
                }
            })
            .collect();
        let mut e = Engine::new(PhyParams::paper_default(75.0), 5, nodes);
        e.run_until(SimTime::from_secs(40));
        assert!(
            e.counters()
                .iter()
                .any(|(k, v)| k == "maodv.repair_rreq" && v > 0),
            "the run must repair its tree"
        );
        for i in (0..20).filter(|i| i % 3 != 0) {
            assert!(e.protocol(id(i)).member_cache().is_empty(), "router {i}");
        }
    }

    #[test]
    fn non_member_nodes_relay_but_do_not_gossip() {
        let t = TrafficSource::compact(
            SimTime::from_secs(30),
            SimDuration::from_millis(200),
            20,
            64,
        );
        let nodes = vec![
            NodeSetup {
                mobility: Box::new(Stationary::new(Vec2::new(0.0, 0.0))) as Box<dyn Mobility>,
                protocol: ag_node(0, true, Some(t)),
            },
            NodeSetup {
                mobility: Box::new(Stationary::new(Vec2::new(80.0, 0.0))),
                protocol: ag_node(1, false, None),
            },
            NodeSetup {
                mobility: Box::new(Stationary::new(Vec2::new(160.0, 0.0))),
                protocol: ag_node(2, true, None),
            },
        ];
        let mut e = Engine::new(PhyParams::paper_default(100.0), 24, nodes);
        e.run_until(SimTime::from_secs(60));
        let router = e.protocol(id(1));
        assert_eq!(
            router.metrics().rounds_total(),
            0,
            "non-members never start rounds"
        );
        assert_eq!(
            router.delivery().distinct(),
            0,
            "routers do not deliver to an app"
        );
        // But the far member got everything through it.
        assert_eq!(e.protocol(id(2)).delivery().distinct(), 20);
    }

    #[test]
    fn identical_seeds_reproduce_exactly() {
        let t = TrafficSource::compact(
            SimTime::from_secs(30),
            SimDuration::from_millis(200),
            30,
            64,
        );
        let run = |seed: u64| {
            let nodes = vec![
                NodeSetup {
                    mobility: Box::new(Stationary::new(Vec2::new(0.0, 0.0))) as Box<dyn Mobility>,
                    protocol: ag_node(0, true, Some(t)),
                },
                NodeSetup {
                    mobility: Box::new(Stationary::new(Vec2::new(70.0, 0.0))),
                    protocol: ag_node(1, true, None),
                },
                NodeSetup {
                    mobility: Box::new(Stationary::new(Vec2::new(140.0, 0.0))),
                    protocol: ag_node(2, true, None),
                },
            ];
            let mut e = Engine::new(PhyParams::paper_default(90.0), seed, nodes);
            e.run_until(SimTime::from_secs(60));
            (0..3u32)
                .map(|i| {
                    let p = e.protocol(id(i));
                    (
                        p.delivery().distinct(),
                        p.metrics().rounds,
                        p.metrics().reply_packets_received,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(99), run(99));
    }

    /// Forwards every handler to the wrapped stack; `prefetch` only
    /// when `FORWARD` (counting the calls), else the trait's default
    /// no-op.
    #[derive(Debug)]
    struct Wrap<const FORWARD: bool> {
        ag: AnonymousGossip,
        prefetches: std::cell::Cell<u64>,
    }

    impl<const FORWARD: bool> Protocol for Wrap<FORWARD> {
        type Msg = MaodvMsg<AgMsg>;

        fn start<C: MaodvCtx<AgMsg>>(&mut self, api: &mut C) {
            self.ag.start(api);
        }
        fn on_packet<C: MaodvCtx<AgMsg>>(
            &mut self,
            api: &mut C,
            from: NodeId,
            msg: Self::Msg,
            rx: RxKind,
        ) {
            self.ag.on_packet(api, from, msg, rx);
        }
        fn on_timer<C: MaodvCtx<AgMsg>>(&mut self, api: &mut C, key: TimerKey) {
            self.ag.on_timer(api, key);
        }
        fn on_send_failure<C: MaodvCtx<AgMsg>>(&mut self, api: &mut C, to: NodeId, msg: Self::Msg) {
            self.ag.on_send_failure(api, to, msg);
        }
        fn prefetch(&self, from: NodeId, msg: &Self::Msg) {
            if FORWARD {
                self.prefetches.set(self.prefetches.get() + 1);
                self.ag.prefetch(from, msg);
            }
        }
    }

    /// `Protocol::prefetch` cannot change a result by construction
    /// (`&self`, no context); this pins it on a churny gossip run —
    /// join floods, data, gossip rounds, send failures — by running it
    /// with the pre-pass and without. The engine runs the pre-pass only
    /// above `PREFETCH_ABOVE_NODES` nodes, so 60 mobile nodes do the
    /// work and stationary ones, each out of everyone's range, fill
    /// the engine past that count.
    #[test]
    fn prefetch_is_inert() {
        type Digest = (Vec<String>, Vec<(&'static str, u64)>, u64, u64);
        fn run<const FORWARD: bool>() -> (Digest, u64) {
            let field = Field::new(400.0, 400.0);
            let t = TrafficSource::compact(
                SimTime::from_secs(10),
                SimDuration::from_millis(200),
                100,
                64,
            );
            let nodes = (0..=ag_net::PREFETCH_ABOVE_NODES as u32)
                .map(|i| {
                    let mut rng = SeedSplitter::new(5).stream(StreamKind::Placement, i.into());
                    let mobility: Box<dyn Mobility> = if i < 60 {
                        Box::new(RandomWaypoint::new(
                            field,
                            SpeedRange::new(0.5, 5.0),
                            PauseRange::uniform_secs(0.0, 2.0),
                            &mut rng,
                        ))
                    } else {
                        let (x, y) = (f64::from(i % 64), f64::from(i / 64));
                        Box::new(Stationary::new(Vec2::new(600.0 + 100.0 * x, 100.0 * y)))
                    };
                    NodeSetup {
                        mobility,
                        protocol: Wrap::<FORWARD> {
                            ag: ag_node(i, i < 60 && i % 3 == 0, (i == 0).then_some(t)),
                            prefetches: Default::default(),
                        },
                    }
                })
                .collect();
            let phy = PhyParams::paper_default(75.0).with_churn(ChurnParams::new(15.0, 3.0));
            let mut e = Engine::new(phy, 5, nodes);
            e.run_until(SimTime::from_secs(40));
            let digest = (
                e.protocols()
                    .iter()
                    .map(|p| format!("{:?}", p.ag))
                    .collect(),
                e.counters().iter().collect(),
                e.events_processed(),
                e.events_scheduled(),
            );
            (
                digest,
                e.protocols().iter().map(|p| p.prefetches.get()).sum(),
            )
        }
        let ((with, prefetches), (without, _)) = (run::<true>(), run::<false>());
        assert!(prefetches > 0, "the pre-pass must run");
        assert!(
            with.1.iter().any(|&(k, v)| k == "ag.recovered" && v > 0)
                && with.1.iter().any(|&(k, v)| k == "churn.fail" && v > 0),
            "scenario must churn and gossip: {:?}",
            with.1
        );
        assert_eq!(with, without);
    }
}
