//! The bare-MAODV protocol stack: the paper's *baseline* series.
//!
//! [`MaodvProtocol`] adapts [`Maodv`] to [`ag_net::Protocol`] with no
//! gossip layer: whatever the tree delivers is what a member gets. The
//! optional [`TrafficSource`] reproduces the paper's traffic model (64-
//! byte payloads every 200 ms from t = 120 s to t = 560 s).

use ag_net::{Message, NodeId, ProtoCtx, Protocol, RxKind, TimerKey};
use ag_sim::{ConfigError, SimDuration, SimTime};

use crate::delivery::{DeliveryLog, DeliveryPath};
use crate::node::{Maodv, Upcall, TIMER_USER_BASE};
use crate::{GroupId, MaodvConfig, MaodvMsg, NoExt};

/// Timer key used by the traffic generator.
const TIMER_TRAFFIC: TimerKey = TIMER_USER_BASE;

/// The paper's constant-bit-rate multicast source.
///
/// # Example
///
/// ```
/// use ag_maodv::TrafficSource;
/// let t = TrafficSource::paper();
/// assert_eq!(t.packet_count(), 2201);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TrafficSource {
    /// First packet at this time.
    pub start: SimTime,
    /// Last packet at or before this time.
    pub end: SimTime,
    /// Inter-packet interval.
    pub interval: SimDuration,
    /// Payload bytes per packet.
    pub payload_len: u16,
}

impl TrafficSource {
    /// The paper's §5.1 source: 64-byte packets every 200 ms from 120 s
    /// to 560 s (2201 packets).
    pub fn paper() -> Self {
        TrafficSource {
            start: SimTime::from_secs(120),
            end: SimTime::from_secs(560),
            interval: SimDuration::from_millis(200),
            payload_len: 64,
        }
    }

    /// A compressed source for tests/benches: `n` packets every
    /// `interval` starting at `start`. With `n = 0` it ends before it
    /// starts (one interval late), so it sends nothing.
    pub fn compact(start: SimTime, interval: SimDuration, n: u32, payload_len: u16) -> Self {
        let (start, end) = match n.checked_sub(1) {
            Some(last) => (start, start + interval * last as u64),
            None => (start + interval, start),
        };
        TrafficSource {
            start,
            end,
            interval,
            payload_len,
        }
    }

    /// Checks the one rule: the timer re-arms one interval ahead, so the
    /// interval is above zero. [`TrafficSource::arm`] expects it to pass.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::nonzero("TrafficSource.interval", self.interval)
    }

    /// Number of packets this source will emit (a division by the
    /// interval, which [`TrafficSource::validate`] holds above zero).
    pub fn packet_count(&self) -> u64 {
        if self.end < self.start {
            return 0;
        }
        self.end.duration_since(self.start).as_nanos() / self.interval.as_nanos() + 1
    }

    /// Enters a run: arms the first packet's timer under `key`, which
    /// the stack hands to [`TrafficSource::tick`] when it fires. Panics
    /// if the source fails [`TrafficSource::validate`].
    pub fn arm<M: Message, C: ProtoCtx<M>>(&self, api: &mut C, key: TimerKey) {
        self.validate().expect("TrafficSource::arm");
        api.set_timer(self.start.duration_since(SimTime::ZERO), key);
    }

    /// The timer under `key` fired: while the source is on (`now <=
    /// end`), `send` emits one packet and the timer re-arms one interval
    /// ahead.
    pub fn tick<M: Message, C: ProtoCtx<M>>(
        &self,
        api: &mut C,
        key: TimerKey,
        send: impl FnOnce(&mut C),
    ) {
        if api.now() <= self.end {
            send(api);
            api.set_timer(self.interval, key);
        }
    }
}

/// MAODV + (optional) traffic source + delivery accounting.
///
/// # Example
///
/// ```
/// use ag_maodv::{MaodvProtocol, MaodvConfig, GroupId, TrafficSource};
/// use ag_net::{Engine, NodeSetup, NodeId, PhyParams};
/// use ag_mobility::{Stationary, Vec2};
/// use ag_sim::{SimTime, SimDuration};
///
/// let cfg = MaodvConfig::paper_default();
/// let g = GroupId(0);
/// let src = TrafficSource::compact(SimTime::from_secs(30), SimDuration::from_millis(200), 20, 64);
/// let nodes = vec![
///     NodeSetup {
///         mobility: Box::new(Stationary::new(Vec2::new(0.0, 0.0))),
///         protocol: MaodvProtocol::new(cfg, NodeId::new(0), g, true, Some(src)),
///     },
///     NodeSetup {
///         mobility: Box::new(Stationary::new(Vec2::new(40.0, 0.0))),
///         protocol: MaodvProtocol::new(cfg, NodeId::new(1), g, true, None),
///     },
/// ];
/// let mut e = Engine::new(PhyParams::paper_default(75.0), 7, nodes);
/// e.run_until(SimTime::from_secs(40));
/// let member = e.protocol(NodeId::new(1));
/// assert_eq!(member.delivery().distinct(), 20);
/// ```
#[derive(Debug, Clone, Hash)]
pub struct MaodvProtocol {
    node: Maodv<NoExt>,
    delivery: DeliveryLog,
    traffic: Option<TrafficSource>,
}

impl MaodvProtocol {
    /// Creates a node; `traffic` makes it the group's CBR source.
    pub fn new(
        cfg: MaodvConfig,
        id: NodeId,
        group: GroupId,
        is_member: bool,
        traffic: Option<TrafficSource>,
    ) -> Self {
        MaodvProtocol {
            node: Maodv::new(cfg, id, group, is_member),
            delivery: DeliveryLog::new(),
            traffic,
        }
    }

    /// The underlying routing state.
    pub fn node(&self) -> &Maodv<NoExt> {
        &self.node
    }

    /// Mutable access to the underlying routing state, exposed only so
    /// the `ag-check` canary tests can arm seeded bugs before a run.
    #[cfg(any(test, feature = "bug-canary"))]
    pub fn node_mut(&mut self) -> &mut Maodv<NoExt> {
        &mut self.node
    }

    /// Packets this member has received (distinct, de-duplicated).
    pub fn delivery(&self) -> &DeliveryLog {
        &self.delivery
    }
}

impl Protocol for MaodvProtocol {
    type Msg = MaodvMsg<NoExt>;

    fn start<C: ProtoCtx<Self::Msg>>(&mut self, api: &mut C) {
        self.node.start(api);
        if let Some(t) = self.traffic {
            t.arm(api, TIMER_TRAFFIC);
        }
    }

    fn on_packet<C: ProtoCtx<Self::Msg>>(
        &mut self,
        api: &mut C,
        from: NodeId,
        msg: Self::Msg,
        _rx: RxKind,
    ) {
        // The baseline only keeps deliveries.
        if let Some(Upcall::DataReceived { origin, seq, .. }) = self.node.on_packet(api, from, msg)
        {
            self.delivery.record(origin, seq, DeliveryPath::Tree);
        }
    }

    fn on_timer<C: ProtoCtx<Self::Msg>>(&mut self, api: &mut C, key: TimerKey) {
        if !self.node.on_timer(api, key) && key == TIMER_TRAFFIC {
            if let Some(t) = self.traffic {
                t.tick(api, TIMER_TRAFFIC, |api| {
                    let seq = self.node.send_data(api, t.payload_len);
                    // The origin trivially "receives" its own packet.
                    self.delivery
                        .record(self.node.id(), seq, DeliveryPath::Tree);
                });
            }
        }
    }

    fn on_send_failure<C: ProtoCtx<Self::Msg>>(&mut self, api: &mut C, to: NodeId, msg: Self::Msg) {
        self.node.on_send_failure(api, to, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_mobility::{Mobility, Vec2};
    use ag_net::{Engine, NodeSetup, PhyParams};
    use ag_sim::SimTime;
    use rand::rngs::SmallRng;

    fn stationary(x: f64, y: f64) -> Box<dyn Mobility> {
        Box::new(ag_mobility::Stationary::new(Vec2::new(x, y)))
    }

    /// Teleports from `a` to `b` at time `at` (deterministic link break).
    #[derive(Debug)]
    struct TeleportAt {
        a: Vec2,
        b: Vec2,
        at: SimTime,
        done: bool,
    }

    impl Mobility for TeleportAt {
        fn current_leg(&self) -> ag_mobility::LegSample {
            // The jump leg describes the whole trajectory exactly (the
            // 1 ns "travel" window contains no queryable instant).
            ag_mobility::LegSample::jump(self.a, self.b, self.at)
        }
        fn next_transition(&self) -> SimTime {
            if self.done {
                SimTime::MAX
            } else {
                self.at
            }
        }
        fn transition(&mut self, _now: SimTime, _rng: &mut SmallRng) {
            self.done = true;
        }
    }

    fn build(
        positions: &[(f64, f64)],
        members: &[usize],
        source: usize,
        traffic: TrafficSource,
        range: f64,
        seed: u64,
    ) -> Engine<MaodvProtocol> {
        let cfg = MaodvConfig::paper_default();
        let g = GroupId(0);
        let nodes = positions
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| NodeSetup {
                mobility: stationary(x, y),
                protocol: MaodvProtocol::new(
                    cfg,
                    NodeId::new(i as u32),
                    g,
                    members.contains(&i),
                    (i == source).then_some(traffic),
                ),
            })
            .collect();
        Engine::new(PhyParams::paper_default(range), seed, nodes)
    }

    #[test]
    fn traffic_source_packet_counts() {
        assert_eq!(TrafficSource::paper().packet_count(), 2201);
        let every = SimDuration::from_millis(100);
        for (n, start) in [(7, 1), (1, 1), (0, 1), (0, 0)] {
            let c = TrafficSource::compact(SimTime::from_secs(start), every, n, 64);
            assert_eq!(c.packet_count(), n as u64, "n = {n} from {start} s");
        }
    }

    #[test]
    fn zero_interval_source_is_refused() {
        let t = TrafficSource::compact(SimTime::from_secs(1), SimDuration::ZERO, 5, 64);
        assert_eq!(t.validate().unwrap_err().field, "TrafficSource.interval");
        assert_eq!(TrafficSource::paper().validate(), Ok(()));
    }

    #[test]
    fn single_member_becomes_leader() {
        let t =
            TrafficSource::compact(SimTime::from_secs(30), SimDuration::from_millis(200), 1, 64);
        let mut e = build(&[(0.0, 0.0), (40.0, 0.0)], &[0], 0, t, 75.0, 1);
        e.run_until(SimTime::from_secs(20));
        assert!(e.protocol(NodeId::new(0)).node().is_leader());
        assert!(e.protocol(NodeId::new(0)).node().on_tree());
        // The non-member never joins on its own.
        assert!(!e.protocol(NodeId::new(1)).node().on_tree());
    }

    #[test]
    fn two_members_form_tree_and_deliver() {
        let t = TrafficSource::compact(
            SimTime::from_secs(30),
            SimDuration::from_millis(200),
            25,
            64,
        );
        let mut e = build(&[(0.0, 0.0), (40.0, 0.0)], &[0, 1], 0, t, 75.0, 2);
        e.run_until(SimTime::from_secs(40));
        let a = e.protocol(NodeId::new(0)).node();
        let b = e.protocol(NodeId::new(1)).node();
        assert!(a.on_tree() && b.on_tree());
        // Exactly one leader.
        assert_eq!(
            [a.is_leader(), b.is_leader()]
                .iter()
                .filter(|&&l| l)
                .count(),
            1
        );
        // All 25 packets at the non-source member.
        assert_eq!(e.protocol(NodeId::new(1)).delivery().distinct(), 25);
    }

    #[test]
    fn chain_delivery_through_router() {
        // A(member/source) — R(router) — B(member); 80 m hops, 100 m range:
        // A and B cannot hear each other directly (160 m apart).
        let t = TrafficSource::compact(
            SimTime::from_secs(30),
            SimDuration::from_millis(200),
            30,
            64,
        );
        let mut e = build(
            &[(0.0, 0.0), (80.0, 0.0), (160.0, 0.0)],
            &[0, 2],
            0,
            t,
            100.0,
            3,
        );
        e.run_until(SimTime::from_secs(40));
        let r = e.protocol(NodeId::new(1)).node();
        assert!(r.on_tree(), "router must be grafted");
        assert!(!r.is_member());
        let b = e.protocol(NodeId::new(2));
        assert_eq!(b.delivery().distinct(), 30, "all packets relayed through R");
        // The router's nearest_member values: members on both sides, 1 hop.
        let nm: Vec<u8> = r.mrt().enabled().map(|h| h.nearest_member).collect();
        assert_eq!(nm.len(), 2);
        assert!(
            nm.iter().all(|&v| v == 1),
            "both tree neighbours are members: {nm:?}"
        );
    }

    #[test]
    fn nearest_member_propagates_down_a_chain() {
        // M(member) — R1 — R2 — M2(member): four hops of 70 m, range 90.
        // R2's nearest member via R1 must converge to 2.
        let t = TrafficSource::compact(
            SimTime::from_secs(30),
            SimDuration::from_millis(500),
            10,
            64,
        );
        let mut e = build(
            &[(0.0, 0.0), (70.0, 0.0), (140.0, 0.0), (210.0, 0.0)],
            &[0, 3],
            0,
            t,
            90.0,
            4,
        );
        e.run_until(SimTime::from_secs(40));
        let r2 = e.protocol(NodeId::new(2)).node();
        assert!(r2.on_tree());
        let via_r1 = r2.mrt().next_hop(NodeId::new(1)).expect("tree edge to R1");
        assert_eq!(via_r1.nearest_member, 2, "member M is 2 hops past R1");
        let via_m2 = r2.mrt().next_hop(NodeId::new(3)).expect("tree edge to M2");
        assert_eq!(via_m2.nearest_member, 1);
    }

    #[test]
    fn partition_elects_second_leader() {
        // A and B adjacent; B teleports out of range at t=60 s. B must
        // detect the break and become leader of its own partition.
        let cfg = MaodvConfig::paper_default();
        let g = GroupId(0);
        let t =
            TrafficSource::compact(SimTime::from_secs(30), SimDuration::from_millis(200), 5, 64);
        let nodes = vec![
            NodeSetup {
                mobility: stationary(0.0, 0.0),
                protocol: MaodvProtocol::new(cfg, NodeId::new(0), g, true, Some(t)),
            },
            NodeSetup {
                mobility: Box::new(TeleportAt {
                    a: Vec2::new(40.0, 0.0),
                    b: Vec2::new(1000.0, 0.0),
                    at: SimTime::from_secs(60),
                    done: false,
                }),
                protocol: MaodvProtocol::new(cfg, NodeId::new(1), g, true, None),
            },
        ];
        let mut e = Engine::new(PhyParams::paper_default(75.0), 5, nodes);
        e.run_until(SimTime::from_secs(120));
        let a = e.protocol(NodeId::new(0)).node();
        let b = e.protocol(NodeId::new(1)).node();
        assert!(a.is_leader() || b.is_leader());
        // Both partitions end up led: each node is its own partition now.
        assert!(a.is_leader(), "A alone must lead its partition");
        assert!(b.is_leader(), "B must take over after losing its upstream");
    }

    #[test]
    fn grph_merges_two_partitions() {
        // Members A(0 m) and B(160 m) are out of range (range 100) and both
        // become leaders; router R(80 m) hears both. GRPH floods relayed by
        // R must make the higher-id leader defer and graft through R.
        let t = TrafficSource::compact(
            SimTime::from_secs(60),
            SimDuration::from_millis(200),
            40,
            64,
        );
        let mut e = build(
            &[(0.0, 0.0), (80.0, 0.0), (160.0, 0.0)],
            &[0, 2],
            0,
            t,
            100.0,
            6,
        );
        e.run_until(SimTime::from_secs(90));
        let a = e.protocol(NodeId::new(0)).node();
        let b = e.protocol(NodeId::new(2)).node();
        let leaders = [a.is_leader(), b.is_leader()]
            .iter()
            .filter(|&&l| l)
            .count();
        assert_eq!(leaders, 1, "exactly one leader after merge");
        // Data must flow across the merged tree.
        assert!(
            e.protocol(NodeId::new(2)).delivery().distinct() >= 35,
            "most packets must cross the merged tree, got {}",
            e.protocol(NodeId::new(2)).delivery().distinct()
        );
    }

    #[test]
    fn source_counts_its_own_packets() {
        let t = TrafficSource::compact(
            SimTime::from_secs(30),
            SimDuration::from_millis(200),
            10,
            64,
        );
        let mut e = build(&[(0.0, 0.0), (40.0, 0.0)], &[0, 1], 0, t, 75.0, 7);
        e.run_until(SimTime::from_secs(40));
        assert_eq!(e.protocol(NodeId::new(0)).delivery().distinct(), 10);
    }

    #[test]
    fn tree_connected_tracks_grph_flow() {
        // In a stable 2-member pair, both ends must report a proven path
        // to the leader once group hellos have flowed.
        let t =
            TrafficSource::compact(SimTime::from_secs(30), SimDuration::from_millis(200), 5, 64);
        let mut e = build(&[(0.0, 0.0), (40.0, 0.0)], &[0, 1], 0, t, 75.0, 31);
        e.run_until(SimTime::from_secs(40));
        let now = e.now();
        assert!(e.protocol(NodeId::new(0)).node().tree_connected(now));
        assert!(e.protocol(NodeId::new(1)).node().tree_connected(now));
    }

    #[test]
    fn partitioned_node_loses_tree_connectivity_before_leading() {
        // After B teleports away it must first observe loss of tree
        // connectivity, then become its own leader (and thus connected
        // again). Run long enough for the takeover: B ends up leader.
        let cfg = MaodvConfig::paper_default();
        let g = GroupId(0);
        let t =
            TrafficSource::compact(SimTime::from_secs(30), SimDuration::from_millis(200), 5, 64);
        let nodes = vec![
            NodeSetup {
                mobility: stationary(0.0, 0.0),
                protocol: MaodvProtocol::new(cfg, NodeId::new(0), g, true, Some(t)),
            },
            NodeSetup {
                mobility: Box::new(TeleportAt {
                    a: Vec2::new(40.0, 0.0),
                    b: Vec2::new(1500.0, 0.0),
                    at: SimTime::from_secs(50),
                    done: false,
                }),
                protocol: MaodvProtocol::new(cfg, NodeId::new(1), g, true, None),
            },
        ];
        let mut e = Engine::new(PhyParams::paper_default(75.0), 33, nodes);
        e.run_until(SimTime::from_secs(120));
        let b = e.protocol(NodeId::new(1)).node();
        assert!(b.is_leader());
        assert!(b.tree_connected(e.now()), "a leader is trivially connected");
    }

    #[test]
    fn useless_router_prunes_itself_after_member_leaves() {
        // A(member) — R — B, a 2-hop chain where B is not a member and
        // never joins, so R never grafts: the tree must not contain R.
        let t =
            TrafficSource::compact(SimTime::from_secs(30), SimDuration::from_millis(500), 5, 64);
        let mut e = build(
            &[(0.0, 0.0), (80.0, 0.0), (160.0, 0.0)],
            &[0],
            0,
            t,
            100.0,
            34,
        );
        e.run_until(SimTime::from_secs(60));
        assert!(
            !e.protocol(NodeId::new(1)).node().on_tree(),
            "router with no member below must not persist on tree"
        );
        assert!(!e.protocol(NodeId::new(2)).node().on_tree());
    }

    #[test]
    fn rrep_loops_are_cut() {
        // Sanity: the loop guard counter exists and stays zero in a
        // healthy static network (no stale reverse routes).
        let t = TrafficSource::compact(
            SimTime::from_secs(30),
            SimDuration::from_millis(200),
            10,
            64,
        );
        let mut e = build(
            &[(0.0, 0.0), (60.0, 0.0), (120.0, 0.0)],
            &[0, 2],
            0,
            t,
            90.0,
            35,
        );
        e.run_until(SimTime::from_secs(60));
        assert_eq!(e.counters().get("maodv.rrep_loop_dropped"), 0);
    }

    #[test]
    fn spurious_prune_recovers_via_rejoin() {
        // Even if transient collisions cause spurious link breaks and
        // prunes, members must end fully re-joined in a static topology.
        let t = TrafficSource::compact(
            SimTime::from_secs(60),
            SimDuration::from_millis(200),
            300,
            64,
        );
        let mut e = build(
            &[
                (0.0, 0.0),
                (70.0, 0.0),
                (140.0, 0.0),
                (70.0, 70.0),
                (140.0, 70.0),
            ],
            &[0, 2, 4],
            0,
            t,
            90.0,
            36,
        );
        e.run_until(SimTime::from_secs(180));
        for m in [0u32, 2, 4] {
            assert!(
                e.protocol(NodeId::new(m)).node().on_tree(),
                "member {m} must be (re)joined"
            );
        }
        // Delivery must be near-total despite any transient churn.
        for m in [2u32, 4] {
            let got = e.protocol(NodeId::new(m)).delivery().distinct();
            assert!(got >= 290, "member {m} got only {got}/300");
        }
    }

    #[test]
    fn runs_deterministic_end_to_end() {
        let t = TrafficSource::compact(
            SimTime::from_secs(30),
            SimDuration::from_millis(200),
            20,
            64,
        );
        let run = |seed| {
            let mut e = build(
                &[(0.0, 0.0), (60.0, 0.0), (120.0, 0.0), (60.0, 60.0)],
                &[0, 2, 3],
                0,
                t,
                90.0,
                seed,
            );
            e.run_until(SimTime::from_secs(45));
            (
                e.protocol(NodeId::new(2)).delivery().distinct(),
                e.protocol(NodeId::new(3)).delivery().distinct(),
                e.counters().iter().collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(11), run(11));
        // Different seed may differ in details but must still deliver.
        let (d2, d3, _) = run(12);
        assert!(d2 > 0 && d3 > 0);
    }
}
