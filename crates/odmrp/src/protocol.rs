//! The ODMRP node: soft-state mesh multicast.

use ag_sim::hash::DetHashMap as HashMap;

use ag_maodv::delivery::{DeliveryLog, DeliveryPath};
use ag_maodv::seen::{FloodRelay, SeenCache};
use ag_maodv::{GroupId, TrafficSource};
use ag_net::{NodeId, ProtoCtx, Protocol, RxKind, TimerKey};
use ag_sim::{SimDuration, SimTime};

use crate::{counters, OdmrpConfig, OdmrpMsg};

const TIMER_QUERY: TimerKey = 1;
const TIMER_TRAFFIC: TimerKey = 2;
const TIMER_RELAY: TimerKey = 3;

/// Backward-learning entry: how to reach `source` (learned from its
/// Join-Query flood).
#[derive(Debug, Clone, Copy, Hash)]
struct BackRoute {
    prev_hop: NodeId,
    expires: SimTime,
}

/// One ODMRP node (member, source, forwarding-group node or bystander).
///
/// # Example
///
/// ```
/// use ag_odmrp::{OdmrpProtocol, OdmrpConfig};
/// use ag_maodv::{GroupId, TrafficSource};
/// use ag_net::{Engine, NodeSetup, NodeId, PhyParams};
/// use ag_mobility::{Stationary, Vec2};
/// use ag_sim::{SimTime, SimDuration};
///
/// let cfg = OdmrpConfig::default_paper();
/// let t = TrafficSource::compact(SimTime::from_secs(20), SimDuration::from_millis(200), 25, 64);
/// let nodes = vec![
///     NodeSetup {
///         mobility: Box::new(Stationary::new(Vec2::new(0.0, 0.0))),
///         protocol: OdmrpProtocol::new(cfg, NodeId::new(0), GroupId(0), true, Some(t)),
///     },
///     NodeSetup {
///         mobility: Box::new(Stationary::new(Vec2::new(40.0, 0.0))),
///         protocol: OdmrpProtocol::new(cfg, NodeId::new(1), GroupId(0), true, None),
///     },
/// ];
/// let mut e = Engine::new(PhyParams::paper_default(75.0), 5, nodes);
/// e.run_until(SimTime::from_secs(30));
/// assert_eq!(e.protocol(NodeId::new(1)).delivery().distinct(), 25);
/// ```
#[derive(Debug, Clone, Hash)]
pub struct OdmrpProtocol {
    cfg: OdmrpConfig,
    id: NodeId,
    group: GroupId,
    is_member: bool,
    traffic: Option<TrafficSource>,
    /// Forwarding-group membership expires here (soft state).
    fg_until: SimTime,
    query_round: u32,
    data_seq: u32,
    back_routes: HashMap<NodeId, BackRoute>,
    query_seen: SeenCache<(NodeId, u32)>,
    /// Join-Replies already propagated, per (source, round).
    reply_sent: SeenCache<(NodeId, u32)>,
    data_seen: SeenCache<(NodeId, u32)>,
    delivery: DeliveryLog,
    relay: FloodRelay<OdmrpMsg>,
    /// Seeded-bug canary (always `false` in production): when set, a
    /// Join-Reply nominating this node does *not* refresh `fg_until`,
    /// so the forwarding group silently decays. `ag-check` asserts its
    /// delivery property catches exactly this mutation.
    canary_skip_fg_refresh: bool,
}

impl OdmrpProtocol {
    /// Creates a node; `traffic` makes it a multicast source. Panics if
    /// `cfg` fails [`OdmrpConfig::validate`].
    pub fn new(
        cfg: OdmrpConfig,
        id: NodeId,
        group: GroupId,
        is_member: bool,
        traffic: Option<TrafficSource>,
    ) -> Self {
        cfg.validate().expect("OdmrpProtocol::new");
        OdmrpProtocol {
            cfg,
            id,
            group,
            is_member,
            traffic,
            fg_until: SimTime::ZERO,
            query_round: 0,
            data_seq: 0,
            back_routes: HashMap::default(),
            query_seen: SeenCache::new(cfg.seen_capacity),
            reply_sent: SeenCache::new(cfg.seen_capacity),
            data_seen: SeenCache::new(cfg.seen_capacity),
            delivery: DeliveryLog::new(),
            relay: FloodRelay::default(),
            canary_skip_fg_refresh: false,
        }
    }

    /// Packets this member received (de-duplicated).
    pub fn delivery(&self) -> &DeliveryLog {
        &self.delivery
    }

    /// Whether the node is currently in the forwarding group.
    pub fn in_forwarding_group(&self, now: SimTime) -> bool {
        self.fg_until > now
    }

    /// Whether this node is a group member.
    pub fn is_member(&self) -> bool {
        self.is_member
    }

    /// Arms the skip-FG-refresh seeded bug (model-checking canary only).
    #[cfg(any(test, feature = "bug-canary"))]
    pub fn canary_skip_fg_refresh(&mut self) {
        self.canary_skip_fg_refresh = true;
    }

    fn flood_query<C: ProtoCtx<OdmrpMsg>>(&mut self, api: &mut C) {
        self.query_round += 1;
        self.query_seen.insert((self.id, self.query_round));
        api.bump(counters::QUERY_ORIGINATED);
        api.broadcast(OdmrpMsg::JoinQuery {
            group: self.group,
            source: self.id,
            round: self.query_round,
            hops: 0,
            ttl: self.cfg.flood_ttl,
        });
    }

    /// Sends the Join-Reply nominating our backward hop toward `source`
    /// (members answer queries; forwarding-group nodes cascade).
    fn send_reply<C: ProtoCtx<OdmrpMsg>>(&mut self, api: &mut C, source: NodeId, round: u32) {
        if source == self.id {
            return;
        }
        if !self.reply_sent.insert((source, round)) {
            return;
        }
        let Some(route) = self.back_routes.get(&source) else {
            return;
        };
        if route.expires <= api.now() {
            return;
        }
        api.bump(counters::REPLY_SENT);
        api.broadcast(OdmrpMsg::JoinReply {
            group: self.group,
            source,
            round,
            next_hop: route.prev_hop,
        });
    }
}

impl Protocol for OdmrpProtocol {
    type Msg = OdmrpMsg;

    fn start<C: ProtoCtx<OdmrpMsg>>(&mut self, api: &mut C) {
        if let Some(t) = self.traffic {
            // Queries lead the data by one interval so the mesh exists
            // when the first packet goes out.
            let lead = t
                .start
                .duration_since(SimTime::ZERO)
                .as_nanos()
                .saturating_sub(self.cfg.query_interval.as_nanos());
            api.set_timer(SimDuration::from_nanos(lead), TIMER_QUERY);
            t.arm(api, TIMER_TRAFFIC);
        }
    }

    fn on_packet<C: ProtoCtx<OdmrpMsg>>(
        &mut self,
        api: &mut C,
        from: NodeId,
        msg: OdmrpMsg,
        _rx: RxKind,
    ) {
        let now = api.now();
        match msg {
            OdmrpMsg::JoinQuery {
                group,
                source,
                round,
                hops,
                ttl,
            } => {
                if group != self.group || source == self.id {
                    return;
                }
                if !self.query_seen.insert((source, round)) {
                    return;
                }
                // Backward learning.
                self.back_routes.insert(
                    source,
                    BackRoute {
                        prev_hop: from,
                        expires: now + self.cfg.route_lifetime,
                    },
                );
                if self.is_member {
                    self.send_reply(api, source, round);
                }
                let copy = |hops, ttl| OdmrpMsg::JoinQuery {
                    group,
                    source,
                    round,
                    hops,
                    ttl,
                };
                if self.relay.relay(api, TIMER_RELAY, hops, ttl, copy) {
                    api.bump(counters::QUERY_RELAYED);
                }
            }
            OdmrpMsg::JoinReply {
                group,
                source,
                round,
                next_hop,
            } => {
                if group != self.group {
                    return;
                }
                // Someone nominated us: we are (still) forwarding group.
                if next_hop == self.id && source != self.id {
                    if !self.canary_skip_fg_refresh {
                        self.fg_until = now + self.cfg.fg_lifetime;
                        api.bump(counters::FG_REFRESHED);
                    }
                    self.send_reply(api, source, round);
                }
            }
            OdmrpMsg::Data {
                group, source, seq, ..
            } => {
                if group != self.group || source == self.id {
                    return;
                }
                if !self.data_seen.insert((source, seq)) {
                    api.bump(counters::DATA_DUPLICATE);
                    return;
                }
                if self.is_member {
                    self.delivery.record(source, seq, DeliveryPath::Tree);
                }
                if self.in_forwarding_group(now) {
                    api.bump(counters::DATA_FORWARDED);
                    // Jittered: redundant mesh forwarders are often
                    // mutually hidden, and synchronized forwards would
                    // collide at the receivers between them.
                    self.relay.queue(api, TIMER_RELAY, msg);
                }
            }
        }
    }

    fn on_timer<C: ProtoCtx<OdmrpMsg>>(&mut self, api: &mut C, key: TimerKey) {
        match key {
            TIMER_QUERY => {
                if let Some(t) = self.traffic {
                    if api.now() <= t.end {
                        self.flood_query(api);
                        api.set_timer(self.cfg.query_interval, TIMER_QUERY);
                    }
                }
            }
            TIMER_TRAFFIC => {
                if let Some(t) = self.traffic {
                    t.tick(api, TIMER_TRAFFIC, |api| {
                        self.data_seq += 1;
                        self.data_seen.insert((self.id, self.data_seq));
                        self.delivery
                            .record(self.id, self.data_seq, DeliveryPath::Tree);
                        api.bump(counters::DATA_ORIGINATED);
                        api.broadcast(OdmrpMsg::Data {
                            group: self.group,
                            source: self.id,
                            seq: self.data_seq,
                            payload_len: t.payload_len,
                        });
                    });
                }
            }
            TIMER_RELAY => self.relay.drain(api),
            _ => {}
        }
    }

    fn on_send_failure<C: ProtoCtx<OdmrpMsg>>(
        &mut self,
        _api: &mut C,
        _to: NodeId,
        _msg: OdmrpMsg,
    ) {
        // ODMRP is broadcast-only; nothing unicasts, so nothing fails.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_mobility::{Mobility, Stationary, Vec2};
    use ag_net::{Engine, NodeSetup, PhyParams};

    fn stationary(x: f64, y: f64) -> Box<dyn Mobility> {
        Box::new(Stationary::new(Vec2::new(x, y)))
    }

    fn build(
        positions: &[(f64, f64)],
        members: &[usize],
        source: usize,
        traffic: TrafficSource,
        range: f64,
        seed: u64,
    ) -> Engine<OdmrpProtocol> {
        let cfg = OdmrpConfig::default_paper();
        let nodes = positions
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| NodeSetup {
                mobility: stationary(x, y),
                protocol: OdmrpProtocol::new(
                    cfg,
                    NodeId::new(i as u32),
                    GroupId(0),
                    members.contains(&i),
                    (i == source).then_some(traffic),
                ),
            })
            .collect();
        Engine::new(PhyParams::paper_default(range), seed, nodes)
    }

    #[test]
    fn adjacent_members_deliver_without_forwarding_group() {
        let t = TrafficSource::compact(
            SimTime::from_secs(20),
            SimDuration::from_millis(200),
            30,
            64,
        );
        let mut e = build(&[(0.0, 0.0), (40.0, 0.0)], &[0, 1], 0, t, 75.0, 1);
        e.run_until(SimTime::from_secs(30));
        assert_eq!(e.protocol(NodeId::new(1)).delivery().distinct(), 30);
    }

    /// A Join-Query that arrives at TTL 1 ends its flood: the member
    /// still answers it, but nobody relays it.
    #[test]
    fn ttl_one_query_is_answered_but_not_relayed() {
        let cfg = OdmrpConfig {
            flood_ttl: 1,
            ..OdmrpConfig::default_paper()
        };
        let t = TrafficSource::compact(SimTime::from_secs(5), SimDuration::from_millis(200), 5, 64);
        let nodes = [(0.0, Some(t)), (40.0, None)]
            .into_iter()
            .enumerate()
            .map(|(i, (x, traffic))| NodeSetup {
                mobility: stationary(x, 0.0),
                protocol: OdmrpProtocol::new(cfg, NodeId::new(i as u32), GroupId(0), true, traffic),
            })
            .collect();
        let mut e = Engine::new(PhyParams::paper_default(75.0), 1, nodes);
        e.run_until(SimTime::from_secs(10));
        assert!(e.counters().get("odmrp.reply_sent") > 0);
        assert_eq!(e.counters().get("odmrp.query_relayed"), 0);
    }

    #[test]
    fn relay_joins_forwarding_group_and_forwards() {
        // S — R — M chain: R must be nominated into the forwarding group
        // by M's Join-Reply and relay the data.
        let t = TrafficSource::compact(
            SimTime::from_secs(20),
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
            2,
        );
        e.run_until(SimTime::from_secs(30));
        let r = e.protocol(NodeId::new(1));
        assert!(
            r.in_forwarding_group(e.now()),
            "relay must be in the forwarding group"
        );
        assert!(!r.is_member());
        assert_eq!(e.protocol(NodeId::new(2)).delivery().distinct(), 40);
        assert!(e.counters().get("odmrp.data_forwarded") > 0);
    }

    #[test]
    fn mesh_nominates_a_path_each_round() {
        // Diamond: S at left, M at right, two disjoint relays. Every
        // query round nominates M's current backward hop, so at least
        // one relay is always in the forwarding group and delivery is
        // complete; across rounds the nominated relay may alternate
        // (that per-round re-selection is ODMRP's soft-state repair).
        let t = TrafficSource::compact(
            SimTime::from_secs(20),
            SimDuration::from_millis(200),
            20,
            64,
        );
        let mut e = build(
            &[(0.0, 0.0), (80.0, 60.0), (80.0, -60.0), (160.0, 0.0)],
            &[0, 3],
            0,
            t,
            110.0,
            3,
        );
        e.run_until(SimTime::from_secs(30));
        let any_fg = e.protocol(NodeId::new(1)).in_forwarding_group(e.now())
            || e.protocol(NodeId::new(2)).in_forwarding_group(e.now());
        assert!(any_fg, "a diamond relay must carry the mesh");
        assert_eq!(e.protocol(NodeId::new(3)).delivery().distinct(), 20);
    }

    #[test]
    fn forwarding_group_expires_without_refresh() {
        // After the source stops sending (and hence stops querying), the
        // forwarding-group soft state must time out.
        let t = TrafficSource::compact(
            SimTime::from_secs(20),
            SimDuration::from_millis(200),
            10,
            64,
        );
        let mut e = build(
            &[(0.0, 0.0), (80.0, 0.0), (160.0, 0.0)],
            &[0, 2],
            0,
            t,
            100.0,
            4,
        );
        e.run_until(SimTime::from_secs(60));
        assert!(
            !e.protocol(NodeId::new(1)).in_forwarding_group(e.now()),
            "soft state should expire once queries stop"
        );
    }

    #[test]
    fn duplicate_data_is_counted_once() {
        let t = TrafficSource::compact(
            SimTime::from_secs(20),
            SimDuration::from_millis(200),
            20,
            64,
        );
        let mut e = build(
            &[(0.0, 0.0), (80.0, 60.0), (80.0, -60.0), (160.0, 0.0)],
            &[0, 3],
            0,
            t,
            110.0,
            5,
        );
        e.run_until(SimTime::from_secs(30));
        // Redundant mesh copies may arrive (that's the mesh's price) but
        // every packet is *delivered* at most once; a couple of packets
        // may be lost when both hidden forwarders' jitters coincide.
        assert!(e.protocol(NodeId::new(3)).delivery().distinct() >= 18);
        // The MAC-level duplicate suppression means the app-level log
        // never sees re-deliveries of the same (source, seq).
        assert_eq!(e.protocol(NodeId::new(3)).delivery().duplicates(), 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let t = TrafficSource::compact(
            SimTime::from_secs(20),
            SimDuration::from_millis(200),
            15,
            64,
        );
        let run = |seed| {
            let mut e = build(
                &[(0.0, 0.0), (70.0, 0.0), (140.0, 0.0)],
                &[0, 2],
                0,
                t,
                90.0,
                seed,
            );
            e.run_until(SimTime::from_secs(30));
            (
                e.protocol(NodeId::new(2)).delivery().distinct(),
                e.counters().iter().collect::<Vec<_>>().len(),
            )
        };
        assert_eq!(run(6), run(6));
    }
}
