//! The typed counter path and its named fallback render the same
//! counters.
//!
//! Each scenario runs twice: once with the handlers bumping through the
//! engine's `NodeApi` (an add at each counter's slot), and once through
//! a pass-through context that implements only `ProtoCtx`'s required
//! methods, so every `bump` takes the trait's default and arrives as
//! `count_n(name, n)` — the path a tracing wrapper's context takes.
//! `Engine::counters()` must come out identical: names, order, values,
//! and any entry a protocol made with a count of 0 (`ag-net`'s
//! `zero_counts_render_alike_typed_and_named` pins that rule on its own).

use ag_core::{AgConfig, AnonymousGossip};
use ag_maodv::{GroupId, MaodvConfig, TrafficSource};
use ag_mobility::{Field, Mobility, PauseRange, RandomWaypoint, SpeedRange};
use ag_net::{
    ChurnParams, Engine, Message, NodeId, NodeSetup, PhyParams, ProtoCtx, Protocol, RxKind,
    TimerKey,
};
use ag_odmrp::{OdmrpConfig, OdmrpProtocol};
use ag_sim::rng::{SeedSplitter, StreamKind};
use ag_sim::{SimDuration, SimTime};

/// A protocol whose handlers see [`Bare`]'s context instead of the
/// engine's.
#[derive(Debug)]
struct Wrapped<P>(P);

/// Forwards the required `ProtoCtx` methods and nothing else.
struct Bare<'a, C>(&'a mut C);

impl<M: Message, C: ProtoCtx<M>> ProtoCtx<M> for Bare<'_, C> {
    fn now(&self) -> SimTime {
        self.0.now()
    }
    fn id(&self) -> NodeId {
        self.0.id()
    }
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn send(&mut self, dest: NodeId, msg: M) {
        self.0.send(dest, msg);
    }
    fn broadcast(&mut self, msg: M) {
        self.0.broadcast(msg);
    }
    fn set_timer(&mut self, delay: SimDuration, key: TimerKey) {
        self.0.set_timer(delay, key);
    }
    fn count_n(&mut self, name: &'static str, n: u64) {
        self.0.count_n(name, n);
    }
    fn jitter(&mut self, bound: u64) -> u64 {
        self.0.jitter(bound)
    }
    fn chance(&mut self, p: f64) -> bool {
        self.0.chance(p)
    }
    fn pick_index(&mut self, n: usize) -> usize {
        self.0.pick_index(n)
    }
    fn pick_weighted<F: Fn(usize) -> f64>(&mut self, n: usize, weight: F) -> usize {
        self.0.pick_weighted(n, weight)
    }
}

impl<P: Protocol> Protocol for Wrapped<P> {
    type Msg = P::Msg;

    fn start<C: ProtoCtx<P::Msg>>(&mut self, ctx: &mut C) {
        self.0.start(&mut Bare(ctx));
    }
    fn on_packet<C: ProtoCtx<P::Msg>>(
        &mut self,
        ctx: &mut C,
        from: NodeId,
        msg: P::Msg,
        rx: RxKind,
    ) {
        self.0.on_packet(&mut Bare(ctx), from, msg, rx);
    }
    fn on_timer<C: ProtoCtx<P::Msg>>(&mut self, ctx: &mut C, key: TimerKey) {
        self.0.on_timer(&mut Bare(ctx), key);
    }
    fn on_send_failure<C: ProtoCtx<P::Msg>>(&mut self, ctx: &mut C, to: NodeId, msg: P::Msg) {
        self.0.on_send_failure(&mut Bare(ctx), to, msg);
    }
}

/// 60 walkers on 400 m × 400 m with radio churn, every third a member
/// and node 0 the source; `make(node, member, traffic)` builds a stack.
fn counters<P: Protocol>(
    make: impl Fn(NodeId, bool, Option<TrafficSource>) -> P,
) -> Vec<(&'static str, u64)> {
    let field = Field::new(400.0, 400.0);
    let traffic = TrafficSource::compact(
        SimTime::from_secs(10),
        SimDuration::from_millis(200),
        100,
        64,
    );
    let nodes = (0..60u32)
        .map(|i| {
            let mut rng = SeedSplitter::new(5).stream(StreamKind::Placement, i.into());
            NodeSetup {
                mobility: Box::new(RandomWaypoint::new(
                    field,
                    SpeedRange::new(0.5, 5.0),
                    PauseRange::uniform_secs(0.0, 2.0),
                    &mut rng,
                )) as Box<dyn Mobility>,
                protocol: make(NodeId::new(i), i % 3 == 0, (i == 0).then_some(traffic)),
            }
        })
        .collect();
    let phy = PhyParams::paper_default(75.0).with_churn(ChurnParams::new(15.0, 3.0));
    let mut e = Engine::new(phy, 5, nodes);
    e.run_until(SimTime::from_secs(40));
    e.counters().iter().collect()
}

fn get(counters: &[(&str, u64)], name: &str) -> Option<u64> {
    counters.iter().find(|(k, _)| *k == name).map(|&(_, v)| v)
}

#[test]
fn gossip_counters_match_through_the_fallback() {
    let gossip = |id, member, traffic| {
        AnonymousGossip::new(
            AgConfig::paper_default(),
            MaodvConfig::paper_default(),
            id,
            GroupId(0),
            member,
            traffic,
        )
    };
    let typed = counters(gossip);
    let named = counters(|id, member, traffic| Wrapped(gossip(id, member, traffic)));
    assert!(
        get(&typed, "ag.recovered") > Some(0) && get(&typed, "churn.fail") > Some(0),
        "the run must churn and gossip: {typed:?}"
    );
    assert_eq!(typed, named);
}

#[test]
fn odmrp_counters_match_through_the_fallback() {
    let odmrp = |id, member, traffic| {
        OdmrpProtocol::new(
            OdmrpConfig::default_paper(),
            id,
            GroupId(0),
            member,
            traffic,
        )
    };
    let typed = counters(odmrp);
    let named = counters(|id, member, traffic| Wrapped(odmrp(id, member, traffic)));
    assert!(
        get(&typed, "odmrp.data_forwarded") > Some(0),
        "the run must forward data: {typed:?}"
    );
    assert_eq!(typed, named);
}
