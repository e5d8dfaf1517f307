//! Lockstep conformance: the model the checker explores is the code
//! the simulator runs.
//!
//! Each test runs a plain engine simulation watched by [`Conform`].
//! After each upcall `Conform` hands the dispatch, with the choices the
//! live instance drew, to a replica of the node through the pure
//! [`ProtoCtx`](ag_net::ProtoCtx) facade, asserting the same choices
//! and the same state after **every single dispatch**. Any drift
//! between what runs under `ag_net::Engine` and what the model checker
//! executes (an unrecorded RNG draw, a handler peeking at ambient
//! state) fails here with the exact divergent step; the last two tests
//! show that it does.

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use ag_check::Conform;
use ag_core::{AgConfig, AnonymousGossip};
use ag_maodv::{GroupId, MaodvConfig, MaodvProtocol, TrafficSource};
use ag_mobility::{Field, Mobility, PauseRange, RandomWaypoint, SpeedRange, Stationary, Vec2};
use ag_net::{
    ChurnParams, Engine, Message, NodeId, NodeSetup, PhyParams, ProtoCtx, Protocol, ReceptionModel,
    RxKind, TimerKey,
};
use ag_odmrp::{OdmrpConfig, OdmrpProtocol};
use ag_sim::rng::{SeedSplitter, StreamKind};
use ag_sim::stats::CounterSet;
use ag_sim::{SimDuration, SimTime};

/// Nodes stationary on a line, 40 m apart (75 m radio range, so only
/// adjacent nodes hear each other).
fn line(i: u32) -> Box<dyn Mobility> {
    Box::new(Stationary::new(Vec2::new(40.0 * f64::from(i), 0.0)))
}

/// `n` nodes, each `build(i)` placed by `place(i)`.
fn setups<P>(
    n: u32,
    place: impl Fn(u32) -> Box<dyn Mobility>,
    build: impl Fn(u32) -> P,
) -> Vec<NodeSetup<P>> {
    (0..n)
        .map(|i| NodeSetup {
            mobility: place(i),
            protocol: build(i),
        })
        .collect()
}

/// Runs `n` nodes, each `build(i)` placed by `place(i)`, under
/// [`Conform`] until `secs`; returns the engine and the dispatches
/// checked.
fn run<P: Protocol + Clone + Hash>(
    phy: PhyParams,
    seed: u64,
    secs: u64,
    n: u32,
    place: impl Fn(u32) -> Box<dyn Mobility>,
    build: impl Fn(u32) -> P,
) -> (Engine<P, Conform<P>>, usize) {
    let nodes = setups(n, place, build);
    let conform = Conform::new(&nodes);
    let mut e = Engine::observed(phy, seed, nodes, conform);
    e.run_until(SimTime::from_secs(secs));
    let checked = e.observer().checked();
    (e, checked)
}

fn gossip_node(i: u32, member: bool, traffic: Option<TrafficSource>) -> AnonymousGossip {
    AnonymousGossip::new(
        AgConfig::paper_default(),
        MaodvConfig::paper_default(),
        NodeId::new(i),
        GroupId(0),
        member,
        traffic,
    )
}

#[test]
fn maodv_trace_replays_through_the_facade() {
    let traffic = TrafficSource::compact(
        SimTime::from_secs(30),
        SimDuration::from_millis(200),
        20,
        64,
    );
    let build = |i: u32| {
        MaodvProtocol::new(
            MaodvConfig::paper_default(),
            NodeId::new(i),
            GroupId(0),
            i == 0 || i == 4,
            (i == 0).then_some(traffic),
        )
    };
    let (_, steps) = run(PhyParams::paper_default(75.0), 7, 40, 5, line, build);
    println!("maodv conformance: {steps} dispatches checked in lockstep");
    assert_eq!(steps, 2_351);
}

#[test]
fn odmrp_trace_replays_through_the_facade() {
    let traffic = TrafficSource::compact(
        SimTime::from_secs(10),
        SimDuration::from_millis(200),
        20,
        64,
    );
    let build = |i: u32| {
        let cfg = OdmrpConfig::default_paper();
        OdmrpProtocol::new(
            cfg,
            NodeId::new(i),
            GroupId(0),
            i != 2,
            (i == 0).then_some(traffic),
        )
    };
    let (_, steps) = run(PhyParams::paper_default(75.0), 11, 20, 5, line, build);
    println!("odmrp conformance: {steps} dispatches checked in lockstep");
    assert_eq!(steps, 277);
}

#[test]
fn gossip_trace_replays_through_the_facade() {
    let traffic = TrafficSource::compact(
        SimTime::from_secs(30),
        SimDuration::from_millis(200),
        30,
        64,
    );
    let build = |i: u32| gossip_node(i, i == 0 || i == 4, (i == 0).then_some(traffic));
    let (_, steps) = run(PhyParams::paper_default(75.0), 23, 45, 5, line, build);
    println!("gossip conformance: {steps} dispatches checked in lockstep");
    assert_eq!(steps, 3_090);
}

/// Twelve gossip nodes where the engine's rarer paths run: walking
/// nodes, radios that fail and recover, and frames lost to a graded
/// channel. Returns the radio, the placement and the protocol of each node.
fn churny_gossip() -> (
    PhyParams,
    impl Fn(u32) -> Box<dyn Mobility>,
    impl Fn(u32) -> AnonymousGossip,
) {
    let field = Field::new(200.0, 200.0);
    let place = move |i: u32| -> Box<dyn Mobility> {
        let mut rng = SeedSplitter::new(3).stream(StreamKind::Placement, i.into());
        Box::new(RandomWaypoint::new(
            field,
            SpeedRange::new(1.0, 10.0),
            PauseRange::uniform_secs(0.0, 2.0),
            &mut rng,
        ))
    };
    let traffic =
        TrafficSource::compact(SimTime::from_secs(5), SimDuration::from_millis(200), 60, 64);
    let build = move |i: u32| gossip_node(i, i.is_multiple_of(2), (i == 0).then_some(traffic));
    let phy = PhyParams::paper_default(75.0)
        .with_churn(ChurnParams::new(15.0, 3.0))
        .with_reception(ReceptionModel::DistanceGraded { edge_per: 0.4 });
    (phy, place, build)
}

#[test]
fn gossip_conforms_under_motion_churn_and_loss() {
    let (phy, place, build) = churny_gossip();
    let (e, steps) = run(phy, 3, 20, 12, place, build);
    let counters = e.counters();
    println!("churn conformance: {steps} dispatches checked in lockstep; {counters:?}");
    for name in [
        "churn.fail",
        "maodv.send_failure",
        "ag.recovered",
        "mac.rx_channel_drop",
    ] {
        assert!(counters.get(name) > 0, "{name} never happened");
    }
    let delivered: u64 = e.protocols().iter().map(|p| p.delivery().distinct()).sum();
    assert!(delivered > 0, "no member received data");
    assert_eq!(steps, 4_313);
}

/// Watching a run changes nothing: the churny gossip run gives the same
/// counters, events and deliveries under [`Conform`] as without it.
#[test]
fn conform_leaves_the_run_unchanged() {
    let (phy, place, build) = churny_gossip();
    let mut plain = Engine::new(phy, 3, setups(12, &place, &build));
    plain.run_until(SimTime::from_secs(20));
    let (checked, _) = run(phy, 3, 20, 12, place, build);
    let counters = |c: CounterSet| c.iter().collect::<Vec<_>>();
    let delivered = |ps: &[AnonymousGossip]| -> Vec<u64> {
        ps.iter().map(|p| p.delivery().distinct()).collect()
    };
    assert_eq!(counters(plain.counters()), counters(checked.counters()));
    assert_eq!(plain.events_processed(), checked.events_processed());
    assert_eq!(delivered(plain.protocols()), delivered(checked.protocols()));
}

#[derive(Debug, Clone)]
struct Ping;

impl Message for Ping {
    fn wire_size(&self) -> usize {
        8
    }
}

/// A protocol whose every handler reads a `static` counter, ambient
/// state the facade cannot see. With `FOLD` it keeps the counter in its
/// state; without, it draws a choice only when the counter is odd.
#[derive(Debug, Clone, Default, Hash)]
struct Ambient<const FOLD: bool> {
    seen: u64,
}

static FOLDED: AtomicU64 = AtomicU64::new(0);
static DRAWN: AtomicU64 = AtomicU64::new(0);

impl<const FOLD: bool> Ambient<FOLD> {
    fn act<C: ProtoCtx<Ping>>(&mut self, ctx: &mut C) {
        if FOLD {
            self.seen = FOLDED.fetch_add(1, Ordering::Relaxed);
        } else if DRAWN.fetch_add(1, Ordering::Relaxed) % 2 == 1 {
            ctx.chance(0.5);
        }
        ctx.set_timer(SimDuration::from_millis(10), 0);
    }
}

impl<const FOLD: bool> Protocol for Ambient<FOLD> {
    type Msg = Ping;

    fn start<C: ProtoCtx<Ping>>(&mut self, ctx: &mut C) {
        self.act(ctx);
    }

    fn on_packet<C: ProtoCtx<Ping>>(&mut self, ctx: &mut C, _: NodeId, _: Ping, _: RxKind) {
        self.act(ctx);
    }

    fn on_timer<C: ProtoCtx<Ping>>(&mut self, ctx: &mut C, _: TimerKey) {
        self.act(ctx);
    }

    fn on_send_failure<C: ProtoCtx<Ping>>(&mut self, ctx: &mut C, _: NodeId, _: Ping) {
        self.act(ctx);
    }
}

#[test]
#[should_panic(expected = "state diverged")]
fn state_read_outside_the_facade_fails() {
    run(PhyParams::paper_default(75.0), 1, 1, 2, line, |_| {
        Ambient::<true>::default()
    });
}

#[test]
#[should_panic(expected = "drew the choices")]
fn choice_drawn_outside_the_facade_fails() {
    run(PhyParams::paper_default(75.0), 1, 1, 2, line, |_| {
        Ambient::<false>::default()
    });
}
