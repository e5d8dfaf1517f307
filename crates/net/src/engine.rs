//! The discrete-event network engine.
//!
//! [`Engine`] owns the shared wireless channel, every node's MAC, mobility
//! model and RNG streams, and an upper-layer [`Protocol`] instance per
//! node. It advances simulated time by draining an [`EventQueue`] (the
//! calendar-queue scheduler in `ag-sim`); the five event kinds are
//! protocol timers, MAC backoff attempts, transmission completions,
//! mobility leg transitions and (when churn is enabled) radio
//! fail/recover toggles. The one cancellable event, `MacAttempt`,
//! carries a generation token and is dropped at dispatch when stale —
//! the queue itself never needs a cancel operation or tombstones.
//!
//! Channel semantics (see the crate docs' fidelity notes): unit-disk
//! audibility at `PhyParams::range_m`, any overlapping audible
//! transmission corrupts a reception, unicast is ACKed/retried, broadcast
//! is fire-and-forget.
//!
//! This file holds the state, construction, the event loop and the one
//! protocol upcall, which is also where the run's [`Observer`] is
//! called; the handlers hang off it by seam: `dcf` (the
//! 802.11 DCF's constants, per-node MAC and handlers, and `TxEnd`
//! delivery), `receive` (the receiver-set kernel; its oracle is
//! [`crate::reference`]), `motion` (mobility, churn, the motion bound)
//! and `api` ([`NodeApi`]).

mod api;
mod dcf;
mod motion;
mod receive;

#[cfg(test)]
mod tests;

use ag_mobility::{LegSample, Mobility, Vec2};
use ag_sim::rng::{SeedSplitter, StreamKind};
use ag_sim::stats::CounterSet;
use ag_sim::{EventQueue, SimTime};
use rand::rngs::SmallRng;

pub use api::NodeApi;
pub(crate) use receive::RxCounts;

use crate::counter::Tally;
use crate::ctx::{Dispatch, Observer, Quiet};
use crate::grid::AirIndex;
use crate::{Message, NodeId, PhyParams, Protocol, TimerKey};
use dcf::{Mac, OutFrame};
use motion::MotionBound;
use receive::RxScratch;

/// One scheduled kernel event.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// An upper-layer timer fires at `node`.
    Timer { node: usize, key: TimerKey },
    /// `node`'s armed backoff expires; `gen` detects staleness.
    MacAttempt { node: usize, gen: u64 },
    /// Transmission `tx_id` leaves the air.
    TxEnd { tx_id: u64 },
    /// `node`'s mobility model reaches a leg transition.
    Mobility { node: usize },
    /// `node`'s radio toggles between up and down (churn; only
    /// scheduled when [`PhyParams::churn`] is set).
    Churn { node: usize },
}

/// The sender and payload of a transmission currently in the air; its
/// timing and geometry live in the [`AirIndex`].
#[derive(Debug)]
pub(crate) struct PendingTx<M> {
    sender: usize,
    frame: OutFrame<M>,
}

/// The node count above which a broadcast's delivery starts with the
/// [`Protocol::prefetch`] pre-pass. At or below it every receiver's
/// tables already sit in L1/L2, and the pre-pass only repeats each
/// handler's first probe.
///
/// Placed from `examples/city_scale` (`AG_SIM_SECS=30`, seed 7)
/// events/s with the pre-pass over without it, medians of alternating
/// runs on a 2-CPU host: 500 nodes +0.1 % (faster in 3 of 6 pairs),
/// 1,000 −1.2 % (2/6), 1,500 +5.1 % (5/8), 2,000 +8.5 % (5/6), 5,000
/// +15.7 % (6/6). The crossover lies between 1,000 and 1,500 nodes.
pub const PREFETCH_ABOVE_NODES: usize = 1_024;

/// Everything in the simulation except the protocol instances.
///
/// Splitting the world from the protocols lets the engine hand a protocol
/// a mutable [`NodeApi`] view of the world while itself staying borrowed.
/// (The `pub(crate)` fields are the ones [`crate::reference`] reads.)
pub(crate) struct World<M: Message> {
    pub(crate) now: SimTime,
    queue: EventQueue<Event>,
    pub(crate) phy: PhyParams,
    macs: Vec<Mac<M>>,
    pub(crate) mobility: Vec<Box<dyn Mobility>>,
    /// Per-node cached trajectory legs, refreshed at mobility
    /// transitions; every position the engine uses comes from here, so a
    /// range check never re-enters a boxed mobility model.
    legs: Vec<LegSample>,
    node_rngs: Vec<SmallRng>,
    mac_rngs: Vec<SmallRng>,
    mobility_rngs: Vec<SmallRng>,
    /// Per-node churn interval streams; empty unless churn is enabled.
    churn_rngs: Vec<SmallRng>,
    /// `true` while a node's radio is down (churn).
    pub(crate) down: Vec<bool>,
    /// When each node's radio last came (back) up. A receiver only
    /// decodes a frame whose *entire* airtime it was up for, so a node
    /// that recovers mid-frame cannot deliver it.
    pub(crate) up_since: Vec<SimTime>,
    /// The transmission each node currently has on the air, if any;
    /// cleared when the node fails mid-transmission so the `TxEnd`
    /// handler can tell a truncated frame from a completed one.
    tx_of: Vec<Option<u64>>,
    /// Keyed-hash seed for the (order-independent) reception-model
    /// decisions.
    pub(crate) channel_seed: u64,
    /// What the receive kernel's neighbour lists and snapshot are
    /// judged by.
    bound: MotionBound,
    /// All channel-relevant transmissions (live + recently finished),
    /// carrying each live transmission's sender and frame.
    pub(crate) air: AirIndex<PendingTx<M>>,
    next_tx_id: u64,
    /// Every count: the engine's and the protocols'.
    tally: Tally,
}

impl<M: Message> World<M> {
    fn node_count(&self) -> usize {
        self.macs.len()
    }

    fn position(&self, node: usize) -> Vec2 {
        self.legs[node].position_at(self.now)
    }
}

/// The mobility model and protocol instance for one node.
pub struct NodeSetup<P> {
    /// Trajectory generator for the node.
    pub mobility: Box<dyn Mobility>,
    /// Upper-layer protocol state.
    pub protocol: P,
}

/// The assembled simulation: channel + MACs + mobility + protocols.
///
/// # Example
///
/// ```
/// use ag_net::{Engine, NodeSetup, NodeId, PhyParams, ProtoCtx, Protocol, Message, RxKind, TimerKey};
/// use ag_mobility::{Stationary, Vec2};
/// use ag_sim::{SimTime, SimDuration};
///
/// #[derive(Clone, Debug)]
/// struct Ping;
/// impl Message for Ping {
///     fn wire_size(&self) -> usize { 8 }
/// }
///
/// #[derive(Debug, Default)]
/// struct Hello { got: usize }
/// impl Protocol for Hello {
///     type Msg = Ping;
///     fn start<C: ProtoCtx<Ping>>(&mut self, ctx: &mut C) {
///         if ctx.id() == NodeId::new(0) {
///             ctx.set_timer(SimDuration::from_millis(10), 0);
///         }
///     }
///     fn on_packet<C: ProtoCtx<Ping>>(&mut self, _ctx: &mut C, _from: NodeId, _msg: Ping, _rx: RxKind) {
///         self.got += 1;
///     }
///     fn on_timer<C: ProtoCtx<Ping>>(&mut self, ctx: &mut C, _key: TimerKey) {
///         ctx.broadcast(Ping);
///     }
///     fn on_send_failure<C: ProtoCtx<Ping>>(&mut self, _ctx: &mut C, _to: NodeId, _msg: Ping) {}
/// }
///
/// let nodes = vec![
///     NodeSetup { mobility: Box::new(Stationary::new(Vec2::new(0.0, 0.0))), protocol: Hello::default() },
///     NodeSetup { mobility: Box::new(Stationary::new(Vec2::new(50.0, 0.0))), protocol: Hello::default() },
/// ];
/// let mut engine = Engine::new(PhyParams::paper_default(75.0), 1, nodes);
/// engine.run_until(SimTime::from_secs(1));
/// assert_eq!(engine.protocol(NodeId::new(1)).got, 1);
/// ```
///
/// `O` watches the run ([`Engine::observed`]); the default, [`Quiet`],
/// watches nothing.
pub struct Engine<P: Protocol, O: Observer<P> = Quiet> {
    world: World<P::Msg>,
    protocols: Vec<P>,
    obs: O,
    /// The receive kernel's buffers and the receiver list it fills —
    /// beside the world, so delivery reads one while mutating the other.
    rx: RxScratch,
    /// Frames destroyed by the radio failure being handled (reused).
    churn_dropped: Vec<OutFrame<P::Msg>>,
}

impl<P: Protocol> Engine<P> {
    /// Builds the engine and runs every protocol's [`Protocol::start`] at
    /// time zero (in node-id order); [`Engine::observed`] with [`Quiet`].
    ///
    /// # Panics
    ///
    /// Panics if `phy` fails [`PhyParams::validate`], or if `nodes` is
    /// empty or has more than `u32::MAX` entries.
    pub fn new(phy: PhyParams, seed: u64, nodes: Vec<NodeSetup<P>>) -> Self {
        Self::observed(phy, seed, nodes, Quiet)
    }
}

impl<P: Protocol, O: Observer<P>> Engine<P, O> {
    /// [`Engine::new`] (panics included), with `obs` watching every
    /// upcall from the first `start` on.
    pub fn observed(phy: PhyParams, seed: u64, nodes: Vec<NodeSetup<P>>, obs: O) -> Self {
        phy.validate().expect("Engine::observed");
        assert!(!nodes.is_empty(), "need at least one node");
        assert!(nodes.len() <= u32::MAX as usize, "too many nodes");
        let splitter = SeedSplitter::new(seed);
        let n = nodes.len();
        let mut mobility = Vec::with_capacity(n);
        let mut protocols = Vec::with_capacity(n);
        for setup in nodes {
            mobility.push(setup.mobility);
            protocols.push(setup.protocol);
        }
        let legs: Vec<LegSample> = mobility.iter().map(|m| m.current_leg()).collect();
        let bound = MotionBound::new(&legs);
        let mut world = World {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            macs: (0..n).map(|_| Mac::new()).collect(),
            mobility,
            legs,
            node_rngs: (0..n)
                .map(|i| splitter.stream(StreamKind::Node, i as u64))
                .collect(),
            mac_rngs: (0..n)
                .map(|i| splitter.stream(StreamKind::Mac, i as u64))
                .collect(),
            mobility_rngs: (0..n)
                .map(|i| splitter.stream(StreamKind::Mobility, i as u64))
                .collect(),
            churn_rngs: if phy.churn().is_some() {
                (0..n)
                    .map(|i| splitter.stream(StreamKind::Churn, i as u64))
                    .collect()
            } else {
                Vec::new()
            },
            down: vec![false; n],
            up_since: vec![SimTime::ZERO; n],
            tx_of: vec![None; n],
            channel_seed: splitter.derive(StreamKind::Channel, 0),
            bound,
            air: AirIndex::new(),
            next_tx_id: 0,
            tally: Tally::new(),
            phy,
        };
        for node in 0..n {
            world.schedule_mobility(node);
        }
        if let Some(churn) = world.phy.churn() {
            for node in 0..n {
                let up = churn.sample_up(&mut world.churn_rngs[node]);
                world
                    .queue
                    .schedule(SimTime::ZERO + up, Event::Churn { node });
            }
        }
        let mut engine = Engine {
            rx: RxScratch::new(&world.phy, &world.legs),
            churn_dropped: Vec::new(),
            world,
            protocols,
            obs,
        };
        let (world, protocols, obs) = (&mut engine.world, &mut engine.protocols, &mut engine.obs);
        for node in 0..n {
            Self::upcall(world, protocols, obs, node, Dispatch::Start);
        }
        engine
    }

    // ag-lint: hot-path
    /// The one protocol upcall: hands `dispatch` to `node`'s handler
    /// through a [`NodeApi`], between the observer's two hooks.
    /// Associated (not `&mut self`) so a caller can keep the receiver
    /// list borrowed across it.
    #[inline(always)]
    fn upcall(
        world: &mut World<P::Msg>,
        protocols: &mut [P],
        obs: &mut O,
        node: usize,
        dispatch: Dispatch<P::Msg>,
    ) {
        let id = NodeId::new(node as u32);
        obs.dispatching(id, world.now, &dispatch);
        let protocol = &mut protocols[node];
        dispatch.deliver(protocol, &mut NodeApi { world, obs, node });
        obs.dispatched(id, protocol);
    }

    /// Inert: the engine has no intra-run parallelism (ARCHITECTURE.md,
    /// "Why there is no intra-engine parallelism"), so the value is
    /// accepted and ignored. Kept only because `agbench/` calls it.
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Inert companion of [`Engine::set_threads`]: always 0.
    pub fn parallel_hits(&self) -> u64 {
        0
    }

    /// Runs the event loop until simulated time `t` (inclusive). Safe to
    /// call repeatedly; a `t` already in the past processes nothing and
    /// leaves the clock where it is.
    pub fn run_until(&mut self, t: SimTime) {
        while let Some(when) = self.world.queue.peek_time() {
            if when > t {
                break;
            }
            let (when, ev) = self.world.queue.pop().expect("peeked event vanished");
            debug_assert!(when >= self.world.now, "time went backwards");
            self.world.now = when;
            self.dispatch(ev);
        }
        self.world.now = self.world.now.max(t);
    }

    fn dispatch(&mut self, ev: Event) {
        let (world, protocols, obs) = (&mut self.world, &mut self.protocols, &mut self.obs);
        match ev {
            Event::Timer { node, key } => {
                Self::upcall(world, protocols, obs, node, Dispatch::Timer { key });
            }
            Event::MacAttempt { node, gen } => world.handle_attempt(node, gen),
            Event::Mobility { node } => world.handle_mobility(node),
            Event::Churn { node } => {
                // Unicast frames destroyed by a radio failure are
                // reported to the (still running) stack, which relies
                // on send failures as its link-break signal.
                world.handle_churn(node, &mut self.churn_dropped);
                for frame in self.churn_dropped.drain(..) {
                    if let Some(to) = frame.dest {
                        let failure = Dispatch::SendFailure { to, msg: frame.msg };
                        Self::upcall(world, protocols, obs, node, failure);
                    }
                }
            }
            Event::TxEnd { tx_id } => self.handle_tx_end(tx_id),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.world.node_count()
    }

    /// Total kernel events dispatched so far (timers, MAC attempts,
    /// transmission completions, mobility transitions, churn toggles).
    /// `agbench`'s per-event figures (`net.ns_per_event` and the like)
    /// divide wall-clock time by this.
    pub fn events_processed(&self) -> u64 {
        self.world.queue.popped_count()
    }

    /// Total kernel events ever scheduled (processed + still pending).
    pub fn events_scheduled(&self) -> u64 {
        self.world.queue.scheduled_count()
    }

    /// Every counter of the run under its name: the engine's MAC,
    /// mobility and churn counts once above zero, and each count a
    /// protocol made (typed through [`ProtoCtx::bump`](crate::ProtoCtx::bump),
    /// or by name) once made, even by 0. Rendered from the engine's
    /// counter array on each call.
    pub fn counters(&self) -> CounterSet {
        self.world.tally.render()
    }

    /// The protocol instance of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn protocol(&self, node: NodeId) -> &P {
        &self.protocols[node.index()]
    }

    /// All protocol instances, indexed by node.
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }

    /// The observer watching this run.
    pub fn observer(&self) -> &O {
        &self.obs
    }

    /// Current position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position_of(&self, node: NodeId) -> Vec2 {
        self.world.position(node.index())
    }

    /// `true` while `node`'s radio is down (churn). Always `false`
    /// without a churn model.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.world.down[node.index()]
    }
}
