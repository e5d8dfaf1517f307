//! Lockstep conformance of engine runs: [`Conform`].

use std::hash::Hash;

use ag_net::{Counter, Dispatch, Message, NodeId, ProtoCtx, Protocol, RxKind, TimerKey};
use ag_sim::hash::state_key;
use ag_sim::{SimDuration, SimTime};

/// The outcome of one named random choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Choice {
    Jitter(u64),
    Chance(bool),
    Index(usize),
}

/// A [`Protocol`] that checks every dispatch of the `P` it wraps
/// against a replica: the proof that the model the checker explores is
/// the code the simulator runs.
///
/// Build each node's protocol as `Conform::new(p)` and run a plain
/// `ag_net::Engine`. Each dispatch goes first to the live instance,
/// through the engine's context with every named-choice outcome
/// recorded, then to a replica cloned at construction, through a
/// context that serves those outcomes back and drops every effect (a
/// transition returns its effects, so a replica can ignore them). The
/// live instance answers every call, [`Protocol::prefetch`] included,
/// so a wrapped run takes the shipped path and gets the unwrapped
/// run's results.
///
/// # Panics
///
/// A handler panics at the first dispatch after which the replica drew
/// other choices than the live instance, or hashes to another state
/// ([`state_key`]): a handler read ambient state or drew randomness
/// outside the named-choice surface. The message names the node, the
/// time, the input and the node's step.
#[derive(Debug)]
pub struct Conform<P> {
    live: P,
    replica: P,
    checked: usize,
}

impl<P: Protocol + Clone + Hash> Conform<P> {
    /// Wraps `protocol`, cloning it as the replica.
    pub fn new(protocol: P) -> Self {
        Conform {
            replica: protocol.clone(),
            live: protocol,
            checked: 0,
        }
    }

    /// Dispatches checked so far.
    pub fn checked(&self) -> usize {
        self.checked
    }

    /// The live instance.
    pub fn inner(&self) -> &P {
        &self.live
    }

    fn check<C: ProtoCtx<P::Msg>>(&mut self, ctx: &mut C, dispatch: Dispatch<P::Msg>) {
        let (now, id, node_count) = (ctx.now(), ctx.id(), ctx.node_count());
        let mut live = RecordCtx {
            ctx,
            drawn: Vec::new(),
        };
        dispatch.clone().deliver(&mut self.live, &mut live);
        let mut replica = ReplayCtx {
            now,
            id,
            node_count,
            recorded: live.drawn.iter(),
            drawn: Vec::new(),
        };
        dispatch.clone().deliver(&mut self.replica, &mut replica);
        let step = self.checked;
        assert!(
            replica.drawn == live.drawn,
            "{id} at {now:?}, step #{step} ({dispatch:?}): the replica drew the choices {:?} \
             where the live instance drew {:?}",
            replica.drawn,
            live.drawn,
        );
        assert!(
            state_key(&self.live) == state_key(&self.replica),
            "{id} at {now:?}, step #{step} ({dispatch:?}): the replica's state diverged \
             from the live instance's",
        );
        self.checked += 1;
    }
}

impl<P: Protocol + Clone + Hash> Protocol for Conform<P> {
    type Msg = P::Msg;

    const COUNTER_SLOTS: usize = P::COUNTER_SLOTS;

    fn start<C: ProtoCtx<P::Msg>>(&mut self, ctx: &mut C) {
        self.check(ctx, Dispatch::Start);
    }

    fn on_packet<C: ProtoCtx<P::Msg>>(
        &mut self,
        ctx: &mut C,
        from: NodeId,
        msg: P::Msg,
        rx: RxKind,
    ) {
        self.check(ctx, Dispatch::Packet { from, msg, rx });
    }

    fn on_timer<C: ProtoCtx<P::Msg>>(&mut self, ctx: &mut C, key: TimerKey) {
        self.check(ctx, Dispatch::Timer { key });
    }

    fn on_send_failure<C: ProtoCtx<P::Msg>>(&mut self, ctx: &mut C, to: NodeId, msg: P::Msg) {
        self.check(ctx, Dispatch::SendFailure { to, msg });
    }

    fn prefetch(&self, from: NodeId, msg: &P::Msg) {
        self.live.prefetch(from, msg);
    }
}

/// Appends choice outcome `v` to `drawn` and returns it.
fn logged<T: Copy>(drawn: &mut Vec<Choice>, v: T, choice: fn(T) -> Choice) -> T {
    drawn.push(choice(v));
    v
}

/// The live instance's context: the engine's, with each choice outcome
/// logged as it is drawn.
struct RecordCtx<'a, C> {
    ctx: &'a mut C,
    drawn: Vec<Choice>,
}

impl<M: Message, C: ProtoCtx<M>> ProtoCtx<M> for RecordCtx<'_, C> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn id(&self) -> NodeId {
        self.ctx.id()
    }

    fn node_count(&self) -> usize {
        self.ctx.node_count()
    }

    fn send(&mut self, dest: NodeId, msg: M) {
        self.ctx.send(dest, msg);
    }

    fn broadcast(&mut self, msg: M) {
        self.ctx.broadcast(msg);
    }

    fn set_timer(&mut self, delay: SimDuration, key: TimerKey) {
        self.ctx.set_timer(delay, key);
    }

    fn bump_n(&mut self, counter: Counter, n: u64) {
        self.ctx.bump_n(counter, n);
    }

    fn count_n(&mut self, name: &'static str, n: u64) {
        self.ctx.count_n(name, n);
    }

    fn jitter(&mut self, bound: u64) -> u64 {
        logged(&mut self.drawn, self.ctx.jitter(bound), Choice::Jitter)
    }

    fn chance(&mut self, p: f64) -> bool {
        logged(&mut self.drawn, self.ctx.chance(p), Choice::Chance)
    }

    fn pick_index(&mut self, n: usize) -> usize {
        logged(&mut self.drawn, self.ctx.pick_index(n), Choice::Index)
    }

    fn pick_weighted<F: Fn(usize) -> f64>(&mut self, n: usize, weight: F) -> usize {
        let v = self.ctx.pick_weighted(n, weight);
        logged(&mut self.drawn, v, Choice::Index)
    }
}

/// The replica's context: swallows every effect and serves the
/// recorded outcomes in turn. A draw of another kind than recorded, or
/// past the end, gets a harmless stand-in; either way the served
/// outcome is logged, so one comparison of the two logs catches a
/// choice too many, too few or of the wrong kind.
struct ReplayCtx<'a> {
    now: SimTime,
    id: NodeId,
    node_count: usize,
    recorded: std::slice::Iter<'a, Choice>,
    drawn: Vec<Choice>,
}

impl<M: Message> ProtoCtx<M> for ReplayCtx<'_> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn id(&self) -> NodeId {
        self.id
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn send(&mut self, _dest: NodeId, _msg: M) {}

    fn broadcast(&mut self, _msg: M) {}

    fn set_timer(&mut self, _delay: SimDuration, _key: TimerKey) {}

    fn count_n(&mut self, _name: &'static str, _n: u64) {}

    fn jitter(&mut self, _bound: u64) -> u64 {
        let v = match self.recorded.next() {
            Some(&Choice::Jitter(v)) => v,
            _ => 0,
        };
        logged(&mut self.drawn, v, Choice::Jitter)
    }

    fn chance(&mut self, _p: f64) -> bool {
        let v = self.recorded.next() == Some(&Choice::Chance(true));
        logged(&mut self.drawn, v, Choice::Chance)
    }

    fn pick_index(&mut self, n: usize) -> usize {
        let v = match self.recorded.next() {
            Some(&Choice::Index(i)) if i < n => i,
            _ => 0,
        };
        logged(&mut self.drawn, v, Choice::Index)
    }

    fn pick_weighted<F: Fn(usize) -> f64>(&mut self, n: usize, _weight: F) -> usize {
        <Self as ProtoCtx<M>>::pick_index(self, n)
    }
}
