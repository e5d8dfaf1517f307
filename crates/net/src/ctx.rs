//! The protocol ↔ world boundary, and what the engine shows of it.
//!
//! [`ProtoCtx`] is the *only* surface a [`Protocol`]
//! implementation may touch: simulated time, its own address, frame
//! sends, timers, counters, and **named random choices**. Protocol code
//! written against this trait is pure with respect to the world — the
//! same monomorphized handler body runs
//!
//! * under the discrete-event engine ([`NodeApi`](crate::NodeApi)
//!   implements `ProtoCtx` by drawing from the node's deterministic
//!   RNG stream and scheduling real events), and
//! * under the `ag-check` model checker, whose context *enumerates*
//!   every outcome of each named choice instead of sampling one,
//!   turning each handler invocation into a `transition(state, action)
//!   -> (state, effects)` step of a finite machine.
//!
//! The named-choice methods exist so randomness is part of the boundary
//! rather than an ambient capability. Each names the *decision* a
//! protocol makes (jitter a timer, accept with probability `p`, pick a
//! next hop), which is what lets the checker treat them as
//! nondeterministic branch points, and lets an engine [`Observer`]
//! (`ag-check`'s `Conform`) replay a run choice-for-choice.

use ag_sim::{SimDuration, SimTime};

use crate::counter::Counter;
use crate::types::{Message, NodeId, Protocol, RxKind, TimerKey};

/// Everything a protocol can observe or do, as a trait.
///
/// The engine's [`NodeApi`](crate::NodeApi) is the production
/// implementation; `ag-check` provides an enumerating one (model
/// checking) and a replaying one (conformance).
/// Handlers are generic over `C`, so the engine pays no dynamic
/// dispatch: the same code monomorphizes per context.
///
/// # Determinism contract
///
/// Implementations must be deterministic functions of their own state:
/// given the same protocol state and the same sequence of returned
/// choice values, a handler must emit the same effects. The engine
/// implementation draws every choice from the node's
/// [`StreamKind::Node`](ag_sim::rng::StreamKind) stream and nothing
/// else, which is what makes recorded runs replayable.
pub trait ProtoCtx<M: Message> {
    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// This node's address.
    fn id(&self) -> NodeId;

    /// Total number of nodes in the network.
    fn node_count(&self) -> usize;

    /// Queues a unicast frame to `dest` (ACKed; retried; failure
    /// reported via `on_send_failure`).
    fn send(&mut self, dest: NodeId, msg: M);

    /// Queues a local broadcast frame (unacknowledged).
    fn broadcast(&mut self, msg: M);

    /// Schedules `on_timer` with `key` after `delay` (not cancellable).
    fn set_timer(&mut self, delay: SimDuration, key: TimerKey);

    /// Adds 1 to `counter`.
    #[inline]
    fn bump(&mut self, counter: Counter) {
        self.bump_n(counter, 1);
    }

    /// Adds `n` to `counter`. The engine's [`NodeApi`](crate::NodeApi)
    /// adds at the counter's slot; the default is the named fallback,
    /// `count_n(counter.name(), n)`, so a context wrapper that forwards
    /// only the required methods still counts, under the same names.
    #[inline]
    fn bump_n(&mut self, counter: Counter, n: u64) {
        self.count_n(counter.name(), n);
    }

    /// Adds 1 to the counter named `name`: the fallback of
    /// [`ProtoCtx::bump`]. Protocol code bumps a [`Counter`] instead.
    fn count(&mut self, name: &'static str) {
        self.count_n(name, 1);
    }

    /// Adds `n` to the counter named `name`: the fallback of
    /// [`ProtoCtx::bump_n`]. Protocol code bumps a [`Counter`] instead.
    fn count_n(&mut self, name: &'static str, n: u64);

    /// A uniform draw from `0..bound` (nanoseconds or microseconds by
    /// caller convention) used to de-synchronize periodic timers.
    ///
    /// As a timer delay, jitter changes only *when* a protocol acts; the
    /// model checker resolves it to 0 and explores timer-tie orders
    /// nondeterministically instead. A draw compared with state can
    /// change *whether* it acts: MAODV's orphan repair starts only once
    /// staleness exceeds a threshold plus a draw, and the checker
    /// explores only the zero draw, the earliest repair.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is 0.
    fn jitter(&mut self, bound: u64) -> u64;

    /// A Bernoulli trial with probability `p` (e.g. the paper's
    /// anonymous-vs-cached coin and the member accept probability).
    ///
    /// Sampling implementations draw the trial as-is (the engine keeps
    /// its historical RNG stream bit-identical); enumerating
    /// implementations must not branch when the outcome is forced
    /// (`p <= 0.0` is `false`, `p >= 1.0` is `true`), so degenerate
    /// configurations stay deterministic under the checker.
    fn chance(&mut self, p: f64) -> bool;

    /// A uniform index draw from `0..n` (next-hop / cached-member
    /// selection).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    fn pick_index(&mut self, n: usize) -> usize;

    /// A weighted index draw from `0..n` with weight `weight(i)` for
    /// each candidate (§4.2 locality weighting). Weights must be
    /// strictly positive.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0.
    fn pick_weighted<F: Fn(usize) -> f64>(&mut self, n: usize, weight: F) -> usize;
}

/// What the engine dispatched into a protocol instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dispatch<M> {
    /// [`Protocol::start`] at time zero.
    Start,
    /// [`Protocol::on_packet`].
    Packet {
        /// The sending node.
        from: NodeId,
        /// The delivered payload.
        msg: M,
        /// Unicast or broadcast reception.
        rx: RxKind,
    },
    /// [`Protocol::on_timer`].
    Timer {
        /// The timer tag.
        key: TimerKey,
    },
    /// [`Protocol::on_send_failure`].
    SendFailure {
        /// The unreachable destination.
        to: NodeId,
        /// The undeliverable payload.
        msg: M,
    },
}

impl<M: Message> Dispatch<M> {
    /// Invokes the handler this dispatch names on `protocol`. The one
    /// `Dispatch` → handler mapping in the workspace: the engine's
    /// upcall, the conformance replay and the model checker all go
    /// through it, so they cannot disagree on what a dispatch means.
    #[inline(always)]
    pub fn deliver<P: Protocol<Msg = M>, C: ProtoCtx<M>>(self, protocol: &mut P, ctx: &mut C) {
        match self {
            Dispatch::Start => protocol.start(ctx),
            Dispatch::Packet { from, msg, rx } => protocol.on_packet(ctx, from, msg, rx),
            Dispatch::Timer { key } => protocol.on_timer(ctx, key),
            Dispatch::SendFailure { to, msg } => protocol.on_send_failure(ctx, to, msg),
        }
    }
}

/// The outcome of one named random choice, as a [`ProtoCtx`] choice
/// method returned it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Choice {
    /// [`ProtoCtx::jitter`].
    Jitter(u64),
    /// [`ProtoCtx::chance`].
    Chance(bool),
    /// [`ProtoCtx::pick_index`] or [`ProtoCtx::pick_weighted`].
    Index(usize),
}

/// A watcher of an engine run, called around every protocol upcall:
/// [`dispatching`](Observer::dispatching), then
/// [`chose`](Observer::chose) once per named choice the handler draws,
/// then [`dispatched`](Observer::dispatched). Upcalls never nest, and
/// every node's [`Dispatch::Start`] comes first, in node-id order,
/// while the engine is built.
///
/// The hooks get shared views only, neither the world nor a `&mut`
/// protocol, so watching a run cannot change it. Each does nothing by
/// default; under [`Quiet`], the engine's default observer, they
/// compile away.
pub trait Observer<P: Protocol> {
    /// `dispatch` is about to reach `node` at `now`.
    #[inline]
    fn dispatching(&mut self, _node: NodeId, _now: SimTime, _dispatch: &Dispatch<P::Msg>) {}

    /// The handler under way drew `choice`.
    #[inline]
    fn chose(&mut self, _choice: Choice) {}

    /// The handler returned, leaving `node` in state `protocol`.
    #[inline]
    fn dispatched(&mut self, _node: NodeId, _protocol: &P) {}
}

/// The observer that watches nothing: [`Engine`](crate::Engine)'s
/// default.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quiet;

impl<P: Protocol> Observer<P> for Quiet {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_and_dispatch_are_comparable() {
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Ping;
        impl Message for Ping {
            fn wire_size(&self) -> usize {
                1
            }
        }
        let d: Dispatch<Ping> = Dispatch::Timer { key: 7 };
        assert_eq!(d, Dispatch::Timer { key: 7 });
    }
}
