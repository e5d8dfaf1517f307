//! [`NodeApi`]: the engine's implementation of the [`ProtoCtx`] facade.

use ag_sim::{SimDuration, SimTime};
use rand::Rng;

use super::{Event, World};
use crate::ctx::{Choice, Observer, ProtoCtx};
use crate::{Counter, NodeId, Protocol, TimerKey};

/// The per-node view of the world handed to [`Protocol`](crate::Protocol) callbacks.
///
/// This is the engine's implementation of [`ProtoCtx`]: sends become
/// MAC-queued frames, timers become kernel events, and every named
/// random choice draws from the node's [`StreamKind::Node`](ag_sim::rng::StreamKind) stream —
/// nothing else touches that stream, and each outcome is shown to the
/// engine's [`Observer`], which is what makes engine runs replayable
/// choice-for-choice through the pure facade (`ag-check`).
pub struct NodeApi<'a, P: Protocol, O> {
    pub(super) world: &'a mut World<P::Msg>,
    pub(super) obs: &'a mut O,
    pub(super) node: usize,
}

impl<P: Protocol, O: Observer<P>> ProtoCtx<P::Msg> for NodeApi<'_, P, O> {
    fn now(&self) -> SimTime {
        self.world.now
    }

    fn id(&self) -> NodeId {
        NodeId::new(self.node as u32)
    }

    fn node_count(&self) -> usize {
        self.world.node_count()
    }

    /// Queues a unicast frame to `dest` (ACKed; retried up to the retry
    /// limit; [`Protocol::on_send_failure`](crate::Protocol::on_send_failure) fires if it never gets
    /// through — including when a radio failure destroys it while
    /// queued). Exception: a frame sent while this node's own radio is
    /// already down (churn) is discarded without a callback.
    fn send(&mut self, dest: NodeId, msg: P::Msg) {
        debug_assert!(
            dest.index() < self.world.node_count(),
            "unknown destination {dest}"
        );
        debug_assert!(dest.index() != self.node, "unicast to self");
        self.world.enqueue_frame(self.node, Some(dest), msg);
    }

    /// Queues a local broadcast frame (heard by every node in range,
    /// unacknowledged).
    fn broadcast(&mut self, msg: P::Msg) {
        self.world.enqueue_frame(self.node, None, msg);
    }

    // ag-lint: hot-path
    /// Schedules [`Protocol::on_timer`](crate::Protocol::on_timer) with `key` after `delay`.
    ///
    /// Timers are not cancellable; see [`TimerKey`] for the idiom.
    fn set_timer(&mut self, delay: SimDuration, key: TimerKey) {
        let at = self.world.now + delay;
        self.world.queue.schedule(
            at,
            Event::Timer {
                node: self.node,
                key,
            },
        );
    }

    fn bump_n(&mut self, counter: Counter, n: u64) {
        self.world.tally.bump(counter, n);
    }

    fn count_n(&mut self, name: &'static str, n: u64) {
        self.world.tally.add_named(name, n);
    }

    // ag-lint: hot-path
    fn jitter(&mut self, bound: u64) -> u64 {
        let v = self.world.node_rngs[self.node].random_range(0..bound);
        self.obs.chose(Choice::Jitter(v));
        v
    }

    // ag-lint: hot-path
    fn chance(&mut self, p: f64) -> bool {
        // Drawn unconditionally (even for p ∈ {0, 1}) so the node RNG
        // stream is bit-identical to the pre-facade engine.
        let v = self.world.node_rngs[self.node].random_bool(p);
        self.obs.chose(Choice::Chance(v));
        v
    }

    // ag-lint: hot-path
    fn pick_index(&mut self, n: usize) -> usize {
        let v = self.world.node_rngs[self.node].random_range(0..n);
        self.obs.chose(Choice::Index(v));
        v
    }

    // ag-lint: hot-path
    fn pick_weighted<F: Fn(usize) -> f64>(&mut self, n: usize, weight: F) -> usize {
        assert!(n > 0, "weighted pick over no candidates");
        // Two passes, so nothing allocates: the walk recomputes the
        // weights in the order the sum visited them, so the one draw and
        // every comparison are those of a collected weight buffer.
        let total: f64 = (0..n).map(&weight).sum();
        let mut draw = self.world.node_rngs[self.node].random_range(0.0..total);
        let mut picked = n - 1;
        for i in 0..n {
            let w = weight(i);
            if draw < w {
                picked = i;
                break;
            }
            draw -= w;
        }
        self.obs.chose(Choice::Index(picked));
        picked
    }
}
