//! [`NodeApi`]: the engine's implementation of the [`ProtoCtx`] facade.

use ag_mobility::Vec2;
use ag_sim::{SimDuration, SimTime};
use rand::Rng;

use super::{Event, World};
use crate::ctx::{Choice, ProtoCtx};
use crate::{Message, NodeId, TimerKey};

/// The per-node view of the world handed to [`Protocol`](crate::Protocol) callbacks.
///
/// This is the engine's implementation of [`ProtoCtx`]: sends become
/// MAC-queued frames, timers become kernel events, and every named
/// random choice draws from the node's [`StreamKind::Node`](ag_sim::rng::StreamKind) stream —
/// nothing else touches that stream, which is what makes engine runs
/// replayable choice-for-choice through the pure facade (`ag-check`).
pub struct NodeApi<'a, M: Message> {
    pub(super) world: &'a mut World<M>,
    pub(super) node: usize,
}

impl<'a, M: Message> NodeApi<'a, M> {
    /// This node's current position (exposed for tracing/metrics only —
    /// the protocols in this workspace never route on positions, so it
    /// is deliberately *not* part of [`ProtoCtx`]).
    pub fn position(&self) -> Vec2 {
        self.world.position(self.node)
    }
}

impl<'a, M: Message> ProtoCtx<M> for NodeApi<'a, M> {
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
    fn send(&mut self, dest: NodeId, msg: M) {
        debug_assert!(
            dest.index() < self.world.node_count(),
            "unknown destination {dest}"
        );
        debug_assert!(dest.index() != self.node, "unicast to self");
        self.world.enqueue_frame(self.node, Some(dest), msg);
    }

    /// Queues a local broadcast frame (heard by every node in range,
    /// unacknowledged).
    fn broadcast(&mut self, msg: M) {
        self.world.enqueue_frame(self.node, None, msg);
    }

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

    fn count(&mut self, name: &'static str) {
        self.world.counters.incr(name);
    }

    fn count_n(&mut self, name: &'static str, n: u64) {
        self.world.counters.add(name, n);
    }

    fn jitter(&mut self, bound: u64) -> u64 {
        let v = self.world.node_rngs[self.node].random_range(0..bound);
        self.world.record_choice(Choice::Jitter(v));
        v
    }

    fn chance(&mut self, p: f64) -> bool {
        // Drawn unconditionally (even for p ∈ {0, 1}) so the node RNG
        // stream is bit-identical to the pre-facade engine.
        let v = self.world.node_rngs[self.node].random_bool(p);
        self.world.record_choice(Choice::Chance(v));
        v
    }

    fn pick_index(&mut self, n: usize) -> usize {
        let v = self.world.node_rngs[self.node].random_range(0..n);
        self.world.record_choice(Choice::Index(v));
        v
    }

    fn pick_weighted<F: Fn(usize) -> f64>(&mut self, n: usize, weight: F) -> usize {
        assert!(n > 0, "weighted pick over no candidates");
        // Two passes instead of a collected weight buffer: the sum
        // visits the weights in the same order an explicit `Vec` would
        // and the walk recomputes the same values, so the single RNG
        // draw and every comparison are bit-identical to the historical
        // allocating implementation (and nothing allocates).
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
        self.world.record_choice(Choice::Index(picked));
        picked
    }
}
