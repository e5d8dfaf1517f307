//! Engine-trace conformance: replaying a recorded run through the pure
//! facade.
//!
//! The engine (built with [`Engine::new_traced`](ag_net::Engine)) logs
//! every dispatch it makes into a protocol instance together with the
//! named-choice outcomes drawn and a digest of the state afterwards.
//! [`replay_trace`] re-executes that log against *fresh* protocol
//! instances through [`ReplayCtx`] — a [`ProtoCtx`] that feeds back the
//! recorded choices and discards effects — asserting digest equality
//! after every dispatch. If the pure `transition(state, action)` facade
//! ever drifted from what runs under the engine (a handler reading
//! ambient state, an RNG draw outside the named-choice surface), the
//! first divergent dispatch pinpoints it.

use ag_net::{state_digest, Choice, Message, NodeId, ProtoCtx, Protocol, TraceRecord};
use ag_sim::{SimDuration, SimTime};

/// A [`ProtoCtx`] that replays recorded named-choice outcomes and
/// swallows effects (the trace already reflects their consequences).
pub struct ReplayCtx<'a> {
    now: SimTime,
    id: NodeId,
    node_count: usize,
    choices: &'a [Choice],
    pos: usize,
}

impl<'a> ReplayCtx<'a> {
    /// A context replaying `choices` for a dispatch at `now` on `id`.
    pub fn new(now: SimTime, id: NodeId, node_count: usize, choices: &'a [Choice]) -> Self {
        ReplayCtx {
            now,
            id,
            node_count,
            choices,
            pos: 0,
        }
    }

    /// Number of choices consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }

    fn pull(&mut self) -> Choice {
        let c = *self.choices.get(self.pos).unwrap_or_else(|| {
            panic!(
                "replay drew choice #{} but trace has {}",
                self.pos,
                self.choices.len()
            )
        });
        self.pos += 1;
        c
    }
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

    fn set_timer(&mut self, _delay: SimDuration, _key: u64) {}

    fn count(&mut self, _name: &'static str) {}

    fn count_n(&mut self, _name: &'static str, _n: u64) {}

    fn jitter(&mut self, _bound: u64) -> u64 {
        match self.pull() {
            Choice::Jitter(v) => v,
            other => panic!("trace expected jitter, got {other:?}"),
        }
    }

    fn chance(&mut self, _p: f64) -> bool {
        match self.pull() {
            Choice::Chance(b) => b,
            other => panic!("trace expected chance, got {other:?}"),
        }
    }

    fn pick_index(&mut self, n: usize) -> usize {
        match self.pull() {
            Choice::Index(i) if i < n => i,
            other => panic!("trace expected index < {n}, got {other:?}"),
        }
    }

    fn pick_weighted<F: Fn(usize) -> f64>(&mut self, n: usize, _weight: F) -> usize {
        <Self as ProtoCtx<M>>::pick_index(self, n)
    }
}

/// Replays an engine trace against fresh protocol instances (built
/// with the same constructor arguments as the engine run), asserting
/// lockstep state-digest equality after every dispatch. Returns the
/// number of dispatches checked.
///
/// # Panics
///
/// Panics on the first divergence: a digest mismatch, a handler
/// drawing more/fewer choices than recorded, or a choice-kind
/// mismatch.
pub fn replay_trace<P: Protocol>(protocols: &mut [P], trace: &[TraceRecord<P::Msg>]) -> usize {
    for (step, rec) in trace.iter().enumerate() {
        let i = rec.node.index();
        let mut ctx = ReplayCtx::new(rec.at, rec.node, protocols.len(), &rec.choices);
        rec.dispatch.clone().deliver(&mut protocols[i], &mut ctx);
        assert_eq!(
            ctx.consumed(),
            rec.choices.len(),
            "dispatch #{step} ({:?} at {:?} on {}): consumed {} of {} recorded choices",
            rec.dispatch,
            rec.at,
            rec.node,
            ctx.consumed(),
            rec.choices.len(),
        );
        let digest = state_digest(&protocols[i]);
        assert_eq!(
            digest, rec.digest,
            "dispatch #{step} ({:?} at {:?} on {}): replayed state diverged from engine",
            rec.dispatch, rec.at, rec.node,
        );
    }
    trace.len()
}
