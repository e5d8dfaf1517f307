//! Conformance tracing: the engine's half of the `ag-check` replay
//! contract. `World::trace` is `None` unless the engine was built with
//! `Engine::new_traced`; an untraced dispatch pays one `is_some` test.

use super::{Engine, NodeApi, World};
use crate::ctx::{state_digest, Choice, Dispatch, TraceRecord};
use crate::{Message, NodeId, Protocol};

/// Accumulates [`TraceRecord`]s plus the named-choice outcomes of the
/// protocol dispatch currently executing.
pub(super) struct TraceSink<M> {
    pub records: Vec<TraceRecord<M>>,
    pub pending: Vec<Choice>,
}

impl<M: Message> World<M> {
    /// Appends one named-choice outcome to the dispatch being traced
    /// (no-op with tracing off).
    #[inline]
    pub(super) fn record_choice(&mut self, c: Choice) {
        if let Some(t) = &mut self.trace {
            t.pending.push(c);
        }
    }
}

impl<P: Protocol> Engine<P> {
    /// [`Engine::upcall`] with tracing on: delivers `dispatch`, then
    /// seals it, the choices it drew and the post-dispatch state digest
    /// into a [`TraceRecord`].
    #[cold]
    #[inline(never)]
    pub(super) fn upcall_traced(
        world: &mut World<P::Msg>,
        protocols: &mut [P],
        node: usize,
        dispatch: Dispatch<P::Msg>,
    ) {
        let record = dispatch.clone();
        dispatch.deliver(&mut protocols[node], &mut NodeApi { world, node });
        let sink = world.trace.as_mut().expect("traced upcall without sink");
        sink.records.push(TraceRecord {
            node: NodeId::new(node as u32),
            at: world.now,
            dispatch: record,
            choices: std::mem::take(&mut sink.pending),
            digest: state_digest(&protocols[node]),
        });
    }
}
