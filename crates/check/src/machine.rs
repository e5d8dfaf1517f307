//! The transition-system abstraction the checker explores.

use std::fmt;
use std::hash::Hash;

/// A finite(ly explorable) nondeterministic transition system: an
/// initial state and an enumerator of the actions (with all their
/// internal random choices resolved) enabled in a state.
///
/// [`successors`](Machine::successors) returns each enabled action
/// *paired with* the state it produces, because enumerating an action
/// (running a protocol handler to discover its choice points) already
/// computes the successor. It is the only transition function: the
/// explorer re-derives counterexample states and actions by following
/// recorded state ids through it again (see
/// [`Exploration::replay_path`](crate::Exploration::replay_path)).
pub trait Machine {
    /// A full world state; its `Hash` is its identity (see
    /// [`state_key`](crate::state_key)).
    type State: Clone + Hash;
    /// One resolved transition label, printed in counterexamples.
    type Action: fmt::Debug;

    /// The unique initial state.
    fn initial(&self) -> Self::State;

    /// Every `(action, successor)` pair enabled in `state`, in a
    /// deterministic order. An empty result marks a terminal state.
    fn successors(&self, state: &Self::State) -> Vec<(Self::Action, Self::State)>;
}
