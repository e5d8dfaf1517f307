//! The transition-system abstraction the checker explores.

use std::fmt;

/// A finite(ly explorable) nondeterministic transition system: an
/// initial state and an enumerator of the actions (with all their
/// internal random choices resolved) enabled in a state.
///
/// [`successors`](Machine::successors) returns each enabled action
/// *paired with* the state it produces, because enumerating an action
/// (running a protocol handler to discover its choice points) already
/// computes the successor. It is the only transition function: the
/// explorer re-derives counterexample states by following recorded
/// actions through it again (see
/// [`Exploration::replay_path`](crate::Exploration::replay_path)).
pub trait Machine {
    /// A full world state. `Debug` is the canonical form the visited
    /// set hashes (see [`state_key`](crate::explore::state_key)).
    type State: Clone + fmt::Debug;
    /// One resolved transition label (deterministic given the state).
    /// Equality picks a recorded action out of a state's successors.
    type Action: Clone + fmt::Debug + PartialEq;

    /// The unique initial state.
    fn initial(&self) -> Self::State;

    /// Every `(action, successor)` pair enabled in `state`, in a
    /// deterministic order, with no action listed twice. An empty
    /// result marks a terminal state.
    fn successors(&self, state: &Self::State) -> Vec<(Self::Action, Self::State)>;
}
