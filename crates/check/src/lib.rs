//! # ag-check: exhaustive model checking of the protocol cores
//!
//! The workspace's protocol implementations (gossip, MAODV, ODMRP) are
//! written against the pure [`ag_net::ProtoCtx`] facade: every handler
//! is a `transition(state, action) -> (state, effects)` function whose
//! only nondeterminism is *named random choices*. This crate runs the
//! **exact same monomorphized protocol code** that executes under
//! `ag_net::Engine` inside two other harnesses:
//!
//! 1. **Explicit-state model checking** ([`net::NetModel`] +
//!    [`explore()`] + [`logic`]): small-N abstract networks where frame
//!    delivery order, budgeted loss, budgeted radio churn, timer ties
//!    and every named choice branch nondeterministically. The explored
//!    graph is state ids: per state a projection, a parent and its
//!    successor ids, no actions. Temporal properties (`always` /
//!    `leads_to`) are decided over the full reachable graph; a
//!    counterexample is a path of state ids, terminal or lasso-shaped,
//!    whose states and actions are replayed through the machine by
//!    state identity.
//! 2. **Lockstep conformance** ([`Conform`]): an engine observer that
//!    replays every dispatch of a plain engine run, with the choices
//!    the live handler drew, into a replica of the node, asserting the
//!    same choices and the same [`state_key`] after each — the proof
//!    that the model the checker explores *is* the code the simulator
//!    runs.
//!
//! Everything is implemented in-workspace (no external model-checking
//! dependency), mirroring the vendored-shim policy in `vendor/`.
//! See `docs/MODEL_CHECKING.md` for the checked configurations, the
//! property definitions, state-space sizes and the counterexample
//! format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conform;
pub mod explore;
pub mod logic;
pub mod machine;
pub mod net;

pub use ag_sim::hash::state_key;
pub use conform::Conform;
pub use explore::{explore, Exploration, Limits};
pub use logic::{always, exists, leads_to, render_counterexample, Counterexample, Verdict};
pub use machine::Machine;
pub use net::{NetAction, NetModel, NetState};
