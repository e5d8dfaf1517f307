//! # ag-harness: the paper's evaluation, regenerated
//!
//! Everything in §5 of *Anonymous Gossip* (ICDCS 2001) is reproducible
//! from this crate:
//!
//! * [`Scenario`] — the §5.1 simulation environment (200 m × 200 m
//!   field, random waypoint with `U(0, 80 s)` pauses, ⅓ of nodes in one
//!   group, a single CBR source emitting 2201 64-byte packets, 802.11 at
//!   2 Mbps) with every paper knob (range, speed, node count) exposed.
//! * [`run`] / [`RunResult`] — one simulation run of a protocol stack
//!   ([`ProtocolKind`]), reduced to per-member delivery counts and
//!   gossip metrics.
//! * [`experiment`] — [`experiment::pool`], the one per-seed reduction,
//!   and the multi-seed parameter sweeps built on it, producing the
//!   paper's "average with min/max error bars across receivers" series.
//! * [`figures`] — one [`figures::FigureSpec`] per paper figure (2–8).
//! * [`report`] — ASCII/CSV rendering of a regenerated figure.
//!
//! * [`parallel`] — the multi-seed worker pool; seeds of a sweep point
//!   run concurrently and merge deterministically in seed order.
//! * [`matrix`] — beyond the paper: the cross-protocol stress matrix
//!   sweeping {gossip, bare MAODV, ODMRP} × {loss model, churn level,
//!   speed} over the opt-in channel/churn knobs
//!   ([`Scenario::with_reception`], [`Scenario::with_churn`],
//!   [`Scenario::lossy`]).
//!
//! The `figures` binary prints a figure's series (`figures fig2` …
//! `figures fig8`, or `figures all`); environment variables `AG_SEEDS`
//! (default 10) and `AG_SIM_SECS` (default 600) scale the sweep down
//! for quick runs, and `AG_THREADS` sets the worker-thread count
//! (default: all available cores).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod result;
mod scenario;

pub mod experiment;
pub mod figures;
pub mod matrix;
pub mod parallel;
pub mod report;

pub use ag_net::{ChurnParams, ReceptionModel};
pub use parallel::{run_seeds, Parallelism};
pub use result::{MemberStats, RunResult, RunStats};
pub use scenario::{run, run_counting, ProtocolKind, Scenario, GROUP};
