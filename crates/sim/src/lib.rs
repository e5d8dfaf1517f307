//! # ag-sim: deterministic discrete-event simulation kernel
//!
//! This crate is the substrate replacing GloMoSim/PARSEC in the reproduction
//! of *Anonymous Gossip: Improving Multicast Reliability in Mobile Ad-Hoc
//! Networks* (Chandra, Ramasubramanian, Birman — ICDCS 2001). It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer nanosecond simulated time,
//!   immune to floating-point drift over 600-second runs.
//! * [`EventQueue`] — the scheduler: a self-tuning calendar queue of
//!   timestamped events (one node arena under a sliding day window, an
//!   overflow heap beyond it) with deterministic FIFO tie-breaking, the
//!   heart of the kernel. The seed `BinaryHeap` implementation survives as
//!   [`reference::BinaryHeapQueue`], the differential-testing oracle and
//!   perf baseline (both drain in the identical `(time, seq)` order).
//! * [`rng`] — reproducible random-number streams: a master seed is split
//!   into independent per-component streams with SplitMix64 so that adding a
//!   node or a protocol never perturbs the randomness seen by others.
//! * [`stats`] — counters, summaries and histograms used by the experiment
//!   harness to build the paper's tables and error bars.
//! * [`ConfigError`] — what every configuration type's `validate` returns.
//!
//! The kernel is *sequential*: GloMoSim's parallelism was a wall-clock
//! optimisation, not a semantic feature, and a sequential kernel buys exact
//! reproducibility (a run is a pure function of `(scenario, seed)`).
//!
//! # Example
//!
//! ```
//! use ag_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "later");
//! q.schedule(SimTime::ZERO, "now");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "now");
//! assert_eq!(t, SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod event;
mod time;

pub mod hash;
pub mod reference;
pub mod rng;
pub mod stats;

pub use config::ConfigError;
pub use event::{EventEntry, EventQueue};
pub use time::{SimDuration, SimTime};
