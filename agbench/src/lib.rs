//! `agbench` — the reference benchmark of the Anonymous Gossip
//! simulator. See `README.md` beside this crate's manifest for the
//! workloads, the metric glossary and how to read the output.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod builder;
pub mod calib;
pub mod clock;
pub mod compare;
pub mod drivers;
pub mod json;
pub mod names;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
