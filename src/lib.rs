//! # Anonymous Gossip — workspace umbrella crate
//!
//! Reproduction of *Anonymous Gossip: Improving Multicast Reliability in
//! Mobile Ad-Hoc Networks* (Chandra, Ramasubramanian, Birman — ICDCS
//! 2001). This top-level package carries the cross-crate integration
//! tests (`tests/`) and runnable examples (`examples/`), and re-exports
//! every workspace crate so downstream users can depend on a single
//! name.
//!
//! The actual implementation lives in the `crates/` members:
//!
//! * [`sim`] — deterministic discrete-event kernel, RNG streams, stats.
//! * [`mobility`] — analytic random-waypoint and stationary models.
//! * [`net`] — unit-disk PHY, 802.11 DCF MAC, the network [`net::Engine`].
//! * [`maodv`] — the MAODV multicast tree substrate (paper §3).
//! * [`odmrp`] — the mesh-based ODMRP comparison protocol (§2).
//! * [`core`] — the Anonymous Gossip protocol itself (§4).
//! * [`harness`] — the §5 evaluation: scenarios, sweeps, figures 2–8.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ag_core as core;
pub use ag_harness as harness;
pub use ag_maodv as maodv;
pub use ag_mobility as mobility;
pub use ag_net as net;
pub use ag_odmrp as odmrp;
pub use ag_sim as sim;

/// Seeds per sweep point in the golden snapshots. Small on purpose: a
/// snapshot is a tripwire, not a reproduction (the figure binaries do
/// that at full scale).
const GOLDEN_SEEDS: u64 = 1;
/// Simulated seconds per golden run (the paper's 600 s scaled down so
/// the check fits a normal `cargo test` budget).
const GOLDEN_SECS: u64 = 30;

/// The golden-figure snapshots under `tests/golden/`, as `(file name,
/// content)` pairs: fig2's small sweep as exact-float JSON and fig8's
/// goodput series as `{:#?}`. `examples/regen_golden.rs` writes them,
/// and `tests/golden_figures.rs` compares them byte for byte with the
/// committed files.
pub fn golden_snapshots() -> [(&'static str, String); 2] {
    use harness::{figures, report, Parallelism};
    let points = figures::fig2()
        .with_duration_secs(GOLDEN_SECS)
        .run(GOLDEN_SEEDS, Parallelism::auto())
        .expect("fig2 scenarios are valid");
    let series = figures::fig8(GOLDEN_SEEDS, GOLDEN_SECS, Parallelism::auto())
        .expect("fig8 scenarios are valid");
    [
        ("fig2_small.json", report::render_json(&points)),
        ("fig8_small.txt", format!("{series:#?}\n")),
    ]
}
