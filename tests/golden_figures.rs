//! Golden-figure regression: a committed small-seed snapshot of the
//! fig2 sweep (and fig8's goodput series) must be reproduced
//! byte-for-byte by the current build.
//!
//! The snapshots are rendered with exact float bits
//! (`report::render_json` / `{:#?}`), so *any* numeric drift in the
//! kernel, mobility, PHY/MAC, MAODV, gossip or harness layers fails
//! this test — the paper's figures cannot silently shift under a
//! refactor. The new opt-in stress knobs (reception models, churn) are
//! exercised elsewhere; these runs use the default ideal PHY.
//!
//! Intentional changes (documented in EXPERIMENTS.md) refresh the
//! snapshots with `cargo run --release --example regen_golden`.

use ag_harness::figures::{fig2, fig8};
use ag_harness::{report, Parallelism};

/// Must match `examples/regen_golden.rs`.
const GOLDEN_SEEDS: u64 = 1;
/// Must match `examples/regen_golden.rs`.
const GOLDEN_SECS: u64 = 30;

#[test]
fn fig2_small_sweep_matches_committed_snapshot() {
    let points = fig2()
        .with_duration_secs(GOLDEN_SECS)
        .run(GOLDEN_SEEDS, Parallelism::auto());
    let got = report::render_json(&points);
    let want = include_str!("golden/fig2_small.json");
    assert_eq!(
        got, want,
        "fig2 small-seed sweep diverged from tests/golden/fig2_small.json; \
         if this change is intentional, document it and re-run \
         `cargo run --release --example regen_golden`"
    );
}

#[test]
fn fig8_small_series_matches_committed_snapshot() {
    let series = fig8(GOLDEN_SEEDS, GOLDEN_SECS, Parallelism::auto());
    let got = format!("{series:#?}\n");
    let want = include_str!("golden/fig8_small.txt");
    assert_eq!(
        got, want,
        "fig8 goodput series diverged from tests/golden/fig8_small.txt; \
         if this change is intentional, document it and re-run \
         `cargo run --release --example regen_golden`"
    );
}
