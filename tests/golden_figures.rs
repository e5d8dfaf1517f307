//! Golden-figure regression: a committed small-seed snapshot of the
//! fig2 sweep (and fig8's goodput series) must be reproduced
//! byte-for-byte by the current build.
//!
//! The snapshots are rendered with exact float bits
//! (`report::render_json` / `{:#?}`, see
//! `anonymous_gossip::golden_snapshots`), so *any* numeric drift in the
//! kernel, mobility, PHY/MAC, MAODV, gossip or harness layers fails
//! this test — the paper's figures cannot silently shift under a
//! refactor. The new opt-in stress knobs (reception models, churn) are
//! exercised elsewhere; these runs use the default ideal PHY.
//!
//! Intentional changes (recorded in CHANGES.md) refresh the
//! snapshots with `cargo run --release --example regen_golden`.

/// Renders the golden snapshot written to `tests/golden/<file>`.
fn render(file: &str) -> String {
    let (_, content) = anonymous_gossip::golden_snapshots()
        .into_iter()
        .find(|(name, _)| *name == file)
        .expect("a golden snapshot of that name");
    content
}

#[test]
fn fig2_small_sweep_matches_committed_snapshot() {
    let got = render("fig2_small.json");
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
    let got = render("fig8_small.txt");
    let want = include_str!("golden/fig8_small.txt");
    assert_eq!(
        got, want,
        "fig8 goodput series diverged from tests/golden/fig8_small.txt; \
         if this change is intentional, document it and re-run \
         `cargo run --release --example regen_golden`"
    );
}
