//! Regenerates the golden-figure snapshots under `tests/golden/`.
//!
//! The snapshots pin a small-seed slice of the paper's evaluation with
//! exact float bits; `tests/golden_figures.rs` asserts byte-identical
//! output on every `cargo test`, so an engine refactor cannot silently
//! shift paper results. If a change *intentionally* alters results
//! (and CHANGES.md records why), refresh the snapshots with:
//!
//! ```text
//! cargo run --release --example regen_golden
//! ```

use std::fs;
use std::path::Path;

use ag_harness::figures::{fig2, fig8};
use ag_harness::{report, Parallelism};

/// Seeds per sweep point. Small on purpose: the snapshot is a tripwire,
/// not a reproduction (the figure binaries do that at full scale).
pub const GOLDEN_SEEDS: u64 = 1;
/// Simulated seconds per run (the paper's 600 s scaled down so the
/// check fits a normal `cargo test` budget).
pub const GOLDEN_SECS: u64 = 30;

fn main() {
    let dir = Path::new("tests/golden");
    fs::create_dir_all(dir).expect("create tests/golden");

    eprintln!("regenerating fig2 snapshot ({GOLDEN_SEEDS} seed x {GOLDEN_SECS} s)...");
    let points = fig2()
        .with_duration_secs(GOLDEN_SECS)
        .run(GOLDEN_SEEDS, Parallelism::auto());
    let fig2_json = report::render_json(&points);
    fs::write(dir.join("fig2_small.json"), &fig2_json).expect("write fig2 snapshot");

    eprintln!("regenerating fig8 snapshot...");
    let series = fig8(GOLDEN_SEEDS, GOLDEN_SECS, Parallelism::auto());
    let fig8_txt = format!("{series:#?}\n");
    fs::write(dir.join("fig8_small.txt"), &fig8_txt).expect("write fig8 snapshot");

    eprintln!("done; review the diff before committing.");
}
