//! Regenerates the golden-figure snapshots under `tests/golden/`.
//!
//! The snapshots pin a small-seed slice of the paper's evaluation with
//! exact float bits; `tests/golden_figures.rs` asserts byte-identical
//! output on every `cargo test`, so an engine refactor cannot silently
//! shift paper results. Both sides render through
//! `anonymous_gossip::golden_snapshots`. If a change *intentionally*
//! alters results (and CHANGES.md records why), refresh the snapshots
//! with:
//!
//! ```text
//! cargo run --release --example regen_golden
//! ```

use std::fs;
use std::path::Path;

fn main() {
    let dir = Path::new("tests/golden");
    fs::create_dir_all(dir).expect("create tests/golden");
    eprintln!("regenerating the golden snapshots...");
    for (name, content) in anonymous_gossip::golden_snapshots() {
        fs::write(dir.join(name), content).expect("write snapshot");
    }
    eprintln!("done; review the diff before committing.");
}
