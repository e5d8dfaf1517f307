//! Golden snapshots for the report renderers.
//!
//! The figure pipeline's output formats are load-bearing: the
//! committed golden figures (`tests/golden/*.json`) are compared
//! byte-for-byte, and `render_json` promises exact-float-bits
//! rendering. These tests pin the *renderers themselves* against a
//! fixed synthetic input, so an innocent-looking formatting tweak
//! (precision change, column shuffle, string escape) fails
//! `cargo test` here instead of silently invalidating every committed
//! golden downstream.
//!
//! The inputs deliberately use values with non-terminating binary
//! fractions (thirds, sevenths) so shortest-roundtrip float formatting
//! is actually exercised, not just `x.0` integers.
//!
//! Regenerating after an *intentional* format change:
//!
//! ```text
//! AG_UPDATE_SNAPSHOTS=1 cargo test -p ag-harness --test report_snapshots
//! ```
//!
//! then review the diff under `crates/harness/tests/snapshots/` and
//! commit it together with the renderer change.

use ag_harness::experiment::SweepPoint;
use ag_harness::matrix::{MatrixCell, MatrixReport};
use ag_harness::{report, ProtocolKind};
use ag_sim::stats::Summary;
use std::path::PathBuf;

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name)
}

/// Compares `rendered` with the committed snapshot, or rewrites the
/// snapshot when `AG_UPDATE_SNAPSHOTS` is set.
fn assert_snapshot(name: &str, rendered: &str) {
    let path = snapshot_path(name);
    if std::env::var_os("AG_UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", path.display()));
    assert!(
        rendered == golden,
        "{name} drifted from its committed snapshot.\n\
         If the format change is intentional, regenerate with\n\
         AG_UPDATE_SNAPSHOTS=1 cargo test -p ag-harness --test report_snapshots\n\
         and commit the diff.\n--- committed ---\n{golden}\n--- rendered ---\n{rendered}"
    );
}

/// Fixed sweep points with awkward float bits in every summary field.
fn sweep_points() -> Vec<SweepPoint> {
    let mk = |x: f64, sent: u64, maodv: [f64; 3], gossip: [f64; 3], goodput: [f64; 3]| SweepPoint {
        x,
        sent,
        maodv: maodv.into_iter().collect(),
        gossip: gossip.into_iter().collect(),
        goodput: goodput.into_iter().collect(),
    };
    vec![
        mk(
            45.0,
            200,
            [100.0 / 3.0, 50.0, 190.0 / 7.0],
            [180.2, 199.0, 1000.0 / 6.0],
            [89.9, 100.0, 250.0 / 3.0],
        ),
        mk(
            1.0 / 3.0,
            200,
            [0.1, 0.2, 0.3],
            [120.0, 130.0, 140.0],
            [60.06, 72.5, 81.25],
        ),
    ]
}

fn matrix_report() -> MatrixReport {
    let cell = |protocol, loss: &str, churn: &str, max_speed, received: [f64; 3]| MatrixCell {
        protocol,
        loss: loss.into(),
        churn: churn.into(),
        max_speed,
        sent: 300,
        received: received.into_iter().collect::<Summary>(),
    };
    MatrixReport {
        protocols: vec![
            ProtocolKind::Maodv,
            ProtocolKind::Gossip,
            ProtocolKind::Odmrp,
        ],
        cells: vec![
            cell(
                ProtocolKind::Maodv,
                "ideal",
                "none",
                0.2,
                [150.0, 200.0, 500.0 / 3.0],
            ),
            cell(
                ProtocolKind::Gossip,
                "ideal",
                "none",
                0.2,
                [280.0, 299.0, 2000.0 / 7.0],
            ),
            cell(
                ProtocolKind::Odmrp,
                "ideal",
                "none",
                0.2,
                [260.0, 290.0, 800.0 / 3.0],
            ),
            cell(
                ProtocolKind::Maodv,
                "shadowing",
                "harsh",
                10.0,
                [40.0, 90.0, 61.5],
            ),
            cell(
                ProtocolKind::Gossip,
                "shadowing",
                "harsh",
                10.0,
                [200.5, 250.0, 666.0 / 3.0],
            ),
            cell(
                ProtocolKind::Odmrp,
                "shadowing",
                "harsh",
                10.0,
                [150.0, 230.0, 190.0],
            ),
        ],
    }
}

#[test]
fn render_json_matches_snapshot() {
    assert_snapshot("sweep.json", &report::render_json(&sweep_points()));
}

#[test]
fn render_matrix_matches_snapshot() {
    assert_snapshot("matrix.txt", &report::render_matrix(&matrix_report()));
}

#[test]
fn render_table_matches_snapshot() {
    assert_snapshot(
        "table.txt",
        &report::render_table(
            "Figure 2: packets received vs. transmission range",
            "range (m)",
            &sweep_points(),
        ),
    );
}

#[test]
fn render_csv_matches_snapshot() {
    assert_snapshot("sweep.csv", &report::render_csv(&sweep_points()));
}
