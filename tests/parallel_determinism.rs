//! Cross-crate guarantees of the parallel sweep harness and the spatial
//! index: thread count and index choice may change wall-clock, never
//! results.

use ag_harness::experiment::sweep_point;
use ag_harness::figures::fig8;
use ag_harness::{report, run, Parallelism, ProtocolKind, Scenario};

/// The same figure point run with 1 and with 4 worker threads must
/// produce byte-identical serialized `SweepPoint`s (same CSV bytes and
/// the same float bits under `Debug`).
#[test]
fn sweep_point_is_byte_identical_across_thread_counts() {
    let sc = Scenario::paper(10, 90.0, 0.5).with_duration_secs(50);
    let one = sweep_point(&sc, 90.0, 4, Parallelism::new(1));
    let four = sweep_point(&sc, 90.0, 4, Parallelism::new(4));
    assert_eq!(
        report::render_csv(std::slice::from_ref(&one)).into_bytes(),
        report::render_csv(std::slice::from_ref(&four)).into_bytes()
    );
    assert_eq!(format!("{one:?}"), format!("{four:?}"));
}

/// Figure 8's pooled goodput series (observations and their
/// histogram) is likewise thread-count invariant.
#[test]
fn fig8_is_byte_identical_across_thread_counts() {
    let one = fig8(2, 30, Parallelism::new(1)).expect("valid scenarios");
    let four = fig8(2, 30, Parallelism::new(4)).expect("valid scenarios");
    assert_eq!(
        report::render_goodput(&one).into_bytes(),
        report::render_goodput(&four).into_bytes()
    );
    assert_eq!(format!("{one:?}"), format!("{four:?}"));
    for s in &one {
        assert_eq!(s.goodput_hist.total(), s.member_goodput.len() as u64);
    }
}

/// Full-stack differential check at the harness level: grid-indexed and
/// brute-force engines produce identical `RunResult`s for both protocol
/// stacks.
#[test]
fn spatial_index_does_not_change_run_results() {
    let base = Scenario::paper(12, 75.0, 2.0).with_duration_secs(60);
    let grid_sc = base.clone().with_spatial_index(true);
    let brute_sc = base.with_spatial_index(false);
    for seed in 0..2 {
        let gg = run(&grid_sc, seed, ProtocolKind::Gossip);
        let gb = run(&brute_sc, seed, ProtocolKind::Gossip);
        assert_eq!(format!("{gg:?}"), format!("{gb:?}"), "gossip seed {seed}");
        let mg = run(&grid_sc, seed, ProtocolKind::Maodv);
        let mb = run(&brute_sc, seed, ProtocolKind::Maodv);
        assert_eq!(format!("{mg:?}"), format!("{mb:?}"), "maodv seed {seed}");
    }
}
