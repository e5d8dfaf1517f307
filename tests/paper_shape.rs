//! Shape tests: scaled-down versions of the paper's figures asserting
//! the *qualitative* results the paper reports. Absolute numbers differ
//! from the paper (different radio constants, shorter runs) but the
//! orderings and trends must hold:
//!
//! * Gossip delivers at least as much as bare MAODV (Figs 2–7).
//! * Gossip shrinks the spread across members (all figures' error bars).
//! * Delivery improves with transmission range (Figs 2–3).
//! * Near-total delivery at very low speed with gossip (Fig 4).
//! * Goodput is high — most recovery traffic is useful (Fig 8).
//!
//! Each sweep here runs ~2 seeds at 150 simulated seconds so the whole
//! file stays within a normal `cargo test` budget.

use ag_harness::experiment::sweep_point;
use ag_harness::{figures, run, Parallelism, ProtocolKind, Scenario};

const SECS: u64 = 150;
const SEEDS: u64 = 2;

/// Pooled helper: run one scenario point for both protocols.
fn point(sc: &Scenario) -> ag_harness::experiment::SweepPoint {
    sweep_point(sc, 0.0, SEEDS, Parallelism::auto())
}

#[test]
fn gossip_beats_maodv_at_short_range() {
    // Fig 2's left side: sparse connectivity, where the tree suffers.
    let sc = Scenario::paper(40, 50.0, 0.2).with_duration_secs(SECS);
    let p = point(&sc);
    assert!(
        p.gossip.mean() >= p.maodv.mean(),
        "gossip {:.0} must be at least maodv {:.0}",
        p.gossip.mean(),
        p.maodv.mean()
    );
}

#[test]
fn gossip_beats_maodv_at_high_speed() {
    // Fig 5 regime: frequent link breaks.
    let sc = Scenario::paper(40, 75.0, 6.0).with_duration_secs(SECS);
    let p = point(&sc);
    assert!(
        p.gossip.mean() >= p.maodv.mean(),
        "gossip {:.0} vs maodv {:.0}",
        p.gossip.mean(),
        p.maodv.mean()
    );
}

#[test]
fn gossip_reduces_spread_across_members() {
    // The paper's second claim: "the variation in the number of packets
    // received is decreased". Pool a couple of stressed configurations.
    let mut gossip_spread = 0.0;
    let mut maodv_spread = 0.0;
    for (range, speed) in [(50.0, 0.2), (75.0, 4.0)] {
        let sc = Scenario::paper(40, range, speed).with_duration_secs(SECS);
        let p = point(&sc);
        gossip_spread += p.gossip.spread();
        maodv_spread += p.maodv.spread();
    }
    assert!(
        gossip_spread <= maodv_spread,
        "gossip spread {gossip_spread:.0} must not exceed maodv spread {maodv_spread:.0}"
    );
}

#[test]
fn delivery_improves_with_range() {
    // Figs 2–3: both protocols gain from better connectivity. Compare
    // the sparse end against the dense end.
    let lo = point(&Scenario::paper(40, 45.0, 0.2).with_duration_secs(SECS));
    let hi = point(&Scenario::paper(40, 80.0, 0.2).with_duration_secs(SECS));
    assert!(
        hi.gossip.mean() >= lo.gossip.mean(),
        "gossip at 80 m ({:.0}) should beat 45 m ({:.0})",
        hi.gossip.mean(),
        lo.gossip.mean()
    );
    assert!(
        hi.maodv.mean() >= lo.maodv.mean(),
        "maodv at 80 m ({:.0}) should beat 45 m ({:.0})",
        hi.maodv.mean(),
        lo.maodv.mean()
    );
}

#[test]
fn near_total_delivery_at_very_low_speed() {
    // Fig 4: "at very low values of maximum speed … near 100% packet
    // delivery" with gossip.
    let sc = Scenario::paper(40, 75.0, 0.2).with_duration_secs(SECS);
    let p = point(&sc);
    let ratio = p.gossip.mean() / p.sent as f64;
    assert!(
        ratio > 0.9,
        "gossip delivery at 0.2 m/s should be near-total, got {:.0}%",
        100.0 * ratio
    );
}

#[test]
fn goodput_is_high() {
    // Fig 8: goodput close to 100% — recovery traffic is not redundant.
    let sc = Scenario::paper(40, 55.0, 2.0).with_duration_secs(SECS);
    let mut total = 0u64;
    let mut useful = 0u64;
    for seed in 0..SEEDS {
        let r = run(&sc, seed, ProtocolKind::Gossip);
        for m in r.receivers() {
            // goodput_percent is per-member; aggregate raw counts via the
            // ratio (approximate reconstruction is fine at this scale).
            if let Some(g) = m.goodput_percent {
                total += 100;
                useful += g.round() as u64;
            }
        }
    }
    if total > 0 {
        let pct = 100.0 * useful as f64 / total as f64;
        assert!(pct > 80.0, "mean goodput should be high, got {pct:.1}%");
    }
}

#[test]
fn mesh_beats_bare_tree_but_costs_more_transmissions() {
    // §2's related-work claim: "the mesh-based protocol ODMRP provides
    // better packet delivery than tree-based protocols but pays an
    // extra cost for mesh maintenance". Compare ODMRP against bare
    // MAODV under mobility (per delivered packet, ODMRP must transmit
    // more).
    // Delivery under mobility: the mesh's soft state re-forms every
    // query round, so it rides out link breaks the tree must repair.
    let mobile = Scenario::paper(30, 60.0, 2.0).with_duration_secs(SECS);
    let mut odmrp_recv = 0.0;
    let mut maodv_recv = 0.0;
    for seed in 0..SEEDS {
        odmrp_recv += run(&mobile, seed, ProtocolKind::Odmrp)
            .received_summary()
            .mean();
        maodv_recv += run(&mobile, seed, ProtocolKind::Maodv)
            .received_summary()
            .mean();
    }
    assert!(
        odmrp_recv >= maodv_recv,
        "mesh should out-deliver the bare tree: odmrp {odmrp_recv:.0} vs maodv {maodv_recv:.0}"
    );
    // Maintenance cost: in a (quasi-)static network MAODV's multicast
    // control traffic is a handful of joins and then silence, while
    // ODMRP keeps flooding Join-Queries and replies for as long as the
    // source lives — the "extra cost for mesh maintenance".
    let static_net = Scenario::paper(30, 60.0, 0.001).with_duration_secs(SECS);
    let o = run(&static_net, 0, ProtocolKind::Odmrp);
    let m = run(&static_net, 0, ProtocolKind::Maodv);
    let odmrp_control = o.counter("odmrp.query_originated") + o.counter("odmrp.reply_sent");
    let maodv_control = m.counter("maodv.join_rreq")
        + m.counter("maodv.join_rreq_retry")
        + m.counter("maodv.repair_rreq")
        + m.counter("maodv.join_rrep_sent")
        + m.counter("maodv.mact_sent");
    assert!(
        odmrp_control > maodv_control,
        "mesh maintenance must keep paying in a static network: {odmrp_control} vs {maodv_control} control packets"
    );
}

#[test]
fn figure_specs_run_end_to_end_scaled() {
    // Smoke-run every figure spec at a tiny scale so the exact code
    // path used by the binaries is covered by tests.
    for spec in figures::all_line_figures() {
        let mut spec = spec.with_duration_secs(60);
        spec.xs = vec![spec.xs[0], *spec.xs.last().unwrap()];
        let pts = spec.run(1, Parallelism::auto()).expect("valid scenarios");
        assert_eq!(pts.len(), 2, "{} did not produce both points", spec.id);
        for p in &pts {
            assert!(p.sent > 0);
            assert!(p.gossip.count() > 0 && p.maodv.count() > 0);
        }
    }
    let g8 = figures::fig8(1, 60, Parallelism::auto()).expect("valid scenarios");
    assert_eq!(g8.len(), 4);
}
