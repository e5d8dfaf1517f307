//! Multi-seed parameter sweeps: the machinery behind every figure.
//!
//! [`pool`] runs one protocol stack over `seeds` independent seeds and
//! pools the per-receiver packet counts; a sweep point is the pools of
//! the paper's two series, bare MAODV and gossip. The pooled summary's
//! mean is the paper's plotted line and its min/max are the error bars
//! ("the range of measured data values obtained for the full set of
//! receivers", §5.1).
//!
//! Seeds are independent runs, so [`pool`] farms them across a
//! worker pool (see [`crate::parallel`]) and merges the per-seed
//! summaries **in seed order regardless of completion order** — the
//! pooled result is bit-for-bit identical whether it ran on one thread
//! or sixteen.

use ag_sim::stats::Summary;

use crate::parallel::{run_seeds, Parallelism};
use crate::{run, ProtocolKind, Scenario};

/// One protocol stack at one configuration, pooled over seeds: what
/// every figure and the stress matrix are built from.
#[derive(Debug, Clone, Default)]
pub struct Pooled {
    /// Packets the source sent (the same in every seed).
    pub sent: u64,
    /// Per-receiver packet counts, per-seed summaries merged in seed
    /// order.
    pub received: Summary,
    /// Per-member goodput observations concatenated in seed order,
    /// member order within a seed (empty for stacks without gossip).
    /// Consumers pool these by `extend`, one observation at a time —
    /// not by [`Summary::merge`], whose floating-point result differs.
    pub goodput: Vec<f64>,
}

/// Runs `kind` over `seeds` seeds on `par` worker threads and pools the
/// outcomes in seed order, so the result is identical for every thread
/// count.
pub fn pool(sc: &Scenario, kind: ProtocolKind, seeds: u64, par: Parallelism) -> Pooled {
    let per_seed = run_seeds(seeds, par, |seed| {
        let r = run(sc, seed, kind);
        let goodput: Vec<f64> = r.receivers().filter_map(|m| m.goodput_percent).collect();
        (r.sent, r.received_summary(), goodput)
    });
    let mut pooled = Pooled::default();
    for (sent, received, goodput) in per_seed {
        debug_assert!(
            pooled.sent == 0 || pooled.sent == sent,
            "packets-sent varies across seeds ({} vs {sent}); \
             delivery percentages would be computed against the wrong total",
            pooled.sent
        );
        pooled.sent = sent;
        pooled.received.merge(&received);
        pooled.goodput.extend(goodput);
    }
    pooled
}

/// One x-position of a figure: pooled receiver summaries for both
/// protocol series.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub x: f64,
    /// Packets the source sent at this point.
    pub sent: u64,
    /// Pooled receiver packet counts, bare MAODV.
    pub maodv: Summary,
    /// Pooled receiver packet counts, MAODV + gossip.
    pub gossip: Summary,
    /// Pooled per-member goodput observations (gossip runs).
    pub goodput: Summary,
}

/// Runs one sweep point — both of the paper's series — over `seeds`
/// seeds on `par` worker threads.
pub fn sweep_point(sc: &Scenario, x: f64, seeds: u64, par: Parallelism) -> SweepPoint {
    let maodv = pool(sc, ProtocolKind::Maodv, seeds, par);
    let gossip = pool(sc, ProtocolKind::Gossip, seeds, par);
    SweepPoint {
        x,
        sent: gossip.sent,
        maodv: maodv.received,
        gossip: gossip.received,
        goodput: gossip.goodput.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_point_pools_across_seeds_and_members() {
        let sc = Scenario::paper(8, 100.0, 0.2).with_duration_secs(40);
        let p = sweep_point(&sc, 100.0, 2, Parallelism::new(2));
        // 8 nodes → 2 members min(8/3,2)=2 members → 1 receiver per run,
        // 2 seeds → 2 pooled observations per protocol.
        assert_eq!(p.maodv.count(), 2);
        assert_eq!(p.gossip.count(), 2);
        assert!(p.sent > 0);
        assert!(p.gossip.mean() >= 0.0);
    }

    #[test]
    fn sweep_applies_parameter() {
        let spec = crate::figures::FigureSpec {
            id: "test",
            title: "",
            xlabel: "",
            xs: vec![60.0, 90.0],
            apply: |sc, x| sc.range_m = x,
            base: Scenario::paper(6, 50.0, 0.2).with_duration_secs(30),
        };
        let pts = spec.run(1, Parallelism::serial()).expect("valid scenarios");
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].x, 60.0);
        assert_eq!(pts[1].x, 90.0);
    }

    #[test]
    fn pool_matches_single_runs() {
        let sc = Scenario::paper(8, 100.0, 0.2).with_duration_secs(40);
        let pooled = pool(&sc, ProtocolKind::Gossip, 2, Parallelism::new(2));
        let mut received = Summary::new();
        let mut goodput = Vec::new();
        for seed in 0..2 {
            let r = run(&sc, seed, ProtocolKind::Gossip);
            received.merge(&r.received_summary());
            goodput.extend(r.receivers().filter_map(|m| m.goodput_percent));
        }
        assert_eq!(pooled.sent, sc.packets_sent());
        assert_eq!(format!("{:?}", pooled.received), format!("{received:?}"));
        assert_eq!(pooled.goodput, goodput);
    }

    #[test]
    fn parallel_merge_is_bit_identical_to_serial() {
        let sc = Scenario::paper(8, 100.0, 0.5).with_duration_secs(40);
        let serial = sweep_point(&sc, 1.0, 3, Parallelism::serial());
        let par = sweep_point(&sc, 1.0, 3, Parallelism::new(3));
        // Debug formatting prints the exact bits of every float, so this
        // is a bit-for-bit comparison of the pooled summaries.
        assert_eq!(format!("{serial:?}"), format!("{par:?}"));
    }
}
