//! Reduced results of one simulation run.

use std::collections::BTreeMap;

use ag_net::NodeId;
use ag_sim::stats::{Histogram, Summary, SummarySet};

use crate::ProtocolKind;

/// One member's outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemberStats {
    /// The member.
    pub node: NodeId,
    /// Distinct data packets received (the paper's y-axis).
    pub received: u64,
    /// Of those, first delivered along the multicast tree.
    pub via_tree: u64,
    /// Of those, first delivered by a gossip reply.
    pub via_gossip: u64,
    /// §5.5 goodput, if any reply traffic was received.
    pub goodput_percent: Option<f64>,
    /// Gossip rounds this member ran.
    pub gossip_rounds: u64,
}

/// The reduced outcome of one `(scenario, seed, protocol)` run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which stack ran.
    pub protocol: ProtocolKind,
    /// The master seed.
    pub seed: u64,
    /// The source member.
    pub source: NodeId,
    /// Packets the source emitted.
    pub sent: u64,
    /// Per-member outcomes (source included).
    pub members: Vec<MemberStats>,
    /// Engine counters at the end of the run.
    pub counters: Vec<(String, u64)>,
}

impl RunResult {
    /// Member stats excluding the source (which trivially has all its
    /// own packets); this is what the figures aggregate.
    pub fn receivers(&self) -> impl Iterator<Item = &MemberStats> {
        let source = self.source;
        self.members.iter().filter(move |m| m.node != source)
    }

    /// Summary of packets received across receivers (the paper's data
    /// point: mean plus min/max error bar).
    pub fn received_summary(&self) -> Summary {
        self.receivers().map(|m| m.received as f64).collect()
    }

    /// Mean delivery ratio across receivers, in `[0, 1]`.
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 {
            return 0.0;
        }
        self.received_summary().mean() / self.sent as f64
    }

    /// Value of an engine counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }
}

/// Constant-memory reduction of one or more runs.
///
/// [`RunResult`] keeps one [`MemberStats`] record per group member, so
/// pooling a metropolis-scale sweep (`seeds × members` records) makes
/// the *result* grow with the node count even though each run's engine
/// memory is bounded. `RunStats` is the streaming alternative: member
/// outcomes fold into fixed-size [`SummarySet`]/[`Histogram`]
/// accumulators the moment a run finishes, so a fold over any number of
/// seeds and any population is a few hundred bytes.
///
/// Merging is associative; `run_seeds` workers can each build a
/// `RunStats` and the seed-ordered merge reproduces the serial fold.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Runs absorbed.
    pub runs: u64,
    /// Packets sent by the sources, summed over runs.
    pub sent: u64,
    /// Per-receiver streams: `received`, `via_tree`, `via_gossip`,
    /// `gossip_rounds`, `goodput` (members with reply traffic only).
    pub receivers: SummarySet,
    /// §5.5 goodput distribution (percent), Figure-8 binning.
    pub goodput_hist: Histogram,
    /// Engine counters summed over runs.
    pub counters: BTreeMap<String, u64>,
}

impl Default for RunStats {
    fn default() -> Self {
        RunStats::new()
    }
}

impl RunStats {
    /// Creates an empty accumulator (goodput binned as in Figure 8).
    pub fn new() -> Self {
        RunStats {
            runs: 0,
            sent: 0,
            receivers: SummarySet::new(),
            goodput_hist: Histogram::new(0.0, 100.0, 20),
            counters: BTreeMap::new(),
        }
    }

    /// Folds one run into the accumulator and drops nothing but the
    /// per-member vector: receivers stream into the summaries, counters
    /// sum.
    pub fn absorb(&mut self, run: &RunResult) {
        self.runs += 1;
        self.sent += run.sent;
        for m in run.receivers() {
            self.receivers.record("received", m.received as f64);
            self.receivers.record("via_tree", m.via_tree as f64);
            self.receivers.record("via_gossip", m.via_gossip as f64);
            self.receivers
                .record("gossip_rounds", m.gossip_rounds as f64);
            if let Some(g) = m.goodput_percent {
                self.receivers.record("goodput", g);
                self.goodput_hist.record(g);
            }
        }
        for (k, v) in &run.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &RunStats) {
        self.runs += other.runs;
        self.sent += other.sent;
        self.receivers.merge(&other.receivers);
        self.goodput_hist.merge(&other.goodput_hist);
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Mean delivery ratio across all pooled receivers, in `[0, 1]`
    /// (packets received per receiver over mean packets sent per run).
    pub fn delivery_ratio(&self) -> f64 {
        if self.sent == 0 || self.runs == 0 {
            return 0.0;
        }
        self.receivers.get("received").mean() * self.runs as f64 / self.sent as f64
    }

    /// Value of a pooled engine counter (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(node: u32, received: u64) -> MemberStats {
        MemberStats {
            node: NodeId::new(node),
            received,
            via_tree: received,
            via_gossip: 0,
            goodput_percent: None,
            gossip_rounds: 0,
        }
    }

    fn result() -> RunResult {
        RunResult {
            protocol: ProtocolKind::Maodv,
            seed: 0,
            source: NodeId::new(0),
            sent: 100,
            members: vec![stats(0, 100), stats(1, 80), stats(2, 60)],
            counters: vec![("x".into(), 5)],
        }
    }

    #[test]
    fn receivers_exclude_source() {
        let r = result();
        let ids: Vec<NodeId> = r.receivers().map(|m| m.node).collect();
        assert_eq!(ids, vec![NodeId::new(1), NodeId::new(2)]);
    }

    #[test]
    fn summary_and_ratio() {
        let r = result();
        let s = r.received_summary();
        assert_eq!(s.mean(), 70.0);
        assert_eq!(s.min(), 60.0);
        assert_eq!(s.max(), 80.0);
        assert!((r.delivery_ratio() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn counter_lookup() {
        let r = result();
        assert_eq!(r.counter("x"), 5);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn run_stats_absorb_matches_run_result() {
        let r = result();
        let mut s = RunStats::new();
        s.absorb(&r);
        assert_eq!(s.runs, 1);
        assert_eq!(s.sent, 100);
        let rx = s.receivers.get("received");
        assert_eq!(rx.count(), 2);
        assert_eq!(rx.mean(), r.received_summary().mean());
        assert_eq!(rx.min(), 60.0);
        assert_eq!(rx.max(), 80.0);
        assert!((s.delivery_ratio() - r.delivery_ratio()).abs() < 1e-12);
        assert_eq!(s.counter("x"), 5);
        assert_eq!(s.counter("missing"), 0);
        // No goodput on these members: the histogram stays empty.
        assert_eq!(s.goodput_hist.total(), 0);
        assert_eq!(s.receivers.get("goodput").count(), 0);
    }

    #[test]
    fn run_stats_merge_matches_serial_fold() {
        let mut r2 = result();
        r2.seed = 1;
        r2.members[1].received = 40;
        r2.members[2].goodput_percent = Some(62.5);

        let mut serial = RunStats::new();
        serial.absorb(&result());
        serial.absorb(&r2);

        let mut left = RunStats::new();
        left.absorb(&result());
        let mut right = RunStats::new();
        right.absorb(&r2);
        left.merge(&right);

        assert_eq!(left.runs, serial.runs);
        assert_eq!(left.sent, serial.sent);
        assert_eq!(
            left.receivers.get("received").count(),
            serial.receivers.get("received").count()
        );
        assert_eq!(
            left.receivers.get("received").min(),
            serial.receivers.get("received").min()
        );
        assert!(
            (left.receivers.get("received").mean() - serial.receivers.get("received").mean()).abs()
                < 1e-12
        );
        assert_eq!(left.goodput_hist.total(), serial.goodput_hist.total());
        assert_eq!(left.counter("x"), serial.counter("x"));
    }
}
