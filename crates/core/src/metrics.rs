//! Gossip-layer measurement: the paper's goodput metric (§5.5) plus
//! round/walk accounting for the overhead analysis.

/// Counters describing one member's gossip activity.
///
/// **Goodput** (§5.5) is "the percentage of non-duplicate messages
/// received through gossip replies to the total number of messages
/// received through gossip replies" — the fraction of recovery traffic
/// that was actually useful.
#[derive(Debug, Clone, Copy, Default, Hash)]
pub struct GossipMetrics {
    /// Gossip rounds that chose anonymous gossip.
    pub rounds_anonymous: u64,
    /// Gossip rounds that chose cached gossip.
    pub rounds_cached: u64,
    /// Rounds skipped (no eligible next hop / empty cache fallback
    /// unavailable).
    pub rounds_skipped: u64,
    /// Walking requests this node accepted as a member.
    pub requests_accepted: u64,
    /// Walking requests this node propagated onward.
    pub requests_propagated: u64,
    /// Walking requests dropped (TTL exhausted / nowhere to go).
    pub requests_dropped: u64,
    /// Gossip replies sent, in packets.
    pub reply_packets_sent: u64,
    /// Packets received inside gossip replies (duplicates included).
    pub reply_packets_received: u64,
    /// Of those, packets this member did not already have.
    pub reply_packets_useful: u64,
}

impl GossipMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// The §5.5 goodput percentage, or `None` if no reply packet has
    /// arrived yet (nothing to measure).
    pub fn goodput_percent(&self) -> Option<f64> {
        if self.reply_packets_received == 0 {
            None
        } else {
            Some(100.0 * self.reply_packets_useful as f64 / self.reply_packets_received as f64)
        }
    }

    /// Total gossip rounds attempted.
    pub fn rounds_total(&self) -> u64 {
        self.rounds_anonymous + self.rounds_cached + self.rounds_skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_none_without_replies() {
        assert_eq!(GossipMetrics::new().goodput_percent(), None);
    }

    #[test]
    fn goodput_percentage() {
        let m = GossipMetrics {
            reply_packets_received: 50,
            reply_packets_useful: 49,
            ..Default::default()
        };
        assert!((m.goodput_percent().unwrap() - 98.0).abs() < 1e-9);
    }

    #[test]
    fn rounds_total_sums() {
        let m = GossipMetrics {
            rounds_anonymous: 3,
            rounds_cached: 2,
            rounds_skipped: 1,
            ..Default::default()
        };
        assert_eq!(m.rounds_total(), 6);
    }
}
