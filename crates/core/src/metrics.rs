//! Gossip-layer measurement: the paper's goodput metric (§5.5) plus the
//! member's round count.

/// One member's gossip counters; only members gossip, so a router
/// keeps none and reads zero.
///
/// **Goodput** (§5.5) is "the percentage of non-duplicate messages
/// received through gossip replies to the total number of messages
/// received through gossip replies" — the fraction of recovery traffic
/// that was actually useful. How rounds split between anonymous, cached
/// and skipped is counted run-wide only (`ag.request_anon_sent`,
/// `ag.request_cached_sent`, `ag.round_skipped`).
#[derive(Debug, Clone, Copy, Default, Hash)]
pub struct GossipMetrics {
    /// Gossip rounds started (anonymous, cached or skipped).
    pub rounds: u64,
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
        self.rounds
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
}
