//! Protocol constants.

use ag_sim::{ConfigError, SimDuration};

/// MAODV timing and retry parameters.
///
/// Defaults follow the paper's §5.1 settings (hello interval 600 ms,
/// allowed hello loss 4, group hello 5 s); the rest take the draft-05
/// defaults scaled to the paper's small network.
///
/// # Example
///
/// ```
/// use ag_maodv::MaodvConfig;
/// let cfg = MaodvConfig::paper_default();
/// assert_eq!(cfg.allowed_hello_loss, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct MaodvConfig {
    /// Interval between HELLO broadcasts (paper: 600 ms).
    pub hello_interval: SimDuration,
    /// Missed hellos before a neighbour link is declared broken (paper: 4).
    pub allowed_hello_loss: u32,
    /// Interval between the leader's group hellos (paper: 5 s).
    pub group_hello_interval: SimDuration,
    /// Housekeeping tick driving timeouts and retries.
    pub tick_interval: SimDuration,
    /// How long a join/repair attempt collects RREPs before selecting.
    pub rrep_wait: SimDuration,
    /// RREQ retransmissions before giving up (then: become leader /
    /// declare partition for joins, fail discovery for unicast).
    pub rreq_retries: u32,
    /// TTL on RREQ floods and GRPH floods.
    pub flood_ttl: u8,
    /// Unicast route lifetime; refreshed on every use.
    pub active_route_timeout: SimDuration,
    /// Maximum random delay before a member's initial join (de-synchronizes
    /// the t = 0 join storm).
    pub join_jitter: SimDuration,
    /// Capacity of the duplicate-data suppression cache.
    pub data_seen_capacity: usize,
    /// Capacity of the RREQ duplicate-suppression cache.
    pub rreq_seen_capacity: usize,
    /// Packets buffered per destination while route discovery runs.
    pub discovery_buffer: usize,
    /// `nearest_member` distances saturate here ("no member known").
    pub nearest_member_infinity: u8,
}

impl MaodvConfig {
    /// The paper's configuration.
    pub fn paper_default() -> Self {
        MaodvConfig {
            hello_interval: SimDuration::from_millis(600),
            allowed_hello_loss: 4,
            group_hello_interval: SimDuration::from_secs(5),
            tick_interval: SimDuration::from_millis(200),
            rrep_wait: SimDuration::from_millis(600),
            rreq_retries: 3,
            flood_ttl: 16,
            active_route_timeout: SimDuration::from_secs(3),
            join_jitter: SimDuration::from_secs(2),
            data_seen_capacity: 2048,
            rreq_seen_capacity: 1024,
            discovery_buffer: 8,
            nearest_member_infinity: 32,
        }
    }

    /// Link timeout implied by the hello settings.
    pub fn neighbor_timeout(&self) -> SimDuration {
        self.hello_interval * self.allowed_hello_loss as u64
    }

    /// Checks the rules: the hello, group-hello and tick timers re-arm,
    /// so their intervals are above zero; `flood_ttl` and both cache
    /// capacities are at least 1. [`Maodv::new`](crate::Maodv::new)
    /// expects it to pass.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::nonzero("MaodvConfig.hello_interval", self.hello_interval)?;
        let grph = self.group_hello_interval;
        ConfigError::nonzero("MaodvConfig.group_hello_interval", grph)?;
        ConfigError::nonzero("MaodvConfig.tick_interval", self.tick_interval)?;
        ConfigError::at_least_one("MaodvConfig.flood_ttl", self.flood_ttl.into())?;
        ConfigError::at_least_one("MaodvConfig.data_seen_capacity", self.data_seen_capacity)?;
        ConfigError::at_least_one("MaodvConfig.rreq_seen_capacity", self.rreq_seen_capacity)
    }
}

impl Default for MaodvConfig {
    fn default() -> Self {
        MaodvConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_5_1() {
        let c = MaodvConfig::paper_default();
        assert_eq!(c.hello_interval, SimDuration::from_millis(600));
        assert_eq!(c.allowed_hello_loss, 4);
        assert_eq!(c.group_hello_interval, SimDuration::from_secs(5));
        assert_eq!(c.neighbor_timeout(), SimDuration::from_millis(2400));
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(MaodvConfig::default(), MaodvConfig::paper_default());
    }
}
