//! Gossip-layer configuration.

use std::hash::{Hash, Hasher};

use ag_sim::{ConfigError, SimDuration};

/// Anonymous Gossip parameters.
///
/// Defaults are the paper's §5.1 settings: one gossip message per member
/// per second, at most 10 requested packets per message, a 10-entry
/// member cache, a 200-entry lost table and a 100-entry history table.
/// The paper does not publish `p_anon` (anonymous vs. cached) or the
/// member-relay accept probability; both default to 0.5, and
/// `examples/gossip_tuning.rs` sweeps `p_anon`.
///
/// # Example
///
/// ```
/// use ag_core::AgConfig;
/// let cfg = AgConfig::paper_default();
/// assert_eq!(cfg.lost_buffer_max, 10);
/// assert_eq!(cfg.history_capacity, 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgConfig {
    /// Interval between gossip rounds at each member (paper: 1 s).
    pub gossip_interval: SimDuration,
    /// Probability a round uses anonymous gossip rather than cached
    /// gossip (§4.3).
    pub p_anon: f64,
    /// Probability a *member* relay accepts a walking request instead of
    /// propagating it further (§4.1).
    pub p_accept: f64,
    /// Maximum lost-packet ids carried per gossip message (paper: 10).
    pub lost_buffer_max: usize,
    /// Member cache capacity (paper: 10).
    pub member_cache_capacity: usize,
    /// Lost table capacity (paper: 200).
    pub lost_table_capacity: usize,
    /// History table capacity (paper: 100).
    pub history_capacity: usize,
    /// TTL of the anonymous random walk (hops along the tree).
    pub gossip_ttl: u8,
    /// Maximum packets returned in one gossip reply.
    pub reply_max_packets: usize,
    /// How many packets past a member's expected sequence number a
    /// replier will volunteer when the initiator reports no explicit
    /// losses (tail-loss recovery).
    pub tail_recovery_max: usize,
    /// Weight walk steps toward next hops with smaller `nearest_member`
    /// distances (§4.2). `examples/gossip_tuning.rs` runs the ablation
    /// with it disabled.
    pub locality_weighting: bool,
}

impl AgConfig {
    /// The paper's configuration.
    pub fn paper_default() -> Self {
        AgConfig {
            gossip_interval: SimDuration::from_secs(1),
            p_anon: 0.5,
            p_accept: 0.5,
            lost_buffer_max: 10,
            member_cache_capacity: 10,
            lost_table_capacity: 200,
            history_capacity: 100,
            gossip_ttl: 16,
            reply_max_packets: 10,
            tail_recovery_max: 5,
            locality_weighting: true,
        }
    }

    /// Checks the rules: the gossip timer re-arms, so its interval is
    /// above zero; `p_anon` and `p_accept` lie in `[0, 1]`; the walk's
    /// TTL, both budgets and the three table capacities are at least 1.
    /// [`AnonymousGossip::new`](crate::AnonymousGossip::new) expects it
    /// to pass.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::nonzero("AgConfig.gossip_interval", self.gossip_interval)?;
        for (field, p) in [
            ("AgConfig.p_anon", self.p_anon),
            ("AgConfig.p_accept", self.p_accept),
        ] {
            ConfigError::check((0.0..=1.0).contains(&p), field, p, "in [0, 1]")?;
        }
        ConfigError::at_least_one("AgConfig.gossip_ttl", self.gossip_ttl.into())?;
        ConfigError::at_least_one("AgConfig.lost_buffer_max", self.lost_buffer_max)?;
        ConfigError::at_least_one("AgConfig.reply_max_packets", self.reply_max_packets)?;
        ConfigError::at_least_one("AgConfig.member_cache_capacity", self.member_cache_capacity)?;
        ConfigError::at_least_one("AgConfig.lost_table_capacity", self.lost_table_capacity)?;
        ConfigError::at_least_one("AgConfig.history_capacity", self.history_capacity)
    }
}

impl Default for AgConfig {
    fn default() -> Self {
        AgConfig::paper_default()
    }
}

/// Hashes the probabilities by their bits (`f64` has no `Hash`). Names
/// every field, so a new one cannot be left out of state identity.
impl Hash for AgConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let AgConfig {
            gossip_interval,
            p_anon,
            p_accept,
            lost_buffer_max,
            member_cache_capacity,
            lost_table_capacity,
            history_capacity,
            gossip_ttl,
            reply_max_packets,
            tail_recovery_max,
            locality_weighting,
        } = self;
        gossip_interval.hash(state);
        p_anon.to_bits().hash(state);
        p_accept.to_bits().hash(state);
        lost_buffer_max.hash(state);
        member_cache_capacity.hash(state);
        lost_table_capacity.hash(state);
        history_capacity.hash(state);
        gossip_ttl.hash(state);
        reply_max_packets.hash(state);
        tail_recovery_max.hash(state);
        locality_weighting.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_5_1() {
        let c = AgConfig::paper_default();
        assert_eq!(c.gossip_interval, SimDuration::from_secs(1));
        assert_eq!(c.lost_buffer_max, 10);
        assert_eq!(c.member_cache_capacity, 10);
        assert_eq!(c.lost_table_capacity, 200);
        assert_eq!(c.history_capacity, 100);
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn p_anon_is_part_of_identity() {
        let c = AgConfig::paper_default();
        let other = AgConfig { p_anon: 0.25, ..c };
        let key = ag_sim::hash::state_key;
        assert_ne!(key(&c), key(&other));
        assert_eq!(key(&c), key(&AgConfig::paper_default()));
    }

    #[test]
    fn validate_rejects_bad_probability() {
        let c = AgConfig {
            p_anon: 1.5,
            ..AgConfig::paper_default()
        };
        assert_eq!(c.validate().unwrap_err().field, "AgConfig.p_anon");
    }
}
