//! ODMRP constants.

use ag_sim::{ConfigError, SimDuration};

/// ODMRP timing parameters (defaults follow the WCNC '99 paper: 3 s
/// Join-Query refresh, forwarding-group lifetime of three refreshes).
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct OdmrpConfig {
    /// Interval between a source's Join-Query floods.
    pub query_interval: SimDuration,
    /// How long a forwarding-group flag lives without refresh.
    pub fg_lifetime: SimDuration,
    /// TTL on Join-Query floods.
    pub flood_ttl: u8,
    /// Backward-learning route lifetime.
    pub route_lifetime: SimDuration,
    /// Duplicate-suppression cache sizes.
    pub seen_capacity: usize,
}

impl OdmrpConfig {
    /// The original paper's configuration.
    pub fn default_paper() -> Self {
        OdmrpConfig {
            query_interval: SimDuration::from_secs(3),
            fg_lifetime: SimDuration::from_secs(9),
            flood_ttl: 16,
            route_lifetime: SimDuration::from_secs(9),
            seen_capacity: 2048,
        }
    }

    /// Checks the rules: the Join-Query timer re-arms, so its interval
    /// is above zero; `flood_ttl` and `seen_capacity` are at least 1.
    /// [`OdmrpProtocol::new`](crate::OdmrpProtocol::new) expects it to
    /// pass.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ConfigError::nonzero("OdmrpConfig.query_interval", self.query_interval)?;
        ConfigError::at_least_one("OdmrpConfig.flood_ttl", self.flood_ttl.into())?;
        ConfigError::at_least_one("OdmrpConfig.seen_capacity", self.seen_capacity)
    }
}

impl Default for OdmrpConfig {
    fn default() -> Self {
        OdmrpConfig::default_paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = OdmrpConfig::default();
        assert_eq!(c.fg_lifetime, c.query_interval * 3);
        assert_eq!(c.validate(), Ok(()));
    }
}
