//! The one error a configuration check returns.

use std::fmt;

use crate::SimDuration;

/// A configuration value that breaks its type's rule. Each configuration
/// type's `validate` returns the first one it finds. `Debug` prints the
/// `Display` line, so an `expect` on a `validate` reads as one sentence.
#[derive(Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The field, qualified by its type: `"MaodvConfig.flood_ttl"`.
    pub field: &'static str,
    /// The value as given, rendered with `Display`.
    pub value: String,
    /// What the value must be: `"at least 1"`.
    pub rule: &'static str,
}

impl ConfigError {
    /// `Ok` when `ok` holds, else the error; the value is rendered only
    /// then.
    pub fn check(
        ok: bool,
        field: &'static str,
        value: impl fmt::Display,
        rule: &'static str,
    ) -> Result<(), Self> {
        if ok {
            return Ok(());
        }
        let value = value.to_string();
        Err(ConfigError { field, value, rule })
    }

    /// The rule of a timer that re-arms: `interval` is above zero.
    pub fn nonzero(field: &'static str, interval: SimDuration) -> Result<(), Self> {
        Self::check(!interval.is_zero(), field, interval, "> 0")
    }

    /// The rule of a TTL, a capacity or a budget: `n` is at least 1.
    pub fn at_least_one(field: &'static str, n: usize) -> Result<(), Self> {
        Self::check(n >= 1, field, n, "at least 1")
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ConfigError { field, value, rule } = self;
        write!(
            f,
            "invalid configuration: {field} = {value}, must be {rule}"
        )
    }
}

impl fmt::Debug for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl std::error::Error for ConfigError {}
