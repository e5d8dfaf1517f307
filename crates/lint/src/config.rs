//! Rule scopes: which files the path-scoped rules apply to.
//!
//! Three rules police only part of the tree, and this module holds their
//! path prefixes as data, so the scanning machinery in
//! [`crate::rules`] never hard-codes a path. The other rules apply
//! everywhere. Exceptions are never listed here: each one is a
//! reason-bearing waiver at its own site, and a hot-path function is
//! marked at its own `fn` (see `docs/LINTS.md`).
//!
//! Paths are workspace-relative with `/` separators. A "prefix" matches
//! a file if the file's path starts with it, so `crates/harness/src/`
//! covers the whole crate and `crates/harness/src/report.rs` exactly
//! one file.

/// Scope tables for one lint run.
///
/// [`Config::workspace`] is the real policy; tests build narrow configs
/// (see [`Config::for_fixtures`]) to point rules at fixture files.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes the **det-hash** rule applies to: the simulation
    /// crates whose map iteration order and allocation pattern feed the
    /// deterministic results. Test regions are exempt.
    pub det_hash_scope: Vec<String>,
    /// Path prefixes the **ordered-iteration** rule applies to: the
    /// modules that render reports, figures and golden artifacts, where
    /// hash-order iteration would leak into committed bytes.
    pub ordered_iteration_scope: Vec<String>,
    /// Path prefixes the **typed-counter** rule applies to: the
    /// protocol crates, whose handlers bump declared counters. Test
    /// regions are exempt.
    pub typed_counter_scope: Vec<String>,
}

impl Config {
    /// The workspace policy, documented in `docs/LINTS.md`.
    pub fn workspace() -> Config {
        let s = |v: &[&str]| v.iter().map(|p| p.to_string()).collect::<Vec<_>>();
        Config {
            det_hash_scope: s(&[
                "crates/sim/src/",
                "crates/net/src/",
                "crates/core/src/",
                "crates/maodv/src/",
                "crates/odmrp/src/",
                "crates/harness/src/",
                "src/",
            ]),
            ordered_iteration_scope: s(&[
                "crates/harness/src/report.rs",
                "crates/harness/src/figures.rs",
                "crates/harness/src/matrix.rs",
                "crates/harness/src/result.rs",
                "crates/harness/src/bin/",
                "examples/regen_golden.rs",
                "src/lib.rs",
            ]),
            typed_counter_scope: s(&["crates/maodv/src/", "crates/core/src/", "crates/odmrp/src/"]),
        }
    }

    /// A maximally-wide config for fixture tests: every rule is in
    /// scope for every file.
    pub fn for_fixtures() -> Config {
        Config {
            det_hash_scope: vec![String::new()],
            ordered_iteration_scope: vec![String::new()],
            typed_counter_scope: vec![String::new()],
        }
    }
}

/// True if `path` starts with any prefix in `prefixes`.
pub fn matches_any(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}
