//! Rule scopes, allowlists and the hot-path manifest.
//!
//! This module is the *policy* half of the lint: which files each rule
//! applies to, which files are documented exceptions, and which
//! functions form the engine's allocation-free hot path. Everything
//! here is data — the scanning machinery in [`crate::rules`] never
//! hard-codes a path — so extending a rule's scope, allowlisting a new
//! probe file or growing the hot-path manifest is a one-line change
//! reviewed next to its justification. `docs/LINTS.md` documents every
//! entry; keep the two in sync.
//!
//! Paths are workspace-relative with `/` separators. A "prefix" matches
//! a file if the file's path starts with it, so `crates/harness/src/`
//! covers the whole crate and `crates/sim/src/rng.rs` exactly one file.

/// Scope and exception tables for one lint run.
///
/// [`Config::workspace`] is the real policy; tests build narrow configs
/// (see [`Config::for_fixtures`]) to point rules at fixture files.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path prefixes the **det-hash** rule applies to: the simulation
    /// crates whose map iteration order and allocation pattern feed the
    /// deterministic results. Test regions are exempt.
    pub det_hash_scope: Vec<String>,
    /// det-hash exceptions: the module that *defines* the deterministic
    /// hasher necessarily names the std types it wraps.
    pub det_hash_exempt: Vec<String>,
    /// **wall-clock** exceptions: the `#[ignore]`d sizing probes that
    /// time state-space exploration. Everything else — test regions
    /// included — must not read the host clock (`agbench` and the
    /// examples that time a run waive their call sites one by one).
    pub wall_clock_exempt: Vec<String>,
    /// **stream-discipline** exceptions: the `StreamKind` helper module
    /// itself. Test regions are exempt.
    pub stream_discipline_exempt: Vec<String>,
    /// Path prefixes the **ordered-iteration** rule applies to: the
    /// modules that render reports, figures and golden artifacts, where
    /// hash-order iteration would leak into committed bytes.
    pub ordered_iteration_scope: Vec<String>,
    /// The **hot-path-alloc** manifest: `(file, functions)` pairs naming
    /// the steady-state functions that must stay allocation-free. The
    /// static complement of the tier-1 `zero_alloc` test: the test
    /// proves zero allocations happen, this proves none are written.
    /// A manifest entry whose function disappears is itself a finding,
    /// so renames cannot silently shrink coverage.
    pub hot_path_manifest: Vec<(String, Vec<String>)>,
}

impl Config {
    /// The workspace policy. Every entry is documented in
    /// `docs/LINTS.md`; add new exceptions there first.
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
            det_hash_exempt: s(&[
                // Defines FastHasher and the DetHashMap/DetHashSet
                // aliases; must name std::collections::HashMap to wrap it.
                "crates/sim/src/hash.rs",
            ]),
            wall_clock_exempt: s(&[
                // #[ignore]d sizing probes that time BFS exploration;
                // run by hand, never by `cargo test -q`.
                "crates/check/tests/probe.rs",
            ]),
            stream_discipline_exempt: s(&[
                // The StreamKind-keyed construction helpers themselves.
                "crates/sim/src/rng.rs",
            ]),
            ordered_iteration_scope: s(&[
                "crates/harness/src/report.rs",
                "crates/harness/src/figures.rs",
                "crates/harness/src/matrix.rs",
                "crates/harness/src/result.rs",
                "crates/harness/src/bin/",
                "examples/regen_golden.rs",
            ]),
            hot_path_manifest: vec![
                (
                    // The one protocol upcall every dispatch goes through.
                    "crates/net/src/engine.rs".to_string(),
                    s(&["upcall"]),
                ),
                (
                    // A frame's life cycle: queueing, backoff, carrier
                    // sense, the air, and delivery at TxEnd.
                    "crates/net/src/engine/dcf.rs".to_string(),
                    s(&[
                        "enqueue_frame",
                        "arm_attempt",
                        "handle_attempt",
                        "start_tx",
                        "finish_head_frame",
                        "handle_tx_end",
                    ]),
                ),
                (
                    // The production receiver-set kernel: its three
                    // passes, and the neighbour-list lookup and
                    // rebuild that feed pass 1.
                    "crates/net/src/engine/receive.rs".to_string(),
                    s(&[
                        "channel_receives",
                        "fresh",
                        "measure",
                        "rebuild",
                        "receivers",
                    ]),
                ),
                (
                    // `NodeApi`'s effects and named choices, once per
                    // call a handler makes (`count`/`count_n` left out:
                    // a counter name's first use inserts a map node).
                    "crates/net/src/engine/api.rs".to_string(),
                    s(&[
                        "set_timer",
                        "jitter",
                        "chance",
                        "pick_index",
                        "pick_weighted",
                    ]),
                ),
                (
                    // The motion bound's bookkeeping at every leg load.
                    "crates/net/src/engine/motion.rs".to_string(),
                    s(&["load", "take"]),
                ),
                (
                    // The index queries every MAC attempt (`busy_until`)
                    // and every TxEnd (the other two) issues, and the
                    // snapshot a list rebuild retakes when it is stale.
                    "crates/net/src/grid.rs".to_string(),
                    s(&["busy_until", "collect_overlapping", "query_disk", "retake"]),
                ),
                (
                    // The delivery pre-pass, run once per broadcast
                    // receiver ahead of its handler.
                    "crates/maodv/src/node.rs".to_string(),
                    s(&["prefetch"]),
                ),
                ("crates/core/src/protocol.rs".to_string(), s(&["prefetch"])),
                (
                    // The cached-gossip target draw, once per member's
                    // gossip round.
                    "crates/core/src/member_cache.rs".to_string(),
                    s(&["pick_via"]),
                ),
                (
                    // The flood relay, MAODV's and ODMRP's: once per
                    // rebroadcast copy queued and once per relay timer.
                    "crates/maodv/src/seen.rs".to_string(),
                    s(&["queue", "relay", "drain"]),
                ),
                (
                    // Calendar queue steady state: push, pop, min scan
                    // and the arena's free list.
                    "crates/sim/src/event.rs".to_string(),
                    s(&[
                        "schedule",
                        "pop",
                        "peek_time",
                        "recompute_min",
                        "predecessor",
                        "alloc",
                        "release",
                        "link",
                    ]),
                ),
            ],
        }
    }

    /// A maximally-wide config for fixture tests: every rule is in
    /// scope for every file, nothing is exempt, and the hot-path
    /// manifest covers the fixture's `emit_receivers` function.
    pub fn for_fixtures() -> Config {
        Config {
            det_hash_scope: vec![String::new()],
            det_hash_exempt: vec![],
            wall_clock_exempt: vec![],
            stream_discipline_exempt: vec![],
            ordered_iteration_scope: vec![String::new()],
            hot_path_manifest: vec![
                (
                    "hot_path_alloc_fire.rs".to_string(),
                    vec!["emit_receivers".to_string(), "renamed_hot_fn".to_string()],
                ),
                (
                    "hot_path_alloc_pass.rs".to_string(),
                    vec!["emit_receivers".to_string()],
                ),
            ],
        }
    }
}

/// True if `path` starts with any prefix in `prefixes`.
pub fn matches_any(path: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p.as_str()))
}
