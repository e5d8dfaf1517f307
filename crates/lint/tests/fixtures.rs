//! The fixture corpus: every rule has a must-fire case (proving the
//! rule still detects the bug shape it was built for — delete or
//! weaken a rule and these tests fail) and a must-pass case (proving
//! the compliant idiom, waivers, string/comment mentions and test-code
//! exemptions do not fire).
//!
//! Fixtures are plain `.rs` files under `tests/fixtures/`; they are
//! scanner *input*, never compiled, and the workspace walker skips the
//! directory so their deliberate violations cannot fail the self-run.

use std::path::Path;

use ag_lint::config::Config;
use ag_lint::rules::{scan_file, FileScan, Rule};

/// Scans one fixture under the wide-open fixture config.
fn scan(name: &str) -> FileScan {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
    scan_file(name, &src, &Config::for_fixtures())
}

/// Lines at which `rule` fired, sorted.
fn lines_of(scan: &FileScan, rule: Rule) -> Vec<u32> {
    let mut lines: Vec<u32> = scan
        .findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect();
    lines.sort_unstable();
    lines
}

/// Asserts the fixture fired `rule` at exactly `expected` lines and
/// fired nothing else.
fn assert_fires(name: &str, rule: Rule, expected: &[u32]) {
    let scan = scan(name);
    assert_eq!(
        lines_of(&scan, rule),
        expected,
        "{name}: wrong {} findings; all findings: {:#?}",
        rule.name(),
        scan.findings
    );
    let other: Vec<_> = scan.findings.iter().filter(|f| f.rule != rule).collect();
    assert!(
        other.is_empty(),
        "{name}: unexpected extra findings: {other:#?}"
    );
}

/// Asserts the fixture is completely clean.
fn assert_passes(name: &str) {
    let scan = scan(name);
    assert!(
        scan.findings.is_empty(),
        "{name}: expected clean, got: {:#?}",
        scan.findings
    );
}

#[test]
fn det_hash_must_fire() {
    // Import, group import, both default-hasher ctors, the std
    // BinaryHeap path and RandomState; BTreeMap stays legal.
    assert_fires("det_hash_fire.rs", Rule::DetHash, &[3, 4, 7, 9, 10, 11]);
}

#[test]
fn det_hash_must_pass() {
    assert_passes("det_hash_pass.rs");
}

#[test]
fn det_hash_pass_exercises_waivers() {
    // The pass fixture's oracle shapes are suppressed by real waivers,
    // not by the rule failing to look: all three must be active.
    let scan = scan("det_hash_pass.rs");
    assert_eq!(scan.waivers_present, 3);
    assert_eq!(scan.waivers_used, 3);
}

#[test]
fn pr7_random_state_regression_shape_is_caught() {
    // The import line plus each default-hasher constructor of the
    // protocol-table shape PR 7 had to hunt down at runtime.
    assert_fires("pr7_random_state.rs", Rule::DetHash, &[10, 20, 21]);
}

#[test]
fn wall_clock_must_fire() {
    // Instant::now, SystemTime::now, and — in test code, which is NOT
    // exempt for this rule — Instant::now and thread::sleep.
    assert_fires("wall_clock_fire.rs", Rule::WallClock, &[7, 8, 16, 17]);
}

#[test]
fn wall_clock_must_pass() {
    assert_passes("wall_clock_pass.rs");
}

#[test]
fn wall_clock_alias_is_the_clippy_layers_catch() {
    // Not compliant code: the case the lexical rule misses and
    // clippy.toml's type-resolved `disallowed-methods` catches, which
    // is why both layers stay (docs/LINTS.md, "The clippy layer").
    assert_passes("wall_clock_alias_pass.rs");
}

#[test]
fn stream_discipline_must_fire() {
    // Ad-hoc SmallRng::seed_from_u64, from_entropy, thread_rng.
    assert_fires(
        "stream_discipline_fire.rs",
        Rule::StreamDiscipline,
        &[7, 11, 12],
    );
}

#[test]
fn stream_discipline_must_pass() {
    assert_passes("stream_discipline_pass.rs");
}

#[test]
fn hot_path_alloc_must_fire() {
    // 7/13/15 are Vec::new, format!/.collect and .to_vec inside the
    // marked `emit_receivers`; 22 and 26 are markers above a `struct`
    // and above a bodiless trait method. The allocating cold path must
    // not fire.
    assert_fires(
        "hot_path_alloc_fire.rs",
        Rule::HotPathAlloc,
        &[7, 13, 15, 22, 26],
    );
    assert_eq!(scan("hot_path_alloc_fire.rs").hot_path_fns, 1);
}

#[test]
fn hot_path_alloc_must_pass() {
    assert_passes("hot_path_alloc_pass.rs");
    // The marker reaches its `fn` across the doc comment and attribute.
    let scan = scan("hot_path_alloc_pass.rs");
    assert_eq!(scan.hot_path_fns, 1);
    assert_eq!(scan.waivers_present, 0, "a marker is not a waiver");
}

#[test]
fn ordered_iteration_must_fire() {
    // Hash-order `for … in map.iter()` and `.keys()` feeding a render.
    assert_fires(
        "ordered_iteration_fire.rs",
        Rule::OrderedIteration,
        &[7, 10],
    );
}

#[test]
fn ordered_iteration_must_pass() {
    assert_passes("ordered_iteration_pass.rs");
}

#[test]
fn typed_counter_must_fire() {
    // `count` and `count_n` with a plain or raw string literal first,
    // also when the call is split over lines.
    assert_fires("typed_counter_fire.rs", Rule::TypedCounter, &[4, 5, 6, 8]);
}

#[test]
fn typed_counter_must_pass() {
    assert_passes("typed_counter_pass.rs");
}

#[test]
fn waiver_reason_must_fire() {
    // Missing reason, empty reason, unknown rule, waiving the
    // meta-rule, a non-allow form, and a hot-path marker with a tail.
    assert_fires(
        "waiver_reason_fire.rs",
        Rule::WaiverReason,
        &[4, 7, 10, 13, 16, 19],
    );
}

#[test]
fn waiver_reason_must_pass() {
    let scan = scan("waiver_reason_pass.rs");
    assert!(scan.findings.is_empty(), "findings: {:#?}", scan.findings);
    assert_eq!(scan.waivers_present, 1);
    assert_eq!(
        scan.waivers_used, 1,
        "the waiver must actually suppress a finding"
    );
}

#[test]
fn malformed_waivers_never_suppress() {
    // waiver_reason_fire's `allow(det-hash)` waivers are malformed; a
    // det-hash violation right after one must still fire.
    let src = "// ag-lint: allow(det-hash)\nuse std::collections::HashMap;\n";
    let scan = scan_file("inline.rs", src, &Config::for_fixtures());
    assert_eq!(lines_of(&scan, Rule::DetHash), vec![2]);
    assert_eq!(lines_of(&scan, Rule::WaiverReason), vec![1]);
}

#[test]
fn every_rule_has_a_must_fire_fixture() {
    // Registry completeness: adding a rule without a fixture pair is
    // itself a failure. (waiver-reason fires on malformed waivers.)
    for rule in ag_lint::rules::ALL_RULES {
        let file = format!("{}_fire.rs", rule.name().replace('-', "_"));
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(&file);
        assert!(path.is_file(), "missing must-fire fixture {file}");
        let pass = format!("{}_pass.rs", rule.name().replace('-', "_"));
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/fixtures")
            .join(&pass);
        assert!(path.is_file(), "missing must-pass fixture {pass}");
    }
}
