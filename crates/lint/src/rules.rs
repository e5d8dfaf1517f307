//! The lint rules: named, documented token-pattern checks.
//!
//! Each rule is the executable form of a discipline that previously
//! lived only in ARCHITECTURE.md prose (see `docs/LINTS.md` for the
//! full rationale and the PR that motivated each one):
//!
//! * **det-hash** — no default-hasher `HashMap`/`HashSet` and no
//!   `BinaryHeap` in non-test simulation code (PR 7's `RandomState`
//!   allocation wobble; PR 6's calendar queue).
//! * **wall-clock** — no `Instant::now`/`SystemTime::now`/
//!   `thread::sleep`, test code included.
//! * **stream-discipline** — no ad-hoc RNG seeding; randomness comes
//!   from `StreamKind`-keyed `SeedSplitter` streams.
//! * **hot-path-alloc** — no allocating calls inside a function marked
//!   `// ag-lint: hot-path` (static complement of the tier-1
//!   `zero_alloc` test).
//! * **ordered-iteration** — iterating a `DetHashMap`/`DetHashSet` in
//!   report/figure/golden code must sort before emitting.
//! * **typed-counter** — no string literal as the first argument of
//!   `.count(`/`.count_n(` in non-test protocol code: a handler bumps a
//!   declared `Counter` instead.
//! * **waiver-reason** — the meta-rule: every waiver comment must name
//!   a real rule and carry a `-- <reason>`, and a hot-path marker must
//!   be exactly `hot-path`.
//!
//! A finding is waived by a comment on the same line or the line
//! directly above:
//!
//! ```text
//! // ag-lint: allow(det-hash) -- frozen seed-vintage reference oracle
//! use std::collections::BinaryHeap;
//! ```
//!
//! The reason is mandatory and `waiver-reason` itself cannot be waived.
//!
//! The other lint comment is the hot-path marker: `// ag-lint: hot-path`
//! above a `fn` (doc comments and attributes may come between) puts
//! that function's body under **hot-path-alloc**.

use crate::config::{matches_any, Config};
use crate::lexer::{is_ident, is_punct, lex, match_seq, LintComment, Tok, Token};

/// The named rules. `Meta` is the waiver-format check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Default-hasher std collections in simulation code.
    DetHash,
    /// Host-clock reads in deterministic code.
    WallClock,
    /// RNG construction outside the `StreamKind` helpers.
    StreamDiscipline,
    /// Allocation in a function marked `// ag-lint: hot-path`, or a
    /// marker that marks no function body.
    HotPathAlloc,
    /// Unsorted hash-map iteration feeding rendered output.
    OrderedIteration,
    /// A counter bumped by a string-literal name in protocol code.
    TypedCounter,
    /// Malformed or reason-less waivers, and malformed hot-path markers.
    WaiverReason,
}

/// Every rule, for registry-style iteration.
pub const ALL_RULES: [Rule; 7] = [
    Rule::DetHash,
    Rule::WallClock,
    Rule::StreamDiscipline,
    Rule::HotPathAlloc,
    Rule::OrderedIteration,
    Rule::TypedCounter,
    Rule::WaiverReason,
];

impl Rule {
    /// The rule's name as written in waivers and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::DetHash => "det-hash",
            Rule::WallClock => "wall-clock",
            Rule::StreamDiscipline => "stream-discipline",
            Rule::HotPathAlloc => "hot-path-alloc",
            Rule::OrderedIteration => "ordered-iteration",
            Rule::TypedCounter => "typed-counter",
            Rule::WaiverReason => "waiver-reason",
        }
    }

    /// Parses a rule name as written in a waiver.
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|r| r.name() == name)
    }

    /// One-line fix hint appended to every finding of this rule.
    pub fn hint(self) -> &'static str {
        match self {
            Rule::DetHash => {
                "use ag_sim::hash::{DetHashMap, DetHashSet} (fixed-key hashing) or the \
                 ag_sim::EventQueue calendar queue; see docs/LINTS.md#det-hash"
            }
            Rule::WallClock => {
                "simulation code tells time via SimTime only; a wall-clock read outside the \
                 simulation carries a waiver; see docs/LINTS.md#wall-clock"
            }
            Rule::StreamDiscipline => {
                "draw randomness from a named stream: SeedSplitter::stream(StreamKind::…, idx); \
                 see docs/LINTS.md#stream-discipline"
            }
            Rule::HotPathAlloc => {
                "hot-path functions reuse pooled/scratch buffers instead of allocating; the \
                 tier-1 zero_alloc test asserts the same at run time; see \
                 docs/LINTS.md#hot-path-alloc"
            }
            Rule::OrderedIteration => {
                "sort before emitting (collect + sort_unstable) so rendered bytes never depend \
                 on hash-map iteration order; see docs/LINTS.md#ordered-iteration"
            }
            Rule::TypedCounter => {
                "declare the name once in the crate's `counters!` block and bump it with \
                 `.bump(counters::NAME)`; see docs/LINTS.md#typed-counter"
            }
            Rule::WaiverReason => {
                "waivers are `// ag-lint: allow(<rule>) -- <reason>`; the reason is mandatory; \
                 a marker is exactly `// ag-lint: hot-path`; see docs/LINTS.md#waivers"
            }
        }
    }
}

/// One violation at a specific line of one file.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// 1-based line.
    pub line: u32,
    /// What was matched, in terms of the offending source construct.
    pub message: String,
}

/// The result of scanning one file.
#[derive(Debug, Default)]
pub struct FileScan {
    /// Findings that survived waiver filtering, sorted by line.
    pub findings: Vec<Finding>,
    /// Number of well-formed waivers that suppressed at least one
    /// finding in this file.
    pub waivers_used: usize,
    /// Number of well-formed waivers present in this file.
    pub waivers_present: usize,
    /// Number of functions marked `// ag-lint: hot-path` in this file.
    pub hot_path_fns: usize,
}

/// A parsed `ag-lint: allow(<rule>) -- <reason>` comment.
struct Waiver {
    line: u32,
    rule: Rule,
}

/// Scans one file's source against every rule the config puts it in
/// scope for. `rel_path` is workspace-relative with `/` separators and
/// drives scope matching; files under a `tests/` directory are treated
/// as test code wholesale (the det-hash / stream-discipline / ordered-
/// iteration rules exempt test code; wall-clock deliberately does not).
pub fn scan_file(rel_path: &str, src: &str, cfg: &Config) -> FileScan {
    let lexed = lex(src);
    let tokens = &lexed.tokens;

    // Lint-comment parsing: malformed comments are findings of the
    // meta-rule and never suppress anything.
    let mut meta_findings = Vec::new();
    let (waivers, markers) = parse_comments(&lexed.comments, &mut meta_findings);

    let is_test_file = rel_path.starts_with("tests/") || rel_path.contains("/tests/");
    let in_test = if is_test_file {
        vec![true; tokens.len()]
    } else {
        mark_test_regions(tokens)
    };

    let mut findings = Vec::new();
    if matches_any(rel_path, &cfg.det_hash_scope) {
        det_hash(tokens, &in_test, &mut findings);
    }
    wall_clock(tokens, &mut findings);
    stream_discipline(tokens, &in_test, &mut findings);
    // A misplaced marker cannot be waived: it joins the meta findings.
    let mut hot_path_fns = 0;
    for &line in &markers {
        match marked_fn(tokens, line) {
            Some(hot) => {
                hot_path_fns += 1;
                hot_path_alloc(tokens, hot, &mut findings);
            }
            None => meta_findings.push(Finding {
                rule: Rule::HotPathAlloc,
                line,
                message: "`ag-lint: hot-path` marks no `fn` with a body".to_string(),
            }),
        }
    }
    if matches_any(rel_path, &cfg.ordered_iteration_scope) {
        ordered_iteration(tokens, &in_test, &mut findings);
    }
    if matches_any(rel_path, &cfg.typed_counter_scope) {
        typed_counter(tokens, &in_test, &mut findings);
    }

    // One finding per (rule, line): the same construct often matches
    // two patterns (import + bare name) and waivers are line-scoped.
    findings.sort_by_key(|f| (f.line, f.rule.name()));
    findings.dedup_by_key(|f| (f.rule, f.line));

    // Waiver filtering: a waiver covers its own line and the next one.
    let mut used = vec![false; waivers.len()];
    findings.retain(|f| {
        let hit = waivers
            .iter()
            .position(|w| w.rule == f.rule && (w.line == f.line || w.line + 1 == f.line));
        match hit {
            Some(k) => {
                used[k] = true;
                false
            }
            None => true,
        }
    });

    findings.extend(meta_findings);
    findings.sort_by_key(|f| f.line);
    FileScan {
        findings,
        waivers_used: used.iter().filter(|u| **u).count(),
        waivers_present: waivers.len(),
        hot_path_fns,
    }
}

/// Parses lint comments into waivers and the lines of hot-path markers;
/// malformed ones become `waiver-reason` findings (which cannot
/// themselves be waived).
fn parse_comments(raw: &[LintComment], findings: &mut Vec<Finding>) -> (Vec<Waiver>, Vec<u32>) {
    let mut out = Vec::new();
    let mut markers = Vec::new();
    for w in raw {
        let body = w
            .body
            .strip_prefix("ag-lint")
            .unwrap_or(&w.body)
            .trim_start_matches(':')
            .trim();
        let mut bad = |message: String| {
            findings.push(Finding {
                rule: Rule::WaiverReason,
                line: w.line,
                message,
            });
        };
        if body == "hot-path" {
            markers.push(w.line);
            continue;
        }
        let Some(rest) = body.strip_prefix("allow(") else {
            bad(format!(
                "unrecognized lint comment `{body}`; expected `allow(<rule>) -- <reason>` \
                 or `hot-path`"
            ));
            continue;
        };
        let Some((name, tail)) = rest.split_once(')') else {
            bad("waiver is missing the closing `)` after the rule name".to_string());
            continue;
        };
        let Some(rule) = Rule::from_name(name.trim()) else {
            bad(format!("waiver names unknown rule `{}`", name.trim()));
            continue;
        };
        if rule == Rule::WaiverReason {
            bad("the `waiver-reason` meta-rule cannot be waived".to_string());
            continue;
        }
        let reason = tail.trim();
        let Some(reason) = reason.strip_prefix("--") else {
            bad(format!(
                "waiver for `{}` is missing the mandatory `-- <reason>`",
                rule.name()
            ));
            continue;
        };
        if reason.trim().is_empty() {
            bad(format!(
                "waiver for `{}` has an empty reason after `--`",
                rule.name()
            ));
            continue;
        }
        out.push(Waiver { line: w.line, rule });
    }
    (out, markers)
}

/// Marks every token inside a `#[cfg(test)]` (or `#[test]`) item as
/// test code. The region runs from the attribute through the item's
/// closing brace (or `;` for brace-less items). Inline `mod tests {}`
/// is the only shape the workspace uses; out-of-line `mod tests;`
/// files live under `tests/` directories and are caught by path.
fn mark_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !(is_punct(tokens, i, '#') && is_punct(tokens, i + 1, '[')) {
            i += 1;
            continue;
        }
        let (attr_end, is_test_attr) = scan_attribute(tokens, i + 1);
        if !is_test_attr {
            i = attr_end;
            continue;
        }
        let start = i;
        // Skip any further attributes stacked on the same item.
        let mut j = attr_end;
        while is_punct(tokens, j, '#') && is_punct(tokens, j + 1, '[') {
            j = scan_attribute(tokens, j + 1).0;
        }
        // The item body: everything to the matching `}` (or a `;`).
        let mut depth = 0usize;
        while j < tokens.len() {
            match tokens[j].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                Tok::Punct(';') if depth == 0 => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        test[start..j.min(tokens.len())]
            .iter_mut()
            .for_each(|t| *t = true);
        i = j;
    }
    test
}

/// Scans an attribute whose `[` is at `open`. Returns the index one
/// past the closing `]` and whether the attribute marks test code
/// (`#[test]` or `#[cfg(test)]`-shaped).
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut j = open;
    let mut idents: Vec<&str> = Vec::new();
    while j < tokens.len() {
        match &tokens[j].tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            Tok::Ident(s) => idents.push(s),
            Tok::Punct(_) => {}
        }
        j += 1;
    }
    let is_test = match idents.first() {
        Some(&"test") => true,
        Some(&"cfg") => idents.contains(&"test"),
        _ => false,
    };
    (j, is_test)
}

/// The collection names det-hash polices.
const DET_HASH_TYPES: [&str; 3] = ["HashMap", "HashSet", "BinaryHeap"];

/// det-hash: default-hasher std collections in simulation code.
fn det_hash(tokens: &[Token], in_test: &[bool], findings: &mut Vec<Finding>) {
    let mut push = |line: u32, message: String| {
        findings.push(Finding {
            rule: Rule::DetHash,
            line,
            message,
        })
    };
    let mut i = 0usize;
    while i < tokens.len() {
        if in_test[i] {
            i += 1;
            continue;
        }
        // `std::collections::…` paths, in `use` items and inline alike:
        // flag each policed name reached through the path (including
        // names inside a `use std::collections::{…}` group).
        if match_seq(tokens, i, &["std", ":", ":", "collections"]) {
            // Walk only the path segment (idents, `::`, `{…}` groups,
            // `,`, `*`, `as`), flagging each policed name it reaches;
            // stop at the first token that ends the path.
            let mut j = i + 4;
            let mut depth = 0usize;
            while j < tokens.len() {
                match &tokens[j].tok {
                    Tok::Punct('{') => depth += 1,
                    Tok::Punct('}') => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    Tok::Punct(':') | Tok::Punct(',') | Tok::Punct('*') => {}
                    Tok::Ident(s) if s == "as" => j += 1, // skip the alias name
                    Tok::Ident(s) => {
                        if DET_HASH_TYPES.contains(&s.as_str()) {
                            push(
                                tokens[j].line,
                                format!("`std::collections::{s}` (default hasher / seed queue) in simulation code"),
                            );
                        }
                        if s == "RandomState" {
                            push(
                                tokens[j].line,
                                "`RandomState` (per-process SipHash keys) in simulation code"
                                    .into(),
                            );
                        }
                    }
                    Tok::Punct(_) => break,
                }
                j += 1;
            }
            i = j;
            continue;
        }
        // Bare `HashMap::new()` / `HashSet::new()`: only ever the std
        // default-hasher constructor — the DetHashMap/DetHashSet
        // aliases have no `new`, which is exactly how PR 7's
        // RandomState bug was spelled.
        for ty in ["HashMap", "HashSet"] {
            if match_seq(tokens, i, &[ty, ":", ":", "new"]) {
                push(
                    tokens[i].line,
                    format!("`{ty}::new()` constructs the default RandomState hasher"),
                );
            }
        }
        if is_ident(tokens, i, "BinaryHeap") {
            push(
                tokens[i].line,
                "`BinaryHeap` in simulation code (the calendar queue is the scheduler)".into(),
            );
        }
        if is_ident(tokens, i, "RandomState") {
            push(
                tokens[i].line,
                "`RandomState` (per-process SipHash keys) in simulation code".into(),
            );
        }
        i += 1;
    }
}

/// wall-clock: host-clock reads. Applies to test code too — tests that
/// time things are exactly how nondeterminism sneaks into CI.
fn wall_clock(tokens: &[Token], findings: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        let hit = [
            (
                ["Instant", ":", ":", "now"],
                "`Instant::now()` reads the host clock",
            ),
            (
                ["SystemTime", ":", ":", "now"],
                "`SystemTime::now()` reads the host clock",
            ),
            (
                ["thread", ":", ":", "sleep"],
                "`thread::sleep` blocks on host time",
            ),
        ]
        .into_iter()
        .find(|(pat, _)| match_seq(tokens, i, pat));
        if let Some((_, msg)) = hit {
            findings.push(Finding {
                rule: Rule::WallClock,
                line: tokens[i].line,
                message: msg.to_string(),
            });
        }
    }
}

/// stream-discipline: RNG construction outside the keyed helpers.
fn stream_discipline(tokens: &[Token], in_test: &[bool], findings: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if in_test[i] {
            continue;
        }
        let bare = ["from_entropy", "from_os_rng", "thread_rng", "StdRng"]
            .into_iter()
            .find(|name| is_ident(tokens, i, name))
            .map(|name| format!("`{name}` draws seeds outside the StreamKind discipline"));
        let seeded = ["seed_from_u64", "from_seed", "from_rng"]
            .into_iter()
            .find(|m| match_seq(tokens, i, &["SmallRng", ":", ":", m]))
            .map(|m| format!("ad-hoc `SmallRng::{m}` bypasses the StreamKind-keyed streams"));
        if let Some(message) = bare.or(seeded) {
            findings.push(Finding {
                rule: Rule::StreamDiscipline,
                line: tokens[i].line,
                message,
            });
        }
    }
}

/// Allocating constructors forbidden in hot-path bodies, as
/// `Type::method` path pairs.
const HOT_ALLOC_PATHS: [(&str, &str); 6] = [
    ("Vec", "new"),
    ("VecDeque", "new"),
    ("Box", "new"),
    ("String", "new"),
    ("Arc", "new"),
    ("Rc", "new"),
];

/// Allocating method calls forbidden in hot-path bodies (matched as
/// `.name`), plus the `vec!`/`format!` macros.
const HOT_ALLOC_METHODS: [&str; 5] = [
    "collect",
    "to_vec",
    "to_owned",
    "to_string",
    "with_capacity",
];

/// A marked function: its name and the token range of its body, from
/// the opening `{` to one past the matching `}`.
struct HotFn<'a> {
    name: &'a str,
    body: std::ops::Range<usize>,
}

/// Resolves the hot-path marker on `line` to the `fn` after it. Doc
/// comments are already gone, and attributes and qualifiers such as
/// `pub(crate)` hold no `{`, `;` or `}`, so any other item reaches one
/// of those before a `fn`. `None` if the item is not a `fn`, or is a
/// declaration without a body.
fn marked_fn(tokens: &[Token], line: u32) -> Option<HotFn<'_>> {
    let mut i = tokens.partition_point(|t| t.line <= line);
    while !is_ident(tokens, i, "fn") {
        match tokens.get(i)?.tok {
            Tok::Punct('{' | ';' | '}') => return None,
            _ => i += 1,
        }
    }
    let Tok::Ident(name) = &tokens.get(i + 1)?.tok else {
        return None;
    };
    // One bracket count over signature and body: a `;` outside brackets
    // (`[u8; 4]` is inside) ends a declaration, and the `}` that closes
    // the first `{` ends the body.
    let mut open = None;
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(i + 2) {
        match t.tok {
            Tok::Punct(c @ ('(' | '[' | '{')) => {
                if c == '{' {
                    open.get_or_insert(k);
                }
                depth += 1;
            }
            Tok::Punct(')' | ']' | '}') => {
                depth = depth.checked_sub(1)?;
                if let (0, Some(open)) = (depth, open) {
                    return Some(HotFn {
                        name,
                        body: open..k + 1,
                    });
                }
            }
            Tok::Punct(';') if depth == 0 => return None,
            _ => {}
        }
    }
    None
}

/// hot-path-alloc: allocation written inside a marked function.
fn hot_path_alloc(tokens: &[Token], hot: HotFn<'_>, findings: &mut Vec<Finding>) {
    for i in hot.body {
        let path = HOT_ALLOC_PATHS
            .into_iter()
            .find(|(ty, m)| match_seq(tokens, i, &[ty, ":", ":", m]))
            .map(|(ty, m)| format!("`{ty}::{m}` allocates"));
        let method = HOT_ALLOC_METHODS
            .into_iter()
            .find(|m| is_punct(tokens, i, '.') && is_ident(tokens, i + 1, m))
            .map(|m| format!("`.{m}(…)` allocates"));
        let mac = ["vec", "format"]
            .into_iter()
            .find(|m| is_ident(tokens, i, m) && is_punct(tokens, i + 1, '!'))
            .map(|m| format!("`{m}!` allocates"));
        if let Some(what) = path.or(method).or(mac) {
            findings.push(Finding {
                rule: Rule::HotPathAlloc,
                line: tokens[i].line,
                message: format!("{what} inside hot-path `fn {}`", hot.name),
            });
        }
    }
}

/// Iteration adapters ordered-iteration polices on Det collections.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
];

/// How many tokens past an iteration call a `sort*` call must appear
/// within to count as ordering the output (covers the idiomatic
/// `let mut v: Vec<_> = m.iter().collect(); v.sort_unstable();`).
const SORT_WINDOW: usize = 40;

/// ordered-iteration: hash-order iteration feeding rendered output.
fn ordered_iteration(tokens: &[Token], in_test: &[bool], findings: &mut Vec<Finding>) {
    // Pass 1: names bound to DetHashMap/DetHashSet in this file, via
    // `name: DetHashMap<…>` (fields, params, lets) or
    // `let [mut] name = DetHashMap::…`.
    let mut det_names: Vec<&str> = Vec::new();
    for i in 0..tokens.len() {
        let is_det =
            |k: usize| is_ident(tokens, k, "DetHashMap") || is_ident(tokens, k, "DetHashSet");
        if let Some(Token {
            tok: Tok::Ident(name),
            ..
        }) = tokens.get(i)
        {
            // `name: DetHashMap<…>`, `name: &DetHashMap<…>`,
            // `name: &mut DetHashMap<…>` (fields, params, lets).
            let det_after_ref = is_det(i + 2)
                || (is_punct(tokens, i + 2, '&') && is_det(i + 3))
                || (is_punct(tokens, i + 2, '&')
                    && is_ident(tokens, i + 3, "mut")
                    && is_det(i + 4));
            let ascription =
                is_punct(tokens, i + 1, ':') && !is_punct(tokens, i + 2, ':') && det_after_ref;
            let binding = is_ident(tokens, i.wrapping_sub(1), "let")
                || is_ident(tokens, i.wrapping_sub(1), "mut");
            let assigned = binding && is_punct(tokens, i + 1, '=') && is_det(i + 2);
            if (ascription || assigned) && !det_names.contains(&name.as_str()) {
                det_names.push(name);
            }
        }
    }
    if det_names.is_empty() {
        return;
    }
    // Pass 2: iteration over those names must see a sort in the window.
    for (i, &test) in in_test.iter().enumerate() {
        if test {
            continue;
        }
        let Some(Token {
            tok: Tok::Ident(name),
            line,
        }) = tokens.get(i)
        else {
            continue;
        };
        if !det_names.contains(&name.as_str()) {
            continue;
        }
        // `for … in [&[mut]] name` — inherently hash-ordered.
        let for_loop = is_ident(tokens, i.wrapping_sub(1), "in")
            || (is_punct(tokens, i.wrapping_sub(1), '&')
                && is_ident(tokens, i.wrapping_sub(2), "in"))
            || (is_ident(tokens, i.wrapping_sub(1), "mut")
                && is_punct(tokens, i.wrapping_sub(2), '&')
                && is_ident(tokens, i.wrapping_sub(3), "in"));
        let method_iter =
            is_punct(tokens, i + 1, '.') && ITER_METHODS.iter().any(|m| is_ident(tokens, i + 2, m));
        if !for_loop && !method_iter {
            continue;
        }
        let sorted_nearby = (i..(i + SORT_WINDOW).min(tokens.len()))
            .any(|k| matches!(&tokens[k].tok, Tok::Ident(s) if s.starts_with("sort")));
        if for_loop || !sorted_nearby {
            findings.push(Finding {
                rule: Rule::OrderedIteration,
                line: *line,
                message: format!(
                    "iteration over Det collection `{name}` feeds output without a nearby sort"
                ),
            });
        }
    }
}

/// typed-counter: `.count("…")` / `.count_n("…", n)` in non-test
/// protocol code. The named call is the fallback a context wrapper
/// takes; a handler that names its counter by string pays a map walk
/// with string compares on every bump.
fn typed_counter(tokens: &[Token], in_test: &[bool], findings: &mut Vec<Finding>) {
    for (i, &test) in in_test.iter().enumerate() {
        if test || !is_punct(tokens, i, '.') || !is_punct(tokens, i + 2, '(') {
            continue;
        }
        let Some(method) = ["count", "count_n"]
            .into_iter()
            .find(|m| is_ident(tokens, i + 1, m))
        else {
            continue;
        };
        if is_punct(tokens, i + 3, '"') {
            findings.push(Finding {
                rule: Rule::TypedCounter,
                line: tokens[i].line,
                message: format!("`.{method}(\"…\")` bumps a counter by a string-literal name"),
            });
        }
    }
}
