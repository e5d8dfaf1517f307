//! # ag-lint — workspace-native static analysis
//!
//! Machine-checks the source disciplines every deterministic result in
//! this repo rests on: byte-identical golden figures, `AG_THREADS`
//! invariance, the grid≡brute differential and the exact-integer
//! zero-allocation gate all assume that *nobody* re-introduces a
//! default-hasher map, a wall-clock read, an ad-hoc RNG seed or a
//! hot-path allocation. Those rules used to live in ARCHITECTURE.md
//! prose; this crate makes them executable, the same move the model
//! checker (`ag-check`) made for protocol logic.
//!
//! The scanner is a hand-rolled lexer ([`lexer`]) feeding token-pattern
//! rules ([`rules`]) under two path scopes ([`config`]) — no AST, no
//! dependencies, so the gate itself can never rot behind a toolchain or
//! crates.io change. The rest of the policy sits at the code it governs:
//! a `// ag-lint: hot-path` comment marks each allocation-free function,
//! and a reason-bearing `// ag-lint: allow(<rule>) -- <reason>` comment
//! waives each exception. It ships three ways, so it cannot be forgotten:
//!
//! 1. `cargo run -p ag-lint` — the binary, exit 1 on any finding;
//! 2. a self-run inside `cargo test` asserting the workspace is clean
//!    and counting its hot-path functions;
//! 3. a fixture corpus asserting every rule still *fires* on the bug
//!    shape it was built to catch (including PR 7's `RandomState` bug).
//!
//! See `docs/LINTS.md` for every rule, its motivating PR, the waiver
//! syntax and the extension recipe.

pub mod config;
pub mod lexer;
pub mod rules;

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use config::Config;
use rules::{scan_file, Finding};

/// One finding tagged with the file it occurred in.
#[derive(Debug)]
pub struct FileFinding {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// The finding itself.
    pub finding: Finding,
}

/// The result of scanning a whole source tree.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (path, line).
    pub findings: Vec<FileFinding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Well-formed waivers found across the tree.
    pub waivers_present: usize,
    /// Waivers that suppressed at least one finding.
    pub waivers_used: usize,
    /// Functions marked `// ag-lint: hot-path` across the tree.
    pub hot_path_fns: usize,
}

impl Report {
    /// True when no rule fired anywhere.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the report as the text the binary prints and CI uploads:
    /// one `file:line: [rule] message` block per finding with its fix
    /// hint, then a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}:{}: [{}] {}",
                f.path,
                f.finding.line,
                f.finding.rule.name(),
                f.finding.message
            );
            let _ = writeln!(out, "    hint: {}", f.finding.rule.hint());
        }
        let _ = writeln!(
            out,
            "ag-lint: {} finding(s) · {} file(s) scanned · {} waiver(s) ({} active) · {} hot-path \
             fn(s)",
            self.findings.len(),
            self.files_scanned,
            self.waivers_present,
            self.waivers_used,
            self.hot_path_fns,
        );
        out
    }
}

/// Directory names never descended into.
const SKIP_DIRS: [&str; 3] = ["target", "vendor", ".git"];

/// Workspace-relative path prefixes never scanned: the fixture corpus
/// exists to contain violations.
const SKIP_PREFIXES: [&str; 1] = ["crates/lint/tests/fixtures"];

/// Scans every `.rs` file under `root` (the workspace checkout) against
/// the given config. Files are visited in sorted order so the report is
/// deterministic.
pub fn run_workspace(root: &Path, cfg: &Config) -> io::Result<Report> {
    let mut report = Report::default();
    for rel in workspace_rs_files(root)? {
        let src = fs::read_to_string(root.join(&rel))?;
        let scan = scan_file(&rel, &src, cfg);
        report.files_scanned += 1;
        report.waivers_present += scan.waivers_present;
        report.waivers_used += scan.waivers_used;
        report.hot_path_fns += scan.hot_path_fns;
        report
            .findings
            .extend(scan.findings.into_iter().map(|finding| FileFinding {
                path: rel.clone(),
                finding,
            }));
    }
    Ok(report)
}

/// The workspace-relative paths of the `.rs` files [`run_workspace`]
/// scans, sorted.
pub fn workspace_rs_files(root: &Path) -> io::Result<Vec<String>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    Ok(files)
}

/// Recursively collects workspace-relative `.rs` paths.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let rel = path
            .strip_prefix(root)
            .expect("entry under root")
            .to_string_lossy()
            .replace('\\', "/");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || SKIP_PREFIXES.iter().any(|p| rel == *p) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel);
        }
    }
    Ok(())
}

/// Locates the workspace root by walking up from `start` until a
/// directory containing both `Cargo.toml` and `crates/` appears.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
