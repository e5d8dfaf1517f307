//! The workspace self-run: `cargo test -q` asserts the tree is
//! lint-clean, so the gate runs even when nobody remembers the binary.

use std::path::Path;

use ag_lint::config::Config;
use ag_lint::{find_workspace_root, run_workspace, workspace_rs_files};

#[test]
fn workspace_is_lint_clean() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let report = run_workspace(&root, &Config::workspace()).expect("scan workspace");
    assert!(
        report.is_clean(),
        "the workspace has ag-lint findings:\n{}",
        report.render()
    );
    // The walker really walked the tree (and didn't, say, start from
    // the wrong root and scan three files to a vacuous green).
    assert!(
        report.files_scanned > 80,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    // Every waiver in the tree must be load-bearing: a waiver whose
    // finding is gone is stale documentation and should be deleted.
    assert_eq!(
        report.waivers_used, report.waivers_present,
        "stale waiver(s): {} present, only {} suppress anything",
        report.waivers_present, report.waivers_used
    );
}

#[test]
fn hot_path_manifest_matches_the_sources() {
    // The manifest-rot check: every function the workspace config
    // names must still exist in its file. (A rename would otherwise
    // silently shrink hot-path coverage; the rule reports it as a
    // finding, which the clean-run assertion above also catches — this
    // test just localizes the failure.)
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let cfg = Config::workspace();
    for (file, fns) in &cfg.hot_path_manifest {
        let src = std::fs::read_to_string(root.join(file)).expect("manifest file readable");
        for name in fns {
            assert!(
                src.contains(&format!("fn {name}")),
                "hot-path manifest names `fn {name}` missing from {file}"
            );
        }
    }
}

#[test]
fn doc_references_name_existing_files() {
    // Every `<name>.md` or `<dir>/<name>.md` a source file, the README, the
    // architecture notes or a `docs/` page names must exist, either at
    // the workspace root or beside the file that names it.
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint");
    let mut files = workspace_rs_files(&root).expect("scan workspace");
    files.extend(["README.md".to_string(), "ARCHITECTURE.md".to_string()]);
    for entry in std::fs::read_dir(root.join("docs")).expect("docs/ readable") {
        let name = entry.expect("docs/ entry").file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".md") {
            files.push(format!("docs/{name}"));
        }
    }
    let mut dead = Vec::new();
    for rel in &files {
        let path = root.join(rel);
        let text = std::fs::read_to_string(&path).expect("file readable");
        let beside = path.parent().expect("file has a parent");
        for name in md_references(&text) {
            if !root.join(name).is_file() && !beside.join(name).is_file() {
                dead.push(format!("{rel} names {name}"));
            }
        }
    }
    assert!(
        dead.is_empty(),
        "references to missing files:\n{}",
        dead.join("\n")
    );
}

/// The `<name>.md` / `<dir>/<name>.md` tokens in `text`: the longest run of
/// path characters before each `.md` that no name character follows.
/// URLs (`https://…`) leave a token starting with `/` and are skipped.
fn md_references(text: &str) -> Vec<&str> {
    let bytes = text.as_bytes();
    let is_name = |c: u8| c.is_ascii_alphanumeric() || c == b'_';
    let is_path = |c: u8| is_name(c) || matches!(c, b'-' | b'.' | b'/');
    let mut out = Vec::new();
    for (end, _) in text.match_indices(".md") {
        let after = end + ".md".len();
        if bytes.get(after).is_some_and(|&c| is_name(c)) {
            continue;
        }
        let start = bytes[..end]
            .iter()
            .rposition(|&c| !is_path(c))
            .map_or(0, |i| i + 1);
        if start < end && bytes[start] != b'/' {
            out.push(&text[start..after]);
        }
    }
    out
}
