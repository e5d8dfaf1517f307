//! `BENCHMARK.json` and the binary must name the same things.

use std::collections::BTreeSet;

use agbench::json::{parse, Value};
use agbench::names::{END_TO_END, PER_LAYER};
use agbench::workload::Workload;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn list<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry without `{key}`: {v:?}"))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_matches_the_compiled_tables() {
    assert!(BENCHMARK.len() <= 64 * 1024);
    let doc = parse(BENCHMARK).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let paths: Vec<&str> = list(&doc, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["agbench"]);
    let command: Vec<&str> = list(&doc, "command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(command.len() <= 32 && command[0] == "cargo");
    assert!(command.contains(&"agbench/Cargo.toml"));
    assert!(command
        .iter()
        .all(|a| !a.starts_with('/') && !a.contains("..")));
    let seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .expect("number");
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    // Workloads: the same names, in the same order, each with its why.
    let workloads = list(&doc, "workloads");
    assert_eq!(workloads.len(), Workload::ALL.len());
    for (entry, w) in workloads.iter().zip(Workload::ALL) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), w.name());
        assert_eq!(text(entry, "why"), w.why());
        assert!(name_ok(w.name()) && w.why().len() <= 200 && !w.why().contains('\n'));
    }

    // End-to-end: no missing metric, no unnamed extra, same fields.
    let e2e = list(&doc, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert!(name_ok(m.name));
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit);
        assert_eq!(text(entry, "better"), m.better.as_str());
        assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(m.bound));
    }

    // Per-layer: likewise.
    let per_layer = list(&doc, "per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (entry, m) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert!(name_ok(m.name));
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit);
        assert_eq!(text(entry, "better"), m.better.as_str());
    }
}

/// The names of the `metrics` object on the last line of `stdout`, with
/// the line's `failed` count and `correct` flag.
fn emitted(stdout: &str) -> (BTreeSet<String>, f64, bool) {
    let last = stdout.lines().last().expect("a result line");
    let v = parse(last).expect("the result line is JSON");
    assert_eq!(keys(&v), ["correct", "attempted", "failed", "metrics"]);
    let names = v
        .get("metrics")
        .and_then(Value::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert_eq!(keys(m), ["value", "unit"], "{name}");
            assert!(m
                .get("value")
                .and_then(Value::as_f64)
                .is_some_and(f64::is_finite));
            name.clone()
        })
        .collect();
    assert!(v.get("attempted").and_then(Value::as_f64) >= Some(1.0));
    (
        names,
        v.get("failed").and_then(Value::as_f64).expect("failed"),
        v.get("correct") == Some(&Value::Bool(true)),
    )
}

/// End to end on the shrunken job tables: every workload, plain and
/// traced, emits exactly the names `BENCHMARK.json` lists, no job fails
/// and every output check holds. Release only — the simulator is ~20×
/// slower unoptimised:
/// `cargo test --release --manifest-path agbench/Cargo.toml -- --ignored`
#[test]
#[ignore = "runs the benchmark end to end; release builds only"]
fn quick_run_emits_exactly_the_benchmark_names() {
    if cfg!(debug_assertions) {
        panic!("run with --release: the quick job tables take minutes unoptimised");
    }
    let doc = parse(BENCHMARK).expect("BENCHMARK.json parses");
    let names_of = |key: &str| -> BTreeSet<String> {
        list(&doc, key)
            .iter()
            .map(|m| text(m, "name").to_string())
            .collect()
    };
    for w in Workload::ALL {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_agbench"))
                .args(["--workload", w.name(), "--seed", "42", "--seconds", "1"])
                .args(["--trace", trace, "--quick"])
                .output()
                .expect("agbench starts");
            assert!(out.status.success(), "{} --trace {trace}", w.name());
            let (names, failed, correct) = emitted(&String::from_utf8_lossy(&out.stdout));
            assert_eq!(names, names_of(key), "{} --trace {trace}", w.name());
            assert_eq!(failed, 0.0, "{} --trace {trace}: ops_failed", w.name());
            assert!(
                correct,
                "{} --trace {trace}: an output check failed",
                w.name()
            );
        }
    }
}
