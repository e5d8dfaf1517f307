//! `agbench --compare a b`: do two sets of runs agree?
//!
//! Each file holds run records (`--out` appends one line per run). For
//! every (end-to-end metric, workload) pair the comparator prints both
//! sides' median and quartiles over their runs and applies the bound
//! `BENCHMARK.json` fixes for the metric. A pair whose run-to-run
//! spread exceeds its bound is *unresolved*, not unchanged — unless
//! every run of `b` lies on one side of every run of `a`. Simulated
//! readings (result digests, exact per-layer counts) are matched run by
//! run on (workload, seed) and compare equal or different.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

use crate::json::{self, Value};
use crate::names::{self, Better};
use crate::stats::{ratio, Quartiles};

/// What `--compare` prints and whether every row was clean.
#[derive(Debug)]
pub struct Outcome {
    /// The report.
    pub text: String,
    /// No row regressed, stayed unresolved, differed or was missing.
    pub clean: bool,
}

/// One metric reading of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// The reported value (a median over repeats for timings).
    pub value: f64,
    /// Within-run interquartile distance as a share of the value; 0
    /// when the run made a single measurement.
    pub spread: f64,
}

/// One run record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// The `--seed` argument.
    pub seed: u64,
    /// Traced run?
    pub trace: bool,
    /// The workload's result digest.
    pub digest: String,
    /// Readings by metric name.
    pub metrics: BTreeMap<String, Reading>,
}

/// The bound of one end-to-end metric, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Direction.
    pub better: Better,
    /// Share of `a`'s median by which `b` may be worse.
    pub bound: f64,
}

/// Reads the end-to-end bounds out of a `BENCHMARK.json` document.
pub fn parse_bounds(doc: &str) -> Result<Vec<Bound>, String> {
    let v = json::parse(doc)?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Some(Better::Lower),
                Some("higher") => Some(Better::Higher),
                _ => None,
            };
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    better,
                    bound,
                }),
                _ => Err("malformed end_to_end entry in BENCHMARK.json".to_string()),
            }
        })
        .collect()
}

/// Parses the run records of one `--out` file.
pub fn parse_records(src: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| v.get(k).ok_or(format!("line {}: no `{k}`", i + 1));
        let mut metrics = BTreeMap::new();
        for (name, m) in field("metrics")?.as_obj().unwrap_or(&[]) {
            let num = |k: &str| m.get(k).and_then(Value::as_f64);
            let value = num("value").ok_or(format!("line {}: {name} has no value", i + 1))?;
            let spread = match (num("q1"), num("q3")) {
                (Some(q1), Some(q3)) => ratio(q3 - q1, value.abs()),
                _ => 0.0,
            };
            metrics.insert(name.clone(), Reading { value, spread });
        }
        out.push(Record {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_f64().unwrap_or(0.0) as u64,
            trace: field("trace")?.as_f64() == Some(1.0),
            digest: field("result_digest")?
                .as_str()
                .unwrap_or_default()
                .to_string(),
            metrics,
        });
    }
    Ok(out)
}

/// How `b` stands against `a` on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Medians within the bound, spread within the bound.
    Unchanged,
    /// `b` better by more than the bound, and resolvably so.
    Improved,
    /// `b` worse by more than the bound, and resolvably so.
    Regressed,
    /// The run-to-run spread exceeds the bound and the two sides' runs
    /// interleave: the data cannot say.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// One compared pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Side `a`'s runs.
    pub a: Quartiles,
    /// Side `b`'s runs.
    pub b: Quartiles,
    /// By how much `b`'s median is worse than `a`'s, as a share of
    /// `a`'s (negative when better).
    pub worse_by: f64,
    /// The larger of the two sides' spreads.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges one pair. With several runs a side, its spread is the
/// interquartile distance of their values over the median; with one
/// run, that run's own within-run spread.
pub fn judge(a: &[Reading], b: &[Reading], better: Better, bound: f64) -> Row {
    let values = |r: &[Reading]| r.iter().map(|x| x.value).collect::<Vec<_>>();
    let (va, vb) = (values(a), values(b));
    let (qa, qb) = (Quartiles::of(&va), Quartiles::of(&vb));
    let side_spread = |r: &[Reading], q: &Quartiles| {
        if r.len() > 1 {
            q.spread()
        } else {
            r.first().map_or(0.0, |x| x.spread)
        }
    };
    let spread = side_spread(a, &qa).max(side_spread(b, &qb));
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * ratio(qb.median - qa.median, qa.median.abs());
    // "Every run of one side beats every run of the other" needs runs.
    let separated = |worse: bool| {
        va.len() > 1
            && vb.len() > 1
            && va.iter().all(|&x| {
                vb.iter().all(|&y| {
                    if worse {
                        sign * (y - x) > 0.0
                    } else {
                        sign * (y - x) < 0.0
                    }
                })
            })
    };
    let noisy = spread > bound;
    let verdict = if worse_by > bound {
        if noisy && !separated(true) {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if worse_by < -bound {
        if noisy && !separated(false) {
            Verdict::Unresolved
        } else {
            Verdict::Improved
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    };
    Row {
        a: qa,
        b: qb,
        worse_by,
        spread,
        verdict,
    }
}

/// Compares two sets of run records under `bounds`.
pub fn compare(bounds: &[Bound], a: &[Record], b: &[Record]) -> Outcome {
    let mut text = String::new();
    let mut clean = true;

    // ── end-to-end: medians over each side's plain runs ──
    let workloads: BTreeSet<&str> = a
        .iter()
        .chain(b)
        .filter(|r| !r.trace)
        .map(|r| r.workload.as_str())
        .collect();
    let _ = writeln!(
        text,
        "{:<13} {:<12} {:>34} {:>34} {:>8} {:>6} {:>7}  verdict",
        "workload",
        "metric",
        "a: median [q1, q3] n",
        "b: median [q1, q3] n",
        "b worse",
        "bound",
        "spread"
    );
    for w in &workloads {
        for m in bounds {
            let side = |recs: &[Record]| -> Vec<Reading> {
                recs.iter()
                    .filter(|r| !r.trace && r.workload == *w)
                    .filter_map(|r| r.metrics.get(&m.name).copied())
                    .collect()
            };
            let (ra, rb) = (side(a), side(b));
            if ra.is_empty() || rb.is_empty() {
                clean = false;
                let _ = writeln!(
                    text,
                    "{w:<13} {:<12} MISSING (a has {} runs, b has {})",
                    m.name,
                    ra.len(),
                    rb.len()
                );
                continue;
            }
            let row = judge(&ra, &rb, m.better, m.bound);
            clean &= matches!(row.verdict, Verdict::Unchanged | Verdict::Improved);
            let fmt = |q: &Quartiles| format!("{:.5} [{:.5}, {:.5}] {}", q.median, q.q1, q.q3, q.n);
            let _ = writeln!(
                text,
                "{w:<13} {:<12} {:>34} {:>34} {:>+7.1}% {:>5.0}% {:>6.1}%  {}",
                m.name,
                fmt(&row.a),
                fmt(&row.b),
                100.0 * row.worse_by,
                100.0 * m.bound,
                100.0 * row.spread,
                row.verdict.as_str()
            );
        }
    }

    // ── simulated readings: run by run, equal or different ──
    let (mut equal, mut different, mut unmatched) = (0u64, 0u64, 0u64);
    for ra in a {
        let Some(rb) = b.iter().find(|r| {
            (r.workload.as_str(), r.seed, r.trace) == (ra.workload.as_str(), ra.seed, ra.trace)
        }) else {
            unmatched += 1;
            continue;
        };
        let mut note = |name: &str, same: bool, va: String, vb: String| {
            if same {
                equal += 1;
            } else {
                different += 1;
                let _ = writeln!(
                    text,
                    "DIFFERENT {} seed {} {name}: a {va}, b {vb}",
                    ra.workload, ra.seed
                );
            }
        };
        note(
            "result_digest",
            ra.digest == rb.digest,
            ra.digest.clone(),
            rb.digest.clone(),
        );
        for m in names::PER_LAYER.iter().filter(|m| m.exact) {
            if let (Some(x), Some(y)) = (ra.metrics.get(m.name), rb.metrics.get(m.name)) {
                note(
                    m.name,
                    x.value == y.value,
                    x.value.to_string(),
                    y.value.to_string(),
                );
            }
        }
    }
    let _ = writeln!(
        text,
        "simulated readings matched on (workload, seed, trace): {equal} equal, {different} different; \
         {unmatched} of a's runs have no counterpart in b"
    );
    clean &= different == 0;
    let _ = writeln!(
        text,
        "{}",
        if clean {
            "CLEAN: every pair unchanged or improved, every simulated reading equal"
        } else {
            "NOT CLEAN: see the rows marked REGRESSED, UNRESOLVED, MISSING or DIFFERENT"
        }
    );
    Outcome { text, clean }
}

/// [`compare`] over two `--out` files and a `BENCHMARK.json`.
pub fn compare_files(a: &Path, b: &Path, benchmark: &Path) -> Result<Outcome, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let bounds = parse_bounds(&read(benchmark)?)?;
    let ra = parse_records(&read(a)?).map_err(|e| format!("{}: {e}", a.display()))?;
    let rb = parse_records(&read(b)?).map_err(|e| format!("{}: {e}", b.display()))?;
    Ok(compare(&bounds, &ra, &rb))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn readings(values: &[f64]) -> Vec<Reading> {
        values
            .iter()
            .map(|&value| Reading { value, spread: 0.0 })
            .collect()
    }

    #[test]
    fn steady_sides_resolve_to_unchanged_improved_or_regressed() {
        let a = readings(&[10.0, 10.1, 9.9, 10.0]);
        let same = judge(
            &a,
            &readings(&[10.2, 10.3, 10.1, 10.2]),
            Better::Lower,
            0.10,
        );
        assert_eq!(same.verdict, Verdict::Unchanged);
        assert!((same.worse_by - 0.02).abs() < 1e-9);
        let slow = judge(
            &a,
            &readings(&[12.0, 12.1, 11.9, 12.0]),
            Better::Lower,
            0.10,
        );
        assert_eq!(slow.verdict, Verdict::Regressed);
        let fast = judge(&a, &readings(&[8.0, 8.1, 7.9, 8.0]), Better::Lower, 0.10);
        assert_eq!(fast.verdict, Verdict::Improved);
        // The same numbers on a higher-is-better metric flip sign.
        let fast_h = judge(
            &a,
            &readings(&[12.0, 12.1, 11.9, 12.0]),
            Better::Higher,
            0.10,
        );
        assert_eq!(fast_h.verdict, Verdict::Improved);
        assert!(fast_h.worse_by < 0.0);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = readings(&[8.0, 10.0, 12.0, 9.0, 11.0]);
        let b = readings(&[8.5, 10.2, 12.5, 9.1, 11.3]);
        let row = judge(&a, &b, Better::Lower, 0.10);
        assert!(row.spread > 0.10);
        assert_eq!(row.verdict, Verdict::Unresolved);
        // Worse by more than the bound but interleaved: still unresolved.
        let b = readings(&[9.0, 12.0, 14.0, 10.5, 13.0]);
        assert_eq!(
            judge(&a, &b, Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
        // Noisy, but every run of b beats every run of a: resolved.
        let b = readings(&[5.0, 6.0, 7.0, 5.5, 6.5]);
        assert_eq!(
            judge(&a, &b, Better::Lower, 0.10).verdict,
            Verdict::Improved
        );
        let b = readings(&[15.0, 16.0, 19.0, 15.5, 17.5]);
        assert_eq!(
            judge(&a, &b, Better::Lower, 0.10).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn single_runs_fall_back_on_their_within_run_spread() {
        let steady = [Reading {
            value: 10.0,
            spread: 0.02,
        }];
        let shaky = [Reading {
            value: 10.3,
            spread: 0.30,
        }];
        assert_eq!(
            judge(&steady, &steady, Better::Lower, 0.10).verdict,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&steady, &shaky, Better::Lower, 0.10).verdict,
            Verdict::Unresolved
        );
    }

    fn record(
        workload: &str,
        seed: u64,
        trace: bool,
        digest: &str,
        metrics: &[(&str, f64)],
    ) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"s\", \"q1\": {v}, \"q3\": {v}, \"n\": 5}}"))
            .collect();
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"result_digest\": \"{digest}\", \"metrics\": {{{}}}}}",
            u8::from(trace),
            body.join(", ")
        )
    }

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]}"#;

    #[test]
    fn files_compare_end_to_end_and_exactly() {
        let bounds = parse_bounds(BENCH).expect("valid");
        assert_eq!(bounds.len(), 2);
        assert_eq!(bounds[1].bound, 0.25);
        let plain = |wall: f64, d: &str| {
            record(
                "city_20k",
                1,
                false,
                d,
                &[("wall_s", wall), ("setup_s", 0.07)],
            )
        };
        let traced = |tx: f64| {
            record(
                "city_20k",
                1,
                true,
                "aa",
                &[("net.tx", tx), ("net.ctx_s", 0.5)],
            )
        };

        let a =
            parse_records(&format!("{}\n{}\n", plain(6.0, "aa"), traced(100.0))).expect("valid");
        assert_eq!(a.len(), 2);
        assert!(!a[0].trace && a[1].trace);

        let same = compare(&bounds, &a, &a);
        assert!(same.clean, "{}", same.text);
        assert!(same.text.contains("unchanged"));

        // A slower wall clock regresses; setup_s within its bound does not.
        let b =
            parse_records(&format!("{}\n{}\n", plain(7.0, "aa"), traced(100.0))).expect("valid");
        let slow = compare(&bounds, &a, &b);
        assert!(!slow.clean);
        assert!(slow.text.contains("REGRESSED"));

        // A changed digest or exact count is reported as different;
        // a changed timing metric of a traced run is not.
        let b =
            parse_records(&format!("{}\n{}\n", plain(6.0, "bb"), traced(101.0))).expect("valid");
        let diff = compare(&bounds, &a, &b);
        assert!(!diff.clean);
        assert!(diff
            .text
            .contains("DIFFERENT city_20k seed 1 result_digest"));
        assert!(diff.text.contains("DIFFERENT city_20k seed 1 net.tx"));
        assert!(!diff.text.contains("net.ctx_s"));

        // A workload one side never ran is missing, not fine.
        let missing = compare(&bounds, &a, &[]);
        assert!(!missing.clean);
        assert!(missing.text.contains("MISSING"));
    }

    #[test]
    fn malformed_inputs_are_errors() {
        assert!(parse_bounds("{}").is_err());
        assert!(parse_bounds(r#"{"end_to_end": [{"name": "x"}]}"#).is_err());
        assert!(parse_records("{\"workload\": \"w\"}").is_err());
        assert!(parse_records("not json").is_err());
        assert_eq!(
            parse_records("\n\n")
                .expect("blank lines are skipped")
                .len(),
            0
        );
    }
}
