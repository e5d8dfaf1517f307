//! Rendering a [`Report`]: the contract's result line, a table for
//! people, the run record `--compare` reads, and the trace file.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::{push_num, push_str_lit};
use crate::names::{END_TO_END, PER_LAYER};
use crate::run::Report;
use crate::stats::Quartiles;
use crate::trace::{JobTrace, Span};

/// `(name, unit, reading)` of every metric the run reports: the
/// end-to-end metrics of a plain run, the per-layer metrics of a traced
/// one. A plain metric carries its within-run quartiles.
fn metrics(report: &Report) -> Vec<(&'static str, &'static str, Quartiles)> {
    if report.opts.trace {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = report.per_layer.get(m.name).copied().unwrap_or(0.0);
                (m.name, m.unit, Quartiles::of(&[v]))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let q = report
                    .end_to_end
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map_or(Quartiles::of(&[]), |(_, q)| *q);
                (m.name, m.unit, q)
            })
            .collect()
    }
}

/// Appends the `"metrics": {…}` object: name → value and unit, plus the
/// within-run quartiles where `with_quartiles` and the run has them.
fn push_metrics(out: &mut String, report: &Report, with_quartiles: bool) {
    out.push_str("\"metrics\": {");
    for (i, (name, unit, q)) in metrics(report).into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_lit(out, name);
        out.push_str(": {\"value\": ");
        push_num(out, q.median);
        out.push_str(", \"unit\": ");
        push_str_lit(out, unit);
        if with_quartiles && q.n > 1 {
            for (key, v) in [("min", q.min), ("q1", q.q1), ("q3", q.q3)] {
                let _ = write!(out, ", \"{key}\": ");
                push_num(out, v);
            }
            let _ = write!(out, ", \"n\": {}", q.n);
        }
        out.push('}');
    }
    out.push('}');
}

/// The single JSON object the benchmark contract wants as the last line
/// of standard output.
pub fn result_line(report: &Report) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, ",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    push_metrics(&mut out, report, false);
    out.push('}');
    out
}

/// The commit checked out in the working directory, read from `.git`
/// without spawning a process; `unknown` outside a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(str::to_string))
            })
            .unwrap_or_default()
            .trim()
            .to_string(),
    };
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit
    }
}

/// One line of JSON holding everything the run measured — the record
/// `--out` appends and `--compare` reads.
pub fn record_line(report: &Report) -> String {
    let o = &report.opts;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"quick\": {}, \"seconds\": {}, \
         \"k\": {}, \"nproc\": {}, \"threads\": {}, \"stride\": {}, \"repeats\": {}, \"commit\": ",
        o.workload.name(),
        o.seed,
        u8::from(o.trace),
        o.quick,
        o.seconds,
        report.k,
        report.nproc,
        report.threads,
        report.stride,
        report.repeats,
    );
    push_str_lit(&mut out, &git_commit());
    let _ = write!(
        out,
        ", \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"result_digest\": \"{:016x}\", \
         \"host_ref_ns\": {{\"median\": ",
        report.correct(),
        report.attempted,
        report.failed,
        report.digest,
    );
    push_num(&mut out, report.host_ref_ns.median);
    out.push_str(", \"min\": ");
    push_num(&mut out, report.host_ref_ns.min);
    out.push_str(", \"max\": ");
    push_num(&mut out, report.host_ref_max_ns);
    let _ = write!(out, ", \"n\": {}}}, \"raw\": {{", report.host_ref_ns.n);
    for (i, (name, q)) in report.raw.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_str_lit(&mut out, name);
        out.push_str(": ");
        push_num(&mut out, q.median);
    }
    out.push_str("}, \"checks\": [");
    for (i, c) in report.checks.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"ok\": {}, \"detail\": ",
            c.name, c.ok
        );
        push_str_lit(&mut out, &c.detail);
        out.push('}');
    }
    out.push_str("], ");
    push_metrics(&mut out, report, true);
    out.push('}');
    out
}

/// The table printed to standard error.
pub fn table(report: &Report) -> String {
    let o = &report.opts;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "agbench  workload={} seed={} trace={} quick={} seconds={}  k={} nproc={} threads={} \
         stride={} repeats={}  commit={}",
        o.workload.name(),
        o.seed,
        u8::from(o.trace),
        o.quick,
        o.seconds,
        report.k,
        report.nproc,
        report.threads,
        report.stride,
        report.repeats,
        git_commit(),
    );
    let _ = writeln!(
        out,
        "host yardstick ({:?}): median {:.1} ns  min {:.1}  max {:.1}  over {} readings \
         (calibrated time = raw x {} / reading)",
        o.workload.yardstick(),
        report.host_ref_ns.median,
        report.host_ref_ns.min,
        report.host_ref_max_ns,
        report.host_ref_ns.n,
        o.workload.yardstick().nominal_ns(),
    );
    for (name, unit, q) in metrics(report) {
        let _ = write!(out, "  {name:<38} {:>16.6} {unit:<8}", q.median);
        if q.n > 1 {
            let _ = write!(
                out,
                " min {:.6}  q1 {:.6}  q3 {:.6}  n {}  spread {:.1} %",
                q.min,
                q.q1,
                q.q3,
                q.n,
                100.0 * q.spread()
            );
        }
        out.push('\n');
    }
    for (name, q) in &report.raw {
        let _ = writeln!(
            out,
            "  {name:<38} {:>16.6} s        (uncalibrated; spread {:.1} %)",
            q.median,
            100.0 * q.spread()
        );
    }
    let _ = writeln!(
        out,
        "ops={} ops_failed={} result_digest={:016x}",
        report.attempted, report.failed, report.digest
    );
    for c in &report.checks {
        let _ = writeln!(
            out,
            "  check {:<32} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    let _ = writeln!(
        out,
        "{}",
        if report.correct() {
            "outputs correct"
        } else {
            "OUTPUTS NOT CORRECT"
        }
    );
    out
}

/// Most raw spans a trace file holds.
const RAW_CAP: usize = 100_000;

/// The trace file: every span name's aggregate and the bounded raw
/// sample, as one JSON document.
pub fn trace_document(report: &Report, trace: &JobTrace) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"workload\": \"{}\", \"seed\": {}, \"stride\": {}, \"time_unit\": \"ns\",",
        report.opts.workload.name(),
        report.opts.seed,
        report.stride
    );
    out.push_str(" \"spans\": [\n");
    let named: Vec<(Span, _)> = (0..trace.aggs.len())
        .map(Span::from_index)
        .map(|s| (s, trace.agg(s)))
        .filter(|(_, a)| a.calls > 0)
        .collect();
    for (i, (span, a)) in named.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"calls\": {}, \"timed\": {}, \"total_ns\": {}, \"self_ns\": {}, \
             \"max_ns\": {}, \"est_total_s\": ",
            span.name(),
            a.calls,
            a.timed,
            a.total_ns,
            a.self_ns,
            a.max_ns
        );
        push_num(&mut out, a.total_s());
        out.push_str(", \"est_self_s\": ");
        push_num(&mut out, a.self_s());
        out.push_str(if i + 1 < named.len() { "},\n" } else { "}\n" });
    }
    out.push_str(" ],\n \"raw\": [\n");
    let raw = &trace.raw[..trace.raw.len().min(RAW_CAP)];
    for (i, s) in raw.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"job\": {}, \"id\": {}, \"parent\": {}, \"start_ns\": {}, \
             \"end_ns\": {}}}",
            Span::from_index(s.name as usize).name(),
            s.job,
            s.id,
            s.parent,
            s.start_ns,
            s.end_ns
        );
        out.push_str(if i + 1 < raw.len() { ",\n" } else { "\n" });
    }
    out.push_str(" ]\n}\n");
    out
}

/// Appends `line` to the file at `path`, creating it if need be.
pub fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(line.as_bytes())?;
    f.write_all(b"\n")
}
