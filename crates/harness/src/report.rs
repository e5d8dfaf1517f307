//! Rendering regenerated figures, stress matrices and goldens as ASCII
//! tables, CSV and exact-bits JSON.

use std::fmt::Write as _;

use ag_sim::ConfigError;

use crate::experiment::SweepPoint;
use crate::figures::GoodputSeries;
use crate::matrix::MatrixReport;

/// Environment knob: seeds per sweep point (`AG_SEEDS`, at least 1,
/// default 10 — the paper's count).
pub fn env_seeds() -> u64 {
    env_knob("AG_SEEDS", 1, 10)
}

/// Environment knob: run length in seconds (`AG_SIM_SECS`, default 600
/// — the paper's). Scaled runs keep the paper's warm-up proportions.
pub fn env_sim_secs() -> u64 {
    env_sim_secs_or(600)
}

/// [`env_sim_secs`] with a caller-chosen default, for workloads whose
/// natural length is not the paper's 600 s (the city-scale example
/// defaults to 60 s).
pub fn env_sim_secs_or(default: u64) -> u64 {
    env_knob("AG_SIM_SECS", 0, default)
}

/// Environment knob: node count for the scale examples (`AG_NODES`;
/// the caller supplies its default — 500 for `city_scale`).
pub fn env_nodes(default: usize) -> usize {
    usize::try_from(env_knob("AG_NODES", 0, default as u64)).unwrap_or(usize::MAX)
}

/// Reads the integer knob `name`. Unset means `default`; a value that
/// is not a plain integer of at least `min` ends the process with
/// status 2 and one line naming the variable and the value, because a
/// silent fallback turns `AG_SIM_SECS=3O` into the 600 s paper run.
pub(crate) fn env_knob(name: &str, min: u64, default: u64) -> u64 {
    let raw = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_knob(raw.as_deref(), min, default).unwrap_or_else(|| {
        eprintln!(
            "error: {name}={:?} is not an integer of at least {min}",
            raw.unwrap_or_default()
        );
        std::process::exit(2)
    })
}

/// An entry point's configuration check: the value when `checked` is
/// `Ok`; otherwise the process ends with status 2 and the error's one
/// line, as it does for a bad `AG_*` knob.
pub fn or_exit<T>(checked: Result<T, ConfigError>) -> T {
    checked.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// The value of a knob whose raw setting is `raw`: `default` when unset,
/// the number when set to decimal digits (surrounding whitespace
/// allowed) reading at least `min`, `None` for anything else — empty,
/// signed, exponent notation, letters, too small, or too large for a
/// `u64`.
fn parse_knob(raw: Option<&str>, min: u64, default: u64) -> Option<u64> {
    let Some(raw) = raw else {
        return Some(default);
    };
    let digits = raw.trim();
    // `parse` alone would let a leading `+` through.
    if !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok().filter(|&n| n >= min)
}

/// Renders a line figure as a fixed-width table mirroring the paper's
/// series: per x-value, mean packets received with the min–max error
/// bar, for both protocols.
pub fn render_table(title: &str, xlabel: &str, points: &[SweepPoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    if let Some(p) = points.first() {
        let _ = writeln!(out, "# packets multicast by the source: {}", p.sent);
    }
    let _ = writeln!(
        out,
        "{:>18} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8} | {:>7}",
        xlabel, "maodv", "min", "max", "gossip", "min", "max", "gain"
    );
    let _ = writeln!(out, "{}", "-".repeat(93));
    for p in points {
        let gain = if p.maodv.mean() > 0.0 {
            p.gossip.mean() / p.maodv.mean()
        } else {
            f64::INFINITY
        };
        let _ = writeln!(
            out,
            "{:>18.2} | {:>8.1} {:>8.1} {:>8.1} | {:>8.1} {:>8.1} {:>8.1} | {:>6.2}x",
            p.x,
            p.maodv.mean(),
            p.maodv.min(),
            p.maodv.max(),
            p.gossip.mean(),
            p.gossip.min(),
            p.gossip.max(),
            gain
        );
    }
    out
}

/// Renders a line figure as JSON with **exact float bits**: every float
/// is written with Rust's shortest-roundtrip formatting, so two point
/// sets render identically iff they are bit-for-bit equal. This is the
/// format of the committed golden-figure snapshots
/// (`tests/golden/*.json`), which pin the paper figures against silent
/// drift from engine refactors.
pub fn render_json(points: &[SweepPoint]) -> String {
    fn summary(s: &ag_sim::stats::Summary) -> String {
        format!(
            "{{\"count\":{},\"mean\":{:?},\"min\":{:?},\"max\":{:?},\"variance\":{:?}}}",
            s.count(),
            s.mean(),
            s.min(),
            s.max(),
            s.variance()
        )
    }
    let mut out = String::from("[\n");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {{\"x\":{:?},\"sent\":{},\"maodv\":{},\"gossip\":{},\"goodput\":{}}}{}",
            p.x,
            p.sent,
            summary(&p.maodv),
            summary(&p.gossip),
            summary(&p.goodput),
            if i + 1 == points.len() { "" } else { "," }
        );
    }
    out.push_str("]\n");
    out
}

/// Renders a line figure as CSV (one row per x-value).
pub fn render_csv(points: &[SweepPoint]) -> String {
    let mut out = String::from("x,sent,maodv_mean,maodv_min,maodv_max,maodv_sd,gossip_mean,gossip_min,gossip_max,gossip_sd,goodput_mean\n");
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2}",
            p.x,
            p.sent,
            p.maodv.mean(),
            p.maodv.min(),
            p.maodv.max(),
            p.maodv.stddev(),
            p.gossip.mean(),
            p.gossip.min(),
            p.gossip.max(),
            p.gossip.stddev(),
            p.goodput.mean(),
        );
    }
    out
}

/// Renders a stress-matrix report as a fixed-width comparison table:
/// one row per (loss, churn, speed) configuration, one column group per
/// protocol with its mean delivery percentage and min–max packet range
/// across receivers.
pub fn render_matrix(report: &MatrixReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Cross-protocol stress matrix (mean delivery % across receivers; [min-max] packets)"
    );
    if let Some(c) = report.cells.first() {
        let _ = writeln!(out, "# packets multicast by the source: {}", c.sent);
    }
    let _ = write!(out, "{:>11} {:>11} {:>6}", "loss", "churn", "speed");
    for p in &report.protocols {
        let _ = write!(out, " | {:>20}", format!("{p:?}").to_lowercase());
    }
    let _ = writeln!(out);
    let width = 30 + 23 * report.protocols.len();
    let _ = writeln!(out, "{}", "-".repeat(width));
    for row in report.cells.chunks(report.protocols.len()) {
        let first = &row[0];
        let _ = write!(
            out,
            "{:>11} {:>11} {:>6.1}",
            first.loss, first.churn, first.max_speed
        );
        for c in row {
            let _ = write!(
                out,
                " | {:>7.1}% [{:>4.0}-{:>4.0}]",
                c.delivery_percent(),
                c.received.min(),
                c.received.max()
            );
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders Figure 8's per-member goodput series.
pub fn render_goodput(series: &[GoodputSeries]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Goodput at group members (percent, per member, pooled over seeds)"
    );
    for s in series {
        let summary: ag_sim::stats::Summary = s.member_goodput.iter().copied().collect();
        let _ = writeln!(
            out,
            "{:>12}: n={:<4} mean={:>6.2}% min={:>6.2}% max={:>6.2}%",
            s.label,
            summary.count(),
            summary.mean(),
            summary.min(),
            summary.max()
        );
        let values: Vec<String> = s.member_goodput.iter().map(|g| format!("{g:.1}")).collect();
        let _ = writeln!(out, "              [{}]", values.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_sim::stats::Summary;

    fn point(x: f64) -> SweepPoint {
        SweepPoint {
            x,
            sent: 100,
            maodv: [50.0, 70.0].into_iter().collect(),
            gossip: [80.0, 90.0].into_iter().collect(),
            goodput: Summary::new(),
        }
    }

    #[test]
    fn table_contains_series() {
        let t = render_table("Fig X", "range (m)", &[point(45.0), point(50.0)]);
        assert!(t.contains("Fig X"));
        assert!(t.contains("45.00"));
        assert!(t.contains("60.0")); // maodv mean
        assert!(t.contains("85.0")); // gossip mean
        assert!(t.contains("1.42x")); // gain
    }

    #[test]
    fn json_is_exact_and_well_formed() {
        let j = render_json(&[point(45.0), point(50.0)]);
        assert!(j.starts_with("[\n"));
        assert!(j.ends_with("]\n"));
        assert!(j.contains("\"x\":45.0"));
        assert!(j.contains("\"mean\":60.0")); // maodv mean, exact bits
        assert_eq!(j.matches("\"sent\":100").count(), 2);
        // Identical inputs must render byte-identically.
        assert_eq!(j, render_json(&[point(45.0), point(50.0)]));
    }

    #[test]
    fn csv_has_header_and_rows() {
        let c = render_csv(&[point(45.0)]);
        let lines: Vec<&str> = c.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("x,sent,"));
        assert!(lines[1].starts_with("45,100,"));
    }

    #[test]
    fn matrix_rendering_groups_rows_by_configuration() {
        use crate::matrix::{MatrixCell, MatrixReport};
        use crate::ProtocolKind;
        let cell = |protocol, loss: &str, received: Summary| MatrixCell {
            protocol,
            loss: loss.into(),
            churn: "none".into(),
            max_speed: 0.2,
            sent: 100,
            received,
        };
        let report = MatrixReport {
            protocols: vec![ProtocolKind::Gossip, ProtocolKind::Maodv],
            cells: vec![
                cell(
                    ProtocolKind::Gossip,
                    "ideal",
                    [90.0, 100.0].into_iter().collect(),
                ),
                cell(
                    ProtocolKind::Maodv,
                    "ideal",
                    [50.0, 70.0].into_iter().collect(),
                ),
            ],
        };
        let t = render_matrix(&report);
        assert!(t.contains("gossip"));
        assert!(t.contains("maodv"));
        assert!(t.contains("ideal"));
        assert!(t.contains("95.0%"), "{t}");
        assert!(t.contains("60.0%"), "{t}");
        assert_eq!(t.lines().count(), 5, "{t}");
    }

    #[test]
    fn goodput_rendering() {
        let mut hist = ag_sim::stats::Histogram::new(0.0, 100.0, 20);
        hist.record(99.0);
        hist.record(100.0);
        let s = GoodputSeries {
            label: "45m, 0.2m/s".into(),
            range_m: 45.0,
            max_speed: 0.2,
            member_goodput: vec![99.0, 100.0],
            goodput_hist: hist,
        };
        let r = render_goodput(&[s]);
        assert!(r.contains("45m, 0.2m/s"));
        assert!(r.contains("99.5"));
    }

    #[test]
    fn env_defaults() {
        // No env vars set in tests: paper defaults.
        assert_eq!(env_seeds(), 10);
        assert_eq!(env_sim_secs(), 600);
    }

    #[test]
    fn knob_parser_accepts_plain_integers_only() {
        assert_eq!(parse_knob(None, 0, 600), Some(600));
        assert_eq!(parse_knob(Some(" 30 "), 0, 600), Some(30));
        assert_eq!(parse_knob(Some("0"), 0, 600), Some(0));
        for garbage in [
            "", "  ", "3O", "-1", "-4", "+1", "1e5", "2.5", "1_000", "0x10", "many",
        ] {
            assert_eq!(parse_knob(Some(garbage), 0, 600), None, "{garbage:?}");
            assert_eq!(parse_knob(Some(garbage), 1, 600), None, "{garbage:?}");
        }
        // A knob with a floor (`AG_THREADS`: at least one worker).
        assert_eq!(parse_knob(Some("0"), 1, 8), None);
        assert_eq!(parse_knob(Some(" 2 "), 1, 8), Some(2));
        assert_eq!(parse_knob(None, 1, 8), Some(8));
        // 30 digits: all digits, but past u64::MAX.
        assert_eq!(
            parse_knob(Some("123456789012345678901234567890"), 0, 600),
            None
        );
        assert_eq!(
            parse_knob(Some("18446744073709551615"), 0, 600),
            Some(u64::MAX)
        );
    }
}
