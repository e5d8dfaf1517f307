//! One spec per paper figure (2–8): §5's sweeps, each point pooled by
//! [`crate::experiment::sweep_point`].

use ag_mobility::density;
use ag_sim::stats::Histogram;
use ag_sim::ConfigError;

use crate::experiment::{pool, sweep_point, SweepPoint};
use crate::parallel::Parallelism;
use crate::{ProtocolKind, Scenario};

/// A regenerable figure: base scenario, swept values and the knob they
/// set.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// "fig2" … "fig7".
    pub id: &'static str,
    /// The paper's caption.
    pub title: &'static str,
    /// X-axis label.
    pub xlabel: &'static str,
    /// Swept values.
    pub xs: Vec<f64>,
    /// How a swept value configures the scenario.
    pub apply: fn(&mut Scenario, f64),
    /// The fixed-parameter base scenario.
    pub base: Scenario,
}

impl FigureSpec {
    /// The scenario at each swept value, once every one passes
    /// [`Scenario::validate`].
    pub fn scenarios(&self) -> Result<Vec<(f64, Scenario)>, ConfigError> {
        self.xs
            .iter()
            .map(|&x| {
                let mut sc = self.base.clone();
                (self.apply)(&mut sc, x);
                sc.validate().map(|()| (x, sc))
            })
            .collect()
    }

    /// Runs the figure's sweep with `seeds` seeds per point on `par`
    /// worker threads, once [`FigureSpec::scenarios`] passes. Points run
    /// in order and seeds merge in seed order, so output is identical
    /// for every `par`.
    pub fn run(&self, seeds: u64, par: Parallelism) -> Result<Vec<SweepPoint>, ConfigError> {
        let points = self.scenarios()?;
        Ok(points
            .iter()
            .map(|(x, sc)| sweep_point(sc, *x, seeds, par))
            .collect())
    }

    /// Rescales the base scenario (for tests/benches).
    pub fn with_duration_secs(mut self, secs: u64) -> Self {
        self.base = self.base.with_duration_secs(secs);
        self
    }
}

fn range_steps() -> Vec<f64> {
    (0..=8).map(|i| 45.0 + 5.0 * i as f64).collect()
}

/// Figure 2: packet delivery vs. transmission range (45–85 m), 40
/// nodes, max speed 0.2 m/s.
pub fn fig2() -> FigureSpec {
    FigureSpec {
        id: "fig2",
        title: "Packet Delivery vs Transmission Range (max speed 0.2 m/s)",
        xlabel: "transmission range (m)",
        xs: range_steps(),
        apply: |sc, x| sc.range_m = x,
        base: Scenario::paper(40, 45.0, 0.2),
    }
}

/// Figure 3: packet delivery vs. transmission range (45–85 m), 40
/// nodes, max speed 2 m/s.
pub fn fig3() -> FigureSpec {
    FigureSpec {
        id: "fig3",
        title: "Packet Delivery vs Transmission Range (max speed 2 m/s)",
        xlabel: "transmission range (m)",
        xs: range_steps(),
        apply: |sc, x| sc.range_m = x,
        base: Scenario::paper(40, 45.0, 2.0),
    }
}

/// Figure 4: packet delivery vs. maximum speed (0.1–1.0 m/s), 40 nodes,
/// range 75 m.
pub fn fig4() -> FigureSpec {
    FigureSpec {
        id: "fig4",
        title: "Packet Delivery vs Maximum Speed, slow phase (range 75 m)",
        xlabel: "max speed (m/s)",
        xs: (1..=10).map(|i| i as f64 / 10.0).collect(),
        apply: |sc, x| sc.max_speed = x,
        base: Scenario::paper(40, 75.0, 0.1),
    }
}

/// Figure 5: packet delivery vs. maximum speed (1–10 m/s), 40 nodes,
/// range 75 m.
pub fn fig5() -> FigureSpec {
    FigureSpec {
        id: "fig5",
        title: "Packet Delivery vs Maximum Speed, fast phase (range 75 m)",
        xlabel: "max speed (m/s)",
        xs: (1..=10).map(|i| i as f64).collect(),
        apply: |sc, x| sc.max_speed = x,
        base: Scenario::paper(40, 75.0, 1.0),
    }
}

/// Figure 6: packet delivery vs. node count (40–100) with the
/// transmission range scaled to keep the expected neighbour count
/// constant (baseline 55 m at 40 nodes); max speed 0.2 m/s.
pub fn fig6() -> FigureSpec {
    FigureSpec {
        id: "fig6",
        title: "Packet Delivery vs Number of Nodes (constant mean degree)",
        xlabel: "# nodes in network",
        xs: (4..=10).map(|i| (i * 10) as f64).collect(),
        apply: |sc, x| {
            sc.nodes = x as usize;
            sc.member_count = (sc.nodes / 3).max(2);
            sc.range_m = density::range_for_constant_degree(40, 55.0, sc.nodes);
        },
        base: Scenario::paper(40, 55.0, 0.2),
    }
}

/// Figure 7: packet delivery vs. node count (40–100) at a constant
/// 55 m transmission range; max speed 0.2 m/s.
pub fn fig7() -> FigureSpec {
    FigureSpec {
        id: "fig7",
        title: "Packet Delivery vs Number of Nodes (range 55 m)",
        xlabel: "# nodes in network",
        xs: (4..=10).map(|i| (i * 10) as f64).collect(),
        apply: |sc, x| {
            sc.nodes = x as usize;
            sc.member_count = (sc.nodes / 3).max(2);
        },
        base: Scenario::paper(40, 55.0, 0.2),
    }
}

/// All line figures, in paper order.
pub fn all_line_figures() -> Vec<FigureSpec> {
    vec![fig2(), fig3(), fig4(), fig5(), fig6(), fig7()]
}

/// One Figure 8 series: per-member goodput for a (range, speed)
/// configuration.
#[derive(Debug, Clone)]
pub struct GoodputSeries {
    /// Legend label, e.g. `"45m, 0.2m/s"`.
    pub label: String,
    /// Transmission range (m).
    pub range_m: f64,
    /// Maximum speed (m/s).
    pub max_speed: f64,
    /// Per-member goodput observations pooled over seeds, sorted by
    /// member index within each run.
    pub member_goodput: Vec<f64>,
    /// The same observations binned 0–100 % in 5 % bins.
    pub goodput_hist: Histogram,
}

/// Figure 8's four configurations, {45 m, 75 m} × {0.2 m/s, 2 m/s}, run
/// for `secs` seconds, once each passes [`Scenario::validate`].
pub fn fig8_scenarios(secs: u64) -> Result<Vec<Scenario>, ConfigError> {
    [(45.0, 0.2), (75.0, 0.2), (45.0, 2.0), (75.0, 2.0)]
        .into_iter()
        .map(|(range, speed)| {
            let sc = Scenario::paper(40, range, speed).with_duration_secs(secs);
            sc.validate().map(|()| sc)
        })
        .collect()
}

/// Figure 8: goodput at the group members in each of
/// [`fig8_scenarios`] (gossip runs only). Seeds of each configuration
/// run on `par` worker threads; pooled observations keep seed order, so
/// output is thread-count independent.
pub fn fig8(seeds: u64, secs: u64, par: Parallelism) -> Result<Vec<GoodputSeries>, ConfigError> {
    let scenarios = fig8_scenarios(secs)?;
    Ok(scenarios
        .iter()
        .map(|sc| {
            let member_goodput = pool(sc, ProtocolKind::Gossip, seeds, par).goodput;
            let mut goodput_hist = Histogram::new(0.0, 100.0, 20);
            for &g in &member_goodput {
                goodput_hist.record(g);
            }
            GoodputSeries {
                label: format!("{}m, {}m/s", sc.range_m, sc.max_speed),
                range_m: sc.range_m,
                max_speed: sc.max_speed,
                member_goodput,
                goodput_hist,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_axes_match_the_paper() {
        let f2 = fig2();
        assert_eq!(f2.xs.first(), Some(&45.0));
        assert_eq!(f2.xs.last(), Some(&85.0));
        assert_eq!(f2.xs.len(), 9);
        let f4 = fig4();
        assert_eq!(f4.xs.first(), Some(&0.1));
        assert_eq!(f4.xs.last(), Some(&1.0));
        let f5 = fig5();
        assert_eq!(f5.xs.last(), Some(&10.0));
        let f6 = fig6();
        assert_eq!(f6.xs, vec![40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]);
    }

    #[test]
    fn fig6_scales_range_with_node_count() {
        let f6 = fig6();
        let mut sc = f6.base.clone();
        (f6.apply)(&mut sc, 100.0);
        assert_eq!(sc.nodes, 100);
        assert!(sc.range_m < 55.0);
        assert_eq!(sc.member_count, 33);
        // Degree is preserved vs. the 40-node baseline.
        let d40 = ag_mobility::density::expected_degree(40, 55.0, sc.field);
        let d100 = ag_mobility::density::expected_degree(100, sc.range_m, sc.field);
        assert!((d40 - d100).abs() < 1e-9);
    }

    #[test]
    fn fig7_keeps_range_fixed() {
        let f7 = fig7();
        let mut sc = f7.base.clone();
        (f7.apply)(&mut sc, 80.0);
        assert_eq!(sc.range_m, 55.0);
        assert_eq!(sc.nodes, 80);
    }

    #[test]
    fn all_line_figures_enumerates_six() {
        let ids: Vec<&str> = all_line_figures().iter().map(|f| f.id).collect();
        assert_eq!(ids, vec!["fig2", "fig3", "fig4", "fig5", "fig6", "fig7"]);
    }

    /// A bad last point fails the figure before its good points run
    /// (they would take minutes, then panic in `run_counting`).
    #[test]
    fn a_bad_point_fails_before_any_point_runs() {
        let mut f7 = fig7().with_duration_secs(30);
        f7.xs.push(1.0);
        let err = f7.run(1, Parallelism::serial()).unwrap_err();
        assert_eq!(err.field, "Scenario.nodes");
        let err = fig8(1, 0, Parallelism::serial()).unwrap_err();
        assert_eq!(err.field, "Scenario.sim_time");
    }
}
