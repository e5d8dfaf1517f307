//! The metric name tables compiled into `agbench`.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions (the `schema` test keeps the two in step); this table
//! adds what that file has no field for: the layer a metric belongs
//! to, whether it is an exact simulated count, and the end-to-end
//! metric and workload it should move.

/// Whether a larger or a smaller reading is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload, with a bound.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The end-to-end metrics.
///
/// The bounds are what the sandbox can hold, measured (README, "Host
/// noise and calibration"): over ten seeds a noisy hour spreads
/// calibrated `wall_s` 8–14 % and `setup_s` up to 14 %, and the kernel's
/// batched RSS accounting moves a 9 MB peak by 5 %.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// True for simulated counts and ratios of counts, which repeat
    /// exactly for a seed; two commits compare equal or different.
    pub exact: bool,
    /// The end-to-end metric it should move and on which workload(s).
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer the metric belongs to — a crate, or the pseudo-layers
    /// `trace` and `host` — the name's first dot-separated part.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

const fn timing(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
        moves,
    }
}

const fn exact(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
        moves,
    }
}

use Better::{Higher, Lower};

const SMALL: &str = "wall_s on paper_sweep, stress_harsh";
const ALL_WALL: &str = "wall_s on every workload";
const BEHAVIOUR: &str = "none: moves only when simulated behaviour changes";
const CITY: &str = "wall_s on city_20k, city_20k_nt";
const HARSH: &str = "wall_s on stress_harsh";
const HOST: &str = "none: times frozen code, i.e. the host";

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: &[PerLayer] = &[
    // ── sim ──
    exact("sim.events_processed", "count", Lower, ALL_WALL),
    exact("sim.events_scheduled", "count", Lower, ALL_WALL),
    timing("sim.queue_hold_ns", "ns", Lower, SMALL),
    timing("sim.queue_ties_ns", "ns", Lower, SMALL),
    timing("sim.queue_ref_hold_ns", "ns", Lower, HOST),
    timing("sim.counter_add_ns", "ns", Lower, SMALL),
    // ── mobility ──
    exact("mobility.transitions", "count", Lower, BEHAVIOUR),
    timing("mobility.position_at_ns", "ns", Lower, ALL_WALL),
    timing("mobility.transition_ns", "ns", Lower, ALL_WALL),
    // ── net: plain runs ──
    timing("net.ns_per_event", "ns", Lower, ALL_WALL),
    exact("net.tx", "count", Lower, BEHAVIOUR),
    exact("net.rx_delivered", "count", Higher, BEHAVIOUR),
    exact("net.rx_collision", "count", Lower, BEHAVIOUR),
    exact("net.rx_channel_drop", "count", Lower, HARSH),
    exact("net.cs_busy", "count", Lower, BEHAVIOUR),
    exact("net.unicast_retry", "count", Lower, BEHAVIOUR),
    exact("net.send_fail", "count", Lower, BEHAVIOUR),
    exact("net.queue_drop", "count", Lower, BEHAVIOUR),
    exact("net.churn_toggles", "count", Lower, HARSH),
    exact("net.rx_useful_ratio", "ratio", Higher, BEHAVIOUR),
    exact("net.receivers_per_tx", "ratio", Lower, CITY),
    // ── net: traced runs ──
    timing("net.engine_self_s", "s", Lower, ALL_WALL),
    timing("net.engine_self_share", "ratio", Lower, ALL_WALL),
    timing("net.ctx_s", "s", Lower, SMALL),
    exact("net.ctx_calls", "count", Lower, SMALL),
    exact("net.ctx_count_calls", "count", Lower, SMALL),
    timing("net.ctx_send_ns", "ns", Lower, SMALL),
    timing("net.ctx_broadcast_ns", "ns", Lower, SMALL),
    timing("net.ctx_set_timer_ns", "ns", Lower, SMALL),
    timing("net.ctx_count_ns", "ns", Lower, SMALL),
    timing("net.ctx_choice_ns", "ns", Lower, SMALL),
    exact("net.run_allocs_per_event", "1/event", Lower, ALL_WALL),
    timing(
        "net.engine_new_ns_per_node",
        "ns",
        Lower,
        "setup_s on every workload",
    ),
    timing(
        "net.bytes_per_node",
        "B",
        Lower,
        "peak_rss_mb on city_20k, city_20k_nt",
    ),
    // ── net: tile layer ──
    exact("net.par_hits", "count", Higher, "wall_s on city_20k_nt"),
    exact(
        "net.par_hit_ratio",
        "ratio",
        Higher,
        "wall_s on city_20k_nt",
    ),
    timing("net.par_cost_x", "x", Lower, "wall_s on city_20k_nt"),
    // ── net: engine-only drivers ──
    timing("net.beacon_n500_ns_per_event", "ns", Lower, ALL_WALL),
    timing(
        "net.beacon_n500_brute_ns_per_event",
        "ns",
        Lower,
        "none: the brute-force oracle",
    ),
    timing("net.grid_speedup_x", "x", Higher, CITY),
    timing("net.beacon_dense_n250_ns_per_event", "ns", Lower, SMALL),
    timing("net.beacon_n20k_ns_per_event", "ns", Lower, CITY),
    timing("net.reception_graded_ns", "ns", Lower, HARSH),
    timing("net.reception_shadow_ns", "ns", Lower, HARSH),
    // ── maodv ──
    timing("maodv.handler_self_s", "s", Lower, ALL_WALL),
    timing("maodv.handler_share", "ratio", Lower, ALL_WALL),
    timing("maodv.ns_per_event", "ns", Lower, SMALL),
    exact("maodv.delivery_pct", "%", Higher, BEHAVIOUR),
    timing("maodv.rx_hello_ns", "ns", Lower, ALL_WALL),
    exact("maodv.rx_hello_calls", "count", Lower, BEHAVIOUR),
    timing("maodv.rx_rreq_ns", "ns", Lower, ALL_WALL),
    exact("maodv.rx_rreq_calls", "count", Lower, BEHAVIOUR),
    timing("maodv.rx_rrep_ns", "ns", Lower, ALL_WALL),
    exact("maodv.rx_rrep_calls", "count", Lower, BEHAVIOUR),
    timing("maodv.rx_mact_ns", "ns", Lower, ALL_WALL),
    exact("maodv.rx_mact_calls", "count", Lower, BEHAVIOUR),
    timing("maodv.rx_grph_ns", "ns", Lower, ALL_WALL),
    exact("maodv.rx_grph_calls", "count", Lower, BEHAVIOUR),
    timing("maodv.rx_data_ns", "ns", Lower, SMALL),
    exact("maodv.rx_data_calls", "count", Lower, BEHAVIOUR),
    timing("maodv.timer_hello_ns", "ns", Lower, ALL_WALL),
    exact("maodv.timer_hello_calls", "count", Lower, BEHAVIOUR),
    timing("maodv.timer_tick_ns", "ns", Lower, ALL_WALL),
    exact("maodv.timer_tick_calls", "count", Lower, BEHAVIOUR),
    timing("maodv.timer_relay_ns", "ns", Lower, ALL_WALL),
    exact("maodv.timer_relay_calls", "count", Lower, BEHAVIOUR),
    timing("maodv.send_failure_ns", "ns", Lower, HARSH),
    exact("maodv.send_failure_calls", "count", Lower, BEHAVIOUR),
    // ── core ──
    timing("core.handler_self_s", "s", Lower, ALL_WALL),
    timing("core.handler_share", "ratio", Lower, ALL_WALL),
    timing("core.ns_per_event", "ns", Lower, ALL_WALL),
    timing("core.rx_request_ns", "ns", Lower, SMALL),
    exact("core.rx_request_calls", "count", Lower, BEHAVIOUR),
    timing("core.rx_reply_ns", "ns", Lower, SMALL),
    exact("core.rx_reply_calls", "count", Lower, BEHAVIOUR),
    timing("core.timer_gossip_ns", "ns", Lower, SMALL),
    exact("core.timer_gossip_calls", "count", Lower, BEHAVIOUR),
    timing("core.timer_traffic_ns", "ns", Lower, SMALL),
    exact("core.timer_traffic_calls", "count", Lower, BEHAVIOUR),
    exact("core.delivery_pct", "%", Higher, BEHAVIOUR),
    exact("core.via_gossip_share", "ratio", Higher, BEHAVIOUR),
    exact("core.goodput_pct", "%", Higher, BEHAVIOUR),
    exact("core.rounds", "count", Lower, BEHAVIOUR),
    // ── odmrp ──
    timing("odmrp.ns_per_event", "ns", Lower, HARSH),
    exact("odmrp.events", "count", Lower, HARSH),
    exact("odmrp.delivery_pct", "%", Higher, BEHAVIOUR),
    timing("odmrp.handler_share", "ratio", Lower, HARSH),
    // ── harness ──
    timing("harness.job_median_s", "s", Lower, SMALL),
    timing("harness.job_max_s", "s", Lower, "wall_s on paper_sweep"),
    timing(
        "harness.pool_efficiency",
        "ratio",
        Higher,
        "wall_s on paper_sweep",
    ),
    timing("harness.fold_ns_per_run", "ns", Lower, SMALL),
    // ── host: the workload's calibration yardstick, uncalibrated ──
    timing("host.yardstick_ns", "ns", Lower, HOST),
    timing("host.yardstick_max_ns", "ns", Lower, HOST),
    // ── trace ──
    timing(
        "trace.overhead_pct",
        "%",
        Lower,
        "none: the tracer's own cost",
    ),
    exact("trace.spans", "count", Lower, "none: the tracer's own size"),
    timing(
        "trace.other_share",
        "ratio",
        Lower,
        "none: handler time the classifier could not attribute",
    ),
];

/// The per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn units_fit_the_contract() {
        let ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        assert!(END_TO_END.iter().all(|m| ok(m.unit)));
        assert!(PER_LAYER.iter().all(|m| ok(m.unit)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn every_layer_is_a_crate_and_kind_metrics_exist() {
        for m in PER_LAYER {
            assert!(
                ["sim", "mobility", "net", "maodv", "core", "odmrp", "harness", "trace", "host"]
                    .contains(&m.layer()),
                "{} has an unknown layer",
                m.name
            );
        }
        // Every `<layer>.<kind>_ns` has its `_calls` twin and names a
        // handler span the tracer records.
        let mut kinds = 0;
        for m in PER_LAYER {
            let Some(base) = m.name.strip_suffix("_calls") else {
                continue;
            };
            if matches!(base, "net.ctx" | "net.ctx_count") {
                continue;
            }
            kinds += 1;
            assert!(per_layer(&format!("{base}_ns")).is_some(), "{base}_ns");
            let span = format!("handler.{base}");
            assert!(
                crate::trace::Kind::ALL
                    .iter()
                    .any(|k| k.span_name() == span),
                "{span} is not a span the tracer records"
            );
        }
        assert_eq!(kinds, 14);
    }
}
