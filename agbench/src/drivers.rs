//! Isolated single-layer drivers (marked † in the README): each times
//! one public entry point of one crate on synthetic input, so a layer's
//! cost can be read apart from the stack around it. Work per driver is
//! a fixed operation count; inputs derive from the run's seed.

use std::hint::black_box;

use ag_bench::{beacon_engine, dense_engine, Beacon};
use ag_harness::{MemberStats, ProtocolKind, ReceptionModel, RunResult, RunStats};
use ag_mobility::{Field, LegSample, Mobility, PauseRange, RandomWaypoint, SpeedRange, Vec2};
use ag_net::{Engine, NodeId};
use ag_sim::rng::{splitmix64, SeedSplitter, StreamKind};
use ag_sim::stats::CounterSet;
use ag_sim::{EventQueue, SimDuration, SimTime};

use crate::calib::{bracket, Yardstick};
use crate::clock::now;

/// Pending events the queue drivers hold (the `BENCH_*.json` legs' size).
const PREFILL: usize = 65_536;

/// A SplitMix64 stream: self-contained, so driver inputs do not depend
/// on the simulator's stream layout.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }
}

/// Nanoseconds per operation of `ops` operations taking `f`.
fn ns_per_op(ops: u64, f: impl FnOnce()) -> f64 {
    let t0 = now();
    f();
    t0.elapsed().as_secs_f64() * 1e9 / ops as f64
}

/// `sim.queue_hold_ns`: pop + schedule on the calendar queue holding
/// 65,536 events, delays U[50 µs, 5 ms) — the loop [`crate::calib`]
/// runs on the frozen reference heap as the host-speed yardstick.
pub fn queue_hold_ns(seed: u64, ops: u64) -> f64 {
    let mut q = EventQueue::new();
    let mut rng = Mix(seed);
    let mut delay = || SimDuration::from_nanos(50_000 + rng.next() % 4_950_000);
    let mut at = SimTime::ZERO;
    for _ in 0..PREFILL {
        q.schedule(at + delay(), 0u32);
    }
    ns_per_op(ops, || {
        for _ in 0..ops {
            let (t, ev) = q.pop().expect("hold pattern never empties");
            at = t;
            q.schedule(at + delay(), black_box(ev));
        }
    })
}

/// `sim.queue_ties_ns`: pops against 64-way same-instant bursts.
pub fn queue_ties_ns(seed: u64, ops: u64) -> f64 {
    let mut q = EventQueue::new();
    let mut rng = Mix(seed);
    let mut at = SimTime::ZERO;
    ns_per_op(ops, || {
        for _ in 0..ops {
            if q.len() < PREFILL {
                let t = at + SimDuration::from_nanos(100_000 + rng.next() % 400_000);
                for _ in 0..64 {
                    q.schedule(t, 0u32);
                }
            }
            let (t, ev) = q.pop().expect("burst refill keeps the queue non-empty");
            at = t;
            black_box(ev);
        }
    })
}

/// The 40 counter names the MAODV and gossip handlers bump.
const COUNTER_NAMES: [&str; 40] = [
    "ag.recovered",
    "ag.reply_duplicate",
    "ag.reply_empty",
    "ag.reply_packets_sent",
    "ag.request_anon_sent",
    "ag.request_cached_sent",
    "ag.request_dead_end",
    "ag.round_skipped",
    "maodv.became_leader",
    "maodv.data_duplicate",
    "maodv.data_forwarded",
    "maodv.data_non_tree_ignored",
    "maodv.data_originated",
    "maodv.data_sent_detached",
    "maodv.discovery_buffer_drop",
    "maodv.discovery_failed",
    "maodv.discovery_failed_pkts",
    "maodv.grph_originated",
    "maodv.hello_link_break",
    "maodv.join_rrep_sent",
    "maodv.join_rreq_retry",
    "maodv.leader_merge_defer",
    "maodv.mact_join_received",
    "maodv.mact_sent",
    "maodv.member_rejoin",
    "maodv.nm_update_sent",
    "maodv.orphan_repair",
    "maodv.prune_received",
    "maodv.prune_sent",
    "maodv.routed_dropped",
    "maodv.routed_no_route",
    "maodv.routed_ttl_expired",
    "maodv.rrep_loop_dropped",
    "maodv.rrep_no_reverse_route",
    "maodv.send_failure",
    "maodv.tree_grph_adopted",
    "maodv.tree_link_break",
    "maodv.unicast_rrep_intermediate",
    "maodv.unicast_rrep_sent",
    "maodv.unicast_rreq",
];

/// `sim.counter_add_ns`: `CounterSet::add` on a 40-name set — what one
/// `ProtoCtx::count` costs below the context.
pub fn counter_add_ns(seed: u64, ops: u64) -> f64 {
    let mut set = CounterSet::new();
    for name in COUNTER_NAMES {
        set.add(name, 0);
    }
    let mut rng = Mix(seed);
    let ns = ns_per_op(ops, || {
        for _ in 0..ops {
            set.add(COUNTER_NAMES[(rng.next() % 40) as usize], 1);
        }
    });
    black_box(set.get("ag.recovered"));
    ns
}

/// `mobility.position_at_ns`: `LegSample::position_at` over 65,536
/// moving legs, visited in a scattered order.
pub fn position_at_ns(seed: u64, ops: u64) -> f64 {
    let mut rng = Mix(seed);
    let mut coord = || (rng.next() % 1_000_000) as f64 / 1_000.0;
    let legs: Vec<LegSample> = (0..PREFILL)
        .map(|_| {
            LegSample::moving(
                Vec2::new(coord(), coord()),
                Vec2::new(coord(), coord()),
                SimTime::ZERO,
                SimTime::from_secs(100),
            )
        })
        .collect();
    let mut acc = 0.0;
    let ns = ns_per_op(ops, || {
        for i in 0..ops {
            let leg = &legs[(i.wrapping_mul(40_503) % PREFILL as u64) as usize];
            let p = leg.position_at(SimTime::from_nanos(i % 100_000_000_000));
            acc += p.x + p.y;
        }
    });
    black_box(acc);
    ns
}

/// `mobility.transition_ns`: `RandomWaypoint::transition`, each call at
/// the model's own next transition time.
pub fn transition_ns(seed: u64, ops: u64) -> f64 {
    let mut rng = SeedSplitter::new(seed).stream(StreamKind::Mobility, 0);
    let mut model = RandomWaypoint::new(
        Field::paper(),
        SpeedRange::new(0.0, 2.0),
        PauseRange::paper(),
        &mut rng,
    );
    ns_per_op(ops, || {
        for _ in 0..ops {
            let at = model.next_transition();
            model.transition(at, &mut rng);
        }
        black_box(model.current_leg());
    })
}

/// `net.reception_*_ns`: `ReceptionModel::receives` over scattered
/// (transmission, receiver) pairs.
pub fn reception_ns(model: ReceptionModel, seed: u64, ops: u64) -> f64 {
    let range_m = 75.0;
    let mut rng = Mix(seed);
    let mut received = 0u64;
    let ns = ns_per_op(ops, || {
        for tx_id in 0..ops {
            let r = rng.next();
            let dist = (r % 75_000) as f64 / 1_000.0;
            received += u64::from(model.receives(
                seed,
                tx_id,
                (r >> 32) as u32 % 40,
                (r >> 40) as u32 % 40,
                dist * dist,
                range_m,
            ));
        }
    });
    black_box(received);
    ns
}

/// The harsh workload's distance-graded channel.
pub const GRADED: ReceptionModel = ReceptionModel::DistanceGraded { edge_per: 0.5 };
/// The harsh workload's shadowing channel.
pub const SHADOW: ReceptionModel = ReceptionModel::Shadowing {
    sigma_db: 8.0,
    path_loss_exp: 3.0,
};

/// `harness.fold_ns_per_run`: `RunStats::absorb` + `received_summary`
/// on a paper-sized result (13 members, 40 counters).
pub fn fold_ns_per_run(seed: u64, ops: u64) -> f64 {
    let mut rng = Mix(seed);
    let result = RunResult {
        protocol: ProtocolKind::Gossip,
        seed,
        source: NodeId::new(0),
        sent: 2201,
        members: (0..13)
            .map(|i| {
                let received = 1_500 + rng.next() % 700;
                MemberStats {
                    node: NodeId::new(i),
                    received,
                    via_tree: received - 100,
                    via_gossip: 100,
                    goodput_percent: Some(80.0),
                    gossip_rounds: 600,
                }
            })
            .collect(),
        counters: COUNTER_NAMES
            .iter()
            .map(|n| (n.to_string(), rng.next() % 10_000))
            .collect(),
    };
    let mut stats = RunStats::new();
    let mut acc = 0.0;
    let ns = ns_per_op(ops, || {
        for _ in 0..ops {
            stats.absorb(black_box(&result));
            acc += result.received_summary().mean();
        }
    });
    black_box((acc, stats.runs));
    ns
}

/// Host ns per kernel event of an engine-only beacon network run to
/// `sim_secs` (construction untimed): the engine without a protocol
/// stack on top.
pub fn beacon_ns_per_event(mut engine: Engine<Beacon>, sim_secs: u64) -> f64 {
    let t0 = now();
    engine.run_until(SimTime::from_secs(sim_secs));
    let secs = t0.elapsed().as_secs_f64();
    secs * 1e9 / engine.events_processed().max(1) as f64
}

/// Every isolated driver's reading, by metric name, each calibrated
/// against the yardstick slices that bracket it.
pub fn run_all(seed: u64, quick: bool) -> Vec<(&'static str, f64)> {
    let scale = if quick { 10 } else { 1 };
    let ops = 2_000_000 / scale;
    let secs = 10 / scale;
    let heap_readings = std::cell::RefCell::new(Vec::new());
    let cal_against = |yardstick: Yardstick, f: &dyn Fn() -> f64| {
        let (ns, seg) = bracket(yardstick, f);
        if yardstick == Yardstick::Heap {
            heap_readings.borrow_mut().push(seg.ref_ns);
        }
        ns * seg.factor
    };
    let cal = |f: &dyn Fn() -> f64| cal_against(Yardstick::Heap, f);
    let grid = cal(&|| beacon_ns_per_event(beacon_engine(500, seed, true), secs));
    let brute = cal(&|| beacon_ns_per_event(beacon_engine(500, seed, false), secs));
    let mut readings = vec![
        ("sim.queue_hold_ns", cal(&|| queue_hold_ns(seed, ops))),
        ("sim.queue_ties_ns", cal(&|| queue_ties_ns(seed, ops))),
        ("sim.counter_add_ns", cal(&|| counter_add_ns(seed, ops))),
        (
            "mobility.position_at_ns",
            cal(&|| position_at_ns(seed, ops)),
        ),
        ("mobility.transition_ns", cal(&|| transition_ns(seed, ops))),
        (
            "net.reception_graded_ns",
            cal(&|| reception_ns(GRADED, seed, ops)),
        ),
        (
            "net.reception_shadow_ns",
            cal(&|| reception_ns(SHADOW, seed, ops)),
        ),
        (
            "harness.fold_ns_per_run",
            cal(&|| fold_ns_per_run(seed, ops / 20)),
        ),
        ("net.beacon_n500_ns_per_event", grid),
        ("net.beacon_n500_brute_ns_per_event", brute),
        ("net.grid_speedup_x", crate::stats::ratio(brute, grid)),
        (
            "net.beacon_dense_n250_ns_per_event",
            cal(&|| beacon_ns_per_event(dense_engine(250, seed), secs)),
        ),
        (
            // The one driver whose working set leaves the caches.
            // `Beacon` staggers first beacons 3 ms per node id, so by
            // 10 s a sixth of the 20,000 nodes transmit — into a field
            // where all 20,000 listen. The first run only faults the
            // engine's ~100 MB in (it read 2–3× slower in a process that
            // had not yet held that much, i.e. on the 40-node workloads).
            "net.beacon_n20k_ns_per_event",
            cal_against(Yardstick::Chase, &|| {
                let run = || {
                    beacon_ns_per_event(beacon_engine(20_000 / scale as usize, seed, true), secs)
                };
                run();
                run()
            }),
        ),
    ];
    // Uncalibrated by nature: the heap yardstick itself, which is the
    // hold pattern on the frozen reference queue.
    let heap_ns = crate::stats::median(&heap_readings.borrow());
    readings.push(("sim.queue_ref_hold_ns", heap_ns));
    readings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_driver_returns_a_positive_reading() {
        assert!(queue_hold_ns(1, 2_000) > 0.0);
        assert!(queue_ties_ns(1, 2_000) > 0.0);
        assert!(counter_add_ns(1, 2_000) > 0.0);
        assert!(position_at_ns(1, 2_000) > 0.0);
        assert!(transition_ns(1, 2_000) > 0.0);
        assert!(reception_ns(GRADED, 1, 2_000) > 0.0);
        assert!(reception_ns(SHADOW, 1, 2_000) > 0.0);
        assert!(fold_ns_per_run(1, 200) > 0.0);
        assert!(beacon_ns_per_event(beacon_engine(20, 1, true), 1) > 0.0);
    }

    #[test]
    fn counter_names_are_distinct() {
        let mut names = COUNTER_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 40);
    }
}
