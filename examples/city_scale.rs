//! City scale: the full stack from 500 nodes to a metropolis.
//!
//! The paper evaluates 40–100 nodes on 200 m × 200 m. This example runs
//! the same full stack (MAODV multicast + Anonymous Gossip recovery) at
//! orders of magnitude more nodes, which is only tractable because
//! the engine's receiver and collision lookups go through the uniform-
//! grid spatial index (`crates/net/src/grid.rs`).
//!
//! Two parts:
//!
//! 1. An engine-only beacon workload at N = 500, timed through the grid
//!    index and through the brute-force scans, to show the raw engine
//!    speedup (both produce identical simulations). This part stays at
//!    500 nodes whatever `AG_NODES` says — brute force is O(n²) and the
//!    point is the index, not the scale.
//! 2. The full gossip stack on [`Scenario::city_scale`], grid-backed,
//!    at `AG_NODES` nodes (default 500) for `AG_SIM_SECS` simulated
//!    seconds (default 60). The field grows with the population so
//!    local density stays at 500 nodes/km². Member outcomes fold into
//!    streaming [`RunStats`] accumulators, and the run reports peak RSS
//!    and kernel events/second at exit.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example city_scale
//! AG_NODES=100000 AG_SIM_SECS=20 cargo run --release --example city_scale
//! ```

// Wall-clock use here is driver-side progress reporting only; the
// simulation itself tells time exclusively via SimTime (the ag-lint
// waivers at each call site say the same to the first lint layer).
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use ag_bench::beacon_engine;
use ag_harness::{report, run_counting, ProtocolKind, RunStats, Scenario};
use ag_sim::SimTime;

const BEACON_NODES: usize = 500;

fn main() {
    // Read the knobs and check the scenario first: a garbage value or a
    // scenario that fails `Scenario::validate` ends the process with
    // status 2 before any work is done.
    let nodes = report::env_nodes(500);
    let sim_secs = report::env_sim_secs_or(60);
    let sc = Scenario::city_scale(nodes).with_duration_secs(sim_secs);
    report::or_exit(sc.validate());

    // ── Part 1: raw engine throughput, grid vs brute force. ──
    let beacon_secs = 5;
    println!("engine throughput: {BEACON_NODES} beaconing nodes, {beacon_secs} s simulated");
    let mut wall = [0.0f64; 2];
    for (i, (label, spatial)) in [("grid", true), ("brute", false)].iter().enumerate() {
        // ag-lint: allow(wall-clock) -- driver-side progress timing, outside the simulation
        let t0 = Instant::now();
        let mut engine = beacon_engine(BEACON_NODES, 1, *spatial);
        engine.run_until(SimTime::from_secs(beacon_secs));
        wall[i] = t0.elapsed().as_secs_f64();
        let heard: u64 = engine.protocols().iter().map(|p| p.heard).sum();
        println!(
            "  {label:>5}: {:>7.2} s wall, {heard} beacons heard, {} collisions",
            wall[i],
            engine.counters().get("mac.rx_collision"),
        );
    }
    println!("  speedup: {:.1}x\n", wall[1] / wall[0]);

    // ── Part 2: the full gossip stack at city (or metropolis) scale. ──
    println!(
        "full stack: {} nodes, {} members, {:.0} m x {:.0} m, range {} m, {} s simulated",
        sc.nodes,
        sc.member_count,
        sc.field.width(),
        sc.field.height(),
        sc.range_m,
        sim_secs
    );
    // ag-lint: allow(wall-clock) -- driver-side progress timing, outside the simulation
    let t0 = Instant::now();
    let (result, events) = run_counting(&sc, 7, ProtocolKind::Gossip);
    let wall = t0.elapsed().as_secs_f64();

    // Fold the per-member records into the constant-size streaming
    // accumulators; from here on memory no longer scales with N.
    let mut stats = RunStats::new();
    stats.absorb(&result);
    drop(result);

    // Deterministic simulation results and wall-clock figures stay on
    // separate lines on purpose: two runs diff clean once the lines
    // that mention wall time are filtered out.
    println!("  {wall:.2} s wall");
    println!(
        "  source sent {} packets, mean delivery {:.1} %",
        stats.sent,
        100.0 * stats.delivery_ratio()
    );
    let rx = stats.receivers.get("received");
    println!(
        "  packets per receiver: mean {:.1}, min {:.0}, max {:.0}",
        rx.mean(),
        rx.min(),
        rx.max()
    );
    for key in [
        "mac.broadcast_tx",
        "mac.unicast_tx",
        "mac.rx_delivered",
        "mac.rx_collision",
        "mob.transition",
    ] {
        println!("  {key}: {}", stats.counter(key));
    }
    println!("  events: {events} kernel events");
    println!("  {:.0} events/s wall", events as f64 / wall.max(1e-9));
    match peak_rss_kb() {
        Some(kb) => println!("  peak rss: {kb} KiB"),
        None => println!("  peak rss: unavailable"),
    }
}

/// Peak resident-set size of this process in KiB, from `VmHWM` in
/// `/proc/self/status`; `None` where procfs or the field is missing or
/// unparsable, so "unmeasured" can never read as "0 KiB, within budget".
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}
