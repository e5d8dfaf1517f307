//! Engine-only beacon workloads, and the counting allocator that proves
//! the hot path allocation-free.
//!
//! [`beacon_engine`] and [`dense_engine`] build an [`Engine`] running
//! nothing but [`Beacon`], so what they cost is the engine itself:
//! receiver scans, collision checks, MAC timers, mobility transitions.
//! `agbench`'s engine drivers (`net.beacon_*_ns_per_event`,
//! `net.grid_speedup_x`) and part 1 of `examples/city_scale.rs` time
//! them; `tests/zero_alloc.rs` installs [`alloc::CountingAllocator`]
//! and asserts that their steady state — and the calendar queue's —
//! performs zero heap allocations.

// `deny`, not `forbid`: the `alloc` module needs `unsafe` for its
// `GlobalAlloc` impl and opts back in explicitly; everything else in the
// crate stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

use ag_mobility::{Field, Mobility, PauseRange, RandomWaypoint, SpeedRange};
use ag_net::{Engine, Message, NodeId, NodeSetup, PhyParams, ProtoCtx, Protocol, RxKind, TimerKey};
use ag_sim::rng::{SeedSplitter, StreamKind};
use ag_sim::SimDuration;

pub mod alloc;

/// A fixed-size beacon payload.
#[derive(Clone, Debug)]
pub struct BeaconMsg;

impl Message for BeaconMsg {
    fn wire_size(&self) -> usize {
        64
    }
}

/// A minimal broadcast-beacon protocol used to measure *engine*
/// throughput (receiver scans, collision checks, mobility transitions)
/// without any routing-layer cost on top.
#[derive(Debug)]
pub struct Beacon {
    interval: SimDuration,
    /// Broadcasts heard, across all senders.
    pub heard: u64,
}

impl Beacon {
    /// A beacon source transmitting every `interval`.
    pub fn new(interval: SimDuration) -> Self {
        Beacon { interval, heard: 0 }
    }
}

impl Protocol for Beacon {
    type Msg = BeaconMsg;

    fn start<C: ProtoCtx<BeaconMsg>>(&mut self, api: &mut C) {
        // Stagger first beacons so the whole network doesn't key up at
        // one instant.
        let offset = SimDuration::from_millis(3 * (api.id().raw() as u64 + 1));
        api.set_timer(offset, 0);
    }

    fn on_packet<C: ProtoCtx<BeaconMsg>>(
        &mut self,
        _api: &mut C,
        _f: NodeId,
        _m: BeaconMsg,
        _r: RxKind,
    ) {
        self.heard += 1;
    }

    fn on_timer<C: ProtoCtx<BeaconMsg>>(&mut self, api: &mut C, _key: TimerKey) {
        api.broadcast(BeaconMsg);
        api.set_timer(self.interval, 0);
    }

    fn on_send_failure<C: ProtoCtx<BeaconMsg>>(&mut self, _api: &mut C, _t: NodeId, _m: BeaconMsg) {
    }
}

/// A mobile beaconing network at constant node density: `n` random-
/// waypoint nodes on a field scaled so mean degree stays fixed as `n`
/// grows (≈2 neighbours — the sparse, coverage-limited regime large
/// ad-hoc networks live in, and the one where an `O(N)` receiver scan
/// per transmission is almost pure waste), 100 m range, 4 Hz beacons.
/// `spatial` selects the grid or the brute-force engine path — the knob
/// `agbench`'s `net.grid_speedup_x` compares. At higher densities the
/// ratio shrinks toward the Amdahl floor of per-event costs shared by
/// both paths.
pub fn beacon_engine(n: usize, seed: u64, spatial: bool) -> Engine<Beacon> {
    beacon_network(n, seed, 2.0, SimDuration::from_millis(250), spatial)
}

/// A contention-heavy beaconing network: `n` random-waypoint nodes
/// packed to a mean degree of ≈12 (versus [`beacon_engine`]'s ≈2),
/// beaconing at 10 Hz. Most transmissions now reach many receivers and
/// collide with each other, so the run is dominated by short-horizon
/// MAC timers — backoff re-arms, deferred attempts, busy-channel
/// retries. That is exactly the event mix the calendar queue's dense
/// day buckets are tuned for, which makes this the scheduler stress
/// workload behind `agbench`'s `net.beacon_dense_n250_ns_per_event`.
pub fn dense_engine(n: usize, seed: u64) -> Engine<Beacon> {
    beacon_network(n, seed, 12.0, SimDuration::from_millis(100), true)
}

/// `n` random-waypoint beacon nodes at 100 m range on a square field
/// sized for `degree` mean neighbours, each beaconing every `interval`.
fn beacon_network(
    n: usize,
    seed: u64,
    degree: f64,
    interval: SimDuration,
    spatial: bool,
) -> Engine<Beacon> {
    let range = 100.0;
    // Mean degree ≈ n·π·range²/side².
    let side = (n as f64 * std::f64::consts::PI * range * range / degree).sqrt();
    let field = Field::new(side, side);
    let splitter = SeedSplitter::new(seed);
    let nodes = (0..n)
        .map(|i| {
            let mut rng = splitter.stream(StreamKind::Placement, i as u64);
            NodeSetup {
                mobility: Box::new(RandomWaypoint::new(
                    field,
                    SpeedRange::new(1.0, 10.0),
                    PauseRange::uniform_secs(0.0, 5.0),
                    &mut rng,
                )) as Box<dyn Mobility>,
                protocol: Beacon::new(interval),
            }
        })
        .collect();
    Engine::new(
        PhyParams::paper_default(range).with_spatial_index(spatial),
        seed,
        nodes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_sim::SimTime;

    #[test]
    fn beacon_engine_paths_agree() {
        let mut grid = beacon_engine(30, 5, true);
        let mut brute = beacon_engine(30, 5, false);
        grid.run_until(SimTime::from_secs(10));
        brute.run_until(SimTime::from_secs(10));
        let heard = |e: &Engine<Beacon>| e.protocols().iter().map(|p| p.heard).sum::<u64>();
        assert!(heard(&grid) > 0, "beacons should be heard");
        assert_eq!(heard(&grid), heard(&brute));
        let cg: Vec<_> = grid.counters().iter().collect();
        let cb: Vec<_> = brute.counters().iter().collect();
        assert_eq!(cg, cb);
    }

    #[test]
    fn dense_engine_is_contention_heavy() {
        let mut dense = dense_engine(30, 5);
        dense.run_until(SimTime::from_secs(5));
        let heard: u64 = dense.protocols().iter().map(|p| p.heard).sum();
        assert!(heard > 0, "beacons should be heard");
        // Denser field + faster beacons → more kernel events than the
        // sparse scaling workload over the same simulated span.
        let mut sparse = beacon_engine(30, 5, true);
        sparse.run_until(SimTime::from_secs(5));
        assert!(dense.events_processed() > sparse.events_processed());
    }
}
