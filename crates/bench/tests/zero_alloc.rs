//! The zero-allocation proof: a warmed-up hot path performs no heap
//! allocation at all.
//!
//! This binary installs the counting global allocator and asserts an
//! exact `allocs == 0` over four steady-state windows: the calendar
//! queue's hold pattern inside its window, the same pattern with most
//! delays past the window's edge (the overflow heap), the sparse
//! 500-node beacon engine and the contention-heavy 250-node dense
//! engine. That turns the PR 7 allocation diet (and the calendar
//! queue's "arena and heap stop at the high water") from one-time
//! measurements into a checked invariant — any future
//! per-event `Vec`, clone of a heap-backed payload, or dropped scratch
//! buffer fails tier-1 deterministically, with the count in the message.
//! `agbench`'s `net.run_allocs_per_event` reads the same property off
//! whole full-stack runs; `ag-lint`'s `hot-path-alloc` rule is the
//! static complement.

use ag_bench::alloc::CountingAllocator;
use ag_bench::{beacon_engine, dense_engine, Beacon};
use ag_net::Engine;
use ag_sim::rng::splitmix64;
use ag_sim::{EventQueue, SimDuration, SimTime};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Asserts that `ops` pop-then-reschedule steps allocate nothing on a
/// calendar queue held at 65,536 pending events with delays
/// U[50 µs, `max_delay`). Prefill (ring growth, the arena and overflow
/// heap's reservations) is outside the window.
fn assert_queue_hold_steady(max_delay: SimDuration, ops: u64) {
    let mut q = EventQueue::<u32>::new();
    let mut state = 0xc0ffee_u64;
    let mut delay = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        SimDuration::from_nanos(50_000 + splitmix64(state) % (max_delay.as_nanos() - 50_000))
    };
    let mut now = SimTime::ZERO;
    for _ in 0..65_536 {
        q.schedule(now + delay(), 0);
    }
    let a0 = ALLOC.count();
    for _ in 0..ops {
        let (t, ev) = q.pop().expect("hold pattern never empties");
        now = t;
        q.schedule(now + delay(), ev);
    }
    let allocs = ALLOC.count() - a0;
    assert_eq!(
        allocs, 0,
        "calendar-queue hold pattern up to {max_delay:?} performed {allocs} heap allocations over {ops} pop+schedule steps"
    );
}

/// Asserts that `engine` allocates nothing over a continuation window
/// of at least 10,000 events, after `warm_secs` simulated seconds have
/// brought every scratch buffer, MAC queue, calendar-queue tier and
/// spatial-index cell to its high-water capacity.
fn assert_engine_steady(name: &str, mut engine: Engine<Beacon>, warm_secs: u64) {
    engine.run_until(SimTime::from_secs(warm_secs));
    let e0 = engine.events_processed();
    let a0 = ALLOC.count();
    let mut sim_secs = warm_secs;
    while engine.events_processed() - e0 < 10_000 {
        sim_secs += 1;
        engine.run_until(SimTime::from_secs(sim_secs));
    }
    let allocs = ALLOC.count() - a0;
    let events = engine.events_processed() - e0;
    assert_eq!(
        allocs, 0,
        "steady-state {name} performed {allocs} heap allocations over {events} events"
    );
}

// One `#[test]` on purpose: the counter is process-wide and libtest
// runs `#[test]`s on parallel threads, so a second test's set-up
// allocations would land inside this one's windows.
#[test]
fn steady_state_allocates_nothing() {
    // The MAC-backoff horizon the queue is tuned for, and the loop
    // behind `agbench`'s `sim.queue_hold_ns`: inside the window.
    assert_queue_hold_steady(SimDuration::from_millis(5), 200_000);
    // MAODV's hello horizon: most reschedules cross the window's edge
    // into the overflow heap.
    assert_queue_hold_steady(SimDuration::from_millis(600), 200_000);
    assert_engine_steady("beacon_engine(500)", beacon_engine(500, 1, true), 60);
    assert_engine_steady("dense_engine(250)", dense_engine(250, 1), 30);
}
