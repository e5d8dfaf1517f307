//! The per-node heap budget: a 2,000-node city run's peak live heap,
//! divided by its node count, stays under [`BUDGET_BYTES_PER_NODE`].
//!
//! The count is the bytes the program asked the allocator for and had
//! not freed — reserved capacity included, allocator overhead and RSS
//! not — so it is exact and the same on every host for one build. It
//! is the per-node state the scale ladder to 10⁶ nodes pays for: route
//! table buckets, duplicate-suppression windows, MAC and relay queues,
//! pending events. One `#[test]` on purpose: the counter is
//! process-wide, and a second test's allocations would land in it.

use ag_bench::alloc::CountingAllocator;
use ag_harness::{run, ProtocolKind, Scenario};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Nodes in the measured run (the size `agbench --quick` runs the city
/// workloads at).
const NODES: usize = 2_000;

/// Peak live heap per node, in bytes. The run reads 6,874 B/node with
/// 32-byte route buckets, 16-byte kernel events and MAC and relay
/// queues that reserve one slot on their first frame, and 7,801 with
/// 40-byte buckets, 24-byte events and four-slot first reservations;
/// the budget sits between the two. Undoing the route record's packing
/// alone reads 7,497 and fails here; undoing the event's size or the
/// one-slot reservations alone reads 7,136 or 6,916 and passes, so
/// those two have pins of their own (`kernel_event_is_16_bytes`,
/// `mac_queue_reserves_one_slot_first`,
/// `flood_relay_reserves_one_slot_first`).
const BUDGET_BYTES_PER_NODE: usize = 7_300;

#[test]
fn city_run_stays_inside_its_per_node_heap_budget() {
    let sc = Scenario::city_scale(NODES).with_duration_secs(2);
    let base = ALLOC.live();
    ALLOC.reset_peak();
    let result = run(&sc, 7, ProtocolKind::Gossip);
    let per_node = (ALLOC.peak() - base) / NODES;
    assert!(!result.members.is_empty());
    assert!(
        per_node <= BUDGET_BYTES_PER_NODE,
        "peak live heap {per_node} B/node over a {BUDGET_BYTES_PER_NODE} B/node budget"
    );
    eprintln!("peak live heap: {per_node} B/node (budget {BUDGET_BYTES_PER_NODE})");
}
