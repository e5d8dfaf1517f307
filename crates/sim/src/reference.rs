//! The reference event queue: the seed `BinaryHeap` implementation.
//!
//! [`BinaryHeapQueue`] is the queue the kernel shipped with before the
//! calendar-queue scheduler ([`crate::EventQueue`]) replaced it on the
//! hot path. It is kept — unchanged — for two jobs:
//!
//! * **Differential oracle.** Both queues drain in exactly the same
//!   total order — ascending `(time, seq)` — so a property test can
//!   feed an arbitrary interleaving of schedules and pops to both and
//!   assert identical output (see the proptests in `event.rs`). Any
//!   divergence is a scheduler bug by construction.
//! * **Perf baseline.** `agbench` replays the same timer workload
//!   through both implementations (`sim.queue_hold_ns` against
//!   `sim.queue_ref_hold_ns`), so the calendar queue's advantage is a
//!   measured number, not a claim — and, being frozen, this queue is
//!   also the host-speed yardstick `agbench` calibrates timings with.
//!
//! Do not use this queue in new engine code; it exists to keep the fast
//! path honest.

use std::cmp::Ordering;
// ag-lint: allow(det-hash) -- frozen seed-vintage reference oracle; the calendar queue is diffed against it
use std::collections::BinaryHeap;

use crate::{EventEntry, SimTime};

/// Wrapper giving [`EventEntry`] the reversed (earliest-first) ordering
/// the max-heap needs.
#[derive(Debug, Clone)]
struct HeapEntry<E>(EventEntry<E>);

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.time == other.0.time && self.0.seq == other.0.seq
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .0
            .time
            .cmp(&self.0.time)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// The seed-vintage `BinaryHeap` min-priority queue of timestamped
/// events, with the same API and the same deterministic FIFO
/// tie-breaking as [`crate::EventQueue`].
///
/// # Example
///
/// ```
/// use ag_sim::reference::BinaryHeapQueue;
/// use ag_sim::SimTime;
///
/// let mut q = BinaryHeapQueue::new();
/// q.schedule(SimTime::from_secs(2), "b");
/// q.schedule(SimTime::from_secs(1), "a");
/// q.schedule(SimTime::from_secs(2), "c"); // same instant as "b": FIFO
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct BinaryHeapQueue<E> {
    // ag-lint: allow(det-hash) -- the reference queue IS the seed BinaryHeap, preserved on purpose
    heap: BinaryHeap<HeapEntry<E>>,
    next_seq: u64,
    popped: u64,
}

impl<E> BinaryHeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            // ag-lint: allow(det-hash) -- constructing the frozen reference oracle
            heap: BinaryHeap::new(),
            next_seq: 0,
            popped: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events scheduled for the same instant fire in the order they were
    /// scheduled.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry(EventEntry { time, seq, event }));
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.popped += 1;
        Some((entry.0.time, entry.0.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.0.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    /// Total number of events ever popped from this queue.
    pub fn popped_count(&self) -> u64 {
        self.popped
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        BinaryHeapQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_orders_by_time_then_fifo() {
        let mut q = BinaryHeapQueue::new();
        q.schedule(SimTime::from_secs(3), 3u32);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(1), 11);
        q.schedule(SimTime::from_secs(2), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.len(), 4);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [1, 11, 2, 3]);
        assert_eq!(q.scheduled_count(), 4);
        assert_eq!(q.popped_count(), 4);
    }

    #[test]
    fn reference_clear_and_default() {
        let mut q: BinaryHeapQueue<u8> = BinaryHeapQueue::default();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
