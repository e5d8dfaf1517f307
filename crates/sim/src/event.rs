//! The event scheduler at the heart of the kernel: a self-resizing
//! calendar queue.
//!
//! Events are ordered by timestamp; ties are broken by insertion order
//! (FIFO). Deterministic tie-breaking matters: protocol stacks frequently
//! schedule several events for the *same* instant (e.g. every receiver of a
//! broadcast), and a run must be a pure function of the scenario and seed.
//!
//! # Why a calendar queue
//!
//! The workload is dominated by short-horizon MAC and protocol timers:
//! DIFS + backoff attempts tens of microseconds out, frame completions a
//! few milliseconds out, beacons and gossip rounds a few hundred
//! milliseconds out. A comparison-based heap pays `O(log n)` pointer-
//! chasing per operation for a set whose *time structure* is almost flat.
//! A calendar queue (Brown 1988) instead hashes each event by its
//! timestamp into a ring of day buckets — `bucket = (t >> shift) & mask`
//! with power-of-two widths, so the hash is a shift — and drains the ring
//! in day order, giving `O(1)` amortized schedule and pop when the queue
//! is tuned so each day holds about one event.
//!
//! Each bucket is kept **sorted** ascending by `(time, seq)` in a ring
//! buffer, so the earliest event of a bucket sits at its front: popping
//! is an `O(1)` `pop_front`, and finding the next minimum is a short
//! cursor walk that compares one front entry per visited day. Inserts
//! binary-search for their slot; in steady state a new timer lands at
//! the *back* of its bucket (later than what's pending there), which is
//! a plain push.
//!
//! Tuning is automatic and **deterministic**: when the population doubles
//! past two events per bucket (or collapses below a quarter), the queue
//! resizes the ring and re-derives the day width from the mean gap of a
//! *head sample* of the pending timestamps (the global mean would be
//! skewed arbitrarily wide by a few far-horizon timers) — a pure
//! function of queue content, never of wall clock, so replaying the same
//! schedule sequence always rebuilds the same calendar. Retired bucket
//! slabs are kept in a spare pool and reused across resizes;
//! steady-state operation allocates nothing (the `ag-bench`
//! `zero_alloc` test pins this down on a 65,536-event hold pattern).
//!
//! # Ordering guarantee
//!
//! [`EventQueue`] drains in exactly ascending `(time, seq)` order — the
//! same total order as the seed `BinaryHeap` implementation, which is
//! preserved as [`crate::reference::BinaryHeapQueue`] and run against
//! this queue both by differential property tests (below) and by
//! `agbench`'s queue drivers. Golden figure snapshots are byte-identical
//! under either queue.
//!
//! # Cancellation
//!
//! Deliberately absent. The engine cancels by *generation token*: each
//! cancellable event carries a generation stamp and the dispatcher drops
//! events whose stamp no longer matches the owner's counter (see
//! `Event::MacAttempt` / `Event::GridRefresh` in `ag-net`). That keeps
//! the queue free of tombstone bookkeeping on the hot path; a stale event
//! costs one pop and one integer compare.

use std::collections::VecDeque;

use crate::SimTime;

/// A single scheduled entry: an event of type `E` due at `time`.
#[derive(Debug, Clone)]
pub struct EventEntry<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Monotone insertion counter; the FIFO tie-breaker.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

/// Fewest day buckets the ring ever holds.
const MIN_BUCKETS: usize = 16;
/// Most day buckets the ring ever holds; beyond `2 ×` this many pending
/// events the per-bucket load grows instead (scans stay short because
/// resizing keeps the day width matched to the event spacing).
const MAX_BUCKETS: usize = 1 << 16;
/// Narrowest day: 2^6 = 64 ns. Also keeps `day + ring length` from
/// overflowing `u64` for any `SimTime` (day ≤ 2^58).
const MIN_SHIFT: u32 = 6;
/// Widest day: 2^42 ns ≈ 73 simulated minutes.
const MAX_SHIFT: u32 = 42;
/// Day width before the first resize: 2^20 ns ≈ 1 ms, the right order
/// for MAC-timer workloads.
const INITIAL_SHIFT: u32 = 20;
/// Retired bucket slabs kept for reuse across resizes.
const SPARE_CAP: usize = MAX_BUCKETS / 4;
/// Sorted head entries sampled to derive the day width on resize.
const HEAD_SAMPLE: usize = 64;
/// Pops between day-width drift checks. Resizes are driven by
/// *population* thresholds, so a queue whose population is steady but
/// whose event *rate* has drifted since the last resize (e.g. a startup
/// transient tuned wide days before MAC traffic ramped up) would keep a
/// stale day width forever. Every this-many pops the queue compares the
/// observed mean pop gap against the current day width and forces a
/// retune when they disagree by 4x or more.
const RETUNE_POPS: u64 = 1 << 15;

/// Location and key of the earliest pending entry. Buckets are sorted,
/// so the entry itself always sits at the *front* of `bucket`.
#[derive(Debug, Clone, Copy)]
struct MinPos {
    time: SimTime,
    seq: u64,
    bucket: usize,
}

/// A deterministic min-priority queue of timestamped events, implemented
/// as a self-resizing calendar queue (see the module docs for the design
/// and for why cancellation is a non-feature).
///
/// Pops drain in ascending `(time, insertion order)` — FIFO for ties.
///
/// # Example
///
/// ```
/// use ag_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "b");
/// q.schedule(SimTime::from_secs(1), "a");
/// q.schedule(SimTime::from_secs(2), "c"); // same instant as "b": FIFO
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, ["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The day ring; `buckets.len()` is a power of two. Each bucket is
    /// sorted ascending by `(time, seq)`, so its front is its earliest
    /// entry.
    buckets: Vec<VecDeque<EventEntry<E>>>,
    /// `buckets.len() - 1`, for the day→bucket hash.
    mask: u64,
    /// Day width is `2^shift` nanoseconds.
    shift: u32,
    /// The virtual day (`time >> shift`) the drain cursor is on; no
    /// pending event has an earlier day.
    cursor_day: u64,
    /// Pending events.
    len: usize,
    next_seq: u64,
    popped: u64,
    /// The earliest pending entry, kept current across every operation
    /// so [`EventQueue::peek_time`] is O(1).
    cached_min: Option<MinPos>,
    /// Retired bucket slabs, reused on resize so steady-state operation
    /// does not allocate.
    spare: Vec<VecDeque<EventEntry<E>>>,
    /// Reused staging area for the one sort a resize performs.
    scratch: Vec<EventEntry<E>>,
    /// `(popped, time)` at the last day-width drift check.
    retune_mark: (u64, SimTime),
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| VecDeque::new()).collect(),
            mask: (MIN_BUCKETS - 1) as u64,
            shift: INITIAL_SHIFT,
            cursor_day: 0,
            len: 0,
            next_seq: 0,
            popped: 0,
            cached_min: None,
            spare: Vec::new(),
            scratch: Vec::new(),
            retune_mark: (0, SimTime::ZERO),
        }
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// Events scheduled for the same instant fire in the order they were
    /// scheduled.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let day = time.as_nanos() >> self.shift;
        let bucket = (day & self.mask) as usize;
        let b = &mut self.buckets[bucket];
        // `seq` exceeds every pending seq, so ordering against existing
        // entries reduces to `time`: the slot is after every entry with
        // `e.time <= time` — which in steady state (a timer later than
        // everything pending here) is the back, a plain push.
        if b.back().is_none_or(|e| e.time <= time) {
            b.push_back(EventEntry { time, seq, event });
        } else {
            let pos = b.partition_point(|e| e.time <= time);
            b.insert(pos, EventEntry { time, seq, event });
        }
        self.len += 1;
        // A fresh entry can only become the minimum by strictly earlier
        // time: its seq is larger than everything pending, so ties keep
        // the incumbent (FIFO). A new minimum necessarily sorted to the
        // front of its bucket, keeping the MinPos invariant.
        let beats = match &self.cached_min {
            Some(m) => time < m.time,
            None => true,
        };
        if beats {
            self.cursor_day = day;
            self.cached_min = Some(MinPos { time, seq, bucket });
        }
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.resize(None);
        }
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let m = self.cached_min.take()?;
        let entry = self.buckets[m.bucket]
            .pop_front()
            .expect("min cache points at an empty bucket");
        debug_assert!(
            entry.time == m.time && entry.seq == m.seq,
            "stale min cache"
        );
        self.len -= 1;
        self.popped += 1;
        // Stay on the popped entry's day: its siblings drain next.
        self.cursor_day = m.time.as_nanos() >> self.shift;
        if self.len > 0 {
            // Day-width drift check (see `RETUNE_POPS`): compare the
            // mean gap actually drained against the current day width
            // and retune when they disagree by two octaves. Pure
            // function of the popped sequence, so replays retune
            // identically.
            let mut drift = None;
            if self.popped - self.retune_mark.0 >= RETUNE_POPS {
                let span = m
                    .time
                    .as_nanos()
                    .saturating_sub(self.retune_mark.1.as_nanos());
                let gap = (span / RETUNE_POPS).max(1);
                let ideal = gap.ilog2().clamp(MIN_SHIFT, MAX_SHIFT);
                self.retune_mark = (self.popped, m.time);
                if ideal.abs_diff(self.shift) >= 2 {
                    // Rebucket under the drained-rate day width
                    // directly: re-deriving from the pending head
                    // could land wide again (and thrash the check).
                    drift = Some(ideal);
                }
            }
            if drift.is_some() {
                self.resize(drift);
            } else if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
                self.resize(None);
            } else {
                self.recompute_min();
            }
        }
        Some((entry.time, entry.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.cached_min.as_ref().map(|m| m.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    /// Total number of events ever popped from this queue.
    pub fn popped_count(&self) -> u64 {
        self.popped
    }

    /// Drops all pending events (bucket slabs are retained for reuse).
    pub fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.len = 0;
        self.cached_min = None;
    }

    /// Re-locates the earliest pending entry, walking the ring from
    /// `cursor_day`. Caller guarantees `len > 0`.
    ///
    /// Buckets are sorted, so each visited day costs one comparison
    /// against the bucket's front entry: if the front belongs to the
    /// cursor's day it is the global minimum (no pending event has an
    /// earlier day, and entries for later ring laps sort behind it).
    /// If a whole lap finds nothing the pending events are sparser than
    /// the ring spans; fall back to comparing all bucket fronts for the
    /// global minimum and jump the cursor there. Resizing re-derives
    /// the day width from the mean event gap, so sustained fallback
    /// laps only happen for populations too small to matter.
    fn recompute_min(&mut self) {
        debug_assert!(self.len > 0, "recompute_min on empty queue");
        // Day numbers stay ≤ 2^58 (MIN_SHIFT), so the end bound can't
        // overflow.
        for day in self.cursor_day..self.cursor_day + self.buckets.len() as u64 {
            let bucket = (day & self.mask) as usize;
            if let Some(e) = self.buckets[bucket].front() {
                if e.time.as_nanos() >> self.shift == day {
                    self.cursor_day = day;
                    self.cached_min = Some(MinPos {
                        time: e.time,
                        seq: e.seq,
                        bucket,
                    });
                    return;
                }
            }
        }
        // Sparse horizon: direct search over the bucket fronts.
        let mut best: Option<MinPos> = None;
        for (bucket, entries) in self.buckets.iter().enumerate() {
            if let Some(e) = entries.front() {
                if best
                    .as_ref()
                    .is_none_or(|b| (e.time, e.seq) < (b.time, b.seq))
                {
                    best = Some(MinPos {
                        time: e.time,
                        seq: e.seq,
                        bucket,
                    });
                }
            }
        }
        let m = best.expect("len > 0 but no entry found");
        self.cursor_day = m.time.as_nanos() >> self.shift;
        self.cached_min = Some(m);
    }

    /// Rebuilds the ring for the current population: bucket count from
    /// `len`, day width from the mean gap of a head sample of the
    /// pending timestamps — unless `shift_override` supplies one (the
    /// drift retune passes the width derived from the drained rate).
    /// Pure function of queue content — replaying the same operation
    /// sequence always rebuilds the same calendar. Caller guarantees
    /// `len > 0`.
    ///
    /// All pending entries are staged into one scratch buffer and
    /// sorted once by `(time, seq)`; redistributing them in that order
    /// appends to each target bucket in sorted order, so per-bucket
    /// ordering comes out of a single `O(n log n)` pass instead of `n`
    /// binary-searched inserts.
    fn resize(&mut self, shift_override: Option<u32>) {
        debug_assert!(self.len > 0, "resize on empty queue");
        let nb = self.len.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        let mut ring = std::mem::take(&mut self.buckets);
        self.scratch.reserve(self.len);
        for bucket in &mut ring {
            self.scratch.extend(bucket.drain(..));
        }
        self.scratch.sort_unstable_by_key(|e| (e.time, e.seq));
        let min_t = self.scratch[0].time.as_nanos();
        let max_t = self.scratch[self.len - 1].time.as_nanos();
        // Day width from the mean gap of a *head sample* of the sorted
        // schedule, not the global span. A handful of far-horizon
        // timers (waypoint pauses, long protocol timeouts) would
        // stretch the global mean by orders of magnitude and widen
        // days until every short-horizon MAC event piles into the one
        // bucket under the cursor — which both degrades scans and
        // means the drain cursor keeps entering cold, never-touched
        // buckets that must grow from zero capacity. Brown's original
        // tuning samples near the queue head for the same reason. A
        // head of exact ties (gap 0) says nothing about spacing, so
        // fall back to the global mean gap in that case.
        let shift = shift_override.unwrap_or_else(|| {
            let sample = self.len.min(HEAD_SAMPLE);
            let head_span = self.scratch[sample - 1].time.as_nanos() - min_t;
            let avg_gap = if sample >= 2 && head_span > 0 {
                (head_span / (sample as u64 - 1)).max(1)
            } else {
                ((max_t - min_t) / self.len as u64).max(1)
            };
            avg_gap.ilog2().clamp(MIN_SHIFT, MAX_SHIFT)
        });
        // Retire the drained slabs so the rebuilt ring reuses their
        // warm capacity immediately; the ring vector itself is reused
        // in place, so a steady-state resize allocates nothing.
        while let Some(bucket) = ring.pop() {
            if self.spare.len() < SPARE_CAP {
                self.spare.push(bucket);
            }
        }
        ring.extend((0..nb).map(|_| self.spare.pop().unwrap_or_default()));
        self.buckets = ring;
        self.mask = (nb - 1) as u64;
        self.shift = shift;
        for e in self.scratch.drain(..) {
            let b = ((e.time.as_nanos() >> shift) & self.mask) as usize;
            self.buckets[b].push_back(e);
        }
        // Capacity floor per slab: a bucket must ride out transient
        // same-day bursts (a broadcast's per-receiver deliveries plus
        // the MAC re-arms they trigger) without growing. Discovering
        // that high-water bucket-by-bucket is a coupon-collector tail
        // of rare reallocations spread over the whole run; paying a
        // few entries per slab up front ends it at the (rare) resizes.
        //
        // The largest rings get 16, not less: at `MAX_BUCKETS` the
        // pending window often spans more days than the ring has
        // buckets, so day-aliasing (`day & mask`) parks *two or more*
        // active days in a fraction of the buckets. With a floor of 4
        // those aliased buckets kept doubling one straggler at a time
        // — tens of thousands of late allocations per long run (the
        // `queue_calendar_steady` alloc gate caught it). 16 covers the
        // aliased occupancy's observed tail; the memory bound is
        // `MAX_BUCKETS × 16` entries, and a ring that large implies a
        // pending population that dwarfs the floor anyway.
        let floor = if nb <= 2048 {
            32
        } else if nb <= 16_384 {
            8
        } else {
            16
        };
        for b in &mut self.buckets {
            if b.capacity() < floor {
                b.reserve(floor - b.len());
            }
        }
        self.cursor_day = min_t >> shift;
        self.recompute_min();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::BinaryHeapQueue;
    use proptest::prelude::*;

    #[test]
    fn empty_queue_behaves() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 3u32);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(2), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100u32 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let expected: Vec<u32> = (0..100).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn counts_track_activity() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        q.pop();
        assert_eq!(q.scheduled_count(), 2);
        assert_eq!(q.popped_count(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_empties() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 1u8);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    /// Enough entries to force several grow resizes; drain must still be
    /// perfectly sorted and lossless.
    #[test]
    fn grow_resizes_preserve_total_order() {
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            // Scrambled times with repeats to exercise tie-breaking.
            q.schedule(SimTime::from_nanos((i * 2_654_435_761) % 500_000), i);
        }
        assert!(
            q.buckets.len() > MIN_BUCKETS,
            "growth should have kicked in"
        );
        let mut last = None;
        let mut n = 0u64;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!((t, i) > (lt, li), "order violated at {t:?}/{i}");
            }
            last = Some((t, i));
            n += 1;
        }
        assert_eq!(n, 10_000);
    }

    /// Draining a big population below a quarter load must shrink the
    /// ring again, without disturbing order.
    #[test]
    fn shrink_resizes_preserve_total_order() {
        let mut q = EventQueue::new();
        for i in 0..4096u64 {
            q.schedule(SimTime::from_micros(i * 37), i);
        }
        let grown = q.buckets.len();
        assert!(grown >= 4096);
        for expect in 0..4000u64 {
            assert_eq!(q.pop().map(|(_, e)| e), Some(expect));
        }
        assert!(q.buckets.len() < grown, "shrink should have kicked in");
        for expect in 4000..4096u64 {
            assert_eq!(q.pop().map(|(_, e)| e), Some(expect));
        }
        assert!(q.is_empty());
    }

    /// Events spaced far wider than the ring spans exercise the direct-
    /// search fallback.
    #[test]
    fn sparse_horizon_uses_fallback_correctly() {
        let mut q = EventQueue::new();
        // Hours apart with a ~1 ms initial day width and 16 buckets.
        for i in (0..8u64).rev() {
            q.schedule(SimTime::from_secs(i * 3600), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    /// The `SimTime::MAX` "disabled timer" sentinel must be storable and
    /// drain last without overflow.
    #[test]
    fn max_time_sentinel_is_handled() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, "never");
        q.schedule(SimTime::ZERO, "now");
        q.schedule(SimTime::MAX, "never2");
        assert_eq!(q.peek_time(), Some(SimTime::ZERO));
        assert_eq!(q.pop(), Some((SimTime::ZERO, "now")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "never")));
        assert_eq!(q.pop(), Some((SimTime::MAX, "never2")));
        assert_eq!(q.pop(), None);
    }

    /// Scheduling earlier than everything pending (and earlier than the
    /// last pop) must move the cursor backwards, not lose the event.
    #[test]
    fn schedule_into_the_past_is_honored() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "late");
        q.schedule(SimTime::from_secs(5), "mid");
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "mid")));
        q.schedule(SimTime::from_secs(1), "early");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), "late")));
    }

    /// Same-instant bursts bigger than the whole ring (the broadcast
    /// case) must stay FIFO through grow resizes.
    #[test]
    fn large_same_instant_burst_stays_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(3);
        for i in 0..1000u32 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        let expected: Vec<u32> = (0..1000).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn clone_is_independent() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1u8);
        q.schedule(SimTime::from_secs(2), 2);
        let mut c = q.clone();
        assert_eq!(c.pop(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 1)));
    }

    proptest! {
        /// Popping must always yield a non-decreasing time sequence, and for
        /// equal times a strictly increasing insertion sequence.
        #[test]
        fn prop_pop_order_is_total(times in prop::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(idx > lidx);
                    }
                }
                last = Some((t, idx));
            }
        }

        /// Everything scheduled comes back exactly once.
        #[test]
        fn prop_no_loss_no_duplication(times in prop::collection::vec(0u64..50, 0..100)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
            }
            let mut seen = vec![false; times.len()];
            while let Some((_, idx)) = q.pop() {
                prop_assert!(!seen[idx]);
                seen[idx] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
        }

        /// Differential oracle: an arbitrary interleaving of schedules and
        /// pops produces the same observations from the calendar queue and
        /// the reference `BinaryHeap` queue — including `peek_time` and the
        /// running counters. Times mix dense ties, MAC-timer-ish gaps and
        /// far horizons so the interleaving crosses resize boundaries.
        #[test]
        fn prop_matches_binary_heap_reference(
            ops in prop::collection::vec(
                (0u8..4, 0u64..40, 0u64..5), 1..400)
        ) {
            let mut cal = EventQueue::new();
            let mut heap = BinaryHeapQueue::new();
            let mut tag = 0u64;
            for (kind, coarse, fine) in ops {
                match kind {
                    // Three schedule flavours to one pop keeps the queues
                    // populated across the run.
                    0 => {
                        // Dense: lots of exact ties.
                        let t = SimTime::from_nanos(coarse);
                        cal.schedule(t, tag);
                        heap.schedule(t, tag);
                        tag += 1;
                    }
                    1 => {
                        // Timer-ish: microseconds-to-milliseconds apart.
                        let t = SimTime::from_nanos(coarse * 50_000 + fine);
                        cal.schedule(t, tag);
                        heap.schedule(t, tag);
                        tag += 1;
                    }
                    2 => {
                        // Far horizon: minutes out, forces sparse laps.
                        let t = SimTime::from_secs(coarse * 60);
                        cal.schedule(t, tag);
                        heap.schedule(t, tag);
                        tag += 1;
                    }
                    _ => {
                        prop_assert_eq!(cal.pop(), heap.pop());
                    }
                }
                prop_assert_eq!(cal.peek_time(), heap.peek_time());
                prop_assert_eq!(cal.len(), heap.len());
            }
            // Drain both fully; every remaining event must match.
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                prop_assert_eq!(a, b);
                if b.is_none() {
                    break;
                }
            }
            prop_assert_eq!(cal.scheduled_count(), heap.scheduled_count());
            prop_assert_eq!(cal.popped_count(), heap.popped_count());
        }

        /// Generation-token cancellation (the engine's idiom, see module
        /// docs) observed through both queues: re-arming a node's timer
        /// bumps its generation, popped events with stale generations are
        /// dropped, and the surviving dispatch sequence is identical.
        #[test]
        fn prop_generation_cancellation_matches_reference(
            ops in prop::collection::vec((0u8..3, 0usize..8, 1u64..1_000), 1..300)
        ) {
            const NODES: usize = 8;
            let mut cal = EventQueue::new();
            let mut heap = BinaryHeapQueue::new();
            let mut gens = [0u64; NODES];
            let mut now = SimTime::ZERO;
            let mut cal_fired = Vec::new();
            let mut heap_fired = Vec::new();
            for (kind, node, delay) in ops {
                match kind {
                    0 => {
                        // (Re-)arm: cancel the node's armed timer by
                        // bumping its generation, then schedule anew.
                        gens[node] += 1;
                        let at = now + crate::SimDuration::from_nanos(delay * 1_000);
                        cal.schedule(at, (node, gens[node]));
                        heap.schedule(at, (node, gens[node]));
                    }
                    1 => {
                        // Cancel only: stale events become no-ops.
                        gens[node] += 1;
                    }
                    _ => {
                        // Dispatch one event from each queue.
                        let a = cal.pop();
                        let b = heap.pop();
                        prop_assert_eq!(a, b);
                        if let Some((t, (n, g))) = a {
                            now = t;
                            if gens[n] == g {
                                cal_fired.push((t, n));
                            }
                        }
                        if let Some((t, (n, g))) = b {
                            if gens[n] == g {
                                heap_fired.push((t, n));
                            }
                        }
                    }
                }
            }
            prop_assert_eq!(cal_fired, heap_fired);
        }
    }
}
