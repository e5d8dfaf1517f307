//! The event scheduler at the heart of the kernel: a self-tuning
//! calendar queue over one node arena, with an overflow heap for
//! whatever the calendar's window does not cover.
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
//! milliseconds out. A comparison-based heap pays `O(log n)` per
//! operation for a set whose *time structure* is almost flat. A calendar
//! queue (Brown 1988) instead files each event under its *day*
//! (`t >> shift`) in a ring of day buckets and drains the ring in day
//! order: `O(1)` amortized when a day holds about one event.
//!
//! # Window, arena, overflow
//!
//! * **Window.** The ring covers the days `cursor_day ≤ day <
//!   cursor_day + buckets.len()` and nothing else, so a bucket only ever
//!   holds *one* day; `cursor_day` is the day of the latest pop. The
//!   near minimum is the head of the first non-empty bucket from the
//!   cursor on — no lap test, no whole-ring fallback.
//! * **Arena.** A bucket is a `(head, tail)` pair of `u32` links into
//!   one `Vec` of nodes, each chain sorted by `(time, seq)`; popped
//!   nodes go on a LIFO free list, so memory follows the pending
//!   population (8 B a day, one node per near event). Ties and later
//!   times — the steady-state case — append at `tail`; an out-of-order
//!   insert walks at most [`WALK_BUDGET`] links from the head.
//! * **Overflow.** Everything else — a day beyond the window or before
//!   the cursor, a walk out of budget — goes to one `std` `BinaryHeap`
//!   keyed on `(time, seq)`. [`EventQueue::pop`] takes the smaller of the
//!   near minimum and the heap top, so nothing migrates from the heap
//!   back to the ring, and a mis-tuned phase degrades to heap speed,
//!   never to a long list walk.
//!
//! Tuning is automatic and **deterministic**: when the population
//! doubles past two events per bucket (or collapses below a quarter),
//! and whenever the drained rate drifts from the day width (see
//! [`RETUNE_POPS`]), the ring is resized, the day width re-derived from
//! the mean gap of a *head sample* of the near timestamps, the near
//! nodes re-linked in place and those outside the new window spilled
//! into the heap. All of it is a pure function of queue content, never
//! of wall clock, so replaying the same schedule sequence always
//! rebuilds the same calendar. Steady state allocates nothing: arena and
//! heap stop growing at the pending population's high water (the
//! `ag-bench` `zero_alloc` test pins this on two 65,536-event hold
//! patterns, one per tier).
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
//! Deliberately absent. The engine cancels by *generation token*: a
//! cancellable event carries a generation stamp and the dispatcher drops
//! events whose stamp no longer matches the owner's counter (see
//! `Event::MacAttempt` in `ag-net`, the one such event). That keeps
//! the queue free of tombstone bookkeeping on the hot path, and of
//! handles that would have to follow an entry across a retune's change
//! of tier; a stale event costs one pop and one integer compare.

use std::cmp::Ordering;
// ag-lint: allow(det-hash) -- the overflow tier; `Overflow` gives it a total order with no ties
use std::collections::BinaryHeap;

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

/// An overflow-heap entry: `(time, seq)` reversed, so the max-heap keeps
/// the earliest on top; `seq` is unique, so no two entries tie.
#[derive(Debug, Clone)]
struct Overflow<E>(EventEntry<E>);

impl<E> PartialEq for Overflow<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<E> Eq for Overflow<E> {}

impl<E> PartialOrd for Overflow<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Overflow<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0.time, other.0.seq).cmp(&(self.0.time, self.0.seq))
    }
}

/// Fewest day buckets the ring ever holds.
const MIN_BUCKETS: usize = 16;
/// Most day buckets the ring ever holds; beyond `2 ×` this many pending
/// events the per-day load grows instead.
const MAX_BUCKETS: usize = 1 << 16;
/// Narrowest day: 2^6 = 64 ns. Also keeps `day + ring length` from
/// overflowing `u64` for any `SimTime` (day ≤ 2^58).
const MIN_SHIFT: u32 = 6;
/// Widest day: 2^42 ns ≈ 73 simulated minutes.
const MAX_SHIFT: u32 = 42;
/// Day width before the first retune: 2^20 ns ≈ 1 ms, the right order
/// for MAC-timer workloads.
const INITIAL_SHIFT: u32 = 20;
/// Sorted head entries sampled to derive the day width on retune.
const HEAD_SAMPLE: usize = 64;
/// Pops between day-width drift checks. Resizes are driven by
/// *population* thresholds, so a queue whose population is steady but
/// whose event *rate* has drifted since the last retune (e.g. a startup
/// transient tuned wide days before MAC traffic ramped up) would keep a
/// stale day width forever. Every this-many pops the queue compares the
/// observed mean pop gap against the current day width and forces a
/// retune when they disagree by 4x or more.
const RETUNE_POPS: u64 = 1 << 15;
/// Links an out-of-order insert may walk from its day's head before it
/// goes to the overflow heap instead: bounds the cost of a day that a
/// stale tuning has let grow long.
const WALK_BUDGET: usize = 8;
/// The null link.
const NIL: u32 = u32::MAX;
/// Most arena nodes `u32` links can address (lowered under test to
/// reach the guard).
const ARENA_LIMIT: usize = if cfg!(test) { 1 << 17 } else { NIL as usize };

/// One arena slot: a near entry linked into its day's chain, or — once
/// popped, `event` taken — into the free list.
#[derive(Debug, Clone)]
struct Node<E> {
    time: SimTime,
    seq: u64,
    next: u32,
    event: Option<E>,
}

/// One day of the ring: the ends of its `(time, seq)`-sorted chain.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

const EMPTY: Bucket = Bucket {
    head: NIL,
    tail: NIL,
};

/// A deterministic min-priority queue of timestamped events, implemented
/// as a self-tuning calendar queue with an overflow heap (see the module
/// docs for the design and for why cancellation is a non-feature).
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
    /// The day ring; `buckets.len()` is a power of two and day `d` of
    /// the window lives at `d & (buckets.len() - 1)`.
    buckets: Vec<Bucket>,
    /// Every near entry, plus the free list threaded through `next`.
    nodes: Vec<Node<E>>,
    /// Head of the LIFO free list.
    free: u32,
    /// The entries the window does not hold, earliest on top.
    // ag-lint: allow(det-hash) -- the overflow tier, totally ordered by `Overflow`
    overflow: BinaryHeap<Overflow<E>>,
    /// Day width is `2^shift` nanoseconds.
    shift: u32,
    /// First day of the window: the day of the latest pop, so no near
    /// entry has an earlier one.
    cursor_day: u64,
    /// Pending events, both tiers.
    len: usize,
    next_seq: u64,
    popped: u64,
    /// `(time, seq)` of the earliest near entry — the head of its day's
    /// bucket — kept current across every operation so
    /// [`EventQueue::peek_time`] is O(1).
    near_min: Option<(SimTime, u64)>,
    /// Reused staging area for the node ids a retune re-links.
    scratch: Vec<u32>,
    /// `(popped, time)` at the last day-width drift check.
    retune_mark: (u64, SimTime),
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: vec![EMPTY; MIN_BUCKETS],
            nodes: Vec::new(),
            free: NIL,
            // ag-lint: allow(det-hash) -- constructing the overflow tier
            overflow: BinaryHeap::new(),
            shift: INITIAL_SHIFT,
            cursor_day: 0,
            len: 0,
            next_seq: 0,
            popped: 0,
            near_min: None,
            scratch: Vec::new(),
            retune_mark: (0, SimTime::ZERO),
        }
    }

    // ag-lint: hot-path
    /// Schedules `event` to fire at `time`.
    ///
    /// Events scheduled for the same instant fire in the order they were
    /// scheduled. Panics if `u32::MAX` events are already pending inside
    /// the calendar's window.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let day = time.as_nanos() >> self.shift;
        if let Some(prev) = self.predecessor(day, time) {
            let id = self.alloc(Node {
                time,
                seq,
                next: NIL,
                event: Some(event),
            });
            self.link(self.slot(day), prev, id);
            // A fresh entry can only become the minimum by strictly
            // earlier time: its seq is larger than everything pending,
            // so ties keep the incumbent (FIFO). A new minimum
            // necessarily sorted to the head of its day.
            if self.near_min.is_none_or(|m| time < m.0) {
                self.near_min = Some((time, seq));
            }
        } else {
            self.overflow
                .push(Overflow(EventEntry { time, seq, event }));
        }
        if self.len > 2 * self.buckets.len() && self.buckets.len() < MAX_BUCKETS {
            self.retune(None);
        }
    }

    // ag-lint: hot-path
    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let heap_top = self.overflow.peek().map(|h| (h.0.time, h.0.seq));
        let near = self.near_min.filter(|&m| heap_top.is_none_or(|h| m < h));
        let entry = if let Some(min) = near {
            let slot = self.slot(min.0.as_nanos() >> self.shift);
            let id = self.buckets[slot].head;
            self.buckets[slot].head = self.nodes[id as usize].next;
            if self.buckets[slot].head == NIL {
                self.buckets[slot].tail = NIL;
            }
            self.near_min = None;
            self.release(id)
        } else {
            self.overflow.pop()?.0
        };
        debug_assert!(
            near.is_none_or(|m| m == (entry.time, entry.seq)),
            "stale min cache"
        );
        let time = entry.time;
        self.len -= 1;
        self.popped += 1;
        // Slide the window up to the popped entry's day: everything
        // pending is due no earlier, and its siblings drain next.
        self.cursor_day = self.cursor_day.max(time.as_nanos() >> self.shift);
        if self.len > 0 {
            // Day-width drift check (see `RETUNE_POPS`): a pure function
            // of the popped sequence, so replays retune identically.
            let mut drift = None;
            if self.popped - self.retune_mark.0 >= RETUNE_POPS {
                let span = time
                    .as_nanos()
                    .saturating_sub(self.retune_mark.1.as_nanos());
                let gap = (span / RETUNE_POPS).max(1);
                let ideal = gap.ilog2().clamp(MIN_SHIFT, MAX_SHIFT);
                self.retune_mark = (self.popped, time);
                if ideal.abs_diff(self.shift) >= 2 {
                    // Rebucket under the drained-rate day width
                    // directly: re-deriving from the pending head
                    // could land wide again (and thrash the check).
                    drift = Some(ideal);
                }
            }
            if drift.is_some() {
                self.retune(drift);
            } else if self.len < self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
                self.retune(None);
            } else if near.is_some() {
                self.recompute_min();
            }
        }
        Some((time, entry.event))
    }

    // ag-lint: hot-path
    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap_top = self.overflow.peek().map(|h| h.0.time);
        match self.near_min {
            Some((near, _)) => Some(heap_top.map_or(near, |h| h.min(near))),
            None => heap_top,
        }
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

    /// Drops all pending events (ring, arena and heap keep their
    /// capacity).
    pub fn clear(&mut self) {
        self.buckets.fill(EMPTY);
        self.nodes.clear();
        self.free = NIL;
        self.overflow.clear();
        self.len = 0;
        self.near_min = None;
    }

    /// The bucket that day `day` of the window lives in.
    fn slot(&self, day: u64) -> usize {
        (day & (self.buckets.len() as u64 - 1)) as usize
    }

    // ag-lint: hot-path
    /// Where a new entry due at `time` links into `day`'s chain:
    /// `Some(prev)` to go after node `prev` (`NIL`: at the head), or
    /// `None` for the overflow heap — `day` is outside the window, or
    /// the walk ran out of budget. Its `seq` exceeds every pending one,
    /// so the place is after every entry with `e.time <= time`: in
    /// steady state (a timer later than all that day holds) the tail.
    fn predecessor(&self, day: u64, time: SimTime) -> Option<u32> {
        // A day before the cursor wraps to a huge offset.
        if day.wrapping_sub(self.cursor_day) >= self.buckets.len() as u64 {
            return None;
        }
        let b = self.buckets[self.slot(day)];
        if b.tail == NIL || self.nodes[b.tail as usize].time <= time {
            return Some(b.tail);
        }
        // The tail is later than `time`: the walk ends inside the chain.
        let (mut prev, mut cur) = (NIL, b.head);
        for _ in 0..WALK_BUDGET {
            let n = &self.nodes[cur as usize];
            if n.time > time {
                return Some(prev);
            }
            (prev, cur) = (cur, n.next);
        }
        None
    }

    // ag-lint: hot-path
    /// Stores `node` in a slot off the free list, or in one more.
    fn alloc(&mut self, node: Node<E>) -> u32 {
        let id = self.free;
        if id != NIL {
            self.free = std::mem::replace(&mut self.nodes[id as usize], node).next;
            return id;
        }
        assert!(
            self.nodes.len() < ARENA_LIMIT,
            "EventQueue: near events exhaust the arena's u32 links"
        );
        self.nodes.push(node);
        (self.nodes.len() - 1) as u32
    }

    // ag-lint: hot-path
    /// Puts the unlinked node `id` on the free list and returns the
    /// entry it held.
    fn release(&mut self, id: u32) -> EventEntry<E> {
        let node = &mut self.nodes[id as usize];
        node.next = std::mem::replace(&mut self.free, id);
        let event = node.event.take().expect("linked node holds no event");
        EventEntry {
            time: node.time,
            seq: node.seq,
            event,
        }
    }

    // ag-lint: hot-path
    /// Links node `id` into bucket `slot` after node `prev` (`NIL`: at
    /// the head).
    fn link(&mut self, slot: usize, prev: u32, id: u32) {
        let b = &mut self.buckets[slot];
        let next = match prev {
            NIL => std::mem::replace(&mut b.head, id),
            _ => std::mem::replace(&mut self.nodes[prev as usize].next, id),
        };
        if next == NIL {
            b.tail = id;
        }
        self.nodes[id as usize].next = next;
    }

    // ag-lint: hot-path
    /// Re-locates the earliest near entry: the head of the first
    /// non-empty bucket from `cursor_day` on. One bucket is one day, so
    /// one pass over the window is exhaustive.
    fn recompute_min(&mut self) {
        self.near_min = None;
        if self.len == self.overflow.len() {
            return;
        }
        // Day numbers stay ≤ 2^58 (MIN_SHIFT), so the end bound can't
        // overflow.
        for day in self.cursor_day..self.cursor_day + self.buckets.len() as u64 {
            let b = self.buckets[self.slot(day)];
            if b.head != NIL {
                let (head, tail) = (&self.nodes[b.head as usize], &self.nodes[b.tail as usize]);
                debug_assert!(
                    [head, tail].map(|n| n.time.as_nanos() >> self.shift) == [day, day],
                    "bucket of day {day} holds another day"
                );
                self.near_min = Some((head.time, head.seq));
                return;
            }
        }
        unreachable!("near entries pending, yet every day of the window is empty");
    }

    /// Rebuilds the ring for the current population: bucket count from
    /// `len`, day width from the mean gap of a head sample of the near
    /// timestamps — unless `shift_override` supplies one (the drift
    /// retune passes the width derived from the drained rate) or fewer
    /// than two entries are near (the width stays). Caller guarantees
    /// `len > 0`.
    ///
    /// The old window in day order *is* the near entries in `(time,
    /// seq)` order, so nothing is sorted: each node is appended to the
    /// tail of its new day, or — outside the new window — released and
    /// its entry pushed onto the overflow heap, whose entries stay put.
    fn retune(&mut self, shift_override: Option<u32>) {
        debug_assert!(self.len > 0, "retune on empty queue");
        self.scratch.clear();
        for day in self.cursor_day..self.cursor_day + self.buckets.len() as u64 {
            let mut id = self.buckets[self.slot(day)].head;
            while id != NIL {
                self.scratch.push(id);
                id = self.nodes[id as usize].next;
            }
        }
        let near = self.scratch.len();
        let time_of = |i: usize| self.nodes[self.scratch[i] as usize].time.as_nanos();
        // The head sample, not the whole span: a handful of far timers
        // would stretch the mean by orders of magnitude and widen days
        // until every short-horizon MAC event piles into the one bucket
        // under the cursor (Brown's tuning samples the head for the
        // same reason). A head of exact ties says nothing about spacing:
        // fall back to the mean gap of all near entries.
        let shift = shift_override.unwrap_or_else(|| {
            if near < 2 {
                return self.shift;
            }
            let sample = near.min(HEAD_SAMPLE);
            let avg_gap = match time_of(sample - 1) - time_of(0) {
                0 => (time_of(near - 1) - time_of(0)) / near as u64,
                head_span => head_span / (sample as u64 - 1),
            };
            avg_gap.max(1).ilog2().clamp(MIN_SHIFT, MAX_SHIFT)
        });
        let nb = self.len.next_power_of_two().clamp(MIN_BUCKETS, MAX_BUCKETS);
        self.buckets.clear();
        self.buckets.resize(nb, EMPTY);
        // Room on each tier for all that can be pending before the next
        // grow retune, so that which tier a steady population settles on
        // costs no allocation later; capacity never written is not
        // resident.
        let room = 2 * nb + 1;
        self.nodes.reserve(room.saturating_sub(self.nodes.len()));
        self.overflow
            .reserve(room.saturating_sub(self.overflow.len()));
        self.scratch.reserve(room.saturating_sub(near));
        // No near entry is due before the old cursor day began.
        self.cursor_day = (self.cursor_day << self.shift) >> shift;
        self.shift = shift;
        for i in 0..near {
            let id = self.scratch[i];
            let day = self.nodes[id as usize].time.as_nanos() >> shift;
            if day - self.cursor_day < nb as u64 {
                let slot = self.slot(day);
                self.link(slot, self.buckets[slot].tail, id);
            } else {
                let entry = self.release(id);
                self.overflow.push(Overflow(entry));
            }
        }
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

    /// Events spaced far wider than the ring spans (the overflow heap
    /// holds all but the first).
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

    /// Every structural invariant the module docs state, exhaustively:
    /// one day per bucket, chains sorted and inside the window, `tail`
    /// the last link, the min cache on the first near entry, both tiers
    /// and the free list adding up, the heap ordered.
    fn check<E>(q: &EventQueue<E>) {
        assert!(q.buckets.len().is_power_of_two());
        let (mut near, mut min) = (0, None);
        for day in q.cursor_day..q.cursor_day + q.buckets.len() as u64 {
            let b = q.buckets[q.slot(day)];
            let (mut id, mut last, mut key) = (b.head, NIL, None);
            while id != NIL {
                let n = &q.nodes[id as usize];
                assert!(n.event.is_some(), "free node on a chain");
                assert_eq!(n.time.as_nanos() >> q.shift, day, "foreign day");
                assert!(key < Some((n.time, n.seq)), "chain out of order");
                key = Some((n.time, n.seq));
                min = min.or(key);
                (last, id) = (id, n.next);
                near += 1;
            }
            assert_eq!(b.tail, last, "tail is not the last link");
        }
        assert_eq!(q.near_min, min, "min cache");
        assert_eq!(near + q.overflow.len(), q.len, "tiers do not add up");
        let (mut free, mut id) = (0, q.free);
        while id != NIL {
            assert!(q.nodes[id as usize].event.is_none(), "live node freed");
            free += 1;
            id = q.nodes[id as usize].next;
        }
        assert_eq!(near + free, q.nodes.len(), "arena leak");
        let heap = q.overflow.as_slice();
        for i in 1..heap.len() {
            assert!(heap[(i - 1) / 2] > heap[i], "heap order");
        }
    }

    /// Nanoseconds the window spans, and the start of its first day.
    fn window<E>(q: &EventQueue<E>) -> (u64, u64) {
        ((q.buckets.len() as u64) << q.shift, q.cursor_day << q.shift)
    }

    #[test]
    fn beyond_window_overflows_and_drains_in_order() {
        let mut q = EventQueue::new();
        let (span, start) = window(&q);
        let day = 1 << q.shift;
        // Last day of the window, first day past it, one well before
        // the cursor's later position, and ties across the two tiers.
        let times = [span - 1, span, span + day, 5, span, span - 1, 5 * span];
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(start + t), i);
        }
        assert_eq!(q.overflow.len(), 4, "span, span + day, span, 5 * span");
        check(&q);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, [3, 0, 5, 1, 4, 2, 6]);
        // The cursor followed the pops, so what was beyond is near now
        // and what is behind the cursor is overflow.
        let (_, start) = window(&q);
        q.schedule(SimTime::from_nanos(start + 1), 7);
        q.schedule(SimTime::from_nanos(start - 1), 8);
        assert_eq!((q.nodes.len(), q.overflow.len()), (3, 1));
        assert_eq!(q.pop().map(|(_, e)| e), Some(8));
        assert_eq!(q.pop().map(|(_, e)| e), Some(7));
    }

    #[test]
    fn walk_budget_overflows_to_heap_and_keeps_fifo_ties() {
        let mut q = EventQueue::new();
        let at = |ns: u64| SimTime::from_nanos(ns);
        // One day: a run longer than the budget, then a late tail.
        for i in 0..WALK_BUDGET as u64 + 2 {
            q.schedule(at(10 * i), i);
        }
        q.schedule(at(1_000), 100);
        // Inside the budget: links in place. Past it: overflow, ties
        // with a near entry included — and the tie still pops second.
        q.schedule(at(35), 101);
        q.schedule(at(95), 102);
        q.schedule(at(90), 103);
        q.schedule(at(1_000), 104);
        assert_eq!(q.overflow.len(), 2);
        check(&q);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(
            order,
            [0, 1, 2, 3, 101, 4, 5, 6, 7, 8, 9, 103, 102, 100, 104]
        );
    }

    #[test]
    fn retune_spills_out_of_window_entries() {
        let mut q = EventQueue::new();
        // 32 entries a millisecond apart fill the initial 16 ms window's
        // first half twice over...
        for i in 0..32u64 {
            q.schedule(SimTime::from_micros(500 * i), i);
        }
        assert_eq!((q.overflow.len(), q.buckets.len()), (0, MIN_BUCKETS));
        // ...and the 33rd grows the ring to 64 days of the head gap's
        // 2^18 ns: a 16.8 ms window, so nothing spills yet.
        q.schedule(SimTime::from_micros(500 * 32), 32);
        assert_eq!((q.overflow.len(), q.buckets.len(), q.shift), (0, 64, 18));
        check(&q);
        // A drift retune to 2^12 ns days leaves a 262 µs window: one
        // entry stays near, 32 spill, and the order holds.
        q.retune(Some(12));
        assert_eq!((q.overflow.len(), q.nodes.len()), (32, 33));
        check(&q);
        for expect in 0..33u64 {
            assert_eq!(q.pop().map(|(_, e)| e), Some(expect));
        }
    }

    /// The arena never outgrows the pending population's high water:
    /// freed nodes are reused before the `Vec` grows.
    #[test]
    fn arena_never_exceeds_high_water() {
        let mut q = EventQueue::new();
        let mut state = 7u64;
        let mut now = SimTime::ZERO;
        let mut peak = 0;
        for step in 0..100_000u32 {
            // Nine short delays to one long; the population breathes
            // between 2,048 and 6,144 pending.
            let growing = step / 10_000 % 2 == 0;
            for _ in 0..if growing && q.len() < 6_144 { 2 } else { 1 } {
                state = crate::rng::splitmix64(state);
                let delay = match state % 10 {
                    0 => (state >> 8) % 10_000_000,
                    _ => (state >> 8) % 100_000,
                };
                q.schedule(now + crate::SimDuration::from_nanos(delay), step);
            }
            peak = peak.max(q.len());
            for _ in 0..if !growing && q.len() > 2_048 { 2 } else { 1 } {
                now = q.pop().expect("never empties").0;
            }
            assert!(
                q.nodes.len() <= peak,
                "{} nodes, peak {peak}",
                q.nodes.len()
            );
        }
        check(&q);
        assert!(peak >= 6_144 && q.len() <= 2_048 && q.nodes.len() > 64);
    }

    /// `recompute_min`'s debug assertion and `check` agree that a bucket
    /// holds one day while the cursor crosses many ring lengths — and the
    /// cursor is the day of the latest pop, not of the next entry, or
    /// every timer shorter than the gap to it would overflow.
    #[test]
    fn one_day_per_bucket() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::MAX, u64::MAX);
        for i in 0..64u64 {
            // The cursor's day, the window's last nanosecond, the first
            // one past it (overflow).
            let (span, start) = window(&q);
            q.schedule(SimTime::from_nanos(start + i % 7), 3 * i);
            q.schedule(SimTime::from_nanos(start + span - 1), 3 * i + 1);
            q.schedule(SimTime::from_nanos(start + span), 3 * i + 2);
            assert_eq!((q.nodes.len(), q.overflow.len()), (2, 2));
            for k in 0..3 {
                check(&q);
                let (t, e) = q.pop().expect("three scheduled");
                assert_eq!((e, q.cursor_day), (3 * i + k, t.as_nanos() >> q.shift));
            }
        }
        assert_eq!(q.cursor_day, 64 * q.buckets.len() as u64);
    }

    #[test]
    #[should_panic(expected = "exhaust the arena's u32 links")]
    fn schedule_at_the_arena_limit_panics() {
        let mut q = EventQueue::new();
        // Same instant, day 0: every entry is near.
        for i in 0..=ARENA_LIMIT {
            q.schedule(SimTime::ZERO, i);
        }
    }

    /// A hold pattern on both tiers whose delays shrink 16x half-way
    /// crosses real drift retunes; every pop matches the reference.
    #[test]
    fn drift_retune_with_both_tiers_matches_reference() {
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeapQueue::new();
        let mut state = 11u64;
        let mut now = SimTime::ZERO;
        let mut drift_retunes = 0;
        for step in 0..120_000u64 {
            state = crate::rng::splitmix64(state);
            let scale = if step < 60_000 { 16 } else { 1 };
            let delay = match state % 4 {
                0 => 10_000_000 + (state >> 8) % 30_000_000,
                _ => 50_000 + (state >> 8) % 4_950_000,
            };
            let at = now + crate::SimDuration::from_nanos(scale * delay);
            cal.schedule(at, step);
            heap.schedule(at, step);
            if step >= 4_096 {
                let before = cal.shift;
                let (a, b) = (cal.pop(), heap.pop());
                assert_eq!(a, b);
                now = b.expect("hold pattern never empties").0;
                if step >= 8_192 && cal.shift != before {
                    drift_retunes += 1;
                    assert!(!cal.overflow.is_empty() && cal.near_min.is_some());
                    check(&cal);
                }
            }
            assert_eq!(cal.peek_time(), heap.peek_time());
        }
        assert!(drift_retunes >= 1, "the 16x step crossed no drift retune");
        check(&cal);
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
        /// running counters. Times mix dense ties, MAC-timer-ish gaps, far
        /// horizons, the window's edge and over-budget days, and forced
        /// retunes land in between, so the interleaving crosses resize
        /// boundaries with entries on both tiers; `check` holds throughout.
        #[test]
        fn prop_matches_binary_heap_reference(
            ops in prop::collection::vec(
                (0u8..8, 0u64..40, 0u64..5), 1..400)
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
                    4 => {
                        // The window's edge, a day either side of it.
                        let (span, start) = window(&cal);
                        let t = (start + span + (fine << cal.shift))
                            .saturating_sub(2 << cal.shift);
                        let t = SimTime::from_nanos(t + coarse);
                        cal.schedule(t, tag);
                        heap.schedule(t, tag);
                        tag += 1;
                    }
                    5 => {
                        // One day inside the window: an ascending run
                        // longer than the walk budget, a late tail, then
                        // descending times that belong between the two.
                        let base = window(&cal).1 + ((1 + coarse) << cal.shift);
                        let run = WALK_BUDGET as u64 + 2;
                        let times = (0..run).chain([62]).chain((run..run + 1 + fine).rev());
                        for ns in times {
                            cal.schedule(SimTime::from_nanos(base + ns), tag);
                            heap.schedule(SimTime::from_nanos(base + ns), tag);
                            tag += 1;
                        }
                    }
                    6 if !cal.is_empty() => {
                        // What the drift check does every 2^15 pops,
                        // with entries on whichever tiers hold them.
                        cal.retune(Some((coarse as u32).clamp(MIN_SHIFT, MAX_SHIFT)));
                    }
                    _ => {
                        prop_assert_eq!(cal.pop(), heap.pop());
                    }
                }
                prop_assert_eq!(cal.peek_time(), heap.peek_time());
                prop_assert_eq!(cal.len(), heap.len());
                check(&cal);
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
