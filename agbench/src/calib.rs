//! Host-speed calibration against frozen code.
//!
//! The sandbox this benchmark runs in shares its cores and caches with
//! neighbours: identical work measured 30–50 % apart for minutes at a
//! time (the README has the numbers), far beyond any bound worth
//! setting. Most of that noise is a multiplicative drift of the host's
//! speed, so it cancels against a yardstick measured *beside* the work:
//! every timed segment — one simulation job, one slice of a city run,
//! one build — is bracketed by two ~15 ms runs of a loop no PR changes,
//! and its duration is multiplied by
//! `nominal / (mean of the two yardstick readings)`. A calibrated second
//! is therefore a second on a host where the yardstick reads its
//! nominal value — this sandbox when it is quiet. `perf_json`'s
//! `CALIBRATION_LEG` does the same once per file; this does it every
//! few hundred milliseconds, which is what the drift needs.
//!
//! A yardstick cancels a slowdown only if it shares the work's
//! bottleneck, and the two regimes of this benchmark do not share one:
//! between a quiet and a busy phase of the host the cache-resident
//! 40-node simulations slowed ×1.4 and the 20,000-node ones ×1.6. So
//! there are two loops ([`Yardstick`]): the hold pattern on
//! `ag_sim::reference::BinaryHeapQueue` (1.5 MB, the seed's frozen
//! scheduler; slowed ×1.37) for the former, and a dependent-load chase
//! through an 8 MB cycle (beyond L2, inside L3; slowed ×1.55) for the
//! latter. Neither is used to compare hosts.
//!
//! Raw seconds are reported beside calibrated ones, never instead.

use std::cell::RefCell;

use ag_sim::reference::BinaryHeapQueue;
use ag_sim::rng::splitmix64;
use ag_sim::{SimDuration, SimTime};

use crate::clock::now;

/// Which frozen loop a segment is calibrated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Yardstick {
    /// Pop + schedule on the reference heap holding 65,536 events:
    /// compute with a cache-resident working set, like a 40-node run.
    Heap,
    /// Dependent loads around one random 8 MB cycle: L3 latency, like a
    /// 20,000-node run.
    Chase,
}

impl Yardstick {
    /// The reading, ns per operation, at which calibrated time equals
    /// raw time: the sandbox's when quiet.
    pub fn nominal_ns(self) -> f64 {
        match self {
            Yardstick::Heap => 150.0,
            Yardstick::Chase => 75.0,
        }
    }

    /// Operations per slice (~15 ms at the nominal reading).
    fn slice_ops(self) -> u64 {
        match self {
            Yardstick::Heap => 100_000,
            Yardstick::Chase => 200_000,
        }
    }
}

/// The hold pattern — pop the earliest event, schedule a new one
/// U[50 µs, 5 ms) later — on the frozen reference heap.
struct HeapLoop {
    queue: BinaryHeapQueue<u32>,
    rng: u64,
}

impl HeapLoop {
    /// Events the queue holds (the `BENCH_*.json` queue legs' size).
    const PENDING: usize = 65_536;

    fn new() -> HeapLoop {
        let mut y = HeapLoop {
            queue: BinaryHeapQueue::new(),
            rng: 0x00c0_ffee,
        };
        for _ in 0..Self::PENDING {
            let d = y.delay();
            y.queue.schedule(SimTime::ZERO + d, 0);
        }
        y
    }

    fn delay(&mut self) -> SimDuration {
        self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        SimDuration::from_nanos(50_000 + splitmix64(self.rng) % 4_950_000)
    }

    fn run(&mut self, ops: u64) {
        for _ in 0..ops {
            let (t, ev) = self.queue.pop().expect("the hold pattern never empties");
            let d = self.delay();
            self.queue.schedule(t + d, std::hint::black_box(ev));
        }
    }
}

/// `i = next[i]` around a single cycle through every slot.
struct ChaseLoop {
    next: Vec<u32>,
    at: u32,
}

impl ChaseLoop {
    /// Slots of four bytes: 8 MB.
    const SLOTS: usize = 2 << 20;

    fn new() -> ChaseLoop {
        // Sattolo's shuffle: a uniformly random single cycle, so the
        // chase visits all 8 MB before it repeats.
        let mut next: Vec<u32> = (0..Self::SLOTS as u32).collect();
        let mut rng = 0x00c0_ffee_u64;
        for i in (1..Self::SLOTS).rev() {
            rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            next.swap(i, (splitmix64(rng) % i as u64) as usize);
        }
        ChaseLoop { next, at: 0 }
    }

    fn run(&mut self, ops: u64) {
        let mut at = self.at;
        for _ in 0..ops {
            at = self.next[at as usize];
        }
        self.at = std::hint::black_box(at);
    }
}

thread_local! {
    // Per thread: harness workers calibrate their own jobs. Built on
    // first use, so a thread pays only for the loop it runs.
    static HEAP: RefCell<Option<HeapLoop>> = const { RefCell::new(None) };
    static CHASE: RefCell<Option<ChaseLoop>> = const { RefCell::new(None) };
}

/// Runs one slice of `yardstick` on this thread; returns its seconds.
fn slice_secs(yardstick: Yardstick) -> f64 {
    /// Times `run` on the thread's loop, built (untimed) on first use.
    fn timed<L>(cell: &RefCell<Option<L>>, new: fn() -> L, run: impl FnOnce(&mut L)) -> f64 {
        let mut cell = cell.borrow_mut();
        let yardstick = cell.get_or_insert_with(new);
        let t0 = now();
        run(yardstick);
        t0.elapsed().as_secs_f64()
    }
    let ops = yardstick.slice_ops();
    match yardstick {
        Yardstick::Heap => HEAP.with(|c| timed(c, HeapLoop::new, |y| y.run(ops))),
        Yardstick::Chase => CHASE.with(|c| timed(c, ChaseLoop::new, |y| y.run(ops))),
    }
}

/// One timed segment with the yardstick readings that bracket it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Segment {
    /// Raw wall seconds of the bracketed work (yardstick excluded).
    pub secs: f64,
    /// `nominal / mean reading` of the bracketing slices: what raw time
    /// is multiplied by; below 1 on a slow host.
    pub factor: f64,
    /// Mean reading of the bracketing slices, ns per operation.
    pub ref_ns: f64,
    /// Seconds the two yardstick slices took.
    pub ref_secs: f64,
}

impl Segment {
    /// Calibrated seconds of the bracketed work.
    pub fn cal_secs(&self) -> f64 {
        self.secs * self.factor
    }
}

/// Runs `f` between two slices of `yardstick` on the calling thread.
pub fn bracket<T>(yardstick: Yardstick, f: impl FnOnce() -> T) -> (T, Segment) {
    let before = slice_secs(yardstick);
    let t0 = now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    let after = slice_secs(yardstick);
    let ref_secs = before + after;
    let ref_ns = ref_secs * 1e9 / (2 * yardstick.slice_ops()) as f64;
    let seg = Segment {
        secs,
        factor: yardstick.nominal_ns() / ref_ns,
        ref_ns,
        ref_secs,
    };
    (out, seg)
}

/// What a region made of `segments` (plus untimed glue between them)
/// is multiplied by: the segments' factors weighted by their duration.
/// 1 for an empty region.
pub fn factor(segments: &[Segment]) -> f64 {
    let secs: f64 = segments.iter().map(|s| s.secs).sum();
    if secs == 0.0 {
        1.0
    } else {
        segments.iter().map(Segment::cal_secs).sum::<f64>() / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bracket_times_the_work_not_the_yardstick() {
        for yardstick in [Yardstick::Heap, Yardstick::Chase] {
            let (out, seg) = bracket(yardstick, || 7);
            assert_eq!(out, 7);
            assert!(seg.ref_ns > 0.0 && seg.ref_secs > 0.0 && seg.factor > 0.0);
            // The closure does nothing: its time is far below a slice's.
            assert!(seg.secs < seg.ref_secs);
            assert!((seg.factor - yardstick.nominal_ns() / seg.ref_ns).abs() < 1e-12);
        }
    }

    #[test]
    fn the_chase_is_one_cycle_through_every_slot() {
        let chase = ChaseLoop::new();
        let mut seen = vec![false; ChaseLoop::SLOTS];
        let mut at = 0u32;
        for _ in 0..ChaseLoop::SLOTS {
            assert!(!seen[at as usize], "cycle shorter than the buffer");
            seen[at as usize] = true;
            at = chase.next[at as usize];
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn factor_weights_segments_by_duration() {
        let seg = |secs, factor| Segment {
            secs,
            factor,
            ref_ns: 0.0,
            ref_secs: 0.0,
        };
        assert_eq!(factor(&[]), 1.0);
        assert_eq!(factor(&[seg(2.0, 1.0)]), 1.0);
        // A host twice as slow halves every second.
        assert_eq!(factor(&[seg(2.0, 0.5)]), 0.5);
        // 3 s at factor 1 and 1 s at factor 0.5 → 3.5 / 4.
        assert!((factor(&[seg(3.0, 1.0), seg(1.0, 0.5)]) - 0.875).abs() < 1e-12);
    }
}
