//! Multi-seed parallelism: farm independent simulation runs across OS
//! threads, merge results deterministically.
//!
//! Every figure pools statistics over many independent seeds, and each
//! seed's run is a pure function of `(scenario, seed)` — embarrassingly
//! parallel. [`run_seeds`] executes a per-seed job on a small worker
//! pool and returns the results **in seed order**, so any fold over them
//! is bit-for-bit identical to a serial loop no matter how the OS
//! schedules the workers. The kernel itself stays sequential (that is
//! what buys exact reproducibility); parallelism lives strictly at the
//! whole-run granularity.
//!
//! Thread count comes from [`Parallelism`]: explicit, or
//! [`Parallelism::auto`] honoring the `AG_THREADS` environment variable
//! and, when it is unset, using the machine's available parallelism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many worker threads a sweep may use.
///
/// # Example
///
/// ```
/// use ag_harness::Parallelism;
/// assert_eq!(Parallelism::serial().threads(), 1);
/// assert!(Parallelism::auto().threads() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// Exactly `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        Parallelism { threads }
    }

    /// One worker: the plain serial loop.
    pub fn serial() -> Self {
        Parallelism::new(1)
    }

    /// `AG_THREADS` if set, otherwise the machine's available
    /// parallelism (1 if unknown). Like every `AG_*` knob, a value that
    /// is not a plain integer — here of at least 1 — ends the process
    /// with status 2 and one line naming it.
    pub fn auto() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = crate::report::env_knob("AG_THREADS", 1, cores as u64);
        Parallelism::new(usize::try_from(threads).unwrap_or(usize::MAX))
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// Runs `job(seed)` for every seed in `0..seeds` on up to
/// [`Parallelism::threads`] workers and returns the results **indexed
/// by seed**, regardless of completion order.
///
/// Seeds are handed out through a shared atomic counter (dynamic load
/// balancing — seeds vary a lot in wall-clock cost), but the output
/// order is fixed, so folds over the returned vector are deterministic.
///
/// # Example
///
/// ```
/// use ag_harness::{run_seeds, Parallelism};
///
/// // Four workers, results still indexed by seed.
/// let squares = run_seeds(8, Parallelism::new(4), |seed| seed * seed);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
///
/// // Identical to the serial loop, whatever the pool size.
/// let serial = run_seeds(8, Parallelism::serial(), |seed| seed * seed);
/// assert_eq!(squares, serial);
/// ```
pub fn run_seeds<T, F>(seeds: u64, par: Parallelism, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let n = usize::try_from(seeds).expect("seed count overflows usize");
    let workers = par.threads().min(n.max(1));
    if workers <= 1 {
        return (0..seeds).map(job).collect();
    }
    let next = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let seed = next.fetch_add(1, Ordering::Relaxed);
                if seed >= seeds {
                    break;
                }
                let out = job(seed);
                *slots[seed as usize].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped a seed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        let _ = Parallelism::new(0);
    }

    #[test]
    fn results_come_back_in_seed_order() {
        for threads in [1, 2, 8] {
            let out = run_seeds(16, Parallelism::new(threads), |seed| {
                // Skew per-seed cost so completion order scrambles.
                #[allow(clippy::disallowed_methods)]
                // ag-lint: allow(wall-clock) -- deliberate skew; tests seed-order merge, not timing
                std::thread::sleep(std::time::Duration::from_micros((16 - seed) * 200));
                seed * 10
            });
            let expected: Vec<u64> = (0..16).map(|s| s * 10).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn more_workers_than_seeds_is_fine() {
        let out = run_seeds(2, Parallelism::new(16), |s| s);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn zero_seeds_yields_empty() {
        let out = run_seeds(0, Parallelism::new(4), |s| s);
        assert!(out.is_empty());
    }
}
