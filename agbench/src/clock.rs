//! Host-side measurement primitives: the wall clock and the process's
//! resident-set size. The only module of the benchmark that reads the
//! host clock, so the repository's wall-clock lint needs one waiver.

use std::sync::OnceLock;
use std::time::Instant;

/// The host's monotonic clock.
#[allow(clippy::disallowed_methods)] // benchmark code measures wall time by design (docs/LINTS.md)
#[inline]
pub fn now() -> Instant {
    // ag-lint: allow(wall-clock) -- the benchmark's single clock read; simulations tell time via SimTime only
    Instant::now()
}

/// Nanoseconds since the first call in this process; the time base of
/// raw trace spans, shared by every thread.
#[inline]
pub fn epoch_ns(at: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(now);
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`) in kB; 0 where
/// procfs is missing.
pub fn status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Wall seconds spent in `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readers_return_plausible_values() {
        if !std::path::Path::new("/proc/self/status").exists() {
            return;
        }
        // (No HWM >= RSS assertion: the kernel batches per-thread RSS
        // updates, so two reads taken while other tests allocate can
        // momentarily disagree.)
        assert!(status_kb("VmHWM") > 0);
        assert!(status_kb("VmRSS") > 0);
        assert_eq!(status_kb("NoSuchField"), 0);
        let (out, wall) = timed(|| std::hint::black_box(3) + 4);
        assert_eq!(out, 7);
        assert!(wall >= 0.0);
    }

    #[test]
    fn epoch_is_monotone() {
        let a = epoch_ns(now());
        let b = epoch_ns(now());
        assert!(b >= a);
    }
}
