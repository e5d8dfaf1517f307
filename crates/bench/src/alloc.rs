//! A counting global allocator for the zero-allocation proof and the
//! per-node heap budget.
//!
//! Compiled unconditionally but inert until installed: only a binary
//! that declares [`CountingAllocator`] as its `#[global_allocator]`
//! pays for the counting — `tests/zero_alloc.rs` and
//! `tests/heap_budget.rs` in this crate (`agbench` has a per-thread
//! counter of its own for `net.run_allocs_per_event`). The zero-alloc
//! test reads [`CountingAllocator::count`] deltas around each measured
//! window; the budget test reads [`CountingAllocator::peak`] over a run.
//! Allocation counts and byte totals — unlike nanoseconds — are
//! deterministic for this workspace's deterministic simulations (given
//! one thread allocating), so both assertions are exact, with no
//! tolerance.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A [`System`]-backed allocator that counts every allocation and
/// reallocation (frees are not counted: the diet target is "no new
/// heap traffic per event", and every steady-state free implies a
/// matching alloc), and tracks the bytes live and their high water.
/// Bytes are the sizes asked for, reserved capacity included; the
/// allocator's own overhead and the pages the process holds (RSS) are
/// not seen.
pub struct CountingAllocator {
    allocs: AtomicU64,
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAllocator {
    /// A fresh counter at zero (`const`, so it can initialise a
    /// `static`).
    pub const fn new() -> Self {
        CountingAllocator {
            allocs: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Total allocations + reallocations observed since program start.
    pub fn count(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }

    /// Bytes allocated and not yet freed.
    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// The most bytes live at once since program start or the last
    /// [`CountingAllocator::reset_peak`].
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restarts the high water at the bytes live now.
    pub fn reset_peak(&self) {
        self.peak.store(self.live(), Ordering::Relaxed);
    }

    fn grew(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrank(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates every operation unchanged to `System`; the only
// additions are relaxed atomic updates, which allocate nothing. Bytes
// are counted only for a call that succeeded.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            self.grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        self.shrank(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            self.grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => self.grew(more),
                None => self.shrank(layout.size() - new_size),
            }
        }
        new
    }
}
