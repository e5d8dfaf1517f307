//! A counting global allocator for the zero-allocation proof.
//!
//! Compiled unconditionally but inert until installed: only a binary
//! that declares [`CountingAllocator`] as its `#[global_allocator]`
//! pays for the counting, and `tests/zero_alloc.rs` is the one binary
//! in the workspace that does (`agbench` has a per-thread counter of its
//! own for `net.run_allocs_per_event`). The test reads
//! [`CountingAllocator::count`] deltas around each measured window.
//! Allocation counts — unlike nanoseconds — are deterministic for this
//! workspace's deterministic simulations, so the assertion is an exact
//! `== 0`, with no tolerance.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`System`]-backed allocator that counts every allocation and
/// reallocation (frees are not counted: the diet target is "no new
/// heap traffic per event", and every steady-state free implies a
/// matching alloc).
pub struct CountingAllocator {
    allocs: AtomicU64,
}

impl CountingAllocator {
    /// A fresh counter at zero (`const`, so it can initialise a
    /// `static`).
    pub const fn new() -> Self {
        CountingAllocator {
            allocs: AtomicU64::new(0),
        }
    }

    /// Total allocations + reallocations observed since program start.
    pub fn count(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }
}

impl Default for CountingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates every operation unchanged to `System`; the only
// addition is a relaxed atomic increment, which allocates nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
