//! A per-thread counting allocator.
//!
//! `net.run_allocs_per_event` needs the allocations made by one job's
//! event loop while other worker threads run other jobs, so the count
//! is thread-local (the bench crate's `CountingAllocator` keeps one
//! process-wide atomic, which both mixes the jobs and makes workers
//! contend on a cache line inside the timed region). A const-initialised
//! `Cell<u64>` without a destructor costs one plain increment per
//! allocation and never allocates itself, so the allocator stays
//! installed for untraced runs too.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations and reallocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

#[inline]
fn note() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// [`System`] plus the per-thread count behind [`thread_allocs`].
pub struct ThreadCountingAllocator;

// SAFETY: every operation is delegated unchanged to `System`; the only
// addition is an increment of a const-initialised, destructor-free
// thread-local `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for ThreadCountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
