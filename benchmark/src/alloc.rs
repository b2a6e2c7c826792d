//! Counting global allocator: the benchmark's deterministic cost proxy.
//!
//! Every allocation and reallocation made by the calling thread bumps a
//! thread-local counter, so `allocs()` read before and after a call into a
//! layer gives that layer's allocator calls exactly, run after run. The
//! counter is thread-local (const-initialised, so reading it never
//! allocates): fleet shards and the scrape server run on their own threads
//! and must not leak into the profile loop's counts. This is the crate's
//! only `unsafe` code; it forwards each call unchanged to the system
//! allocator, the same shape as `crates/tsdb/tests/alloc_free.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` contract carries over as is; the counter
// update touches only a const-initialised thread-local `Cell`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls (allocations plus reallocations) made so far by the
/// current thread.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
