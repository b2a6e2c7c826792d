//! Proof that the steady-state ingest path is allocation-free: with series
//! handles resolved and capacity reserved, a batch of [`tsdb::Db::ingest`]
//! calls must hit the global allocator exactly zero times. This is the
//! tentpole guarantee of the columnar store (see PERFORMANCE.md) and the
//! runtime counterpart of pflint's `hot-path-alloc` rule.
//!
//! Counters are thread-local (const-initialized TLS, so reading them never
//! allocates): the libtest harness runs its own threads, and a process-
//! global count would pick up their background allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tsdb::Db;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

#[expect(
    unsafe_code,
    reason = "a GlobalAlloc impl cannot be written without unsafe"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> (u64, u64) {
    (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get))
}

#[test]
fn steady_state_ingest_performs_zero_allocations() {
    const EPOCHS: usize = 1_024;

    let mut db = Db::new();
    // Cold path: resolve handles (interns strings, builds columns) and
    // reserve capacity for the whole batch up front.
    let paths = ["DRd", "RFO", "HW PF", "SW PF"];
    let mut handles = Vec::new();
    for core in 0..2u32 {
        let core_s = core.to_string();
        for p in &paths {
            handles.push(db.series_handle(
                "path_set",
                &[("core", core_s.as_str()), ("path", p), ("dst", "LLC")],
                &["hits"],
            ));
        }
    }
    for &id in &handles {
        db.reserve(id, EPOCHS);
    }

    // Hot path: the per-epoch grid the materializer emits. Must not touch
    // the allocator at all.
    let (a0, r0) = alloc_count();
    for e in 0..EPOCHS {
        let ts = (e as u64) * 10_000;
        for (i, &id) in handles.iter().enumerate() {
            db.ingest(id, ts, &[(e * i) as f64]);
        }
    }
    let (a1, r1) = alloc_count();

    assert_eq!(
        (a1 - a0, r1 - r0),
        (0, 0),
        "steady-state ingest must be allocation-free (allocs: {}, reallocs: {})",
        a1 - a0,
        r1 - r0
    );
    assert_eq!(db.len(), EPOCHS * handles.len());
}
