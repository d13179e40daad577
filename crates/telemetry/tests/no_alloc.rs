//! Proves the hot-path `record_*` calls are heap-allocation-free: a
//! counting global allocator observes zero allocations across millions
//! of recordings. (Lock-freedom is by construction — every path is
//! relaxed/release atomics only; see the module docs in the crate.)

// The zero-allocation property holds for the production atomics. Under
// `--features model-check` the sync facade swaps in the checker's
// instrumented shims, whose fallback path records per-atomic store
// history on the heap — an artifact of the test double, not a hot-path
// regression — so this proof only runs with default features.
#![cfg(not(feature = "model-check"))]
#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use persephone_telemetry::{DispatchKind, Telemetry, TelemetryConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// Allocations made by *this thread*. The global counter would also see
// the libtest harness thread, whose mpmc channel lazily allocates its
// park context the first time it blocks waiting for the test result —
// a race that lands inside the measured window often enough to flake.
// The test drives recording on its own thread, so the thread-local view
// is exactly the recording path's behavior. Const-initialized: first
// access on a thread touches TLS, never the heap, so reading it from
// inside the allocator hook cannot recurse.
thread_local! {
    static THREAD_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn count_here() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

// SAFETY: delegates everything to the system allocator unchanged; the
// counters are a relaxed atomic and a const-init thread-local `Cell`,
// safe from any context.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: the caller upholds `GlobalAlloc`'s contract; forwarded.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_here();
        // SAFETY: forwarding the caller's contract to `System`.
        unsafe { System.alloc(layout) }
    }
    // SAFETY: the caller upholds `GlobalAlloc`'s contract; forwarded.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarding the caller's contract to `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
    // SAFETY: the caller upholds `GlobalAlloc`'s contract; forwarded.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_here();
        // SAFETY: forwarding the caller's contract to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn recording_never_allocates() {
    // Construction allocates (fixed footprint, done once)...
    let t = Telemetry::new(TelemetryConfig::new(4, 8));
    let before = thread_allocs();
    // ...recording must not, even when the event ring wraps many times.
    for i in 0..2_000_000u64 {
        let ty = (i % 5) as usize; // includes the UNKNOWN slot
        let worker = (i % 8) as usize;
        t.record_arrival(ty);
        t.record_queue_depth(ty, i % 33);
        let kind = match i % 4 {
            0 => DispatchKind::Reserved,
            1 => DispatchKind::Stolen,
            2 => DispatchKind::Spillway,
            _ => DispatchKind::Fcfs,
        };
        t.record_dispatch(ty, worker, kind, i);
        t.record_completion(ty, worker, 1 + i % 100_000, 1 + i % 10_000);
        t.record_worker_busy(worker, 1 + i % 10_000);
        if i % 1000 == 0 {
            t.record_drop(ty, i % 64, i);
            t.record_reservation_update(i, i / 1000, 42, &[1, 2, 3, 4], &[4, 3, 2, 1]);
        }
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "hot-path recording performed {} heap allocations",
        after - before
    );
    // Sanity: the work above was actually recorded. Each of the 5 type
    // slots took 100 000 steals and 100 000 spillway hits, of which the
    // ring logs the 1st, 65th, … (⌈100 000 / 64⌉ apiece); every drop and
    // reservation update (2 000 each) is logged.
    let snap = t.snapshot();
    assert_eq!(snap.completions(), 2_000_000);
    let slots = || snap.types.iter().chain(snap.unknown.iter());
    assert_eq!(slots().map(|s| s.counters.steals).sum::<u64>(), 500_000);
    assert_eq!(
        snap.events.pushed,
        5 * 2 * 100_000u64.div_ceil(64) + 2 * 2_000
    );
}
