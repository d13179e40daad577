//! Proves the arrival generator is heap-allocation-free once built: a
//! counting global allocator observes zero allocations across 100 k
//! arrivals of a two-phase workload with burst modulation and a type
//! whose ratio drops to zero. Every figure, scenario trace and benchmark
//! pass draws its requests from `ArrivalGen`, so a per-arrival allocation
//! there is paid millions of times per run.

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};

use persephone_core::dist::Dist;
use persephone_core::time::Nanos;
use persephone_core::types::TypeId;
use persephone_sim::workload::{ArrivalGen, BurstModel, Phase, PhasedWorkload, TypeMix, Workload};

struct CountingAlloc;

// Allocations made by *this thread*: the libtest harness thread allocates
// on its own schedule, so only the test thread's own count is exact.
// Const-initialized: first access on a thread touches TLS, never the
// heap, so reading it from inside the allocator hook cannot recurse.
thread_local! {
    static THREAD_ALLOCS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn count_here() {
    THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

// SAFETY: delegates everything to the system allocator unchanged; the
// counter is a const-init thread-local `Cell`, safe from any context.
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

const ARRIVALS: u64 = 100_000;

#[test]
fn arrivals_never_allocate_after_construction() {
    let mix = |short: f64, long: f64| {
        Workload::new(
            "two-phase",
            vec![
                TypeMix::new("SHORT", short, Dist::const_micros(1.0)),
                TypeMix::new("LONG", long, Dist::Exponential(Nanos::from_micros(10))),
            ],
        )
    };
    // At 4 workers and load 0.5, phase 1 offers ~1 M req/s, so its 30 ms
    // end about a third of the way into the measured arrivals; phase 2
    // has no LONG requests at all.
    let phase_one = Nanos::from_millis(30);
    let pw = PhasedWorkload::new(vec![
        Phase {
            duration: phase_one,
            workload: mix(0.9, 0.1),
            load: 0.5,
        },
        Phase {
            duration: Nanos::from_secs(10),
            workload: mix(1.0, 0.0),
            load: 0.5,
        },
    ]);
    let mut gen = ArrivalGen::phased(&pw, 4, 7).with_bursts(BurstModel {
        calm_mean: Nanos::from_millis(5),
        burst_mean: Nanos::from_millis(1),
        amplification: 3.0,
    });
    assert!(thread_allocs() > 0, "allocator is counting");

    let before = thread_allocs();
    let (mut last, mut in_phase_two, mut long_in_phase_two) = (Nanos::ZERO, 0u64, 0u64);
    for _ in 0..ARRIVALS {
        let a = gen
            .next()
            .expect("the script outlasts the measured arrivals");
        if a.at >= phase_one {
            in_phase_two += 1;
            long_in_phase_two += u64::from(a.ty == TypeId::new(1));
        }
        last = a.at;
    }
    let allocs = thread_allocs() - before;

    assert_eq!(
        allocs, 0,
        "{ARRIVALS} arrivals performed {allocs} heap allocations"
    );
    assert!(
        in_phase_two > 0 && last >= phase_one,
        "the measured arrivals must cross the phase boundary"
    );
    assert_eq!(long_in_phase_two, 0, "a zero-ratio type is never drawn");
}
