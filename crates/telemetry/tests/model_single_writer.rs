//! Model-checked tests for the telemetry write discipline.
//!
//! Every telemetry cell but one has a single writing thread, so an
//! increment is a plain load and store instead of a `lock`-prefixed
//! RMW. These tests run the shipped `Telemetry` under the checker: one
//! writer recording while the main thread snapshots must never show a
//! counter going backwards and must be exact once joined, and the one
//! cell with two writers (`rx_malformed`) must lose no increment.

#![cfg(feature = "model-check")]

use persephone_check::{model, model_with, thread, Config};
use persephone_telemetry::{DispatchKind, Snapshot, Telemetry, TelemetryConfig};
use std::sync::Arc;

/// The smallest registry: one type (+ UNKNOWN), one worker, 128-bucket
/// histograms and a 2-slot ring, so a snapshot is ~550 atomic loads.
fn tiny() -> Arc<Telemetry> {
    Arc::new(Telemetry::new(TelemetryConfig {
        num_types: 1,
        num_workers: 1,
        precision_bits: 1,
        ring_capacity: 2,
    }))
}

/// Every counter and histogram count a snapshot carries, in a fixed
/// order.
fn counts(s: &Snapshot) -> Vec<u64> {
    let mut v = Vec::new();
    for t in s.types.iter().chain(s.unknown.iter()) {
        let c = &t.counters;
        v.extend([
            c.arrivals,
            c.dispatches,
            c.steals,
            c.spillway_hits,
            c.drops,
            c.expired,
            c.completions,
            c.queue_depth_hwm,
            t.sojourn.count(),
            t.service.count(),
        ]);
    }
    for w in &s.workers {
        v.extend([
            w.dispatches,
            w.steals,
            w.completions,
            w.busy_ns,
            w.quarantines,
            w.tx_give_ups,
        ]);
    }
    v.extend([s.events.pushed, s.rx_malformed]);
    v
}

/// Interleavings only: one preemption, every load sees the newest store.
///
/// A snapshot is ~550 scheduling points, so two preemptions (or the
/// checker's stale-value exploration, which multiplies per cell read)
/// overrun the execution budget. Staleness cannot find anything here
/// anyway: each cell has one writer, so coherence alone keeps a
/// reader's successive loads of it from going backwards, and that is
/// what the checker models. The interleavings are what matter.
fn interleavings() -> Config {
    Config {
        preemption_bound: 1,
        stale_budget: 0,
        ..Config::default()
    }
}

/// What the writer records, with the queue-depth mark rising to 3 and
/// then offered a lower depth it must ignore.
fn record_some(tel: &Telemetry) {
    for i in 0..2 {
        tel.record_arrival(0);
        tel.record_queue_depth(0, 3 - 2 * i);
        tel.record_dispatch(0, 0, DispatchKind::Stolen, i);
        tel.record_completion(0, 0, 10 + i, 5);
    }
}

/// The counts after [`record_some`], exactly.
fn assert_exact(done: &Snapshot) {
    let ty = &done.types[0];
    assert_eq!(ty.counters.arrivals, 2);
    assert_eq!(ty.counters.queue_depth_hwm, 3);
    assert_eq!(ty.counters.steals, 2);
    assert_eq!(ty.counters.completions, 2);
    assert_eq!(ty.sojourn.count(), 2);
    assert_eq!(ty.service.count(), 2);
    assert_eq!(done.workers[0].steals, 2);
    assert_eq!(done.workers[0].completions, 2);
    // Only the type's first steal reaches the ring.
    assert_eq!(done.events.pushed, 1);
    assert_eq!(done.events.events.len(), 1);
}

/// `later` is nowhere behind `earlier`.
fn assert_not_behind(earlier: &[u64], later: &[u64]) {
    for (i, (a, b)) in earlier.iter().zip(later).enumerate() {
        assert!(b >= a, "count {i} went backwards: {a} -> {b}");
    }
}

/// A writer thread records arrivals, queue depths, stolen dispatches and
/// completions while the main thread snapshots twice: the writer's
/// batch may land before, between, or in the middle of either
/// snapshot. The second snapshot is never behind the first, and after
/// the join every count is exact.
#[test]
fn single_writer_counts_are_monotone_and_exact_after_join() {
    model_with(interleavings(), || {
        let tel = tiny();
        let writer = {
            let tel = tel.clone();
            thread::spawn(move || record_some(&tel))
        };
        let first = counts(&tel.snapshot());
        let second = counts(&tel.snapshot());
        assert_not_behind(&first, &second);
        writer.join();
        let done = tel.snapshot();
        assert_not_behind(&second, &counts(&done));
        assert_exact(&done);
    });
}

/// The same contract seen from the other side: a reader thread takes
/// both snapshots while the main thread is stopped after any one of its
/// writes, so every partial state of the writer is read. None may be
/// ahead of the final counts — a cell that rose and fell (a high-water
/// mark overwritten by a lower depth, say) fails here.
#[test]
fn every_partial_write_state_reads_monotone() {
    model_with(interleavings(), || {
        let tel = tiny();
        let reader = {
            let tel = tel.clone();
            thread::spawn(move || {
                let first = counts(&tel.snapshot());
                let second = counts(&tel.snapshot());
                assert_not_behind(&first, &second);
                second
            })
        };
        record_some(&tel);
        let seen = reader.join();
        let done = tel.snapshot();
        assert_not_behind(&seen, &counts(&done));
        assert_exact(&done);
    });
}

/// `rx_malformed` is the one cell both the dispatcher and the workers
/// write, so it keeps its `fetch_add`: two racing writers must total
/// exactly 2 under every interleaving.
#[test]
fn two_writer_rx_malformed_loses_no_increment() {
    model(|| {
        let tel = tiny();
        let worker = {
            let tel = tel.clone();
            thread::spawn(move || tel.record_rx_malformed())
        };
        tel.record_rx_malformed();
        worker.join();
        assert_eq!(tel.snapshot().rx_malformed, 2);
    });
}
