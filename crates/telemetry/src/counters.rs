//! Per-type and per-worker counter sets.
//!
//! Each set lives in its own [`CachePadded`] slot so two workers (or two
//! request types served by different cores) never contend on a cache
//! line. Every cell has exactly one writing thread — the shard's
//! dispatcher for everything but a worker's own `busy_ns` and
//! `tx_give_ups` — so an increment is a plain load and store: no
//! `lock`-prefixed RMW, no allocation. Any thread may read.
//!
//! [`CachePadded`]: crate::CachePadded

use crate::sync::{AtomicU64, Ordering};

/// Adds `n` to a cell that only the calling thread ever writes, and
/// returns the new value.
///
/// A load and a store instead of a `fetch_add`: with one writer nothing
/// can land between the two, so no update is lost, and the `lock` prefix
/// — the whole cost of a relaxed RMW on x86 — is gone. Concurrent
/// readers still see every value whole and never going backwards.
/// A cell with two writers must keep its `fetch_add`.
#[inline]
pub(crate) fn bump(cell: &AtomicU64, n: u64) -> u64 {
    // audit:ordering: one writer, so the values are monotone and never
    // torn; nothing is published through a statistics cell
    let v = cell.load(Ordering::Relaxed) + n;
    cell.store(v, Ordering::Relaxed);
    v
}

/// Counters tracked per request type.
#[derive(Debug, Default)]
pub struct TypeCounters {
    /// Requests classified and enqueued as this type.
    pub arrivals: AtomicU64,
    /// Requests dispatched from this type's queue to a reserved worker.
    pub dispatches: AtomicU64,
    /// Requests of this type served by a cycle-steal (a worker outside
    /// the type's guaranteed set).
    pub steals: AtomicU64,
    /// Requests of this type routed through the spillway path.
    pub spillway_hits: AtomicU64,
    /// Requests of this type dropped (typed queue full).
    pub drops: AtomicU64,
    /// Requests of this type expired by deadline shedding (queueing delay
    /// exceeded the type's deadline) or shed at shutdown — the `timeouts`
    /// counter family of overload control.
    pub expired: AtomicU64,
    /// Requests of this type completed by a worker.
    pub completions: AtomicU64,
    /// High-water mark of this type's queue depth.
    pub queue_depth_hwm: AtomicU64,
}

impl TypeCounters {
    /// Bumps the queue-depth high-water mark if `depth` exceeds it.
    /// A load, a compare and a store: single-writer like every cell here.
    #[inline]
    pub fn observe_queue_depth(&self, depth: u64) {
        // audit:ordering: one writer, as in `bump`; the mark only rises
        if depth > self.queue_depth_hwm.load(Ordering::Relaxed) {
            self.queue_depth_hwm.store(depth, Ordering::Relaxed);
        }
    }

    /// Copies the current values into a plain snapshot.
    ///
    /// Every load below is Relaxed: each counter is an independent
    /// monotone statistic, nothing is published through them, and a
    /// snapshot is approximate under load by design (exact once the
    /// caller happens-after the recorders, e.g. after joining workers).
    pub fn snapshot(&self) -> TypeCountersSnap {
        TypeCountersSnap {
            // audit:ordering: independent statistics reads (see above)
            arrivals: self.arrivals.load(Ordering::Relaxed),
            dispatches: self.dispatches.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            // audit:ordering: independent statistics reads (see above)
            spillway_hits: self.spillway_hits.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            // audit:ordering: independent statistics reads (see above)
            completions: self.completions.load(Ordering::Relaxed),
            queue_depth_hwm: self.queue_depth_hwm.load(Ordering::Relaxed),
        }
    }
}

/// Frozen copy of [`TypeCounters`] (same field meanings).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct TypeCountersSnap {
    pub arrivals: u64,
    pub dispatches: u64,
    pub steals: u64,
    pub spillway_hits: u64,
    pub drops: u64,
    pub expired: u64,
    pub completions: u64,
    pub queue_depth_hwm: u64,
}

impl TypeCountersSnap {
    /// Merges another snapshot into this one (sums; HWM takes the max).
    pub fn merge(&mut self, other: &TypeCountersSnap) {
        self.arrivals += other.arrivals;
        self.dispatches += other.dispatches;
        self.steals += other.steals;
        self.spillway_hits += other.spillway_hits;
        self.drops += other.drops;
        self.expired += other.expired;
        self.completions += other.completions;
        self.queue_depth_hwm = self.queue_depth_hwm.max(other.queue_depth_hwm);
    }
}

/// Counters tracked per worker core.
#[derive(Debug, Default)]
pub struct WorkerCounters {
    /// Requests dispatched to this worker from its reserved types.
    pub dispatches: AtomicU64,
    /// Requests this worker served via cycle-steal or spillway.
    pub steals: AtomicU64,
    /// Requests this worker completed.
    pub completions: AtomicU64,
    /// Nanoseconds this worker spent executing handlers (recorded on the
    /// worker's own completion path, so it reflects measured service).
    pub busy_ns: AtomicU64,
    /// Times this worker was quarantined (in-flight request ran far past
    /// its type's profiled mean service time).
    pub quarantines: AtomicU64,
    /// Transmissions this worker abandoned after bounded send retries.
    pub tx_give_ups: AtomicU64,
}

impl WorkerCounters {
    /// Copies the current values into a plain snapshot. Relaxed for the
    /// same reason as [`TypeCounters::snapshot`]: independent monotone
    /// statistics, approximate under load by design.
    pub fn snapshot(&self) -> WorkerCountersSnap {
        WorkerCountersSnap {
            // audit:ordering: independent statistics reads (see above)
            dispatches: self.dispatches.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            completions: self.completions.load(Ordering::Relaxed),
            // audit:ordering: independent statistics reads (see above)
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
            tx_give_ups: self.tx_give_ups.load(Ordering::Relaxed),
        }
    }
}

/// Frozen copy of [`WorkerCounters`] (same field meanings).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct WorkerCountersSnap {
    pub dispatches: u64,
    pub steals: u64,
    pub completions: u64,
    pub busy_ns: u64,
    pub quarantines: u64,
    pub tx_give_ups: u64,
}

impl WorkerCountersSnap {
    /// Merges another snapshot into this one (field-wise sums).
    pub fn merge(&mut self, other: &WorkerCountersSnap) {
        self.dispatches += other.dispatches;
        self.steals += other.steals;
        self.completions += other.completions;
        self.busy_ns += other.busy_ns;
        self.quarantines += other.quarantines;
        self.tx_give_ups += other.tx_give_ups;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hwm_is_monotone() {
        let c = TypeCounters::default();
        c.observe_queue_depth(5);
        c.observe_queue_depth(3);
        assert_eq!(c.snapshot().queue_depth_hwm, 5);
        c.observe_queue_depth(9);
        assert_eq!(c.snapshot().queue_depth_hwm, 9);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = TypeCountersSnap {
            arrivals: 1,
            dispatches: 2,
            steals: 3,
            spillway_hits: 4,
            drops: 5,
            expired: 6,
            completions: 6,
            queue_depth_hwm: 7,
        };
        let b = TypeCountersSnap {
            arrivals: 10,
            dispatches: 20,
            steals: 30,
            spillway_hits: 40,
            drops: 50,
            expired: 1,
            completions: 60,
            queue_depth_hwm: 3,
        };
        a.merge(&b);
        assert_eq!(a.arrivals, 11);
        assert_eq!(a.expired, 7);
        assert_eq!(a.completions, 66);
        assert_eq!(a.queue_depth_hwm, 7);
    }

    #[test]
    fn worker_merge_sums_overload_counters() {
        let w = WorkerCounters::default();
        w.quarantines.fetch_add(2, Ordering::Relaxed);
        w.tx_give_ups.fetch_add(3, Ordering::Relaxed);
        let mut a = w.snapshot();
        a.merge(&w.snapshot());
        assert_eq!(a.quarantines, 4);
        assert_eq!(a.tx_give_ups, 6);
    }
}
