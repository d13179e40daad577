//! The engine core every scheduling policy shares, and the [`Select`]
//! rule a policy plugs into it.
//!
//! [`EngineCore`] owns what the paper's Algorithm 1 calls "typed queues
//! plus free workers" and everything built around them: the queue lanes,
//! the arrival sequence counter, the `WorkerTable`, the profiler, the
//! overload knobs, the expired buffer, per-type pending/drop counters and
//! the telemetry hooks. Its verbs — `admit`, `place`, `finish`, `expire`,
//! `health`, `drain` — are the bodies behind the
//! [`ScheduleEngine`](super::ScheduleEngine) methods of
//! [`Engine`](super::Engine).
//!
//! A policy is a [`Select`] impl. It states its lane layout, picks
//! `(lane, worker, kind)` from the cached lane-head sequence numbers and
//! the worker bytes, and optionally overrides what happens after a
//! completion. It never pops a queue or touches a counter itself.

use std::sync::Arc;

use persephone_telemetry::{DispatchKind, Telemetry};

use super::engine::{Dispatch, EngineReport};
use super::{EngineConfig, OverloadConfig};
use crate::arena::ArenaRing;
use crate::profile::Profiler;
use crate::queue::TypedQueue;
use crate::time::Nanos;
use crate::types::{TypeId, WorkerId};

/// Telemetry slot for `ty` (UNKNOWN and out-of-range types map to the
/// registry's overflow slot at index `num_types`).
#[inline]
pub(crate) fn tslot(ty: TypeId, num_types: usize) -> usize {
    if ty.is_unknown() {
        num_types
    } else {
        ty.index().min(num_types)
    }
}

/// One placement decision of a [`Select`] rule: pop the head of `lane`
/// and run it on `worker`, recorded as `kind`.
pub type Pick = (usize, WorkerId, DispatchKind);

/// A scheduling policy, reduced to what distinguishes it: which lanes
/// exist, which arrival joins which lane, and which lane head goes to
/// which worker.
///
/// Rules are statically dispatched — [`Engine<R, S>`](super::Engine)
/// monomorphizes per policy, so the per-packet path never pays `dyn`.
pub trait Select: Send + Sized {
    /// Short display name of the policy ("DARC", "c-FCFS", "SJF", ...).
    const NAME: &'static str;

    /// Builds the rule over a freshly built `core` (priority orders,
    /// boot-time reservations, per-policy overrides of the core's knobs).
    fn build<R>(cfg: EngineConfig, hints: &[Option<Nanos>], core: &mut EngineCore<R>) -> Self;

    /// Number of queue lanes. The default layout is one lane per type
    /// plus a last lane for UNKNOWN.
    fn lanes(_cfg: &EngineConfig, num_types: usize) -> usize {
        num_types + 1
    }

    /// The lane an arrival joins. `slot` is its type index (`num_types`
    /// for UNKNOWN); the default layout maps it to the lane of the same
    /// index.
    #[inline]
    fn lane_of(&mut self, slot: usize, _lanes: usize) -> usize {
        slot
    }

    /// The next placement, or `None` when nothing can be placed. Must
    /// name a non-empty lane and a free worker.
    fn select<R>(&self, core: &EngineCore<R>) -> Option<Pick>;

    /// Runs after every completion has been folded into the profiler.
    /// The default keeps the EWMA estimates fresh (shedding, quarantine
    /// and SJF read them): there is no reservation to install, so a quiet
    /// window commit is the whole update.
    #[inline]
    fn after_complete<R>(&mut self, core: &mut EngineCore<R>, _now: Nanos) {
        if core.profiler.window_full() {
            core.profiler.commit_window_quiet();
        }
    }

    /// Adds the rule's own counters to the end-of-run report (reservation
    /// updates and guaranteed cores; nothing by default).
    fn report(&self, _out: &mut EngineReport) {}
}

/// Centralized FCFS placement: the globally oldest lane head onto the
/// lowest-indexed free worker. c-FCFS *is* this function; DARC runs it
/// until its first profiling window commits.
///
/// The walk is a branch-light min-fold over cached head sequence
/// numbers: empty lanes report `u64::MAX` via [`TypedQueue::head_seq`]
/// and lose every comparison, and sequence numbers are unique, so the
/// loop body carries neither an emptiness branch nor a tiebreak. It runs
/// before the worker scan: most polls find nothing queued, and with one
/// lane that answer is a single load.
#[inline]
pub(crate) fn oldest_first<R>(core: &EngineCore<R>) -> Option<Pick> {
    let mut best_seq = u64::MAX;
    let mut best_lane = 0;
    for (i, q) in core.lanes.iter().enumerate() {
        let seq = q.head_seq();
        if seq < best_seq {
            best_seq = seq;
            best_lane = i;
        }
    }
    if best_seq == u64::MAX {
        return None;
    }
    // `first_free` is the emptiness check for the worker side: one byte
    // scan, no separate counter load.
    let worker = core.workers.first_free()?;
    Some((best_lane, worker, DispatchKind::Fcfs))
}

/// The state and the bodies every policy shares (see the module docs).
///
/// Queue entries carry their [`TypeId`], so one queue type serves every
/// lane layout: one lane for c-FCFS, one per type plus UNKNOWN for
/// SJF/FP/DARC, one per worker for d-FCFS.
#[derive(Clone, Debug)]
pub struct EngineCore<R> {
    pub(crate) lanes: Vec<TypedQueue<(TypeId, R)>>,
    /// Global arrival sequence number, stamped on every admitted entry.
    seq: u64,
    pub(crate) workers: WorkerTable,
    pub(crate) profiler: Profiler,
    pub(crate) overload: OverloadConfig,
    /// Deadline-expired requests awaiting pickup by the caller (answered
    /// with `Dropped` in the runtime, counted in the simulator).
    pub(crate) expired_buf: ArenaRing<(TypeId, R)>,
    pub(crate) expired_total: u64,
    /// Per telemetry slot (`num_types` = UNKNOWN): queued entries, drops.
    pub(crate) pending: Vec<usize>,
    pub(crate) drops: Vec<u64>,
    pub(crate) num_types: usize,
    /// Optional always-on instruments; every hook is lock-free and
    /// allocation-free, so attaching telemetry is safe on hot paths.
    pub(crate) telemetry: Option<Arc<Telemetry>>,
}

impl<R> EngineCore<R> {
    /// # Panics
    ///
    /// Panics if `cfg.num_workers == 0` or `hints.len() != num_types`.
    pub(crate) fn new(
        cfg: &EngineConfig,
        num_types: usize,
        hints: &[Option<Nanos>],
        lanes: usize,
    ) -> Self {
        assert!(cfg.num_workers > 0, "need at least one worker");
        EngineCore {
            lanes: (0..lanes)
                .map(|_| TypedQueue::new(cfg.queue_capacity))
                .collect(),
            seq: 0,
            workers: WorkerTable::new(cfg.num_workers),
            profiler: Profiler::new(cfg.profiler.clone(), num_types, hints),
            overload: cfg.overload,
            expired_buf: ArenaRing::new(),
            expired_total: 0,
            pending: vec![0; num_types + 1],
            drops: vec![0; num_types + 1],
            num_types,
            telemetry: None,
        }
    }

    /// Counter/telemetry slot of `ty` (UNKNOWN and out-of-range types
    /// share the last one).
    #[inline]
    pub(crate) fn slot(&self, ty: TypeId) -> usize {
        tslot(ty, self.num_types)
    }

    /// Admits a request whose type maps to counter slot `slot` into
    /// `lane`, or hands it back when the lane is full. From here on an
    /// out-of-range type *is* UNKNOWN: the entry carries the slot's type.
    #[inline]
    pub(crate) fn admit(&mut self, lane: usize, slot: usize, req: R, now: Nanos) -> Result<(), R> {
        let ty = if slot == self.num_types {
            TypeId::UNKNOWN
        } else {
            TypeId::new(slot as u32)
        };
        // Occurrence ratios are profiled at *arrival*: completion-based
        // ratios are biased low for a type whose queue is backed up, which
        // would make an under-provisioned allocation look self-consistent.
        self.profiler.record_arrival(ty);
        let seq = self.seq;
        self.seq += 1;
        let q = &mut self.lanes[lane];
        let depth = q.len() as u64;
        let result = q.push((ty, req), now, seq);
        match &result {
            Ok(()) => self.pending[slot] += 1,
            Err(_) => self.drops[slot] += 1,
        }
        if let Some(t) = &self.telemetry {
            t.record_arrival(slot);
            match &result {
                Ok(()) => t.record_queue_depth(slot, depth + 1),
                Err(_) => t.record_drop(slot, depth, now.as_nanos()),
            }
        }
        result.map_err(|(_, req)| req)
    }

    /// Executes a [`Pick`]: pops `lane`'s head and marks `worker` busy
    /// with it.
    #[inline]
    pub(crate) fn place(&mut self, (lane, worker, kind): Pick, now: Nanos) -> Option<Dispatch<R>> {
        let entry = self.lanes[lane].pop()?;
        let (ty, req) = entry.req;
        let slot = self.slot(ty);
        self.pending[slot] -= 1;
        let queued_for = now.saturating_sub(entry.enqueued);
        self.workers.assign(worker, ty, queued_for, now);
        self.profiler.record_dispatch_delay(ty, queued_for);
        if let Some(t) = &self.telemetry {
            t.record_dispatch(slot, worker.index(), kind, now.as_nanos());
        }
        Some(Dispatch {
            worker,
            ty,
            req,
            queued_for,
            kind,
        })
    }

    /// Frees `worker` and folds its request's `service` time into the
    /// profiler and telemetry.
    ///
    /// # Panics
    ///
    /// Panics if `worker` was not busy — that is a dispatcher/worker
    /// protocol violation, not a recoverable condition.
    #[inline]
    pub(crate) fn finish(&mut self, worker: WorkerId, service: Nanos, now: Nanos) {
        let (ty, queued_for, started, released) = self.workers.complete(worker);
        if released {
            if let Some(t) = &self.telemetry {
                t.record_release(
                    worker.index(),
                    now.saturating_sub(started).as_nanos(),
                    now.as_nanos(),
                );
            }
        }
        self.profiler.record_completion(ty, service);
        if let Some(t) = &self.telemetry {
            let sojourn = queued_for.saturating_add(service);
            t.record_completion(
                self.slot(ty),
                worker.index(),
                sojourn.as_nanos(),
                service.as_nanos(),
            );
        }
    }

    /// Deadline shedding: expires lane heads whose queueing delay exceeds
    /// `deadline_slowdown ×` their type's profiled mean service time into
    /// the expired buffer. A head without a service estimate (UNKNOWN
    /// included) never expires and shields its lane; a lane's head is its
    /// oldest entry, so anything behind it is younger. No-op unless
    /// `overload.deadline_slowdown` is set.
    pub(crate) fn expire(&mut self, now: Nanos) {
        let Some(slowdown) = self.overload.deadline_slowdown else {
            return;
        };
        for lane in &mut self.lanes {
            while let Some(head) = lane.front() {
                let Some(est) = self.profiler.estimate_ns(head.req.0) else {
                    break;
                };
                let deadline = Nanos::from_nanos((slowdown * est) as u64);
                let Some(entry) = lane.pop_expired(now, deadline) else {
                    break;
                };
                let (ty, req) = entry.req;
                let slot = tslot(ty, self.num_types);
                self.pending[slot] -= 1;
                self.expired_total += 1;
                if let Some(t) = &self.telemetry {
                    let waited = now.saturating_sub(entry.enqueued);
                    t.record_expired(slot, waited.as_nanos(), now.as_nanos());
                }
                self.expired_buf.push_back((ty, req));
            }
        }
    }

    /// Worker-health check: quarantines any busy worker whose in-flight
    /// request has run for `stall_factor ×` its type's profiled mean
    /// (floored at `min_stall`; types without an estimate use `min_stall`
    /// alone). A quarantined worker stays busy and is released by its
    /// late completion. No-op unless `overload.stall_factor` is set.
    pub(crate) fn health(&mut self, now: Nanos) {
        let Some(factor) = self.overload.stall_factor else {
            return;
        };
        let profiler = &self.profiler;
        let telemetry = &self.telemetry;
        let num_types = self.num_types;
        self.workers.check_health(
            now,
            factor,
            self.overload.min_stall,
            |ty| profiler.estimate_ns(ty),
            |w, ty, running| {
                if let Some(t) = telemetry {
                    t.record_quarantine(
                        w,
                        tslot(ty, num_types),
                        running.as_nanos(),
                        now.as_nanos(),
                    );
                }
            },
        );
    }

    /// Drains every lane (shutdown teardown), counting each entry as shed
    /// and appending all of them to `out` so the caller can answer each
    /// with `Dropped` instead of silently discarding queued work. Entries
    /// stream straight from the lanes into the caller's (reusable)
    /// buffer — no intermediate collect.
    pub(crate) fn drain(&mut self, now: Nanos, out: &mut Vec<(TypeId, R)>) {
        let before = out.len();
        for lane in &mut self.lanes {
            for e in lane.drain() {
                if let Some(t) = &self.telemetry {
                    let waited = now.saturating_sub(e.enqueued);
                    t.record_expired(
                        tslot(e.req.0, self.num_types),
                        waited.as_nanos(),
                        now.as_nanos(),
                    );
                }
                out.push(e.req);
            }
        }
        self.pending.fill(0);
        self.expired_total += (out.len() - before) as u64;
    }
}

/// Per-worker busy/free/quarantine accounting.
///
/// Every engine tracks the same three facts about a worker: whether it is
/// busy (and with what), whether it is quarantined, and the cumulative
/// quarantine/release counters. Keeping them in one struct means a new
/// policy cannot get the free-count arithmetic subtly wrong.
///
/// # Memory layout (hot/cold split)
///
/// The fields every dispatch touches sit first: `state` (one byte per
/// worker — up to 64 workers per cache line), the free count, and the
/// in-flight metadata. `busy_meta[w]` is *valid only while worker `w`
/// is busy*; the former `Vec<Option<..>>` interleaved a discriminant
/// with 24 bytes of metadata, so a free-worker scan dragged the whole
/// metadata array through cache. The quarantine counters are only
/// touched by the wall-clock health check and sit after the hot block.
///
/// `assign` and `complete` flip `state[w]` with plain byte stores — no
/// read-modify-write. An earlier revision packed the free set into
/// `u64` bitmask words with `trailing_zeros` selection; measured on the
/// dispatch cycle it was ~4 ns *slower* per iteration, because every
/// assign/complete became a load-modify-store on the same word and the
/// selected worker index became data-dependent on the just-stored mask
/// (`tzcnt`), serializing the loop the branch-predicted byte scan
/// overlaps. A second revision split free and quarantine flags into two
/// `Vec<bool>`s; folding them into one tri-state byte keeps the scan
/// identical and spares `complete` a third array access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Slot {
    /// Running a request; `busy_meta` is valid.
    Busy = 0,
    /// Idle, eligible for selection.
    Free = 1,
    /// Busy, but the in-flight request ran so far past its type's
    /// profiled mean that the worker is presumed stalled.
    Quarantined = 2,
}

#[derive(Clone, Debug)]
pub(crate) struct WorkerTable {
    // --- hot: read/written on every assign / poll / complete ---
    num_workers: usize,
    free_count: usize,
    /// Per-worker tri-state, one byte each: selection scans are
    /// branch-predictable and state flips are pure stores.
    state: Vec<Slot>,
    /// Per worker: the in-flight request's type, how long it queued (kept
    /// so `complete` can record the full sojourn), and when it was
    /// dispatched (so health checks can see how long it has been running).
    /// Valid only while the worker is busy.
    busy_meta: Vec<(TypeId, Nanos, Nanos)>,
    // --- cold: touched only by the overload-control health check ---
    quarantined_count: usize,
    quarantines_total: u64,
    releases_total: u64,
}

impl WorkerTable {
    pub fn new(num_workers: usize) -> Self {
        WorkerTable {
            num_workers,
            free_count: num_workers,
            state: vec![Slot::Free; num_workers],
            busy_meta: vec![(TypeId::UNKNOWN, Nanos::ZERO, Nanos::ZERO); num_workers],
            quarantined_count: 0,
            quarantines_total: 0,
            releases_total: 0,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.num_workers
    }

    #[inline]
    pub fn free_count(&self) -> usize {
        self.free_count
    }

    #[inline]
    pub fn is_free(&self, worker: usize) -> bool {
        self.state[worker] == Slot::Free
    }

    /// The lowest-indexed free worker, if any.
    #[inline]
    pub fn first_free(&self) -> Option<WorkerId> {
        self.state
            .iter()
            .position(|&s| s == Slot::Free)
            .map(|i| WorkerId::new(i as u32))
    }

    /// The first free worker in `list` order (reservation lists are
    /// ascending, so this is also the lowest-indexed one).
    #[inline]
    pub fn first_free_in(&self, list: &[WorkerId]) -> Option<WorkerId> {
        list.iter()
            .copied()
            .find(|w| self.state[w.index()] == Slot::Free)
    }

    #[inline]
    pub fn is_quarantined(&self, worker: usize) -> bool {
        self.state.get(worker) == Some(&Slot::Quarantined)
    }

    pub fn quarantines(&self) -> u64 {
        self.quarantines_total
    }

    pub fn releases(&self) -> u64 {
        self.releases_total
    }

    /// Whether every worker is either idle or quarantined (the shutdown
    /// quiescence condition: a stalled core must not wedge teardown).
    #[inline]
    pub fn quiescent(&self) -> bool {
        self.free_count + self.quarantined_count == self.num_workers
    }

    /// Marks `worker` busy with a request of type `ty`.
    #[inline]
    pub fn assign(&mut self, worker: WorkerId, ty: TypeId, queued_for: Nanos, now: Nanos) {
        debug_assert_eq!(self.state[worker.index()], Slot::Free);
        self.state[worker.index()] = Slot::Busy;
        self.busy_meta[worker.index()] = (ty, queued_for, now);
        self.free_count -= 1;
    }

    /// Frees `worker`, returning its in-flight metadata `(ty, queued_for,
    /// started, released_from_quarantine)`.
    ///
    /// # Panics
    ///
    /// Panics if `worker` was not busy — a dispatcher/worker protocol
    /// violation, not a recoverable condition.
    #[inline]
    pub fn complete(&mut self, worker: WorkerId) -> (TypeId, Nanos, Nanos, bool) {
        let slot = self
            .state
            .get_mut(worker.index())
            // audit:allow(A1): crashing on a completion from an unknown
            // worker is the contract (see Panics above)
            .expect("worker id out of range");
        let was = *slot;
        // audit:allow(A1): same contract — completion from an idle worker
        assert!(was != Slot::Free, "completion from an idle worker");
        *slot = Slot::Free;
        self.free_count += 1;
        let (ty, queued_for, started) = self.busy_meta[worker.index()];
        let released = was == Slot::Quarantined;
        if released {
            // The presumed-stalled worker answered after all: release it
            // back into the free pool.
            self.quarantined_count -= 1;
            self.releases_total += 1;
        }
        (ty, queued_for, started, released)
    }

    /// Quarantines any busy worker whose in-flight request has run for
    /// `factor ×` its type's estimated mean (floored at `min_stall`; types
    /// without an estimate use `min_stall` alone). `on_quarantine(worker,
    /// ty, running)` fires once per new quarantine, for telemetry.
    pub fn check_health(
        &mut self,
        now: Nanos,
        factor: f64,
        min_stall: Nanos,
        estimate_ns: impl Fn(TypeId) -> Option<f64>,
        mut on_quarantine: impl FnMut(usize, TypeId, Nanos),
    ) {
        for worker in 0..self.num_workers {
            if self.state[worker] != Slot::Busy {
                continue;
            }
            let (ty, _queued_for, started) = self.busy_meta[worker];
            let running = now.saturating_sub(started);
            let threshold = match estimate_ns(ty) {
                Some(est) => Nanos::from_nanos((factor * est) as u64).max(min_stall),
                None => min_stall,
            };
            if running > threshold {
                self.state[worker] = Slot::Quarantined;
                self.quarantined_count += 1;
                self.quarantines_total += 1;
                on_quarantine(worker, ty, running);
            }
        }
    }

    /// Resizes the pool. Growing takes effect immediately; shrinking
    /// requires the surrendered (highest-indexed) workers to be idle.
    /// Returns `Err(())` without changes when shrinking would drop a busy
    /// worker or `new_workers` is zero. Reconfiguration lane, never per
    /// request — cold marks the audit frontier.
    #[cold]
    pub fn resize(&mut self, new_workers: usize) -> Result<(), ()> {
        if new_workers == 0 {
            return Err(());
        }
        if new_workers < self.num_workers
            && (new_workers..self.num_workers).any(|wkr| self.state[wkr] != Slot::Free)
        {
            return Err(());
        }
        self.num_workers = new_workers;
        // New workers (old..new_workers) start free and healthy.
        self.state.resize(new_workers, Slot::Free);
        self.busy_meta
            .resize(new_workers, (TypeId::UNKNOWN, Nanos::ZERO, Nanos::ZERO));
        self.quarantined_count = self
            .state
            .iter()
            .filter(|&&s| s == Slot::Quarantined)
            .count();
        self.free_count = self.state.iter().filter(|&&s| s == Slot::Free).count();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_complete_roundtrip_tracks_free_count() {
        let mut t = WorkerTable::new(2);
        assert_eq!(t.free_count(), 2);
        assert_eq!(t.first_free(), Some(WorkerId::new(0)));
        t.assign(WorkerId::new(0), TypeId::new(1), Nanos::ZERO, Nanos::ZERO);
        assert_eq!(t.free_count(), 1);
        assert_eq!(t.first_free(), Some(WorkerId::new(1)));
        assert!(!t.is_free(0));
        let (ty, _, _, released) = t.complete(WorkerId::new(0));
        assert_eq!(ty, TypeId::new(1));
        assert!(!released);
        assert_eq!(t.free_count(), 2);
        assert!(t.quiescent());
    }

    #[test]
    fn health_check_quarantines_and_release_counts() {
        let mut t = WorkerTable::new(1);
        t.assign(WorkerId::new(0), TypeId::new(0), Nanos::ZERO, Nanos::ZERO);
        let mut fired = 0;
        t.check_health(
            Nanos::from_micros(100),
            5.0,
            Nanos::from_micros(1),
            |_| Some(1_000.0),
            |_, _, _| fired += 1,
        );
        assert_eq!(fired, 1);
        assert!(t.is_quarantined(0));
        assert!(t.quiescent(), "quarantined workers do not block shutdown");
        // Re-checking never double-counts.
        t.check_health(
            Nanos::from_micros(101),
            5.0,
            Nanos::from_micros(1),
            |_| Some(1_000.0),
            |_, _, _| fired += 1,
        );
        assert_eq!(fired, 1);
        assert_eq!(t.quarantines(), 1);
        let (_, _, _, released) = t.complete(WorkerId::new(0));
        assert!(released);
        assert_eq!(t.releases(), 1);
        assert!(!t.is_quarantined(0));
    }

    #[test]
    fn resize_guards_busy_workers() {
        let mut t = WorkerTable::new(3);
        t.assign(WorkerId::new(2), TypeId::new(0), Nanos::ZERO, Nanos::ZERO);
        assert!(t.resize(2).is_err(), "cannot drop a busy worker");
        assert!(t.resize(0).is_err());
        let _ = t.complete(WorkerId::new(2));
        t.resize(2).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.free_count(), 2);
        t.resize(5).unwrap();
        assert_eq!(t.free_count(), 5);
    }

    #[test]
    fn table_spans_many_workers() {
        let mut t = WorkerTable::new(130);
        assert_eq!(t.free_count(), 130);
        for wkr in 0..128 {
            t.assign(WorkerId::new(wkr), TypeId::new(0), Nanos::ZERO, Nanos::ZERO);
        }
        assert_eq!(t.first_free(), Some(WorkerId::new(128)));
        assert!(!t.is_free(127));
        assert!(t.is_free(129));
        t.assign(WorkerId::new(128), TypeId::new(0), Nanos::ZERO, Nanos::ZERO);
        t.assign(WorkerId::new(129), TypeId::new(0), Nanos::ZERO, Nanos::ZERO);
        assert_eq!(t.first_free(), None);
        assert_eq!(t.free_count(), 0);
        let _ = t.complete(WorkerId::new(64));
        assert_eq!(t.first_free(), Some(WorkerId::new(64)));
        // Health check walks every busy worker.
        let mut seen = 0;
        t.check_health(
            Nanos::from_micros(100),
            1.0,
            Nanos::from_nanos(1),
            |_| None,
            |_, _, _| seen += 1,
        );
        assert_eq!(seen, 129, "all busy workers quarantined");
        assert!(t.quiescent());
    }

    #[test]
    fn first_free_in_respects_list_order() {
        let mut t = WorkerTable::new(4);
        t.assign(WorkerId::new(1), TypeId::new(0), Nanos::ZERO, Nanos::ZERO);
        let list = [WorkerId::new(1), WorkerId::new(2), WorkerId::new(3)];
        assert_eq!(t.first_free_in(&list), Some(WorkerId::new(2)));
        t.assign(WorkerId::new(2), TypeId::new(0), Nanos::ZERO, Nanos::ZERO);
        t.assign(WorkerId::new(3), TypeId::new(0), Nanos::ZERO, Nanos::ZERO);
        assert_eq!(t.first_free_in(&list), None, "worker 0 is not in the list");
    }

    #[test]
    #[should_panic(expected = "completion from an idle worker")]
    fn double_completion_panics() {
        let mut t = WorkerTable::new(2);
        t.assign(WorkerId::new(1), TypeId::new(0), Nanos::ZERO, Nanos::ZERO);
        let _ = t.complete(WorkerId::new(1));
        let _ = t.complete(WorkerId::new(1));
    }
}
