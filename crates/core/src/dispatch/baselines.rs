//! The baseline selection rules of the paper's Tables 1 and 5.
//!
//! Each differs from DARC in *which head goes to which worker* and
//! nothing else, so each is a small [`Select`] impl over the shared
//! [`EngineCore`]:
//!
//! * [`Cfcfs`] — centralized FCFS: one global lane, strict arrival order,
//!   any free worker.
//! * [`Sjf`] — non-preemptive shortest-job-first by *profiled* type
//!   service time.
//! * [`FixedPriority`] — strict priority by *hinted* type service time,
//!   work conserving.
//! * [`Dfcfs`] — decentralized FCFS: one lane per worker, RSS-style
//!   random steering at arrival.

use persephone_telemetry::DispatchKind;

use super::core::{oldest_first, EngineCore, Pick, Select};
use super::engine::Engine;
use super::EngineConfig;
use crate::time::Nanos;
use crate::types::{TypeId, WorkerId};

/// Centralized first-come-first-served (paper Table 1's c-FCFS): the
/// single-queue baseline of the paper's evaluation.
///
/// Flow control bounds the *global* queue at `cfg.queue_capacity` entries
/// (`0` = unbounded) — a single-queue policy has no per-type backlog to
/// shed selectively — and deadline shedding expires the queue head only.
#[derive(Clone, Copy, Debug)]
pub struct Cfcfs;

impl Select for Cfcfs {
    const NAME: &'static str = "c-FCFS";

    fn build<R>(_cfg: EngineConfig, _hints: &[Option<Nanos>], _core: &mut EngineCore<R>) -> Self {
        Cfcfs
    }

    fn lanes(_cfg: &EngineConfig, _num_types: usize) -> usize {
        1
    }

    #[inline]
    fn lane_of(&mut self, _slot: usize, _lanes: usize) -> usize {
        0
    }

    #[inline]
    fn select<R>(&self, core: &EngineCore<R>) -> Option<Pick> {
        oldest_first(core)
    }
}

/// Non-preemptive shortest-job-first (paper Table 1's SJF).
///
/// Typed lanes, dispatched in ascending order of the *profiled* (or
/// hinted) per-type mean service time — the realizable form of SJF for a
/// dispatcher that only knows request types, not exact sizes. Within a
/// type (and across types with equal estimates) order is FIFO by global
/// arrival sequence, so equal-length requests never overtake each other.
/// Types without any estimate, and UNKNOWN requests, sort last.
///
/// Estimates adapt online: every full profiling window is committed into
/// the EWMA, so a type whose service time drifts re-sorts itself without
/// any reservation machinery.
#[derive(Clone, Copy, Debug)]
pub struct Sjf;

impl Select for Sjf {
    const NAME: &'static str = "SJF";

    fn build<R>(_cfg: EngineConfig, _hints: &[Option<Nanos>], _core: &mut EngineCore<R>) -> Self {
        Sjf
    }

    /// Smallest estimated service time first, FIFO (head sequence number)
    /// among equals. The UNKNOWN lane's index is no registered type, so
    /// it has no estimate and sorts last with the unprofiled types.
    #[inline]
    fn select<R>(&self, core: &EngineCore<R>) -> Option<Pick> {
        let worker = core.workers.first_free()?;
        let mut best = (f64::INFINITY, u64::MAX, 0);
        for (lane, q) in core.lanes.iter().enumerate() {
            let seq = q.head_seq();
            if seq == u64::MAX {
                continue;
            }
            let est = core
                .profiler
                .estimate_ns(TypeId::new(lane as u32))
                .unwrap_or(f64::INFINITY);
            if est < best.0 || (est == best.0 && seq < best.1) {
                best = (est, seq, lane);
            }
        }
        (best.1 != u64::MAX).then_some((best.2, worker, DispatchKind::Fcfs))
    }
}

/// Fixed-priority scheduling (paper Table 1's FP).
///
/// Typed lanes served in a strict priority order fixed at construction:
/// ascending hinted mean service time, so shorter types always dispatch
/// before longer ones. Work conserving — any free worker takes the
/// highest-priority head — which is exactly why FP starves long requests
/// under short-heavy load (the contrast DARC's reservations exist to fix).
/// Unhinted types sort after hinted ones (by index); UNKNOWN runs last.
///
/// Unlike [`Sjf`], the order never adapts: FP is the static
/// operator-configured policy of the taxonomy.
#[derive(Clone, Debug)]
pub struct FixedPriority {
    /// Lanes in dispatch order: types by priority, then UNKNOWN.
    order: Vec<usize>,
}

impl Select for FixedPriority {
    const NAME: &'static str = "FP";

    fn build<R>(_cfg: EngineConfig, hints: &[Option<Nanos>], core: &mut EngineCore<R>) -> Self {
        let mut order: Vec<usize> = (0..core.num_types).collect();
        order.sort_by_key(|&i| (hints[i].is_none(), hints[i], i));
        order.push(core.num_types);
        FixedPriority { order }
    }

    #[inline]
    fn select<R>(&self, core: &EngineCore<R>) -> Option<Pick> {
        let worker = core.workers.first_free()?;
        let lane = self
            .order
            .iter()
            .copied()
            .find(|&lane| !core.lanes[lane].is_empty())?;
        Some((lane, worker, DispatchKind::Fcfs))
    }
}

impl<R> Engine<R, FixedPriority> {
    /// The fixed dispatch order (type indices, highest priority first).
    pub fn priority_order(&self) -> &[usize] {
        &self.select.order[..self.core.num_types]
    }
}

/// Deterministic splitmix64 stream for steering decisions.
#[derive(Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)` via the multiply-shift reduction.
    fn next_below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// Decentralized first-come-first-served (paper Table 1's d-FCFS).
///
/// Each worker owns a private FIFO lane; arrivals are steered to a
/// uniformly random worker at enqueue time, modelling RSS-style NIC
/// steering with no centralized dispatch decision at all. A request
/// committed to a busy worker waits there even while other workers idle —
/// the dispersion-based baseline whose tail the paper's Figure 1 opens
/// with. `cfg.queue_capacity` bounds each worker's lane.
///
/// The rule carries its own tiny deterministic RNG (splitmix64) so runs
/// are reproducible and `persephone-core` stays dependency-free; seed it
/// via [`DfcfsEngine::with_seed`](Engine::with_seed).
#[derive(Clone, Debug)]
pub struct Dfcfs {
    rng: SplitMix64,
}

impl Select for Dfcfs {
    const NAME: &'static str = "d-FCFS";

    /// A d-FCFS request is already committed to its worker; there is no
    /// dispatcher-side queue whose head could meaningfully be shed, so
    /// the rule switches deadline shedding off whatever the config says.
    fn build<R>(_cfg: EngineConfig, _hints: &[Option<Nanos>], core: &mut EngineCore<R>) -> Self {
        core.overload.deadline_slowdown = None;
        Dfcfs {
            rng: SplitMix64(0xD15_EA5E),
        }
    }

    fn lanes(cfg: &EngineConfig, _num_types: usize) -> usize {
        cfg.num_workers
    }

    /// The steering decision is made at arrival and never revisited —
    /// that commitment is the whole policy.
    #[inline]
    fn lane_of(&mut self, _slot: usize, lanes: usize) -> usize {
        self.rng.next_below(lanes as u64) as usize
    }

    #[inline]
    fn select<R>(&self, core: &EngineCore<R>) -> Option<Pick> {
        if core.workers.free_count() == 0 {
            return None;
        }
        let w = core
            .lanes
            .iter()
            .enumerate()
            .position(|(w, q)| core.workers.is_free(w) && !q.is_empty())?;
        Some((w, WorkerId::new(w as u32), DispatchKind::Fcfs))
    }
}

impl<R> Engine<R, Dfcfs> {
    /// Reseeds the steering RNG (for reproducible experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.select.rng = SplitMix64(seed);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::super::{CfcfsEngine, DfcfsEngine, FixedPriorityEngine, ScheduleEngine, SjfEngine};
    use super::*;

    fn micros(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    const HINTS: [Option<Nanos>; 2] = [Some(Nanos::from_micros(1)), Some(Nanos::from_micros(100))];

    fn cfcfs(workers: usize) -> CfcfsEngine<u32> {
        CfcfsEngine::new(EngineConfig::darc(workers), 2, &HINTS)
    }

    #[test]
    fn cfcfs_keeps_strict_global_arrival_order() {
        let mut eng = cfcfs(1);
        eng.enqueue(TypeId::new(1), 10, micros(0)).unwrap();
        eng.enqueue(TypeId::new(0), 20, micros(1)).unwrap();
        eng.enqueue(TypeId::UNKNOWN, 30, micros(2)).unwrap();
        let d = eng.poll(micros(3)).unwrap();
        assert_eq!(d.req, 10, "earliest arrival wins regardless of type");
        assert_eq!(d.kind, DispatchKind::Fcfs);
        eng.complete(d.worker, micros(1), micros(4));
        assert_eq!(eng.poll(micros(4)).unwrap().req, 20);
        eng.complete(WorkerId::new(0), micros(1), micros(5));
        let d3 = eng.poll(micros(5)).unwrap();
        assert_eq!((d3.req, d3.ty), (30, TypeId::UNKNOWN));
    }

    #[test]
    fn cfcfs_picks_lowest_indexed_free_worker() {
        let mut eng = cfcfs(3);
        for i in 0..3 {
            eng.enqueue(TypeId::new(0), i, micros(0)).unwrap();
        }
        let workers: Vec<u32> = std::iter::from_fn(|| eng.poll(micros(0)))
            .map(|d| d.worker.index() as u32)
            .collect();
        assert_eq!(workers, vec![0, 1, 2]);
        eng.complete(WorkerId::new(1), micros(1), micros(1));
        eng.enqueue(TypeId::new(0), 9, micros(1)).unwrap();
        assert_eq!(eng.poll(micros(1)).unwrap().worker, WorkerId::new(1));
    }

    fn sjf(workers: usize) -> SjfEngine<u32> {
        SjfEngine::new(EngineConfig::darc(workers), 2, &HINTS)
    }

    #[test]
    fn sjf_shorter_type_preempts_queue_order() {
        let mut eng = sjf(1);
        // Long arrives first, short second: SJF serves the short first.
        eng.enqueue(TypeId::new(1), 10, micros(0)).unwrap();
        eng.enqueue(TypeId::new(0), 20, micros(1)).unwrap();
        let d = eng.poll(micros(2)).unwrap();
        assert_eq!(d.ty, TypeId::new(0));
        eng.complete(d.worker, micros(1), micros(3));
        assert_eq!(eng.poll(micros(3)).unwrap().ty, TypeId::new(1));
    }

    #[test]
    fn sjf_is_fifo_within_a_type() {
        let mut eng = sjf(1);
        eng.enqueue(TypeId::new(0), 1, micros(0)).unwrap();
        eng.enqueue(TypeId::new(0), 2, micros(1)).unwrap();
        let d = eng.poll(micros(2)).unwrap();
        assert_eq!(d.req, 1);
        eng.complete(d.worker, micros(1), micros(3));
        assert_eq!(eng.poll(micros(3)).unwrap().req, 2);
    }

    #[test]
    fn sjf_sorts_unhinted_and_unknown_last() {
        let mut eng: SjfEngine<u32> =
            SjfEngine::new(EngineConfig::darc(1), 2, &[None, Some(micros(100))]);
        // UNKNOWN and the unhinted type 0 both lose to the hinted long.
        eng.enqueue(TypeId::UNKNOWN, 1, micros(0)).unwrap();
        eng.enqueue(TypeId::new(0), 2, micros(1)).unwrap();
        eng.enqueue(TypeId::new(1), 3, micros(2)).unwrap();
        let d = eng.poll(micros(3)).unwrap();
        assert_eq!(d.req, 3, "only the hinted type has a finite estimate");
        eng.complete(d.worker, micros(100), micros(103));
        // Among the estimate-less, FIFO by arrival: UNKNOWN came first.
        assert_eq!(eng.poll(micros(103)).unwrap().req, 1);
    }

    #[test]
    fn sjf_estimates_adapt_after_windows_commit() {
        let mut cfg = EngineConfig::darc(1);
        cfg.profiler.min_samples = 8;
        // Hints claim type 0 is the short one; reality is inverted.
        let mut eng: SjfEngine<u32> = SjfEngine::new(cfg, 2, &HINTS);
        let mut now = Nanos::ZERO;
        // Several windows of truth: type 0 takes 100 µs, type 1 takes 1 µs.
        for i in 0..64u32 {
            let ty = TypeId::new(i % 2);
            eng.enqueue(ty, i, now).unwrap();
            let d = eng.poll(now).unwrap();
            let service = if d.ty == TypeId::new(0) {
                micros(100)
            } else {
                micros(1)
            };
            now += service;
            eng.complete(d.worker, service, now);
        }
        // Now the ordering must follow the measured times: type 1 first.
        eng.enqueue(TypeId::new(0), 100, now).unwrap();
        eng.enqueue(TypeId::new(1), 101, now).unwrap();
        assert_eq!(eng.poll(now).unwrap().ty, TypeId::new(1));
    }

    fn fp(workers: usize) -> FixedPriorityEngine<u32> {
        FixedPriorityEngine::new(EngineConfig::darc(workers), 2, &HINTS)
    }

    #[test]
    fn fp_priority_order_sorts_by_hint_ascending() {
        let hints = [Some(micros(50)), Some(micros(1)), None, Some(micros(100))];
        let eng: FixedPriorityEngine<u32> =
            FixedPriorityEngine::new(EngineConfig::darc(2), 4, &hints);
        assert_eq!(eng.priority_order(), &[1, 0, 3, 2]);
    }

    #[test]
    fn fp_shorts_always_beat_longs() {
        let mut eng = fp(1);
        eng.enqueue(TypeId::new(1), 10, micros(0)).unwrap();
        eng.enqueue(TypeId::new(0), 20, micros(1)).unwrap();
        eng.enqueue(TypeId::new(0), 21, micros(2)).unwrap();
        let d = eng.poll(micros(3)).unwrap();
        assert_eq!(d.req, 20, "short queue drains first, FIFO within it");
        eng.complete(d.worker, micros(1), micros(4));
        assert_eq!(eng.poll(micros(4)).unwrap().req, 21);
        eng.complete(WorkerId::new(0), micros(1), micros(5));
        assert_eq!(eng.poll(micros(5)).unwrap().req, 10);
    }

    #[test]
    fn fp_is_work_conserving_across_all_workers() {
        let mut eng = fp(4);
        // Unlike DARC, longs may occupy every worker: no reservations.
        for i in 0..4 {
            eng.enqueue(TypeId::new(1), i, micros(0)).unwrap();
        }
        let mut dispatched = 0;
        while eng.poll(micros(0)).is_some() {
            dispatched += 1;
        }
        assert_eq!(dispatched, 4, "FP is work conserving");
    }

    #[test]
    fn fp_runs_unknown_last() {
        let mut eng = fp(1);
        eng.enqueue(TypeId::UNKNOWN, 1, micros(0)).unwrap();
        eng.enqueue(TypeId::new(1), 2, micros(1)).unwrap();
        let d = eng.poll(micros(2)).unwrap();
        assert_eq!(d.req, 2, "typed work beats UNKNOWN");
        eng.complete(d.worker, micros(100), micros(102));
        let d2 = eng.poll(micros(102)).unwrap();
        assert_eq!((d2.req, d2.ty), (1, TypeId::UNKNOWN));
    }

    fn dfcfs(workers: usize, seed: u64) -> DfcfsEngine<u32> {
        DfcfsEngine::new(EngineConfig::darc(workers), 2, &[None, None]).with_seed(seed)
    }

    #[test]
    fn dfcfs_steering_is_deterministic_per_seed() {
        let drive = |seed: u64| -> Vec<(u32, u32)> {
            let mut eng = dfcfs(4, seed);
            let mut placements = Vec::new();
            for i in 0..16 {
                eng.enqueue(TypeId::new(0), i, micros(i as u64)).unwrap();
            }
            // Complete after each dispatch so every committed entry drains
            // and the full request→worker assignment is observable.
            while let Some(d) = eng.poll(micros(20)) {
                placements.push((d.req, d.worker.index() as u32));
                eng.complete(d.worker, micros(1), micros(21));
            }
            placements
        };
        assert_eq!(drive(7), drive(7));
        assert_ne!(drive(7), drive(8), "different seeds steer differently");
    }

    #[test]
    fn dfcfs_committed_request_waits_for_its_worker() {
        let mut eng = dfcfs(2, 1);
        // Steer enough arrivals that some worker queue holds ≥ 2 entries.
        for i in 0..8 {
            eng.enqueue(TypeId::new(0), i, micros(0)).unwrap();
        }
        // Dispatch one per worker: both busy now.
        let d0 = eng.poll(micros(1)).unwrap();
        let d1 = eng.poll(micros(1)).unwrap();
        assert_ne!(d0.worker, d1.worker);
        assert!(eng.poll(micros(1)).is_none(), "remaining work is committed");
        // Freeing one worker releases only that worker's queue head.
        eng.complete(d0.worker, micros(1), micros(2));
        let d2 = eng.poll(micros(2)).unwrap();
        assert_eq!(d2.worker, d0.worker);
    }

    #[test]
    fn dfcfs_flow_control_is_per_worker() {
        let mut cfg = EngineConfig::darc(2);
        cfg.queue_capacity = 1;
        let mut eng: DfcfsEngine<u32> = DfcfsEngine::new(cfg, 2, &[None, None]).with_seed(3);
        let mut dropped = 0;
        for i in 0..32 {
            if eng.enqueue(TypeId::new(0), i, micros(0)).is_err() {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "bounded per-worker queues must shed");
        assert_eq!(eng.total_drops(), dropped);
        assert_eq!(eng.total_pending(), 2, "one entry per worker queue");
    }
}
