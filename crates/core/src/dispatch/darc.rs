//! The DARC selection rule (paper §3 Algorithm 1, §4.3.3).
//!
//! [`Darc`] is the paper's contribution, shared verbatim by the
//! discrete-event simulator and the threaded runtime. On top of the
//! [`EngineCore`]'s typed lanes, worker table and profiler it owns the
//! current worker reservation and implements:
//!
//! * **Algorithm 1** — walk typed queues in ascending profiled service
//!   time; dispatch the head of the first non-empty queue onto a free
//!   reserved worker, else onto a free *stealable* worker (a core reserved
//!   for a longer group); spillway cores serve ungrouped and UNKNOWN
//!   requests last.
//! * **c-FCFS warm-up** — before the first profiling window completes the
//!   rule is `oldest_first`, the same function c-FCFS runs.
//! * **Reservation updates** — when the profiler reports a full window, a
//!   deviated demand vector, and an SLO-violating queueing delay, the
//!   rule commits the window and installs a fresh reservation.
//!
//! Flow control (arrivals to a full typed queue are rejected back to the
//! caller, shedding load only for the overloaded type) is the core's.

use persephone_telemetry::DispatchKind;

use super::core::{oldest_first, EngineCore, Pick, Select};
use super::engine::{Engine, EngineReport};
use super::{EngineConfig, EngineMode};
use crate::reserve::{reserve, Reservation, ReserveConfig};
use crate::time::Nanos;
use crate::types::{TypeId, WorkerId};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Gathering the first profiling window, dispatching c-FCFS.
    Warmup,
    /// DARC with dynamic reservation updates.
    Darc,
    /// DARC with a frozen reservation.
    Frozen,
}

/// The DARC rule: profiled reservations, cycle stealing, spillway.
#[derive(Clone, Debug)]
pub struct Darc {
    reservation: Reservation,
    phase: Phase,
    /// Dispatch order over grouped types (ascending service time).
    priority: Vec<TypeId>,
    /// Types outside every group: serviced on spillway cores only.
    spill_types: Vec<TypeId>,
    reserve_cfg: ReserveConfig,
    updates: u64,
    /// Demand vector at the last install, for the update-trigger Δ.
    last_demands: Vec<f64>,
    /// Pre-warmed scratch for the per-completion update check, so the hot
    /// path folds the live demand vector once and without allocating.
    demand_scratch: Vec<f64>,
}

impl Select for Darc {
    const NAME: &'static str = "DARC";

    /// With hints for every type, [`EngineMode::Dynamic`] skips the c-FCFS
    /// warm-up and installs a hint-based reservation immediately.
    fn build<R>(cfg: EngineConfig, hints: &[Option<Nanos>], core: &mut EngineCore<R>) -> Self {
        let num_types = core.num_types;
        let mut darc = Darc {
            reservation: Reservation::all_shared(num_types, cfg.num_workers),
            phase: Phase::Warmup,
            priority: Vec::new(),
            spill_types: Vec::new(),
            reserve_cfg: ReserveConfig {
                num_workers: cfg.num_workers,
                delta: cfg.reserve.delta,
                spillway: cfg.reserve.spillway.min(cfg.num_workers),
            },
            updates: 0,
            last_demands: vec![0.0; num_types],
            demand_scratch: vec![0.0; num_types],
        };
        match cfg.mode {
            EngineMode::Static(res) => {
                darc.install_at(core, res, Nanos::ZERO);
                darc.phase = Phase::Frozen;
            }
            // Fully hinted: reserve immediately from the hints.
            EngineMode::Dynamic if num_types > 0 && hints.iter().all(|h| h.is_some()) => {
                darc.commit_and_install(core, Nanos::ZERO);
                darc.phase = Phase::Darc;
            }
            EngineMode::Dynamic => {}
        }
        darc
    }

    #[inline]
    fn select<R>(&self, core: &EngineCore<R>) -> Option<Pick> {
        match self.phase {
            Phase::Warmup => oldest_first(core),
            Phase::Darc | Phase::Frozen => {
                if core.workers.free_count() == 0 {
                    return None;
                }
                self.poll_darc(core)
            }
        }
    }

    /// In dynamic mode, installs a new reservation when the update
    /// triggers fire.
    #[inline]
    fn after_complete<R>(&mut self, core: &mut EngineCore<R>, now: Nanos) {
        match self.phase {
            Phase::Warmup => {
                if core.profiler.window_full() {
                    self.commit_and_install(core, now);
                    self.phase = Phase::Darc;
                }
            }
            Phase::Darc => {
                // Paper §4.3.3: update when the window is full, some
                // request saw SLO-violating queueing delay, and the CPU
                // demand deviates from the *current allocation* — either
                // the demand vector moved, or rounding the live demand
                // would grant different core counts than installed.
                if core.profiler.window_full() && core.profiler.delay_signalled() {
                    // Fold the live demand vector once; both tests read it.
                    core.profiler.demands_into(&mut self.demand_scratch);
                    if core.profiler.deviates(&self.demand_scratch)
                        || self.allocation_stale(core.workers.len())
                    {
                        self.commit_and_install(core, now);
                    }
                }
            }
            Phase::Frozen => {}
        }
    }

    fn report(&self, out: &mut EngineReport) {
        out.updates = self.updates;
        for (i, g) in out.guaranteed.iter_mut().enumerate() {
            *g = self.guaranteed(TypeId::new(i as u32));
        }
    }
}

impl Darc {
    /// Workers currently reserved for `ty`'s group.
    fn guaranteed(&self, ty: TypeId) -> usize {
        match self.reservation.group_of(ty) {
            Some(g) => self.reservation.groups[g].reserved.len(),
            None => 0,
        }
    }

    /// Whether recomputing Algorithm 2 on the live demand vector (folded
    /// into `demand_scratch`) would grant any group a different number of
    /// reserved cores than it currently holds, or an ungrouped (previously
    /// vanished) type now carries real demand.
    fn allocation_stale(&self, workers: usize) -> bool {
        let demands = &self.demand_scratch;
        let w = workers as f64;
        for g in &self.reservation.groups {
            let d: f64 = g
                .types
                .iter()
                .filter(|t| t.index() < demands.len())
                .map(|t| demands[t.index()])
                .sum();
            let want = ((d * w).round() as usize).max(1);
            if want != g.reserved.len() {
                return true;
            }
        }
        demands.iter().enumerate().any(|(i, d)| {
            self.reservation.group_of(TypeId::new(i as u32)).is_none() && *d * w >= 0.5
        })
    }

    /// Reservation updates are the sanctioned slow lane (paper §4.3.3:
    /// rare, ~μs-scale): Algorithm 2 plus queue re-sizing may allocate.
    /// `#[cold]` keeps them off the audited hot path.
    #[cold]
    fn commit_and_install<R>(&mut self, core: &mut EngineCore<R>, now: Nanos) {
        let stats = core.profiler.commit_window();
        let res = reserve(&stats, &self.reserve_cfg);
        self.install_at(core, res, now);
    }

    #[cold]
    fn install_at<R>(&mut self, core: &mut EngineCore<R>, res: Reservation, now: Nanos) {
        let num_types = core.num_types;
        // Capture the outgoing guaranteed-core map and the demand shift
        // before the new reservation replaces them.
        let guaranteed_map = |darc: &Darc| -> Vec<usize> {
            (0..num_types)
                .map(|i| darc.guaranteed(TypeId::new(i as u32)))
                .collect()
        };
        let old_guaranteed = guaranteed_map(self);
        let demands = core.profiler.demands();
        let trigger_delta = demands
            .iter()
            .zip(self.last_demands.iter())
            .map(|(d, last)| (d - last).abs())
            .fold(0.0f64, f64::max);
        self.last_demands = demands;

        self.priority = res.priority_order().collect();
        let mut grouped = vec![false; num_types];
        for t in &self.priority {
            if t.index() < grouped.len() {
                grouped[t.index()] = true;
            }
        }
        self.spill_types = (0..num_types)
            .map(|i| TypeId::new(i as u32))
            .filter(|t| !grouped[t.index()])
            .collect();
        self.reservation = res;
        self.updates += 1;

        // SLO-sized typed queues: with `g` guaranteed cores, a backlog of
        // `N` requests of mean service `S` drains in `N·S/g`; bounding that
        // by the slowdown SLO (`≤ slowdown·S`) gives `N ≤ slowdown·g` — the
        // estimate cancels out, so the capacity is independent of how fast
        // the type is, but gated on an estimate existing at all.
        if let Some(bounds) = core.overload.slo_queues {
            let slo = core.profiler.config().slowdown_slo;
            for (i, q) in core.lanes.iter_mut().take(num_types).enumerate() {
                let ty = TypeId::new(i as u32);
                let g = self.guaranteed(ty);
                let cap = if g > 0 && core.profiler.estimate_ns(ty).is_some() {
                    ((slo * g as f64).ceil() as usize).clamp(bounds.min, bounds.max)
                } else {
                    bounds.min
                };
                q.set_capacity(cap);
            }
        }

        if let Some(t) = &core.telemetry {
            t.record_reservation_update(
                now.as_nanos(),
                self.updates,
                (trigger_delta * 1e6) as u64,
                &old_guaranteed,
                &guaranteed_map(self),
            );
        }
    }

    /// Algorithm 1: walk grouped types in ascending service-time order,
    /// then spillway-only types, matching heads with free reserved or
    /// stealable workers. Type `i` queues in lane `i`; UNKNOWN in the
    /// last lane.
    #[inline]
    fn poll_darc<R>(&self, core: &EngineCore<R>) -> Option<Pick> {
        for &ty in &self.priority {
            if core.lanes[ty.index()].is_empty() {
                continue;
            }
            let Some(gi) = self.reservation.group_of(ty) else {
                continue;
            };
            if let Some((worker, kind)) = self.free_in_group(core, gi) {
                return Some((ty.index(), worker, kind));
            }
            // Graceful degradation: when every core reserved for this group
            // is quarantined (stalled mid-request), the spillway re-covers
            // the group so its types keep flowing instead of wedging.
            if self.group_reserved_all_quarantined(core, gi) {
                if let Some(worker) = self.free_spillway(core) {
                    return Some((ty.index(), worker, DispatchKind::Spillway));
                }
            }
        }
        // Ungrouped types and UNKNOWN run on spillway cores, lowest priority.
        let spill_lanes = self
            .spill_types
            .iter()
            .map(|ty| ty.index())
            .chain(std::iter::once(core.num_types));
        for lane in spill_lanes {
            if core.lanes[lane].is_empty() {
                continue;
            }
            if let Some(worker) = self.free_spillway(core) {
                return Some((lane, worker, DispatchKind::Spillway));
            }
        }
        None
    }

    /// A free worker serving group `gi`: first the group's own reserved
    /// cores, then stealable cores borrowed from longer groups. The
    /// lists are ascending and short (they partition the worker pool),
    /// and the walk is a branch-predictable byte scan over `free[..]`.
    #[inline]
    fn free_in_group<R>(
        &self,
        core: &EngineCore<R>,
        gi: usize,
    ) -> Option<(WorkerId, DispatchKind)> {
        let g = &self.reservation.groups[gi];
        if let Some(w) = core.workers.first_free_in(&g.reserved) {
            return Some((w, DispatchKind::Reserved));
        }
        core.workers
            .first_free_in(&g.stealable)
            .map(|w| (w, DispatchKind::Stolen))
    }

    /// Whether group `gi` has reserved cores and every one is quarantined.
    fn group_reserved_all_quarantined<R>(&self, core: &EngineCore<R>, gi: usize) -> bool {
        let g = &self.reservation.groups[gi];
        !g.reserved.is_empty()
            && g.reserved
                .iter()
                .all(|w| core.workers.is_quarantined(w.index()))
    }

    #[inline]
    fn free_spillway<R>(&self, core: &EngineCore<R>) -> Option<WorkerId> {
        core.workers.first_free_in(&self.reservation.spillway)
    }
}

/// DARC-only views and controls of a [`DarcEngine`](super::DarcEngine).
impl<R> Engine<R, Darc> {
    /// The active reservation.
    pub fn reservation(&self) -> &Reservation {
        &self.select.reservation
    }

    /// Reservation updates installed since start (warm-up exit included).
    pub fn updates(&self) -> u64 {
        self.select.updates
    }

    /// Whether the engine is still in its c-FCFS warm-up window.
    pub fn in_warmup(&self) -> bool {
        self.select.phase == Phase::Warmup
    }

    /// Current capacity of `ty`'s queue (`0` = unbounded; UNKNOWN and
    /// out-of-range types map to the unknown queue). SLO-sized queues
    /// change this on every install.
    pub fn queue_capacity_of(&self, ty: TypeId) -> usize {
        self.core.lanes[self.core.slot(ty)].capacity()
    }

    /// Number of workers currently *guaranteed* (reserved) for `ty`'s
    /// group — the quantity plotted in the paper's Figure 7 bottom row.
    pub fn guaranteed_workers(&self, ty: TypeId) -> usize {
        self.select.guaranteed(ty)
    }

    /// Resizes the worker pool (paper §6: "DARC can cooperate with an
    /// allocator to obtain and release cores, adapting to load changes and
    /// updating reservations during such events").
    ///
    /// Growing takes effect immediately; shrinking requires the workers
    /// being surrendered (the highest-indexed ones) to be idle — the
    /// caller drains them first. A dynamic engine recomputes its
    /// reservation for the new width right away; a frozen or warming-up
    /// engine keeps its policy but gains/loses the raw cores.
    ///
    /// Returns `Err(())` without changes when shrinking would drop a busy
    /// worker or `new_workers` is zero. Reconfiguration lane, never per
    /// request — cold marks the audit frontier.
    #[allow(clippy::result_unit_err)]
    #[cold]
    pub fn resize(&mut self, new_workers: usize) -> Result<(), ()> {
        let (core, darc) = (&mut self.core, &mut self.select);
        core.workers.resize(new_workers)?;
        darc.reserve_cfg.num_workers = new_workers;
        match darc.phase {
            Phase::Darc => {
                // Reserve from the current estimates for the new width.
                let stats = core.profiler.estimates();
                let res = reserve(&stats, &darc.reserve_cfg);
                darc.install_at(core, res, Nanos::ZERO);
            }
            Phase::Warmup => {
                darc.reservation = Reservation::all_shared(core.num_types, new_workers);
            }
            Phase::Frozen => {
                // A manual reservation cannot be rescaled meaningfully;
                // rebuild the shared layout and let the caller install a
                // new static reservation if desired.
                darc.reservation = Reservation::all_shared(core.num_types, new_workers);
                darc.priority = darc.reservation.priority_order().collect();
                darc.spill_types.clear();
            }
        }
        Ok(())
    }

    /// Forces a reservation recomputation from the current window (used by
    /// tests and by operators; normal updates happen inside `complete`).
    pub fn force_update(&mut self) {
        if matches!(self.select.phase, Phase::Darc | Phase::Warmup) {
            self.select.commit_and_install(&mut self.core, Nanos::ZERO);
            self.select.phase = Phase::Darc;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::super::{DarcEngine, ReserveTuning, ScheduleEngine, SloQueueBounds};
    use super::*;
    use crate::reserve::Group;

    fn micros(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    fn hinted_engine(workers: usize) -> DarcEngine<u32> {
        // Type 0: short 1 µs at 50 %; type 1: long 100 µs at 50 %.
        let cfg = EngineConfig::darc(workers);
        DarcEngine::new(cfg, 2, &[Some(micros(1)), Some(micros(100))])
    }

    #[test]
    fn hinted_dynamic_engine_skips_warmup() {
        let eng = hinted_engine(4);
        assert!(!eng.in_warmup());
        assert_eq!(eng.reservation().groups.len(), 2);
    }

    #[test]
    fn dispatches_short_before_long() {
        let mut eng = hinted_engine(2);
        // Hint ratios are unknown at boot (commit with zero samples keeps
        // ratio 0), so re-profile: feed one window of traffic.
        let now = micros(0);
        eng.enqueue(TypeId::new(1), 100, now).unwrap();
        eng.enqueue(TypeId::new(0), 1, now).unwrap();
        // Short type (priority order) must dispatch first even though the
        // long request arrived earlier.
        let d = eng.poll(now).unwrap();
        assert_eq!(d.ty, TypeId::new(0));
        let d2 = eng.poll(now).unwrap();
        assert_eq!(d2.ty, TypeId::new(1));
        assert!(eng.poll(now).is_none(), "both workers busy");
    }

    #[test]
    fn short_steals_long_workers_but_not_vice_versa() {
        let mut eng = hinted_engine(4);
        let now = micros(0);
        // Reservation: short gets ≥1 reserved worker; long gets the rest.
        let short_reserved = eng.reservation().groups[0].reserved.len();
        assert!(short_reserved >= 1);
        // Fill the system with shorts: they may occupy every worker.
        for i in 0..4 {
            eng.enqueue(TypeId::new(0), i, now).unwrap();
        }
        let mut count = 0;
        while eng.poll(now).is_some() {
            count += 1;
        }
        assert_eq!(count, 4, "shorts can run on all workers via stealing");

        // Drain, then fill with longs: they must not take short workers.
        let mut eng = hinted_engine(4);
        for i in 0..4 {
            eng.enqueue(TypeId::new(1), i, now).unwrap();
        }
        let mut long_dispatched = 0;
        while eng.poll(now).is_some() {
            long_dispatched += 1;
        }
        let long_workers = eng.reservation().groups[1].reserved.len();
        assert_eq!(
            long_dispatched, long_workers,
            "longs are capped at their reserved workers"
        );
        assert!(long_dispatched < 4);
    }

    #[test]
    fn warmup_fcfs_respects_global_arrival_order() {
        // An unhinted dynamic engine starts in the c-FCFS warm-up phase.
        let mut eng: DarcEngine<u32> = DarcEngine::new(EngineConfig::darc(1), 2, &[None, None]);
        assert!(eng.in_warmup());
        let now = micros(0);
        eng.enqueue(TypeId::new(1), 10, now).unwrap();
        eng.enqueue(TypeId::new(0), 20, now).unwrap();
        let d = eng.poll(now).unwrap();
        assert_eq!(d.req, 10, "c-FCFS must take the earliest arrival");
        eng.complete(d.worker, micros(1), micros(2));
        let d2 = eng.poll(micros(2)).unwrap();
        assert_eq!(d2.req, 20);
    }

    #[test]
    fn unknown_requests_run_on_spillway_in_fcfs_and_darc() {
        let mut eng = hinted_engine(2);
        let now = micros(0);
        eng.enqueue(TypeId::UNKNOWN, 99, now).unwrap();
        let d = eng.poll(now).unwrap();
        assert_eq!(d.ty, TypeId::UNKNOWN);
        assert!(eng.reservation().spillway.contains(&d.worker));
    }

    #[test]
    fn unknown_loses_to_typed_work() {
        let mut eng = hinted_engine(2);
        let now = micros(0);
        eng.enqueue(TypeId::UNKNOWN, 99, now).unwrap();
        eng.enqueue(TypeId::new(0), 1, now).unwrap();
        let d = eng.poll(now).unwrap();
        assert_eq!(d.ty, TypeId::new(0), "typed work beats UNKNOWN");
    }

    #[test]
    fn warmup_transitions_to_darc_after_first_window() {
        let mut cfg = EngineConfig::darc(2);
        cfg.profiler.min_samples = 4;
        let mut eng: DarcEngine<u32> = DarcEngine::new(cfg, 2, &[None, None]);
        assert!(eng.in_warmup());
        let mut now = Nanos::ZERO;
        for i in 0..4 {
            let ty = TypeId::new(i % 2);
            eng.enqueue(ty, i, now).unwrap();
            let d = eng.poll(now).unwrap();
            let service = if d.ty == TypeId::new(0) {
                micros(1)
            } else {
                micros(100)
            };
            now += service;
            eng.complete(d.worker, service, now);
        }
        assert!(!eng.in_warmup(), "4 samples fill the window");
        assert_eq!(eng.reservation().groups.len(), 2);
        assert_eq!(eng.updates(), 1);
    }

    #[test]
    fn static_mode_never_updates() {
        let res = Reservation::two_class_static(2, 4, TypeId::new(0), 1);
        let cfg = EngineConfig {
            mode: EngineMode::Static(res),
            ..EngineConfig::darc(4)
        };
        let mut eng: DarcEngine<u32> = DarcEngine::new(cfg, 2, &[None, None]);
        let updates_at_boot = eng.updates();
        let mut now = Nanos::ZERO;
        for i in 0..100_000 {
            eng.enqueue(TypeId::new(i % 2), i, now).unwrap();
            let d = eng.poll(now).unwrap();
            now += micros(1);
            eng.complete(d.worker, micros(1), now);
        }
        assert_eq!(eng.updates(), updates_at_boot);
    }

    #[test]
    fn guaranteed_workers_reports_reserved_count() {
        let eng = hinted_engine(14);
        // Hinted boot assumes uniform ratios: High Bimodal hints on 14
        // workers give the short type 1 guaranteed core (paper §5.2).
        assert_eq!(eng.guaranteed_workers(TypeId::new(0)), 1);
        assert_eq!(eng.guaranteed_workers(TypeId::new(1)), 13);
        assert_eq!(eng.guaranteed_workers(TypeId::UNKNOWN), 0);
    }

    #[test]
    fn reserve_worker_count_is_derived_from_engine_config() {
        // The worker count lives once in EngineConfig: whatever the
        // reservation tuning says, the engine reserves over num_workers.
        let mut cfg = EngineConfig::darc(6);
        cfg.reserve = ReserveTuning::default().with_delta(1.5).with_spillway(2);
        let hints = [Some(Nanos::from_micros(1)), Some(Nanos::from_micros(100))];
        let eng: DarcEngine<u64> = DarcEngine::new(cfg, 2, &hints);
        assert_eq!(eng.reservation().num_workers, 6);
        assert_eq!(eng.reservation().spillway.len(), 2);
        // An absurd spillway request is clamped, not asserted on.
        let mut cfg = EngineConfig::darc(2);
        cfg.reserve = ReserveTuning::default().with_spillway(99);
        let eng: DarcEngine<u64> = DarcEngine::new(cfg, 2, &hints);
        assert_eq!(eng.reservation().num_workers, 2);
    }

    #[test]
    fn resize_grows_and_rereserves() {
        let mut eng = hinted_engine(4);
        assert_eq!(eng.guaranteed_workers(TypeId::new(1)), 3);
        eng.resize(14).unwrap();
        assert_eq!(eng.num_workers(), 14);
        assert_eq!(eng.free_workers(), 14);
        // High Bimodal hints on 14 workers: shorts 1, longs 13 (§5.2).
        assert_eq!(eng.guaranteed_workers(TypeId::new(0)), 1);
        assert_eq!(eng.guaranteed_workers(TypeId::new(1)), 13);
        // Work still flows after the resize.
        eng.enqueue(TypeId::new(0), 1, Nanos::ZERO).unwrap();
        let d = eng.poll(Nanos::ZERO).unwrap();
        eng.complete(d.worker, micros(1), micros(1));
    }

    #[test]
    fn resize_shrink_requires_idle_surrendered_workers() {
        let mut eng = hinted_engine(4);
        // Occupy the highest-indexed worker with a long request.
        for i in 0..4 {
            eng.enqueue(TypeId::new(1), i, Nanos::ZERO).unwrap();
        }
        while eng.poll(Nanos::ZERO).is_some() {}
        let busy_high = (0..4).rev().find(|_| true).unwrap();
        let _ = busy_high;
        assert!(eng.resize(1).is_err(), "cannot drop busy workers");
        assert_eq!(eng.num_workers(), 4, "failed resize leaves state intact");
        assert!(eng.resize(0).is_err());
    }

    #[test]
    fn resize_shrink_of_idle_workers_succeeds() {
        let mut eng = hinted_engine(8);
        eng.resize(2).unwrap();
        assert_eq!(eng.num_workers(), 2);
        // Both types still schedulable on the smaller machine.
        eng.enqueue(TypeId::new(0), 1, Nanos::ZERO).unwrap();
        eng.enqueue(TypeId::new(1), 2, Nanos::ZERO).unwrap();
        assert!(eng.poll(Nanos::ZERO).is_some());
        assert!(eng.poll(Nanos::ZERO).is_some());
    }

    /// A mis-rounded allocation self-heals even when the measured demand
    /// vector barely moves: the allocation-staleness trigger fires.
    #[test]
    fn stale_allocation_self_heals() {
        // Boot with uniform-ratio hints: Extreme-Bimodal service times at
        // assumed 50/50 ratios give the short type 1 core on 14 workers.
        let mut cfg = EngineConfig::darc(14);
        cfg.profiler.min_samples = 2_000;
        let hints = [Some(Nanos::from_nanos(500)), Some(micros(500))];
        let mut eng: DarcEngine<u32> = DarcEngine::new(cfg, 2, &hints);
        assert_eq!(eng.guaranteed_workers(TypeId::new(0)), 1);
        let boot_updates = eng.updates();

        // Feed the *true* mix (99.5 % shorts): demand says 2 cores. The
        // shorts overflow their single core, raising the delay signal.
        // Ratio estimates are EWMA-smoothed across windows, so convergence
        // takes a few windows rather than one.
        let mut now = Nanos::ZERO;
        let mut i = 0u32;
        while eng.guaranteed_workers(TypeId::new(0)) != 2 && i < 800_000 {
            let ty = if i.is_multiple_of(200) {
                TypeId::new(1)
            } else {
                TypeId::new(0)
            };
            eng.enqueue(ty, i, now).unwrap();
            i += 1;
            // Drain in bursts of 64 so queues build up between drains.
            if i.is_multiple_of(64) {
                while let Some(d) = eng.poll(now) {
                    let service = if d.ty == TypeId::new(0) {
                        Nanos::from_nanos(500)
                    } else {
                        micros(500)
                    };
                    now += service;
                    eng.complete(d.worker, service, now);
                }
            }
        }
        assert!(
            eng.updates() > boot_updates,
            "stale 1-core allocation must be corrected"
        );
        assert_eq!(
            eng.guaranteed_workers(TypeId::new(0)),
            2,
            "true demand 0.166 x 14 = 2.3 cores"
        );
    }

    #[test]
    fn telemetry_hooks_record_engine_activity() {
        use persephone_telemetry::{SchedEvent, Telemetry, TelemetryConfig};
        let mut cfg = EngineConfig::darc(4);
        cfg.profiler.min_samples = 8;
        cfg.queue_capacity = 4;
        let mut eng: DarcEngine<u32> = DarcEngine::new(cfg, 2, &[None, None]);
        let tel = Arc::new(Telemetry::new(TelemetryConfig::new(2, 4)));
        eng.set_telemetry(tel.clone());

        let mut now = Nanos::ZERO;
        let mut enqueued = 0u64;
        let mut dropped = 0u64;
        for i in 0..400u32 {
            let ty = TypeId::new(i % 2);
            match eng.enqueue(ty, i, now) {
                Ok(()) => enqueued += 1,
                Err(_) => dropped += 1,
            }
            if i % 16 == 0 {
                while let Some(d) = eng.poll(now) {
                    let service = if d.ty == TypeId::new(0) {
                        micros(1)
                    } else {
                        micros(100)
                    };
                    now += service;
                    eng.complete(d.worker, service, now);
                }
            }
        }
        while eng.total_pending() > 0 {
            while let Some(d) = eng.poll(now) {
                now += micros(1);
                eng.complete(d.worker, micros(1), now);
            }
        }

        let snap = tel.snapshot();
        assert_eq!(snap.completions(), enqueued);
        let arrivals: u64 = snap.types.iter().map(|t| t.counters.arrivals).sum();
        assert_eq!(arrivals, enqueued + dropped);
        let drops: u64 = snap.types.iter().map(|t| t.counters.drops).sum();
        assert_eq!(drops, dropped);
        assert_eq!(drops, eng.total_drops());
        // Sojourn percentiles exist per type and include queueing: the
        // long type's p50 must be at least its 100 µs service time.
        assert!(snap.types[1].sojourn.quantile(0.5) >= 100_000);
        assert!(snap.types[0].sojourn.count() > 0);
        // Warm-up exit produced at least one reservation-update event
        // carrying the old→new guaranteed map.
        let update = snap.events.events.iter().find_map(|(_, e)| match e {
            SchedEvent::ReservationUpdate { new_guaranteed, .. } => Some(new_guaranteed),
            _ => None,
        });
        let new_map = update.expect("missing reservation-update event");
        assert_eq!(
            (new_map[0] as usize, new_map[1] as usize),
            (
                eng.guaranteed_workers(TypeId::new(0)),
                eng.guaranteed_workers(TypeId::new(1))
            )
        );
        // Queue-depth high-water marks were tracked.
        assert!(snap.types.iter().any(|t| t.counters.queue_depth_hwm > 0));
    }

    #[test]
    fn dispatch_kinds_distinguish_reserved_from_stolen() {
        let mut eng = hinted_engine(4);
        let now = micros(0);
        // Fill with shorts: first dispatch lands on the short group's
        // reserved core, later ones steal from the long group.
        for i in 0..4 {
            eng.enqueue(TypeId::new(0), i, now).unwrap();
        }
        let mut kinds = Vec::new();
        while let Some(d) = eng.poll(now) {
            kinds.push(d.kind);
        }
        assert_eq!(kinds[0], DispatchKind::Reserved);
        assert!(kinds.contains(&DispatchKind::Stolen));
        // UNKNOWN work arrives on the spillway.
        let mut eng = hinted_engine(2);
        eng.enqueue(TypeId::UNKNOWN, 9, now).unwrap();
        assert_eq!(eng.poll(now).unwrap().kind, DispatchKind::Spillway);
        // Warm-up c-FCFS reports the FCFS kind.
        let mut eng: DarcEngine<u32> = DarcEngine::new(EngineConfig::darc(1), 2, &[None, None]);
        eng.enqueue(TypeId::new(0), 1, now).unwrap();
        assert_eq!(eng.poll(now).unwrap().kind, DispatchKind::Fcfs);
    }

    #[test]
    fn slo_sized_queues_track_reservation() {
        let mut cfg = EngineConfig::darc(14);
        cfg.overload.slo_queues = Some(SloQueueBounds { min: 2, max: 64 });
        let eng: DarcEngine<u32> = DarcEngine::new(cfg, 2, &[Some(micros(1)), Some(micros(100))]);
        // Hinted boot reserves 1 core for shorts and 13 for longs; with the
        // default slowdown SLO of 10 the capacities are 10×1 and 10×13,
        // the latter clamped to the configured max.
        assert_eq!(eng.queue_capacity_of(TypeId::new(0)), 10);
        assert_eq!(eng.queue_capacity_of(TypeId::new(1)), 64);
        // Off by default: queues keep the static (unbounded) capacity.
        let plain = hinted_engine(14);
        assert_eq!(plain.queue_capacity_of(TypeId::new(0)), 0);
    }

    #[test]
    fn quarantined_reserved_core_is_covered_by_spillway() {
        // Hand-built strict partition: short on w0, long on w1, spillway
        // w2, no stealing anywhere — so only the quarantine fallback can
        // keep the short type flowing when w0 stalls.
        let res = Reservation::custom(
            vec![
                Group {
                    types: vec![TypeId::new(0)],
                    mean_service_ns: 1_000.0,
                    demand: 0.5,
                    reserved: vec![WorkerId::new(0)],
                    stealable: Vec::new(),
                },
                Group {
                    types: vec![TypeId::new(1)],
                    mean_service_ns: 100_000.0,
                    demand: 0.5,
                    reserved: vec![WorkerId::new(1)],
                    stealable: Vec::new(),
                },
            ],
            vec![WorkerId::new(2)],
            2,
            3,
        );
        let mut cfg = EngineConfig {
            mode: EngineMode::Static(res),
            ..EngineConfig::darc(3)
        };
        cfg.overload.stall_factor = Some(5.0);
        cfg.overload.min_stall = micros(1);
        let mut eng: DarcEngine<u32> =
            DarcEngine::new(cfg, 2, &[Some(micros(1)), Some(micros(100))]);
        // Dispatch a short onto its reserved core and stall it.
        eng.enqueue(TypeId::new(0), 1, micros(0)).unwrap();
        let d = eng.poll(micros(0)).unwrap();
        assert_eq!(d.worker, WorkerId::new(0));
        assert_eq!(d.kind, DispatchKind::Reserved);
        eng.check_health(micros(50));
        assert!(eng.is_quarantined(WorkerId::new(0)));
        // The next short cannot use w0 (quarantined) and has nothing to
        // steal; the spillway must absorb it.
        eng.enqueue(TypeId::new(0), 2, micros(50)).unwrap();
        let d2 = eng.poll(micros(50)).unwrap();
        assert_eq!(d2.worker, WorkerId::new(2));
        assert_eq!(d2.kind, DispatchKind::Spillway);
        // With the spillway busy too, nothing is schedulable for shorts.
        eng.enqueue(TypeId::new(0), 3, micros(50)).unwrap();
        assert!(eng.poll(micros(50)).is_none());
        // Longs are unaffected throughout.
        eng.enqueue(TypeId::new(1), 4, micros(50)).unwrap();
        assert_eq!(eng.poll(micros(50)).unwrap().worker, WorkerId::new(1));
    }

    #[test]
    fn reservation_update_after_demand_shift() {
        let mut cfg = EngineConfig::darc(4);
        cfg.profiler.min_samples = 100;
        let mut eng: DarcEngine<u32> = DarcEngine::new(cfg, 2, &[None, None]);
        let mut now = Nanos::ZERO;
        // Warm-up window: type 0 short, type 1 long.
        for i in 0..100 {
            let ty = TypeId::new(i % 2);
            eng.enqueue(ty, i, now).unwrap();
            let d = eng.poll(now).unwrap();
            let service = if d.ty == TypeId::new(0) {
                micros(1)
            } else {
                micros(100)
            };
            now += service;
            eng.complete(d.worker, service, now);
        }
        assert!(!eng.in_warmup());
        let g_short = eng.reservation().group_of(TypeId::new(0)).unwrap();
        assert_eq!(
            eng.reservation().groups[g_short].types,
            vec![TypeId::new(0)]
        );
        let updates_before = eng.updates();
        // Phase change: type 0 becomes the long one. Enqueue a burst so a
        // backlog builds: queueing delays pile up ⇒ delay signal; demand
        // flips ⇒ deviation; window fills ⇒ update.
        for i in 0..400u32 {
            let ty = TypeId::new(i % 2);
            eng.enqueue(ty, i, now).unwrap();
        }
        while let Some(d) = eng.poll(now) {
            let service = if d.ty == TypeId::new(0) {
                micros(100)
            } else {
                micros(1)
            };
            now += service;
            eng.complete(d.worker, service, now);
        }
        assert!(eng.updates() > updates_before, "reservation must adapt");
        assert_eq!(eng.total_pending(), 0, "the backlog must fully drain");
    }
}
