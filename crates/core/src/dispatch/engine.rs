//! The [`ScheduleEngine`] trait: one dispatch abstraction for every
//! scheduling policy.
//!
//! The dispatcher loop (threaded runtime) and the discrete-event
//! simulator both drive a scheduling engine through the same verbs:
//!
//! * [`ScheduleEngine::enqueue`] — admit a classified request (or shed it
//!   via flow control),
//! * [`ScheduleEngine::poll`] — ask for the next placement decision,
//! * [`ScheduleEngine::complete`] — return a worker to the pool and feed
//!   profiling,
//! * [`ScheduleEngine::expire_heads`] / [`ScheduleEngine::check_health`] —
//!   overload control (deadline shedding, worker quarantine),
//! * [`ScheduleEngine::drain_all`] — orderly teardown,
//! * [`ScheduleEngine::report`] — the end-of-run counters every engine
//!   can answer.
//!
//! There is exactly one implementation: [`Engine<R, S>`], the shared
//! [`EngineCore`] driven by a [`Select`] rule. [`super::DarcEngine`] (the
//! paper's contribution) and the Table 1/5 baselines
//! [`super::CfcfsEngine`], [`super::SjfEngine`],
//! [`super::FixedPriorityEngine`] and [`super::DfcfsEngine`] are aliases
//! of it that differ in `S` only. The runtime's hot loop is generic over
//! `E: ScheduleEngine<Pending>` (monomorphized per policy); `Box<dyn
//! ScheduleEngine<R>>` exists for configuration-time construction via
//! [`super::build_engine`].

use std::sync::Arc;

use persephone_telemetry::{DispatchKind, Telemetry};

use super::core::{EngineCore, Select};
use super::EngineConfig;
use crate::profile::Profiler;
use crate::time::Nanos;
use crate::types::{TypeId, WorkerId};

/// One dispatch decision returned by [`ScheduleEngine::poll`].
#[derive(Clone, Debug, PartialEq)]
pub struct Dispatch<R> {
    /// The worker the request must run on.
    pub worker: WorkerId,
    /// The request's type (possibly UNKNOWN).
    pub ty: TypeId,
    /// The opaque request payload.
    pub req: R,
    /// Time the request waited in its queue.
    pub queued_for: Nanos,
    /// How the request reached the worker (reserved core, cycle-steal,
    /// spillway, or a plain FCFS-style placement).
    pub kind: DispatchKind,
}

/// End-of-run counters every engine can answer, regardless of policy.
///
/// Policies without a concept report zero (e.g. a c-FCFS engine never
/// installs reservations, so `updates == 0` and `guaranteed` is all
/// zeros); the dispatcher folds this into its own
/// `DispatcherReport` without knowing which engine ran.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineReport {
    /// Short policy name ("DARC", "c-FCFS", "SJF", ...).
    pub policy: &'static str,
    /// Reservation updates installed (DARC only; 0 elsewhere).
    pub updates: u64,
    /// Workers quarantined by the wall-clock health check.
    pub quarantines: u64,
    /// Quarantined workers released by their late completion.
    pub releases: u64,
    /// Requests expired by deadline shedding or drained at teardown.
    pub expired: u64,
    /// Guaranteed (reserved) cores per type (all zeros for policies
    /// without reservations).
    pub guaranteed: Vec<usize>,
}

/// A pluggable scheduling engine: the dispatcher's policy brain.
///
/// `R` is the opaque request representation — a buffer pointer in the
/// threaded runtime, a small token in the simulator. Implementations must
/// be `Send` so a dispatcher thread can own one.
///
/// # Contract
///
/// * `poll` is called in a loop after every `enqueue`/`complete` until it
///   returns `None`; it must only place requests on free, non-quarantined
///   workers and must mark the chosen worker busy.
/// * `complete(worker, ..)` panics if `worker` was not busy — that is a
///   dispatcher/worker protocol violation, not a recoverable condition.
/// * `expire_heads` and `check_health` are called once per dispatcher
///   iteration and must be no-ops when the corresponding
///   [`super::OverloadConfig`] knob is off.
/// * `quiescent` must treat quarantined workers as *not* pending so a
///   stalled core cannot wedge shutdown.
pub trait ScheduleEngine<R>: Send {
    /// Short display name of the policy ("DARC", "c-FCFS", "SJF", ...).
    fn policy_name(&self) -> &'static str;

    /// Number of application workers.
    fn num_workers(&self) -> usize;

    /// Number of registered request types (excluding UNKNOWN).
    fn num_types(&self) -> usize;

    /// Attaches a telemetry registry: from here on the engine records
    /// arrivals, queue depths, dispatch kinds, sojourns, and drops into it.
    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>);

    /// The attached telemetry registry, if any.
    fn telemetry(&self) -> Option<&Arc<Telemetry>>;

    /// Enqueues a classified request; returns it back when flow control
    /// rejects it (the caller should count/drop it). Types out of the
    /// registered range are treated as UNKNOWN.
    fn enqueue(&mut self, ty: TypeId, req: R, now: Nanos) -> Result<(), R>;

    /// Returns the next dispatch decision, or `None` when no request can
    /// be placed (no pending work, or no eligible free worker).
    fn poll(&mut self, now: Nanos) -> Option<Dispatch<R>>;

    /// Signals that `worker` finished its request, observed to run for
    /// `service`. Frees the worker and feeds the profiler.
    fn complete(&mut self, worker: WorkerId, service: Nanos, now: Nanos);

    /// Deadline shedding: expires queued requests whose queueing delay
    /// exceeds the slowdown-SLO deadline, moving them to the expired
    /// buffer drained by [`ScheduleEngine::take_expired`].
    fn expire_heads(&mut self, now: Nanos);

    /// Takes the next deadline-expired request, if any.
    fn take_expired(&mut self) -> Option<(TypeId, R)>;

    /// Worker-health check: quarantines any busy worker whose in-flight
    /// request has run far past its type's profiled mean.
    fn check_health(&mut self, now: Nanos);

    /// Whether `worker` is currently quarantined.
    fn is_quarantined(&self, worker: WorkerId) -> bool;

    /// Drains every queue (shutdown teardown), appending all entries to
    /// `out` so the caller can answer each with `Dropped`. Taking the
    /// buffer from the caller lets it be reused across engines instead
    /// of allocating a fresh `Vec` per drain.
    fn drain_all(&mut self, now: Nanos, out: &mut Vec<(TypeId, R)>);

    /// Whether every worker is either idle or quarantined — the engine's
    /// quiescence condition for shutdown.
    fn quiescent(&self) -> bool;

    /// Workers currently idle (and dispatchable).
    fn free_workers(&self) -> usize;

    /// Queued requests of type `ty` (UNKNOWN supported).
    fn pending(&self, ty: TypeId) -> usize;

    /// Total queued requests across all types.
    fn total_pending(&self) -> usize;

    /// Requests dropped by flow control for type `ty`.
    fn drops(&self, ty: TypeId) -> u64;

    /// Total drops across all queues.
    fn total_drops(&self) -> u64;

    /// End-of-run counters (policy name, updates, quarantines, ...).
    fn report(&self) -> EngineReport;
}

/// The one scheduling engine: an [`EngineCore`] plus the [`Select`] rule
/// `S` that decides which lane head goes to which worker.
///
/// `R` is the opaque request representation: a buffer pointer in the
/// runtime, a small token in the simulator. Drive it through
/// [`ScheduleEngine`].
///
/// # Examples
///
/// ```
/// use persephone_core::dispatch::{DarcEngine, EngineConfig, ScheduleEngine};
/// use persephone_core::time::Nanos;
/// use persephone_core::types::TypeId;
///
/// // Two types, two workers, trivially small profiling window.
/// let mut cfg = EngineConfig::darc(2);
/// cfg.profiler.min_samples = 2;
/// let mut eng: DarcEngine<u64> = DarcEngine::new(cfg, 2, &[None, None]);
///
/// let now = Nanos::from_micros(1);
/// eng.enqueue(TypeId::new(0), 7, now).unwrap();
/// let d = eng.poll(now).expect("a free worker exists");
/// assert_eq!(d.req, 7);
/// eng.complete(d.worker, Nanos::from_micros(1), now + Nanos::from_micros(1));
/// ```
#[derive(Clone, Debug)]
pub struct Engine<R, S> {
    pub(crate) core: EngineCore<R>,
    pub(crate) select: S,
}

impl<R, S: Select> Engine<R, S> {
    /// Creates an engine for `num_types` request types.
    ///
    /// `hints[i]` optionally seeds type `i`'s service-time estimate. What
    /// a rule makes of the hints is its own business: DARC skips its
    /// c-FCFS warm-up when every type is hinted, FP sorts its priority
    /// order by them, SJF sorts unhinted types last until profiled.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.num_workers == 0` or `hints.len() != num_types`.
    pub fn new(cfg: EngineConfig, num_types: usize, hints: &[Option<Nanos>]) -> Self {
        let mut core = EngineCore::new(&cfg, num_types, hints, S::lanes(&cfg, num_types));
        let select = S::build(cfg, hints, &mut core);
        Engine { core, select }
    }

    /// The workload profiler (read-only view).
    pub fn profiler(&self) -> &Profiler {
        &self.core.profiler
    }
}

impl<R: Send, S: Select> ScheduleEngine<R> for Engine<R, S> {
    fn policy_name(&self) -> &'static str {
        S::NAME
    }

    fn num_workers(&self) -> usize {
        self.core.workers.len()
    }

    fn num_types(&self) -> usize {
        self.core.num_types
    }

    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.core.telemetry = Some(telemetry);
    }

    fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.core.telemetry.as_ref()
    }

    #[inline]
    fn enqueue(&mut self, ty: TypeId, req: R, now: Nanos) -> Result<(), R> {
        let slot = self.core.slot(ty);
        let lane = self.select.lane_of(slot, self.core.lanes.len());
        self.core.admit(lane, slot, req, now)
    }

    #[inline]
    fn poll(&mut self, now: Nanos) -> Option<Dispatch<R>> {
        let pick = self.select.select(&self.core)?;
        self.core.place(pick, now)
    }

    #[inline]
    fn complete(&mut self, worker: WorkerId, service: Nanos, now: Nanos) {
        self.core.finish(worker, service, now);
        self.select.after_complete(&mut self.core, now);
    }

    fn expire_heads(&mut self, now: Nanos) {
        self.core.expire(now);
    }

    fn take_expired(&mut self) -> Option<(TypeId, R)> {
        self.core.expired_buf.pop_front()
    }

    fn check_health(&mut self, now: Nanos) {
        self.core.health(now);
    }

    fn is_quarantined(&self, worker: WorkerId) -> bool {
        self.core.workers.is_quarantined(worker.index())
    }

    fn drain_all(&mut self, now: Nanos, out: &mut Vec<(TypeId, R)>) {
        self.core.drain(now, out);
    }

    fn quiescent(&self) -> bool {
        self.core.workers.quiescent()
    }

    fn free_workers(&self) -> usize {
        self.core.workers.free_count()
    }

    fn pending(&self, ty: TypeId) -> usize {
        self.core.pending[self.core.slot(ty)]
    }

    fn total_pending(&self) -> usize {
        self.core.pending.iter().sum()
    }

    fn drops(&self, ty: TypeId) -> u64 {
        self.core.drops[self.core.slot(ty)]
    }

    fn total_drops(&self) -> u64 {
        self.core.drops.iter().sum()
    }

    fn report(&self) -> EngineReport {
        let mut report = EngineReport {
            policy: S::NAME,
            updates: 0,
            quarantines: self.core.workers.quarantines(),
            releases: self.core.workers.releases(),
            expired: self.core.expired_total,
            guaranteed: vec![0; self.core.num_types],
        };
        self.select.report(&mut report);
        report
    }
}
