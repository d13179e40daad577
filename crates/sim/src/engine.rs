//! The discrete-event simulation engine.
//!
//! The engine owns simulated time, the pending events, the request slab,
//! the worker states, and the metrics recorder. Scheduling policies
//! implement [`SimPolicy`] and react to four events: a request *arrival*,
//! a worker *completion*, a *slice expiry* (preemptive policies only), and
//! policy *timers*. Policies place work through [`Core::run`]
//! (non-preemptive, run to completion) or [`Core::run_slice`] (bounded
//! slice plus optional preemption overhead, for time-sharing policies).
//!
//! A run never holds more than one pending arrival and one slice end per
//! worker, so those live in fixed slots and only timers, which no shipped
//! policy sets, go through a heap. Every scheduled event gets a key: its
//! time, then a sequence number taken when it was scheduled (the next
//! arrival before the policy sees the current one, a slice end in
//! [`Core::run`] and its siblings, a timer in [`Core::timer`]). The least
//! key fires next, so events at the same time fire in the order they were
//! scheduled.
//!
//! The paper's own Figures 1 and 10 come from exactly this kind of
//! simulation; we extend it to every evaluation figure.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use persephone_core::time::Nanos;
use persephone_core::types::TypeId;

use crate::metrics::{Recorder, RunSummary, Timeline};
use crate::workload::Arrival;

/// Index of a live request in the engine's slab.
pub type ReqId = u32;

/// A live request.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    /// True request type (what the workload generated).
    pub ty: TypeId,
    /// Arrival time at the server.
    pub arrival: Nanos,
    /// Total service demand.
    pub service: Nanos,
    /// Remaining service demand (decremented by slices).
    pub remaining: Nanos,
    /// Number of times the request was preempted.
    pub preemptions: u32,
    active: bool,
}

/// When a scheduled event fires: its time in the high half, the sequence
/// number it was scheduled under in the low half. Keys are unique.
type EvKey = u128;

/// The key of a slot that holds no event; it sorts after every real one.
const NO_EVENT: EvKey = EvKey::MAX;

/// One worker: the slice it is running, if any, and its time accounts.
#[derive(Clone, Copy, Debug)]
struct Worker {
    /// Key of the running slice's end; `NO_EVENT` while idle.
    slice_end: EvKey,
    req: ReqId,
    completes: bool,
    busy_ns: u64,
    overhead_ns: u64,
}

/// Events a policy receives.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// A request arrived at the dispatcher.
    Arrival(ReqId),
    /// `worker` completed `req` (already recorded and freed; its type and
    /// measured service time travel with the event).
    Completed {
        /// The worker that finished.
        worker: usize,
        /// The completed request's (now stale) id.
        req: ReqId,
        /// The request's true type.
        ty: TypeId,
        /// The request's total service time as executed.
        service: Nanos,
    },
    /// `worker`'s slice ended with work remaining; the request must be
    /// re-queued by the policy.
    SliceExpired {
        /// The worker whose slice expired.
        worker: usize,
        /// The preempted request.
        req: ReqId,
    },
    /// A timer scheduled via [`Core::timer`] fired.
    Timer(u64),
}

/// A scheduling policy under simulation.
pub trait SimPolicy {
    /// Display name for reports.
    fn name(&self) -> String;
    /// Reacts to an engine event.
    fn handle(&mut self, ev: Event, core: &mut Core);
}

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of worker cores.
    pub workers: usize,
    /// Fraction of the run (by arrival time) discarded as warm-up.
    pub warmup_fraction: f64,
    /// Extra reporting-only latency added per request (network RTT).
    pub rtt: Nanos,
    /// Record a per-type latency timeline with this bucket size.
    pub timeline_bucket: Option<Nanos>,
}

impl SimConfig {
    /// A config with the paper's defaults: 10 % warm-up, no network.
    pub fn new(workers: usize) -> Self {
        SimConfig {
            workers,
            warmup_fraction: 0.1,
            rtt: Nanos::ZERO,
            timeline_bucket: None,
        }
    }

    /// Sets the reporting-only round-trip latency.
    pub fn with_rtt(mut self, rtt: Nanos) -> Self {
        self.rtt = rtt;
        self
    }
}

/// The simulation core handed to policies.
pub struct Core {
    /// Current simulated time.
    pub now: Nanos,
    slab: Vec<Req>,
    free: Vec<ReqId>,
    seq: u64,
    workers: Vec<Worker>,
    /// The least `slice_end` over `workers`, and whose it is: kept so
    /// that only a slice end, not an arrival, costs a scan.
    next_slice_end: EvKey,
    next_worker: usize,
    /// `(key, tag)` of every pending timer.
    timers: BinaryHeap<Reverse<(EvKey, u64)>>,
    recorder: Recorder,
    timeline: Option<Timeline>,
    live: u64,
    completions: u64,
    rtt: Nanos,
}

impl Core {
    /// The key of an event scheduled now to fire at `at`.
    fn schedule(&mut self, at: Nanos) -> EvKey {
        self.seq += 1;
        (at.as_nanos() as EvKey) << 64 | self.seq as EvKey
    }

    /// Number of workers.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Whether `worker` is idle.
    pub fn worker_idle(&self, worker: usize) -> bool {
        self.workers[worker].slice_end == NO_EVENT
    }

    /// The lowest-indexed idle worker, if any.
    pub fn idle_worker(&self) -> Option<usize> {
        self.workers.iter().position(|w| w.slice_end == NO_EVENT)
    }

    /// Number of idle workers.
    pub fn idle_count(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| w.slice_end == NO_EVENT)
            .count()
    }

    /// Read a live request.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not name a live request.
    pub fn req(&self, id: ReqId) -> &Req {
        let r = &self.slab[id as usize];
        assert!(r.active, "stale request id {id}");
        r
    }

    /// Runs `req` to completion on `worker` (non-preemptive policies).
    ///
    /// # Panics
    ///
    /// Panics if the worker is busy.
    pub fn run(&mut self, worker: usize, req: ReqId) {
        let remaining = self.req(req).remaining;
        self.start(worker, req, remaining, Nanos::ZERO, true);
    }

    /// Runs `req` on `worker` for at most `max_slice`. If the request
    /// cannot finish within the slice it is preempted: the worker
    /// additionally pays `preempt_overhead` (charged as overhead, not
    /// progress) and a [`Event::SliceExpired`] fires.
    ///
    /// # Panics
    ///
    /// Panics if the worker is busy or `max_slice` is zero.
    pub fn run_slice(
        &mut self,
        worker: usize,
        req: ReqId,
        max_slice: Nanos,
        preempt_overhead: Nanos,
    ) {
        assert!(max_slice > Nanos::ZERO, "zero-length slice");
        let remaining = self.req(req).remaining;
        if remaining <= max_slice {
            self.start(worker, req, remaining, Nanos::ZERO, true);
        } else {
            self.start(worker, req, max_slice, preempt_overhead, false);
        }
    }

    /// Like [`Core::run_slice`], but the worker first burns `pre_cost` of
    /// unproductive time *before* the request makes progress — the model
    /// for a context-switch cost paid when a preemption actually replaces
    /// the running request with another. No cost is charged at slice
    /// expiry.
    ///
    /// # Panics
    ///
    /// Panics if the worker is busy or `max_slice` is zero.
    pub fn run_slice_after(
        &mut self,
        worker: usize,
        req: ReqId,
        pre_cost: Nanos,
        max_slice: Nanos,
    ) {
        assert!(max_slice > Nanos::ZERO, "zero-length slice");
        let remaining = self.req(req).remaining;
        let (progress, completes) = if remaining <= max_slice {
            (remaining, true)
        } else {
            (max_slice, false)
        };
        self.start(worker, req, progress, pre_cost, completes);
    }

    fn start(
        &mut self,
        worker: usize,
        req: ReqId,
        progress: Nanos,
        overhead: Nanos,
        completes: bool,
    ) {
        assert!(self.worker_idle(worker), "worker {worker} is already busy");
        let r = &mut self.slab[req as usize];
        assert!(r.active, "running a stale request");
        r.remaining = r.remaining.saturating_sub(progress);
        if !completes {
            r.preemptions += 1;
        }
        let slice_end = self.schedule(self.now + progress + overhead);
        if slice_end < self.next_slice_end {
            (self.next_slice_end, self.next_worker) = (slice_end, worker);
        }
        let w = &mut self.workers[worker];
        w.slice_end = slice_end;
        w.req = req;
        w.completes = completes;
        w.busy_ns += progress.as_nanos();
        w.overhead_ns += overhead.as_nanos();
    }

    /// Schedules a policy timer at absolute time `at`.
    pub fn timer(&mut self, at: Nanos, tag: u64) {
        let key = self.schedule(at.max(self.now));
        self.timers.push(Reverse((key, tag)));
    }

    /// Drops a request (flow control): records the drop and frees the slot.
    pub fn drop_req(&mut self, id: ReqId) {
        let r = &mut self.slab[id as usize];
        assert!(r.active, "dropping a stale request");
        r.active = false;
        self.free.push(id);
        self.live -= 1;
        self.recorder.drop_request();
    }

    /// Total completions so far (including warm-up ones).
    pub fn completions(&self) -> u64 {
        self.completions
    }

    fn alloc(&mut self, ty: TypeId, arrival: Nanos, service: Nanos) -> ReqId {
        self.live += 1;
        let req = Req {
            ty,
            arrival,
            service,
            remaining: service,
            preemptions: 0,
            active: true,
        };
        if let Some(id) = self.free.pop() {
            self.slab[id as usize] = req;
            id
        } else {
            self.slab.push(req);
            (self.slab.len() - 1) as ReqId
        }
    }

    fn finish(&mut self, id: ReqId) {
        let r = &mut self.slab[id as usize];
        debug_assert!(r.active && r.remaining == Nanos::ZERO);
        r.active = false;
        let (ty, arrival, service) = (r.ty, r.arrival, r.service);
        self.free.push(id);
        self.live -= 1;
        self.completions += 1;
        let sojourn = self.now.saturating_sub(arrival);
        self.recorder.complete(ty, arrival, sojourn, service);
        if let Some(tl) = &mut self.timeline {
            tl.record(ty, arrival, sojourn + self.rtt);
        }
    }
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimOutput {
    /// Metric summary (latency percentiles, slowdowns, drops).
    pub summary: RunSummary,
    /// Wall-clock end of the simulation (last event time).
    pub end_time: Nanos,
    /// Productive busy time per worker.
    pub busy: Vec<Nanos>,
    /// Preemption/overhead time per worker.
    pub overhead: Vec<Nanos>,
    /// Total completions including warm-up.
    pub completions: u64,
    /// Optional per-type latency timeline.
    pub timeline: Option<Vec<(Nanos, Vec<crate::metrics::Percentiles>)>>,
}

impl SimOutput {
    /// Mean number of busy cores over the run (productive work only).
    pub fn mean_busy_cores(&self) -> f64 {
        if self.end_time == Nanos::ZERO {
            return 0.0;
        }
        self.busy.iter().map(|b| b.as_nanos() as f64).sum::<f64>() / self.end_time.as_nanos() as f64
    }

    /// Mean number of cores burned on preemption overhead.
    pub fn mean_overhead_cores(&self) -> f64 {
        if self.end_time == Nanos::ZERO {
            return 0.0;
        }
        self.overhead
            .iter()
            .map(|b| b.as_nanos() as f64)
            .sum::<f64>()
            / self.end_time.as_nanos() as f64
    }

    /// Busy fraction of one worker.
    pub fn worker_utilization(&self, worker: usize) -> f64 {
        if self.end_time == Nanos::ZERO {
            return 0.0;
        }
        (self.busy[worker].as_nanos() + self.overhead[worker].as_nanos()) as f64
            / self.end_time.as_nanos() as f64
    }
}

/// Runs a policy against an arrival stream until every request completes.
/// The stream must be ordered by arrival time.
///
/// # Panics
///
/// Panics if the policy strands requests (queues non-empty with no event
/// left) — that is a policy bug, not an overload condition.
pub fn simulate<P, I>(
    policy: &mut P,
    gen: I,
    num_types: usize,
    total_duration: Nanos,
    cfg: &SimConfig,
) -> SimOutput
where
    P: SimPolicy + ?Sized,
    I: IntoIterator<Item = Arrival>,
{
    let mut gen = gen.into_iter();
    let warmup_end =
        Nanos::from_nanos((total_duration.as_nanos() as f64 * cfg.warmup_fraction) as u64);
    let idle = Worker {
        slice_end: NO_EVENT,
        req: 0,
        completes: false,
        busy_ns: 0,
        overhead_ns: 0,
    };
    let mut core = Core {
        now: Nanos::ZERO,
        slab: Vec::with_capacity(1024),
        free: Vec::new(),
        seq: 0,
        workers: vec![idle; cfg.workers],
        next_slice_end: NO_EVENT,
        next_worker: 0,
        timers: BinaryHeap::new(),
        recorder: Recorder::new(num_types, warmup_end),
        timeline: cfg.timeline_bucket.map(|b| Timeline::new(b, num_types)),
        live: 0,
        completions: 0,
        rtt: cfg.rtt,
    };

    // Prime the first arrival.
    let mut pending = gen.next();
    let mut arrival = pending.map_or(NO_EVENT, |a| core.schedule(a.at));

    loop {
        // The least key among the pending arrival, the earliest slice end
        // and the earliest timer fires; keys are unique, so the key says
        // which of the three it was.
        let timer = core.timers.peek().map_or(NO_EVENT, |t| t.0 .0);
        let key = arrival.min(core.next_slice_end).min(timer);
        if key == NO_EVENT {
            break;
        }
        core.now = Nanos::from_nanos((key >> 64) as u64);
        if key == arrival {
            let a = pending.take().expect("arrival event without data");
            let id = core.alloc(a.ty, a.at, a.service);
            // Schedule the next arrival before the policy runs, so that it
            // precedes whatever the policy schedules for the same time.
            pending = gen.next();
            arrival = pending.map_or(NO_EVENT, |n| {
                debug_assert!(n.at >= a.at, "arrivals out of order: {n:?} after {a:?}");
                core.schedule(n.at)
            });
            policy.handle(Event::Arrival(id), &mut core);
        } else if key == core.next_slice_end {
            let worker = core.next_worker;
            let w = &mut core.workers[worker];
            w.slice_end = NO_EVENT;
            let (req, completes) = (w.req, w.completes);
            core.next_slice_end = NO_EVENT;
            for (i, w) in core.workers.iter().enumerate() {
                if w.slice_end < core.next_slice_end {
                    (core.next_slice_end, core.next_worker) = (w.slice_end, i);
                }
            }
            if completes {
                let r = &core.slab[req as usize];
                let (ty, service) = (r.ty, r.service);
                core.finish(req);
                let done = Event::Completed {
                    worker,
                    req,
                    ty,
                    service,
                };
                policy.handle(done, &mut core);
            } else {
                policy.handle(Event::SliceExpired { worker, req }, &mut core);
            }
        } else {
            let Reverse((_, tag)) = core.timers.pop().expect("peeked");
            policy.handle(Event::Timer(tag), &mut core);
        }
    }

    assert!(
        core.live == 0,
        "policy {} stranded {} requests",
        policy.name(),
        core.live
    );

    let workers = core.workers.iter();
    SimOutput {
        summary: core.recorder.summarize(cfg.rtt),
        end_time: core.now,
        busy: workers
            .clone()
            .map(|w| Nanos::from_nanos(w.busy_ns))
            .collect(),
        overhead: workers.map(|w| Nanos::from_nanos(w.overhead_ns)).collect(),
        completions: core.completions,
        timeline: core.timeline.as_ref().map(|t| t.series()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{ArrivalGen, Workload};
    use persephone_core::rng::Rng;

    /// A trivial c-FCFS policy used to exercise the engine itself.
    struct MiniFcfs {
        queue: std::collections::VecDeque<ReqId>,
    }

    impl SimPolicy for MiniFcfs {
        fn name(&self) -> String {
            "mini-fcfs".into()
        }
        fn handle(&mut self, ev: Event, core: &mut Core) {
            match ev {
                Event::Arrival(id) => {
                    if let Some(w) = core.idle_worker() {
                        core.run(w, id);
                    } else {
                        self.queue.push_back(id);
                    }
                }
                Event::Completed { worker, .. } => {
                    if let Some(next) = self.queue.pop_front() {
                        core.run(worker, next);
                    }
                }
                _ => unreachable!("mini-fcfs uses no slices or timers"),
            }
        }
    }

    fn run_mini(load: f64, workers: usize) -> SimOutput {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(200);
        let gen = ArrivalGen::uniform(&wl, workers, load, dur, 42);
        let mut policy = MiniFcfs {
            queue: Default::default(),
        };
        simulate(&mut policy, gen, 2, dur, &SimConfig::new(workers))
    }

    #[test]
    fn low_load_has_near_zero_queueing() {
        let out = run_mini(0.05, 8);
        assert!(out.completions > 100);
        // At 5 % load the p50 slowdown must be ~1 (no queueing).
        assert!(
            out.summary.overall_slowdown.p50 < 1.01,
            "p50 slowdown = {}",
            out.summary.overall_slowdown.p50
        );
    }

    #[test]
    fn high_load_queues_more_than_low_load() {
        let lo = run_mini(0.2, 4);
        let hi = run_mini(0.9, 4);
        assert!(
            hi.summary.overall_slowdown.p999 > lo.summary.overall_slowdown.p999,
            "hi {} vs lo {}",
            hi.summary.overall_slowdown.p999,
            lo.summary.overall_slowdown.p999
        );
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let out = run_mini(0.5, 8);
        let busy = out.mean_busy_cores();
        assert!(
            (busy - 4.0).abs() < 0.3,
            "expected ~4 busy cores, got {busy}"
        );
        assert_eq!(out.mean_overhead_cores(), 0.0);
    }

    #[test]
    fn slices_preempt_and_charge_overhead() {
        /// A policy that slices everything at 5 µs with 1 µs overhead.
        struct Slicer {
            queue: std::collections::VecDeque<ReqId>,
        }
        impl SimPolicy for Slicer {
            fn name(&self) -> String {
                "slicer".into()
            }
            fn handle(&mut self, ev: Event, core: &mut Core) {
                let q = Nanos::from_micros(5);
                let o = Nanos::from_micros(1);
                match ev {
                    Event::Arrival(id) => {
                        self.queue.push_back(id);
                    }
                    Event::Completed { .. } | Event::SliceExpired { .. } => {
                        if let Event::SliceExpired { req, .. } = ev {
                            self.queue.push_back(req);
                        }
                    }
                    Event::Timer(_) => {}
                }
                while let (Some(w), false) = (core.idle_worker(), self.queue.is_empty()) {
                    let id = self.queue.pop_front().unwrap();
                    core.run_slice(w, id, q, o);
                }
            }
        }
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(50);
        let gen = ArrivalGen::uniform(&wl, 4, 0.5, dur, 1);
        let mut p = Slicer {
            queue: Default::default(),
        };
        let out = simulate(&mut p, gen, 2, dur, &SimConfig::new(4));
        // Long requests (100 µs) need 20 slices ⇒ 19 preemptions each, so
        // overhead cores must be clearly positive.
        assert!(
            out.mean_overhead_cores() > 0.05,
            "{}",
            out.mean_overhead_cores()
        );
        assert!(out.completions > 0);
    }

    #[test]
    fn rtt_is_reporting_only() {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(50);
        let mk = |rtt| {
            let gen = ArrivalGen::uniform(&wl, 4, 0.3, dur, 3);
            let mut p = MiniFcfs {
                queue: Default::default(),
            };
            simulate(
                &mut p,
                gen,
                2,
                dur,
                &SimConfig::new(4).with_rtt(Nanos::from_micros(rtt)),
            )
        };
        let without = mk(0);
        let with = mk(10);
        // Same seed ⇒ same slowdowns; latency shifted by exactly 10 µs.
        assert_eq!(
            without.summary.overall_slowdown.p999,
            with.summary.overall_slowdown.p999
        );
        assert_eq!(
            with.summary.per_type[0].latency_ns.p50,
            without.summary.per_type[0].latency_ns.p50 + 10_000.0
        );
    }

    #[test]
    fn timeline_is_produced_when_requested() {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(100);
        let gen = ArrivalGen::uniform(&wl, 4, 0.3, dur, 5);
        let mut p = MiniFcfs {
            queue: Default::default(),
        };
        let mut cfg = SimConfig::new(4);
        cfg.timeline_bucket = Some(Nanos::from_millis(10));
        let out = simulate(&mut p, gen, 2, dur, &cfg);
        let tl = out.timeline.expect("timeline requested");
        assert!(tl.len() >= 9, "expected ~10 buckets, got {}", tl.len());
    }

    #[test]
    fn warmup_discards_early_arrivals() {
        let out = run_mini(0.3, 4);
        // Roughly 10 % of completions should have been discarded.
        let kept = out.summary.completions;
        let total = out.completions;
        let frac = kept as f64 / total as f64;
        assert!((frac - 0.9).abs() < 0.02, "kept fraction = {frac}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "arrivals out of order")]
    fn unordered_arrivals_are_caught_in_debug_builds() {
        let at = |us| Arrival {
            at: Nanos::from_micros(us),
            ty: TypeId::new(0),
            service: Nanos::from_micros(1),
        };
        let mut p = MiniFcfs {
            queue: Default::default(),
        };
        let dur = Nanos::from_micros(10);
        simulate(&mut p, [at(5), at(3)], 1, dur, &SimConfig::new(1));
    }

    /// What the reference heap holds: the heap-driven engine's event kinds.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
    enum RefKind {
        Arrival,
        SliceEnd(usize),
        Timer(u64),
    }

    /// A policy that starts slices and sets timers at random, and mirrors
    /// everything the engine schedules into the event heap the engine
    /// used to be built on: `(time, seq, kind)`, least first. Every event
    /// the engine fires must be the one the reference pops.
    struct Mirror {
        rng: Rng,
        arrivals: Vec<Nanos>,
        seq: u64,
        heap: BinaryHeap<Reverse<(Nanos, u64, RefKind)>>,
        queue: std::collections::VecDeque<ReqId>,
        events: u64,
    }

    impl Mirror {
        fn new(trace: &[Arrival], seed: u64) -> Self {
            let mut m = Mirror {
                rng: Rng::new(seed),
                arrivals: trace.iter().rev().map(|a| a.at).collect(),
                seq: 0,
                heap: BinaryHeap::new(),
                queue: Default::default(),
                events: 0,
            };
            m.expect_next_arrival();
            m
        }

        fn expect(&mut self, at: Nanos, kind: RefKind) {
            self.seq += 1;
            self.heap.push(Reverse((at, self.seq, kind)));
        }

        fn expect_next_arrival(&mut self) {
            if let Some(at) = self.arrivals.pop() {
                self.expect(at, RefKind::Arrival);
            }
        }

        /// Starts `req` on `worker` in one of the three ways, and expects
        /// the slice end where each documents it.
        fn start(&mut self, worker: usize, req: ReqId, core: &mut Core) {
            let remaining = core.req(req).remaining;
            let slice = Nanos::from_micros(1 + self.rng.next_below(2));
            let cost = Nanos::from_micros(self.rng.next_below(2));
            let busy = match self.rng.next_below(3) {
                0 => {
                    core.run(worker, req);
                    remaining
                }
                1 => {
                    core.run_slice(worker, req, slice, cost);
                    if remaining <= slice {
                        remaining
                    } else {
                        slice + cost
                    }
                }
                _ => {
                    core.run_slice_after(worker, req, cost, slice);
                    remaining.min(slice) + cost
                }
            };
            self.expect(core.now + busy, RefKind::SliceEnd(worker));
        }
    }

    impl SimPolicy for Mirror {
        fn name(&self) -> String {
            "mirror".into()
        }

        fn handle(&mut self, ev: Event, core: &mut Core) {
            let Reverse((at, _, kind)) = self.heap.pop().expect("reference has no event left");
            let fired = match ev {
                Event::Arrival(_) => RefKind::Arrival,
                Event::Completed { worker, .. } | Event::SliceExpired { worker, .. } => {
                    RefKind::SliceEnd(worker)
                }
                Event::Timer(tag) => RefKind::Timer(tag),
            };
            assert_eq!((core.now, fired), (at, kind), "event {}", self.events);
            self.events += 1;
            match ev {
                Event::Arrival(id) => {
                    // The engine schedules the next arrival before this call.
                    self.expect_next_arrival();
                    self.queue.push_back(id);
                }
                Event::SliceExpired { req, .. } => self.queue.push_back(req),
                Event::Completed { .. } => {}
                // A timer sets no timer, so the run ends.
                Event::Timer(_) => return,
            }
            if self.rng.next_below(3) == 0 {
                // From 1 µs in the past (clamped to now) to 2 µs ahead.
                let at = (core.now + Nanos::from_micros(self.rng.next_below(4)))
                    .saturating_sub(Nanos::from_micros(1));
                core.timer(at, self.events);
                self.expect(at.max(core.now), RefKind::Timer(self.events));
            }
            while !self.queue.is_empty() && core.idle_count() > 0 {
                // A random idle worker, not the lowest.
                let nth = self.rng.next_below(core.idle_count() as u64) as usize;
                let mut idle = (0..core.num_workers()).filter(|&w| core.worker_idle(w));
                let worker = idle.nth(nth).expect("counted");
                let req = self.queue.pop_front().expect("non-empty");
                self.start(worker, req, core);
            }
        }
    }

    #[test]
    fn fires_events_in_the_order_of_a_reference_heap() {
        let mut fired = 0;
        for seed in 0..300u64 {
            let mut rng = Rng::new(seed ^ 0x0E5E17);
            // Every fourth run has one worker, every sixteenth no arrival.
            let workers = match seed % 4 {
                0 => 1,
                _ => 1 + rng.next_below(64) as usize,
            };
            let requests = if seed % 16 == 1 {
                0
            } else {
                rng.next_below(400)
            };
            // Everything lands on a 1 µs grid: gaps of 0–2 µs, services of
            // 1–5 µs, so most events share their time with another.
            let mut at = Nanos::ZERO;
            let trace: Vec<Arrival> = (0..requests)
                .map(|_| {
                    at += Nanos::from_micros(rng.next_below(3));
                    Arrival {
                        at,
                        ty: TypeId::new(0),
                        service: Nanos::from_micros(1 + rng.next_below(5)),
                    }
                })
                .collect();
            let mut mirror = Mirror::new(&trace, seed);
            let dur = Nanos::from_millis(1);
            let cfg = SimConfig::new(workers);
            let out = simulate(&mut mirror, trace.iter().copied(), 1, dur, &cfg);
            assert!(
                mirror.heap.is_empty(),
                "seed {seed}: the reference holds more"
            );
            assert_eq!(out.completions, requests, "seed {seed}");
            if requests == 0 {
                assert_eq!((mirror.events, out.end_time), (0, Nanos::ZERO));
            }
            fired += mirror.events;
        }
        assert!(fired > 100_000, "{fired} events");
    }
}
