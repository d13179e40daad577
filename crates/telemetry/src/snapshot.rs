//! The [`Telemetry`] registry and its frozen [`Snapshot`].
//!
//! `Telemetry` bundles every instrument the scheduler hot path touches —
//! per-type sojourn/service histograms, per-type and per-worker counter
//! slots, and the scheduler-event ring — behind `&self` methods that are
//! all lock-free and allocation-free. It is built once per dispatcher
//! shard and shared via `Arc` between that shard's dispatcher, its
//! workers, and whoever reports.
//!
//! Every cell has one writing thread, so recording is plain loads and
//! stores, not `lock`-prefixed RMWs:
//!
//! | writer | cells |
//! |---|---|
//! | the shard's dispatcher (through the engine) | type counters, both histograms, worker `dispatches` / `steals` / `completions` / `quarantines`, the event ring |
//! | worker *w* | its own `busy_ns` and `tx_give_ups` |
//! | the dispatcher **and** the workers | `rx_malformed` — the one `fetch_add` |
//!
//! Steals and spillway placements are DARC's normal case, so they are
//! counted exactly but logged to the ring only 1 in 64 per type; the
//! rare decisions (reservation updates, drops, expiries, quarantines)
//! are always logged.
//!
//! [`Telemetry::snapshot`] freezes everything into a [`Snapshot`]:
//! plain owned data that can be merged across shards, queried for
//! percentiles, and exported as aligned plain text or JSON lines.

use std::fmt::Write as _;

use crate::counters::{bump, TypeCounters, TypeCountersSnap, WorkerCounters, WorkerCountersSnap};
use crate::hist::{AtomicHist, HistSnapshot, DEFAULT_PRECISION_BITS};
use crate::padded::CachePadded;
use crate::ring::{EventLog, EventRing, SchedEvent, MAX_MAP_TYPES};
use crate::sync::{AtomicU64, Ordering};

/// Each type's steals (and, separately, spillway hits) are logged to the
/// event ring when the type's exact counter reaches 1, 65, 129, …: the
/// first always shows, and the ring keeps room for the decisions that
/// explain something.
const STEAL_EVENT_EVERY: u64 = 64;

/// How a request reached its worker — determines which counters a
/// dispatch bumps and whether an event is recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchKind {
    /// Placed on a worker reserved for the request's own group.
    Reserved,
    /// Placed on a stealable worker from a longer group (cycle-steal).
    Stolen,
    /// Placed on a spillway core (ungrouped or UNKNOWN type).
    Spillway,
    /// Placed by the c-FCFS path (warm-up or baseline mode).
    Fcfs,
}

/// Sizing for a [`Telemetry`] registry.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Registered request types (an extra slot is added for UNKNOWN).
    pub num_types: usize,
    /// Worker cores.
    pub num_workers: usize,
    /// Histogram precision (see [`crate::hist::LogHist::new`]).
    pub precision_bits: u32,
    /// Event-ring capacity; rounded up to a power of two.
    pub ring_capacity: usize,
}

impl TelemetryConfig {
    /// Default-precision config for a `num_types` × `num_workers` engine.
    pub fn new(num_types: usize, num_workers: usize) -> Self {
        TelemetryConfig {
            num_types,
            num_workers,
            precision_bits: DEFAULT_PRECISION_BITS,
            ring_capacity: 1024,
        }
    }
}

/// The shared instrument registry. All `record_*` methods take `&self`,
/// never lock, and never allocate; each cell they touch has one writing
/// thread (see the module docs).
#[derive(Debug)]
pub struct Telemetry {
    /// Per-type sojourn (queueing + service) histograms; slot
    /// `num_types` is the UNKNOWN type.
    sojourn: Vec<AtomicHist>,
    /// Per-type service-time histograms, same layout.
    service: Vec<AtomicHist>,
    type_counters: Box<[CachePadded<TypeCounters>]>,
    worker_counters: Box<[CachePadded<WorkerCounters>]>,
    events: EventRing,
    num_types: usize,
    /// Packets that failed wire validation (truncated, bad magic, wrong
    /// kind) on the RX path — server-wide, not per type, because a
    /// malformed packet has no trustworthy type field to attribute.
    rx_malformed: AtomicU64,
}

impl Telemetry {
    /// Builds a registry sized for `cfg`. This is the only allocating
    /// call; everything after construction is fixed-footprint.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let slots = cfg.num_types + 1; // + UNKNOWN
        Telemetry {
            sojourn: (0..slots)
                .map(|_| AtomicHist::new(cfg.precision_bits))
                .collect(),
            service: (0..slots)
                .map(|_| AtomicHist::new(cfg.precision_bits))
                .collect(),
            type_counters: (0..slots)
                .map(|_| CachePadded::new(TypeCounters::default()))
                .collect(),
            worker_counters: (0..cfg.num_workers)
                .map(|_| CachePadded::new(WorkerCounters::default()))
                .collect(),
            events: EventRing::new(cfg.ring_capacity.next_power_of_two().max(2)),
            num_types: cfg.num_types,
            rx_malformed: AtomicU64::new(0),
        }
    }

    /// Number of regular (non-UNKNOWN) type slots.
    pub fn num_types(&self) -> usize {
        self.num_types
    }

    /// Raw access to the event ring (for incremental drains).
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    #[inline]
    fn ty_slot(&self, ty: usize) -> usize {
        ty.min(self.num_types)
    }

    #[inline]
    fn worker(&self, worker: usize) -> &WorkerCounters {
        &self.worker_counters[worker.min(self.worker_counters.len() - 1)]
    }

    /// A request of type `ty` was classified and enqueued. Pass
    /// `ty >= num_types` for UNKNOWN.
    #[inline]
    pub fn record_arrival(&self, ty: usize) {
        bump(&self.type_counters[self.ty_slot(ty)].arrivals, 1);
    }

    /// Observed queue depth for `ty` (keeps the high-water mark).
    #[inline]
    pub fn record_queue_depth(&self, ty: usize, depth: u64) {
        self.type_counters[self.ty_slot(ty)].observe_queue_depth(depth);
    }

    /// A request of type `ty` was placed on `worker` via `kind`.
    /// Steals and spillway placements are counted exactly; each type's
    /// 1st, 65th, 129th, … of each also logs a ring event.
    #[inline]
    pub fn record_dispatch(&self, ty: usize, worker: usize, kind: DispatchKind, now_ns: u64) {
        let t = &self.type_counters[self.ty_slot(ty)];
        let w = self.worker(worker);
        match kind {
            DispatchKind::Reserved | DispatchKind::Fcfs => {
                bump(&t.dispatches, 1);
                bump(&w.dispatches, 1);
            }
            DispatchKind::Stolen => {
                bump(&w.steals, 1);
                if bump(&t.steals, 1) % STEAL_EVENT_EVERY == 1 {
                    self.events.push(&SchedEvent::CycleSteal {
                        now_ns,
                        type_id: ty as u32,
                        worker: worker as u32,
                    });
                }
            }
            DispatchKind::Spillway => {
                bump(&w.steals, 1);
                if bump(&t.spillway_hits, 1) % STEAL_EVENT_EVERY == 1 {
                    self.events.push(&SchedEvent::SpillwayHit {
                        now_ns,
                        type_id: ty as u32,
                        worker: worker as u32,
                    });
                }
            }
        }
    }

    /// A request of type `ty` finished on `worker`: records its sojourn
    /// (queueing + service) and service time.
    #[inline]
    pub fn record_completion(&self, ty: usize, worker: usize, sojourn_ns: u64, service_ns: u64) {
        let slot = self.ty_slot(ty);
        self.sojourn[slot].record(sojourn_ns);
        self.service[slot].record(service_ns);
        bump(&self.type_counters[slot].completions, 1);
        bump(&self.worker(worker).completions, 1);
    }

    /// `worker` spent `busy_ns` executing a handler — recorded by the
    /// worker thread itself on its completion path (the cell's one
    /// writer).
    #[inline]
    pub fn record_worker_busy(&self, worker: usize, busy_ns: u64) {
        bump(&self.worker(worker).busy_ns, busy_ns);
    }

    /// A request of type `ty` was rejected by flow control.
    #[inline]
    pub fn record_drop(&self, ty: usize, queue_depth: u64, now_ns: u64) {
        bump(&self.type_counters[self.ty_slot(ty)].drops, 1);
        self.events.push(&SchedEvent::Drop {
            now_ns,
            type_id: ty as u32,
            queue_depth,
        });
    }

    /// A head-of-queue request of type `ty` exceeded its deadline after
    /// waiting `waited_ns` and was shed before dispatch.
    #[inline]
    pub fn record_expired(&self, ty: usize, waited_ns: u64, now_ns: u64) {
        bump(&self.type_counters[self.ty_slot(ty)].expired, 1);
        self.events.push(&SchedEvent::DeadlineExpired {
            now_ns,
            type_id: ty as u32,
            waited_ns,
        });
    }

    /// `worker` was quarantined: its in-flight request of type `ty` had
    /// been running for `running_ns`, far past the type's profiled mean.
    #[inline]
    pub fn record_quarantine(&self, worker: usize, ty: usize, running_ns: u64, now_ns: u64) {
        bump(&self.worker(worker).quarantines, 1);
        self.events.push(&SchedEvent::WorkerQuarantine {
            now_ns,
            worker: worker as u32,
            type_id: ty as u32,
            running_ns,
        });
    }

    /// A quarantined `worker` completed its stalled request (total wall
    /// time `stalled_ns`) and rejoined the free pool.
    #[inline]
    pub fn record_release(&self, worker: usize, stalled_ns: u64, now_ns: u64) {
        self.events.push(&SchedEvent::WorkerRelease {
            now_ns,
            worker: worker as u32,
            stalled_ns,
        });
    }

    /// `worker` abandoned a transmission after exhausting its bounded
    /// send retries (the receiver's queue stayed full) — recorded by the
    /// worker thread itself (the cell's one writer).
    #[inline]
    pub fn record_tx_give_up(&self, worker: usize) {
        bump(&self.worker(worker).tx_give_ups, 1);
    }

    /// A packet failed wire validation on the RX path (truncated
    /// datagram, bad magic, non-request kind) and was answered with
    /// `BadRequest` instead of being scheduled.
    #[inline]
    pub fn record_rx_malformed(&self) {
        // audit:ordering: independent statistics counter — no data is published through it
        // audit:allow(A6): written by the dispatcher and by workers
        self.rx_malformed.fetch_add(1, Ordering::Relaxed);
    }

    /// A reservation update was installed: logs the old→new
    /// guaranteed-core map and the demand shift that triggered it.
    pub fn record_reservation_update(
        &self,
        now_ns: u64,
        update_id: u64,
        trigger_delta_millionths: u64,
        old_guaranteed: &[usize],
        new_guaranteed: &[usize],
    ) {
        let mut old = [0u8; MAX_MAP_TYPES];
        let mut new = [0u8; MAX_MAP_TYPES];
        for (dst, src) in old.iter_mut().zip(old_guaranteed) {
            *dst = (*src).min(u8::MAX as usize) as u8;
        }
        for (dst, src) in new.iter_mut().zip(new_guaranteed) {
            *dst = (*src).min(u8::MAX as usize) as u8;
        }
        self.events.push(&SchedEvent::ReservationUpdate {
            now_ns,
            update_id,
            trigger_delta_millionths,
            old_guaranteed: old,
            new_guaranteed: new,
        });
    }

    /// Freezes every instrument into a [`Snapshot`].
    ///
    /// Report-assembly lane, called once per run or per poll interval —
    /// cold marks the audit frontier so its Vec builds stay off-path.
    #[cold]
    pub fn snapshot(&self) -> Snapshot {
        let snap_ty = |i: usize| TypeSnapshot {
            sojourn: self.sojourn[i].snapshot(),
            service: self.service[i].snapshot(),
            counters: self.type_counters[i].snapshot(),
        };
        Snapshot {
            types: (0..self.num_types).map(snap_ty).collect(),
            unknown: Some(snap_ty(self.num_types)),
            workers: self.worker_counters.iter().map(|w| w.snapshot()).collect(),
            events: self.events.collect(),
            rx_malformed: self
                .rx_malformed
                // audit:ordering: independent statistics counter — no data is published through it
                .load(Ordering::Relaxed),
        }
    }
}

/// Frozen per-type instruments.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TypeSnapshot {
    /// Sojourn (queueing + service) latency distribution.
    pub sojourn: HistSnapshot,
    /// Service-time distribution.
    pub service: HistSnapshot,
    /// Per-type counters.
    pub counters: TypeCountersSnap,
}

impl TypeSnapshot {
    /// Merges another type snapshot into this one.
    pub fn merge(&mut self, other: &TypeSnapshot) {
        self.sojourn.merge(&other.sojourn);
        self.service.merge(&other.service);
        self.counters.merge(&other.counters);
    }
}

/// A frozen, mergeable copy of every instrument in a [`Telemetry`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Regular type slots, indexed by type id.
    pub types: Vec<TypeSnapshot>,
    /// The UNKNOWN slot, if the source tracked one.
    pub unknown: Option<TypeSnapshot>,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerCountersSnap>,
    /// Drained scheduler events with loss accounting.
    pub events: EventLog,
    /// Packets rejected by wire validation on the RX path.
    pub rx_malformed: u64,
}

impl Snapshot {
    /// Merges another snapshot (e.g. a second engine shard). Slot lists
    /// are padded to the longer of the two.
    pub fn merge(&mut self, other: &Snapshot) {
        if self.types.len() < other.types.len() {
            self.types
                .resize(other.types.len(), TypeSnapshot::default());
        }
        for (a, b) in self.types.iter_mut().zip(other.types.iter()) {
            a.merge(b);
        }
        match (&mut self.unknown, &other.unknown) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.unknown = Some(b.clone()),
            _ => {}
        }
        if self.workers.len() < other.workers.len() {
            self.workers
                .resize(other.workers.len(), WorkerCountersSnap::default());
        }
        for (a, b) in self.workers.iter_mut().zip(other.workers.iter()) {
            a.merge(b);
        }
        self.events.merge(&other.events);
        self.rx_malformed += other.rx_malformed;
    }

    /// Total completions across all type slots.
    pub fn completions(&self) -> u64 {
        self.types
            .iter()
            .chain(self.unknown.iter())
            .map(|t| t.counters.completions)
            .sum()
    }

    fn slot_label(&self, i: usize) -> String {
        if i < self.types.len() {
            format!("T{i}")
        } else {
            "UNK".to_string()
        }
    }

    fn slots(&self) -> impl Iterator<Item = (usize, &TypeSnapshot)> {
        self.types
            .iter()
            .enumerate()
            .chain(self.unknown.iter().map(|t| (self.types.len(), t)))
    }

    /// Renders an aligned, human-readable report (latencies in µs).
    pub fn to_text(&self) -> String {
        let us = |ns: u64| ns as f64 / 1_000.0;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "type   count      p50(us)   p99(us)   p99.9(us)  max(us)   disp      steal    spill    drop     expired  q-hwm"
        );
        for (i, t) in self.slots() {
            if t.counters.arrivals == 0 && t.sojourn.count() == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{:<6} {:<10} {:<9.1} {:<9.1} {:<10.1} {:<9.1} {:<9} {:<8} {:<8} {:<8} {:<8} {:<6}",
                self.slot_label(i),
                t.sojourn.count(),
                us(t.sojourn.quantile(0.50)),
                us(t.sojourn.quantile(0.99)),
                us(t.sojourn.quantile(0.999)),
                us(t.sojourn.max()),
                t.counters.dispatches,
                t.counters.steals,
                t.counters.spillway_hits,
                t.counters.drops,
                t.counters.expired,
                t.counters.queue_depth_hwm,
            );
        }
        let _ = writeln!(
            out,
            "workers: {}",
            self.workers
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    format!(
                        "W{i}={}+{}({}ms)",
                        w.dispatches,
                        w.steals,
                        w.busy_ns / 1_000_000
                    )
                })
                .collect::<Vec<_>>()
                .join(" ")
        );
        if self.rx_malformed > 0 {
            let _ = writeln!(out, "rx_malformed: {}", self.rx_malformed);
        }
        // Kept events per kind. Steals and spillway hits reach the ring
        // 1 in 64 per type, so theirs are samples; the exact totals are
        // the table's `steal` / `spill` columns.
        let per_kind = |label: &str, pred: fn(&SchedEvent) -> bool| {
            let n = self.events.events.iter().filter(|(_, e)| pred(e)).count();
            format!("{label}={n}")
        };
        let _ = writeln!(
            out,
            "events: pushed={} kept={} overwritten={} ({} {} {} {} {})",
            self.events.pushed,
            self.events.events.len(),
            self.events.overwritten,
            per_kind("steal_samples", |e| matches!(
                e,
                SchedEvent::CycleSteal { .. }
            )),
            per_kind("spillway_samples", |e| matches!(
                e,
                SchedEvent::SpillwayHit { .. }
            )),
            per_kind("drops", |e| matches!(e, SchedEvent::Drop { .. })),
            per_kind("expired", |e| matches!(
                e,
                SchedEvent::DeadlineExpired { .. }
            )),
            per_kind("quarantines", |e| matches!(
                e,
                SchedEvent::WorkerQuarantine { .. }
            )),
        );
        // Only the rare, high-signal decisions are listed in full —
        // per-request steal/spillway events are summarized above (the
        // JSON-lines export carries every kept event).
        for (pos, ev) in &self.events.events {
            match ev {
                SchedEvent::ReservationUpdate {
                    now_ns,
                    update_id,
                    trigger_delta_millionths,
                    old_guaranteed,
                    new_guaranteed,
                } => {
                    let n = self.types.len().clamp(1, MAX_MAP_TYPES);
                    let _ = writeln!(
                        out,
                        "  [{pos}] t={:.3}ms reservation_update #{update_id} delta={:.3} cores {:?} -> {:?}",
                        *now_ns as f64 / 1e6,
                        *trigger_delta_millionths as f64 / 1e6,
                        &old_guaranteed[..n],
                        &new_guaranteed[..n],
                    );
                }
                SchedEvent::Drop {
                    now_ns,
                    type_id,
                    queue_depth,
                } => {
                    let _ = writeln!(
                        out,
                        "  [{pos}] t={:.3}ms drop type={type_id} depth={queue_depth}",
                        *now_ns as f64 / 1e6,
                    );
                }
                SchedEvent::WorkerQuarantine {
                    now_ns,
                    worker,
                    type_id,
                    running_ns,
                } => {
                    let _ = writeln!(
                        out,
                        "  [{pos}] t={:.3}ms worker_quarantine W{worker} type={type_id} running={:.3}ms",
                        *now_ns as f64 / 1e6,
                        *running_ns as f64 / 1e6,
                    );
                }
                SchedEvent::WorkerRelease {
                    now_ns,
                    worker,
                    stalled_ns,
                } => {
                    let _ = writeln!(
                        out,
                        "  [{pos}] t={:.3}ms worker_release W{worker} stalled={:.3}ms",
                        *now_ns as f64 / 1e6,
                        *stalled_ns as f64 / 1e6,
                    );
                }
                // Per-request steal/spillway/expiry events are summarized
                // above; the JSON export carries each one in full.
                SchedEvent::CycleSteal { .. }
                | SchedEvent::SpillwayHit { .. }
                | SchedEvent::DeadlineExpired { .. } => {}
            }
        }
        out
    }

    /// Renders JSON lines: one object per type slot, worker, and event,
    /// plus a trailing ring-accounting line. No serde — the schema is
    /// flat enough to emit by hand.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, t) in self.slots() {
            let unknown = i >= self.types.len();
            let _ = writeln!(
                out,
                "{{\"kind\":\"type\",\"id\":{},\"unknown\":{},\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"p999_ns\":{},\"max_ns\":{},\"mean_ns\":{:.1},\"arrivals\":{},\"dispatches\":{},\"steals\":{},\"spillway_hits\":{},\"drops\":{},\"expired\":{},\"completions\":{},\"queue_depth_hwm\":{}}}",
                i,
                unknown,
                t.sojourn.count(),
                t.sojourn.quantile(0.50),
                t.sojourn.quantile(0.99),
                t.sojourn.quantile(0.999),
                t.sojourn.max(),
                t.sojourn.mean(),
                t.counters.arrivals,
                t.counters.dispatches,
                t.counters.steals,
                t.counters.spillway_hits,
                t.counters.drops,
                t.counters.expired,
                t.counters.completions,
                t.counters.queue_depth_hwm,
            );
        }
        for (i, w) in self.workers.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"kind\":\"worker\",\"id\":{},\"dispatches\":{},\"steals\":{},\"completions\":{},\"busy_ns\":{},\"quarantines\":{},\"tx_give_ups\":{}}}",
                i, w.dispatches, w.steals, w.completions, w.busy_ns, w.quarantines, w.tx_give_ups,
            );
        }
        for (pos, ev) in &self.events.events {
            match ev {
                SchedEvent::ReservationUpdate {
                    now_ns,
                    update_id,
                    trigger_delta_millionths,
                    old_guaranteed,
                    new_guaranteed,
                } => {
                    let fmt_map = |m: &[u8; MAX_MAP_TYPES]| {
                        m.iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join(",")
                    };
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"event\",\"pos\":{pos},\"event\":\"reservation_update\",\"now_ns\":{now_ns},\"update_id\":{update_id},\"trigger_delta_millionths\":{trigger_delta_millionths},\"old_guaranteed\":[{}],\"new_guaranteed\":[{}]}}",
                        fmt_map(old_guaranteed),
                        fmt_map(new_guaranteed),
                    );
                }
                SchedEvent::CycleSteal {
                    now_ns,
                    type_id,
                    worker,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"event\",\"pos\":{pos},\"event\":\"cycle_steal\",\"now_ns\":{now_ns},\"type_id\":{type_id},\"worker\":{worker}}}",
                    );
                }
                SchedEvent::SpillwayHit {
                    now_ns,
                    type_id,
                    worker,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"event\",\"pos\":{pos},\"event\":\"spillway_hit\",\"now_ns\":{now_ns},\"type_id\":{type_id},\"worker\":{worker}}}",
                    );
                }
                SchedEvent::Drop {
                    now_ns,
                    type_id,
                    queue_depth,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"event\",\"pos\":{pos},\"event\":\"drop\",\"now_ns\":{now_ns},\"type_id\":{type_id},\"queue_depth\":{queue_depth}}}",
                    );
                }
                SchedEvent::DeadlineExpired {
                    now_ns,
                    type_id,
                    waited_ns,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"event\",\"pos\":{pos},\"event\":\"deadline_expired\",\"now_ns\":{now_ns},\"type_id\":{type_id},\"waited_ns\":{waited_ns}}}",
                    );
                }
                SchedEvent::WorkerQuarantine {
                    now_ns,
                    worker,
                    type_id,
                    running_ns,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"event\",\"pos\":{pos},\"event\":\"worker_quarantine\",\"now_ns\":{now_ns},\"worker\":{worker},\"type_id\":{type_id},\"running_ns\":{running_ns}}}",
                    );
                }
                SchedEvent::WorkerRelease {
                    now_ns,
                    worker,
                    stalled_ns,
                } => {
                    let _ = writeln!(
                        out,
                        "{{\"kind\":\"event\",\"pos\":{pos},\"event\":\"worker_release\",\"now_ns\":{now_ns},\"worker\":{worker},\"stalled_ns\":{stalled_ns}}}",
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "{{\"kind\":\"net\",\"rx_malformed\":{}}}",
            self.rx_malformed,
        );
        let _ = writeln!(
            out,
            "{{\"kind\":\"ring\",\"pushed\":{},\"kept\":{},\"overwritten\":{}}}",
            self.events.pushed,
            self.events.events.len(),
            self.events.overwritten,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_telemetry() -> Telemetry {
        let t = Telemetry::new(TelemetryConfig::new(2, 3));
        for i in 0..100u64 {
            let ty = (i % 2) as usize;
            t.record_arrival(ty);
            t.record_queue_depth(ty, i % 7);
            t.record_dispatch(
                ty,
                (i % 3) as usize,
                if i % 10 == 0 {
                    DispatchKind::Stolen
                } else {
                    DispatchKind::Reserved
                },
                i * 1000,
            );
            t.record_completion(ty, (i % 3) as usize, 5_000 + i * 10, 1_000);
        }
        t.record_drop(1, 42, 55_000);
        t.record_expired(0, 120_000, 56_000);
        t.record_quarantine(2, 1, 4_000_000, 57_000);
        t.record_release(2, 6_000_000, 58_000);
        t.record_tx_give_up(2);
        t.record_reservation_update(60_000, 1, 250_000, &[1, 3], &[2, 2]);
        t
    }

    #[test]
    fn snapshot_reflects_recorded_activity() {
        let t = sample_telemetry();
        let s = t.snapshot();
        assert_eq!(s.types.len(), 2);
        assert_eq!(s.workers.len(), 3);
        assert_eq!(s.completions(), 100);
        assert_eq!(s.types[0].counters.arrivals, 50);
        assert_eq!(s.types[1].counters.drops, 1);
        assert!(s.types[0].sojourn.quantile(0.5) >= 5_000);
        let steals: u64 = s.types.iter().map(|t| t.counters.steals).sum();
        assert_eq!(steals, 10);
        assert!(s
            .events
            .events
            .iter()
            .any(|(_, e)| matches!(e, SchedEvent::ReservationUpdate { update_id: 1, .. })));
    }

    /// Steals are counted exactly but logged 1 in 64, so a burst of them
    /// no longer flushes a reservation update out of a 1024-slot ring.
    #[test]
    fn steals_are_counted_exactly_and_logged_by_sample() {
        let t = Telemetry::new(TelemetryConfig::new(1, 2));
        t.record_reservation_update(0, 1, 250_000, &[1], &[2]);
        for i in 0..10_000u64 {
            t.record_dispatch(0, 1, DispatchKind::Stolen, i);
        }
        let s = t.snapshot();
        assert_eq!(s.types[0].counters.steals, 10_000);
        assert_eq!(s.workers[1].steals, 10_000);
        assert_eq!(s.events.pushed, 1 + 10_000u64.div_ceil(STEAL_EVENT_EVERY));
        assert_eq!(s.events.overwritten, 0);
        assert!(matches!(
            s.events.events[0],
            (0, SchedEvent::ReservationUpdate { update_id: 1, .. })
        ));
        // The type's first steal is always logged, then every 64th.
        assert!(matches!(
            s.events.events[1],
            (1, SchedEvent::CycleSteal { now_ns: 0, .. })
        ));
        assert!(matches!(
            s.events.events[2],
            (2, SchedEvent::CycleSteal { now_ns: 64, .. })
        ));
    }

    #[test]
    fn unknown_and_out_of_range_types_share_the_last_slot() {
        let t = Telemetry::new(TelemetryConfig::new(2, 1));
        t.record_arrival(2);
        t.record_arrival(999);
        t.record_completion(17, 0, 100, 50);
        let s = t.snapshot();
        let unk = s.unknown.as_ref().unwrap();
        assert_eq!(unk.counters.arrivals, 2);
        assert_eq!(unk.counters.completions, 1);
    }

    #[test]
    fn rx_malformed_counts_merges_and_exports() {
        let t = Telemetry::new(TelemetryConfig::new(1, 1));
        t.record_rx_malformed();
        t.record_rx_malformed();
        let s = t.snapshot();
        assert_eq!(s.rx_malformed, 2);
        let mut twice = s.clone();
        twice.merge(&s);
        assert_eq!(twice.rx_malformed, 4);
        assert!(s.to_text().contains("rx_malformed: 2"));
        assert!(s.to_json_lines().contains("\"rx_malformed\":2"));
        // A clean snapshot keeps the text report noise-free.
        let clean = Telemetry::new(TelemetryConfig::new(1, 1)).snapshot();
        assert!(!clean.to_text().contains("rx_malformed"));
    }

    #[test]
    fn merge_pads_and_sums() {
        let a = sample_telemetry().snapshot();
        let mut small = Snapshot::default();
        small.merge(&a);
        assert_eq!(small, a);
        let mut twice = a.clone();
        twice.merge(&a);
        assert_eq!(twice.completions(), 200);
        assert_eq!(twice.types[0].counters.arrivals, 100);
        assert_eq!(twice.events.pushed, a.events.pushed * 2);
        assert_eq!(twice.workers[1].completions, a.workers[1].completions * 2);
    }

    #[test]
    fn text_export_mentions_percentiles_and_events() {
        let s = sample_telemetry().snapshot();
        let text = s.to_text();
        assert!(text.contains("p99.9"));
        assert!(text.contains("T0"));
        assert!(text.contains("reservation_update #1"));
        assert!(text.contains("overwritten=0"));
        // Ten steals of type 0: the table carries the total, the event
        // summary the one sample the ring kept.
        assert!(text.contains("steal_samples=1 "));
    }

    #[test]
    fn json_lines_are_valid_enough_to_grep() {
        let s = sample_telemetry().snapshot();
        let json = s.to_json_lines();
        for line in json.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line {line}"
            );
            // Balanced braces/brackets on every line (flat objects).
            let opens = line.matches('{').count();
            assert_eq!(opens, line.matches('}').count());
            assert_eq!(line.matches('[').count(), line.matches(']').count());
        }
        assert!(json.contains("\"event\":\"reservation_update\""));
        assert!(json.contains("\"old_guaranteed\":[1,3"));
        assert!(json.contains("\"new_guaranteed\":[2,2"));
        assert!(json.contains("\"kind\":\"ring\""));
    }
}
