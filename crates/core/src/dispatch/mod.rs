//! Pluggable dispatch engines (paper §3 Algorithm 1, §4.3.3, Tables 1 & 5).
//!
//! The dispatcher's scheduling brain is a [`ScheduleEngine`]: it owns the
//! request queues, the free-worker list, and the overload-control
//! machinery, and answers `enqueue` / `poll` / `complete`. The same
//! engines are shared verbatim by the discrete-event simulator and the
//! threaded runtime.
//!
//! The paper's scheduler is typed queues plus a selection rule, and the
//! baselines differ from DARC in the rule only. The code says the same:
//! one [`Engine<R, S>`] over one [`EngineCore`], and one small [`Select`]
//! impl per policy.
//!
//! ## Module split
//!
//! * [`engine`] — the [`ScheduleEngine`] trait, [`Dispatch`] decisions,
//!   the policy-agnostic [`EngineReport`], and [`Engine`], the trait's
//!   only implementation.
//! * [`core`] — [`EngineCore`] (queue lanes, `WorkerTable`, profiler,
//!   overload knobs, counters, telemetry hooks and the admit / place /
//!   finish / expire / health / drain bodies) and the [`Select`] trait.
//! * [`darc`] — [`Darc`], the paper's contribution: c-FCFS warm-up,
//!   profiled reservations, cycle stealing, spillway.
//! * [`baselines`] — [`Cfcfs`], [`Sjf`], [`FixedPriority`], [`Dfcfs`].
//!
//! [`DarcEngine`], [`CfcfsEngine`], [`SjfEngine`],
//! [`FixedPriorityEngine`] and [`DfcfsEngine`] name the five
//! instantiations. [`build_engine`] maps a
//! [`Policy`](crate::policy::Policy) onto a boxed engine; the runtime's
//! hot loop stays generic (monomorphized) over the concrete engine type.
//!
//! The time-sharing policy of Table 1 is deliberately absent: it requires
//! preempting a running request, which the non-preemptive threaded
//! runtime cannot do. It remains simulator-only (`persephone-sim`'s `ts`
//! module).

pub mod baselines;
pub mod core;
pub mod darc;
pub mod engine;

pub use self::core::{EngineCore, Pick, Select};
pub use baselines::{Cfcfs, Dfcfs, FixedPriority, Sjf};
pub use darc::Darc;
pub use engine::{Dispatch, Engine, EngineReport, ScheduleEngine};

use crate::policy::Policy;
use crate::profile::ProfilerConfig;
use crate::reserve::Reservation;
use crate::time::Nanos;
use crate::types::TypeId;

/// The paper's engine: [`Engine`] under the [`Darc`] rule. Its DARC-only
/// accessors (`reservation`, `updates`, `in_warmup`, `guaranteed_workers`,
/// `queue_capacity_of`, `resize`, `force_update`) live in [`darc`].
pub type DarcEngine<R> = Engine<R, Darc>;
/// Centralized FCFS over one global queue: [`Engine`] under [`Cfcfs`].
pub type CfcfsEngine<R> = Engine<R, Cfcfs>;
/// Shortest-job-first over profiled type service times: [`Engine`] under
/// [`Sjf`].
pub type SjfEngine<R> = Engine<R, Sjf>;
/// Strict fixed priority over hinted type service times: [`Engine`] under
/// [`FixedPriority`].
pub type FixedPriorityEngine<R> = Engine<R, FixedPriority>;
/// Decentralized FCFS with random per-worker steering: [`Engine`] under
/// [`Dfcfs`].
pub type DfcfsEngine<R> = Engine<R, Dfcfs>;

/// How a [`DarcEngine`] schedules.
#[derive(Clone, Debug)]
pub enum EngineMode {
    /// Full DARC: c-FCFS warm-up, then profiled dynamic reservations.
    Dynamic,
    /// A fixed, caller-provided reservation ("DARC-static", paper §5.3);
    /// the profiler observes but never updates.
    Static(Reservation),
}

/// Clamp for SLO-derived typed-queue capacities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SloQueueBounds {
    /// Smallest capacity ever installed (also used when a type has no
    /// service estimate or no guaranteed cores yet).
    pub min: usize,
    /// Largest capacity ever installed.
    pub max: usize,
}

impl Default for SloQueueBounds {
    fn default() -> Self {
        SloQueueBounds {
            min: 8,
            max: 65_536,
        }
    }
}

/// Overload-control knobs (deadline shedding, SLO-sized queues, worker
/// quarantine). Everything defaults to *off* so a plain engine behaves
/// exactly as before; [`OverloadConfig::enabled`] switches the full set on
/// with paper-consistent defaults.
#[derive(Clone, Copy, Debug)]
pub struct OverloadConfig {
    /// Deadline shedding: expire a head-of-queue request once its queueing
    /// delay exceeds `deadline_slowdown ×` its type's profiled mean service
    /// time (the slowdown-SLO deadline). `None` disables shedding.
    pub deadline_slowdown: Option<f64>,
    /// SLO-sized typed queues: on every reservation install, rebound each
    /// typed queue at `slowdown_slo × guaranteed_cores` entries (clamped to
    /// the bounds) so a queue never holds more than ~SLO worth of work.
    /// `None` keeps the static `queue_capacity`. (DARC only: other engines
    /// have no reservations to size against.)
    pub slo_queues: Option<SloQueueBounds>,
    /// Worker quarantine: a busy worker whose in-flight request has run for
    /// `stall_factor ×` its type's profiled mean is quarantined until its
    /// late completion arrives. `None` disables health checks.
    pub stall_factor: Option<f64>,
    /// Floor for the stall threshold; also the full threshold for types
    /// without a service estimate (UNKNOWN included).
    pub min_stall: Nanos,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            deadline_slowdown: None,
            slo_queues: None,
            stall_factor: None,
            min_stall: Nanos::from_millis(1),
        }
    }
}

impl OverloadConfig {
    /// All three mechanisms on: 10× slowdown-SLO deadlines (paper §4.3.3's
    /// SLO), SLO-sized queues with default bounds, and quarantine at 10×
    /// the profiled mean (floored at 1 ms).
    pub fn enabled() -> Self {
        OverloadConfig {
            deadline_slowdown: Some(10.0),
            slo_queues: Some(SloQueueBounds::default()),
            stall_factor: Some(10.0),
            min_stall: Nanos::from_millis(1),
        }
    }
}

/// Reservation tuning (δ, spillway count) for [`EngineConfig`].
///
/// Unlike [`crate::reserve::ReserveConfig`], this carries *no* worker
/// count: the engine derives it from [`EngineConfig::num_workers`] when it
/// builds its internal `ReserveConfig`, so the two can never disagree
/// (callers used to have to patch both fields by hand — a
/// silent-misconfiguration footgun).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReserveTuning {
    /// Similarity factor `δ`: a type joins a group when its mean service
    /// time is at most `δ ×` the group's first (shortest) member.
    pub delta: f64,
    /// Number of spillway cores (clamped to the worker count when the
    /// engine is built; paper: 1).
    pub spillway: usize,
}

impl Default for ReserveTuning {
    /// The paper's defaults: `δ = 2`, one spillway core.
    fn default() -> Self {
        ReserveTuning {
            delta: 2.0,
            spillway: 1,
        }
    }
}

impl ReserveTuning {
    /// Sets the grouping factor `δ`.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the number of spillway cores.
    pub fn with_spillway(mut self, spillway: usize) -> Self {
        self.spillway = spillway;
        self
    }
}

/// Engine construction parameters, shared by every engine.
///
/// DARC-specific fields (`reserve`, `mode`) are ignored by the baseline
/// rules; the profiler, queue capacity, and overload knobs apply to all.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Number of application workers — the single source of truth; the
    /// reservation algorithm's copy is derived from it.
    pub num_workers: usize,
    /// Reservation tuning (δ, spillway count; [`DarcEngine`] only).
    pub reserve: ReserveTuning,
    /// Profiler parameters (window size, triggers).
    pub profiler: ProfilerConfig,
    /// Per-queue capacity; `0` = unbounded.
    pub queue_capacity: usize,
    /// Scheduling mode ([`DarcEngine`] only).
    pub mode: EngineMode,
    /// Overload-control knobs (all off by default).
    pub overload: OverloadConfig,
}

impl EngineConfig {
    /// A dynamic-DARC config with paper defaults for `num_workers` workers.
    pub fn darc(num_workers: usize) -> Self {
        EngineConfig {
            num_workers,
            reserve: ReserveTuning::default(),
            profiler: ProfilerConfig::default(),
            queue_capacity: 0,
            mode: EngineMode::Dynamic,
            overload: OverloadConfig::default(),
        }
    }
}

/// Resolves `policy` into the configuration its live engine is built
/// from — the one place that knows what a policy asks of [`EngineConfig`].
///
/// [`Policy::DarcStatic`] becomes [`EngineMode::Static`] over the §5.3
/// two-class reservation: `reserved_short` of `cfg.num_workers` cores for
/// the type with the smallest entry in `service_hints` (lowest index on
/// ties). Every other live policy takes `cfg` as it is; [`Policy::Darc`]
/// honours whatever mode the caller configured.
///
/// `service_hints` only ranks the types here. The caller decides which
/// hints the engine itself is seeded with (the simulator ranks by the
/// workload's declared means and still boots the profiler unhinted).
///
/// # Panics
///
/// Panics for [`Policy::TimeSharing`] (preemptive, therefore sim-only —
/// see the policy matrix in DESIGN.md), and for [`Policy::DarcStatic`]
/// without any service-time hint (the shortest type is undefined).
pub fn live_engine_config(
    policy: &Policy,
    cfg: EngineConfig,
    num_types: usize,
    service_hints: &[Option<Nanos>],
) -> EngineConfig {
    match policy {
        Policy::DarcStatic { reserved_short } => {
            let short = service_hints
                .iter()
                .enumerate()
                .filter_map(|(i, h)| h.map(|n| (n, i)))
                .min()
                .map(|(_, i)| i)
                .expect("Policy::DarcStatic needs service-time hints to find the shortest type");
            let res = Reservation::two_class_static(
                num_types,
                cfg.num_workers,
                TypeId::new(short as u32),
                *reserved_short,
            );
            EngineConfig {
                mode: EngineMode::Static(res),
                ..cfg
            }
        }
        Policy::TimeSharing(_) => panic!(
            "Policy::TimeSharing is preemptive and therefore simulator-only; \
             the threaded runtime runs requests to completion (see the \
             policy matrix in DESIGN.md)"
        ),
        _ => cfg,
    }
}

/// Builds the engine for `policy` as a boxed trait object.
///
/// This is the configuration-time entry point (`Policy` → engine); hot
/// loops that want monomorphized dispatch construct the concrete engine
/// type directly, as `ServerBuilder::policy` does in the runtime. `cfg`
/// passes through [`live_engine_config`] first.
///
/// # Panics
///
/// As [`live_engine_config`].
pub fn build_engine<R: Send + 'static>(
    policy: &Policy,
    cfg: EngineConfig,
    num_types: usize,
    hints: &[Option<Nanos>],
) -> Box<dyn ScheduleEngine<R>> {
    let cfg = live_engine_config(policy, cfg, num_types, hints);
    match policy {
        Policy::Darc | Policy::DarcStatic { .. } => {
            Box::new(DarcEngine::new(cfg, num_types, hints))
        }
        Policy::CFcfs => Box::new(CfcfsEngine::new(cfg, num_types, hints)),
        Policy::Sjf => Box::new(SjfEngine::new(cfg, num_types, hints)),
        Policy::FixedPriority => Box::new(FixedPriorityEngine::new(cfg, num_types, hints)),
        Policy::DFcfs => Box::new(DfcfsEngine::new(cfg, num_types, hints)),
        Policy::TimeSharing(_) => unreachable!("rejected by live_engine_config"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_engine_maps_policies_to_their_engines() {
        let hints = [Some(Nanos::from_micros(1)), Some(Nanos::from_micros(100))];
        let cases = [
            (Policy::Darc, "DARC"),
            (Policy::DarcStatic { reserved_short: 1 }, "DARC"),
            (Policy::CFcfs, "c-FCFS"),
            (Policy::Sjf, "SJF"),
            (Policy::FixedPriority, "FP"),
            (Policy::DFcfs, "d-FCFS"),
        ];
        for (policy, name) in cases {
            let eng: Box<dyn ScheduleEngine<u64>> =
                build_engine(&policy, EngineConfig::darc(4), 2, &hints);
            assert_eq!(eng.policy_name(), name, "policy {policy:?}");
            assert_eq!(eng.num_workers(), 4);
            assert_eq!(eng.num_types(), 2);
        }
    }

    #[test]
    fn built_engines_schedule_through_the_trait() {
        let hints = [Some(Nanos::from_micros(1)), Some(Nanos::from_micros(100))];
        for policy in [
            Policy::Darc,
            Policy::CFcfs,
            Policy::Sjf,
            Policy::FixedPriority,
            Policy::DFcfs,
        ] {
            let mut eng: Box<dyn ScheduleEngine<u64>> =
                build_engine(&policy, EngineConfig::darc(2), 2, &hints);
            let now = Nanos::from_micros(1);
            eng.enqueue(TypeId::new(0), 7, now).unwrap();
            let d = eng
                .poll(now)
                .unwrap_or_else(|| panic!("{} must place onto an idle pool", eng.policy_name()));
            assert_eq!(d.req, 7);
            eng.complete(d.worker, Nanos::from_micros(1), now + Nanos::from_micros(1));
            assert_eq!(eng.free_workers(), 2);
            assert_eq!(eng.total_pending(), 0);
            let report = eng.report();
            assert_eq!(report.policy, eng.policy_name());
            assert_eq!(report.guaranteed.len(), 2);
        }
    }

    /// One row per live policy for the scaffolding every engine shares.
    /// `typed_lanes`: flow control is per type (a full lane of one type
    /// leaves the others admitting). `sheds`: deadline shedding applies
    /// (d-FCFS commits a request to its worker at arrival and never
    /// sheds).
    struct Row {
        policy: Policy,
        name: &'static str,
        typed_lanes: bool,
        sheds: bool,
    }

    const ROWS: [Row; 5] = [
        Row {
            policy: Policy::Darc,
            name: "DARC",
            typed_lanes: true,
            sheds: true,
        },
        Row {
            policy: Policy::CFcfs,
            name: "c-FCFS",
            typed_lanes: false,
            sheds: true,
        },
        Row {
            policy: Policy::Sjf,
            name: "SJF",
            typed_lanes: true,
            sheds: true,
        },
        Row {
            policy: Policy::FixedPriority,
            name: "FP",
            typed_lanes: true,
            sheds: true,
        },
        Row {
            policy: Policy::DFcfs,
            name: "d-FCFS",
            typed_lanes: false,
            sheds: false,
        },
    ];

    fn micros(n: u64) -> Nanos {
        Nanos::from_micros(n)
    }

    fn row_engine(row: &Row, cfg: EngineConfig) -> Box<dyn ScheduleEngine<u32>> {
        build_engine(&row.policy, cfg, 2, &[Some(micros(1)), Some(micros(100))])
    }

    #[test]
    fn every_policy_drains_and_counts_everything() {
        for row in &ROWS {
            let mut eng = row_engine(row, EngineConfig::darc(2));
            eng.enqueue(TypeId::new(0), 1, micros(0)).unwrap();
            eng.enqueue(TypeId::new(1), 2, micros(0)).unwrap();
            eng.enqueue(TypeId::UNKNOWN, 3, micros(0)).unwrap();
            let mut drained = vec![(TypeId::new(9), 99)];
            eng.drain_all(micros(5), &mut drained);
            assert_eq!(
                drained.len(),
                4,
                "{}: appends to the caller's buffer",
                row.name
            );
            for want in [
                (TypeId::new(0), 1),
                (TypeId::new(1), 2),
                (TypeId::UNKNOWN, 3),
            ] {
                assert!(drained.contains(&want), "{}: {want:?} drained", row.name);
            }
            assert_eq!(eng.total_pending(), 0, "{}", row.name);
            assert_eq!(eng.pending(TypeId::new(1)), 0, "{}", row.name);
            assert_eq!(eng.report().expired, 3, "{}", row.name);
            assert_eq!(eng.total_drops(), 0, "{}: shedding is not a drop", row.name);
            assert!(eng.quiescent(), "{}", row.name);
        }
    }

    #[test]
    fn every_policy_reports_its_counters() {
        for row in &ROWS {
            let mut eng = row_engine(row, EngineConfig::darc(4));
            let boot_updates = eng.report().updates;
            eng.enqueue(TypeId::new(0), 1, micros(0)).unwrap();
            let d = eng.poll(micros(0)).unwrap();
            assert_eq!((d.ty, d.req), (TypeId::new(0), 1), "{}", row.name);
            eng.complete(d.worker, micros(1), micros(1));
            let r = eng.report();
            assert_eq!(r.policy, row.name);
            assert_eq!(r.policy, eng.policy_name());
            assert_eq!((r.quarantines, r.releases, r.expired), (0, 0, 0));
            assert_eq!(r.guaranteed.len(), 2, "{}", row.name);
            assert_eq!(r.updates, boot_updates, "{}", row.name);
            if row.name == "DARC" {
                // Hinted boot installs once: 1 short core, 3 long ones.
                assert_eq!((r.updates, r.guaranteed), (1, vec![1, 3]));
            } else {
                assert_eq!((r.updates, r.guaranteed), (0, vec![0, 0]), "{}", row.name);
            }
        }
    }

    #[test]
    fn every_policy_quarantines_a_stalled_worker_and_releases_it() {
        for row in &ROWS {
            let mut cfg = EngineConfig::darc(2);
            cfg.overload.stall_factor = Some(5.0);
            cfg.overload.min_stall = micros(1);
            let mut eng = row_engine(row, cfg);
            eng.enqueue(TypeId::new(0), 1, micros(0)).unwrap();
            let d = eng.poll(micros(0)).unwrap();
            assert!(
                !eng.quiescent(),
                "{}: a busy pool is not quiescent",
                row.name
            );
            // 4 µs in, the request is under the 5 × 1 µs threshold.
            eng.check_health(micros(4));
            assert!(!eng.is_quarantined(d.worker), "{}", row.name);
            // 6 µs in, it is past it.
            eng.check_health(micros(6));
            assert!(eng.is_quarantined(d.worker), "{}", row.name);
            assert!(
                eng.quiescent(),
                "{}: shutdown must not wait on it",
                row.name
            );
            // Re-checking never double-counts, and the worker stays out
            // of the free pool.
            eng.check_health(micros(7));
            assert_eq!(eng.report().quarantines, 1, "{}", row.name);
            assert_eq!(eng.free_workers(), 1, "{}", row.name);
            // Its late completion releases it.
            eng.complete(d.worker, micros(8), micros(8));
            assert!(!eng.is_quarantined(d.worker), "{}", row.name);
            assert_eq!(eng.report().releases, 1, "{}", row.name);
            assert_eq!(eng.free_workers(), 2, "{}", row.name);
            assert!(eng.quiescent(), "{}", row.name);
            // Off by default: a plain engine never quarantines.
            let mut plain = row_engine(row, EngineConfig::darc(2));
            plain.enqueue(TypeId::new(0), 1, micros(0)).unwrap();
            let d = plain.poll(micros(0)).unwrap();
            plain.check_health(Nanos::from_secs(100));
            assert!(!plain.is_quarantined(d.worker), "{}", row.name);
        }
    }

    #[test]
    fn every_policy_accounts_flow_control_drops_per_type() {
        for row in &ROWS {
            let mut cfg = EngineConfig::darc(1);
            cfg.queue_capacity = 2;
            let mut eng = row_engine(row, cfg);
            for i in 0..5 {
                let rejected = eng.enqueue(TypeId::new(1), i, micros(0));
                assert_eq!(
                    rejected,
                    if i < 2 { Ok(()) } else { Err(i) },
                    "{}",
                    row.name
                );
            }
            assert_eq!(eng.drops(TypeId::new(1)), 3, "{}", row.name);
            assert_eq!(eng.pending(TypeId::new(1)), 2, "{}", row.name);
            assert_eq!(eng.total_pending(), 2, "{}", row.name);
            // Only typed lanes keep admitting the other type.
            let other = eng.enqueue(TypeId::new(0), 9, micros(0));
            assert_eq!(other.is_ok(), row.typed_lanes, "{}", row.name);
            assert_eq!(
                eng.drops(TypeId::new(0)),
                u64::from(!row.typed_lanes),
                "{}",
                row.name
            );
            assert_eq!(
                eng.total_drops(),
                3 + u64::from(!row.typed_lanes),
                "{}",
                row.name
            );
        }
    }

    #[test]
    fn every_policy_treats_an_out_of_range_type_as_unknown() {
        for row in &ROWS {
            let mut eng = row_engine(row, EngineConfig::darc(2));
            eng.enqueue(TypeId::new(17), 5, Nanos::ZERO).unwrap();
            assert_eq!(eng.pending(TypeId::UNKNOWN), 1, "{}", row.name);
            assert_eq!(eng.total_pending(), 1, "{}", row.name);
            assert_eq!(eng.poll(Nanos::ZERO).unwrap().req, 5, "{}", row.name);
        }
    }

    #[test]
    fn every_shedding_policy_expires_stale_heads_only() {
        for row in &ROWS {
            let mut cfg = EngineConfig::darc(1);
            cfg.overload.deadline_slowdown = Some(10.0);
            let mut eng = row_engine(row, cfg);
            // Occupy the lone worker so the backlog builds.
            eng.enqueue(TypeId::new(0), 0, micros(0)).unwrap();
            let d = eng.poll(micros(0)).unwrap();
            eng.enqueue(TypeId::new(0), 1, micros(0)).unwrap();
            eng.enqueue(TypeId::new(0), 2, micros(5)).unwrap();
            eng.enqueue(TypeId::new(1), 3, micros(0)).unwrap();
            // Type 0's deadline is 10 × 1 µs: at t = 11 µs its head has
            // waited 11 µs (expired) and the next entry 6 µs (kept); type
            // 1's 1 ms deadline is nowhere near.
            eng.expire_heads(micros(11));
            let expired = eng.take_expired();
            assert_eq!(
                expired,
                row.sheds.then_some((TypeId::new(0), 1)),
                "{}",
                row.name
            );
            assert_eq!(eng.take_expired(), None, "{}", row.name);
            let shed = usize::from(row.sheds);
            assert_eq!(eng.report().expired, shed as u64, "{}", row.name);
            assert_eq!(eng.pending(TypeId::new(0)), 2 - shed, "{}", row.name);
            assert_eq!(eng.pending(TypeId::new(1)), 1, "{}", row.name);
            eng.complete(d.worker, micros(11), micros(11));
            // Off by default: a plain engine never expires anything.
            let mut plain = row_engine(row, EngineConfig::darc(1));
            plain.enqueue(TypeId::new(0), 1, micros(0)).unwrap();
            plain.expire_heads(Nanos::from_secs(100));
            assert_eq!(plain.take_expired(), None, "{}", row.name);
            assert_eq!(plain.pending(TypeId::new(0)), 1, "{}", row.name);
        }
    }

    #[test]
    #[should_panic(expected = "needs service-time hints")]
    fn darc_static_without_hints_has_no_shortest_type() {
        let _ = live_engine_config(
            &Policy::DarcStatic { reserved_short: 1 },
            EngineConfig::darc(4),
            2,
            &[None, None],
        );
    }

    #[test]
    fn darc_static_reserves_for_the_shortest_hinted_type() {
        let hints = [
            Some(Nanos::from_micros(100)),
            None,
            Some(Nanos::from_micros(1)),
        ];
        let policy = Policy::DarcStatic { reserved_short: 2 };
        let cfg = live_engine_config(&policy, EngineConfig::darc(6), 3, &hints);
        let EngineMode::Static(res) = cfg.mode else {
            panic!("DarcStatic must resolve to a static reservation");
        };
        let short = res.group_of(TypeId::new(2)).unwrap();
        assert_eq!(res.groups[short].reserved.len(), 2);
        assert_eq!(res.num_workers, 6);
        // Every other live policy keeps the caller's mode.
        let cfg = live_engine_config(&Policy::Sjf, EngineConfig::darc(6), 3, &hints);
        assert!(matches!(cfg.mode, EngineMode::Dynamic));
    }

    #[test]
    #[should_panic(expected = "simulator-only")]
    fn time_sharing_cannot_build_a_live_engine() {
        use crate::policy::TimeSharingParams;
        let _ = build_engine::<u64>(
            &Policy::TimeSharing(TimeSharingParams::shinjuku_fig1()),
            EngineConfig::darc(2),
            2,
            &[None, None],
        );
    }
}
