//! # persephone-core — DARC scheduling
//!
//! This crate implements **DARC** (*Dynamic Application-aware Reserved
//! Cores*), the scheduling policy contributed by the SOSP 2021 paper
//! *"When Idling is Ideal: Optimizing Tail-Latency for Heavy-Tailed
//! Datacenter Workloads with Perséphone"*.
//!
//! DARC minimizes tail latency for microsecond-scale requests with wide
//! service-time dispersion by being deliberately **non work conserving**:
//! it profiles request types online, reserves whole cores for short
//! request types, lets short requests *steal* cycles from cores reserved
//! for longer types (never the reverse), and keeps a *spillway* core so no
//! type is ever denied service.
//!
//! The crate is substrate-agnostic: the same scheduling engine drives
//! both the discrete-event simulator (`persephone-sim`) and the threaded
//! runtime (`persephone-runtime`), behind one
//! [`dispatch::ScheduleEngine`] trait. There is one implementation,
//! [`dispatch::Engine`], parameterized by a [`dispatch::Select`] rule:
//! [`dispatch::DarcEngine`] is the paper's contribution;
//! [`dispatch::CfcfsEngine`], [`dispatch::SjfEngine`],
//! [`dispatch::FixedPriorityEngine`], and [`dispatch::DfcfsEngine`] are
//! the baselines it is evaluated against, and differ from it in the rule
//! only. [`policy::Policy`] names them all, and
//! [`dispatch::build_engine`] maps a policy onto its engine.
//!
//! ## Module map
//!
//! * [`time`] — integer nanosecond clock type.
//! * [`arena`] — slab FIFO with an intrusive freelist; the zero-alloc
//!   storage layer under every typed queue.
//! * [`rng`] — seeded xoshiro256++ streams shared by the simulator, the
//!   load generator, and the scenario engine.
//! * [`dist`] — service-time distributions sampled identically on both
//!   backends.
//! * [`types`] — request types, workers, type registry.
//! * [`classifier`] — user-defined request classifiers (paper §4.2).
//! * [`profile`] — profiling windows, Eq. 1 demand vector (paper §3).
//! * [`reserve`] — worker reservation, grouping, spillway (Algorithm 2).
//! * [`queue`] — bounded typed queues with drop-based flow control.
//! * [`dispatch`] — the [`dispatch::ScheduleEngine`] trait, the shared
//!   [`dispatch::EngineCore`], and the five [`dispatch::Select`] rules:
//!   DARC (Algorithm 1) and the c-FCFS / SJF / FP / d-FCFS baselines.
//! * [`policy`] — the policy taxonomy of the paper's Tables 1 and 5, and
//!   the configuration surface engines are built from.
//!
//! ## Quickstart
//!
//! ```
//! use persephone_core::dispatch::{DarcEngine, EngineConfig, ScheduleEngine};
//! use persephone_core::time::Nanos;
//! use persephone_core::types::TypeId;
//!
//! // A 14-worker server with two request types hinted at 1 µs and 100 µs.
//! let cfg = EngineConfig::darc(14);
//! let hints = [Some(Nanos::from_micros(1)), Some(Nanos::from_micros(100))];
//! let mut engine: DarcEngine<u64> = DarcEngine::new(cfg, 2, &hints);
//!
//! // The short type is guaranteed a core that long requests cannot take.
//! assert_eq!(engine.guaranteed_workers(TypeId::new(0)), 1);
//!
//! // Enqueue, dispatch, complete.
//! let now = Nanos::ZERO;
//! engine.enqueue(TypeId::new(0), 42, now).unwrap();
//! let d = engine.poll(now).unwrap();
//! engine.complete(d.worker, Nanos::from_micros(1), Nanos::from_micros(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod classifier;
pub mod dispatch;
pub mod dist;
pub mod policy;
pub mod profile;
pub mod queue;
pub mod reserve;
pub mod rng;
pub mod time;
pub mod types;

pub use classifier::Classifier;
pub use dispatch::{
    build_engine, CfcfsEngine, DarcEngine, DfcfsEngine, Dispatch, Engine, EngineConfig, EngineMode,
    EngineReport, FixedPriorityEngine, OverloadConfig, ReserveTuning, ScheduleEngine, Select,
    SjfEngine, SloQueueBounds,
};
pub use policy::Policy;
pub use profile::{Profiler, ProfilerConfig, TypeStat};
pub use reserve::{reserve, Reservation, ReserveConfig};
pub use time::Nanos;
pub use types::{TypeId, TypeRegistry, TypeSpec, WorkerId};
