//! # persephone — umbrella crate
//!
//! A from-scratch Rust reproduction of **Perséphone** (SOSP 2021): the
//! DARC non-work-conserving kernel-bypass scheduler, a discrete-event
//! simulator reproducing every figure of the paper's evaluation, and an
//! in-process threaded runtime of the full dispatcher/worker pipeline.
//!
//! This crate re-exports the workspace members under stable names:
//!
//! * [`core`] — DARC itself: classifiers, profiler, reservations,
//!   dispatch (crate `persephone-core`).
//! * [`sim`] — the discrete-event simulator and experiment harness
//!   (crate `persephone-sim`).
//! * [`net`] — lock-free rings, buffer pool, wire format, loopback NIC
//!   (crate `persephone-net`).
//! * [`runtime`] — the threaded Perséphone pipeline (crate
//!   `persephone-runtime`).
//! * [`telemetry`] — zero-allocation histograms, counters, and the
//!   scheduler-decision event ring (crate `persephone-telemetry`).
//! * [`rack`] — the rack-scale steering tier: inter-server policies over
//!   N servers, in the simulator and live (crate `persephone-rack`).
//! * [`scenario`] — declarative TOML workload scenarios runnable on both
//!   backends, emitting `BENCH_*.json` reports (crate
//!   `persephone-scenario`; also the `scenario` CLI binary).
//!
//! For application code, [`prelude`] pulls in the names needed to stand
//! up a server and drive load against it:
//!
//! ```
//! use persephone::prelude::*;
//! # let _ = ServerBuilder::new(2, 1);
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and
//! `crates/bench/src/bin/` for the figure-regeneration binaries.

#![forbid(unsafe_code)]

pub use persephone_core as core;
pub use persephone_net as net;
pub use persephone_rack as rack;
pub use persephone_runtime as runtime;
pub use persephone_scenario as scenario;
pub use persephone_sim as sim;
pub use persephone_telemetry as telemetry;

/// One-stop imports for building and driving a Perséphone server.
///
/// Covers the common path — classifier, engine configuration,
/// [`ServerBuilder`](persephone_runtime::server::ServerBuilder), loopback
/// NIC, wire format, load generator, and calibrated spin work — so
/// examples and application code start with a single
/// `use persephone::prelude::*;`.
pub mod prelude {
    pub use persephone_core::classifier::{
        Classifier, FixedClassifier, FnClassifier, HeaderClassifier, RandomClassifier,
    };
    pub use persephone_core::dispatch::{
        build_engine, CfcfsEngine, DarcEngine, DfcfsEngine, Dispatch, EngineConfig, EngineMode,
        EngineReport, FixedPriorityEngine, OverloadConfig, ReserveTuning, ScheduleEngine,
        SjfEngine, SloQueueBounds,
    };
    pub use persephone_core::policy::Policy;
    pub use persephone_core::time::Nanos;
    pub use persephone_core::types::{TypeId, WorkerId};
    pub use persephone_net::nic::{
        self, loopback, loopback_mq, ClientPort, NicFaultPlan, ServerPort, Steering,
    };
    pub use persephone_net::pool::BufferPool;
    pub use persephone_net::udp::{self, UdpConfig, UdpQueueStats};
    pub use persephone_net::wire::{self, Kind, Status};
    pub use persephone_rack::{
        build_rack_policy, run_rack_scheduled, RackLoadReport, RackLoads, RackMember, RackPolicy,
        RackReport, RackSim,
    };
    pub use persephone_runtime::dispatcher::DispatcherReport;
    pub use persephone_runtime::fault::FaultPlan;
    pub use persephone_runtime::handler::{
        PayloadSleepHandler, PayloadSpinHandler, RequestHandler, SpinHandler,
    };
    pub use persephone_runtime::loadgen::{
        run_open_loop, run_scheduled, LoadReport, LoadSpec, LoadType, ScheduledRequest,
    };
    pub use persephone_runtime::server::{
        BoundTransport, RuntimeReport, ServerBuilder, ServerHandle, Transport,
    };
    pub use persephone_runtime::spin::SpinCalibration;
    pub use persephone_runtime::worker::WorkerReport;
    pub use persephone_scenario::{Backend, BenchReport, ScenarioSpec};
    pub use persephone_telemetry::{Snapshot, Telemetry};
}
