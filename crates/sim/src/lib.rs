//! # persephone-sim — discrete-event simulator for µs-scale RPC scheduling
//!
//! The evaluation substrate for the Perséphone reproduction. It simulates
//! a multicore server fed by an open-loop Poisson client and compares
//! scheduling policies (d-FCFS, c-FCFS, FP, SJF, Shinjuku-style time
//! sharing, and DARC driving the real `persephone-core` engine) on the
//! paper's workloads (High/Extreme Bimodal, TPC-C, RocksDB).
//!
//! ## Quickstart
//!
//! ```
//! use persephone_core::policy::Policy;
//! use persephone_core::time::Nanos;
//! use persephone_sim::experiment::{run_point, SweepConfig};
//! use persephone_sim::workload::Workload;
//!
//! let cfg = SweepConfig::new(
//!     Workload::extreme_bimodal(),
//!     8,
//!     vec![0.8],
//!     Nanos::from_millis(20),
//! );
//! let out = run_point(&Policy::Darc, &cfg, 0.8, 7);
//! assert!(out.completions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod experiment;
pub mod metrics;
pub mod policies;
pub mod report;
pub mod workload;

pub use engine::{simulate, Core, Event, Req, ReqId, SimConfig, SimOutput, SimPolicy};
pub use experiment::{capacity_at_slo, sweep, sweep_system, Slo, SweepConfig, SystemSpec};
pub use metrics::{Percentiles, Recorder, RunSummary};
pub use workload::{ArrivalGen, PhasedWorkload, Workload};
