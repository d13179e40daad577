//! # persephone-telemetry
//!
//! Zero-allocation, lock-free observability instruments for the
//! Perséphone stack. Every figure in the paper is a tail-latency claim,
//! so the instruments are built for always-on use inside a
//! microsecond-scale dispatch loop:
//!
//! * [`hist::LogHist`] / [`hist::AtomicHist`] — log-bucketed HDR-style
//!   latency histograms (~2 significant digits). `record()` on the
//!   atomic variant is one single-writer load and store.
//! * [`counters::TypeCounters`] / [`counters::WorkerCounters`] — counter
//!   sets in [`CachePadded`] slots, one single-writer load and store per
//!   increment.
//! * [`ring::EventRing`] — a bounded seqlock ring of scheduler decisions
//!   (reservation updates with old→new core maps, drops, and a 1-in-64
//!   sample of cycle-steals and spillway hits); overwrites are
//!   detectable via sequence numbers.
//! * [`Telemetry`] / [`Snapshot`] — the registry that bundles the above
//!   and freezes into mergeable snapshots with plain-text and JSON-lines
//!   exporters.
//!
//! The crate is dependency-free and identifier-agnostic (types and
//! workers are raw indices) so every layer — core engine, simulator,
//! runtime, benches — can depend on it without cycles.
//!
//! ## Hot-path cost budget
//!
//! Each cell has one writing thread (the table is in [`snapshot`]), so
//! an increment needs no `lock`-prefixed RMW:
//!
//! | call | cost |
//! |---|---|
//! | `AtomicHist::record` | 1 relaxed load + 1 relaxed store (single-writer `bump`) |
//! | counter increment | 1 relaxed load + 1 relaxed store (`bump`); the HWM stores only when it rises |
//! | steal / spillway event | 1 in 64 per type pays an `EventRing::push` |
//! | `EventRing::push` | 1 relaxed `fetch_add` + 1 CAS + 9 relaxed/release stores |
//!
//! Only `rx_malformed`, written by the dispatcher and the workers, keeps
//! a `fetch_add`. No `record_*` path allocates, locks, or spins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod hist;
pub mod padded;
pub mod ring;
pub mod snapshot;
pub mod sync;

pub use counters::{TypeCounters, TypeCountersSnap, WorkerCounters, WorkerCountersSnap};
pub use hist::{AtomicHist, HistSnapshot, LogHist, DEFAULT_PRECISION_BITS};
pub use padded::CachePadded;
pub use ring::{EventLog, EventRing, SchedEvent, MAX_MAP_TYPES};
pub use snapshot::{DispatchKind, Snapshot, Telemetry, TelemetryConfig, TypeSnapshot};
