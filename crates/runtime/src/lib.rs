//! # persephone-runtime — the threaded Perséphone pipeline
//!
//! A real, concurrent implementation of the Perséphone architecture
//! (paper Figure 2) over the in-process substrates of `persephone-net`:
//! a combined net-worker/dispatcher thread classifies requests and runs
//! the DARC engine; application worker threads execute handlers and
//! transmit responses on their own NIC contexts; completion notifications
//! flow back over SPSC rings and drive profiling and reservation updates.
//!
//! On the paper's testbed this pipeline would sit on DPDK; here it runs on
//! a loopback NIC so the full system is exercised end to end in tests and
//! examples (figure-scale *throughput* numbers come from `persephone-sim`,
//! as in the paper's own simulations).
//!
//! ## Quickstart
//!
//! ```
//! use persephone_core::classifier::HeaderClassifier;
//! use persephone_core::time::Nanos;
//! use persephone_net::{pool::BufferPool, wire};
//! use persephone_runtime::handler::SpinHandler;
//! use persephone_runtime::loadgen::{run_open_loop, LoadSpec, LoadType};
//! use persephone_runtime::server::ServerBuilder;
//! use persephone_runtime::spin::SpinCalibration;
//!
//! let cal = SpinCalibration::calibrate();
//! let (handle, bound) = ServerBuilder::new(2, 2)
//!     .hints(vec![Some(Nanos::from_micros(5)), Some(Nanos::from_micros(100))])
//!     .classifier(HeaderClassifier::new(wire::TYPE_OFFSET, 2))
//!     .handler_factory(move |_| {
//!         Box::new(SpinHandler::new(
//!             cal,
//!             &[Nanos::from_micros(5), Nanos::from_micros(100)],
//!         ))
//!     })
//!     .start()
//!     .expect("loopback start cannot fail");
//! let mut client = bound.into_loopback();
//!
//! let mut pool = BufferPool::new(128, 256);
//! let spec = LoadSpec::new(vec![
//!     LoadType { ty: 0, ratio: 0.9, payload: b"short".to_vec() },
//!     LoadType { ty: 1, ratio: 0.1, payload: b"long".to_vec() },
//! ]);
//! let report = run_open_loop(
//!     &mut client,
//!     &mut pool,
//!     &spec,
//!     2_000.0,
//!     std::time::Duration::from_millis(100),
//!     std::time::Duration::from_millis(500),
//!     7,
//! );
//! let server_report = handle.stop();
//! assert!(report.received > 0);
//! assert_eq!(server_report.handled(), report.sent - server_report.dispatcher.dropped);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod dispatcher;
pub mod fault;
pub mod handler;
pub mod loadgen;
pub mod messages;
pub mod server;
pub mod spin;
pub mod worker;

pub use fault::{FaultPlan, StallFault};
pub use handler::{PayloadSleepHandler, PayloadSpinHandler, RequestHandler, SpinHandler};
pub use loadgen::{run_open_loop, LoadReport, LoadSpec, LoadType};
pub use server::{BoundTransport, RuntimeReport, ServerBuilder, ServerHandle, Transport};
pub use spin::SpinCalibration;
