//! Scheduling-policy implementations for the simulator.
//!
//! Each submodule implements one policy from the paper's Tables 1 and 5:
//!
//! * [`dfcfs`] — decentralized FCFS (RSS-style per-worker queues).
//! * [`cfcfs`] — centralized FCFS (single queue, any idle worker).
//! * [`fp`] — fixed priority by type, work conserving.
//! * [`sjf`] — non-preemptive shortest-job-first.
//! * [`cscq`] — cycle stealing with central queue (Harchol-Balter).
//! * [`ts`] — quantum-based time sharing (Shinjuku model).
//! * [`darc`] — DARC, driving the real `persephone_core` engine.
//!
//! The Table 5 policies that also run on the live runtime — d-FCFS,
//! c-FCFS, FP, SJF, and both DARC variants — are thin adapters over the
//! shared `persephone_core` [`ScheduleEngine`]s, so the simulator
//! exercises the exact scheduling code a deployment runs. The remaining
//! modules (`cscq` and the preemptive `ts`) are simulator-only
//! disciplines with their own logic.
//!
//! [`build`] maps a [`Policy`] description onto a boxed implementation.

pub mod cfcfs;
pub mod cscq;
pub mod darc;
pub mod dfcfs;
pub mod fp;
pub mod sjf;
pub mod ts;

use persephone_core::dispatch::ScheduleEngine;
use persephone_core::policy::Policy;
use persephone_core::types::{TypeId, WorkerId};

use crate::engine::{Core, Event, ReqId, SimPolicy};
use crate::workload::Workload;

/// Shared glue between a core [`ScheduleEngine`] and the simulator:
/// arrivals are classified (with the request's true type unless the
/// caller says otherwise) and enqueued, every dispatch decision the
/// engine makes is executed on the simulated cores, and completions are
/// fed back so the engine's worker bookkeeping mirrors the simulation.
pub(crate) struct EngineAdapter<E: ScheduleEngine<ReqId>> {
    engine: E,
}

impl<E: ScheduleEngine<ReqId>> EngineAdapter<E> {
    pub(crate) fn new(engine: E) -> Self {
        EngineAdapter { engine }
    }

    /// Read access to the wrapped engine (test hooks, accessors).
    pub(crate) fn engine(&self) -> &E {
        &self.engine
    }

    /// Write access to the wrapped engine (telemetry attachment).
    pub(crate) fn engine_mut(&mut self) -> &mut E {
        &mut self.engine
    }

    fn drain(&mut self, core: &mut Core) {
        while let Some(d) = self.engine.poll(core.now) {
            core.run(d.worker.index(), d.req);
        }
    }

    /// Routes a simulation event through the engine, classifying
    /// arrivals perfectly.
    pub(crate) fn handle(&mut self, ev: Event, core: &mut Core) {
        self.handle_classified(ev, core, |core, id| core.req(id).ty);
    }

    /// [`EngineAdapter::handle`] with the arrival's type decided by
    /// `classify` (the broken classifier of Figure 9 plugs in here).
    /// Slice/timer events are unreachable: every adapted engine is
    /// non-preemptive.
    pub(crate) fn handle_classified(
        &mut self,
        ev: Event,
        core: &mut Core,
        classify: impl FnOnce(&Core, ReqId) -> TypeId,
    ) {
        match ev {
            Event::Arrival(id) => {
                let ty = classify(core, id);
                if let Err(rejected) = self.engine.enqueue(ty, id, core.now) {
                    core.drop_req(rejected);
                }
                self.drain(core);
            }
            Event::Completed {
                worker, service, ..
            } => {
                self.engine
                    .complete(WorkerId::new(worker as u32), service, core.now);
                self.drain(core);
            }
            Event::SliceExpired { .. } | Event::Timer(_) => {
                unreachable!("core scheduling engines are non-preemptive")
            }
        }
    }
}

/// Instantiates the simulator implementation of `policy` for `workload`
/// on `workers` cores.
///
/// DARC variants receive the workload's type count; the dynamic variant
/// boots unhinted (c-FCFS warm-up then online profiling), exactly like the
/// real system. The profiling window is sized by `darc_min_samples`.
/// `queue_capacity` bounds every scheduling queue (`0` = unbounded):
/// real kernel-bypass systems have finite buffers and shed load at
/// saturation rather than queueing without bound, and DARC's typed-queue
/// flow control (paper §4.3.3) is exactly such a bound.
pub fn build(
    policy: &Policy,
    workload: &Workload,
    workers: usize,
    darc_min_samples: u64,
    queue_capacity: usize,
) -> Box<dyn SimPolicy> {
    match policy {
        Policy::DFcfs => Box::new(dfcfs::DFcfs::new(workers, 0xD15).with_capacity(queue_capacity)),
        Policy::CFcfs => Box::new(cfcfs::CFcfs::new(workers).with_capacity(queue_capacity)),
        Policy::FixedPriority => {
            Box::new(fp::FixedPriority::new(workload, workers).with_capacity(queue_capacity))
        }
        Policy::Sjf => Box::new(sjf::Sjf::new(workload, workers).with_capacity(queue_capacity)),
        Policy::TimeSharing(p) => {
            Box::new(ts::TimeSharing::new(*p, workload.num_types()).with_capacity(queue_capacity))
        }
        Policy::DarcStatic { reserved_short } => Box::new(
            darc::DarcSim::fixed(workload, workers, *reserved_short).with_capacity(queue_capacity),
        ),
        Policy::Darc => Box::new(
            darc::DarcSim::dynamic(workload, workers, darc_min_samples)
                .with_capacity(queue_capacity),
        ),
    }
}
