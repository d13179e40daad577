//! Non-preemptive Shortest-Job-First (SJF) by profiled type.
//!
//! A comparison point from Table 5: pending requests are dequeued in
//! ascending order of their *type's* mean service time, seeded here from
//! the workload's declared means (what a converged profiler would
//! report). Running requests are never preempted, so SJF still lets an
//! unlucky short request block behind `W` in-flight longs.
//!
//! Thin adapter over the shared [`SjfEngine`]: the simulator runs the
//! exact typed-queue selection code the threaded runtime runs under
//! `ServerBuilder::policy(Policy::Sjf)`.

use persephone_core::dispatch::{EngineConfig, SjfEngine};
use persephone_core::time::Nanos;

use super::EngineAdapter;
use crate::engine::{Core, Event, ReqId, SimPolicy};
use crate::workload::Workload;

/// The SJF policy (type-mean service times).
pub struct Sjf {
    inner: EngineAdapter<SjfEngine<ReqId>>,
    workers: usize,
    hints: Vec<Option<Nanos>>,
}

impl Sjf {
    /// Creates an SJF policy over `workers` cores; type service times come
    /// from the workload's declared means.
    pub fn new(workload: &Workload, workers: usize) -> Self {
        Sjf::build(workload.hints(), workers, 0)
    }

    /// Bounds each typed queue (`0` = unbounded). Call right after the
    /// constructor, before the first event.
    pub fn with_capacity(self, capacity: usize) -> Self {
        Sjf::build(self.hints, self.workers, capacity)
    }

    fn build(hints: Vec<Option<Nanos>>, workers: usize, capacity: usize) -> Self {
        let mut cfg = EngineConfig::darc(workers);
        cfg.queue_capacity = capacity;
        let n = hints.len();
        Sjf {
            inner: EngineAdapter::new(SjfEngine::new(cfg, n, &hints)),
            workers,
            hints,
        }
    }
}

impl SimPolicy for Sjf {
    fn name(&self) -> String {
        "SJF".into()
    }

    fn handle(&mut self, ev: Event, core: &mut Core) {
        self.inner.handle(ev, core);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig};
    use crate::workload::{ArrivalGen, Workload};

    #[test]
    fn sjf_orders_by_service_time() {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(300);
        let sjf = {
            let gen = ArrivalGen::uniform(&wl, 4, 0.9, dur, 21);
            let mut p = Sjf::new(&wl, 4);
            simulate(&mut p, gen, 2, dur, &SimConfig::new(4))
        };
        let cf = {
            let gen = ArrivalGen::uniform(&wl, 4, 0.9, dur, 21);
            let mut p = super::super::cfcfs::CFcfs::new(4);
            simulate(&mut p, gen, 2, dur, &SimConfig::new(4))
        };
        // SJF minimizes mean waiting time relative to FCFS.
        assert!(
            sjf.summary.overall_slowdown.mean < cf.summary.overall_slowdown.mean,
            "sjf {} vs cfcfs {}",
            sjf.summary.overall_slowdown.mean,
            cf.summary.overall_slowdown.mean
        );
    }

    #[test]
    fn degenerates_to_fcfs_for_a_single_type() {
        // With one type every queue key is equal, so SJF must break ties
        // by arrival order — identical completions to c-FCFS on the same
        // arrival trace.
        use crate::workload::TypeMix;
        use persephone_core::dist::Dist;
        let wl = Workload::new(
            "uni",
            vec![TypeMix::new(
                "X",
                1.0,
                Dist::Exponential(Nanos::from_micros(10)),
            )],
        );
        let dur = Nanos::from_millis(100);
        let sjf = {
            let gen = ArrivalGen::uniform(&wl, 4, 0.8, dur, 5);
            let mut p = Sjf::new(&wl, 4);
            simulate(&mut p, gen, 1, dur, &SimConfig::new(4))
        };
        let cf = {
            let gen = ArrivalGen::uniform(&wl, 4, 0.8, dur, 5);
            let mut p = super::super::cfcfs::CFcfs::new(4);
            simulate(&mut p, gen, 1, dur, &SimConfig::new(4))
        };
        assert_eq!(sjf.completions, cf.completions);
        assert_eq!(
            sjf.summary.per_type[0].latency_ns.p999, cf.summary.per_type[0].latency_ns.p999,
            "one-type SJF must replay c-FCFS exactly"
        );
    }
}
