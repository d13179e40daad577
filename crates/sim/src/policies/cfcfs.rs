//! Centralized first-come-first-served (c-FCFS).
//!
//! One global queue feeds any idle worker. This is what single-dispatcher
//! servers (NGINX-style) do, and what work-stealing kernel-bypass systems
//! (ZygOS, Shenango) approximate with per-worker queues plus stealing —
//! which is how the paper evaluates Shenango.
//!
//! Thin adapter over the shared [`CfcfsEngine`]: the simulator runs the
//! exact queueing and worker-selection code the threaded runtime runs
//! under `ServerBuilder::policy(Policy::CFcfs)`.

use persephone_core::dispatch::{CfcfsEngine, EngineConfig, ScheduleEngine};

use super::EngineAdapter;
use crate::engine::{Core, Event, ReqId, SimPolicy};

/// The c-FCFS policy.
pub struct CFcfs {
    inner: EngineAdapter<CfcfsEngine<ReqId>>,
    workers: usize,
}

impl CFcfs {
    /// Creates a c-FCFS policy over `workers` cores with an unbounded
    /// queue. c-FCFS is type-blind, so no workload description is needed.
    pub fn new(workers: usize) -> Self {
        CFcfs::build(workers, 0)
    }

    /// Bounds the central queue (`0` = unbounded); arrivals beyond the
    /// bound are dropped, as a real system's finite buffers would. Call
    /// right after the constructor, before the first event.
    pub fn with_capacity(self, capacity: usize) -> Self {
        CFcfs::build(self.workers, capacity)
    }

    fn build(workers: usize, capacity: usize) -> Self {
        let mut cfg = EngineConfig::darc(workers);
        cfg.queue_capacity = capacity;
        CFcfs {
            inner: EngineAdapter::new(CfcfsEngine::new(cfg, 0, &[])),
            workers,
        }
    }

    /// Queued requests (test hook).
    pub fn backlog(&self) -> usize {
        self.inner.engine().total_pending()
    }
}

impl SimPolicy for CFcfs {
    fn name(&self) -> String {
        "c-FCFS".into()
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
    use persephone_core::time::Nanos;

    fn run(load: f64, seed: u64) -> crate::engine::SimOutput {
        let wl = Workload::extreme_bimodal();
        let dur = Nanos::from_millis(100);
        let gen = ArrivalGen::uniform(&wl, 8, load, dur, seed);
        let mut p = CFcfs::new(8);
        simulate(&mut p, gen, 2, dur, &SimConfig::new(8))
    }

    #[test]
    fn beats_dfcfs_at_moderate_load() {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(200);
        let out_c = {
            let gen = ArrivalGen::uniform(&wl, 8, 0.5, dur, 7);
            let mut p = CFcfs::new(8);
            simulate(&mut p, gen, 2, dur, &SimConfig::new(8))
        };
        let out_d = {
            let gen = ArrivalGen::uniform(&wl, 8, 0.5, dur, 7);
            let mut p = super::super::dfcfs::DFcfs::new(8, 3);
            simulate(&mut p, gen, 2, dur, &SimConfig::new(8))
        };
        assert!(
            out_c.summary.overall_slowdown.p999 < out_d.summary.overall_slowdown.p999,
            "c-FCFS {} vs d-FCFS {}",
            out_c.summary.overall_slowdown.p999,
            out_d.summary.overall_slowdown.p999
        );
    }

    #[test]
    fn short_requests_suffer_dispersion_blocking() {
        // Extreme Bimodal at high load: short requests' p99.9 slowdown is
        // enormous under c-FCFS (the paper's core motivation).
        let out = run(0.9, 11);
        let short = &out.summary.per_type[0];
        assert!(
            short.slowdown.p999 > 50.0,
            "short p999 slowdown = {}",
            short.slowdown.p999
        );
    }

    #[test]
    fn mm_c_sanity_against_erlang_c() {
        // M/M/8 at ρ = 0.7 with exponential 10 µs service: mean wait from
        // Erlang C ≈ P_wait/(c·µ−λ). Check the simulated mean sojourn.
        use crate::workload::TypeMix;
        use persephone_core::dist::Dist;
        let wl = Workload::new(
            "mm8",
            vec![TypeMix::new(
                "X",
                1.0,
                Dist::Exponential(Nanos::from_micros(10)),
            )],
        );
        let dur = Nanos::from_millis(400);
        let gen = ArrivalGen::uniform(&wl, 8, 0.7, dur, 13);
        let mut p = CFcfs::new(8);
        let out = simulate(&mut p, gen, 1, dur, &SimConfig::new(8));
        // Erlang C for c=8, rho=0.7: P_wait ≈ 0.2709; W_q = P_wait /
        // (c·µ·(1−ρ)) = 0.2709 / (8·0.1·0.3) µs ≈ 1.129 µs; sojourn ≈ 11.13 µs.
        let mean_ns = out.summary.per_type[0].latency_ns.mean;
        assert!(
            (mean_ns - 11_130.0).abs() < 450.0,
            "mean sojourn = {mean_ns} ns, expected ≈ 11130"
        );
    }

    #[test]
    fn bounded_queue_sheds_overload() {
        let wl = Workload::high_bimodal();
        let dur = Nanos::from_millis(20);
        let gen = ArrivalGen::uniform(&wl, 2, 3.0, dur, 19);
        let mut p = CFcfs::new(2).with_capacity(4);
        let out = simulate(&mut p, gen, 2, dur, &SimConfig::new(2));
        assert!(out.summary.dropped > 0, "3× offered load must drop");
        assert!(out.completions > 0);
        assert_eq!(p.backlog(), 0, "simulate drains the queue");
    }
}
