//! DARC under simulation — driving the *real* `persephone_core` engine.
//!
//! Like the other live-policy modules, this one contains no scheduling
//! logic of its own: it is the shared `EngineAdapter` over a
//! [`DarcEngine`], plus a classifier hook and the reservation log. The
//! simulator therefore exercises the exact code a Perséphone deployment
//! runs: typed queues, c-FCFS warm-up, profiling windows, reservation
//! updates, cycle stealing, spillway routing, and flow control.

use persephone_core::dispatch::{live_engine_config, DarcEngine, EngineConfig, ScheduleEngine};
use persephone_core::policy::Policy;
use persephone_core::rng::Rng;
use persephone_core::time::Nanos;
use persephone_core::types::TypeId;

use super::EngineAdapter;
use crate::engine::{Core, Event, ReqId, SimPolicy};
use crate::workload::Workload;

/// How arrivals are classified before entering the typed queues.
pub enum ClassifyMode {
    /// Perfect classification: the request's true type.
    Exact,
    /// The broken classifier of paper §5.6 (Figure 9): a uniformly random
    /// type, which makes DARC converge to c-FCFS.
    Random(Rng),
}

/// The DARC simulation policy.
pub struct DarcSim {
    inner: EngineAdapter<DarcEngine<ReqId>>,
    classify: ClassifyMode,
    num_types: usize,
    last_updates: u64,
    /// `(time, per-type reserved-core counts)` recorded at every
    /// reservation change — the bottom row of the paper's Figure 7.
    reservation_log: Vec<(Nanos, Vec<usize>)>,
    label: String,
    /// Construction parameters, kept so `with_capacity` can rebuild.
    boot: Option<(EngineConfig, Vec<Option<Nanos>>)>,
}

impl DarcSim {
    /// Full dynamic DARC: boots in c-FCFS, profiles `min_samples`
    /// completions, then reserves and keeps adapting (the paper's default
    /// configuration).
    pub fn dynamic(workload: &Workload, workers: usize, min_samples: u64) -> Self {
        let mut cfg = EngineConfig::darc(workers);
        cfg.profiler.min_samples = min_samples;
        let n = workload.num_types();
        DarcSim::from_config(cfg, vec![None; n], ClassifyMode::Exact, "DARC".into())
    }

    /// Rebuilds this policy with bounded typed queues (`0` = unbounded) —
    /// the paper's §4.3.3 flow control. Call right after a constructor,
    /// before the first event.
    ///
    /// # Panics
    ///
    /// Panics on policies built via [`DarcSim::with_engine`], whose
    /// construction parameters are not retained.
    pub fn with_capacity(self, capacity: usize) -> Self {
        let (mut cfg, hints) = self
            .boot
            .expect("with_capacity requires a config-built DarcSim");
        cfg.queue_capacity = capacity;
        DarcSim::from_config(cfg, hints, self.classify, self.label)
    }

    /// Dynamic DARC seeded with the workload's declared mean service
    /// times: skips the warm-up and reserves immediately (uniform ratios
    /// until the first window commits).
    pub fn hinted(workload: &Workload, workers: usize) -> Self {
        let cfg = EngineConfig::darc(workers);
        DarcSim::from_config(
            cfg,
            workload.hints(),
            ClassifyMode::Exact,
            "DARC-hinted".into(),
        )
    }

    /// "DARC-static" (paper §5.3): `reserved_short` cores are manually
    /// dedicated to the shortest type, which may additionally run
    /// anywhere; all other types share the remaining cores.
    pub fn fixed(workload: &Workload, workers: usize, reserved_short: usize) -> Self {
        let n = workload.num_types();
        // The shortest type is ranked by the workload's declared means;
        // the engine itself still boots unhinted.
        let cfg = live_engine_config(
            &Policy::DarcStatic { reserved_short },
            EngineConfig::darc(workers),
            n,
            &workload.hints(),
        );
        DarcSim::from_config(
            cfg,
            vec![None; n],
            ClassifyMode::Exact,
            format!("DARC-static-{reserved_short}"),
        )
    }

    /// Dynamic DARC with the broken random classifier of Figure 9.
    pub fn random_classifier(
        workload: &Workload,
        workers: usize,
        min_samples: u64,
        seed: u64,
    ) -> Self {
        let mut s = DarcSim::dynamic(workload, workers, min_samples);
        s.classify = ClassifyMode::Random(Rng::new(seed));
        s.label = "DARC-random".into();
        s
    }

    /// Builds a policy from explicit engine parameters (retained for
    /// [`DarcSim::with_capacity`] rebuilds).
    pub fn from_config(
        cfg: EngineConfig,
        hints: Vec<Option<Nanos>>,
        classify: ClassifyMode,
        label: String,
    ) -> Self {
        let n = hints.len();
        let engine = DarcEngine::new(cfg.clone(), n, &hints);
        let mut s = DarcSim::with_engine(engine, classify, n, label);
        s.boot = Some((cfg, hints));
        s
    }

    /// Wraps an arbitrary pre-configured engine (tests, custom setups).
    pub fn with_engine(
        engine: DarcEngine<ReqId>,
        classify: ClassifyMode,
        num_types: usize,
        label: String,
    ) -> Self {
        let last_updates = engine.updates();
        let mut s = DarcSim {
            inner: EngineAdapter::new(engine),
            classify,
            num_types,
            last_updates,
            reservation_log: Vec::new(),
            label,
            boot: None,
        };
        s.log_reservation(Nanos::ZERO);
        s
    }

    /// Attaches a shared telemetry recorder to the underlying engine, so
    /// the simulation populates the same histograms, counters, and event
    /// ring a live runtime would. Attach *after* [`DarcSim::with_capacity`]
    /// (rebuilds discard the engine, and its telemetry with it).
    pub fn attach_telemetry(&mut self, telemetry: std::sync::Arc<persephone_telemetry::Telemetry>) {
        self.inner.engine_mut().set_telemetry(telemetry);
    }

    /// Read access to the underlying engine (reservations, drops, waste).
    pub fn engine(&self) -> &DarcEngine<ReqId> {
        self.inner.engine()
    }

    /// The reservation-change log: `(time, reserved cores per type)`.
    pub fn reservation_log(&self) -> &[(Nanos, Vec<usize>)] {
        &self.reservation_log
    }

    fn log_reservation(&mut self, now: Nanos) {
        let counts: Vec<usize> = (0..self.num_types)
            .map(|i| self.engine().guaranteed_workers(TypeId::new(i as u32)))
            .collect();
        self.reservation_log.push((now, counts));
    }
}

impl SimPolicy for DarcSim {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn handle(&mut self, ev: Event, core: &mut Core) {
        let (classify, num_types) = (&mut self.classify, self.num_types);
        self.inner
            .handle_classified(ev, core, |core, id| match classify {
                ClassifyMode::Exact => core.req(id).ty,
                ClassifyMode::Random(rng) => TypeId::new(rng.next_below(num_types as u64) as u32),
            });
        // Only a completion can install a reservation, and the dispatches
        // that follow it within the event cannot install another.
        if self.engine().updates() != self.last_updates {
            self.last_updates = self.engine().updates();
            self.log_reservation(core.now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate, SimConfig, SimOutput};
    use crate::workload::ArrivalGen;

    fn run(
        policy: &mut dyn SimPolicy,
        wl: &Workload,
        workers: usize,
        load: f64,
        ms: u64,
        seed: u64,
    ) -> SimOutput {
        let dur = Nanos::from_millis(ms);
        let gen = ArrivalGen::uniform(wl, workers, load, dur, seed);
        simulate(policy, gen, wl.num_types(), dur, &SimConfig::new(workers))
    }

    #[test]
    fn darc_protects_short_requests_at_high_load() {
        let wl = Workload::extreme_bimodal();
        let mut darc = DarcSim::dynamic(&wl, 8, 5_000);
        let out = run(&mut darc, &wl, 8, 0.85, 100, 4);
        let mut cf = super::super::cfcfs::CFcfs::new(8);
        let out_cf = run(&mut cf, &wl, 8, 0.85, 100, 4);
        let darc_short = out.summary.per_type[0].slowdown.p999;
        let cf_short = out_cf.summary.per_type[0].slowdown.p999;
        assert!(
            darc_short < cf_short / 3.0,
            "DARC short p999 {darc_short} must be ≪ c-FCFS {cf_short}"
        );
    }

    #[test]
    fn warmup_then_reservation_is_logged() {
        let wl = Workload::extreme_bimodal();
        let mut darc = DarcSim::dynamic(&wl, 8, 5_000);
        let _ = run(&mut darc, &wl, 8, 0.6, 50, 5);
        let log = darc.reservation_log();
        // Boot entry plus at least the warm-up-exit reservation.
        assert!(log.len() >= 2, "log = {log:?}");
        let final_counts = &log.last().unwrap().1;
        // Extreme Bimodal on 8 workers: short demand ≈ 0.166×8 ≈ 1.33 ⇒ 1
        // reserved core (±1 for occurrence-ratio sampling noise: only ~25
        // long completions land in each profiling window).
        assert!(
            (1..=2).contains(&final_counts[0]),
            "short reserved cores = {}",
            final_counts[0]
        );
        assert!(
            final_counts[1] >= 5,
            "long reserved cores = {}",
            final_counts[1]
        );
    }

    #[test]
    fn static_reservations_follow_the_requested_count() {
        let wl = Workload::high_bimodal();
        let mut darc = DarcSim::fixed(&wl, 8, 3);
        let _ = run(&mut darc, &wl, 8, 0.5, 30, 6);
        assert_eq!(darc.engine().guaranteed_workers(TypeId::new(0)), 3);
        assert_eq!(darc.engine().guaranteed_workers(TypeId::new(1)), 5);
        assert_eq!(darc.engine().updates(), 1, "static mode never re-reserves");
    }

    #[test]
    fn random_classifier_behaves_like_cfcfs() {
        // Figure 9: with a broken classifier every typed queue holds an
        // even mix, so DARC-random ≈ c-FCFS (same order of magnitude).
        let wl = Workload::high_bimodal();
        let mut rnd = DarcSim::random_classifier(&wl, 8, 2_000, 99);
        let out_rnd = run(&mut rnd, &wl, 8, 0.8, 200, 7);
        let mut cf = super::super::cfcfs::CFcfs::new(8);
        let out_cf = run(&mut cf, &wl, 8, 0.8, 200, 7);
        let r = out_rnd.summary.overall_slowdown.p999;
        let c = out_cf.summary.overall_slowdown.p999;
        assert!(
            r / c < 4.0 && c / r < 4.0,
            "DARC-random p999 {r} should track c-FCFS {c}"
        );
        // And a *correct* classifier does much better than both.
        let mut darc = DarcSim::dynamic(&wl, 8, 2_000);
        let out_darc = run(&mut darc, &wl, 8, 0.8, 200, 7);
        assert!(out_darc.summary.overall_slowdown.p999 < r / 2.0);
    }

    #[test]
    fn hinted_darc_reserves_at_boot() {
        let wl = Workload::high_bimodal();
        let darc = DarcSim::hinted(&wl, 14);
        assert_eq!(darc.engine().guaranteed_workers(TypeId::new(0)), 1);
        assert!(!darc.engine().in_warmup());
    }

    #[test]
    fn flow_control_drops_are_visible_in_summary() {
        let wl = Workload::extreme_bimodal();
        let mut cfg = EngineConfig::darc(2);
        cfg.queue_capacity = 4;
        cfg.profiler.min_samples = 1_000;
        let eng = DarcEngine::new(cfg, 2, &[None; 2]);
        let mut darc = DarcSim::with_engine(eng, ClassifyMode::Exact, 2, "DARC-bounded".into());
        // Offered 3× capacity: the bounded queues must shed load.
        let out = run(&mut darc, &wl, 2, 3.0, 20, 8);
        assert!(out.summary.dropped > 0, "overload must drop");
        assert!(out.completions > 0);
    }
}
