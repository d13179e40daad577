//! Workload definitions and the open-loop Poisson arrival generator.
//!
//! The named constructors reproduce the paper's evaluation workloads:
//!
//! * [`Workload::high_bimodal`] — Table 3, 100× dispersion.
//! * [`Workload::extreme_bimodal`] — Table 3, 1000× dispersion.
//! * [`Workload::tpcc`] — Table 4, the five TPC-C transaction profiles.
//! * [`Workload::rocksdb`] — §5.4.4, 50 % GET (1.5 µs) / 50 % SCAN (635 µs).
//!
//! Arrivals follow an open-loop Poisson process, "modeling the behavior of
//! bursty production traffic" (paper §5.1).

use persephone_core::time::Nanos;
use persephone_core::types::TypeId;

use persephone_core::dist::Dist;
use persephone_core::rng::Rng;

/// One request type inside a workload mix.
#[derive(Clone, Debug, PartialEq)]
pub struct TypeMix {
    /// Display name ("SHORT", "Payment", ...).
    pub name: String,
    /// Fraction of the traffic this type represents, in `(0, 1]`.
    pub ratio: f64,
    /// Service-time distribution.
    pub service: Dist,
}

impl TypeMix {
    /// Creates a mix entry.
    pub fn new(name: impl Into<String>, ratio: f64, service: Dist) -> Self {
        TypeMix {
            name: name.into(),
            ratio,
            service,
        }
    }
}

/// A static workload: a set of typed request type mixes.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Display name used in figures.
    pub name: String,
    /// The request-type mixes; ratios must sum to ≈1.
    pub types: Vec<TypeMix>,
}

impl Workload {
    /// Creates a workload, validating that ratios sum to 1 (±1 %).
    ///
    /// # Panics
    ///
    /// Panics if `types` is empty or the ratios do not sum to ≈1.
    pub fn new(name: impl Into<String>, types: Vec<TypeMix>) -> Self {
        assert!(!types.is_empty(), "workload needs at least one type");
        let total: f64 = types.iter().map(|t| t.ratio).sum();
        assert!(
            (total - 1.0).abs() < 0.01,
            "type ratios must sum to 1, got {total}"
        );
        Workload {
            name: name.into(),
            types,
        }
    }

    /// Table 3 *High Bimodal*: 50 % × 1 µs, 50 % × 100 µs (100× dispersion).
    pub fn high_bimodal() -> Workload {
        Workload::new(
            "HighBimodal",
            vec![
                TypeMix::new("SHORT", 0.5, Dist::const_micros(1.0)),
                TypeMix::new("LONG", 0.5, Dist::const_micros(100.0)),
            ],
        )
    }

    /// Table 3 *Extreme Bimodal*: 99.5 % × 0.5 µs, 0.5 % × 500 µs
    /// (1000× dispersion).
    pub fn extreme_bimodal() -> Workload {
        Workload::new(
            "ExtremeBimodal",
            vec![
                TypeMix::new("SHORT", 0.995, Dist::const_micros(0.5)),
                TypeMix::new("LONG", 0.005, Dist::const_micros(500.0)),
            ],
        )
    }

    /// Table 4 *TPC-C*: the five transaction profiles run as a synthetic
    /// workload (Payment 5.7 µs/44 %, OrderStatus 6 µs/4 %, NewOrder
    /// 20 µs/44 %, Delivery 88 µs/4 %, StockLevel 100 µs/4 %).
    pub fn tpcc() -> Workload {
        Workload::new(
            "TPC-C",
            vec![
                TypeMix::new("Payment", 0.44, Dist::const_micros(5.7)),
                TypeMix::new("OrderStatus", 0.04, Dist::const_micros(6.0)),
                TypeMix::new("NewOrder", 0.44, Dist::const_micros(20.0)),
                TypeMix::new("Delivery", 0.04, Dist::const_micros(88.0)),
                TypeMix::new("StockLevel", 0.04, Dist::const_micros(100.0)),
            ],
        )
    }

    /// §5.4.4 *RocksDB*: 50 % GET × 1.5 µs, 50 % SCAN × 635 µs
    /// (420× dispersion).
    pub fn rocksdb() -> Workload {
        Workload::new(
            "RocksDB",
            vec![
                TypeMix::new("GET", 0.5, Dist::const_micros(1.5)),
                TypeMix::new("SCAN", 0.5, Dist::const_micros(635.0)),
            ],
        )
    }

    /// Number of request types.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// Mean service time across the mix: `Σ S_i·R_i`.
    pub fn mean_service(&self) -> Nanos {
        let ns: f64 = self
            .types
            .iter()
            .map(|t| t.service.mean().as_nanos() as f64 * t.ratio)
            .sum();
        Nanos::from_nanos(ns.round() as u64)
    }

    /// The theoretical peak throughput of `workers` cores, requests/sec.
    pub fn peak_rate(&self, workers: usize) -> f64 {
        workers as f64 / self.mean_service().as_secs_f64()
    }

    /// Dispersion between the slowest and fastest type means.
    pub fn dispersion(&self) -> f64 {
        let means: Vec<f64> = self
            .types
            .iter()
            .map(|t| t.service.mean().as_nanos() as f64)
            .collect();
        let max = means.iter().cloned().fold(f64::MIN, f64::max);
        let min = means.iter().cloned().fold(f64::MAX, f64::min);
        if min <= 0.0 {
            0.0
        } else {
            max / min
        }
    }

    /// Per-type mean-service hints for seeding a DARC engine.
    pub fn hints(&self) -> Vec<Option<Nanos>> {
        self.types.iter().map(|t| Some(t.service.mean())).collect()
    }

    /// Per-type occurrence ratios.
    pub fn ratios(&self) -> Vec<f64> {
        self.types.iter().map(|t| t.ratio).collect()
    }
}

/// A phase of a time-varying workload (paper §5.5, Figure 7).
#[derive(Clone, Debug)]
pub struct Phase {
    /// How long this phase lasts.
    pub duration: Nanos,
    /// The mix during the phase. All phases must declare the same number
    /// of types (types may have ratio changes, including dropping to 0).
    pub workload: Workload,
    /// Offered load as a fraction of this phase's peak rate.
    pub load: f64,
}

/// A scripted multi-phase workload.
#[derive(Clone, Debug)]
pub struct PhasedWorkload {
    /// The phases, played in order.
    pub phases: Vec<Phase>,
}

impl PhasedWorkload {
    /// Creates a phased workload.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or phases disagree on the type count.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty());
        let n = phases[0].workload.num_types();
        assert!(
            phases.iter().all(|p| p.workload.num_types() == n),
            "all phases must declare the same types"
        );
        PhasedWorkload { phases }
    }

    /// The paper's §5.5 scenario: two types A and B over four 5-second
    /// phases at 80 % utilization —
    /// (1) A slow (500 µs) / B fast (0.5 µs) at 50/50;
    /// (2) service times swap (misclassification stress);
    /// (3) ratios shift to 99.5 % A / 0.5 % B;
    /// (4) only A requests remain.
    pub fn paper_fig7() -> PhasedWorkload {
        let p = |a_us: f64, a_ratio: f64, b_us: f64, b_ratio: f64| Workload {
            name: "AB".into(),
            types: vec![
                TypeMix::new("A", a_ratio, Dist::const_micros(a_us)),
                TypeMix::new("B", b_ratio, Dist::const_micros(b_us)),
            ],
        };
        let five = Nanos::from_secs(5);
        PhasedWorkload::new(vec![
            Phase {
                duration: five,
                workload: p(500.0, 0.5, 0.5, 0.5),
                load: 0.8,
            },
            Phase {
                duration: five,
                workload: p(0.5, 0.5, 500.0, 0.5),
                load: 0.8,
            },
            Phase {
                duration: five,
                workload: p(0.5, 0.995, 500.0, 0.005),
                load: 0.8,
            },
            Phase {
                duration: five,
                workload: p(0.5, 1.0, 500.0, 0.0),
                load: 0.8,
            },
        ])
    }

    /// Total scripted duration.
    pub fn total_duration(&self) -> Nanos {
        self.phases.iter().map(|p| p.duration).sum()
    }

    /// Number of request types (identical across phases).
    pub fn num_types(&self) -> usize {
        self.phases[0].workload.num_types()
    }
}

/// A two-state Markov-modulated burst model layered over the Poisson
/// process: the generator alternates between a *calm* and a *burst*
/// state with exponentially distributed dwell times; in the burst state
/// the arrival rate is multiplied by `amplification`. The long-run mean
/// rate is kept equal to the configured rate by slowing the calm state
/// accordingly, so load sweeps remain comparable.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurstModel {
    /// Mean dwell time in the calm state.
    pub calm_mean: Nanos,
    /// Mean dwell time in the burst state.
    pub burst_mean: Nanos,
    /// Rate multiplier while bursting (> 1).
    pub amplification: f64,
}

impl BurstModel {
    /// The calm-state rate multiplier that keeps the long-run mean rate
    /// at 1× given the dwell-time fractions.
    fn calm_multiplier(&self) -> f64 {
        let c = self.calm_mean.as_nanos() as f64;
        let b = self.burst_mean.as_nanos() as f64;
        let frac_burst = b / (b + c);
        let m = (1.0 - self.amplification * frac_burst) / (1.0 - frac_burst);
        m.max(0.01)
    }
}

/// Everything [`ArrivalGen::next`] reads from one phase, built once at
/// construction so that drawing an arrival touches no allocator.
#[derive(Clone, Debug)]
struct PhasePlan {
    /// Absolute end time of the phase.
    end: Nanos,
    /// Mean interarrival gap (ns) at the phase's offered load.
    mean_gap_ns: f64,
    /// Per-type ratios: the weights of the type draw (may hold zeros).
    ratios: Vec<f64>,
    /// Per-type service-time distributions.
    services: Vec<Dist>,
}

/// An open-loop Poisson arrival sampler over a (possibly phased) workload.
#[derive(Clone, Debug)]
pub struct ArrivalGen {
    plans: Vec<PhasePlan>,
    current: usize,
    rng_arrival: Rng,
    rng_type: Rng,
    rng_service: Rng,
    next_at: Nanos,
    workers: usize,
    /// Optional MMPP burst modulation.
    burst: Option<BurstModel>,
    bursting: bool,
    state_until: Nanos,
}

/// One generated arrival.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// Absolute arrival time.
    pub at: Nanos,
    /// True request type.
    pub ty: TypeId,
    /// Sampled service demand.
    pub service: Nanos,
}

impl ArrivalGen {
    /// Creates a generator for a single-phase workload at `load` × peak.
    pub fn uniform(
        workload: &Workload,
        workers: usize,
        load: f64,
        duration: Nanos,
        seed: u64,
    ) -> Self {
        ArrivalGen::phased(
            &PhasedWorkload::new(vec![Phase {
                duration,
                workload: workload.clone(),
                load,
            }]),
            workers,
            seed,
        )
    }

    /// Creates a generator for a phased workload.
    ///
    /// # Panics
    ///
    /// Panics if any phase's load is not positive.
    pub fn phased(pw: &PhasedWorkload, workers: usize, seed: u64) -> Self {
        let mut root = Rng::new(seed);
        let mut end = Nanos::ZERO;
        let plans = pw
            .phases
            .iter()
            .map(|p| {
                assert!(p.load > 0.0, "phase load must be positive");
                end += p.duration;
                let rate = p.workload.peak_rate(workers) * p.load; // req/s
                PhasePlan {
                    end,
                    mean_gap_ns: 1e9 / rate,
                    ratios: p.workload.ratios(),
                    services: p.workload.types.iter().map(|t| t.service).collect(),
                }
            })
            .collect();
        let mut gen = ArrivalGen {
            plans,
            current: 0,
            rng_arrival: root.fork(),
            rng_type: root.fork(),
            rng_service: root.fork(),
            next_at: Nanos::ZERO,
            workers,
            burst: None,
            bursting: false,
            state_until: Nanos::ZERO,
        };
        // First arrival after one sampled gap from t = 0.
        let gap = gen.rng_arrival.next_exp(gen.plans[0].mean_gap_ns);
        gen.next_at = Nanos::from_nanos(gap as u64);
        gen
    }

    /// Number of workers the load was scaled to.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enables MMPP burst modulation (paper §5.1: the client "models the
    /// behavior of bursty production traffic"; DARC's stealing exists to
    /// absorb such bursts, §3).
    ///
    /// # Panics
    ///
    /// Panics if the model is infeasible (amplification ≤ 1, or so large
    /// that the calm state would need a negative rate).
    pub fn with_bursts(mut self, model: BurstModel) -> Self {
        assert!(model.amplification > 1.0, "amplification must exceed 1");
        let b = model.burst_mean.as_nanos() as f64;
        let c = model.calm_mean.as_nanos() as f64;
        assert!(b > 0.0 && c > 0.0, "dwell times must be positive");
        assert!(
            model.amplification * b / (b + c) < 1.0,
            "burst state would exceed the total rate budget"
        );
        self.burst = Some(model);
        self.bursting = false;
        self.state_until = Nanos::ZERO;
        self
    }

    /// Current rate multiplier under the burst model (1.0 when disabled).
    fn rate_multiplier(&mut self, now: Nanos) -> f64 {
        let Some(model) = self.burst else { return 1.0 };
        while now >= self.state_until {
            self.bursting = !self.bursting;
            let dwell = if self.bursting {
                model.burst_mean
            } else {
                model.calm_mean
            };
            let d = self.rng_arrival.next_exp(dwell.as_nanos() as f64);
            self.state_until = self
                .state_until
                .saturating_add(Nanos::from_nanos(d.max(1.0) as u64));
        }
        if self.bursting {
            model.amplification
        } else {
            model.calm_multiplier()
        }
    }

    /// Draws the next arrival, or `None` once the script has ended.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Arrival> {
        // Advance phases until the pending arrival time falls inside one.
        while self.next_at >= self.plans[self.current].end {
            if self.current + 1 >= self.plans.len() {
                return None;
            }
            self.current += 1;
        }
        let plan = &self.plans[self.current];
        let at = self.next_at;
        // Sample a type with positive ratio (ratios may be 0 in a phase).
        let ti = self.rng_type.pick_weighted(&plan.ratios);
        let service = plan.services[ti].sample(&mut self.rng_service);
        let mean_gap_ns = plan.mean_gap_ns;
        // Schedule the next arrival (burst modulation scales the rate).
        let mult = self.rate_multiplier(at);
        let gap = self.rng_arrival.next_exp(mean_gap_ns / mult);
        self.next_at = at.saturating_add(Nanos::from_nanos(gap.max(1.0) as u64));
        Some(Arrival {
            at,
            ty: TypeId::new(ti as u32),
            service,
        })
    }
}

/// `ArrivalGen` is a genuine iterator: the scenario engine materializes
/// traces with `collect()`, and [`crate::engine::simulate`] accepts any
/// arrival source.
impl Iterator for ArrivalGen {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        ArrivalGen::next(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_workloads_match_paper() {
        let hb = Workload::high_bimodal();
        assert_eq!(hb.mean_service(), Nanos::from_nanos(50_500));
        assert_eq!(hb.dispersion(), 100.0);

        let eb = Workload::extreme_bimodal();
        assert_eq!(eb.mean_service(), Nanos::from_nanos(2_998)); // 0.4975+2.5 µs rounded
        assert_eq!(eb.dispersion(), 1000.0);
    }

    #[test]
    fn table4_tpcc_matches_paper() {
        let t = Workload::tpcc();
        assert_eq!(t.num_types(), 5);
        // Mean: 5.7·.44 + 6·.04 + 20·.44 + 88·.04 + 100·.04 = 19.068 µs.
        assert_eq!(t.mean_service(), Nanos::from_nanos(19_068));
        assert!((t.dispersion() - 100.0 / 5.7).abs() < 1e-9);
        assert!((t.ratios().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rocksdb_dispersion_is_420x() {
        let r = Workload::rocksdb();
        assert!((r.dispersion() - 635.0 / 1.5).abs() < 1e-9);
        assert_eq!(r.mean_service(), Nanos::from_nanos(318_250));
    }

    #[test]
    fn peak_rate_matches_hand_math() {
        // Extreme Bimodal on 16 workers ⇒ ~5.34 Mrps (paper §2: 5.3 Mrps).
        let eb = Workload::extreme_bimodal();
        let peak = eb.peak_rate(16);
        assert!((peak / 1e6 - 5.34).abs() < 0.01, "peak = {peak}");
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn bad_ratios_rejected() {
        Workload::new("bad", vec![TypeMix::new("x", 0.4, Dist::const_micros(1.0))]);
    }

    #[test]
    fn arrivals_are_poisson_at_requested_rate() {
        let wl = Workload::extreme_bimodal();
        let mut gen = ArrivalGen::uniform(&wl, 16, 0.5, Nanos::from_millis(200), 7);
        let mut n = 0u64;
        let mut last = Nanos::ZERO;
        let mut shorts = 0u64;
        while let Some(a) = gen.next() {
            assert!(a.at >= last, "arrivals must be time-ordered");
            last = a.at;
            n += 1;
            if a.ty == TypeId::new(0) {
                shorts += 1;
            }
        }
        // Expected: 0.5 × 5.34 Mrps × 0.2 s ≈ 534k arrivals (±2 %).
        let expect = 0.5 * wl.peak_rate(16) * 0.2;
        assert!(
            (n as f64 - expect).abs() / expect < 0.02,
            "n = {n}, expect = {expect}"
        );
        let short_ratio = shorts as f64 / n as f64;
        assert!((short_ratio - 0.995).abs() < 0.002);
    }

    #[test]
    fn phased_generator_switches_mixes() {
        let pw = PhasedWorkload::paper_fig7();
        assert_eq!(pw.total_duration(), Nanos::from_secs(20));
        assert_eq!(pw.num_types(), 2);
        let mut gen = ArrivalGen::phased(&pw, 14, 11);
        let mut before = (0u64, 0u64); // (A, B) in phase 4 window
        let mut phase4_b = 0u64;
        let mut phase4_total = 0u64;
        while let Some(a) = gen.next() {
            if a.at >= Nanos::from_secs(15) {
                phase4_total += 1;
                if a.ty == TypeId::new(1) {
                    phase4_b += 1;
                }
            } else if a.at < Nanos::from_secs(5) {
                if a.ty == TypeId::new(0) {
                    before.0 += 1;
                } else {
                    before.1 += 1;
                }
            }
        }
        assert_eq!(phase4_b, 0, "phase 4 is A-only");
        assert!(phase4_total > 0);
        // Phase 1 is 50/50.
        let ratio = before.0 as f64 / (before.0 + before.1) as f64;
        assert!((ratio - 0.5).abs() < 0.01, "phase-1 A ratio = {ratio}");
    }

    #[test]
    fn fig7_phase_service_times_follow_the_script() {
        let pw = PhasedWorkload::paper_fig7();
        // Phase 1: A slow, B fast; phase 2 swaps.
        let p1 = &pw.phases[0].workload;
        assert_eq!(p1.types[0].service.mean(), Nanos::from_nanos(500_000));
        assert_eq!(p1.types[1].service.mean(), Nanos::from_nanos(500));
        let p2 = &pw.phases[1].workload;
        assert_eq!(p2.types[0].service.mean(), Nanos::from_nanos(500));
        assert_eq!(p2.types[1].service.mean(), Nanos::from_nanos(500_000));
        // Phase 3 matches Extreme Bimodal ratios (A is the 99.5 % type).
        assert_eq!(pw.phases[2].workload.types[0].ratio, 0.995);
    }

    #[test]
    fn bursty_arrivals_keep_the_mean_rate() {
        let wl = Workload::extreme_bimodal();
        let model = BurstModel {
            calm_mean: Nanos::from_millis(5),
            burst_mean: Nanos::from_millis(1),
            amplification: 3.0,
        };
        let count = |burst: Option<BurstModel>| {
            let mut gen = ArrivalGen::uniform(&wl, 8, 0.5, Nanos::from_millis(400), 7);
            if let Some(m) = burst {
                gen = gen.with_bursts(m);
            }
            let mut n = 0u64;
            while gen.next().is_some() {
                n += 1;
            }
            n as f64
        };
        let plain = count(None);
        let bursty = count(Some(model));
        assert!(
            (bursty / plain - 1.0).abs() < 0.05,
            "burst modulation must preserve the mean rate: {bursty} vs {plain}"
        );
    }

    #[test]
    fn bursts_increase_short_horizon_variance() {
        // Count arrivals in 1 ms windows: the MMPP's window-count variance
        // must exceed plain Poisson's (index of dispersion > 1).
        let wl = Workload::extreme_bimodal();
        let dur = Nanos::from_millis(400);
        let windows = |bursty: bool| -> f64 {
            let mut gen = ArrivalGen::uniform(&wl, 8, 0.5, dur, 11);
            if bursty {
                gen = gen.with_bursts(BurstModel {
                    calm_mean: Nanos::from_millis(5),
                    burst_mean: Nanos::from_millis(1),
                    amplification: 3.0,
                });
            }
            let mut counts = vec![0f64; 400];
            while let Some(a) = gen.next() {
                let w = (a.at.as_nanos() / 1_000_000) as usize;
                if w < counts.len() {
                    counts[w] += 1.0;
                }
            }
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64 / mean
        };
        let plain_iod = windows(false);
        let bursty_iod = windows(true);
        assert!(plain_iod < 2.0, "Poisson IoD ≈ 1, got {plain_iod}");
        assert!(
            bursty_iod > plain_iod * 2.0,
            "bursty IoD {bursty_iod} must dominate Poisson {plain_iod}"
        );
    }

    #[test]
    #[should_panic(expected = "amplification must exceed 1")]
    fn burst_model_validates_amplification() {
        let wl = Workload::high_bimodal();
        let _ =
            ArrivalGen::uniform(&wl, 2, 0.5, Nanos::from_millis(10), 1).with_bursts(BurstModel {
                calm_mean: Nanos::from_millis(1),
                burst_mean: Nanos::from_millis(1),
                amplification: 1.0,
            });
    }

    #[test]
    fn hints_expose_type_means() {
        let hints = Workload::high_bimodal().hints();
        assert_eq!(hints[0], Some(Nanos::from_micros(1)));
        assert_eq!(hints[1], Some(Nanos::from_micros(100)));
    }
}
