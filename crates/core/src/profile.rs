//! Workload profiling: windowed service-time and occurrence tracking.
//!
//! The DARC dispatcher maintains *profiling windows* (paper §3, §4.3.3).
//! Within a window it accumulates, per request type, a running mean of
//! observed service times and an occurrence count. Three signals gate a
//! reservation update:
//!
//! 1. the window holds at least `min_samples` completions (paper: 50 000),
//! 2. the new CPU-demand vector (Eq. 1) deviates from the demand captured
//!    at the last reservation by more than `demand_deviation` (paper: 10 %),
//! 3. some request experienced queueing delay beyond `slowdown_slo` times
//!    its type's profiled service time (paper: 10×).
//!
//! During the very first window the system runs c-FCFS and merely gathers
//! samples ("the system starts using c-FCFS, gathers samples, then
//! transitions to DARC").

use crate::time::Nanos;
use crate::types::TypeId;

/// Tuning knobs for the profiler; defaults follow the paper's §4.3.3.
#[derive(Clone, Debug)]
pub struct ProfilerConfig {
    /// Minimum completions in a window before a reservation update may fire.
    pub min_samples: u64,
    /// Minimum per-type deviation of the demand vector (absolute, in
    /// fraction-of-total-CPU units) before an update fires.
    pub demand_deviation: f64,
    /// Queueing-delay trigger: a dispatch delay above `slowdown_slo × mean
    /// service time` of the request's type raises the delay signal.
    pub slowdown_slo: f64,
    /// Weight of the newest window when blending service-time estimates:
    /// `est ← w·window_mean + (1-w)·est`. `1.0` keeps only the last window.
    pub ewma_weight: f64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            min_samples: 50_000,
            demand_deviation: 0.10,
            slowdown_slo: 10.0,
            ewma_weight: 0.5,
        }
    }
}

/// One type's profiled statistics, the `(S_i, R_i)` of the paper's Eq. 1.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TypeStat {
    /// The request type.
    pub ty: TypeId,
    /// Estimated mean service time, nanoseconds.
    pub mean_service_ns: f64,
    /// Occurrence ratio within the workload, in `[0, 1]`.
    pub ratio: f64,
}

impl TypeStat {
    /// The type's contribution `S_i · R_i` to total CPU demand, in ns.
    #[inline]
    pub fn weight(&self) -> f64 {
        self.mean_service_ns * self.ratio
    }
}

#[derive(Clone, Debug, Default)]
struct TypeWindow {
    /// Completions observed in the current window.
    count: u64,
    /// Arrivals observed in the current window (ratios are measured at
    /// arrival: a backed-up type completes less than it arrives, and
    /// completion-based ratios would under-state its demand).
    arrivals: u64,
    /// Sum of service times in the current window, nanoseconds.
    service_sum_ns: u64,
    /// Cross-window service-time estimate (ns); `None` until first data/hint.
    estimate_ns: Option<f64>,
    /// Occurrence ratio committed at the last window boundary.
    committed_ratio: f64,
}

/// Windowed workload profiler driving DARC reservations.
///
/// # Examples
///
/// ```
/// use persephone_core::profile::{Profiler, ProfilerConfig};
/// use persephone_core::time::Nanos;
/// use persephone_core::types::TypeId;
///
/// let cfg = ProfilerConfig { min_samples: 4, ..Default::default() };
/// let mut p = Profiler::new(cfg, 2, &[None, None]);
/// for _ in 0..3 {
///     p.record_completion(TypeId::new(0), Nanos::from_micros(1));
/// }
/// p.record_completion(TypeId::new(1), Nanos::from_micros(100));
/// assert!(p.window_full());
/// let stats = p.estimates();
/// assert_eq!(stats[0].ratio, 0.75);
/// assert_eq!(stats[1].mean_service_ns, 100_000.0);
/// ```
#[derive(Clone, Debug)]
pub struct Profiler {
    cfg: ProfilerConfig,
    types: Vec<TypeWindow>,
    window_samples: u64,
    window_arrivals: u64,
    delay_signal: bool,
    /// Demand vector captured when the current reservation was installed.
    snapshot_demand: Vec<f64>,
    windows_committed: u64,
}

impl Profiler {
    /// Creates a profiler for `num_types` types.
    ///
    /// `hints[i]`, when present, seeds type `i`'s service-time estimate so
    /// reservations can be computed before the first completions arrive.
    ///
    /// # Panics
    ///
    /// Panics if `hints.len() != num_types`.
    pub fn new(cfg: ProfilerConfig, num_types: usize, hints: &[Option<Nanos>]) -> Self {
        assert_eq!(hints.len(), num_types, "one hint slot per type required");
        // Until the first window commits, assume types occur uniformly so
        // that fully-hinted engines can compute a boot-time reservation.
        let uniform_ratio = if num_types > 0 {
            1.0 / num_types as f64
        } else {
            0.0
        };
        let types = hints
            .iter()
            .map(|h| TypeWindow {
                estimate_ns: h.map(|n| n.as_nanos() as f64),
                committed_ratio: uniform_ratio,
                ..Default::default()
            })
            .collect();
        Profiler {
            cfg,
            types,
            window_samples: 0,
            window_arrivals: 0,
            delay_signal: false,
            snapshot_demand: vec![0.0; num_types],
            windows_committed: 0,
        }
    }

    /// Number of request types being profiled.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// The profiler configuration.
    pub fn config(&self) -> &ProfilerConfig {
        &self.cfg
    }

    /// Records a completed request of type `ty` with measured `service`
    /// time. UNKNOWN completions are ignored (they are not profiled; the
    /// spillway serves them regardless).
    ///
    /// The paper reports this costs ≈75 cycles; it is two integer adds and
    /// a bounds check.
    #[inline]
    pub fn record_completion(&mut self, ty: TypeId, service: Nanos) {
        if ty.is_unknown() {
            return;
        }
        let Some(tw) = self.types.get_mut(ty.index()) else {
            return;
        };
        tw.count += 1;
        tw.service_sum_ns = tw.service_sum_ns.saturating_add(service.as_nanos());
        self.window_samples += 1;
    }

    /// Records the arrival of a request of type `ty` (called by the
    /// dispatcher at enqueue time). Arrival counts drive the occurrence
    /// ratios `R_i`; unlike completion counts they stay unbiased when a
    /// type's queue is backed up. UNKNOWN arrivals are ignored.
    #[inline]
    pub fn record_arrival(&mut self, ty: TypeId) {
        if ty.is_unknown() {
            return;
        }
        let Some(tw) = self.types.get_mut(ty.index()) else {
            return;
        };
        tw.arrivals += 1;
        self.window_arrivals += 1;
    }

    /// Records the queueing delay a request experienced before dispatch,
    /// raising the delay signal when it exceeds the slowdown SLO for the
    /// type. Requests of unprofiled types never raise the signal.
    #[inline]
    pub fn record_dispatch_delay(&mut self, ty: TypeId, delay: Nanos) {
        if self.delay_signal || ty.is_unknown() {
            return;
        }
        let Some(tw) = self.types.get(ty.index()) else {
            return;
        };
        // Division-free form of `delay > slo * (sum / count)`: cross-
        // multiply by `count` so the per-dispatch cost is two f64
        // multiplies instead of a divide (fdiv is the single most
        // expensive ALU op on this path, and this runs on every poll).
        let d = delay.as_nanos() as f64;
        let exceeded = if tw.count > 0 {
            d * tw.count as f64 > self.cfg.slowdown_slo * tw.service_sum_ns as f64
        } else if let Some(est) = tw.estimate_ns {
            d > self.cfg.slowdown_slo * est
        } else {
            false
        };
        if exceeded {
            self.delay_signal = true;
        }
    }

    /// Completions recorded in the current window.
    pub fn window_samples(&self) -> u64 {
        self.window_samples
    }

    /// Whether the current window has reached `min_samples`.
    pub fn window_full(&self) -> bool {
        self.window_samples >= self.cfg.min_samples
    }

    /// Whether the queueing-delay trigger fired in the current window.
    pub fn delay_signalled(&self) -> bool {
        self.delay_signal
    }

    /// Windows committed so far (0 while still in the warm-up window).
    pub fn windows_committed(&self) -> u64 {
        self.windows_committed
    }

    /// Best current service-time estimate for type `ty` in nanoseconds
    /// (window data preferred, falling back to the cross-window estimate /
    /// hint). Returns `None` for UNKNOWN, out-of-range, or never-observed
    /// unhinted types.
    ///
    /// Unlike [`Profiler::estimates`] this does not allocate, so overload
    /// control (deadline shedding, worker-health checks) can consult it on
    /// every dispatcher iteration.
    #[inline]
    pub fn estimate_ns(&self, ty: TypeId) -> Option<f64> {
        if ty.is_unknown() {
            return None;
        }
        let tw = self.types.get(ty.index())?;
        self.current_estimate(tw)
    }

    /// Best current estimate for a type (window data preferred, falling
    /// back to the cross-window estimate / hint).
    fn current_estimate(&self, tw: &TypeWindow) -> Option<f64> {
        if tw.count > 0 {
            Some(tw.service_sum_ns as f64 / tw.count as f64)
        } else {
            tw.estimate_ns
        }
    }

    /// Current per-type statistics (`S_i`, `R_i`), blending the live window
    /// with committed estimates.
    ///
    /// Occurrence ratios come from the live window's *arrivals* when any
    /// were recorded, falling back to live completions (profiler used
    /// stand-alone) and then to the last committed window. Types never
    /// observed (and without hints) report a zero mean and zero ratio; the
    /// reservation logic routes such types to the spillway.
    pub fn estimates(&self) -> Vec<TypeStat> {
        let by_arrivals = self.window_arrivals > 0;
        let total = if by_arrivals {
            self.window_arrivals
        } else {
            self.window_samples
        };
        self.types
            .iter()
            .enumerate()
            .map(|(i, tw)| {
                let observed = if by_arrivals { tw.arrivals } else { tw.count };
                let ratio = if total > 0 {
                    observed as f64 / total as f64
                } else {
                    tw.committed_ratio
                };
                TypeStat {
                    ty: TypeId::new(i as u32),
                    mean_service_ns: self.current_estimate(tw).unwrap_or(0.0),
                    ratio,
                }
            })
            .collect()
    }

    /// Live (uncommitted) `S_i·R_i` weight of type `i`, mirroring one
    /// element of [`Profiler::estimates`] without building the vector.
    fn live_weight_at(&self, i: usize) -> f64 {
        let Some(tw) = self.types.get(i) else {
            return 0.0;
        };
        let by_arrivals = self.window_arrivals > 0;
        let total = if by_arrivals {
            self.window_arrivals
        } else {
            self.window_samples
        };
        let observed = if by_arrivals { tw.arrivals } else { tw.count };
        let ratio = if total > 0 {
            observed as f64 / total as f64
        } else {
            tw.committed_ratio
        };
        self.current_estimate(tw).unwrap_or(0.0) * ratio
    }

    /// The CPU-demand vector of Eq. 1: `Δ_i = S_i·R_i / Σ_j S_j·R_j`.
    ///
    /// Returns all zeros when nothing has been profiled yet.
    pub fn demands(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.types.len());
        self.demands_into(&mut out);
        out
    }

    /// Writes the demand vector of Eq. 1 into `out`. Allocation-free once
    /// `out`'s capacity covers the type set — the hot-path variant of
    /// [`Profiler::demands`] for callers that keep a scratch vector.
    ///
    /// Folds each type's weight once: writes the weights, sums them, then
    /// divides in place.
    pub fn demands_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend((0..self.types.len()).map(|i| self.live_weight_at(i)));
        let total: f64 = out.iter().sum();
        if total <= 0.0 {
            out.fill(0.0);
            return;
        }
        for d in out.iter_mut() {
            *d /= total;
        }
    }

    /// Checks whether a reservation update should fire (paper §4.3.3):
    /// window full ∧ delay signal ∧ demand deviated beyond the threshold.
    ///
    /// This is the ≈300-cycle "check" of the paper: it recomputes the
    /// demand vector over the (small) type set and compares.
    pub fn update_ready(&self) -> bool {
        if !self.window_full() || !self.delay_signal {
            return false;
        }
        self.demand_deviated()
    }

    /// Whether the live demand vector deviates from the snapshot taken at
    /// the last reservation by more than the configured threshold.
    ///
    /// Runs on every completion once the window fills, so it folds the
    /// demand vector on the fly instead of materializing it.
    pub fn demand_deviated(&self) -> bool {
        let n = self.types.len();
        let total: f64 = (0..n).map(|i| self.live_weight_at(i)).sum();
        (0..n).any(|i| {
            let d = if total > 0.0 {
                self.live_weight_at(i) / total
            } else {
                0.0
            };
            let snap = self.snapshot_demand.get(i).copied().unwrap_or(0.0);
            (d - snap).abs() > self.cfg.demand_deviation
        })
    }

    /// [`Profiler::demand_deviated`] for a caller that already holds the
    /// live demand vector from [`Profiler::demands_into`], so the vector
    /// is folded once for every check that reads it.
    pub(crate) fn deviates(&self, demands: &[f64]) -> bool {
        demands.iter().enumerate().any(|(i, d)| {
            let snap = self.snapshot_demand.get(i).copied().unwrap_or(0.0);
            (d - snap).abs() > self.cfg.demand_deviation
        })
    }

    /// Commits the current window: folds window means into the cross-window
    /// estimates, snapshots the demand vector (the new reservation base),
    /// and opens a fresh window.
    ///
    /// Returns the committed per-type statistics, suitable for
    /// [`crate::reserve::reserve`].
    pub fn commit_window(&mut self) -> Vec<TypeStat> {
        let mut out = Vec::with_capacity(self.types.len());
        self.commit_window_into(&mut out);
        out
    }

    /// [`Profiler::commit_window`] for engines that discard the returned
    /// statistics: folds and re-snapshots without allocating at all.
    pub fn commit_window_quiet(&mut self) {
        self.fold_window();
        self.resnapshot_demand();
    }

    /// [`Profiler::commit_window`] writing the statistics into `out`.
    /// Allocation-free once `out`'s capacity covers the type set.
    pub fn commit_window_into(&mut self, out: &mut Vec<TypeStat>) {
        self.fold_window();
        self.resnapshot_demand();
        out.clear();
        out.extend(self.types.iter().enumerate().map(|(i, tw)| TypeStat {
            ty: TypeId::new(i as u32),
            mean_service_ns: tw.estimate_ns.unwrap_or(0.0),
            ratio: tw.committed_ratio,
        }));
    }

    /// Recomputes `snapshot_demand` in place. Called right after a fold,
    /// when the live view (zeroed counts, committed ratios/estimates) *is*
    /// the committed view, so this equals `demands_of(&stats)`.
    fn resnapshot_demand(&mut self) {
        let n = self.types.len();
        let total: f64 = (0..n).map(|i| self.live_weight_at(i)).sum();
        for i in 0..n {
            let d = if total > 0.0 {
                self.live_weight_at(i) / total
            } else {
                0.0
            };
            if let Some(s) = self.snapshot_demand.get_mut(i) {
                *s = d;
            }
        }
    }

    /// Folds window means into the cross-window estimates and opens a
    /// fresh window (the mutation half of a commit).
    fn fold_window(&mut self) {
        let by_arrivals = self.window_arrivals > 0;
        let total = if by_arrivals {
            self.window_arrivals
        } else {
            self.window_samples
        };
        let w = self.cfg.ewma_weight.clamp(0.0, 1.0);
        for tw in &mut self.types {
            if tw.count > 0 {
                let mean = tw.service_sum_ns as f64 / tw.count as f64;
                tw.estimate_ns = Some(match tw.estimate_ns {
                    Some(prev) => w * mean + (1.0 - w) * prev,
                    None => mean,
                });
            }
            let observed = if by_arrivals { tw.arrivals } else { tw.count };
            if total > 0 {
                // Ratios get the same EWMA smoothing as service means so a
                // single noisy window cannot flip a rounding boundary.
                let fresh = observed as f64 / total as f64;
                tw.committed_ratio = if self.windows_committed == 0 {
                    fresh
                } else {
                    w * fresh + (1.0 - w) * tw.committed_ratio
                };
            }
            tw.count = 0;
            tw.arrivals = 0;
            tw.service_sum_ns = 0;
        }
        self.window_samples = 0;
        self.window_arrivals = 0;
        self.delay_signal = false;
        self.windows_committed += 1;
    }
}

/// Computes the normalized demand vector of Eq. 1 from raw statistics.
///
/// The result sums to 1 (up to rounding) whenever any type has positive
/// weight, and is all zeros otherwise.
pub fn demands_of(stats: &[TypeStat]) -> Vec<f64> {
    let total: f64 = stats.iter().map(|s| s.weight()).sum();
    if total <= 0.0 {
        return vec![0.0; stats.len()];
    }
    stats.iter().map(|s| s.weight() / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(min: u64) -> ProfilerConfig {
        ProfilerConfig {
            min_samples: min,
            ..Default::default()
        }
    }

    #[test]
    fn records_means_and_ratios() {
        let mut p = Profiler::new(cfg(10), 2, &[None, None]);
        p.record_completion(TypeId::new(0), Nanos::from_nanos(500));
        p.record_completion(TypeId::new(0), Nanos::from_nanos(1_500));
        p.record_completion(TypeId::new(1), Nanos::from_micros(100));
        let s = p.estimates();
        assert_eq!(s[0].mean_service_ns, 1_000.0);
        assert!((s[0].ratio - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s[1].mean_service_ns, 100_000.0);
    }

    #[test]
    fn unknown_and_out_of_range_completions_are_ignored() {
        let mut p = Profiler::new(cfg(10), 1, &[None]);
        p.record_completion(TypeId::UNKNOWN, Nanos::from_micros(1));
        p.record_completion(TypeId::new(9), Nanos::from_micros(1));
        assert_eq!(p.window_samples(), 0);
    }

    #[test]
    fn demand_matches_eq1_extreme_bimodal() {
        // 99.5 % × 0.5 µs + 0.5 % × 500 µs: short demand ≈ 0.166.
        let stats = vec![
            TypeStat {
                ty: TypeId::new(0),
                mean_service_ns: 500.0,
                ratio: 0.995,
            },
            TypeStat {
                ty: TypeId::new(1),
                mean_service_ns: 500_000.0,
                ratio: 0.005,
            },
        ];
        let d = demands_of(&stats);
        assert!((d[0] - 0.16597).abs() < 1e-4, "short demand {d:?}");
        assert!((d[0] + d[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn demands_all_zero_without_data() {
        let p = Profiler::new(cfg(10), 3, &[None, None, None]);
        assert_eq!(p.demands(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn delay_signal_respects_slo() {
        let mut p = Profiler::new(cfg(10), 1, &[Some(Nanos::from_micros(1))]);
        p.record_dispatch_delay(TypeId::new(0), Nanos::from_micros(5));
        assert!(!p.delay_signalled(), "5x delay is under the 10x SLO");
        p.record_dispatch_delay(TypeId::new(0), Nanos::from_micros(11));
        assert!(p.delay_signalled());
    }

    #[test]
    fn delay_signal_needs_an_estimate() {
        let mut p = Profiler::new(cfg(10), 1, &[None]);
        p.record_dispatch_delay(TypeId::new(0), Nanos::from_secs(1));
        assert!(!p.delay_signalled(), "unprofiled types cannot trigger");
    }

    #[test]
    fn update_requires_all_three_triggers() {
        let mut p = Profiler::new(cfg(4), 2, &[None, None]);
        for _ in 0..4 {
            p.record_completion(TypeId::new(0), Nanos::from_micros(1));
        }
        assert!(p.window_full());
        // Demand deviates (snapshot is all zeros) but no delay signal yet.
        assert!(p.demand_deviated());
        assert!(!p.update_ready());
        p.record_dispatch_delay(TypeId::new(0), Nanos::from_micros(100));
        assert!(p.update_ready());
    }

    #[test]
    fn commit_resets_window_and_snapshots_demand() {
        let mut p = Profiler::new(cfg(2), 2, &[None, None]);
        p.record_completion(TypeId::new(0), Nanos::from_micros(1));
        p.record_completion(TypeId::new(1), Nanos::from_micros(100));
        let stats = p.commit_window();
        assert_eq!(p.window_samples(), 0);
        assert_eq!(p.windows_committed(), 1);
        assert_eq!(stats[0].ratio, 0.5);
        // Identical traffic in the next window ⇒ no deviation.
        p.record_completion(TypeId::new(0), Nanos::from_micros(1));
        p.record_completion(TypeId::new(1), Nanos::from_micros(100));
        assert!(!p.demand_deviated());
        // A service-time flip deviates strongly.
        let mut q = p.clone();
        for _ in 0..10 {
            q.record_completion(TypeId::new(0), Nanos::from_micros(100));
            q.record_completion(TypeId::new(1), Nanos::from_micros(1));
        }
        assert!(q.demand_deviated());
    }

    /// DARC's update check folds the demand vector once with
    /// `demands_into` and tests it with `deviates`. Over random profiler
    /// states both must match their references bit for bit:
    /// `demands_of(&estimates())` and `demand_deviated()`.
    #[test]
    fn folded_update_check_matches_references() {
        let mut rng = crate::rng::Rng::new(0x5eed);
        let mut folded = Vec::new();
        let (mut deviated, mut held) = (0u32, 0u32);
        for _ in 0..5_000 {
            let n = 1 + rng.next_below(6) as usize;
            let hints: Vec<Option<Nanos>> = (0..n)
                .map(|_| {
                    (rng.next_below(3) == 0).then(|| Nanos::from_nanos(rng.next_below(500_000)))
                })
                .collect();
            let c = ProfilerConfig {
                min_samples: 1,
                demand_deviation: rng.next_f64() * 0.3,
                ewma_weight: rng.next_f64(),
                ..Default::default()
            };
            let mut p = Profiler::new(c, n, &hints);
            for _ in 0..rng.next_below(4) {
                for _ in 0..rng.next_below(40) {
                    // One past the last type: out-of-range ids are ignored.
                    let ty = TypeId::new(rng.next_below(n as u64 + 1) as u32);
                    if rng.next_below(3) == 0 {
                        p.record_arrival(ty);
                    } else {
                        p.record_completion(ty, Nanos::from_nanos(rng.next_below(1_000_000)));
                    }
                }
                if rng.next_below(2) == 0 {
                    p.commit_window_quiet();
                }
            }
            p.demands_into(&mut folded);
            let reference = demands_of(&p.estimates());
            assert_eq!(
                folded.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                reference.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                "demands_into must equal Eq. 1 over estimates()"
            );
            let got = p.deviates(&folded);
            assert_eq!(got, p.demand_deviated());
            if got {
                deviated += 1;
            } else {
                held += 1;
            }
        }
        assert!(
            deviated > 500 && held > 500,
            "random states must exercise both outcomes: {deviated} deviated, {held} held"
        );
    }

    #[test]
    fn ewma_blends_windows() {
        let c = ProfilerConfig {
            min_samples: 1,
            ewma_weight: 0.5,
            ..Default::default()
        };
        let mut p = Profiler::new(c, 1, &[None]);
        p.record_completion(TypeId::new(0), Nanos::from_micros(10));
        p.commit_window();
        p.record_completion(TypeId::new(0), Nanos::from_micros(20));
        let stats = p.commit_window();
        assert_eq!(stats[0].mean_service_ns, 15_000.0);
    }

    #[test]
    fn unseen_type_keeps_committed_ratio_until_new_data() {
        let mut p = Profiler::new(cfg(1), 2, &[None, None]);
        p.record_completion(TypeId::new(0), Nanos::from_micros(1));
        p.record_completion(TypeId::new(1), Nanos::from_micros(1));
        p.commit_window();
        // New window: only type 0 appears; live ratio for type 1 drops to 0.
        p.record_completion(TypeId::new(0), Nanos::from_micros(1));
        let s = p.estimates();
        assert_eq!(s[0].ratio, 1.0);
        assert_eq!(s[1].ratio, 0.0);
    }

    #[test]
    fn estimate_ns_prefers_live_window_and_guards_bounds() {
        let mut p = Profiler::new(cfg(10), 2, &[Some(Nanos::from_micros(7)), None]);
        assert_eq!(p.estimate_ns(TypeId::new(0)), Some(7_000.0));
        assert_eq!(p.estimate_ns(TypeId::new(1)), None, "no hint, no data");
        assert_eq!(p.estimate_ns(TypeId::UNKNOWN), None);
        assert_eq!(p.estimate_ns(TypeId::new(9)), None);
        p.record_completion(TypeId::new(0), Nanos::from_micros(3));
        assert_eq!(p.estimate_ns(TypeId::new(0)), Some(3_000.0));
    }

    #[test]
    fn hints_seed_estimates() {
        let p = Profiler::new(cfg(10), 1, &[Some(Nanos::from_micros(7))]);
        assert_eq!(p.estimates()[0].mean_service_ns, 7_000.0);
    }

    #[test]
    #[should_panic(expected = "one hint slot per type")]
    fn hint_arity_checked() {
        let _ = Profiler::new(cfg(1), 2, &[None]);
    }
}
