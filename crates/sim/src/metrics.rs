//! Latency, slowdown, and utilization metrics (paper §5.1).
//!
//! Two performance views, matching the paper:
//!
//! * **slowdown** — time spent at the server divided by pure service time,
//!   taken across all requests (the p99.9 drives every figure's first
//!   column);
//! * **typed tail latency** — a percentile over only one type's response
//!   times.
//!
//! Completions whose *arrival* falls inside the warm-up window are
//! discarded ("we discard the first 10 % of samples", §5.1).
//!
//! Samples land in the shared [`LogHist`] sketch (O(1) memory per type,
//! ≈0.8 % relative quantile error at the default precision) instead of
//! unbounded per-request vectors; slowdowns are stored in fixed-point
//! millionths-free "millis" (×1000) so they fit the integer histogram.

use persephone_core::time::Nanos;
use persephone_core::types::TypeId;
use persephone_telemetry::hist::{LogHist, DEFAULT_PRECISION_BITS};

/// Fixed-point scale for slowdowns stored in a [`LogHist`].
const SLOWDOWN_SCALE: f64 = 1_000.0;

/// Per-type histogram pair.
#[derive(Clone, Debug)]
struct TypeRec {
    sojourn_ns: LogHist,
    /// Slowdown ×1000, clamped to ≥ 1 (a slowdown can never be < 1.0,
    /// but integer division could round to 0 for degenerate inputs).
    slowdown_millis: LogHist,
}

impl Default for TypeRec {
    fn default() -> Self {
        TypeRec {
            sojourn_ns: LogHist::new(DEFAULT_PRECISION_BITS),
            slowdown_millis: LogHist::new(DEFAULT_PRECISION_BITS),
        }
    }
}

/// Collects per-request completions during a simulation run.
#[derive(Clone, Debug)]
pub struct Recorder {
    types: Vec<TypeRec>,
    unknown: TypeRec,
    warmup_end: Nanos,
    dropped: u64,
    ignored_warmup: u64,
}

impl Recorder {
    /// Creates a recorder for `num_types` types; completions of requests
    /// that arrived before `warmup_end` are ignored.
    pub fn new(num_types: usize, warmup_end: Nanos) -> Self {
        Recorder {
            types: vec![TypeRec::default(); num_types],
            unknown: TypeRec::default(),
            warmup_end,
            dropped: 0,
            ignored_warmup: 0,
        }
    }

    /// Records a completed request.
    pub fn complete(&mut self, ty: TypeId, arrival: Nanos, sojourn: Nanos, service: Nanos) {
        if arrival < self.warmup_end {
            self.ignored_warmup += 1;
            return;
        }
        let rec = if ty.is_unknown() || ty.index() >= self.types.len() {
            &mut self.unknown
        } else {
            &mut self.types[ty.index()]
        };
        let soj = sojourn.as_nanos();
        let svc = service.as_nanos().max(1);
        rec.sojourn_ns.record(soj);
        let millis = (soj as u128 * SLOWDOWN_SCALE as u128 / svc as u128).min(u64::MAX as u128);
        rec.slowdown_millis.record((millis as u64).max(1));
    }

    /// Records a dropped (flow-controlled) request.
    pub fn drop_request(&mut self) {
        self.dropped += 1;
    }

    /// Number of recorded completions (excluding warm-up and drops).
    pub fn count(&self) -> usize {
        self.types
            .iter()
            .map(|t| t.sojourn_ns.count() as usize)
            .sum::<usize>()
            + self.unknown.sojourn_ns.count() as usize
    }

    /// Requests dropped by flow control.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Completions discarded because they arrived during warm-up.
    pub fn ignored_warmup(&self) -> u64 {
        self.ignored_warmup
    }

    /// Summarizes the run. `extra_latency` (e.g. the 10 µs network RTT) is
    /// added to reported *latencies*; slowdowns stay server-side, per the
    /// paper's definition.
    ///
    /// Adding the RTT *after* the quantile query (a percentile commutes
    /// with a constant shift) keeps the offset exact rather than smearing
    /// it through bucket boundaries.
    pub fn summarize(&self, extra_latency: Nanos) -> RunSummary {
        let mut per_type = Vec::with_capacity(self.types.len());
        let mut all_slowdowns = LogHist::new(DEFAULT_PRECISION_BITS);
        for rec in self.types.iter().chain(core::iter::once(&self.unknown)) {
            all_slowdowns.merge(&rec.slowdown_millis);
            per_type.push(TypeSummary {
                latency_ns: Percentiles::of_hist_shifted(&rec.sojourn_ns, extra_latency.as_nanos()),
                slowdown: Percentiles::of_hist_scaled(&rec.slowdown_millis, SLOWDOWN_SCALE),
            });
        }
        let unknown = per_type.pop().expect("unknown summary present");
        let overall_slowdown = Percentiles::of_hist_scaled(&all_slowdowns, SLOWDOWN_SCALE);
        RunSummary {
            per_type,
            unknown,
            overall_slowdown,
            completions: self.count() as u64,
            dropped: self.dropped,
        }
    }
}

/// Standard percentile set reported by the paper's figures.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// 99.9th percentile — the paper's headline metric.
    pub p999: f64,
    /// Maximum observed.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample count.
    pub count: usize,
}

impl Percentiles {
    /// Exact percentiles of integer samples (sorted in place).
    pub fn of_u64(samples: &mut [u64]) -> Percentiles {
        if samples.is_empty() {
            return Percentiles::default();
        }
        samples.sort_unstable();
        let q = |p: f64| samples[Self::rank(samples.len(), p)] as f64;
        Percentiles {
            p50: q(0.50),
            p99: q(0.99),
            p999: q(0.999),
            max: samples[samples.len() - 1] as f64,
            mean: samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64,
            count: samples.len(),
        }
    }

    /// Exact percentiles of float samples (sorted in place).
    pub fn of_f64(samples: &mut [f64]) -> Percentiles {
        if samples.is_empty() {
            return Percentiles::default();
        }
        samples.sort_unstable_by(f64::total_cmp);
        let q = |p: f64| samples[Self::rank(samples.len(), p)];
        Percentiles {
            p50: q(0.50),
            p99: q(0.99),
            p999: q(0.999),
            max: samples[samples.len() - 1],
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            count: samples.len(),
        }
    }

    /// Nearest-rank index for percentile `p` over `n` samples.
    fn rank(n: usize, p: f64) -> usize {
        (((n as f64) * p).ceil() as usize).clamp(1, n) - 1
    }

    /// Percentiles of a histogram with `offset` added to every reported
    /// value (exact shift; bucket error applies only to the quantiles).
    fn of_hist_shifted(h: &LogHist, offset: u64) -> Percentiles {
        if h.count() == 0 {
            return Percentiles::default();
        }
        let q = |p: f64| (h.quantile(p) + offset) as f64;
        Percentiles {
            p50: q(0.50),
            p99: q(0.99),
            p999: q(0.999),
            max: (h.max() + offset) as f64,
            mean: h.mean() + offset as f64,
            count: h.count() as usize,
        }
    }

    /// Percentiles of a fixed-point histogram, divided back by `scale`.
    fn of_hist_scaled(h: &LogHist, scale: f64) -> Percentiles {
        if h.count() == 0 {
            return Percentiles::default();
        }
        let q = |p: f64| h.quantile(p) as f64 / scale;
        Percentiles {
            p50: q(0.50),
            p99: q(0.99),
            p999: q(0.999),
            max: h.max() as f64 / scale,
            mean: h.mean() / scale,
            count: h.count() as usize,
        }
    }
}

/// Summary of one request type's completions.
#[derive(Clone, Debug, Default)]
pub struct TypeSummary {
    /// Latency percentiles, nanoseconds (includes `extra_latency`).
    pub latency_ns: Percentiles,
    /// Slowdown percentiles (server-side, dimensionless).
    pub slowdown: Percentiles,
}

/// Full summary of a simulation run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Per-type summaries, indexed by type.
    pub per_type: Vec<TypeSummary>,
    /// Summary of UNKNOWN-typed completions.
    pub unknown: TypeSummary,
    /// Slowdown distribution across *all* completions.
    pub overall_slowdown: Percentiles,
    /// Completions recorded (post warm-up).
    pub completions: u64,
    /// Requests dropped by flow control.
    pub dropped: u64,
}

/// Time-bucketed per-type percentile series (paper Figure 7's top row).
#[derive(Clone, Debug)]
pub struct Timeline {
    bucket: Nanos,
    num_types: usize,
    /// `buckets[b][ty]` = latency samples (ns).
    buckets: Vec<Vec<Vec<u64>>>,
}

impl Timeline {
    /// Creates a timeline with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(bucket: Nanos, num_types: usize) -> Self {
        assert!(bucket > Nanos::ZERO);
        Timeline {
            bucket,
            num_types,
            buckets: Vec::new(),
        }
    }

    /// Records a completion at `sent` time (the paper plots against the
    /// *sending* time).
    pub fn record(&mut self, ty: TypeId, sent: Nanos, latency: Nanos) {
        if ty.is_unknown() || ty.index() >= self.num_types {
            return;
        }
        let b = (sent.as_nanos() / self.bucket.as_nanos()) as usize;
        while self.buckets.len() <= b {
            self.buckets.push(vec![Vec::new(); self.num_types]);
        }
        self.buckets[b][ty.index()].push(latency.as_nanos());
    }

    /// Emits `(bucket_start, per-type Percentiles)` rows.
    pub fn series(&self) -> Vec<(Nanos, Vec<Percentiles>)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, per_ty)| {
                let start = self.bucket * i as u64;
                let ps = per_ty
                    .iter()
                    .map(|samples| {
                        let mut copy = samples.clone();
                        Percentiles::of_u64(&mut copy)
                    })
                    .collect();
                (start, ps)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(us: u64) -> Nanos {
        Nanos::from_micros(us)
    }

    #[test]
    fn percentile_ranks_are_exact() {
        let mut v: Vec<u64> = (1..=1000).collect();
        let p = Percentiles::of_u64(&mut v);
        assert_eq!(p.p50, 500.0);
        assert_eq!(p.p99, 990.0);
        assert_eq!(p.p999, 999.0);
        assert_eq!(p.max, 1000.0);
        assert_eq!(p.count, 1000);
        assert!((p.mean - 500.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_of_single_sample() {
        let mut v = vec![42u64];
        let p = Percentiles::of_u64(&mut v);
        assert_eq!(p.p50, 42.0);
        assert_eq!(p.p999, 42.0);
    }

    #[test]
    fn empty_percentiles_are_zero() {
        let p = Percentiles::of_u64(&mut []);
        assert_eq!(p.count, 0);
        assert_eq!(p.p999, 0.0);
    }

    #[test]
    fn a_nan_sample_sorts_last_and_does_not_panic() {
        let mut v = vec![3.0, f64::NAN, 1.0, 2.0];
        let p = Percentiles::of_f64(&mut v);
        assert_eq!((p.p50, p.count), (2.0, 4));
        assert!(p.max.is_nan());
    }

    #[test]
    fn recorder_separates_types_and_warmup() {
        let mut r = Recorder::new(2, n(100));
        // Arrived during warm-up: ignored.
        r.complete(TypeId::new(0), n(50), n(10), n(1));
        // Counted.
        r.complete(TypeId::new(0), n(150), n(2), n(1));
        r.complete(TypeId::new(1), n(150), n(200), n(100));
        assert_eq!(r.count(), 2);
        assert_eq!(r.ignored_warmup(), 1);
        let s = r.summarize(Nanos::ZERO);
        assert_eq!(s.per_type[0].latency_ns.p50, 2_000.0);
        assert_eq!(s.per_type[0].slowdown.p50, 2.0);
        assert_eq!(s.per_type[1].slowdown.p50, 2.0);
        assert_eq!(s.overall_slowdown.count, 2);
    }

    #[test]
    fn extra_latency_shifts_latency_not_slowdown() {
        let mut r = Recorder::new(1, Nanos::ZERO);
        r.complete(TypeId::new(0), n(1), n(5), n(1));
        let without = r.summarize(Nanos::ZERO);
        let with = r.summarize(n(10));
        // The RTT shift is exact (applied after the quantile query) even
        // though the quantile itself is bucket-approximate.
        assert_eq!(
            with.per_type[0].latency_ns.p50,
            without.per_type[0].latency_ns.p50 + 10_000.0
        );
        let rel = (with.per_type[0].latency_ns.p50 - 15_000.0).abs() / 15_000.0;
        assert!(rel < 0.01, "p50 = {}", with.per_type[0].latency_ns.p50);
        // Slowdowns ignore the RTT entirely.
        assert_eq!(
            with.per_type[0].slowdown.p50,
            without.per_type[0].slowdown.p50
        );
        let rel = (with.per_type[0].slowdown.p50 - 5.0).abs() / 5.0;
        assert!(rel < 0.01, "slowdown = {}", with.per_type[0].slowdown.p50);
    }

    #[test]
    fn unknown_routes_to_unknown_summary() {
        let mut r = Recorder::new(1, Nanos::ZERO);
        r.complete(TypeId::UNKNOWN, n(1), n(4), n(2));
        r.complete(TypeId::new(9), n(1), n(4), n(2));
        let s = r.summarize(Nanos::ZERO);
        assert_eq!(s.unknown.slowdown.count, 2);
        assert_eq!(s.per_type[0].slowdown.count, 0);
        // Unknown still contributes to the overall slowdown.
        assert_eq!(s.overall_slowdown.count, 2);
    }

    #[test]
    fn zero_service_never_divides_by_zero() {
        let mut r = Recorder::new(1, Nanos::ZERO);
        r.complete(TypeId::new(0), n(1), n(4), Nanos::ZERO);
        let s = r.summarize(Nanos::ZERO);
        assert!(s.per_type[0].slowdown.p50.is_finite());
    }

    #[test]
    fn drops_are_counted() {
        let mut r = Recorder::new(1, Nanos::ZERO);
        r.drop_request();
        r.drop_request();
        assert_eq!(r.summarize(Nanos::ZERO).dropped, 2);
    }

    #[test]
    fn timeline_buckets_by_send_time() {
        let mut t = Timeline::new(n(100), 2);
        t.record(TypeId::new(0), n(10), n(5));
        t.record(TypeId::new(0), n(110), n(7));
        t.record(TypeId::new(1), n(110), n(9));
        t.record(TypeId::UNKNOWN, n(110), n(9)); // Ignored.
        let s = t.series();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].0, Nanos::ZERO);
        assert_eq!(s[0].1[0].count, 1);
        assert_eq!(s[1].1[0].p50, 7_000.0);
        assert_eq!(s[1].1[1].p50, 9_000.0);
    }
}
