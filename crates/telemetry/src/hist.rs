//! Log-bucketed latency histograms (HDR-style percentile sketches).
//!
//! Values are bucketed by `(exponent, mantissa-slot)`: each power of two
//! is split into `2^precision_bits` linear slots — the same scheme
//! HdrHistogram uses. With the default 7 bits of precision the relative
//! quantile error is below `2^-7 ≈ 0.8 %` (≈2 significant digits) and a
//! histogram occupies a fixed 64 KiB, regardless of how many samples it
//! absorbs.
//!
//! Two recorders share the bucketing:
//!
//! * [`LogHist`] — single-owner (`&mut self`), exact mean and max; the
//!   simulator's per-type recorder.
//! * [`AtomicHist`] — one writer, any readers (`&self`);
//!   [`AtomicHist::record`] is a plain load and store of one bucket; the
//!   runtime's hot-path instrument. Mean and max are reconstructed from
//!   the buckets, within bucket precision.
//!
//! Both produce a [`HistSnapshot`]: a frozen, mergeable copy answering
//! percentile queries.

use crate::counters::bump;
use crate::sync::{AtomicU64, Ordering};

/// Default sub-bucket precision: `2^-7 ≈ 0.8 %` relative error.
pub const DEFAULT_PRECISION_BITS: u32 = 7;

/// Number of buckets a histogram with `precision_bits` carries.
fn num_buckets(precision_bits: u32) -> usize {
    64 * (1usize << precision_bits)
}

/// Bucket index for `value` (saturating at the last bucket).
#[inline]
fn index(precision_bits: u32, value: u64) -> usize {
    let slots = 1u64 << precision_bits;
    if value < slots {
        // Small values are exact.
        return value as usize;
    }
    let exp = 63 - value.leading_zeros() as u64;
    let slot = (value >> (exp - precision_bits as u64)) - slots;
    let i =
        (exp as usize - precision_bits as usize) * slots as usize + slots as usize + slot as usize;
    i.min(num_buckets(precision_bits) - 1)
}

/// Lower bound of the bucket at `index` (its representative value).
fn bucket_low(precision_bits: u32, index: usize) -> u64 {
    let slots = 1usize << precision_bits;
    if index < slots {
        return index as u64;
    }
    let group = (index - slots) / slots;
    let slot = (index - slots) % slots;
    let exp = group as u32 + precision_bits;
    (1u64 << exp) + ((slot as u64) << (exp - precision_bits))
}

/// Width of the bucket at `index` (1 for the exact small-value range).
fn bucket_width(precision_bits: u32, index: usize) -> u64 {
    let slots = 1usize << precision_bits;
    if index < slots {
        return 1;
    }
    let exp = ((index - slots) / slots) as u32 + precision_bits;
    1u64 << (exp - precision_bits)
}

fn assert_precision(precision_bits: u32) {
    assert!(
        (1..=10).contains(&precision_bits),
        "precision_bits must be in 1..=10, got {precision_bits}"
    );
}

/// A single-owner histogram over `u64` values (nanoseconds, typically),
/// with exact count, mean, and max alongside the bucketed percentiles.
#[derive(Clone, Debug)]
pub struct LogHist {
    counts: Vec<u64>,
    precision_bits: u32,
    total: u64,
    max: u64,
    sum: u128,
}

impl LogHist {
    /// Creates a histogram with `precision_bits` of sub-bucket precision:
    /// the relative quantile error is at most `2^-precision_bits`
    /// (e.g. 5 bits ⇒ ≈3 %, 7 bits ⇒ ≈0.8 %).
    ///
    /// # Panics
    ///
    /// Panics if `precision_bits` is not in `1..=10`.
    pub fn new(precision_bits: u32) -> Self {
        assert_precision(precision_bits);
        LogHist {
            counts: vec![0; num_buckets(precision_bits)],
            precision_bits,
            total: 0,
            max: 0,
            sum: 0,
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        let i = index(self.precision_bits, value);
        self.counts[i] += 1;
        self.total += 1;
        self.max = self.max.max(value);
        self.sum += value as u128;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (exact).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate `p`-quantile (0–1), within the configured relative
    /// error; 0 when empty. `quantile(1.0)` is the exact max.
    pub fn quantile(&self, p: f64) -> u64 {
        quantile_of(&self.counts, self.precision_bits, self.total, self.max, p)
    }

    /// Merges another histogram with the same precision into this one.
    ///
    /// # Panics
    ///
    /// Panics on precision mismatch.
    pub fn merge(&mut self, other: &LogHist) {
        assert_eq!(self.precision_bits, other.precision_bits);
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Freezes the current contents into a mergeable snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: self.counts.clone(),
            precision_bits: self.precision_bits,
            total: self.total,
            max: self.max,
            sum: self.sum,
        }
    }
}

/// A lock-free histogram with one writer and any number of readers:
/// [`AtomicHist::record`] is a plain load and store of the target bucket
/// — no `lock`-prefixed RMW, no allocation, no other shared writes — so
/// it can sit on a nanosecond-scale hot path while another thread
/// snapshots it. Two threads must not record into the same histogram:
/// their increments could be lost.
#[derive(Debug)]
pub struct AtomicHist {
    counts: Box<[AtomicU64]>,
    precision_bits: u32,
}

impl AtomicHist {
    /// Creates a histogram with `precision_bits` of sub-bucket precision.
    ///
    /// # Panics
    ///
    /// Panics if `precision_bits` is not in `1..=10`.
    pub fn new(precision_bits: u32) -> Self {
        assert_precision(precision_bits);
        let counts: Box<[AtomicU64]> = (0..num_buckets(precision_bits))
            .map(|_| AtomicU64::new(0))
            .collect();
        AtomicHist {
            counts,
            precision_bits,
        }
    }

    /// Records one value: a single-writer increment of one bucket.
    #[inline]
    pub fn record(&self, value: u64) {
        bump(&self.counts[index(self.precision_bits, value)], 1);
    }

    /// Number of recorded values (sum over buckets; monotone but not a
    /// single linearization point under concurrent recording).
    pub fn count(&self) -> u64 {
        // audit:ordering: statistics read — approximate under concurrent
        // recording by documented contract
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Freezes the current contents into a mergeable snapshot. Mean and
    /// max are reconstructed from bucket representatives, so they carry
    /// the same relative error bound as the percentiles.
    ///
    /// Report-assembly lane (recorders call [`AtomicHist::record`], never
    /// this) — cold keeps the bucket-Vec build off the audited hot path.
    #[cold]
    pub fn snapshot(&self) -> HistSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            // audit:ordering: statistics reads — a snapshot taken during
            // recording is approximate by documented contract
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let mut total = 0u64;
        let mut sum = 0u128;
        let mut max = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            total += c;
            let low = bucket_low(self.precision_bits, i);
            // Mid-bucket representative halves the worst-case mean bias.
            let rep = low + bucket_width(self.precision_bits, i) / 2;
            sum += c as u128 * rep as u128;
            max = low + bucket_width(self.precision_bits, i).saturating_sub(1);
        }
        HistSnapshot {
            counts,
            precision_bits: self.precision_bits,
            total,
            max,
            sum,
        }
    }
}

/// A frozen histogram: bucket counts plus summary stats, mergeable across
/// workers/shards and queryable for percentiles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    precision_bits: u32,
    total: u64,
    max: u64,
    sum: u128,
}

impl HistSnapshot {
    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Largest recorded value (exact from [`LogHist`], bucket-precision
    /// from [`AtomicHist`]); 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate `p`-quantile (0–1), within `2^-precision_bits`
    /// relative error; 0 when empty. `quantile(1.0)` equals
    /// [`HistSnapshot::max`].
    pub fn quantile(&self, p: f64) -> u64 {
        quantile_of(&self.counts, self.precision_bits, self.total, self.max, p)
    }

    /// Merges `other` into this snapshot. Merging is associative and
    /// commutative: any merge order over a set of snapshots produces the
    /// same result.
    ///
    /// # Panics
    ///
    /// Panics when both snapshots are non-empty with different precision.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.total == 0 && other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            *self = other.clone();
            return;
        }
        assert_eq!(
            self.precision_bits, other.precision_bits,
            "merging snapshots of different precision"
        );
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }
}

fn quantile_of(counts: &[u64], precision_bits: u32, total: u64, max: u64, p: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64 * p).ceil() as u64).clamp(1, total);
    if rank == total {
        // The top-rank query asks for the distribution max. Answering
        // with the final occupied bucket's *lower* bound understated it
        // by up to `bucket_width - 1` (an off-by-one invisible in the
        // zero-width exact range, wrong everywhere else); the tracked
        // max is that bucket's inclusive upper bound — exact for
        // `LogHist`, bucket-precision for `AtomicHist`.
        return max;
    }
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_low(precision_bits, i).min(max);
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny splitmix64 so the tests need no RNG dependency.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    #[test]
    fn top_quantile_is_the_bucket_upper_bound_not_lower() {
        // Regression: with 7 bits, 1003 lands in bucket [1000, 1004).
        // quantile(1.0) used to answer the bucket's lower bound (1000),
        // understating the max by bucket_width - 1.
        let mut h = LogHist::new(7);
        h.record(1003);
        assert_eq!(h.max(), 1003);
        assert_eq!(h.quantile(1.0), 1003, "top quantile must equal max");

        // Same shape through the atomic recorder: max is reconstructed
        // as the bucket's inclusive upper bound and p=1.0 must match it.
        let a = AtomicHist::new(7);
        a.record(1003);
        let s = a.snapshot();
        assert_eq!(s.max(), 1003);
        assert_eq!(s.quantile(1.0), 1003);

        // Boundary: the exact small-value range has width-1 buckets, so
        // upper bound == lower bound there (the case that masked the
        // bug); zero must stay zero.
        let mut z = LogHist::new(7);
        z.record(0);
        assert_eq!(z.quantile(1.0), 0);
        let mut small = LogHist::new(7);
        for v in 0..32 {
            small.record(v);
        }
        assert_eq!(small.quantile(1.0), 31);

        // Sub-max ranks still answer bucket lower bounds.
        let mut two = LogHist::new(7);
        two.record(1000);
        two.record(1003);
        assert_eq!(two.quantile(0.5), 1000);
        assert_eq!(two.quantile(1.0), 1003);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHist::new(5);
        for v in 0..32 {
            h.record(v);
        }
        // Nearest-rank p50 of 0..=31 is the 16th sample: value 15.
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.count(), 32);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn quantiles_track_exact_within_relative_error() {
        let mut h = LogHist::new(5);
        let mut rng = Mix(7);
        let mut exact: Vec<u64> = Vec::new();
        for _ in 0..200_000 {
            // A heavy-tailed mix, like the workloads.
            let v = if rng.below(100) == 0 {
                500_000 + rng.below(100_000)
            } else {
                500 + rng.below(1_000)
            };
            h.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for p in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((exact.len() as f64 * p).ceil() as usize).clamp(1, exact.len()) - 1;
            let truth = exact[rank] as f64;
            let approx = h.quantile(p) as f64;
            let rel = (approx - truth).abs() / truth;
            assert!(rel < 0.04, "p{p}: approx {approx} vs exact {truth} ({rel})");
        }
    }

    #[test]
    fn mean_and_max_are_exact() {
        let mut h = LogHist::new(4);
        for v in [1u64, 10, 100, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.max(), 1_000_000);
        assert!((h.mean() - 250_027.75).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LogHist::new(5);
        assert_eq!(h.quantile(0.999), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn merge_combines_distributions() {
        let mut a = LogHist::new(5);
        let mut b = LogHist::new(5);
        for v in 0..1000 {
            a.record(v);
            b.record(v + 10_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 2000);
        assert!(a.quantile(0.25) < 1_000);
        assert!(a.quantile(0.75) >= 10_000);
        assert_eq!(a.max(), 10_999);
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn merge_rejects_precision_mismatch() {
        let mut a = LogHist::new(5);
        let b = LogHist::new(6);
        a.merge(&b);
    }

    #[test]
    fn huge_values_saturate_without_panicking() {
        let mut h = LogHist::new(5);
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(0.5) > 1u64 << 62);
    }

    #[test]
    fn atomic_hist_agrees_with_loghist_quantiles() {
        let a = AtomicHist::new(7);
        let mut h = LogHist::new(7);
        let mut rng = Mix(11);
        for _ in 0..50_000 {
            let v = 100 + rng.below(1_000_000);
            a.record(v);
            h.record(v);
        }
        let sa = a.snapshot();
        let sh = h.snapshot();
        assert_eq!(sa.count(), sh.count());
        for p in [0.5, 0.9, 0.99, 0.999] {
            assert_eq!(sa.quantile(p), sh.quantile(p), "p{p} diverged");
        }
        // Reconstructed mean/max stay within one bucket width (≈0.8 %).
        let rel_mean = (sa.mean() - sh.mean()).abs() / sh.mean();
        assert!(rel_mean < 0.01, "mean rel err {rel_mean}");
        let rel_max = (sa.max() as f64 - sh.max() as f64).abs() / sh.max() as f64;
        assert!(rel_max < 0.01, "max rel err {rel_max}");
    }

    #[test]
    fn snapshot_merge_is_associative_and_commutative() {
        let mk = |seed: u64, n: u64| {
            let mut h = LogHist::new(7);
            let mut rng = Mix(seed);
            for _ in 0..n {
                h.record(1 + rng.below(1 << 20));
            }
            h.snapshot()
        };
        let (a, b, c) = (mk(1, 1000), mk(2, 2000), mk(3, 500));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        // c ⊕ b ⊕ a (commutativity)
        let mut rev = c.clone();
        rev.merge(&b);
        rev.merge(&a);
        assert_eq!(left, rev);
        // Identity: merging an empty snapshot changes nothing.
        let mut with_empty = left.clone();
        with_empty.merge(&HistSnapshot::default());
        assert_eq!(left, with_empty);
        let mut from_empty = HistSnapshot::default();
        from_empty.merge(&left);
        assert_eq!(left, from_empty);
    }

    /// The recording contract: one writer, any readers. A reader that
    /// snapshots while the writer records never sees a bucket (or the
    /// total) go backwards, and the count is exact once the writer is
    /// joined.
    #[test]
    fn single_writer_is_monotone_to_a_concurrent_reader() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        const N: u64 = 200_000;
        let h = Arc::new(AtomicHist::new(7));
        let done = Arc::new(AtomicBool::new(false));
        let writer = {
            let (h, done) = (h.clone(), done.clone());
            std::thread::spawn(move || {
                let mut rng = Mix(3);
                for _ in 0..N {
                    h.record(1 + rng.below(1 << 20));
                }
                done.store(true, std::sync::atomic::Ordering::Release);
            })
        };
        let mut prev = h.snapshot();
        let mut reads = 0u32;
        while !done.load(std::sync::atomic::Ordering::Acquire) || reads == 0 {
            let s = h.snapshot();
            assert!(s.count() >= prev.count(), "total went backwards");
            for (i, (now, before)) in s.counts.iter().zip(&prev.counts).enumerate() {
                assert!(
                    now >= before,
                    "bucket {i} went backwards: {before} -> {now}"
                );
            }
            prev = s;
            reads += 1;
        }
        writer.join().unwrap();
        assert_eq!(h.count(), N);
        assert_eq!(h.snapshot().count(), N);
    }
}
