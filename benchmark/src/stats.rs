//! Small numeric helpers: order statistics, FNV-1a, peak RSS.

/// Median of `v` (sorts in place). Panics on an empty slice: every caller
/// holds at least one repetition.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    v.sort_unstable_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Minimum, median and median absolute deviation over repetitions — the
/// noise floor printed beside each timed metric.
#[derive(Clone, Copy, Debug)]
pub struct Spread {
    pub min: f64,
    pub q1: f64,
    pub q3: f64,
    pub median: f64,
    pub mad: f64,
    pub reps: usize,
}

pub fn spread(samples: &[f64]) -> Spread {
    let mut v = samples.to_vec();
    let med = median(&mut v);
    let mut dev: Vec<f64> = v.iter().map(|x| (x - med).abs()).collect();
    Spread {
        min: v[0],
        q1: v[v.len() / 4],
        q3: v[(3 * v.len() / 4).min(v.len() - 1)],
        median: med,
        mad: median(&mut dev),
        reps: v.len(),
    }
}

/// Incremental FNV-1a-64, the same hash `scenario::bench::schedule_hash`
/// uses for arrival traces.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
