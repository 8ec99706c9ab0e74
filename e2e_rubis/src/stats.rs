//! Small numeric helpers: the bench-local random stream, exact percentiles
//! with the "ten samples beyond" rule, medians, and deltas of the
//! repository's log2 histograms.

use obs::{HistogramSnapshot, MetricsSnapshot};

/// SplitMix64: the benchmark's own random stream (inter-arrival times,
/// audit item choice), so the simulated clock does not depend on which
/// generator the repository's `rand` stand-in happens to implement.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never 0, so `ln` is finite.
    pub fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Negative-exponential sample with the given mean, at least 1.
    pub fn next_exp(&mut self, mean: f64) -> u64 {
        ((-mean * self.next_unit().ln()) as u64).max(1)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn next_below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in (0, 1)) of an ascending-sorted sample,
/// or `None` when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond it:
/// a tail made of a handful of samples is noise, not a percentile.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// Median of a non-empty slice (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `after − before` of one named histogram: what was recorded inside the
/// window. Buckets subtract exactly; `min`/`max` are the window's upper
/// bounds only (the registry keeps no per-window extremes).
pub fn hist_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
) -> HistogramSnapshot {
    let mut out = after.histogram(name).cloned().unwrap_or_default();
    if let Some(b) = before.histogram(name) {
        out.count -= b.count;
        out.sum -= b.sum;
        for (o, b) in out.buckets.iter_mut().zip(b.buckets.iter()) {
            *o -= *b;
        }
        out.min = 0;
    }
    out
}

/// `after − before` of one named counter (0 when absent).
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        // Reference value of the published algorithm for seed 0.
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn exponential_samples_have_the_requested_mean() {
        let mut r = SplitMix64::new(7);
        let n = 50_000;
        let mean = (0..n).map(|_| r.next_exp(10_000.0) as f64).sum::<f64>() / n as f64;
        assert!((9_500.0..10_500.0).contains(&mean), "mean {mean}");
        assert!((0..1000).all(|_| r.next_exp(0.5) >= 1));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let sample: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sample, 0.5), Some(500));
        assert_eq!(percentile(&sample, 0.99), Some(990));
        // 1000 samples: p99.9 would leave one sample beyond.
        assert_eq!(percentile(&sample, 0.999), None);
        // 999 samples leave 9 beyond the p99 rank (990); 1000 leave 10.
        assert_eq!(percentile(&sample[..999], 0.99), None);
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&twenty, 0.5), Some(10));
        assert_eq!(percentile(&twenty[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn histogram_delta_subtracts_counts_sums_and_buckets() {
        let reg = obs::Registry::new();
        let h = reg.histogram("x.us");
        h.record(10);
        h.record(1000);
        let before = reg.snapshot();
        h.record(20);
        h.record(30);
        let after = reg.snapshot();
        let d = hist_delta(&before, &after, "x.us");
        assert_eq!((d.count, d.sum), (2, 50));
        assert_eq!(d.mean(), 25.0);
        assert_eq!(d.buckets.iter().sum::<u64>(), 2);
        assert_eq!(hist_delta(&before, &after, "absent").count, 0);
    }
}
