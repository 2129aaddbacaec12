//! The log₂-bucketed [`Histogram`] value type.
//!
//! It is the reading behind every histogram family of the live registry
//! ([`crate::live`]): lane cells snapshot into one, the exposition
//! ([`crate::expo`]) renders its buckets, and `repro profile` writes its
//! summary into `BENCH_profile.json`. Named metrics themselves live in
//! [`crate::live::LiveRegistry`].

/// Exponential (log₂) histogram of `u64` samples: bucket `i` holds
/// samples whose highest set bit is `i`, i.e. values in `[2^i, 2^{i+1})`
/// (bucket 0 additionally holds zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 64], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Rebuilds a histogram from raw cell state (the live-telemetry
    /// snapshot path). `min` uses the `u64::MAX`-when-empty sentinel.
    pub(crate) fn from_raw(buckets: [u64; 64], count: u64, sum: u64, min: u64, max: u64) -> Self {
        Histogram { buckets, count, sum, min, max }
    }

    /// Folds `other` into `self` (bucket-wise add; used to coalesce
    /// per-thread live cells into one process-wide distribution).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        let bucket = if v == 0 { 0 } else { 63 - v.leading_zeros() as usize };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by locating the bucket
    /// holding the target rank and interpolating linearly *within* it,
    /// instead of reporting the bucket's upper bound. The interpolation
    /// range is clamped by the observed `min`/`max` so single-bucket
    /// histograms and the extreme quantiles stay exact; 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based: q=0 → first, q=1 → last.
        let rank = (q * self.count as f64).max(1.0).min(self.count as f64);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                // Bucket i spans [2^i, 2^{i+1}) (bucket 0 also holds zero).
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let hi = if i >= 63 { u64::MAX as f64 } else { (2u64 << i) as f64 };
                let lo = lo.max(self.min() as f64).min(hi);
                let hi = hi.min(self.max as f64 + 1.0).max(lo);
                // Fraction of the way through this bucket's samples.
                let frac = if c == 1 { 0.5 } else { (rank - seen as f64 - 1.0) / (c - 1) as f64 };
                return lo + frac * (hi - lo);
            }
            seen += c;
        }
        self.max as f64
    }

    /// Non-empty buckets as `(inclusive upper bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let hi = if i >= 63 { u64::MAX } else { (2u64 << i) - 1 };
                (hi, c)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_log2_buckets() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1010);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        let buckets = h.nonzero_buckets();
        // 0 and 1 land in bucket 0 (hi=1), 2 and 3 in bucket 1 (hi=3),
        // 4 in bucket 2 (hi=7), 1000 in bucket 9 (hi=1023).
        assert_eq!(buckets, vec![(1, 2), (3, 2), (7, 1), (1023, 1)]);
        assert!((h.mean() - 1010.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let mut h = Histogram::new();
        // 100 samples spread across [1024, 2048): all in bucket 10.
        for i in 0..100u64 {
            h.observe(1024 + i * 10);
        }
        let p50 = h.quantile(0.5);
        // Upper-bound reporting would say 2047 regardless of q; the
        // interpolated estimate must sit near the middle of the bucket.
        assert!(p50 > 1200.0 && p50 < 1900.0, "p50 = {p50}");
        assert!(h.quantile(0.0) >= 1024.0);
        assert!(h.quantile(1.0) <= 2048.0);
        assert!(h.quantile(0.1) < h.quantile(0.9));
    }

    #[test]
    fn quantile_single_sample_and_clamps() {
        let mut h = Histogram::new();
        h.observe(700);
        // One sample: every quantile collapses to (near) the sample,
        // clamped by min/max, never the bucket bound 1023.
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q);
            assert!((700.0..=701.0).contains(&v), "q={q} → {v}");
        }
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }
}
