//! Log2-bucketed latency histogram.
//!
//! The serving daemon records one submit→planned latency per submission;
//! a full latency distribution cannot be kept per counter. This histogram
//! trades resolution for O(1) memory: values land in power-of-two buckets
//! (`[2^k, 2^(k+1))`), quantiles interpolate linearly inside the winning
//! bucket, and two histograms merge by adding counts — so per-connection
//! (or per-worker) histograms combine into one report without locks.
//!
//! Worst-case quantile error is the bucket width, i.e. a factor of 2 —
//! adequate for p50/p99 latency reporting, where the magnitude matters and
//! the third significant digit does not.
//!
//! # Example
//!
//! ```
//! use rush_metrics::histogram::Histogram;
//!
//! let mut h = Histogram::new();
//! for us in [120, 180, 240, 300, 9_000] {
//!     h.record(us);
//! }
//! assert_eq!(h.count(), 5);
//! assert!(h.quantile(0.5) >= 128 && h.quantile(0.5) < 512);
//! assert!(h.quantile(1.0) >= 8_192);
//! ```

/// Bucket count: one per possible `u64` magnitude plus a zero bucket.
const BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples (e.g. latencies in µs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `counts[0]` holds zeros; `counts[k]` (k ≥ 1) holds values in
    /// `[2^(k-1), 2^k)`.
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket index of a value: 0 for 0, else `64 - leading_zeros` (so value
/// `v` lands in the bucket whose range contains it).
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Lower bound (inclusive) of bucket `k`.
fn bucket_lo(k: usize) -> u64 {
    if k == 0 {
        0
    } else {
        1u64 << (k - 1)
    }
}

/// Upper bound (exclusive, saturating) of bucket `k`.
fn bucket_hi(k: usize) -> u64 {
    if k == 0 {
        1
    } else if k >= 64 {
        u64::MAX
    } else {
        1u64 << k
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram { counts: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (0.0 when empty); exact, not
    /// bucket-quantized, because the running sum is kept separately.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`, clamped), linearly interpolated
    /// inside the winning bucket and clamped to the observed `[min, max]`.
    /// Returns 0 for an empty histogram.
    ///
    /// Accuracy: within the winning bucket's width (a factor of two) of
    /// the exact order statistic.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the order statistic we want (1-based, nearest-rank).
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                // Interpolate within the bucket by the rank's position,
                // staying inside the bucket's half-open range.
                let lo = bucket_lo(k) as f64;
                let hi = bucket_hi(k) as f64;
                let frac = (rank - seen) as f64 / c as f64;
                let v = (lo + (hi - lo) * frac) as u64;
                return v.min(bucket_hi(k).saturating_sub(1)).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_inert() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert!((h.mean() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for v in [1u64, 2, 3, 7, 8, 1023, 1024, 1 << 40] {
            let k = bucket_of(v);
            assert!(bucket_lo(k) <= v && v < bucket_hi(k) || k >= 64, "v={v} k={k}");
        }
    }

    #[test]
    fn count_min_max_mean_track_exactly() {
        let mut h = Histogram::new();
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 40);
        assert!((h.mean() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_are_within_bucket_resolution() {
        let mut h = Histogram::new();
        // 100 samples: 1..=100.
        for v in 1..=100u64 {
            h.record(v);
        }
        // The true p50 is 50; log2 buckets guarantee a factor-2 bound.
        let p50 = h.quantile(0.5);
        assert!((25..=100).contains(&p50), "p50={p50}");
        // p99 must land in the top bucket's range.
        let p99 = h.quantile(0.99);
        assert!((64..=100).contains(&p99), "p99={p99}");
        // Quantiles are monotone in q.
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| h.quantile(q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        // Extremes clamp to observed min/max.
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn quantile_of_constant_samples_is_exactish() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(300);
        }
        let p50 = h.quantile(0.5);
        // One bucket: [256, 512); clamped to observed range = exactly 300.
        assert_eq!(p50, 300);
    }

    #[test]
    fn zeros_have_their_own_bucket() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(8);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 8);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [5, 10, 15] {
            a.record(v);
        }
        for v in [1000, 2000] {
            b.record(v);
        }
        let mut whole = Histogram::new();
        for v in [5, 10, 15, 1000, 2000] {
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        // Merging an empty histogram changes nothing.
        a.merge(&Histogram::new());
        assert_eq!(a, whole);
        // Merging into an empty histogram copies.
        let mut empty = Histogram::new();
        empty.merge(&whole);
        assert_eq!(empty, whole);
    }

    #[test]
    fn large_values_do_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.99), u64::MAX);
        assert!(h.mean() > 0.0);
    }
}
