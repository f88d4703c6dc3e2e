//! Exact order statistics over recorded samples.
//!
//! The harness keeps every latency it measures, so quantiles are read off
//! sorted arrays rather than log2 histogram buckets: the gated medians must
//! resolve differences far below a bucket width.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending-sorted slice, by the
/// nearest-rank rule: the smallest sample with at least `q·n` samples at or
/// below it. `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.clamp(1, sorted.len()) - 1).copied()
}

/// Sorts `samples` in place and returns their median (0 when empty, so a
/// layer a workload never exercised reports a plain zero).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile_sorted(samples, 0.5).unwrap_or(0.0)
}

/// The arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The tail percentiles the harness is willing to quote, highest first.
const TAIL_PERCENTILES: [f64; 5] = [0.9999, 0.999, 0.99, 0.9, 0.5];

/// A tail latency quoted with the percentile it stands for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile as a fraction (0.99 = p99).
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples the percentile was read from.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_PERCENTILES`] that still has at least
/// ten samples beyond it — anything higher would quote one or two outliers
/// as if they were a distribution. `None` below 20 samples (not even the
/// median has ten beyond it).
pub fn tail(samples: &mut [f64]) -> Option<Tail> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = (p * n as f64).ceil() as usize;
        if rank == 0 || n - rank < 10 {
            return None;
        }
        Some(Tail {
            percentile: p,
            value: *samples.get(rank - 1)?,
            samples: n,
        })
    })
}

/// The three quartile cut points of `values`, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
/// so spreads printed here match the ones the acceptance driver computes.
/// `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| -> f64 {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        // bound: 1 <= j <= n - 1, so both j - 1 and j are in range
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

/// The run-to-run spread the benchmark contract gates on: the distance
/// between the first and third quartile as a share of the median. `None`
/// with fewer than two values or a zero median.
pub fn iqr_spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2.abs() > 0.0).then(|| ((q3 - q1) / q2).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.5), Some(50.0));
        assert_eq!(quantile_sorted(&v, 0.99), Some(99.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        let mut odd = vec![9.0, 1.0, 5.0];
        assert_eq!(median(&mut odd), 5.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        // 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1.
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&mut v).expect("tail");
        assert_eq!((t.percentile, t.value, t.samples), (0.99, 990.0, 1000));
        // 999 samples: ceil(0.99 * 999) = 990 leaves 9 beyond, so p90 it is.
        let mut v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&mut v).expect("tail").percentile, 0.9);
        // 10_000 samples reach p99.9; 100_000 reach p99.99.
        let mut v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&mut v).expect("tail").percentile, 0.999);
        let mut v: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&mut v).expect("tail").percentile, 0.9999);
        // 20 samples support only the median; 19 support nothing.
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&mut v).expect("tail").percentile, 0.5);
        let mut v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&mut v), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_spread(&v), Some(1.0));
    }
}
