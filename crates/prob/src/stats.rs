//! Descriptive statistics used by the evaluation harness.
//!
//! The paper's figures are boxplots (Fig. 4), empirical CDFs (Fig. 6) and
//! averaged series (Figs. 3 and 5); this module provides the five-number
//! summaries, percentiles and empirical CDFs behind them.

/// Sample mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The `q`-th percentile (`q ∈ [0, 1]`) with linear interpolation between
/// order statistics (the "R-7" definition used by NumPy's default).
///
/// # Panics
///
/// Panics if `xs` is empty or contains NaN, or `q` is outside `[0, 1]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty sample");
    assert!((0.0..=1.0).contains(&q), "percentile q must be in [0,1], got {q}");
    assert!(xs.iter().all(|x| !x.is_nan()), "percentile of NaN sample");
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let h = q * (sorted.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Five-number summary with Tukey outliers, as rendered by a boxplot.
#[derive(Debug, Clone, PartialEq)]
pub struct FiveNumber {
    /// Lower whisker: smallest sample ≥ `q1 − 1.5·IQR`.
    pub whisker_lo: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker: largest sample ≤ `q3 + 1.5·IQR`.
    pub whisker_hi: f64,
    /// Samples outside the whiskers.
    pub outliers: Vec<f64>,
}

impl FiveNumber {
    /// Computes the summary.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn from_samples(xs: &[f64]) -> Self {
        assert!(!xs.is_empty(), "boxplot of empty sample");
        let q1 = percentile(xs, 0.25);
        let median = percentile(xs, 0.5);
        let q3 = percentile(xs, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let mut whisker_lo = f64::INFINITY;
        let mut whisker_hi = f64::NEG_INFINITY;
        let mut outliers = Vec::new();
        for &x in xs {
            if x < lo_fence || x > hi_fence {
                outliers.push(x);
            } else {
                whisker_lo = whisker_lo.min(x);
                whisker_hi = whisker_hi.max(x);
            }
        }
        // All points can be outliers only when xs has extreme spread with
        // tiny IQR; fall back to min/max in that case.
        if !whisker_lo.is_finite() {
            whisker_lo = percentile(xs, 0.0);
            whisker_hi = percentile(xs, 1.0);
        }
        // Interpolated quartiles can cross the nearest in-fence sample when
        // an outlier took part in the interpolation; clamp the whiskers to
        // the box so the five numbers stay ordered.
        whisker_lo = whisker_lo.min(q1);
        whisker_hi = whisker_hi.max(q3);
        outliers.sort_by(|a, b| a.total_cmp(b));
        FiveNumber { whisker_lo, q1, median, q3, whisker_hi, outliers }
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// An empirical cumulative distribution function over a finite sample.
///
/// # Example
///
/// ```
/// use rush_prob::stats::Ecdf;
/// let ecdf = Ecdf::from_samples(&[1.0, 2.0, 2.0, 4.0]);
/// assert_eq!(ecdf.eval(2.0), 0.75);
/// assert_eq!(ecdf.eval(0.0), 0.0);
/// assert_eq!(ecdf.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples (NaNs are rejected by panic).
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples(xs: &[f64]) -> Self {
        assert!(xs.iter().all(|x| !x.is_nan()), "Ecdf sample contains NaN");
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Ecdf { sorted }
    }

    /// Fraction of samples ≤ `x`; 0 for an empty ECDF.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when no samples were provided.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evaluates the ECDF at `points`, returning `(x, F(x))` pairs — the
    /// series plotted in the paper's Fig. 6.
    pub fn series(&self, points: &[f64]) -> Vec<(f64, f64)> {
        points.iter().map(|&x| (x, self.eval(x))).collect()
    }

    /// The sorted sample values (the ECDF's jump locations).
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn mean_reference() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(percentile(&xs, 0.5), 2.5);
        assert!((percentile(&xs, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_panics_on_empty() {
        percentile(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "q must be in")]
    fn percentile_panics_on_bad_q() {
        percentile(&[1.0], 1.5);
    }

    #[test]
    fn five_number_summary_basic() {
        let xs: Vec<f64> = (1..=11).map(|i| i as f64).collect();
        let s = FiveNumber::from_samples(&xs);
        assert_eq!(s.median, 6.0);
        assert_eq!(s.q1, 3.5);
        assert_eq!(s.q3, 8.5);
        assert_eq!(s.whisker_lo, 1.0);
        assert_eq!(s.whisker_hi, 11.0);
        assert!(s.outliers.is_empty());
        assert_eq!(s.iqr(), 5.0);
    }

    #[test]
    fn five_number_detects_outliers() {
        let mut xs: Vec<f64> = (1..=11).map(|i| i as f64).collect();
        xs.push(100.0);
        let s = FiveNumber::from_samples(&xs);
        assert_eq!(s.outliers, vec![100.0]);
        assert!(s.whisker_hi <= 11.0);
    }

    #[test]
    fn five_number_constant_sample() {
        let s = FiveNumber::from_samples(&[3.0; 10]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 3.0);
        assert_eq!(s.whisker_lo, 3.0);
        assert_eq!(s.whisker_hi, 3.0);
        assert!(s.outliers.is_empty());
    }

    #[test]
    fn ecdf_step_values() {
        let e = Ecdf::from_samples(&[3.0, 1.0, 2.0, 2.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.len(), 4);
        assert!(!e.is_empty());
    }

    #[test]
    fn ecdf_empty() {
        let e = Ecdf::from_samples(&[]);
        assert!(e.is_empty());
        assert_eq!(e.eval(1.0), 0.0);
    }

    #[test]
    fn ecdf_series() {
        let e = Ecdf::from_samples(&[1.0, 2.0]);
        let s = e.series(&[0.0, 1.5, 3.0]);
        assert_eq!(s, vec![(0.0, 0.0), (1.5, 0.5), (3.0, 1.0)]);
    }
}
