//! Quantized probability mass functions over demand bins.
//!
//! A [`Pmf`] describes the distribution of a job's total demand `v` in
//! *container time slots*. Bin `l` carries the probability that `v` falls in
//! `[l·w, (l+1)·w)` where `w` is the [bin width](Pmf::bin_width). The RUSH
//! algorithms (Algorithms 1–2 of the paper) operate directly on this
//! representation: the REM closed form re-normalizes bin groups and the WCDE
//! bisection searches over bin indices.

use crate::ProbError;

/// Tolerance used when checking that probabilities sum to one.
pub const NORMALIZATION_EPS: f64 = 1e-9;

/// A quantized probability mass function over `0..bins()` demand bins.
///
/// Invariants (enforced by every constructor):
/// * at least one bin;
/// * every probability is finite and non-negative;
/// * probabilities sum to 1 within [`NORMALIZATION_EPS`] after construction.
///
/// # Example
///
/// ```
/// use rush_prob::Pmf;
///
/// # fn main() -> Result<(), rush_prob::ProbError> {
/// let pmf = Pmf::from_weights(vec![0.0, 1.0, 3.0], 1)?;
/// assert_eq!(pmf.bins(), 3);
/// assert!((pmf.prob(2) - 0.75).abs() < 1e-12);
/// assert_eq!(pmf.quantile(0.5), 2);
/// # Ok(())
/// # }
/// ```
/// Invariant: `cdf[l]` is the running left-to-right prefix sum of
/// `probs[0..=l]`, recomputed by every constructor. Caching it here turns
/// the REM head-mass query into O(1) and quantile search into O(log bins),
/// which is what keeps the WCDE bisection at O(log bins) per solve (the
/// Fig. 5 scheduling-cost hot path).
#[derive(Debug, Clone, PartialEq)]
pub struct Pmf {
    probs: Vec<f64>,
    cdf: Vec<f64>,
    bin_width: u64,
}

/// Left-to-right running prefix sums of `probs` — the same summation order
/// as `probs[..=l].iter().sum()`, so cached values are bit-identical to
/// naive on-demand sums.
fn prefix_sums(probs: &[f64]) -> impl Iterator<Item = f64> + '_ {
    probs.iter().scan(0.0, |acc, &p| {
        *acc += p;
        Some(*acc)
    })
}

impl Pmf {
    /// Builds a PMF from non-negative weights, normalizing them to sum to 1.
    ///
    /// `bin_width` is the demand (container·slots) covered by each bin and
    /// must be at least 1.
    ///
    /// # Errors
    ///
    /// * [`ProbError::EmptyPmf`] if `weights` is empty.
    /// * [`ProbError::InvalidWeight`] if any weight is negative or non-finite.
    /// * [`ProbError::ZeroMass`] if all weights are zero.
    /// * [`ProbError::InvalidParameter`] if `bin_width == 0`.
    pub fn from_weights(weights: Vec<f64>, bin_width: u64) -> Result<Self, ProbError> {
        if weights.is_empty() {
            return Err(ProbError::EmptyPmf);
        }
        if bin_width == 0 {
            return Err(ProbError::InvalidParameter { name: "bin_width", value: 0.0 });
        }
        Self::normalized(weights, Vec::new(), bin_width)
    }

    /// The body of [`Pmf::from_weights`] past its shape checks: validates
    /// and sums `weights`, then hands them to `Pmf::divided`.
    fn normalized(weights: Vec<f64>, cdf: Vec<f64>, bin_width: u64) -> Result<Self, ProbError> {
        for (bin, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 0.0 {
                return Err(ProbError::InvalidWeight { bin, value: w });
            }
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(ProbError::ZeroMass);
        }
        Ok(Self::divided(weights, total, cdf, bin_width))
    }

    /// The crate's one normaliser: divides each weight by `total` and
    /// rebuilds `cdf` in its buffer as the running sum of the quotients, in
    /// one left-to-right pass. The floats are those of dividing every
    /// weight first and taking `prefix_sums` after.
    ///
    /// `weights` must be finite and non-negative, and `total` their
    /// left-to-right sum, positive.
    pub(crate) fn divided(
        mut weights: Vec<f64>,
        total: f64,
        mut cdf: Vec<f64>,
        bin_width: u64,
    ) -> Self {
        cdf.clear();
        let mut acc = 0.0;
        cdf.extend(weights.iter_mut().map(|w| {
            *w /= total;
            acc += *w;
            acc
        }));
        let out = Pmf { probs: weights, cdf, bin_width };
        out.debug_check_invariants();
        out
    }

    /// Builds an impulse (degenerate) PMF placing all mass on one bin.
    ///
    /// The mean-time estimator of the paper reports exactly this shape: an
    /// impulse at `mean task runtime × pending tasks`.
    ///
    /// # Errors
    ///
    /// [`ProbError::EmptyPmf`] if `bins == 0`, [`ProbError::InvalidParameter`]
    /// if `bin_width == 0` or `bin >= bins`.
    pub fn impulse(bins: usize, bin: usize, bin_width: u64) -> Result<Self, ProbError> {
        if bins == 0 {
            return Err(ProbError::EmptyPmf);
        }
        if bin >= bins {
            return Err(ProbError::InvalidParameter { name: "bin", value: bin as f64 });
        }
        if bin_width == 0 {
            return Err(ProbError::InvalidParameter { name: "bin_width", value: 0.0 });
        }
        let mut probs = vec![0.0; bins];
        probs[bin] = 1.0;
        let cdf = prefix_sums(&probs).collect();
        let out = Pmf { probs, cdf, bin_width };
        out.debug_check_invariants();
        Ok(out)
    }

    /// Builds the uniform PMF over `bins` bins.
    ///
    /// # Errors
    ///
    /// [`ProbError::EmptyPmf`] if `bins == 0`, [`ProbError::InvalidParameter`]
    /// if `bin_width == 0`.
    pub fn uniform(bins: usize, bin_width: u64) -> Result<Self, ProbError> {
        Self::from_weights(vec![1.0; bins], bin_width)
    }

    /// Builds a PMF by histogramming integer demand samples into unit bins,
    /// padding the support up to `min_bins` bins.
    ///
    /// # Errors
    ///
    /// [`ProbError::ZeroMass`] if `samples` is empty and `min_bins == 0`;
    /// otherwise an empty sample set yields an impulse at bin 0.
    pub fn from_samples(samples: &[u64], min_bins: usize, bin_width: u64) -> Result<Self, ProbError> {
        if bin_width == 0 {
            return Err(ProbError::InvalidParameter { name: "bin_width", value: 0.0 });
        }
        if samples.is_empty() {
            if min_bins == 0 {
                return Err(ProbError::ZeroMass);
            }
            return Self::impulse(min_bins, 0, bin_width);
        }
        let max_bin = samples.iter().map(|&s| (s / bin_width) as usize).max().unwrap_or(0);
        let bins = (max_bin + 1).max(min_bins.max(1));
        let mut weights = vec![0.0; bins];
        for &s in samples {
            weights[(s / bin_width) as usize] += 1.0;
        }
        Self::from_weights(weights, bin_width)
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.probs.len()
    }

    /// Demand (container·slots) covered by one bin.
    pub fn bin_width(&self) -> u64 {
        self.bin_width
    }

    /// Probability mass at bin `l` (0 if out of range).
    pub fn prob(&self, l: usize) -> f64 {
        self.probs.get(l).copied().unwrap_or(0.0)
    }

    /// Borrow the underlying probabilities.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Iterates over `(bin, probability)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.probs.iter().copied().enumerate()
    }

    /// Cumulative probability `P(bin ≤ l)`, the quantized CDF `Φ(l)`.
    ///
    /// Returns 1 for `l ≥ bins() − 1`. O(1): reads the cached prefix sums.
    pub fn cdf(&self, l: usize) -> f64 {
        if l + 1 >= self.cdf.len() {
            return 1.0;
        }
        self.cdf[l].min(1.0)
    }

    /// Head mass `Σ_{i≤l} p_i` as the raw cached prefix sum, uncapped.
    ///
    /// Unlike [`Pmf::cdf`] this is exactly the left-to-right partial sum —
    /// the quantity the REM closed form divides by — so callers replacing a
    /// manual `probs().iter().take(l + 1).sum()` get bit-identical values
    /// in O(1).
    pub fn head_mass(&self, l: usize) -> f64 {
        match self.cdf.get(l) {
            Some(&c) => c,
            #[expect(clippy::expect_used, reason = "all Pmf constructors reject empty bin vectors")]
            None => *self.cdf.last().expect("Pmf has at least one bin"),
        }
    }

    /// The `θ`-quantile bin index `Φ⁻¹(θ)`: the smallest `l` with
    /// `P(bin ≤ l) ≥ θ` (within [`NORMALIZATION_EPS`]).
    ///
    /// Out-of-range `θ` is clamped to `[0, 1]`. O(log bins): binary search
    /// over the cached prefix sums (non-decreasing, so the predicate is
    /// monotone and the result matches the former linear scan exactly).
    pub fn quantile_bin(&self, theta: f64) -> usize {
        let theta = theta.clamp(0.0, 1.0);
        let l = self.cdf.partition_point(|&c| c + NORMALIZATION_EPS < theta);
        l.min(self.cdf.len() - 1)
    }

    /// The `θ`-quantile in demand units (container·slots):
    /// `quantile_bin(θ) · bin_width()`.
    pub fn quantile(&self, theta: f64) -> u64 {
        self.quantile_bin(theta) as u64 * self.bin_width
    }

    /// Mean demand in container·slots.
    pub fn mean(&self) -> f64 {
        self.probs
            .iter()
            .enumerate()
            .map(|(l, &p)| p * (l as f64) * self.bin_width as f64)
            .sum()
    }

    /// Variance of the demand in (container·slots)².
    pub fn variance(&self) -> f64 {
        let mean = self.mean();
        self.probs
            .iter()
            .enumerate()
            .map(|(l, &p)| {
                let v = (l as f64) * self.bin_width as f64;
                p * (v - mean) * (v - mean)
            })
            .sum()
    }

    /// Kullback–Leibler divergence `D(self ‖ reference)` in nats:
    /// `Σ_l p_l · ln(p_l / φ_l)` with the conventions `0·ln(0/φ) = 0` and
    /// `p·ln(p/0) = +∞` for `p > 0`.
    ///
    /// This is the "relative entropy" distance bounding the ambiguity set in
    /// constraint (5) of the paper.
    ///
    /// # Errors
    ///
    /// [`ProbError::ShapeMismatch`] if bin counts or widths differ.
    pub fn kl_divergence(&self, reference: &Pmf) -> Result<f64, ProbError> {
        if self.probs.len() != reference.probs.len() || self.bin_width != reference.bin_width {
            return Err(ProbError::ShapeMismatch {
                left: self.probs.len(),
                right: reference.probs.len(),
            });
        }
        let mut d = 0.0;
        for (p, q) in self.probs.iter().zip(reference.probs.iter()) {
            if *p > 0.0 {
                if *q <= 0.0 {
                    return Ok(f64::INFINITY);
                }
                d += p * (p / q).ln();
            }
        }
        // Floating-point rounding can produce a tiny negative value for
        // nearly identical distributions; KL divergence is non-negative.
        Ok(d.max(0.0))
    }

    /// Returns a copy with every zero bin replaced by `floor` mass and
    /// re-normalized.
    ///
    /// The WCDE machinery needs reference PMFs with full support: a zero bin
    /// makes the KL ball degenerate there (any worst case avoiding the bin is
    /// "free"). Estimators call this before handing a reference distribution
    /// to the optimizer.
    ///
    /// # Errors
    ///
    /// [`ProbError::InvalidParameter`] if `floor` is not a positive finite
    /// number.
    pub fn with_support_floor(&self, floor: f64) -> Result<Self, ProbError> {
        self.clone().into_support_floor(floor)
    }

    /// [`Pmf::with_support_floor`] on this PMF's own buffers: the same
    /// operations in the same order, without allocating.
    ///
    /// # Errors
    ///
    /// As for [`Pmf::with_support_floor`].
    pub fn into_support_floor(mut self, floor: f64) -> Result<Self, ProbError> {
        if !floor.is_finite() || floor <= 0.0 {
            return Err(ProbError::InvalidParameter { name: "floor", value: floor });
        }
        for p in &mut self.probs {
            *p = p.max(floor);
        }
        Self::normalized(self.probs, self.cdf, self.bin_width)
    }

    /// Re-bins this PMF onto `bins` bins of width `bin_width`, aggregating or
    /// padding mass as needed. Mass beyond the new range accumulates in the
    /// last bin.
    ///
    /// # Errors
    ///
    /// [`ProbError::EmptyPmf`] if `bins == 0`; [`ProbError::InvalidParameter`]
    /// if `bin_width == 0`.
    pub fn rebin(&self, bins: usize, bin_width: u64) -> Result<Self, ProbError> {
        if bins == 0 {
            return Err(ProbError::EmptyPmf);
        }
        if bin_width == 0 {
            return Err(ProbError::InvalidParameter { name: "bin_width", value: 0.0 });
        }
        let mut weights = vec![0.0; bins];
        for (l, &p) in self.probs.iter().enumerate() {
            let value = l as u64 * self.bin_width;
            let new_bin = ((value / bin_width) as usize).min(bins - 1);
            weights[new_bin] += p;
        }
        Self::from_weights(weights, bin_width)
    }

    /// Verifies the normalization invariant; `true` for every valid [`Pmf`].
    pub fn is_normalized(&self) -> bool {
        (self.probs.iter().sum::<f64>() - 1.0).abs() < 1e-6
    }

    /// Contract checks: mass ≈ 1 and the cached CDF is a monotone
    /// non-decreasing prefix sum reaching the total mass. Every check is a
    /// `debug_assert!`, so they run in every debug build and `cargo test`,
    /// and release builds compile this to nothing.
    fn debug_check_invariants(&self) {
        debug_assert!(!self.probs.is_empty(), "Pmf must have at least one bin");
        debug_assert!(self.bin_width >= 1, "Pmf bin width must be positive");
        debug_assert!(
            self.probs.iter().all(|p| p.is_finite() && *p >= 0.0),
            "Pmf probabilities must be finite and non-negative"
        );
        debug_assert!(self.is_normalized(), "Pmf mass must be ~1");
        debug_assert_eq!(self.probs.len(), self.cdf.len(), "Pmf CDF cache length mismatch");
        debug_assert!(
            // bound: windows(2) yields exactly two elements
            self.cdf.windows(2).all(|w| w[0] <= w[1]),
            "Pmf CDF must be monotone non-decreasing"
        );
        debug_assert!(
            (self.cdf.last().copied().unwrap_or(0.0) - 1.0).abs() < 1e-6,
            "Pmf CDF must reach total mass ~1"
        );
    }
}

impl AsRef<[f64]> for Pmf {
    fn as_ref(&self) -> &[f64] {
        &self.probs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmf(ws: &[f64]) -> Pmf {
        Pmf::from_weights(ws.to_vec(), 1).unwrap()
    }

    #[test]
    fn from_weights_normalizes() {
        let p = pmf(&[1.0, 1.0, 2.0]);
        assert!(p.is_normalized());
        assert!((p.prob(0) - 0.25).abs() < 1e-12);
        assert!((p.prob(2) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn from_weights_rejects_empty() {
        assert_eq!(Pmf::from_weights(vec![], 1), Err(ProbError::EmptyPmf));
    }

    #[test]
    fn from_weights_rejects_negative() {
        let err = Pmf::from_weights(vec![1.0, -0.5], 1).unwrap_err();
        assert!(matches!(err, ProbError::InvalidWeight { bin: 1, .. }));
    }

    #[test]
    fn from_weights_rejects_nan() {
        let err = Pmf::from_weights(vec![f64::NAN], 1).unwrap_err();
        assert!(matches!(err, ProbError::InvalidWeight { bin: 0, .. }));
    }

    #[test]
    fn from_weights_rejects_zero_mass() {
        assert_eq!(Pmf::from_weights(vec![0.0, 0.0], 1), Err(ProbError::ZeroMass));
    }

    #[test]
    fn from_weights_rejects_zero_width() {
        let err = Pmf::from_weights(vec![1.0], 0).unwrap_err();
        assert!(matches!(err, ProbError::InvalidParameter { name: "bin_width", .. }));
    }

    #[test]
    fn impulse_places_all_mass() {
        let p = Pmf::impulse(10, 7, 1).unwrap();
        assert_eq!(p.prob(7), 1.0);
        assert_eq!(p.quantile_bin(0.5), 7);
        assert_eq!(p.quantile_bin(0.999), 7);
        assert_eq!(p.mean(), 7.0);
        assert_eq!(p.variance(), 0.0);
    }

    #[test]
    fn impulse_rejects_out_of_range_bin() {
        assert!(Pmf::impulse(5, 5, 1).is_err());
        assert!(Pmf::impulse(0, 0, 1).is_err());
    }

    #[test]
    fn uniform_has_equal_mass() {
        let p = Pmf::uniform(4, 1).unwrap();
        for l in 0..4 {
            assert!((p.prob(l) - 0.25).abs() < 1e-12);
        }
        assert!(Pmf::uniform(0, 1).is_err());
    }

    #[test]
    fn cdf_is_monotone_and_reaches_one() {
        let p = pmf(&[1.0, 2.0, 3.0, 4.0]);
        let mut prev = 0.0;
        for l in 0..p.bins() {
            let c = p.cdf(l);
            assert!(c >= prev);
            prev = c;
        }
        assert_eq!(p.cdf(3), 1.0);
        assert_eq!(p.cdf(100), 1.0);
    }

    #[test]
    fn quantile_matches_cdf() {
        let p = pmf(&[0.1, 0.2, 0.3, 0.4]);
        assert_eq!(p.quantile_bin(0.05), 0);
        assert_eq!(p.quantile_bin(0.1), 0);
        assert_eq!(p.quantile_bin(0.11), 1);
        assert_eq!(p.quantile_bin(0.3), 1);
        assert_eq!(p.quantile_bin(0.6), 2);
        assert_eq!(p.quantile_bin(1.0), 3);
    }

    #[test]
    fn quantile_scales_by_bin_width() {
        let p = Pmf::from_weights(vec![0.5, 0.5], 30).unwrap();
        assert_eq!(p.quantile(0.9), 30);
        assert_eq!(p.quantile(0.4), 0);
    }

    #[test]
    fn quantile_clamps_theta() {
        let p = pmf(&[0.5, 0.5]);
        assert_eq!(p.quantile_bin(-3.0), 0);
        assert_eq!(p.quantile_bin(7.0), 1);
    }

    #[test]
    fn mean_and_variance_of_known_pmf() {
        // P(0)=0.5, P(2)=0.5 → mean 1, var 1.
        let p = pmf(&[1.0, 0.0, 1.0]);
        assert!((p.mean() - 1.0).abs() < 1e-12);
        assert!((p.variance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kl_divergence_of_identical_is_zero() {
        let p = pmf(&[1.0, 2.0, 3.0]);
        assert_eq!(p.kl_divergence(&p).unwrap(), 0.0);
    }

    #[test]
    fn kl_divergence_is_positive_for_different() {
        let p = pmf(&[3.0, 1.0]);
        let q = pmf(&[1.0, 3.0]);
        let d = p.kl_divergence(&q).unwrap();
        assert!(d > 0.0);
        // KL(p||q) for p=(0.75,0.25), q=(0.25,0.75):
        let expect = 0.75 * (3.0f64).ln() + 0.25 * (1.0f64 / 3.0).ln();
        assert!((d - expect).abs() < 1e-12);
    }

    #[test]
    fn kl_divergence_infinite_when_reference_lacks_support() {
        let p = pmf(&[0.5, 0.5]);
        let q = pmf(&[1.0, 0.0]);
        assert_eq!(p.kl_divergence(&q).unwrap(), f64::INFINITY);
        // but the reverse is finite: q has no mass where p lacks support.
        assert!(q.kl_divergence(&p).unwrap().is_finite());
    }

    #[test]
    fn kl_divergence_rejects_shape_mismatch() {
        let p = pmf(&[1.0, 1.0]);
        let q = pmf(&[1.0, 1.0, 1.0]);
        assert!(matches!(p.kl_divergence(&q), Err(ProbError::ShapeMismatch { .. })));
        let r = Pmf::from_weights(vec![1.0, 1.0], 2).unwrap();
        assert!(matches!(p.kl_divergence(&r), Err(ProbError::ShapeMismatch { .. })));
    }

    #[test]
    fn support_floor_fills_zeros() {
        let p = pmf(&[1.0, 0.0, 1.0]);
        let q = p.with_support_floor(1e-9).unwrap();
        assert!(q.prob(1) > 0.0);
        assert!(q.is_normalized());
        assert!(p.with_support_floor(0.0).is_err());
        assert!(p.with_support_floor(f64::NAN).is_err());
    }

    #[test]
    fn from_samples_histograms() {
        let p = Pmf::from_samples(&[1, 1, 2, 5], 0, 1).unwrap();
        assert_eq!(p.bins(), 6);
        assert!((p.prob(1) - 0.5).abs() < 1e-12);
        assert!((p.prob(5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn from_samples_respects_min_bins_and_width() {
        let p = Pmf::from_samples(&[10], 20, 2).unwrap();
        assert_eq!(p.bins(), 20);
        assert_eq!(p.prob(5), 1.0); // 10 / width 2 = bin 5
    }

    #[test]
    fn from_samples_empty_with_min_bins_is_impulse_at_zero() {
        let p = Pmf::from_samples(&[], 4, 1).unwrap();
        assert_eq!(p.prob(0), 1.0);
        assert!(Pmf::from_samples(&[], 0, 1).is_err());
    }

    #[test]
    fn rebin_preserves_mass() {
        let p = pmf(&[1.0, 1.0, 1.0, 1.0]);
        let q = p.rebin(2, 2).unwrap();
        assert_eq!(q.bins(), 2);
        assert!((q.prob(0) - 0.5).abs() < 1e-12);
        assert!(q.is_normalized());
    }

    #[test]
    fn rebin_clamps_overflow_to_last_bin() {
        let p = pmf(&[0.0, 0.0, 0.0, 1.0]); // mass at value 3
        let q = p.rebin(2, 1).unwrap(); // only values 0..2 representable
        assert_eq!(q.prob(1), 1.0);
    }

    /// The contract layer is armed in every debug build: a Pmf whose mass
    /// drifted off 1 must trip it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "Pmf mass must be ~1")]
    fn contract_layer_catches_unnormalized_mass() {
        let probs = vec![0.5, 0.25];
        let cdf = prefix_sums(&probs).collect();
        Pmf { probs, cdf, bin_width: 1 }.debug_check_invariants();
    }

    #[test]
    fn as_ref_exposes_probs() {
        let p = pmf(&[1.0, 3.0]);
        let s: &[f64] = p.as_ref();
        assert_eq!(s.len(), 2);
    }
}
