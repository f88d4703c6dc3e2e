//! Online job-demand distribution estimators — the paper's **DE units**.
//!
//! In RUSH-YARN (ICDCS 2016, Sec. IV) every job owns a *Distribution
//! Estimator* that continuously turns completed-task runtime samples into a
//! reference distribution `φ_i(v_i)` of the job's **remaining total demand**
//! `v_i` (container·slots), plus the average container runtime `R_i` needed
//! by the continuous time-slot mapping. The paper ships two estimator
//! classes and invites users to plug in their own; this crate provides:
//!
//! * [`MeanEstimator`] — an impulse at `mean task runtime × remaining tasks`
//!   (the paper's "mean time estimator");
//! * [`GaussianEstimator`] — CLT-based: `N(n·x̄, n·s²)` for `n` remaining
//!   tasks (the paper's "Gaussian estimator");
//! * [`EmpiricalEstimator`] — a bootstrap Monte-Carlo estimator that resamples
//!   observed runtimes to form the n-fold sum distribution, capturing skew
//!   that the Gaussian shape misses.
//!
//! All estimators implement [`DistributionEstimator`] and can be swapped in
//! RUSH's configuration — the subject of the paper's Fig. 3 and our
//! estimator ablation.
//!
//! # Example
//!
//! ```
//! use rush_estimator::{DistributionEstimator, GaussianEstimator};
//!
//! # fn main() -> Result<(), rush_estimator::EstimatorError> {
//! let de = GaussianEstimator::new(512);
//! // 40 observed task runtimes around 60 slots, 61 tasks still to run:
//! let samples: Vec<u64> = (0..40).map(|i| 50 + (i % 21)).collect();
//! let est = de.estimate(&samples, 61)?;
//! let eta = est.pmf.quantile(0.9); // 90th-percentile remaining demand
//! assert!(eta as f64 > est.pmf.mean()); // provisioning above the mean
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Estimates must be deterministic functions of their inputs: no
// hash-order iteration, no exact float compares, no panic family in library
// code (DESIGN.md §9).
#![cfg_attr(
    not(test),
    deny(
        clippy::iter_over_hash_type,
        clippy::float_cmp,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
    )
)]

use rush_prob::dist::{Continuous, Gaussian};
use rush_prob::rng::{derive_seed, seeded_rng};
use rush_prob::{Pmf, ProbError};
use std::error::Error;
use std::fmt;

/// Errors from demand estimation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EstimatorError {
    /// No runtime samples and no prior were available.
    NoSamples,
    /// A configuration parameter was out of range.
    InvalidConfig {
        /// Description of the problem.
        reason: &'static str,
    },
    /// An internal probability operation failed.
    Prob(ProbError),
    /// The demand range to quantize reaches 2⁵³ container·slots, past
    /// which demands stop being exact in the `f64` arithmetic that plans
    /// them.
    RangeTooLarge {
        /// The top of the range.
        hi: f64,
    },
}

impl fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimatorError::NoSamples => {
                write!(f, "no runtime samples observed and no prior configured")
            }
            EstimatorError::InvalidConfig { reason } => {
                write!(f, "invalid estimator config: {reason}")
            }
            EstimatorError::Prob(e) => write!(f, "probability error: {e}"),
            EstimatorError::RangeTooLarge { hi } => {
                write!(f, "demand range up to {hi} container·slots does not fit")
            }
        }
    }
}

impl Error for EstimatorError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EstimatorError::Prob(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProbError> for EstimatorError {
    fn from(e: ProbError) -> Self {
        EstimatorError::Prob(e)
    }
}

/// The output of a DE unit: the reference distribution `φ` of remaining
/// demand and the average container runtime `R`.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Reference PMF of the job's remaining total demand (container·slots).
    pub pmf: Pmf,
    /// Average container (task) runtime `R_i` in slots, used by the
    /// continuous time-slot mapping.
    pub mean_task_runtime: f64,
}

/// A distribution estimator: turns completed-task runtime samples into a
/// reference distribution of the job's remaining demand.
///
/// Implementations must be deterministic functions of their inputs so that
/// simulations replay exactly.
pub trait DistributionEstimator {
    /// Short name for reports (e.g. `"gaussian"`).
    fn name(&self) -> &str;

    /// Estimates the remaining-demand distribution from `samples` (observed
    /// runtimes of completed tasks, slots) for `remaining_tasks` unfinished
    /// tasks.
    ///
    /// # Errors
    ///
    /// [`EstimatorError::NoSamples`] when `samples` is empty and the
    /// estimator has no prior to fall back on.
    fn estimate(&self, samples: &[u64], remaining_tasks: usize)
        -> Result<Estimate, EstimatorError>;
}

/// Optional prior used before any sample has been observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimePrior {
    /// Prior mean task runtime (slots).
    pub mean: f64,
    /// Prior standard deviation of task runtime (slots).
    pub std: f64,
}

impl RuntimePrior {
    /// Creates a prior.
    ///
    /// # Errors
    ///
    /// [`EstimatorError::InvalidConfig`] if `mean ≤ 0` or `std < 0`.
    pub fn new(mean: f64, std: f64) -> Result<Self, EstimatorError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(EstimatorError::InvalidConfig { reason: "prior mean must be > 0" });
        }
        if !std.is_finite() || std < 0.0 {
            return Err(EstimatorError::InvalidConfig { reason: "prior std must be >= 0" });
        }
        Ok(RuntimePrior { mean, std })
    }
}

/// Ranges at or past this many container·slots are refused: demands
/// stay exact integers in `f64` below it.
const MAX_RANGE: f64 = 9_007_199_254_740_992.0; // 2⁵³

/// Checks that `remaining_tasks` tasks whose runtimes are at most
/// `max_runtime` slots can be estimated from those runtimes: every
/// estimator accepts such samples, for that many tasks or fewer (a lone
/// sample borrows the cold prior's spread, which `binning` still checks).
/// A sample refused here would fail every later estimate of its job, so
/// callers that take runtimes from outside refuse it on arrival.
///
/// The widest range any estimator here spans for such tasks is
/// `max_runtime × (1.5·n + 8·√n)`: the mean estimator's 50 % headroom
/// over `n·max`, the Gaussian's `n·x̄ + 8·√n·s` (a sample spread `s` is at
/// most `max/√2`), the bootstrap's `1.25·n·max`.
///
/// # Errors
///
/// [`EstimatorError::RangeTooLarge`] when that range reaches 2⁵³.
pub fn check_runtime(max_runtime: u64, remaining_tasks: usize) -> Result<(), EstimatorError> {
    let n = remaining_tasks as f64;
    match max_runtime as f64 * (1.5 * n + 8.0 * n.sqrt()) {
        hi if hi < MAX_RANGE => Ok(()),
        hi => Err(EstimatorError::RangeTooLarge { hi }),
    }
}

/// [`check_runtime`] on the largest of `samples`, before an estimator
/// spends any work on them.
fn check_samples(samples: &[u64], remaining_tasks: usize) -> Result<(), EstimatorError> {
    check_runtime(samples.iter().copied().max().unwrap_or(0), remaining_tasks)
}

/// Picks `(bins, bin_width)` so that the range `[0, hi]` fits in at most
/// `max_bins` bins.
///
/// # Errors
///
/// [`EstimatorError::RangeTooLarge`] when `hi` is at or past 2⁵³: a
/// submission's task count times its runtime can get there.
fn binning(hi: f64, max_bins: usize) -> Result<(usize, u64), EstimatorError> {
    let top = hi.max(1.0).ceil();
    if top >= MAX_RANGE {
        return Err(EstimatorError::RangeTooLarge { hi });
    }
    let hi = top as u64 + 1;
    let bin_width = hi.div_ceil(max_bins as u64).max(1);
    let bins = (hi.div_ceil(bin_width) as usize).max(2);
    Ok((bins, bin_width))
}

/// Sample mean and (unbiased) variance of integer runtimes. An empty slice
/// yields `(0.0, 0.0)` rather than a NaN divide — callers gate on
/// `samples.is_empty()` for cold-start handling, but the moments must stay
/// finite even if a new call site forgets to.
fn sample_moments(samples: &[u64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<u64>() as f64 / n;
    let var = if samples.len() < 2 {
        0.0
    } else {
        samples.iter().map(|&s| (s as f64 - mean) * (s as f64 - mean)).sum::<f64>() / (n - 1.0)
    };
    (mean, var)
}

/// The paper's **mean time estimator**: reports an impulse at
/// `mean task runtime × remaining tasks`. Cheap, but blind to variance —
/// the WCDE robustness margin is all that protects it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanEstimator {
    max_bins: usize,
    prior: Option<RuntimePrior>,
}

impl MeanEstimator {
    /// Creates a mean estimator quantizing to at most `max_bins` bins.
    pub fn new(max_bins: usize) -> Self {
        MeanEstimator { max_bins: max_bins.max(2), prior: None }
    }

    /// Adds a prior for the no-sample cold start.
    pub fn with_prior(mut self, prior: RuntimePrior) -> Self {
        self.prior = Some(prior);
        self
    }
}

impl DistributionEstimator for MeanEstimator {
    fn name(&self) -> &str {
        "mean"
    }

    fn estimate(
        &self,
        samples: &[u64],
        remaining_tasks: usize,
    ) -> Result<Estimate, EstimatorError> {
        check_samples(samples, remaining_tasks)?;
        let mean_rt = if samples.is_empty() {
            self.prior.ok_or(EstimatorError::NoSamples)?.mean
        } else {
            sample_moments(samples).0
        };
        if remaining_tasks == 0 {
            return Ok(Estimate {
                pmf: Pmf::impulse(2, 0, 1)?,
                mean_task_runtime: mean_rt.max(1.0),
            });
        }
        let total = mean_rt * remaining_tasks as f64;
        // Leave 50% headroom above the impulse so WCDE's worst case has
        // somewhere to move mass.
        let (bins, bin_width) = binning(total * 1.5, self.max_bins)?;
        let bin = ((total / bin_width as f64).round() as usize).min(bins - 1);
        let pmf = Pmf::impulse(bins, bin, bin_width)?;
        Ok(Estimate { pmf, mean_task_runtime: mean_rt.max(1.0) })
    }
}

/// The paper's **Gaussian estimator**: by the central limit theorem the sum
/// of `n` i.i.d. task runtimes is approximately `N(n·x̄, n·s²)`; the
/// estimator quantizes that normal into the reference PMF.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianEstimator {
    max_bins: usize,
    prior: Option<RuntimePrior>,
}

impl GaussianEstimator {
    /// Creates a Gaussian estimator quantizing to at most `max_bins` bins.
    pub fn new(max_bins: usize) -> Self {
        GaussianEstimator { max_bins: max_bins.max(2), prior: None }
    }

    /// Adds a prior for the no-sample cold start.
    pub fn with_prior(mut self, prior: RuntimePrior) -> Self {
        self.prior = Some(prior);
        self
    }
}

impl DistributionEstimator for GaussianEstimator {
    fn name(&self) -> &str {
        "gaussian"
    }

    fn estimate(
        &self,
        samples: &[u64],
        remaining_tasks: usize,
    ) -> Result<Estimate, EstimatorError> {
        check_samples(samples, remaining_tasks)?;
        let (mean_rt, var_rt) = if samples.is_empty() {
            let p = self.prior.ok_or(EstimatorError::NoSamples)?;
            (p.mean, p.std * p.std)
        } else {
            let (m, v) = sample_moments(samples);
            match (samples.len() < 2, self.prior) {
                // With a single sample the variance is unobservable; fall
                // back on the prior spread if present, else a 25% CV.
                (true, Some(p)) => (m, p.std * p.std),
                (true, None) => (m, (0.25 * m) * (0.25 * m)),
                (false, _) => (m, v),
            }
        };
        if remaining_tasks == 0 {
            return Ok(Estimate {
                pmf: Pmf::impulse(2, 0, 1)?,
                mean_task_runtime: mean_rt.max(1.0),
            });
        }
        let n = remaining_tasks as f64;
        let total_mean = n * mean_rt;
        let total_std = (n * var_rt).sqrt().max(1e-6);
        let hi = total_mean + 8.0 * total_std;
        let (bins, bin_width) = binning(hi, self.max_bins)?;
        let g = Gaussian::new(total_mean, total_std).map_err(EstimatorError::Prob)?;
        let pmf = g.quantize(bins, bin_width, 1e-12)?;
        Ok(Estimate { pmf, mean_task_runtime: mean_rt.max(1.0) })
    }
}

/// A bootstrap **empirical estimator**: Monte-Carlo resamples the observed
/// runtimes to approximate the distribution of the n-fold sum, preserving
/// skew and multi-modality that a Gaussian fit loses.
///
/// Determinism: the resampling RNG is seeded from the sample content, so
/// identical inputs always produce identical estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmpiricalEstimator {
    max_bins: usize,
    resamples: usize,
    prior: Option<RuntimePrior>,
}

impl EmpiricalEstimator {
    /// Creates an empirical estimator with `max_bins` quantization bins and
    /// `resamples` bootstrap draws (≥ 16; 1000 is a good default).
    pub fn new(max_bins: usize, resamples: usize) -> Self {
        EmpiricalEstimator { max_bins: max_bins.max(2), resamples: resamples.max(16), prior: None }
    }

    /// Adds a prior for the no-sample cold start.
    pub fn with_prior(mut self, prior: RuntimePrior) -> Self {
        self.prior = Some(prior);
        self
    }
}

impl DistributionEstimator for EmpiricalEstimator {
    fn name(&self) -> &str {
        "empirical"
    }

    fn estimate(
        &self,
        samples: &[u64],
        remaining_tasks: usize,
    ) -> Result<Estimate, EstimatorError> {
        if samples.is_empty() {
            // Cold start: degenerate to the Gaussian estimator on the prior.
            let prior = self.prior.ok_or(EstimatorError::NoSamples)?;
            return GaussianEstimator::new(self.max_bins)
                .with_prior(prior)
                .estimate(samples, remaining_tasks);
        }
        // Before the bootstrap: it adds `remaining_tasks` samples per
        // resample, and this bounds those sums below 2⁵³.
        check_samples(samples, remaining_tasks)?;
        let (mean_rt, _) = sample_moments(samples);
        if remaining_tasks == 0 {
            return Ok(Estimate {
                pmf: Pmf::impulse(2, 0, 1)?,
                mean_task_runtime: mean_rt.max(1.0),
            });
        }
        // Deterministic seed from the sample content.
        let mut seed = 0xE5EB_1E57u64;
        for &s in samples {
            seed = derive_seed(seed, s);
        }
        seed = derive_seed(seed, remaining_tasks as u64);
        let mut rng = seeded_rng(seed);
        use rand::Rng;
        let mut sums = Vec::with_capacity(self.resamples);
        for _ in 0..self.resamples {
            let mut total = 0u64;
            for _ in 0..remaining_tasks {
                total += samples[rng.gen_range(0..samples.len())];
            }
            sums.push(total);
        }
        let hi = sums.iter().copied().max().unwrap_or(1) as f64 * 1.25;
        let (bins, bin_width) = binning(hi, self.max_bins)?;
        let pmf = Pmf::from_samples(&sums, bins, bin_width)?
            .rebin(bins, bin_width)?
            .into_support_floor(1e-12)?;
        Ok(Estimate { pmf, mean_task_runtime: mean_rt.max(1.0) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: &[u64] = &[50, 55, 60, 60, 62, 58, 70, 45, 65, 61];

    #[test]
    fn mean_estimator_is_impulse_at_mean_times_remaining() {
        let de = MeanEstimator::new(512);
        let est = de.estimate(SAMPLES, 10).expect("estimate succeeds");
        let mean: f64 = SAMPLES.iter().sum::<u64>() as f64 / SAMPLES.len() as f64;
        let total = mean * 10.0;
        assert!((est.pmf.mean() - total).abs() <= est.pmf.bin_width() as f64);
        assert_eq!(est.pmf.variance(), 0.0);
        assert!((est.mean_task_runtime - mean).abs() < 1e-9);
    }

    #[test]
    fn mean_estimator_no_samples_no_prior_errors() {
        assert_eq!(MeanEstimator::new(64).estimate(&[], 5), Err(EstimatorError::NoSamples));
    }

    #[test]
    fn mean_estimator_uses_prior_when_cold() {
        let de = MeanEstimator::new(64).with_prior(RuntimePrior::new(60.0, 20.0).expect("valid prior"));
        let est = de.estimate(&[], 2).expect("estimate succeeds");
        assert!((est.pmf.mean() - 120.0).abs() <= est.pmf.bin_width() as f64);
    }

    #[test]
    fn gaussian_estimator_matches_clt_moments() {
        let de = GaussianEstimator::new(1024);
        let est = de.estimate(SAMPLES, 20).expect("estimate succeeds");
        let (m, v) = sample_moments(SAMPLES);
        let total_mean = 20.0 * m;
        let total_std = (20.0 * v).sqrt();
        assert!(
            (est.pmf.mean() - total_mean).abs() < 2.0 * est.pmf.bin_width() as f64,
            "mean {} vs {}",
            est.pmf.mean(),
            total_mean
        );
        assert!(
            (est.pmf.variance().sqrt() - total_std).abs() < 2.0 * est.pmf.bin_width() as f64,
            "std {} vs {}",
            est.pmf.variance().sqrt(),
            total_std
        );
    }

    #[test]
    fn gaussian_estimator_quantile_grows_with_theta() {
        let de = GaussianEstimator::new(1024);
        let est = de.estimate(SAMPLES, 20).expect("estimate succeeds");
        assert!(est.pmf.quantile(0.95) > est.pmf.quantile(0.5));
    }

    /// The Gaussian estimator's fused quantizer builds, bit for bit, the
    /// PMF of the unfused chain: the normal's CDF differences (tail folded
    /// into the last bin) through `Pmf::from_weights`, then
    /// `with_support_floor`.
    #[test]
    fn gaussian_in_place_floor_is_exact() {
        let prior = RuntimePrior::new(60.0, 20.0).expect("valid prior");
        let de = GaussianEstimator::new(512).with_prior(prior);
        let skewed: &[u64] = &[5, 500, 7, 300, 2, 2, 2];
        for samples in [SAMPLES, &[60][..], &[][..], skewed] {
            let (mean_rt, var_rt) = match samples.len() {
                0 => (prior.mean, prior.std * prior.std),
                1 => (sample_moments(samples).0, prior.std * prior.std),
                _ => sample_moments(samples),
            };
            for remaining in 1..=500 {
                let got = de.estimate(samples, remaining).expect("estimate succeeds").pmf;
                let n = remaining as f64;
                let std = (n * var_rt).sqrt().max(1e-6);
                let (bins, bin_width) = binning(n * mean_rt + 8.0 * std, 512).expect("fits");
                let g = Gaussian::new(n * mean_rt, std).expect("valid normal");
                let w = bin_width as f64;
                let mut prev = 0.0;
                let masses = (0..bins)
                    .map(|l| {
                        let hi =
                            if l + 1 == bins { 1.0 } else { g.cdf((l + 1) as f64 * w - w * 1e-9) };
                        let mass = (hi - prev).max(0.0);
                        prev = hi;
                        mass
                    })
                    .collect();
                let want = Pmf::from_weights(masses, bin_width)
                    .and_then(|p| p.with_support_floor(1e-12))
                    .expect("floor");
                assert_eq!(got.bins(), want.bins());
                for l in 0..want.bins() {
                    assert_eq!(
                        (got.prob(l).to_bits(), got.head_mass(l).to_bits()),
                        (want.prob(l).to_bits(), want.head_mass(l).to_bits()),
                        "{} samples, {remaining} remaining, bin {l}",
                        samples.len()
                    );
                }
            }
        }
    }

    #[test]
    fn gaussian_single_sample_uses_cv_fallback() {
        let de = GaussianEstimator::new(512);
        let est = de.estimate(&[60], 10).expect("estimate succeeds");
        assert!(est.pmf.variance() > 0.0, "single sample must still carry spread");
    }

    #[test]
    fn gaussian_prior_cold_start() {
        let de = GaussianEstimator::new(512).with_prior(RuntimePrior::new(60.0, 20.0).expect("valid prior"));
        let est = de.estimate(&[], 100).expect("estimate succeeds");
        assert!((est.pmf.mean() - 6000.0).abs() < 50.0);
    }

    #[test]
    fn zero_remaining_tasks_is_zero_demand() {
        for est in [
            MeanEstimator::new(64).estimate(SAMPLES, 0).expect("estimate succeeds"),
            GaussianEstimator::new(64).estimate(SAMPLES, 0).expect("estimate succeeds"),
            EmpiricalEstimator::new(64, 64).estimate(SAMPLES, 0).expect("estimate succeeds"),
        ] {
            assert_eq!(est.pmf.quantile(0.99), 0);
        }
    }

    #[test]
    fn empirical_estimator_deterministic() {
        let de = EmpiricalEstimator::new(256, 200);
        let a = de.estimate(SAMPLES, 15).expect("estimate succeeds");
        let b = de.estimate(SAMPLES, 15).expect("estimate succeeds");
        assert_eq!(a, b);
    }

    #[test]
    fn empirical_estimator_tracks_gaussian_for_symmetric_data() {
        let emp = EmpiricalEstimator::new(1024, 2000).estimate(SAMPLES, 20).expect("estimate succeeds");
        let gau = GaussianEstimator::new(1024).estimate(SAMPLES, 20).expect("estimate succeeds");
        let rel = (emp.pmf.mean() - gau.pmf.mean()).abs() / gau.pmf.mean();
        assert!(rel < 0.05, "means differ by {rel}");
    }

    #[test]
    fn empirical_estimator_captures_skew() {
        // Bimodal: mostly fast tasks, occasional 10x stragglers.
        let samples: Vec<u64> = (0..50).map(|i| if i % 10 == 0 { 300 } else { 30 }).collect();
        let est = EmpiricalEstimator::new(1024, 2000).estimate(&samples, 5).expect("estimate succeeds");
        // Right tail: 99th percentile well above the mean.
        assert!(est.pmf.quantile(0.99) as f64 > est.pmf.mean() * 1.1);
    }

    #[test]
    fn estimators_expose_names() {
        assert_eq!(MeanEstimator::new(2).name(), "mean");
        assert_eq!(GaussianEstimator::new(2).name(), "gaussian");
        assert_eq!(EmpiricalEstimator::new(2, 16).name(), "empirical");
    }

    #[test]
    fn prior_validation() {
        assert!(RuntimePrior::new(0.0, 1.0).is_err());
        assert!(RuntimePrior::new(1.0, -1.0).is_err());
        assert!(RuntimePrior::new(60.0, 0.0).is_ok());
    }

    #[test]
    fn binning_respects_max_bins() {
        for hi in [1.0, 10.0, 1000.0, 123456.0] {
            let (bins, width) = binning(hi, 256).expect("fits");
            assert!(bins <= 257, "bins={bins}");
            assert!(bins as u64 * width >= hi as u64, "range covered");
        }
    }

    /// `tasks × runtime` can reach 2⁶⁴ on the wire (10¹⁰ tasks of 10¹⁰
    /// slots); every estimator refuses a range past 2⁵³ instead of wrapping
    /// it.
    #[test]
    fn ranges_past_exact_f64_integers_are_refused() {
        assert!(binning(MAX_RANGE - 1.0, 256).is_ok());
        for hi in [MAX_RANGE, 1.5e20, f64::INFINITY] {
            assert!(matches!(binning(hi, 256), Err(EstimatorError::RangeTooLarge { .. })), "{hi}");
        }
        // 1000 tasks of 10¹³ slots: 10¹⁶ container·slots, past 2⁵³.
        let huge = [10_000_000_000_000u64];
        assert!(MeanEstimator::new(512).estimate(&huge, 1000).is_err());
        assert!(GaussianEstimator::new(512).estimate(&huge, 1000).is_err());
        assert!(EmpiricalEstimator::new(512, 16).estimate(&huge, 1000).is_err());
        // 10¹⁰ tasks of 10¹⁰ slots: the bootstrap would add 10¹⁰ samples
        // per resample, overflowing `u64` long before it finished; the
        // range is refused before it starts.
        let refused = EmpiricalEstimator::new(512, 16).estimate(&[10_000_000_000], 10_000_000_000);
        assert!(matches!(refused, Err(EstimatorError::RangeTooLarge { .. })));
    }

    /// A runtime [`check_runtime`] accepts is one every estimator sizes, for
    /// as many tasks or fewer, alone or among smaller samples; one it
    /// refuses, every estimator refuses.
    #[test]
    fn check_runtime_is_the_bound_every_estimator_keeps() {
        let de = [
            &MeanEstimator::new(512) as &dyn DistributionEstimator,
            &GaussianEstimator::new(512),
            &EmpiricalEstimator::new(512, 16),
        ];
        let n = 1000usize;
        // The largest runtime that fits, and the next one.
        let (mut ok, mut over) = (1u64, 1u64 << 53);
        while over - ok > 1 {
            let mid = ok + (over - ok) / 2;
            if check_runtime(mid, n).is_ok() {
                ok = mid;
            } else {
                over = mid;
            }
        }
        for de in de {
            for samples in [vec![ok], vec![0, ok], vec![ok, 1, ok]] {
                for remaining in [n, n / 2, 1] {
                    assert!(de.estimate(&samples, remaining).is_ok(), "{} {samples:?}", de.name());
                }
            }
            assert!(de.estimate(&[over], n).is_err(), "{}", de.name());
        }
    }

    #[test]
    fn sample_moments_stay_finite_on_empty_input() {
        let (mean, var) = sample_moments(&[]);
        assert!(mean.abs() < 1e-12 && var.abs() < 1e-12, "no NaN divide on empty input");
    }

    #[test]
    fn error_display_and_source() {
        let e = EstimatorError::Prob(ProbError::ZeroMass);
        assert!(e.to_string().contains("probability"));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&EstimatorError::NoSamples).is_none());
    }
}
