//! Continuous reference distributions with deterministic sampling.
//!
//! The simulator draws *true* task runtimes from these distributions, while
//! estimators reconstruct them from samples. Gaussian sampling uses the
//! Box–Muller transform so the crate stays free of `rand_distr`.

use crate::{Pmf, ProbError};
use rand::Rng;

/// A continuous, non-negative-support distribution of demand or runtime.
///
/// Implementors provide the density, CDF and moments; [`Continuous::sample`]
/// must be deterministic given a deterministic [`Rng`].
pub trait Continuous {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative probability `P(X ≤ x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Expected value.
    fn mean(&self) -> f64;

    /// Variance.
    fn variance(&self) -> f64;

    /// Draws one sample. Negative draws are clamped to 0 because demands and
    /// runtimes are non-negative.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Quantizes this distribution into a full-support [`Pmf`] of `bins`
    /// bins of width `bin_width`: bin `l` gets the mass
    /// `P(l·w ≤ X < (l+1)·w)`, with all upper-tail mass folded into the last
    /// bin; then every bin is raised to at least `floor` and the whole
    /// re-normalized, as [`Pmf::with_support_floor`] does.
    ///
    /// The result is bit for bit `Pmf::from_weights` of those masses
    /// followed by `with_support_floor(floor)`, built in three passes over
    /// the bins instead of ten: the CDF differences and their sum, then the
    /// normalized and floored masses and their sum, then the final division
    /// fused with the prefix sums.
    ///
    /// # Errors
    ///
    /// [`ProbError::EmptyPmf`] if `bins == 0`;
    /// [`ProbError::InvalidParameter`] if `bin_width == 0` or `floor` is not
    /// a positive finite number; [`ProbError::InvalidWeight`] if the CDF
    /// yields a non-finite mass, and [`ProbError::ZeroMass`] if it yields
    /// none below `bins · bin_width`.
    fn quantize(&self, bins: usize, bin_width: u64, floor: f64) -> Result<Pmf, ProbError> {
        if bins == 0 {
            return Err(ProbError::EmptyPmf);
        }
        if bin_width == 0 {
            return Err(ProbError::InvalidParameter { name: "bin_width", value: 0.0 });
        }
        if !floor.is_finite() || floor <= 0.0 {
            return Err(ProbError::InvalidParameter { name: "floor", value: floor });
        }
        let w = bin_width as f64;
        // Evaluate the CDF just below each upper bin boundary so that a point
        // mass sitting exactly on a boundary lands in the bin that *starts*
        // there, matching `Pmf::from_samples`'s `value / bin_width` rule.
        let boundary_eps = w * 1e-9;
        let mut weights = Vec::with_capacity(bins);
        let mut total = 0.0;
        let mut prev = 0.0; // CDF at 0 for non-negative support
        for l in 0..bins {
            let hi =
                if l + 1 == bins { 1.0 } else { self.cdf((l + 1) as f64 * w - boundary_eps) };
            let mass = (hi - prev).max(0.0);
            if !mass.is_finite() {
                return Err(ProbError::InvalidWeight { bin: l, value: mass });
            }
            total += mass;
            weights.push(mass);
            prev = hi;
        }
        if total <= 0.0 {
            return Err(ProbError::ZeroMass);
        }
        let mut floored = 0.0;
        for p in &mut weights {
            *p = (*p / total).max(floor);
            floored += *p;
        }
        Ok(Pmf::divided(weights, floored, Vec::with_capacity(bins), bin_width))
    }
}

/// The Gaussian (normal) distribution `N(mean, std²)`.
///
/// Used by the paper's experiments both as the ground-truth task-runtime
/// distribution (Fig. 3: N(60 s, 20 s)) and as the shape reported by the
/// Gaussian/CLT estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    std: f64,
}

impl Gaussian {
    /// Creates `N(mean, std²)`.
    ///
    /// # Errors
    ///
    /// [`ProbError::InvalidParameter`] if `mean` is non-finite or `std` is
    /// not a positive finite number.
    pub fn new(mean: f64, std: f64) -> Result<Self, ProbError> {
        if !mean.is_finite() {
            return Err(ProbError::InvalidParameter { name: "mean", value: mean });
        }
        if !std.is_finite() || std <= 0.0 {
            return Err(ProbError::InvalidParameter { name: "std", value: std });
        }
        Ok(Gaussian { mean, std })
    }

    /// Standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Standard normal CDF via the Abramowitz–Stegun erf approximation
    /// (absolute error < 1.5e-7, ample for demand quantization).
    fn std_normal_cdf(z: f64) -> f64 {
        0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
    }
}

/// Past this |x| the A&S expression below is exactly ±1: its correction
/// term `poly(t)·t·e^{−x²}` is under 5·10⁻²⁰ there, far below the 2⁻⁵⁴ that
/// `1 − ε` needs to round away from 1, so the `exp` is skipped.
const ERF_EXACT_TAIL: f64 = 6.5;

/// Error function approximation (Abramowitz & Stegun 7.1.26).
fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    if x >= ERF_EXACT_TAIL {
        return sign;
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Draws a standard normal variate via Box–Muller.
fn sample_std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl Continuous for Gaussian {
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std;
        (-0.5 * z * z).exp() / (self.std * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        Self::std_normal_cdf((x - self.mean) / self.std)
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.std * self.std
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mean + self.std * sample_std_normal(rng)).max(0.0)
    }
}

/// The log-normal distribution: `ln X ~ N(mu, sigma²)`.
///
/// Models the right-skewed, straggler-prone task runtimes typical of I/O
/// heavy MapReduce stages (e.g. the sort and join workload templates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal with log-space mean `mu` and log-space standard
    /// deviation `sigma`.
    ///
    /// # Errors
    ///
    /// [`ProbError::InvalidParameter`] if parameters are non-finite or
    /// `sigma ≤ 0`.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, ProbError> {
        if !mu.is_finite() {
            return Err(ProbError::InvalidParameter { name: "mu", value: mu });
        }
        if !sigma.is_finite() || sigma <= 0.0 {
            return Err(ProbError::InvalidParameter { name: "sigma", value: sigma });
        }
        Ok(LogNormal { mu, sigma })
    }

    /// Creates a log-normal with the given *linear-space* mean and standard
    /// deviation, solving for `(mu, sigma)`.
    ///
    /// # Errors
    ///
    /// [`ProbError::InvalidParameter`] if `mean ≤ 0` or `std ≤ 0`.
    pub fn from_mean_std(mean: f64, std: f64) -> Result<Self, ProbError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(ProbError::InvalidParameter { name: "mean", value: mean });
        }
        if !std.is_finite() || std <= 0.0 {
            return Err(ProbError::InvalidParameter { name: "std", value: std });
        }
        let cv2 = (std / mean) * (std / mean);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        LogNormal::new(mu, sigma2.sqrt())
    }
}

impl Continuous for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        Gaussian::std_normal_cdf((x.ln() - self.mu) / self.sigma)
    }

    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * sample_std_normal(rng)).exp()
    }
}

/// The exponential distribution with the given rate `λ`.
///
/// Drives the Poisson job-arrival process of the paper's evaluation
/// (inter-arrival times ~ Exp(1/130 s)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `λ = rate`.
    ///
    /// # Errors
    ///
    /// [`ProbError::InvalidParameter`] if `rate` is not a positive finite
    /// number.
    pub fn new(rate: f64) -> Result<Self, ProbError> {
        if !rate.is_finite() || rate <= 0.0 {
            return Err(ProbError::InvalidParameter { name: "rate", value: rate });
        }
        Ok(Exponential { rate })
    }

    /// Creates an exponential distribution with the given mean (`1/λ`).
    ///
    /// # Errors
    ///
    /// [`ProbError::InvalidParameter`] if `mean` is not a positive finite
    /// number.
    pub fn from_mean(mean: f64) -> Result<Self, ProbError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(ProbError::InvalidParameter { name: "mean", value: mean });
        }
        Exponential::new(1.0 / mean)
    }
}

impl Continuous for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            1.0 - (-self.rate * x).exp()
        }
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>();
        -u.ln() / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn gaussian_rejects_bad_params() {
        assert!(Gaussian::new(f64::NAN, 1.0).is_err());
        assert!(Gaussian::new(0.0, 0.0).is_err());
        assert!(Gaussian::new(0.0, -1.0).is_err());
    }

    #[test]
    fn gaussian_cdf_symmetry() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        assert!((g.cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((g.cdf(1.0) + g.cdf(-1.0) - 1.0).abs() < 1e-6);
        assert!((g.cdf(1.96) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn gaussian_pdf_peak_at_mean() {
        let g = Gaussian::new(5.0, 2.0).unwrap();
        assert!(g.pdf(5.0) > g.pdf(4.0));
        assert!(g.pdf(5.0) > g.pdf(6.0));
        assert!((g.pdf(4.0) - g.pdf(6.0)).abs() < 1e-12);
    }

    #[test]
    fn gaussian_sampling_matches_moments() {
        let g = Gaussian::new(60.0, 20.0).unwrap();
        let mut rng = seeded_rng(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!((mean - 60.0).abs() < 1.0, "mean={mean}");
        assert!((var.sqrt() - 20.0).abs() < 1.0, "std={}", var.sqrt());
    }

    #[test]
    fn gaussian_samples_are_clamped_nonnegative() {
        let g = Gaussian::new(0.1, 10.0).unwrap();
        let mut rng = seeded_rng(7);
        for _ in 0..1000 {
            assert!(g.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn quantize_preserves_mean_roughly() {
        let g = Gaussian::new(100.0, 10.0).unwrap();
        let pmf = g.quantize(200, 1, 1e-12).unwrap();
        assert!(pmf.is_normalized());
        assert!((pmf.mean() - 100.0).abs() < 1.5);
    }

    #[test]
    fn quantize_folds_tail_into_last_bin() {
        let g = Gaussian::new(100.0, 10.0).unwrap();
        let pmf = g.quantize(50, 1, 1e-12).unwrap(); // support cut at 50 << mean
        assert!(pmf.prob(49) > 0.99);
    }

    #[test]
    fn quantize_rejects_degenerate_args() {
        let g = Gaussian::new(10.0, 1.0).unwrap();
        assert_eq!(g.quantize(0, 1, 1e-12), Err(ProbError::EmptyPmf));
        let bad = [(0, 1e-12), (1, 0.0), (1, -1e-12), (1, f64::NAN), (1, f64::INFINITY)];
        for (width, floor) in bad {
            assert!(
                matches!(g.quantize(10, width, floor), Err(ProbError::InvalidParameter { .. })),
                "width {width}, floor {floor}"
            );
        }
    }

    #[test]
    fn lognormal_from_mean_std_round_trips_moments() {
        let ln = LogNormal::from_mean_std(120.0, 40.0).unwrap();
        assert!((ln.mean() - 120.0).abs() < 1e-9);
        assert!((ln.variance().sqrt() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn lognormal_cdf_monotone_and_zero_below_zero() {
        let ln = LogNormal::new(0.0, 1.0).unwrap();
        assert_eq!(ln.cdf(-1.0), 0.0);
        assert_eq!(ln.pdf(-1.0), 0.0);
        assert!(ln.cdf(1.0) < ln.cdf(2.0));
        assert!((ln.cdf(1.0) - 0.5).abs() < 1e-6); // median = e^mu = 1
    }

    #[test]
    fn lognormal_sampling_is_positive_and_skewed() {
        let ln = LogNormal::from_mean_std(60.0, 30.0).unwrap();
        let mut rng = seeded_rng(11);
        let samples: Vec<f64> = (0..10_000).map(|_| ln.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&s| s > 0.0));
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((mean - 60.0).abs() < 2.0, "mean={mean}");
        let median = {
            let mut s = samples.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s[s.len() / 2]
        };
        assert!(median < mean, "right-skew: median {median} < mean {mean}");
    }

    #[test]
    fn lognormal_rejects_bad_params() {
        assert!(LogNormal::new(f64::INFINITY, 1.0).is_err());
        assert!(LogNormal::new(0.0, 0.0).is_err());
        assert!(LogNormal::from_mean_std(-1.0, 1.0).is_err());
        assert!(LogNormal::from_mean_std(1.0, 0.0).is_err());
    }

    #[test]
    fn exponential_mean_and_memoryless_shape() {
        let e = Exponential::from_mean(130.0).unwrap();
        assert!((e.mean() - 130.0).abs() < 1e-12);
        assert!((e.cdf(130.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        let mut rng = seeded_rng(5);
        let n = 20_000;
        let mean = (0..n).map(|_| e.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 130.0).abs() < 3.0, "mean={mean}");
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::from_mean(-1.0).is_err());
    }

    /// A&S 7.1.26 in full, with no shortcut.
    fn erf_full(x: f64) -> f64 {
        let sign = if x < 0.0 { -1.0 } else { 1.0 };
        let x = x.abs();
        let t = 1.0 / (1.0 + 0.3275911 * x);
        let y = 1.0
            - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
                + 0.254829592)
                * t
                * (-x * x).exp();
        sign * y
    }

    /// Past the exact tail the shortcut returns what the full expression
    /// rounds to: a dense grid of ±[6.5, 40], the extremes and ±∞.
    #[test]
    fn erf_exact_tail_is_the_full_expression() {
        let mut xs = vec![f64::MAX, f64::INFINITY, ERF_EXACT_TAIL.next_down()];
        let mut x = ERF_EXACT_TAIL;
        while x <= 40.0 {
            xs.push(x);
            x += 1e-3;
        }
        for x in xs {
            for v in [x, -x] {
                assert_eq!(erf(v).to_bits(), erf_full(v).to_bits(), "erf({v})");
            }
        }
    }

    #[test]
    fn erf_reference_values() {
        assert!(erf(0.0).abs() < 1e-8);
        assert!((erf(1.0) - 0.8427007).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007).abs() < 1e-5);
        assert!((erf(3.0) - 0.9999779).abs() < 1e-5);
    }
}
