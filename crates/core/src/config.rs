//! RUSH scheduler configuration.

use crate::CoreError;
use rush_estimator::{
    DistributionEstimator, EmpiricalEstimator, Estimate, EstimatorError, GaussianEstimator,
    MeanEstimator, RuntimePrior,
};

/// Which distribution-estimator class the DE units use (paper Sec. IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EstimatorKind {
    /// Impulse at `mean runtime × remaining tasks`.
    Mean,
    /// CLT Gaussian `N(n·x̄, n·s²)` — the paper's default.
    Gaussian,
    /// Bootstrap Monte-Carlo over observed runtimes.
    Empirical {
        /// Number of bootstrap resamples.
        resamples: usize,
    },
}

/// The DE unit a [`RushConfig`] names (see [`RushConfig::estimator`]): its
/// [`EstimatorKind`] built with the config's bins and cold prior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Estimator {
    /// [`EstimatorKind::Mean`].
    Mean(MeanEstimator),
    /// [`EstimatorKind::Gaussian`].
    Gaussian(GaussianEstimator),
    /// [`EstimatorKind::Empirical`].
    Empirical(EmpiricalEstimator),
}

impl DistributionEstimator for Estimator {
    fn name(&self) -> &str {
        match self {
            Estimator::Mean(de) => de.name(),
            Estimator::Gaussian(de) => de.name(),
            Estimator::Empirical(de) => de.name(),
        }
    }

    fn estimate(
        &self,
        samples: &[u64],
        remaining_tasks: usize,
    ) -> Result<Estimate, EstimatorError> {
        match self {
            Estimator::Mean(de) => de.estimate(samples, remaining_tasks),
            Estimator::Gaussian(de) => de.estimate(samples, remaining_tasks),
            Estimator::Empirical(de) => de.estimate(samples, remaining_tasks),
        }
    }
}

/// Tunable parameters of the RUSH pipeline.
///
/// The defaults mirror the paper's evaluation: `θ = 0.9`, entropy threshold
/// `δ = 0.7` (the value Fig. 3 identifies as sufficient), Gaussian
/// estimation, and a 10⁶-slot planning horizon for completion-time
/// insensitive jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RushConfig {
    /// Completion-probability percentile `θ ∈ (0, 1)`.
    pub theta: f64,
    /// KL ambiguity radius `δ ≥ 0` ("entropy threshold"). `0` disables the
    /// robustness margin and trusts the reference distribution — the
    /// non-robust ablation.
    pub delta: f64,
    /// Maximum PMF quantization bins per job.
    pub max_bins: usize,
    /// Onion-peeling bisection tolerance `Δ` on utility levels.
    pub tolerance: f64,
    /// Planning horizon (slots) standing in for "no deadline".
    pub horizon: f64,
    /// Which estimator class the DE units run.
    pub estimator: EstimatorKind,
    /// Prior used before any runtime sample exists (cold start).
    pub cold_prior: RuntimePrior,
    /// Fraction of cluster capacity kept free of completion-time
    /// *insensitive* tasks: such a task only starts while at least this
    /// share of containers would remain free afterwards. Because container
    /// occupancy is continuous (non-preemptible), this reaction headroom is
    /// what lets RUSH absorb estimation error and bursty arrivals without
    /// sensitive jobs queueing behind flat-utility work.
    pub insensitive_reserve: f64,
    /// Inflate a job's robust demand by the expected rework factor
    /// `1/(1−p̂)` when task failures have been observed (`p̂` is the
    /// Laplace-smoothed per-attempt failure rate) — the failure-probability
    /// estimation the paper lists as future work.
    ///
    /// It acts only where failures are reported: in the simulator, whose
    /// views count failed attempts. The daemon (`rushd`) has no failure
    /// report on its wire, and its kernel plans every job with
    /// `failed_attempts: 0` (`PlannerCore::plan_at`), so there the flag
    /// changes nothing.
    pub failure_aware: bool,
}

impl Default for RushConfig {
    #[expect(clippy::expect_used, reason = "constant-argument constructor, validated by unit test")]
    fn default() -> Self {
        RushConfig {
            theta: 0.9,
            delta: 0.7,
            max_bins: 512,
            tolerance: 0.01,
            horizon: 1e6,
            estimator: EstimatorKind::Gaussian,
            cold_prior: RuntimePrior::new(60.0, 20.0).expect("static prior is valid"),
            insensitive_reserve: 0.75,
            failure_aware: true,
        }
    }
}

impl RushConfig {
    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidTheta`], [`CoreError::InvalidDelta`] or
    /// [`CoreError::InvalidConfig`] for out-of-range fields.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(0.0..1.0).contains(&self.theta) || self.theta <= 0.0 {
            return Err(CoreError::InvalidTheta(self.theta));
        }
        if !self.delta.is_finite() || self.delta < 0.0 {
            return Err(CoreError::InvalidDelta(self.delta));
        }
        if self.max_bins < 2 {
            return Err(CoreError::InvalidConfig { reason: "max_bins must be >= 2" });
        }
        if !self.tolerance.is_finite() || self.tolerance <= 0.0 {
            return Err(CoreError::InvalidConfig { reason: "tolerance must be > 0" });
        }
        if !self.horizon.is_finite() || self.horizon <= 0.0 {
            return Err(CoreError::InvalidConfig { reason: "horizon must be > 0" });
        }
        if !(0.0..=1.0).contains(&self.insensitive_reserve) {
            return Err(CoreError::InvalidConfig {
                reason: "insensitive_reserve must be in [0, 1]",
            });
        }
        if let EstimatorKind::Empirical { resamples } = self.estimator {
            if resamples < 16 {
                return Err(CoreError::InvalidConfig { reason: "resamples must be >= 16" });
            }
        }
        Ok(())
    }

    /// The DE unit this config runs: the one place an [`EstimatorKind`]
    /// becomes an estimator, shared by planning
    /// ([`crate::plan::compute_plan_incremental`]) and admission
    /// (`rush_planner::estimate_eta`).
    pub fn estimator(&self) -> Estimator {
        match self.estimator {
            EstimatorKind::Mean => {
                Estimator::Mean(MeanEstimator::new(self.max_bins).with_prior(self.cold_prior))
            }
            EstimatorKind::Gaussian => Estimator::Gaussian(
                GaussianEstimator::new(self.max_bins).with_prior(self.cold_prior),
            ),
            EstimatorKind::Empirical { resamples } => Estimator::Empirical(
                EmpiricalEstimator::new(self.max_bins, resamples).with_prior(self.cold_prior),
            ),
        }
    }

    /// Returns a copy with the percentile set.
    pub fn with_theta(mut self, theta: f64) -> Self {
        self.theta = theta;
        self
    }

    /// Returns a copy with the entropy threshold set.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Returns a copy with the estimator class set.
    pub fn with_estimator(mut self, estimator: EstimatorKind) -> Self {
        self.estimator = estimator;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        RushConfig::default().validate().unwrap();
    }

    #[test]
    fn builders_compose() {
        let c = RushConfig::default()
            .with_theta(0.95)
            .with_delta(0.3)
            .with_estimator(EstimatorKind::Mean);
        assert_eq!(c.theta, 0.95);
        assert_eq!(c.delta, 0.3);
        assert_eq!(c.estimator, EstimatorKind::Mean);
        c.validate().unwrap();
    }

    #[test]
    fn estimator_follows_the_kind() {
        for (kind, name) in [
            (EstimatorKind::Mean, "mean"),
            (EstimatorKind::Gaussian, "gaussian"),
            (EstimatorKind::Empirical { resamples: 64 }, "empirical"),
        ] {
            assert_eq!(RushConfig::default().with_estimator(kind).estimator().name(), name);
        }
    }

    #[test]
    fn validation_catches_bad_fields() {
        assert!(RushConfig::default().with_theta(0.0).validate().is_err());
        assert!(RushConfig::default().with_theta(1.0).validate().is_err());
        assert!(RushConfig::default().with_delta(-0.1).validate().is_err());
        assert!(RushConfig { max_bins: 1, ..Default::default() }.validate().is_err());
        assert!(RushConfig { tolerance: 0.0, ..Default::default() }.validate().is_err());
        assert!(RushConfig { horizon: -1.0, ..Default::default() }.validate().is_err());
        assert!(RushConfig { insensitive_reserve: 1.5, ..Default::default() }
            .validate()
            .is_err());
        assert!(RushConfig::default()
            .with_estimator(EstimatorKind::Empirical { resamples: 2 })
            .validate()
            .is_err());
    }
}
