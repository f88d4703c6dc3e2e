//! Interference models — the "shared cloud" uncertainty source.
//!
//! In the paper's testbed, task runtimes vary because of slow I/O, memory
//! pressure and co-tenant interference. The simulator reproduces this by
//! multiplying each task's base runtime by a random factor drawn when the
//! task starts. Schedulers never observe the factor, only its effect on
//! completed-task samples.

use rand::Rng;
use rush_prob::dist::{Continuous, LogNormal};

/// How task runtimes are perturbed by the shared infrastructure.
#[derive(Debug, Clone, PartialEq)]
pub enum Interference {
    /// No interference: runtime = base × node speed.
    None,
    /// Multiplicative log-normal noise with unit median and the given
    /// coefficient of variation (e.g. 0.2 for mild, 0.5 for heavy
    /// contention). Right-skewed, so stragglers occur — the dominant
    /// uncertainty pattern in shared clusters.
    LogNormal {
        /// Coefficient of variation of the noise factor.
        cv: f64,
    },
    /// With probability `p`, a task becomes a straggler and its runtime is
    /// multiplied by `slowdown`; otherwise it runs at base speed. Models
    /// the paper's head-of-line-blocking outliers.
    Straggler {
        /// Straggler probability in `[0, 1]`.
        p: f64,
        /// Runtime multiplier applied to stragglers (> 1).
        slowdown: f64,
    },
}

impl Interference {
    /// Draws a multiplicative runtime factor (≥ 0) for one task start.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Interference::None => 1.0,
            Interference::LogNormal { cv } => {
                // Unit-mean log-normal with the requested CV.
                match LogNormal::from_mean_std(1.0, cv.max(1e-9)) {
                    Ok(d) => d.sample(rng),
                    Err(_) => 1.0,
                }
            }
            Interference::Straggler { p, slowdown } => {
                if rng.gen::<f64>() < p.clamp(0.0, 1.0) {
                    slowdown.max(1.0)
                } else {
                    1.0
                }
            }
        }
    }
}

impl Default for Interference {
    /// Mild shared-cloud noise (log-normal, CV 0.2).
    fn default() -> Self {
        Interference::LogNormal { cv: 0.2 }
    }
}

/// Task-failure injection — the uncertainty source the paper defers to
/// future work ("we plan to include the estimation of task failure
/// probability").
///
/// A failed attempt consumes its container for the full attempt duration
/// (as a crashed Hadoop task would) and the task is re-queued for another
/// attempt.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FailureModel {
    /// Tasks never fail.
    #[default]
    None,
    /// Each attempt fails independently with probability `p`.
    Bernoulli {
        /// Per-attempt failure probability in `[0, 1)`.
        p: f64,
    },
}

impl FailureModel {
    /// Draws whether one task attempt fails.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        match *self {
            FailureModel::None => false,
            FailureModel::Bernoulli { p } => rng.gen::<f64>() < p.clamp(0.0, 0.999),
        }
    }

    /// The per-attempt failure probability.
    pub fn rate(&self) -> f64 {
        match *self {
            FailureModel::None => 0.0,
            FailureModel::Bernoulli { p } => p.clamp(0.0, 0.999),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_prob::rng::seeded_rng;

    #[test]
    fn none_is_identity() {
        let mut rng = seeded_rng(1);
        for _ in 0..10 {
            assert_eq!(Interference::None.draw(&mut rng), 1.0);
        }
    }

    #[test]
    fn lognormal_has_unit_mean() {
        let mut rng = seeded_rng(2);
        let i = Interference::LogNormal { cv: 0.3 };
        let n = 20_000;
        let mean = (0..n).map(|_| i.draw(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn lognormal_factors_positive() {
        let mut rng = seeded_rng(3);
        let i = Interference::LogNormal { cv: 0.8 };
        for _ in 0..1000 {
            assert!(i.draw(&mut rng) > 0.0);
        }
    }

    #[test]
    fn straggler_rate_matches_p() {
        let mut rng = seeded_rng(4);
        let i = Interference::Straggler { p: 0.25, slowdown: 4.0 };
        let n = 20_000;
        let stragglers = (0..n).filter(|_| i.draw(&mut rng) > 1.0).count();
        let rate = stragglers as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn straggler_clamps_degenerate_params() {
        let mut rng = seeded_rng(5);
        let i = Interference::Straggler { p: 2.0, slowdown: 0.5 };
        // p clamps to 1 → always straggler; slowdown clamps to ≥ 1.
        assert_eq!(i.draw(&mut rng), 1.0);
    }

    #[test]
    fn failure_model_rates() {
        let mut rng = seeded_rng(6);
        assert!(!FailureModel::None.draw(&mut rng));
        assert_eq!(FailureModel::None.rate(), 0.0);
        let f = FailureModel::Bernoulli { p: 0.2 };
        let n = 20_000;
        let fails = (0..n).filter(|_| f.draw(&mut rng)).count();
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn failure_model_clamps_p() {
        let mut rng = seeded_rng(7);
        let f = FailureModel::Bernoulli { p: 1.5 };
        assert!(f.rate() < 1.0);
        // p clamps below 1: some attempt eventually succeeds.
        assert!((0..20_000).any(|_| !f.draw(&mut rng)));
    }

    #[test]
    fn default_is_mild_lognormal() {
        assert_eq!(Interference::default(), Interference::LogNormal { cv: 0.2 });
    }
}
