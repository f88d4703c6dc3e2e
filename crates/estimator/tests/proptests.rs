//! Property tests for the demand estimators.

use proptest::prelude::*;
use rush_estimator::{DistributionEstimator, EmpiricalEstimator, GaussianEstimator, MeanEstimator};

fn samples_strategy() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..200, 1..64)
}

proptest! {
    /// Every estimator returns a normalized PMF and a positive R for any
    /// sample set and remaining count.
    #[test]
    fn estimates_are_well_formed(samples in samples_strategy(), remaining in 0usize..80) {
        let mean_est = MeanEstimator::new(256).estimate(&samples, remaining).unwrap();
        let gauss = GaussianEstimator::new(256).estimate(&samples, remaining).unwrap();
        let emp = EmpiricalEstimator::new(256, 64).estimate(&samples, remaining).unwrap();
        for est in [&mean_est, &gauss, &emp] {
            prop_assert!(est.pmf.is_normalized());
            prop_assert!(est.mean_task_runtime >= 1.0);
            prop_assert!(est.pmf.bins() >= 2);
        }
        if remaining == 0 {
            prop_assert_eq!(gauss.pmf.quantile(0.99), 0);
        }
    }

    /// Mean demand scales (roughly linearly) with the remaining task count.
    #[test]
    fn demand_scales_with_remaining(samples in samples_strategy(), n in 1usize..40) {
        let de = GaussianEstimator::new(1024);
        let small = de.estimate(&samples, n).unwrap().pmf.mean();
        let large = de.estimate(&samples, n * 2).unwrap().pmf.mean();
        // Quantization adds up to one bin width of error per estimate.
        let tol = 0.1 * large + 2.0 * 1024.0_f64.max(1.0) / 256.0 + 50.0;
        prop_assert!((large - 2.0 * small).abs() < tol,
            "2x tasks should ~2x demand: {small} -> {large}");
    }

    /// The Gaussian estimator's high quantile dominates its mean, and the
    /// spread grows with sample variance.
    #[test]
    fn quantile_dominates_mean(samples in samples_strategy(), n in 1usize..40) {
        let est = GaussianEstimator::new(1024).estimate(&samples, n).unwrap();
        prop_assert!(est.pmf.quantile(0.95) as f64 + est.pmf.bin_width() as f64
            >= est.pmf.mean());
    }
}
