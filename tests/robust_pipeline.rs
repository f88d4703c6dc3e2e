//! Integration tests of the estimate → WCDE → peel → map pipeline across
//! crate boundaries, including the Fig. 3 coverage property at small scale.

use rush::core::plan::{compute_plan, PlanInput};
use rush::core::wcde::worst_case_quantile;
use rush::core::{CoreError, RushConfig};
use rush::estimator::{DistributionEstimator, GaussianEstimator};
use rush::prob::dist::{Continuous, Gaussian};
use rush::prob::rng::{derive_seed, seeded_rng};
use rush::utility::TimeUtility;

/// Coverage of the robust provision against the true demand distribution,
/// mirroring the paper's Fig. 3 at reduced repetition count.
fn coverage(n_samples: usize, total: usize, delta: f64, reps: usize) -> f64 {
    let theta = 0.9;
    let truth = Gaussian::new(60.0, 20.0).unwrap();
    let remaining = total - n_samples;
    let rem_dist =
        Gaussian::new(remaining as f64 * 60.0, (remaining as f64).sqrt() * 20.0).unwrap();
    let de = GaussianEstimator::new(1024);
    let mut covered = 0.0;
    for rep in 0..reps {
        let mut rng = seeded_rng(derive_seed(777, rep as u64));
        let samples: Vec<u64> =
            (0..n_samples).map(|_| truth.sample(&mut rng).round().max(1.0) as u64).collect();
        let est = de.estimate(&samples, remaining).unwrap();
        let eta = worst_case_quantile(&est.pmf, theta, delta).unwrap().eta;
        covered += rem_dist.cdf(eta as f64);
    }
    covered / reps as f64
}

#[test]
fn fig3_shape_few_samples_need_large_delta() {
    // With only 15 samples, delta = 0 misses the theta target...
    let weak = coverage(15, 101, 0.0, 30);
    assert!(weak < 0.9, "no-margin coverage {weak} should miss theta");
    // ...while delta = 0.7 clears it.
    let strong = coverage(15, 101, 0.7, 30);
    assert!(strong > 0.9, "robust coverage {strong} should clear theta");
}

#[test]
fn fig3_shape_more_samples_help() {
    let few = coverage(10, 101, 0.35, 30);
    let many = coverage(55, 101, 0.35, 30);
    assert!(many >= few, "coverage should improve with samples: {few} -> {many}");
    assert!(many > 0.9);
}

#[test]
fn plan_errors_propagate() {
    let cfg = RushConfig::default().with_theta(7.0);
    let jobs = vec![PlanInput {
        key: 0,
        generation: None,
        samples: vec![30].into(),
        remaining_tasks: 1,
        failed_attempts: 0,
        age: 0.0,
        utility: TimeUtility::constant(1.0).unwrap(),
    }];
    assert!(matches!(compute_plan(&cfg, 8, &jobs), Err(CoreError::InvalidTheta(_))));
}

#[test]
fn more_uncertainty_more_provision() {
    // Same mean, different spread: the robust demand must grow with the
    // observed variance.
    let tight: Vec<u64> = vec![60; 30];
    let wide: Vec<u64> = (0..30).map(|i| if i % 2 == 0 { 30 } else { 90 }).collect();
    let de = GaussianEstimator::new(1024);
    let (theta, delta) = (0.9, 0.7);
    let eta_tight =
        worst_case_quantile(&de.estimate(&tight, 20).unwrap().pmf, theta, delta).unwrap().eta;
    let eta_wide =
        worst_case_quantile(&de.estimate(&wide, 20).unwrap().pmf, theta, delta).unwrap().eta;
    assert!(
        eta_wide > eta_tight,
        "wide-spread samples must provision more: {eta_wide} vs {eta_tight}"
    );
}

#[test]
fn plan_is_deterministic() {
    let cfg = RushConfig::default();
    let jobs: Vec<PlanInput> = (0..6)
        .map(|i| PlanInput {
            key: i,
            generation: None,
            samples: vec![40 + i; 8].into(),
            remaining_tasks: 12,
            failed_attempts: 0,
            age: 10.0 * i as f64,
            utility: TimeUtility::sigmoid(300.0 + 40.0 * i as f64, 4.0, 0.03).unwrap(),
        })
        .collect();
    let a = compute_plan(&cfg, 16, &jobs).unwrap();
    let b = compute_plan(&cfg, 16, &jobs).unwrap();
    assert_eq!(a, b);
}
