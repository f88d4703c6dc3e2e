//! Property-based tests for the CA pipeline's memo table: a pass through a
//! warm `PlanState` must be indistinguishable from a cold one, the
//! cache must hit, miss and prune exactly as promised, and the optimized
//! onion peel must produce the same layering as the reference
//! transcription of Algorithm 3.

use proptest::prelude::*;
use rush_core::onion::{self, OnionJob};
use rush_core::plan::{compute_plan, compute_plan_incremental, PlanInput, PlanState};
use rush_core::{config::EstimatorKind, RushConfig};
use rush_utility::TimeUtility;

/// (samples, remaining, failed, budget, weight, age)
type RawJob = (Vec<u64>, usize, usize, f64, f64, f64);

fn job_strategy() -> impl Strategy<Value = RawJob> {
    (
        prop::collection::vec(1u64..200, 0..24), // samples
        1usize..60,                              // remaining tasks
        0usize..4,                               // failed attempts
        100.0f64..3000.0,                        // utility budget
        1.0f64..5.0,                             // utility weight
        0.0f64..150.0,                           // age
    )
}

fn build_inputs(raw: &[RawJob]) -> Vec<PlanInput<'static>> {
    raw.iter()
        .zip(0..)
        .map(|((samples, remaining, failed, budget, weight, age), key)| PlanInput {
            key,
            generation: None,
            samples: samples.clone().into(),
            remaining_tasks: *remaining,
            failed_attempts: *failed,
            age: *age,
            utility: TimeUtility::sigmoid(*budget, *weight, 10.0 / *budget).unwrap(),
        })
        .collect()
}

/// Bit-exact plan comparison: every entry field, including float bits.
fn assert_plans_identical(
    a: &rush_core::plan::Plan,
    b: &rush_core::plan::Plan,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.entries.len(), b.entries.len());
    for (x, y) in a.entries.iter().zip(&b.entries) {
        prop_assert_eq!(x.eta, y.eta);
        prop_assert_eq!(x.task_len, y.task_len);
        prop_assert_eq!(x.target.to_bits(), y.target.to_bits());
        prop_assert_eq!(x.level.to_bits(), y.level.to_bits());
        prop_assert_eq!(x.desired_now, y.desired_now);
        prop_assert_eq!(x.planned_completion, y.planned_completion);
        prop_assert_eq!(x.impossible, y.impossible);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The memoized path must be bit-identical to the uncached one across a
    /// fuzzed (θ, δ, samples) grid — cold cache, warm cache, and warm cache
    /// after a single-job mutation (the steady-state scheduling event).
    #[test]
    fn memoized_plan_bit_identical_to_uncached(
        raw in prop::collection::vec(job_strategy(), 1..12),
        theta in 0.55f64..0.99,
        delta in 0.05f64..1.5,
        capacity in 4u32..64,
        mutate_sample in 1u64..200,
    ) {
        let cfg = RushConfig { theta, delta, ..RushConfig::default() };
        let mut jobs = build_inputs(&raw);
        let n = jobs.len() as u64;
        let mut state = PlanState::new();

        // Cold cache (all misses) and warm cache (all hits) both match.
        let uncached = compute_plan(&cfg, capacity, &jobs).unwrap();
        let cold = compute_plan_incremental(&cfg, capacity, &jobs, &mut state).unwrap();
        assert_plans_identical(&uncached, &cold)?;
        prop_assert_eq!((state.cache().hits(), state.cache().misses()), (0, n));
        let warm = compute_plan_incremental(&cfg, capacity, &jobs, &mut state).unwrap();
        assert_plans_identical(&uncached, &warm)?;
        prop_assert_eq!((state.cache().hits(), state.cache().misses()), (n, n));

        // One scheduling event: mutate a single job, replan through the
        // warm cache, and compare against a from-scratch plan.
        let k = raw.len() / 2;
        jobs[k].samples.to_mut().push(mutate_sample);
        let after_uncached = compute_plan(&cfg, capacity, &jobs).unwrap();
        let after_cached = compute_plan_incremental(&cfg, capacity, &jobs, &mut state).unwrap();
        assert_plans_identical(&after_uncached, &after_cached)?;
        prop_assert_eq!(state.cache().misses(), n + 1, "only the mutated job is re-solved");
        prop_assert_eq!(state.cache().len(), jobs.len());
    }

    /// The cache keys on the full estimator configuration: switching the
    /// estimator kind must never serve stale entries.
    #[test]
    fn cache_never_leaks_across_estimator_kinds(
        raw in prop::collection::vec(job_strategy(), 1..8),
        capacity in 4u32..64,
    ) {
        let jobs = build_inputs(&raw);
        let mut state = PlanState::new();
        for kind in [
            EstimatorKind::Gaussian,
            EstimatorKind::Mean,
            EstimatorKind::Empirical { resamples: 64 },
        ] {
            let cfg = RushConfig { estimator: kind, ..RushConfig::default() };
            let uncached = compute_plan(&cfg, capacity, &jobs).unwrap();
            let cached = compute_plan_incremental(&cfg, capacity, &jobs, &mut state).unwrap();
            assert_plans_identical(&uncached, &cached)?;
        }
        prop_assert_eq!(state.cache().hits(), 0, "no entry may survive an estimator switch");
    }

    /// Differential test: the optimized peel (incremental committed index,
    /// persistent probe scratch, warm-started galloping bisection) layers
    /// jobs like the reference transcription of Algorithm 3. The two probe
    /// different level sequences, so each converged layer boundary carries
    /// an O(tolerance) wobble that can compound across layers when jobs are
    /// near-tied; running the comparison at a fine tolerance (1e-6) and
    /// checking agreement at a much coarser bound (1e-3) makes the test
    /// sharp on the algorithm while insensitive to bisection noise.
    #[test]
    fn optimized_peel_matches_reference_algorithm(
        raw in prop::collection::vec((1u64..4000, 100.0f64..3000.0, 1.0f64..5.0), 1..40),
        capacity in 4u32..64,
    ) {
        let tolerance = 1e-6;
        let bound = 1e-3;
        let horizon = 1e6;
        let utilities: Vec<TimeUtility> = raw
            .iter()
            .map(|(_, budget, weight)| TimeUtility::sigmoid(*budget, *weight, 10.0 / *budget).unwrap())
            .collect();
        let jobs: Vec<OnionJob> = raw
            .iter()
            .zip(&utilities)
            .map(|(&(demand, _, _), &utility)| OnionJob { demand, utility, age: 0.0 })
            .collect();
        let fast = onion::peel(&jobs, capacity, tolerance, horizon).unwrap();
        let reference = rush_oracle::onion::peel(&jobs, capacity, tolerance, horizon).unwrap();

        // Every job peels exactly once in both.
        prop_assert_eq!(fast.len(), jobs.len());
        prop_assert_eq!(reference.len(), jobs.len());
        let mut fast_by_job = fast.clone();
        fast_by_job.sort_by_key(|t| t.job);
        let mut ref_by_job = reference.clone();
        ref_by_job.sort_by_key(|t| t.job);
        for (f, r) in fast_by_job.iter().zip(&ref_by_job) {
            prop_assert_eq!(f.job, r.job);
            prop_assert_eq!(f.lax, r.lax, "deadline-free classification diverged for job {}", f.job);
            prop_assert!(
                (f.level - r.level).abs() <= bound,
                "job {}: level {} vs reference {}",
                f.job, f.level, r.level
            );
            // Deadlines are NOT compared: `U⁻¹` is ill-conditioned where
            // the utility is nearly flat, so an O(tolerance) level wobble
            // legitimately moves a deadline by a large time span.
        }
        // The sorted level vector (the max-min objective itself) agrees
        // layer by layer.
        let mut fast_levels: Vec<f64> = fast.iter().map(|t| t.level).collect();
        let mut ref_levels: Vec<f64> = reference.iter().map(|t| t.level).collect();
        fast_levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ref_levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (f, r) in fast_levels.iter().zip(&ref_levels) {
            prop_assert!((f - r).abs() <= bound, "layer level {} vs {}", f, r);
        }
    }
}

/// What a job's generation decides: a kept generation with kept counts is
/// served from its entry, a new generation over the same samples still hits
/// on the fingerprint, and new counts or new samples miss. Every pass still
/// equals a cold one.
#[test]
fn generations_and_counts_decide_what_is_solved() {
    let cfg = RushConfig::default();
    let raw: Vec<RawJob> = (0..6u64)
        .map(|i| (vec![40 + i * 7; 4 + i as usize], 5 + i as usize, 0, 300.0 + 90.0 * i as f64, 2.0, 0.0))
        .collect();
    let mut jobs: Vec<PlanInput<'_>> =
        build_inputs(&raw).into_iter().map(|j| PlanInput { generation: Some(0), ..j }).collect();
    let mut state = PlanState::new();
    let mut pass = |jobs: &[PlanInput<'_>]| {
        let warm = compute_plan_incremental(&cfg, 16, jobs, &mut state).unwrap();
        assert_eq!(warm, compute_plan(&cfg, 16, jobs).unwrap());
        (state.cache().misses(), state.cache().hits())
    };
    assert_eq!(pass(&jobs), (6, 0));
    jobs[0].generation = Some(1);
    jobs[1].remaining_tasks += 1;
    jobs[2].failed_attempts += 1;
    jobs[3].samples.to_mut().push(70);
    jobs[3].generation = Some(1);
    assert_eq!(pass(&jobs), (9, 3));
}
