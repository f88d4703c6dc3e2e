//! Property-based tests for delta-peeling: randomized scheduling-event
//! streams (arrival, task sample, cancel, task failure, capacity change,
//! overload episodes) driven through the incremental planner, with every
//! step checked two ways:
//!
//! * the incremental plan must be **bit-identical** to a from-scratch
//!   `compute_plan` pass — the delta replay and the resumed layer loop
//!   share the full path's arithmetic and both pipelines run the same
//!   mapper (on recycled buffers here), so there is no tolerance to hide
//!   behind; and
//! * the peel layering must agree with the frozen `rush_oracle::onion::peel`
//!   oracle (Algorithm 3 transcribed) to within bisection wobble, exactly
//!   as the non-incremental differential suite checks.

use proptest::prelude::*;
use rush_core::onion::{self, OnionJob, PeelState};
use rush_core::plan::{compute_plan, compute_plan_incremental, PlanInput, PlanState};
use rush_core::RushConfig;
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

fn build_input(raw: &RawJob) -> PlanInput<'static> {
    let (samples, remaining, failed, budget, weight, age) = raw;
    PlanInput {
        samples: samples.clone().into(),
        remaining_tasks: *remaining,
        running: 0,
        failed_attempts: *failed,
        age: *age,
        utility: TimeUtility::sigmoid(*budget, *weight, 10.0 / *budget).unwrap(),
    }
}

/// One scheduling event. Selectors are reduced modulo the current fleet
/// size when applied, so shrunk cases stay valid.
#[derive(Clone, Debug)]
enum Ev {
    /// A task completed: one more runtime sample for the estimator.
    Sample { sel: usize, val: u64 },
    /// A new job enters the cluster.
    Arrival(RawJob),
    /// A job is cancelled and leaves the fleet.
    Cancel { sel: usize },
    /// A task attempt failed (bumps the failure-inflation factor).
    Failure { sel: usize },
    /// The cluster shrinks or grows.
    Capacity { cap: u32 },
    /// Overload episode: one job suddenly needs far more work than the
    /// cluster can serve before its deadline.
    Overload { sel: usize, tasks: usize },
}

fn event_strategy() -> impl Strategy<Value = Ev> {
    prop_oneof![
        (0usize..64, 1u64..200).prop_map(|(sel, val)| Ev::Sample { sel, val }),
        job_strategy().prop_map(Ev::Arrival),
        (0usize..64).prop_map(|sel| Ev::Cancel { sel }),
        (0usize..64).prop_map(|sel| Ev::Failure { sel }),
        (4u32..64).prop_map(|cap| Ev::Capacity { cap }),
        (0usize..64, 200usize..600).prop_map(|(sel, tasks)| Ev::Overload { sel, tasks }),
    ]
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

/// Long steady-state stream: enough events to cross the strict-invariants
/// spot-check interval (64 passes) more than twice, so a build with
/// `--features strict-invariants` and debug assertions actually executes
/// the every-N-events from-scratch comparison inside
/// `compute_plan_incremental` — not just the per-step checks made here.
#[test]
fn long_stream_crosses_spot_check_interval() {
    let cfg = RushConfig::default();
    let mut jobs: Vec<PlanInput<'static>> = (0..6)
        .map(|i| {
            build_input(&(
                vec![40 + i * 11, 60 + i * 7],
                8 + i as usize * 5,
                0,
                600.0 + i as f64 * 300.0,
                1.0 + i as f64 * 0.5,
                0.0,
            ))
        })
        .collect();
    let mut state = PlanState::new();
    let _ = compute_plan_incremental(&cfg, 16, &jobs, &mut state).unwrap();
    for e in 0..140u64 {
        let k = (e as usize) % jobs.len();
        jobs[k].samples.to_mut().push(30 + (e * 13) % 70);
        let full = compute_plan(&cfg, 16, &jobs).unwrap();
        let inc = compute_plan_incremental(&cfg, 16, &jobs, &mut state).unwrap();
        assert_eq!(full, inc, "event {e}: incremental plan diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The maintained `PlanState` (peel trace + recycled mapping buffers +
    /// keyed solve cache) survives an arbitrary event stream: after *every*
    /// event the incremental plan is bit-identical to a from-scratch pass
    /// over the same inputs.
    #[test]
    fn event_stream_plan_bit_identical_to_full(
        raw in prop::collection::vec(job_strategy(), 1..10),
        events in prop::collection::vec(event_strategy(), 4..14),
        capacity0 in 4u32..64,
    ) {
        let cfg = RushConfig::default();
        let mut jobs: Vec<PlanInput<'static>> = raw.iter().map(build_input).collect();
        let mut capacity = capacity0;
        let mut state = PlanState::new();

        let full = compute_plan(&cfg, capacity, &jobs).unwrap();
        let inc = compute_plan_incremental(&cfg, capacity, &jobs, &mut state).unwrap();
        assert_plans_identical(&full, &inc)?;

        for ev in &events {
            match ev {
                Ev::Sample { sel, val } => {
                    let k = sel % jobs.len();
                    jobs[k].samples.to_mut().push(*val);
                }
                Ev::Arrival(raw) => jobs.push(build_input(raw)),
                Ev::Cancel { sel } => {
                    if jobs.len() > 1 {
                        let k = sel % jobs.len();
                        jobs.remove(k);
                    }
                }
                Ev::Failure { sel } => {
                    let k = sel % jobs.len();
                    jobs[k].failed_attempts += 1;
                }
                Ev::Capacity { cap } => capacity = *cap,
                Ev::Overload { sel, tasks } => {
                    let k = sel % jobs.len();
                    jobs[k].remaining_tasks = *tasks;
                }
            }
            let full = compute_plan(&cfg, capacity, &jobs).unwrap();
            let inc = compute_plan_incremental(&cfg, capacity, &jobs, &mut state).unwrap();
            assert_plans_identical(&full, &inc)?;
        }
    }

    /// A typed [`rush_core::ClusterModel`] spot-churn schedule drives the
    /// capacity trajectory while demands drift between events: at every
    /// revoke/restock of the lowered stream the incremental plan must stay
    /// bit-identical to a from-scratch pass. This is the capacity-churn
    /// regime the divergence-layer replay was built for — the whole spot
    /// pool vanishes and returns, cycle after cycle.
    #[test]
    fn cluster_model_spot_churn_bit_identical_to_full(
        raw in prop::collection::vec(job_strategy(), 2..8),
        reserved in 3u32..8,
        spot in 2u32..10,
        period in 4u64..16,
        outage in 1u64..4,
        cycles in 2u32..5,
        drift in 1u64..120,
    ) {
        let cfg = RushConfig::default();
        // Revoke the entire spot pool each cycle — the worst-case swing —
        // keeping the period longer than the outage so cycles don't
        // overlap (the model validator rejects double-revocations).
        let model = rush_core::ClusterModel::tiered(reserved, 0, spot)
            .with_spot_churn(1, 2, period.max(outage + 1), outage, spot, cycles);
        model.validate().unwrap();

        let mut jobs: Vec<PlanInput<'static>> = raw.iter().map(build_input).collect();
        let mut state = PlanState::new();
        let full = compute_plan(&cfg, model.total_capacity(), &jobs).unwrap();
        let inc =
            compute_plan_incremental(&cfg, model.total_capacity(), &jobs, &mut state).unwrap();
        assert_plans_identical(&full, &inc)?;

        for (step, ev) in model.events.iter().enumerate() {
            // Demand drift between capacity events: a fresh sample lands
            // on one job, as it would in a live cluster.
            let k = step % jobs.len();
            jobs[k].samples.to_mut().push(drift + (step as u64 * 13) % 70);
            let capacity = model.capacity_at(ev.at);
            let full = compute_plan(&cfg, capacity, &jobs).unwrap();
            let inc = compute_plan_incremental(&cfg, capacity, &jobs, &mut state).unwrap();
            assert_plans_identical(&full, &inc)?;
        }
    }

    /// The peel layer alone, under the same event kinds, agrees with the
    /// frozen naive oracle at every step of the stream. The incremental
    /// peel is checked bitwise against the optimized full peel (they share
    /// every probe's arithmetic), and both against the naive peel at a
    /// coarser bound that absorbs bisection wobble — the same two-tier
    /// comparison the non-incremental differential suite uses.
    #[test]
    fn event_stream_peel_matches_naive_oracle(
        raw in prop::collection::vec((1u64..4000, 100.0f64..3000.0, 1.0f64..5.0), 2..20),
        events in prop::collection::vec(event_strategy(), 4..14),
        capacity0 in 4u32..64,
    ) {
        let tolerance = 1e-6;
        let bound = 1e-3;
        let horizon = 1e6;
        let mut utilities: Vec<TimeUtility> = raw
            .iter()
            .map(|(_, budget, weight)| {
                TimeUtility::sigmoid(*budget, *weight, 10.0 / *budget).unwrap()
            })
            .collect();
        let mut demands: Vec<u64> = raw.iter().map(|(d, _, _)| *d).collect();
        // Job identity per index: `same_context` may only be passed when
        // the utility at every index is unchanged since the previous pass
        // (the contract `compute_plan` upholds by comparing utilities).
        let mut ids: Vec<usize> = (0..demands.len()).collect();
        let mut next_id = demands.len();
        let mut prev_ids = ids.clone();
        let mut capacity = capacity0;
        let mut state = PeelState::new();

        for step in 0..=events.len() {
            if step > 0 {
                match &events[step - 1] {
                    Ev::Sample { sel, val } => {
                        // Demand drift: what a fresh sample does to η.
                        let k = sel % demands.len();
                        demands[k] = demands[k] / 2 + val * 7;
                    }
                    Ev::Arrival((_, _, _, budget, weight, _)) => {
                        utilities.push(
                            TimeUtility::sigmoid(*budget, *weight, 10.0 / *budget).unwrap(),
                        );
                        demands.push(*budget as u64);
                        ids.push(next_id);
                        next_id += 1;
                    }
                    Ev::Cancel { sel } => {
                        if demands.len() > 1 {
                            let k = sel % demands.len();
                            demands.remove(k);
                            utilities.remove(k);
                            ids.remove(k);
                        }
                    }
                    Ev::Failure { sel } => {
                        let k = sel % demands.len();
                        demands[k] = demands[k].saturating_add(demands[k] / 4 + 1);
                    }
                    Ev::Capacity { cap } => capacity = *cap,
                    Ev::Overload { sel, tasks } => {
                        let k = sel % demands.len();
                        demands[k] = (*tasks as u64).saturating_mul(50);
                    }
                }
            }
            let jobs: Vec<OnionJob<'_>> = demands
                .iter()
                .zip(&utilities)
                .map(|(&d, u)| OnionJob { demand: d, utility: u })
                .collect();
            let same_context = ids == prev_ids;
            prev_ids.clone_from(&ids);

            let full = onion::peel(&jobs, capacity, tolerance, horizon).unwrap();
            let inc =
                onion::peel_incremental(&jobs, capacity, tolerance, horizon, same_context, &mut state)
                    .unwrap();
            let naive = rush_oracle::onion::peel(&jobs, capacity, tolerance, horizon).unwrap();

            // Tier 1: incremental ≡ full, bitwise.
            prop_assert_eq!(inc.len(), full.len());
            for (a, b) in inc.iter().zip(&full) {
                prop_assert_eq!(a.job, b.job, "step {}: peel order diverged", step);
                prop_assert_eq!(
                    a.level.to_bits(),
                    b.level.to_bits(),
                    "step {}: level bits diverged for job {}",
                    step,
                    a.job
                );
                prop_assert_eq!(
                    a.deadline.to_bits(),
                    b.deadline.to_bits(),
                    "step {}: deadline bits diverged for job {}",
                    step,
                    a.job
                );
                prop_assert_eq!(a.lax, b.lax);
            }

            // Tier 2: both match the frozen oracle up to bisection wobble.
            prop_assert_eq!(naive.len(), inc.len());
            let mut inc_by_job = inc.clone();
            inc_by_job.sort_by_key(|t| t.job);
            let mut ref_by_job = naive.clone();
            ref_by_job.sort_by_key(|t| t.job);
            for (f, r) in inc_by_job.iter().zip(&ref_by_job) {
                prop_assert_eq!(f.job, r.job);
                prop_assert_eq!(
                    f.lax,
                    r.lax,
                    "step {}: deadline-free classification diverged for job {}",
                    step,
                    f.job
                );
                prop_assert!(
                    (f.level - r.level).abs() <= bound,
                    "step {}: job {} level {} vs oracle {}",
                    step, f.job, f.level, r.level
                );
            }
            let mut inc_levels: Vec<f64> = inc.iter().map(|t| t.level).collect();
            let mut ref_levels: Vec<f64> = naive.iter().map(|t| t.level).collect();
            inc_levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ref_levels.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (f, r) in inc_levels.iter().zip(&ref_levels) {
                prop_assert!(
                    (f - r).abs() <= bound,
                    "step {}: layer level {} vs oracle {}",
                    step, f, r
                );
            }
        }
    }
}
