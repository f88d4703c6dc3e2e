//! Differential and determinism properties of the two simulation engines.
//!
//! The indexed engine ([`Simulation::run`]) and the scan-based reference
//! ([`rush_oracle::engine::run`]) must produce **bit-identical**
//! results: the same job outcomes in the same order, the same makespan and
//! counters, the same RNG draw order (visible through durations), and the
//! same trace event sequence. Wall-clock `scheduler_time` is the only field
//! allowed to differ.
//!
//! The workload generator below deliberately crosses the hard cases:
//! heterogeneous node speeds, map/reduce barriers, data-locality
//! preferences, Bernoulli failures, log-normal interference, a
//! speculation-happy scheduler so duplicate-kill (including two duplicates
//! due at the same slot) is exercised, and a seeded spot-churn stream so
//! revocations land on busy containers.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rush_oracle::engine as naive;
use rush_sim::cluster::{CapacityChange, CapacityEvent, ClusterSpec};
use rush_sim::engine::{SimConfig, Simulation};
use rush_sim::job::{JobSpec, Phase, TaskSpec};
use rush_sim::outcome::SimResult;
use rush_sim::perturb::{FailureModel, Interference};
use rush_sim::scheduler::{fcfs_task_order, FcfsTaskOrder, Scheduler};
use rush_sim::view::ClusterView;
use rush_sim::{JobId, NodeId, SimError, Slot};
use rush_utility::TimeUtility;

/// Deterministically speculates on the active job with the most running
/// tasks — enough pressure to trigger duplicate kills on every run shape.
#[derive(Debug, Clone, Copy, Default)]
struct GreedySpeculator;

impl Scheduler for GreedySpeculator {
    fn name(&self) -> &str {
        "greedy-spec"
    }
    fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        FcfsTaskOrder.assign(view)
    }
    fn speculate(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        view.jobs
            .iter()
            .filter(|j| j.running_tasks > 0)
            .max_by_key(|j| (j.running_tasks, std::cmp::Reverse(j.id)))
            .map(|j| j.id)
    }
}

/// A seeded spot-churn stream for a cluster of `capacity` containers:
/// eight revokes and restocks a few slots apart, inside the window the
/// generated workloads run in. Valid by construction — a revoke leaves at
/// least one container in service, a restock returns no more than is out
/// — and `Simulation::new` re-checks it with `validate_capacity_events`.
fn churn_events(seed: u64, capacity: u32) -> Vec<CapacityEvent> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut in_service = capacity;
    let mut at: Slot = 0;
    (0..8)
        .map(|_| {
            at += rng.gen_range(1u64..8);
            let out = capacity - in_service;
            let change = if in_service > 1 && (out == 0 || rng.gen_bool(0.5)) {
                let n = rng.gen_range(1..in_service);
                in_service -= n;
                CapacityChange::Revoke { n }
            } else {
                let n = rng.gen_range(1..=out);
                in_service += n;
                CapacityChange::Restock { n }
            };
            CapacityEvent { at, change }
        })
        .collect()
}

/// One parameterized workload: `n_jobs` jobs with mixed map/reduce shapes
/// and node preferences on a 3-speed-grade cluster, under the churn stream
/// of seed `churn` if one is given.
fn build_sim(
    seed: u64,
    n_jobs: usize,
    containers_per_node: u32,
    fail_p: f64,
    cv: f64,
    trace: bool,
    churn: Option<u64>,
) -> Simulation {
    let cluster =
        ClusterSpec::new(vec![(0.8, containers_per_node), (1.0, containers_per_node), (1.3, containers_per_node)])
            .unwrap();
    let mut cfg = SimConfig::new(cluster)
        .with_remote_penalty(1.4)
        .with_trace(trace)
        .with_seed(seed);
    if fail_p > 0.0 {
        cfg = cfg.with_failures(FailureModel::Bernoulli { p: fail_p });
    }
    if cv > 0.0 {
        cfg = cfg.with_interference(Interference::LogNormal { cv });
    }
    if let Some(churn) = churn {
        cfg = cfg.with_capacity_events(churn_events(churn, 3 * containers_per_node));
    }
    let jobs: Vec<JobSpec> = (0..n_jobs)
        .map(|i| {
            // Derive per-job shape from the index so every (seed, n_jobs)
            // pair names exactly one workload.
            let maps = 1 + (i * 7 + seed as usize) % 6;
            let reduces = (i + seed as usize) % 3;
            let arrival = (i as Slot * 5) % 23;
            let mut b = JobSpec::builder(format!("j{i}")).arrival(arrival);
            for t in 0..maps {
                let mut task = TaskSpec::new(3.0 + ((i + t) % 9) as f64, Phase::Map);
                if t % 2 == 0 {
                    task = task.with_preference(NodeId(((i + t) % 3) as u32));
                }
                b = b.task(task);
            }
            for t in 0..reduces {
                b = b.task(TaskSpec::new(4.0 + (t % 5) as f64, Phase::Reduce));
            }
            b.utility(TimeUtility::constant(1.0).unwrap()).build().unwrap()
        })
        .collect();
    Simulation::new(cfg, jobs).unwrap()
}

/// Asserts everything except wall-clock scheduler time is identical.
fn assert_bit_identical(a: &SimResult, b: &SimResult) {
    assert_eq!(a.outcomes, b.outcomes, "per-job outcomes must match");
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.assignments, b.assignments);
    assert_eq!(a.misassignments, b.misassignments);
    assert_eq!(a.scheduler_invocations, b.scheduler_invocations);
    assert_eq!(a.failed_attempts, b.failed_attempts);
    assert_eq!(a.speculative_attempts, b.speculative_attempts);
    assert_eq!(a.killed_attempts, b.killed_attempts);
    assert_eq!(a.local_starts, b.local_starts);
    assert_eq!(a.remote_starts, b.remote_starts);
    assert_eq!(a.revoked_containers, b.revoked_containers);
    assert_eq!(a.restocked_containers, b.restocked_containers);
    assert_eq!(a.revoked_attempts, b.revoked_attempts);
    assert_eq!(a.trace, b.trace, "trace event sequences must match");
}

/// Speculates on every opportunity, on the first job with anything running.
#[derive(Debug)]
struct AlwaysSpeculate;

impl Scheduler for AlwaysSpeculate {
    fn name(&self) -> &str {
        "always-spec"
    }
    fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        FcfsTaskOrder.assign(view)
    }
    fn speculate(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        view.jobs.iter().find(|j| j.running_tasks > 0).map(|j| j.id)
    }
}

/// The fixed scenario the engines were first compared on: speculation
/// kills, failures, interference, heterogeneity, locality and the
/// map/reduce barrier at once on the paper testbed, under `events`.
fn paper_testbed_sim(events: Vec<CapacityEvent>) -> Simulation {
    let cfg = SimConfig::new(ClusterSpec::paper_testbed(2).unwrap())
        .with_interference(Interference::LogNormal { cv: 0.4 })
        .with_failures(FailureModel::Bernoulli { p: 0.15 })
        .with_remote_penalty(1.3)
        .with_trace(true)
        .with_seed(42)
        .with_capacity_events(events);
    let jobs: Vec<JobSpec> = (0..6)
        .map(|i| {
            JobSpec::builder(format!("j{i}"))
                .arrival(i * 3)
                .tasks((0..5).map(|t| {
                    TaskSpec::new(4.0 + t as f64, Phase::Map)
                        .with_preference(NodeId((t % 6) as u32))
                }))
                .task(TaskSpec::new(6.0, Phase::Reduce))
                .utility(TimeUtility::constant(1.0).unwrap())
                .build()
                .unwrap()
        })
        .collect();
    Simulation::new(cfg, jobs).unwrap()
}

#[test]
fn engines_agree_on_the_paper_testbed_scenario() {
    let indexed = paper_testbed_sim(Vec::new()).run(&mut AlwaysSpeculate).unwrap();
    let scanned = naive::run(paper_testbed_sim(Vec::new()), &mut AlwaysSpeculate).unwrap();
    assert_bit_identical(&indexed, &scanned);
}

#[test]
fn engines_agree_on_the_paper_testbed_scenario_under_capacity_churn() {
    let events = vec![
        CapacityEvent { at: 3, change: CapacityChange::Revoke { n: 4 } },
        CapacityEvent { at: 9, change: CapacityChange::Revoke { n: 3 } },
        CapacityEvent { at: 15, change: CapacityChange::Restock { n: 5 } },
        CapacityEvent { at: 22, change: CapacityChange::Revoke { n: 6 } },
        CapacityEvent { at: 31, change: CapacityChange::Restock { n: 8 } },
    ];
    let indexed = paper_testbed_sim(events.clone()).run(&mut AlwaysSpeculate).unwrap();
    let scanned = naive::run(paper_testbed_sim(events), &mut AlwaysSpeculate).unwrap();
    assert_bit_identical(&indexed, &scanned);
    // The churn actually bit: something was revoked while busy.
    assert!(indexed.revoked_attempts > 0);
}

#[test]
fn scan_engine_reports_the_same_errors() {
    /// A scheduler that always refuses to assign.
    struct Refusenik;
    impl Scheduler for Refusenik {
        fn name(&self) -> &str {
            "refusenik"
        }
        fn assign(&mut self, _view: &ClusterView<'_>) -> Option<JobId> {
            None
        }
    }
    let sim = |maps: usize, runtime: f64, cfg: SimConfig| {
        let job = JobSpec::builder("j")
            .tasks((0..maps).map(|_| TaskSpec::new(runtime, Phase::Map)))
            .utility(TimeUtility::constant(1.0).unwrap())
            .build()
            .unwrap();
        Simulation::new(cfg, vec![job]).unwrap()
    };
    let cfg = SimConfig::homogeneous(1, 1).with_max_slots(5);
    let err = naive::run(sim(2, 10.0, cfg), &mut fcfs_task_order()).unwrap_err();
    assert!(matches!(err, SimError::HorizonExceeded { unfinished: 1, .. }));

    let err = naive::run(sim(1, 5.0, SimConfig::homogeneous(1, 1)), &mut Refusenik).unwrap_err();
    assert!(matches!(err, SimError::SchedulerStalled { at: 0 }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole contract: indexed engine ≡ naive engine, bit for bit,
    /// across randomized seeds, fleet sizes, failures, interference and
    /// capacity churn.
    #[test]
    fn engines_agree_bit_for_bit(
        seed in 0u64..1000,
        n_jobs in 1usize..14,
        cpn in 1u32..5,
        fail in prop_oneof![Just(0.0), Just(0.15), Just(0.35)],
        cv in prop_oneof![Just(0.0), Just(0.4)],
        churn in prop_oneof![Just(None), (0u64..1000).prop_map(Some)],
    ) {
        let indexed = build_sim(seed, n_jobs, cpn, fail, cv, true, churn)
            .run(&mut GreedySpeculator)
            .unwrap();
        let scanned = naive::run(
            build_sim(seed, n_jobs, cpn, fail, cv, true, churn),
            &mut GreedySpeculator,
        )
        .unwrap();
        assert_bit_identical(&indexed, &scanned);
    }

    /// The engines also agree without speculation (pure FCFS path).
    #[test]
    fn engines_agree_without_speculation(
        seed in 0u64..1000,
        n_jobs in 1usize..10,
        fail in prop_oneof![Just(0.0), Just(0.25)],
    ) {
        let indexed = build_sim(seed, n_jobs, 2, fail, 0.3, true, None)
            .run(&mut fcfs_task_order())
            .unwrap();
        let scanned = naive::run(
            build_sim(seed, n_jobs, 2, fail, 0.3, true, None),
            &mut fcfs_task_order(),
        )
        .unwrap();
        assert_bit_identical(&indexed, &scanned);
    }

    /// Satellite: identical SimConfig + specs → bit-identical results
    /// across two fresh Simulations (run determinism).
    #[test]
    fn runs_are_deterministic(
        seed in 0u64..1000,
        n_jobs in 1usize..10,
    ) {
        let first = build_sim(seed, n_jobs, 3, 0.2, 0.5, true, None)
            .run(&mut GreedySpeculator)
            .unwrap();
        let second = build_sim(seed, n_jobs, 3, 0.2, 0.5, true, None)
            .run(&mut GreedySpeculator)
            .unwrap();
        assert_bit_identical(&first, &second);
    }

    /// Satellite: tracing must be pure observation — `record_trace` on vs
    /// off cannot change outcomes, counters or RNG consumption.
    #[test]
    fn trace_recording_does_not_change_outcomes(
        seed in 0u64..1000,
        n_jobs in 1usize..10,
    ) {
        let traced = build_sim(seed, n_jobs, 2, 0.2, 0.4, true, None)
            .run(&mut GreedySpeculator)
            .unwrap();
        let untraced = build_sim(seed, n_jobs, 2, 0.2, 0.4, false, None)
            .run(&mut GreedySpeculator)
            .unwrap();
        assert!(traced.trace.is_some());
        assert!(untraced.trace.is_none());
        assert_eq!(traced.outcomes, untraced.outcomes);
        assert_eq!(traced.makespan, untraced.makespan);
        assert_eq!(traced.assignments, untraced.assignments);
        assert_eq!(traced.scheduler_invocations, untraced.scheduler_invocations);
        assert_eq!(traced.failed_attempts, untraced.failed_attempts);
        assert_eq!(traced.speculative_attempts, untraced.speculative_attempts);
        assert_eq!(traced.killed_attempts, untraced.killed_attempts);
    }

    /// Outcomes arrive sorted by `(finish, id)` from both engines.
    #[test]
    fn outcomes_sorted_in_both_engines(
        seed in 0u64..1000,
        n_jobs in 2usize..12,
    ) {
        let check = |r: &SimResult| {
            assert!(r
                .outcomes
                .windows(2)
                .all(|w| (w[0].finish, w[0].id) < (w[1].finish, w[1].id)));
        };
        check(&build_sim(seed, n_jobs, 2, 0.1, 0.3, false, None).run(&mut GreedySpeculator).unwrap());
        check(&naive::run(
            build_sim(seed, n_jobs, 2, 0.1, 0.3, false, None),
            &mut GreedySpeculator,
        )
        .unwrap());
    }
}
