//! Pinned results and one-engine properties of [`Simulation::run`].
//!
//! The engine's order of operations is the whole of its contract: which
//! due completion is processed first, which container a revocation claims,
//! which container a start acquires, and the order of RNG draws. Each of
//! them shows in the result of a fixed scenario, so the exact `SimResult`
//! of three scenarios is pinned here — the paper testbed with and without
//! capacity churn, and one seeded run crossing failures, interference,
//! speculation, locality and churn — plus a hand-built case where a
//! primary and its duplicate fall due in the same slot. The values were
//! recorded from the indexed engine this crate used to carry next to the
//! scan loop, when the two still agreed bit for bit.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rush_sim::cluster::{CapacityChange, CapacityEvent, ClusterSpec};
use rush_sim::engine::{SimConfig, Simulation};
use rush_sim::job::{JobSpec, Phase, TaskSpec};
use rush_sim::outcome::SimResult;
use rush_sim::perturb::{FailureModel, Interference};
use rush_sim::scheduler::{fcfs_task_order, FcfsTaskOrder, Scheduler};
use rush_sim::view::ClusterView;
use rush_sim::{JobId, NodeId, SimError, Slot};
use rush_utility::TimeUtility;

/// Speculates on the active job with the most running tasks — enough
/// pressure to trigger duplicate kills on every run shape.
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
    let cluster = ClusterSpec::new(vec![
        (0.8, containers_per_node),
        (1.0, containers_per_node),
        (1.3, containers_per_node),
    ])
    .unwrap();
    let mut cfg =
        SimConfig::new(cluster).with_remote_penalty(1.4).with_trace(trace).with_seed(seed);
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

/// Speculation kills, failures, interference, heterogeneity, locality and
/// the map/reduce barrier at once on the paper testbed, under `events`.
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

/// The churn stream the paper-testbed scenario runs under: revocations
/// that land on busy containers, and restocks between them.
fn paper_testbed_churn() -> Vec<CapacityEvent> {
    vec![
        CapacityEvent { at: 3, change: CapacityChange::Revoke { n: 4 } },
        CapacityEvent { at: 9, change: CapacityChange::Revoke { n: 3 } },
        CapacityEvent { at: 15, change: CapacityChange::Restock { n: 5 } },
        CapacityEvent { at: 22, change: CapacityChange::Revoke { n: 6 } },
        CapacityEvent { at: 31, change: CapacityChange::Restock { n: 8 } },
    ]
}

/// The pinned part of a [`SimResult`]: every counter the engine's order of
/// operations moves, each job's `(id, finish, runtime)` in outcome order,
/// and the trace's length and FNV-1a hash (of its CSV rendering), which
/// pins the event sequence itself.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    makespan: Slot,
    assignments: u64,
    failed_attempts: u64,
    killed_attempts: u64,
    speculative_attempts: u64,
    local_starts: u64,
    remote_starts: u64,
    revoked_containers: u64,
    restocked_containers: u64,
    revoked_attempts: u64,
    outcomes: Vec<(u32, Slot, Slot)>,
    trace_events: usize,
    trace_fnv: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn pin(r: &SimResult) -> Pin {
    Pin {
        makespan: r.makespan,
        assignments: r.assignments,
        failed_attempts: r.failed_attempts,
        killed_attempts: r.killed_attempts,
        speculative_attempts: r.speculative_attempts,
        local_starts: r.local_starts,
        remote_starts: r.remote_starts,
        revoked_containers: r.revoked_containers,
        restocked_containers: r.restocked_containers,
        revoked_attempts: r.revoked_attempts,
        outcomes: r.outcomes.iter().map(|o| (o.id.0, o.finish, o.runtime)).collect(),
        trace_events: r.trace.as_ref().map_or(0, |t| t.events().len()),
        trace_fnv: r.trace.as_ref().map_or(0, |t| fnv1a(t.to_csv().as_bytes())),
    }
}

#[test]
fn paper_testbed_result_is_pinned() {
    let r = paper_testbed_sim(Vec::new()).run(&mut AlwaysSpeculate).unwrap();
    assert_eq!(
        pin(&r),
        Pin {
            makespan: 33,
            assignments: 38,
            failed_attempts: 2,
            killed_attempts: 11,
            speculative_attempts: 11,
            local_starts: 16,
            remote_starts: 16,
            revoked_containers: 0,
            restocked_containers: 0,
            revoked_attempts: 0,
            outcomes: vec![
                (0, 9, 9),
                (1, 25, 22),
                (3, 26, 17),
                (5, 31, 16),
                (2, 33, 27),
                (4, 33, 21)
            ],
            trace_events: 110,
            trace_fnv: 0x6119_b0f6_1427_f771,
        }
    );
}

#[test]
fn paper_testbed_result_under_capacity_churn_is_pinned() {
    let r = paper_testbed_sim(paper_testbed_churn()).run(&mut AlwaysSpeculate).unwrap();
    assert_eq!(
        pin(&r),
        Pin {
            makespan: 54,
            assignments: 45,
            failed_attempts: 11,
            killed_attempts: 8,
            speculative_attempts: 10,
            local_starts: 12,
            remote_starts: 27,
            revoked_containers: 13,
            restocked_containers: 13,
            revoked_attempts: 10,
            outcomes: vec![
                (0, 21, 21),
                (2, 36, 30),
                (1, 39, 36),
                (3, 43, 34),
                (5, 45, 30),
                (4, 54, 42)
            ],
            trace_events: 122,
            trace_fnv: 0xaebd_47b5_7059_c8f8,
        }
    );
}

#[test]
fn seeded_run_with_failures_speculation_locality_and_churn_is_pinned() {
    let r = build_sim(7, 12, 3, 0.15, 0.4, true, Some(5)).run(&mut GreedySpeculator).unwrap();
    assert_eq!(
        pin(&r),
        Pin {
            makespan: 307,
            assignments: 67,
            failed_attempts: 14,
            killed_attempts: 1,
            speculative_attempts: 2,
            local_starts: 11,
            remote_starts: 22,
            revoked_containers: 17,
            restocked_containers: 9,
            revoked_attempts: 10,
            outcomes: vec![
                (0, 9, 9),
                (5, 16, 14),
                (10, 49, 45),
                (1, 63, 58),
                (6, 88, 81),
                (11, 92, 83),
                (2, 119, 109),
                (7, 154, 142),
                (3, 213, 198),
                (8, 229, 212),
                (4, 274, 254),
                (9, 307, 285),
            ],
            trace_events: 162,
            trace_fnv: 0x6419_3941_22b5_d266,
        }
    );
}

#[test]
fn engine_reports_horizon_and_stall_errors() {
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
    let err = sim(2, 10.0, cfg).run(&mut fcfs_task_order()).unwrap_err();
    assert!(matches!(err, SimError::HorizonExceeded { unfinished: 1, .. }));

    let err = sim(1, 5.0, SimConfig::homogeneous(1, 1)).run(&mut Refusenik).unwrap_err();
    assert!(matches!(err, SimError::SchedulerStalled { at: 0 }));
}

/// Asserts everything except wall-clock scheduler time is identical.
fn assert_same_run(a: &SimResult, b: &SimResult) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Identical `SimConfig` and specs give identical results across two
    /// fresh simulations, under failures, speculation and churn.
    #[test]
    fn runs_are_deterministic(
        seed in 0u64..1000,
        n_jobs in 1usize..10,
        churn in prop_oneof![Just(None), (0u64..1000).prop_map(Some)],
    ) {
        let first = build_sim(seed, n_jobs, 3, 0.2, 0.5, true, churn)
            .run(&mut GreedySpeculator)
            .unwrap();
        let second = build_sim(seed, n_jobs, 3, 0.2, 0.5, true, churn)
            .run(&mut GreedySpeculator)
            .unwrap();
        assert_same_run(&first, &second);
    }

    /// Tracing is pure observation: recording on or off changes no
    /// outcome, counter or RNG draw.
    #[test]
    fn trace_recording_does_not_change_outcomes(
        seed in 0u64..1000,
        n_jobs in 1usize..10,
    ) {
        let traced = build_sim(seed, n_jobs, 2, 0.2, 0.4, true, None)
            .run(&mut GreedySpeculator)
            .unwrap();
        let mut untraced = build_sim(seed, n_jobs, 2, 0.2, 0.4, false, None)
            .run(&mut GreedySpeculator)
            .unwrap();
        assert!(traced.trace.is_some());
        assert!(untraced.trace.is_none());
        untraced.trace = traced.trace.clone();
        assert_same_run(&traced, &untraced);
    }

    /// Outcomes arrive sorted by `(finish, id)`.
    #[test]
    fn outcomes_are_sorted_by_finish_then_id(
        seed in 0u64..1000,
        n_jobs in 2usize..12,
        churn in prop_oneof![Just(None), (0u64..1000).prop_map(Some)],
    ) {
        let r = build_sim(seed, n_jobs, 2, 0.1, 0.3, false, churn)
            .run(&mut GreedySpeculator)
            .unwrap();
        prop_assert!(r
            .outcomes
            .windows(2)
            .all(|w| (w[0].finish, w[0].id) < (w[1].finish, w[1].id)));
    }
}

/// Speculates only at slot `at`, on the first job with a running task.
#[derive(Debug)]
struct SpeculateAt(Slot);

impl Scheduler for SpeculateAt {
    fn name(&self) -> &str {
        "speculate-at"
    }
    fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        FcfsTaskOrder.assign(view)
    }
    fn speculate(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        if view.now != self.0 {
            return None;
        }
        view.jobs.iter().find(|j| j.running_tasks > 0).map(|j| j.id)
    }
}

#[test]
fn a_primary_and_its_duplicate_due_together_complete_in_container_order() {
    // Container 0 sits on a half-speed node, containers 1 and 2 on a unit
    // one. Task 0 runs 0..20 on container 0, task 1 runs 0..10 on
    // container 1. At slot 10 the duplicate of task 0 takes container 1
    // and runs 10..20, so both attempts of task 0 are due at 20. The
    // smaller container goes first: the primary completes with 20 useful
    // slots and the duplicate is killed with 10 wasted.
    let cluster = ClusterSpec::new(vec![(2.0, 1), (1.0, 2)]).unwrap();
    let job = JobSpec::builder("j")
        .tasks((0..2).map(|_| TaskSpec::new(10.0, Phase::Map)))
        .utility(TimeUtility::constant(1.0).unwrap())
        .build()
        .unwrap();
    let cfg = SimConfig::new(cluster).with_trace(true);
    let r = Simulation::new(cfg, vec![job]).unwrap().run(&mut SpeculateAt(10)).unwrap();
    assert_eq!((r.speculative_attempts, r.killed_attempts), (1, 1));
    let o = &r.outcomes[0];
    assert_eq!((o.finish, o.container_slots, o.wasted_slots), (20, 30, 10));
    let finished: Vec<(u32, Slot)> = r
        .trace
        .unwrap()
        .events()
        .iter()
        .filter_map(|e| match *e {
            rush_sim::trace::TraceEvent::TaskFinished { task, runtime, .. } => {
                Some((task.0, runtime))
            }
            _ => None,
        })
        .collect();
    assert_eq!(finished, vec![(1, 10), (0, 20)]);
}
