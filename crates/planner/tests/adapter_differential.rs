//! Differential proof of the kernel refactor: the kernel-backed
//! [`rush_planner::RushScheduler`] must behave **bit-identically** to the
//! frozen pre-kernel [`rush_oracle::scheduler::ReferenceScheduler`].
//!
//! Both schedulers are driven through the same randomized simulations —
//! heterogeneous node speeds, data-locality penalties, Bernoulli failures,
//! log-normal interference, and a speculation wrapper — and every field of
//! the resulting [`SimResult`] (including the full trace event sequence,
//! which encodes the exact assignment order) is compared. Wall-clock
//! `scheduler_time` is the only field allowed to differ.
//!
//! The workload generator mirrors the `engine_differential` corpus but
//! swaps the trivial FCFS-style scheduler for the RUSH CA unit and mixes
//! time-utility shapes so the onion peel and the insensitive-reserve gate
//! are both exercised.

use proptest::prelude::*;
use rush_core::RushConfig;
use rush_oracle::scheduler::ReferenceScheduler;
use rush_planner::RushScheduler;
use rush_sim::cluster::ClusterSpec;
use rush_sim::engine::{SimConfig, Simulation};
use rush_sim::job::{JobSpec, Phase, TaskSpec};
use rush_sim::outcome::SimResult;
use rush_sim::perturb::{FailureModel, Interference};
use rush_sim::scheduler::Scheduler;
use rush_sim::view::{ClusterView, TaskSample};
use rush_sim::{JobId, NodeId, Slot};
use rush_utility::TimeUtility;

/// One parameterized workload on a 3-speed-grade cluster. Per-job shape is
/// a function of the index so every `(seed, n_jobs)` pair names exactly
/// one workload; utilities alternate between sigmoid (time-aware) and
/// constant (insensitive) so both dispatch paths run.
fn build_sim(
    seed: u64,
    n_jobs: usize,
    containers_per_node: u32,
    fail_p: f64,
    cv: f64,
) -> Simulation {
    let cluster = ClusterSpec::new(vec![
        (0.8, containers_per_node),
        (1.0, containers_per_node),
        (1.3, containers_per_node),
    ])
    .unwrap();
    let mut cfg = SimConfig::new(cluster)
        .with_remote_penalty(1.4)
        .with_trace(true)
        .with_seed(seed);
    if fail_p > 0.0 {
        cfg = cfg.with_failures(FailureModel::Bernoulli { p: fail_p });
    }
    if cv > 0.0 {
        cfg = cfg.with_interference(Interference::LogNormal { cv });
    }
    let jobs: Vec<JobSpec> = (0..n_jobs)
        .map(|i| {
            let maps = 1 + (i * 7 + seed as usize) % 6;
            let reduces = (i + seed as usize) % 3;
            let arrival = (i as Slot * 5) % 23;
            // Two jobs share each label so the cross-job cold-start pools
            // engage, and utilities alternate time-aware / insensitive.
            let mut b = JobSpec::builder(format!("tpl{}", i / 2)).arrival(arrival);
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
            let utility = if i % 3 == 2 {
                TimeUtility::constant(1.0).unwrap()
            } else {
                TimeUtility::sigmoid(60.0 + (i as f64) * 15.0, 4.0, 0.05).unwrap()
            };
            b.utility(utility).budget(60 + i as Slot * 15).build().unwrap()
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
    assert_eq!(a.trace, b.trace, "trace event sequences must match");
}

fn run_both(seed: u64, n_jobs: usize, cpn: u32, fail: f64, cv: f64) -> (SimResult, SimResult) {
    let mut adapter = RushScheduler::new(RushConfig::default());
    let mut reference = ReferenceScheduler::new(RushConfig::default());
    let a = build_sim(seed, n_jobs, cpn, fail, cv).run(&mut adapter).unwrap();
    let b = build_sim(seed, n_jobs, cpn, fail, cv).run(&mut reference).unwrap();
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole contract: kernel adapter ≡ frozen reference, bit for bit,
    /// across randomized seeds, fleet sizes, failures and interference.
    #[test]
    fn adapter_matches_reference_bit_for_bit(
        seed in 0u64..1000,
        n_jobs in 1usize..10,
        cpn in 1u32..4,
        fail in prop_oneof![Just(0.0), Just(0.2)],
        cv in prop_oneof![Just(0.0), Just(0.4)],
    ) {
        let (a, b) = run_both(seed, n_jobs, cpn, fail, cv);
        assert_bit_identical(&a, &b);
    }

    /// The two CoRA modes (non-robust mean-based config) also agree.
    #[test]
    fn cora_modes_agree(seed in 0u64..1000, n_jobs in 1usize..8) {
        let mut adapter = RushScheduler::cora();
        let mut reference = ReferenceScheduler::cora();
        let a = build_sim(seed, n_jobs, 2, 0.1, 0.3).run(&mut adapter).unwrap();
        let b = build_sim(seed, n_jobs, 2, 0.1, 0.3).run(&mut reference).unwrap();
        assert_bit_identical(&a, &b);
    }

    /// Speculation wraps both schedulers identically: duplicate launches
    /// and kills depend only on the inner assignment stream.
    #[test]
    fn speculative_wrappers_agree(seed in 0u64..1000, n_jobs in 2usize..8) {
        let mut adapter =
            rush_sched::Speculative::new(RushScheduler::new(RushConfig::default()), 2.0);
        let mut reference =
            rush_sched::Speculative::new(ReferenceScheduler::new(RushConfig::default()), 2.0);
        let a = build_sim(seed, n_jobs, 2, 0.15, 0.5).run(&mut adapter).unwrap();
        let b = build_sim(seed, n_jobs, 2, 0.15, 0.5).run(&mut reference).unwrap();
        assert_bit_identical(&a, &b);
    }
}

/// Deterministic spot-checks pinning the corners proptest may not draw:
/// the one-job fast path, a failure+interference storm, and mid-run
/// `remove_job` behavior on both schedulers.
#[test]
fn fixed_corpus_agrees() {
    for &(seed, n_jobs, cpn, fail, cv) in &[
        (7u64, 1usize, 1u32, 0.0f64, 0.0f64),
        (11, 6, 2, 0.35, 0.5),
        (23, 9, 3, 0.15, 0.4),
        (104, 4, 1, 0.25, 0.0),
    ] {
        let (a, b) = run_both(seed, n_jobs, cpn, fail, cv);
        assert_bit_identical(&a, &b);
    }
}

/// The adapters agree on `name()` and plan introspection after a run.
#[test]
fn introspection_matches_after_identical_runs() {
    let mut adapter = RushScheduler::new(RushConfig::default());
    let mut reference = ReferenceScheduler::new(RushConfig::default());
    assert_eq!(Scheduler::name(&adapter), Scheduler::name(&reference));
    let a = build_sim(42, 5, 2, 0.1, 0.3).run(&mut adapter).unwrap();
    let b = build_sim(42, 5, 2, 0.1, 0.3).run(&mut reference).unwrap();
    assert_bit_identical(&a, &b);
    assert_eq!(adapter.last_plan(), reference.last_plan(), "final plans must match");
}

/// The adapter, counting how each replan's peel ran: the kernel's
/// telemetry, read after every call that replanned.
struct Replays {
    inner: RushScheduler,
    passes: usize,
    /// Passes after the first that replayed a recorded layer or more.
    warm: usize,
}

impl Replays {
    fn replanned(&mut self, stale: bool) {
        if !stale {
            return;
        }
        let replay = self.inner.kernel().plan_stats().peel_replay;
        self.warm += usize::from(self.passes > 0 && replay.delta && replay.resumed_at != Some(0));
        self.passes += 1;
    }

    fn stale(&self, view: &ClusterView<'_>) -> bool {
        let kernel = self.inner.kernel();
        !kernel.is_fresh(view.now) || kernel.capacity() != view.capacity
    }
}

impl Scheduler for Replays {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        self.inner.on_job_arrival(view, job);
    }

    fn on_task_complete(&mut self, view: &ClusterView<'_>, sample: TaskSample) {
        self.inner.on_task_complete(view, sample);
    }

    fn on_task_failed(&mut self, view: &ClusterView<'_>, sample: TaskSample) {
        self.inner.on_task_failed(view, sample);
    }

    fn on_capacity_change(&mut self, view: &ClusterView<'_>) {
        let stale = self.stale(view);
        self.inner.on_capacity_change(view);
        self.replanned(stale);
    }

    fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        let stale = self.stale(view);
        let job = self.inner.assign(view);
        self.replanned(stale);
        job
    }
}

/// Between two replans the clock has usually moved: the adapter's passes
/// replay the recorded peel through the tick rather than re-peeling, and
/// its runs stay bit-identical to the frozen reference.
#[test]
fn replans_replay_the_peel_across_slot_ticks() {
    for &(seed, n_jobs, cpn, fail, cv) in &[(23u64, 9usize, 3u32, 0.15f64, 0.4f64), (5, 9, 2, 0.0, 0.0)]
    {
        let inner = RushScheduler::new(RushConfig::default());
        let mut adapter = Replays { inner, passes: 0, warm: 0 };
        let mut reference = ReferenceScheduler::new(RushConfig::default());
        let a = build_sim(seed, n_jobs, cpn, fail, cv).run(&mut adapter).unwrap();
        let b = build_sim(seed, n_jobs, cpn, fail, cv).run(&mut reference).unwrap();
        assert_bit_identical(&a, &b);
        assert!(
            adapter.passes > 20 && adapter.warm * 2 > adapter.passes,
            "seed {seed}: {} of {} replans replayed",
            adapter.warm,
            adapter.passes
        );
    }
}
