//! Baseline completion-time-aware schedulers, reimplemented on the
//! [`rush_sim`] scheduler SPI.
//!
//! The RUSH paper (ICDCS 2016, Sec. V-B) compares against three baselines:
//!
//! * [`Fifo`] — Hadoop's default: jobs run in arrival order; a later job
//!   receives containers only when every task of the earlier jobs has
//!   already been handed a container. This is the head-of-line blocking
//!   the paper's Fig. 4 blames for missed deadlines.
//! * [`Edf`] — earliest-deadline-first on the jobs' time budgets; optimal
//!   for preemptive single-machine deadline scheduling but blind to
//!   completion-time *sensitivity*.
//! * [`Rrh`] — the risk-reward heuristic of Irwin et al. (HPDC'04): each
//!   container goes to the job with the largest expected utility gain from
//!   one more container, weighed against the opportunity cost of taking it
//!   from the pool.
//!
//! [`Fair`] (equal instantaneous share, the YARN fair scheduler's job-level
//! behaviour) is included for the ablations even though the paper excludes
//! it from the time-aware comparison.
//!
//! # Example
//!
//! ```
//! use rush_sched::{Edf, Fifo};
//! use rush_sim::Scheduler;
//!
//! let fifo = Fifo::new();
//! let edf = Edf::new();
//! assert_eq!(fifo.name(), "FIFO");
//! assert_eq!(edf.name(), "EDF");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Algorithm crate: no exact float compares, no panic family in library code
// (DESIGN.md §9).
#![cfg_attr(
    not(test),
    deny(
        clippy::float_cmp,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
    )
)]

use rush_sim::view::{ClusterView, JobView};
use rush_sim::{JobId, Scheduler};

/// Default per-task runtime guess (slots) before any sample exists —
/// matches the RUSH cold prior so baselines are not handicapped.
const DEFAULT_TASK_RUNTIME: f64 = 60.0;

/// Mean observed task runtime, or the default prior when cold.
fn est_task_runtime(job: &JobView) -> f64 {
    job.mean_sample().unwrap_or(DEFAULT_TASK_RUNTIME).max(1.0)
}

/// Job-level FIFO: strict arrival order.
///
/// All containers go to the earliest-arrived job that still has unstarted
/// tasks; later jobs wait. Equivalent to Hadoop's default scheduler.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl Fifo {
    /// Creates a FIFO scheduler.
    pub fn new() -> Self {
        Fifo
    }
}

impl Scheduler for Fifo {
    fn name(&self) -> &str {
        "FIFO"
    }

    fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        view.jobs
            .iter()
            .filter(|j| j.runnable_tasks > 0)
            .min_by_key(|j| (j.arrival, j.id))
            .map(|j| j.id)
    }
}

/// Earliest-deadline-first on the jobs' absolute deadlines
/// (`arrival + time budget`).
///
/// Jobs without a declared budget (completion-time-insensitive) sort last.
/// EDF is deadline-optimal for preemptive uniprocessor scheduling but has
/// no notion of how much *utility* is lost when a deadline slips.
#[derive(Debug, Clone, Copy, Default)]
pub struct Edf;

impl Edf {
    /// Creates an EDF scheduler.
    pub fn new() -> Self {
        Edf
    }
}

impl Scheduler for Edf {
    fn name(&self) -> &str {
        "EDF"
    }

    fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        view.jobs
            .iter()
            .filter(|j| j.runnable_tasks > 0)
            .min_by_key(|j| {
                let deadline = j.budget.map(|b| j.arrival + b).unwrap_or(u64::MAX);
                (deadline, j.arrival, j.id)
            })
            .map(|j| j.id)
    }
}

/// The risk-reward heuristic (Irwin et al., HPDC'04).
///
/// Each free container is auctioned: every job bids its *expected utility
/// gain* from running one more task now — the difference between its
/// utility at the completion time projected with one extra container and
/// without it — normalized by the container time consumed (the opportunity
/// cost). The steepest utility cliffs bid highest, which is why the paper
/// observes RRH "favors heavily the completion-time critical jobs".
#[derive(Debug, Clone, Copy, Default)]
pub struct Rrh;

impl Rrh {
    /// Creates an RRH scheduler.
    pub fn new() -> Self {
        Rrh
    }

    /// The bid of one job for one container.
    fn bid(job: &JobView, now: u64) -> f64 {
        let r = est_task_runtime(job);
        let work = job.remaining_tasks() as f64 * r;
        let age = job.age(now) as f64;
        let cur = job.running_tasks as f64;
        // Projected completion with and without one extra container.
        let t_with = age + work / (cur + 1.0);
        let t_without = age + work / cur.max(0.5);
        let gain = job.utility.utility(t_with) - job.utility.utility(t_without);
        // Opportunity cost: one container for one task runtime.
        gain.max(0.0) / r
    }
}

impl Scheduler for Rrh {
    fn name(&self) -> &str {
        "RRH"
    }

    fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        view.jobs
            .iter()
            .filter(|j| j.runnable_tasks > 0)
            .map(|j| (j, Self::bid(j, view.now)))
            .max_by(|(a, ba), (b, bb)| {
                ba.total_cmp(bb)
                    .then_with(|| (b.arrival, b.id).cmp(&(a.arrival, a.id)))
            })
            .map(|(j, _)| j.id)
    }
}

/// Instantaneous fair share: each free container goes to the runnable job
/// currently holding the fewest containers (weighted by priority).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fair;

impl Fair {
    /// Creates a fair scheduler.
    pub fn new() -> Self {
        Fair
    }
}

impl Scheduler for Fair {
    fn name(&self) -> &str {
        "Fair"
    }

    fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        view.jobs
            .iter()
            .filter(|j| j.runnable_tasks > 0)
            .min_by(|a, b| {
                let sa = a.running_tasks as f64 / a.priority.max(1) as f64;
                let sb = b.running_tasks as f64 / b.priority.max(1) as f64;
                sa.total_cmp(&sb).then((a.arrival, a.id).cmp(&(b.arrival, b.id)))
            })
            .map(|j| j.id)
    }
}

/// Hadoop-style **speculative execution** wrapper: delegates all scheduling
/// to the inner scheduler and, when containers would otherwise idle,
/// duplicates the longest-running attempt of the job whose straggler looks
/// worst (a LATE-flavoured heuristic — Zaharia et al., OSDI'08, the
/// uncertainty-mitigation approach the RUSH paper's related work contrasts
/// with robust provisioning).
///
/// A job is a speculation candidate when its oldest running attempt has
/// been running longer than `threshold ×` its mean observed task runtime.
#[derive(Debug, Clone, Copy)]
pub struct Speculative<S> {
    inner: S,
    threshold: f64,
}

impl<S: Scheduler> Speculative<S> {
    /// Wraps `inner` with straggler speculation at the given slowdown
    /// threshold (≥ 1; Hadoop's default progress heuristic is roughly 1.5).
    pub fn new(inner: S, threshold: f64) -> Self {
        Speculative { inner, threshold: threshold.max(1.0) }
    }

    /// The inner scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Scheduler> Scheduler for Speculative<S> {
    fn name(&self) -> &str {
        "Speculative"
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: JobId) {
        self.inner.on_job_arrival(view, job);
    }

    fn on_task_complete(&mut self, view: &ClusterView<'_>, sample: rush_sim::view::TaskSample) {
        self.inner.on_task_complete(view, sample);
    }

    fn on_task_failed(&mut self, view: &ClusterView<'_>, sample: rush_sim::view::TaskSample) {
        self.inner.on_task_failed(view, sample);
    }

    fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        self.inner.assign(view)
    }

    fn speculate(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        view.jobs
            .iter()
            .filter(|j| j.running_tasks > 0 && !j.samples.is_empty())
            .filter_map(|j| {
                let start = j.oldest_running_start?;
                let elapsed = view.now.saturating_sub(start) as f64;
                let mean = j.mean_sample()?;
                let slowdown = elapsed / mean.max(1.0);
                (slowdown > self.threshold).then_some((j.id, slowdown))
            })
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_sim::Slot;
    use rush_utility::{Sensitivity, TimeUtility};

    fn jv(
        id: u32,
        arrival: Slot,
        runnable: usize,
        running: usize,
        budget: Option<Slot>,
        utility: TimeUtility,
        priority: u32,
    ) -> JobView {
        JobView {
            id: JobId(id),
            label: format!("j{id}"),
            arrival,
            utility,
            priority,
            sensitivity: Sensitivity::Sensitive,
            budget,
            total_tasks: runnable + running + 2,
            pending_tasks: runnable,
            runnable_tasks: runnable,
            running_tasks: running,
            completed_tasks: 2,
            failed_attempts: 0,
            oldest_running_start: None,
            samples: vec![30, 30],
        }
    }

    fn constant() -> TimeUtility {
        TimeUtility::constant(1.0).unwrap()
    }

    #[test]
    fn fifo_picks_earliest_arrival() {
        let jobs = vec![
            jv(0, 10, 3, 0, None, constant(), 1),
            jv(1, 5, 3, 0, None, constant(), 1),
        ];
        let view = ClusterView { now: 20, capacity: 4, free_containers: 4, jobs: &jobs };
        assert_eq!(Fifo::new().assign(&view), Some(JobId(1)));
    }

    #[test]
    fn fifo_moves_on_when_head_exhausted() {
        let jobs = vec![
            jv(0, 5, 0, 3, None, constant(), 1), // head: everything started
            jv(1, 10, 3, 0, None, constant(), 1),
        ];
        let view = ClusterView { now: 20, capacity: 4, free_containers: 1, jobs: &jobs };
        assert_eq!(Fifo::new().assign(&view), Some(JobId(1)));
    }

    #[test]
    fn edf_orders_by_absolute_deadline() {
        let jobs = vec![
            jv(0, 0, 2, 0, Some(500), constant(), 1),  // deadline 500
            jv(1, 100, 2, 0, Some(200), constant(), 1), // deadline 300
        ];
        let view = ClusterView { now: 150, capacity: 4, free_containers: 2, jobs: &jobs };
        assert_eq!(Edf::new().assign(&view), Some(JobId(1)));
    }

    #[test]
    fn edf_puts_budgetless_jobs_last() {
        let jobs = vec![
            jv(0, 0, 2, 0, None, constant(), 1),
            jv(1, 50, 2, 0, Some(1000), constant(), 1),
        ];
        let view = ClusterView { now: 60, capacity: 4, free_containers: 2, jobs: &jobs };
        assert_eq!(Edf::new().assign(&view), Some(JobId(1)));
    }

    #[test]
    fn rrh_prefers_the_steep_cliff() {
        let steep = TimeUtility::sigmoid(100.0, 5.0, 0.5).unwrap();
        let gentle = TimeUtility::sigmoid(100.0, 5.0, 0.01).unwrap();
        // 3 remaining tasks x 30 slots at age 40: one extra container moves
        // the projected finish from 130 (past the cliff at 100) to 85
        // (before it) — a huge gain for the steep job, marginal for the
        // gentle one.
        let jobs = vec![
            jv(0, 0, 2, 1, Some(100), gentle, 1),
            jv(1, 0, 2, 1, Some(100), steep, 1),
        ];
        let view = ClusterView { now: 40, capacity: 8, free_containers: 2, jobs: &jobs };
        assert_eq!(Rrh::new().assign(&view), Some(JobId(1)));
    }

    #[test]
    fn rrh_ignores_insensitive_jobs_when_a_sensitive_one_bids() {
        let jobs = vec![
            jv(0, 0, 4, 1, None, constant(), 1), // flat utility: zero gain
            jv(1, 0, 4, 1, Some(200), TimeUtility::sigmoid(200.0, 5.0, 0.1).unwrap(), 1),
        ];
        let view = ClusterView { now: 100, capacity: 8, free_containers: 1, jobs: &jobs };
        assert_eq!(Rrh::new().assign(&view), Some(JobId(1)));
    }

    #[test]
    fn fair_balances_running_counts() {
        let jobs = vec![
            jv(0, 0, 3, 4, None, constant(), 1),
            jv(1, 10, 3, 1, None, constant(), 1),
        ];
        let view = ClusterView { now: 20, capacity: 8, free_containers: 1, jobs: &jobs };
        assert_eq!(Fair::new().assign(&view), Some(JobId(1)));
    }

    #[test]
    fn fair_weights_by_priority() {
        // Equal running counts, but job 1 has 4x the priority: its weighted
        // share is smaller, so it gets the container.
        let jobs = vec![
            jv(0, 0, 3, 2, None, constant(), 1),
            jv(1, 10, 3, 2, None, constant(), 4),
        ];
        let view = ClusterView { now: 20, capacity: 8, free_containers: 1, jobs: &jobs };
        assert_eq!(Fair::new().assign(&view), Some(JobId(1)));
    }

    #[test]
    fn all_return_none_when_nothing_runnable() {
        let jobs = vec![jv(0, 0, 0, 2, Some(10), constant(), 1)];
        let view = ClusterView { now: 5, capacity: 4, free_containers: 2, jobs: &jobs };
        assert_eq!(Fifo::new().assign(&view), None);
        assert_eq!(Edf::new().assign(&view), None);
        assert_eq!(Rrh::new().assign(&view), None);
        assert_eq!(Fair::new().assign(&view), None);
    }

    #[test]
    fn names() {
        assert_eq!(Fifo::new().name(), "FIFO");
        assert_eq!(Edf::new().name(), "EDF");
        assert_eq!(Rrh::new().name(), "RRH");
        assert_eq!(Fair::new().name(), "Fair");
    }

    #[test]
    fn speculative_wrapper_detects_stragglers() {
        let mut jobs = vec![jv(0, 0, 0, 2, None, constant(), 1)];
        jobs[0].oldest_running_start = Some(0);
        jobs[0].samples = vec![10, 10];
        // At now=40, the oldest attempt has run 4x the mean: speculate.
        let view = ClusterView { now: 40, capacity: 4, free_containers: 1, jobs: &jobs };
        let mut s = Speculative::new(Fifo::new(), 1.5);
        assert_eq!(s.speculate(&view), Some(JobId(0)));
        // At now=12 the slowdown is only 1.2: no speculation.
        let view = ClusterView { now: 12, capacity: 4, free_containers: 1, jobs: &jobs };
        assert_eq!(s.speculate(&view), None);
        // Delegation still works.
        assert_eq!(Scheduler::name(&s), "Speculative");
        assert_eq!(s.inner().name(), "FIFO");
    }

    #[test]
    fn speculative_end_to_end_beats_plain_fifo_on_stragglers() {
        use rush_sim::engine::{SimConfig, Simulation};
        use rush_sim::job::{JobSpec, Phase, TaskSpec};
        use rush_sim::perturb::Interference;
        // Straggler-heavy cluster: 25% of attempts run 8x slower. With free
        // capacity, speculation re-runs the stragglers and the makespan
        // drops; determinism comes from the fixed seed.
        let job = JobSpec::builder("straggly")
            .tasks((0..16).map(|_| TaskSpec::new(10.0, Phase::Map)))
            .utility(constant())
            .build()
            .unwrap();
        let cfg = |seed| {
            SimConfig::homogeneous(2, 4)
                .with_interference(Interference::Straggler { p: 0.25, slowdown: 8.0 })
                .with_seed(seed)
        };
        let mut total_plain = 0u64;
        let mut total_spec = 0u64;
        let mut speculated = 0u64;
        for seed in 0..8 {
            let plain = Simulation::new(cfg(seed), vec![job.clone()])
                .unwrap()
                .run(&mut Fifo::new())
                .unwrap();
            let spec = Simulation::new(cfg(seed), vec![job.clone()])
                .unwrap()
                .run(&mut Speculative::new(Fifo::new(), 1.5))
                .unwrap();
            total_plain += plain.makespan;
            total_spec += spec.makespan;
            speculated += spec.speculative_attempts;
        }
        assert!(speculated > 0, "stragglers must trigger speculation");
        assert!(
            total_spec < total_plain,
            "speculation should cut straggler makespan: {total_spec} vs {total_plain}"
        );
    }

    #[test]
    fn end_to_end_fifo_blocks_head_of_line() {
        use rush_sim::engine::{SimConfig, Simulation};
        use rush_sim::job::{JobSpec, Phase, TaskSpec};
        // A long head job then a short urgent one: FIFO blocks the short
        // job until the head's tasks have all started.
        let long = JobSpec::builder("long")
            .arrival(0)
            .tasks((0..8).map(|_| TaskSpec::new(50.0, Phase::Map)))
            .utility(constant())
            .build()
            .unwrap();
        let short = JobSpec::builder("short")
            .arrival(1)
            .tasks((0..2).map(|_| TaskSpec::new(5.0, Phase::Map)))
            .utility(TimeUtility::sigmoid(20.0, 5.0, 0.5).unwrap())
            .budget(20)
            .build()
            .unwrap();
        let r = Simulation::new(SimConfig::homogeneous(1, 2), vec![long, short])
            .unwrap()
            .run(&mut Fifo::new())
            .unwrap();
        let short_o = r.outcomes.iter().find(|o| o.label == "short").unwrap();
        assert!(!short_o.met_budget(), "FIFO must miss the short job's budget");
    }

    #[test]
    fn end_to_end_edf_rescues_the_urgent_job() {
        use rush_sim::engine::{SimConfig, Simulation};
        use rush_sim::job::{JobSpec, Phase, TaskSpec};
        let long = JobSpec::builder("long")
            .arrival(0)
            .tasks((0..8).map(|_| TaskSpec::new(50.0, Phase::Map)))
            .utility(constant())
            .budget(100_000)
            .build()
            .unwrap();
        let short = JobSpec::builder("short")
            .arrival(1)
            .tasks((0..2).map(|_| TaskSpec::new(5.0, Phase::Map)))
            .utility(TimeUtility::sigmoid(60.0, 5.0, 0.5).unwrap())
            .budget(60)
            .build()
            .unwrap();
        let r = Simulation::new(SimConfig::homogeneous(1, 2), vec![long, short])
            .unwrap()
            .run(&mut Edf::new())
            .unwrap();
        let short_o = r.outcomes.iter().find(|o| o.label == "short").unwrap();
        // EDF prefers the tight deadline as soon as a container frees; the
        // head job's 50-slot tasks delay it by at most one task length.
        assert!(
            short_o.runtime <= 60,
            "EDF should meet the 60-slot budget, took {}",
            short_o.runtime
        );
    }
}
