//! [`RushScheduler`] — the thin `rush_sim::Scheduler` adapter over the
//! planner kernel.
//!
//! The adapter owns nothing but a [`PlannerCore`] and a desired-allocation
//! map it refills from the kernel's plan after every replan. Simulator
//! events become kernel calls (arrivals register a record, completed tasks
//! feed the cold-start pools); on every `assign` the adapter hands the
//! kernel the cluster view as its planning roster (so plan inputs are
//! authoritative and zero-copy) and then applies the paper's dispatch rule
//! (Sec. IV, "Container Assignment"): the free container goes to the job
//! with the **largest gap between planned and current occupancy**, with
//! the work-conserving and stall-guard fallbacks layered below it. The plan
//! is cached for the current slot, so a burst of free containers in one
//! slot costs one pipeline pass.

use crate::core::{JobId, JobRecord, JobSubmission, PlannerCore};
use crate::PlannerError;
use rush_core::plan::Plan;
use rush_core::RushConfig;
use rush_sim::view::{ClusterView, TaskSample};
use rush_sim::Scheduler;
use std::collections::BTreeMap;

/// The RUSH scheduler: a `rush_sim::Scheduler` adapter over
/// [`PlannerCore`].
///
/// # Example
///
/// ```
/// use rush_core::RushConfig;
/// use rush_planner::RushScheduler;
/// use rush_sim::engine::{SimConfig, Simulation};
/// use rush_sim::job::{JobSpec, Phase, TaskSpec};
/// use rush_utility::TimeUtility;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let job = JobSpec::builder("quick")
///     .tasks((0..4).map(|_| TaskSpec::new(10.0, Phase::Map)))
///     .utility(TimeUtility::sigmoid(100.0, 5.0, 0.1)?)
///     .build()?;
/// let mut rush = RushScheduler::new(RushConfig::default());
/// let result = Simulation::new(SimConfig::homogeneous(1, 4), vec![job])?.run(&mut rush)?;
/// assert_eq!(result.outcomes.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RushScheduler {
    kernel: PlannerCore,
    name: &'static str,
    /// Desired next-slot allocations `(desired_now, target)` by raw job
    /// id: the kernel's current plan, keyed for `assign`'s lookups.
    desired: BTreeMap<u64, (u32, f64)>,
    /// The typed error from the most recent failed capacity update, if
    /// any (see [`RushScheduler::last_capacity_error`]). Cleared by the
    /// next successful update.
    capacity_error: Option<PlannerError>,
}

impl RushScheduler {
    /// Creates a RUSH scheduler with the given configuration.
    ///
    /// The scheduler SPI has no error channel, so the config is taken as
    /// given (capacity comes from the view at plan time): an invalid
    /// config surfaces as a failed plan pass, which the assign fallbacks
    /// absorb — same as the pre-kernel scheduler.
    pub fn new(config: RushConfig) -> Self {
        RushScheduler {
            kernel: PlannerCore::new_unchecked(config, 1),
            name: "RUSH",
            desired: BTreeMap::new(),
            capacity_error: None,
        }
    }

    /// Creates a scheduler configured like the authors' earlier **CoRA**
    /// system (INFOCOM'15) — the paper's non-robust predecessor: mean-based
    /// demand estimation and no KL ambiguity margin (`δ = 0`). Useful as the
    /// "RUSH minus robustness" comparison point.
    pub fn cora() -> Self {
        let config = RushConfig::default()
            .with_delta(0.0)
            .with_estimator(rush_core::config::EstimatorKind::Mean);
        let mut s = Self::new(config);
        s.name = "CoRA";
        s
    }

    /// The configuration in use.
    pub fn config(&self) -> &RushConfig {
        self.kernel.config()
    }

    /// The planner kernel behind the adapter (plan, cache
    /// counters — the data behind the paper's enhanced HTTP interface).
    pub fn kernel(&self) -> &PlannerCore {
        &self.kernel
    }

    /// The most recently computed plan (projected completion times, robust
    /// demands, impossible-job flags) — the data behind the paper's
    /// enhanced HTTP interface (Fig. 2).
    pub fn last_plan(&self) -> &Plan {
        self.kernel.plan()
    }

    /// Forgets a completed or cancelled job: drops its registry record and
    /// invalidates the per-slot plan so the next scheduling event re-plans
    /// without it. Returns whether the job was known.
    ///
    /// The simulator calls [`Scheduler::on_task_complete`] with the job
    /// already gone from the view when it finishes naturally, which prunes
    /// the record. The simulator has no cancellation, so nothing in the
    /// workspace needs this outside tests: `adapter_differential` is its
    /// only caller. (`rushd` does not run this adapter: its `cancel` calls
    /// `PlannerCore::cancel` directly.)
    ///
    /// Pooled runtime samples the job contributed are deliberately kept:
    /// they are evidence about the *template*, not the job, and future
    /// same-label jobs still want them.
    pub fn remove_job(&mut self, job: rush_sim::JobId) -> bool {
        // The pre-kernel scheduler invalidated unconditionally; keep that.
        self.kernel.invalidate();
        self.kernel.cancel(JobId::from(job))
    }

    /// The typed error from the most recent *failed* capacity update
    /// (the view reported zero containers), or `None` when the last
    /// update succeeded. The scheduler SPI has no
    /// error channel, so the adapter degrades to an empty plan when this
    /// is `Some` — but it no longer swallows the cause: daemons and tests
    /// read it here.
    pub fn last_capacity_error(&self) -> Option<&PlannerError> {
        self.capacity_error.as_ref()
    }

    /// Ensures the kernel's plan is fresh for `view.now` and the desired
    /// map reflects it.
    fn refresh(&mut self, view: &ClusterView<'_>) {
        self.capacity_error = self.kernel.set_capacity(view.capacity).err();
        if self.capacity_error.is_none() && self.kernel.is_fresh(view.now) {
            return;
        }
        self.desired.clear();
        // The kernel cannot plan for an empty cluster, and a pass can fail
        // on pathological inputs: either way fall back to an empty plan for
        // this slot (the assign() fallbacks keep the cluster from stalling),
        // with a refused capacity's typed cause kept observable.
        if self.capacity_error.is_some() || self.kernel.plan_roster(view).is_err() {
            self.kernel.install_empty_plan(view.now);
            return;
        }
        self.desired
            .extend(self.kernel.planned().map(|(id, e)| (id.0, (e.desired_now, e.target))));
    }
}

impl Scheduler for RushScheduler {
    fn name(&self) -> &str {
        self.name
    }

    fn on_job_arrival(&mut self, view: &ClusterView<'_>, job: rush_sim::JobId) {
        // Record the label while the job is certainly visible; the
        // arrival event dirties the kernel either way.
        match view.job(job) {
            Some(j) => {
                let submission = JobSubmission {
                    label: j.label.clone(),
                    tasks: j.pending_tasks as u64,
                    runtime_hint: None,
                    utility: j.utility,
                    budget: j.budget,
                    priority: j.priority,
                };
                self.kernel.admit_as(JobId::from(job), JobRecord::new(submission, j.arrival));
            }
            None => self.kernel.invalidate(),
        }
    }

    fn on_task_failed(&mut self, _view: &ClusterView<'_>, _sample: TaskSample) {
        // Failed-attempt durations are not runtime samples, but the plan
        // must be recomputed with the view's updated failure count.
        self.kernel.invalidate();
    }

    fn on_capacity_change(&mut self, view: &ClusterView<'_>) {
        // Replan immediately against the new effective capacity: the
        // revocation's killed attempts have already been recorded (as
        // failures), and refresh pushes the new total into the kernel —
        // the peel replay absorbs it as a divergence layer.
        self.refresh(view);
    }

    fn on_task_complete(&mut self, view: &ClusterView<'_>, sample: TaskSample) {
        // The view carries the job's own samples; the kernel keeps only the
        // pools its cold-start jobs borrow.
        self.kernel.pool_sample(JobId::from(sample.job), sample.runtime);
        if view.job(sample.job).is_none() {
            // Job finished: forget its registry record.
            self.kernel.cancel(JobId::from(sample.job));
        }
    }

    fn assign(&mut self, view: &ClusterView<'_>) -> Option<rush_sim::JobId> {
        self.refresh(view);
        let desired = &self.desired;

        // The paper's rule: the container goes to the job with the largest
        // positive gap between planned and current occupancy. When no plan
        // entry wants more containers, the container stays idle until the
        // next scheduling event — this is how RUSH holds capacity back
        // from completion-time-insensitive work (the mapping only plans
        // their tasks into genuinely free queue time). A stall guard keeps
        // the clock moving when nothing at all is running.
        // Containers that would stay free after this assignment; an
        // insensitive task may only claim one while the configured reserve
        // remains for time-aware reaction headroom.
        let free_after = view.free_containers.saturating_sub(1) as f64;
        let reserve_ok =
            free_after >= self.kernel.config().insensitive_reserve * view.capacity as f64;
        let mut best: Option<(rush_sim::JobId, i64, f64)> = None;
        for j in view.jobs.iter().filter(|j| j.runnable_tasks > 0) {
            if !j.sensitivity.is_time_aware() && !reserve_ok {
                continue;
            }
            let (want, target) =
                desired.get(&u64::from(j.id.0)).map_or((0, f64::MAX), |&(w, t)| (w, t));
            let gap = (want as i64).saturating_sub(j.running_tasks as i64);
            if gap <= 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((_, bgap, btarget)) => gap > bgap || (gap == bgap && target < btarget),
            };
            if better {
                best = Some((j.id, gap, target));
            }
        }
        if let Some((id, _, _)) = best {
            return Some(id);
        }

        // No plan entry wants more containers. Estimation error routinely
        // makes planned parallelism insufficient, so stay work-conserving
        // for *time-aware* jobs (running them earlier never lowers their
        // utility and protects against under-estimated demand). The free
        // container is withheld from completion-time-insensitive jobs —
        // they only run through plan slack above — which is exactly how
        // RUSH "delays the execution of the completion-time insensitive
        // jobs" (paper Sec. V-B).
        let earliest_target = |pred: &dyn Fn(&rush_sim::view::JobView) -> bool| {
            view.jobs
                .iter()
                .filter(|j| j.runnable_tasks > 0 && pred(j))
                .min_by(|a, b| {
                    let ta = desired.get(&u64::from(a.id.0)).map_or(f64::MAX, |x| x.1);
                    let tb = desired.get(&u64::from(b.id.0)).map_or(f64::MAX, |x| x.1);
                    ta.total_cmp(&tb).then(a.id.cmp(&b.id))
                })
                .map(|j| j.id)
        };
        if let Some(id) = earliest_target(&|j| j.sensitivity.is_time_aware()) {
            return Some(id);
        }
        // Stall guard: with nothing running at all, idling would freeze the
        // clock — run whatever is runnable.
        if view.jobs.iter().all(|j| j.running_tasks == 0) {
            return earliest_target(&|_| true);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_sim::engine::{SimConfig, Simulation};
    use rush_sim::job::{JobSpec, Phase, TaskSpec};
    use rush_sim::perturb::Interference;
    use rush_sim::Slot;
    use rush_utility::{Sensitivity, TimeUtility};

    fn job(
        label: &str,
        arrival: Slot,
        tasks: usize,
        runtime: f64,
        utility: TimeUtility,
        budget: Slot,
    ) -> JobSpec {
        JobSpec::builder(label)
            .arrival(arrival)
            .tasks((0..tasks).map(|_| TaskSpec::new(runtime, Phase::Map)))
            .utility(utility)
            .budget(budget)
            .build()
            .unwrap()
    }

    #[test]
    fn remove_job_forgets_record_and_invalidates_cache() {
        use rush_sim::view::{ClusterView, JobView};
        use rush_sim::JobId;
        let jv = JobView {
            id: JobId(0),
            label: "tpl".into(),
            arrival: 0,
            utility: TimeUtility::sigmoid(100.0, 5.0, 0.1).unwrap(),
            priority: 1,
            sensitivity: Sensitivity::Sensitive,
            budget: Some(100),
            total_tasks: 4,
            pending_tasks: 4,
            runnable_tasks: 4,
            running_tasks: 0,
            completed_tasks: 0,
            failed_attempts: 0,
            oldest_running_start: None,
            samples: Vec::new(),
        };
        let jobs = vec![jv];
        let view = ClusterView { now: 0, capacity: 4, free_containers: 4, jobs: &jobs };
        let mut rush = RushScheduler::new(RushConfig::default());
        rush.on_job_arrival(&view, JobId(0));
        // Populate the per-slot plan cache, then cancel the job.
        assert_eq!(rush.assign(&view), Some(JobId(0)));
        assert!(rush.remove_job(JobId(0)), "job was tracked");
        assert!(!rush.remove_job(JobId(0)), "second removal is a no-op");
        // The cancelled job's samples no longer feed its label pool: a
        // late task-completion event for it must not resurrect the label.
        let empty: Vec<JobView> = Vec::new();
        let gone = ClusterView { now: 5, capacity: 4, free_containers: 4, jobs: &empty };
        rush.on_task_complete(
            &gone,
            rush_sim::view::TaskSample {
                job: JobId(0),
                task: rush_sim::TaskId(0),
                runtime: 37,
                finished_at: 5,
            },
        );
        // Re-planning over an empty view yields an empty plan (the
        // invalidation from remove_job forces the refresh).
        assert_eq!(rush.assign(&gone), None);
        assert!(rush.last_plan().entries.is_empty());
    }

    #[test]
    fn completes_a_simple_workload() {
        let jobs = vec![job(
            "wc",
            0,
            8,
            10.0,
            TimeUtility::sigmoid(100.0, 5.0, 0.1).unwrap(),
            100,
        )];
        let mut rush = RushScheduler::new(RushConfig::default());
        let r = Simulation::new(SimConfig::homogeneous(1, 4), jobs).unwrap().run(&mut rush).unwrap();
        assert_eq!(r.outcomes.len(), 1);
        assert!(r.outcomes[0].met_budget(), "runtime {}", r.outcomes[0].runtime);
    }

    #[test]
    fn prioritizes_urgent_over_insensitive() {
        // One urgent job and one insensitive job contending for 4 containers.
        let jobs = vec![
            job("lazy", 0, 12, 20.0, TimeUtility::constant(5.0).unwrap(), 100_000),
            job("urgent", 0, 12, 20.0, TimeUtility::sigmoid(80.0, 5.0, 0.2).unwrap(), 80),
        ];
        let mut rush = RushScheduler::new(RushConfig::default());
        let r = Simulation::new(SimConfig::homogeneous(1, 4), jobs)
            .unwrap()
            .run(&mut rush)
            .unwrap();
        let urgent = r.outcomes.iter().find(|o| o.label == "urgent").unwrap();
        // 12 tasks × 20 slots = 240 container·slots on 4 containers = 60
        // slots if given everything. The budget is 80: achievable only by
        // displacing the insensitive job.
        assert!(
            urgent.runtime <= 80 + 20,
            "urgent job should land near its budget, took {}",
            urgent.runtime
        );
    }

    #[test]
    fn cora_mode_is_non_robust_mean_based() {
        let cora = RushScheduler::cora();
        assert_eq!(Scheduler::name(&cora), "CoRA");
        assert_eq!(cora.config().delta, 0.0);
        assert!(matches!(cora.config().estimator, rush_core::config::EstimatorKind::Mean));
        // CoRA still schedules a workload to completion.
        let jobs = vec![job("wc", 0, 6, 10.0, TimeUtility::sigmoid(120.0, 5.0, 0.1).unwrap(), 120)];
        let r = Simulation::new(SimConfig::homogeneous(1, 3), jobs)
            .unwrap()
            .run(&mut RushScheduler::cora())
            .unwrap();
        assert_eq!(r.outcomes.len(), 1);
    }

    #[test]
    fn name_and_introspection() {
        let rush = RushScheduler::new(RushConfig::default());
        assert_eq!(Scheduler::name(&rush), "RUSH");
        assert!(rush.last_plan().entries.is_empty());
        assert_eq!(rush.config().theta, 0.9);
        assert_eq!(rush.kernel().cache_misses(), 0);
    }

    #[test]
    fn survives_interference() {
        let jobs = vec![job(
            "noisy",
            0,
            16,
            15.0,
            TimeUtility::sigmoid(400.0, 5.0, 0.05).unwrap(),
            400,
        )];
        let cfg = SimConfig::homogeneous(2, 4)
            .with_interference(Interference::LogNormal { cv: 0.5 })
            .with_seed(13);
        let mut rush = RushScheduler::new(RushConfig::default());
        let r = Simulation::new(cfg, jobs).unwrap().run(&mut rush).unwrap();
        assert_eq!(r.outcomes.len(), 1);
    }

    #[test]
    fn cross_label_pool_bootstraps_second_job() {
        // Two same-label jobs back to back: by the time the second arrives,
        // RUSH has pooled samples; the run must simply complete and both
        // jobs use sane plans (no stall, no misassignments storm).
        let u = TimeUtility::sigmoid(300.0, 5.0, 0.05).unwrap();
        let jobs = vec![
            job("tpl", 0, 8, 12.0, u, 300),
            job("tpl", 50, 8, 12.0, u, 300),
        ];
        let mut rush = RushScheduler::new(RushConfig::default());
        let r = Simulation::new(SimConfig::homogeneous(1, 4), jobs)
            .unwrap()
            .run(&mut rush)
            .unwrap();
        assert_eq!(r.outcomes.len(), 2);
        assert!(r.misassignments == 0);
    }

    #[test]
    fn insensitive_reserve_gates_flat_jobs() {
        // One insensitive job alone on a busy-enough cluster: with
        // reserve 1.0 the gap rule never admits it, but the stall guard
        // still runs it when nothing else exists — the job completes
        // either way, only slower.
        let jobs = vec![job("flat", 0, 8, 10.0, TimeUtility::constant(2.0).unwrap(), 100_000)];
        let strict = RushConfig { insensitive_reserve: 1.0, ..Default::default() };
        let open = RushConfig { insensitive_reserve: 0.0, ..Default::default() };
        let r_strict = Simulation::new(SimConfig::homogeneous(1, 4), jobs.clone())
            .unwrap()
            .run(&mut RushScheduler::new(strict))
            .unwrap();
        let r_open = Simulation::new(SimConfig::homogeneous(1, 4), jobs)
            .unwrap()
            .run(&mut RushScheduler::new(open))
            .unwrap();
        assert_eq!(r_strict.outcomes.len(), 1);
        assert_eq!(r_open.outcomes.len(), 1);
        assert!(
            r_open.makespan <= r_strict.makespan,
            "open reserve must not be slower: {} vs {}",
            r_open.makespan,
            r_strict.makespan
        );
    }

    #[test]
    fn plan_cache_reused_within_slot() {
        // Several free containers in one slot must not trigger several
        // pipeline passes: with 4 containers and 4 runnable tasks at t=0,
        // scheduler_time stays bounded and the run completes with exactly
        // 4 assignments.
        let jobs = vec![job(
            "burst",
            0,
            4,
            10.0,
            TimeUtility::sigmoid(50.0, 5.0, 0.2).unwrap(),
            50,
        )];
        let mut rush = RushScheduler::new(RushConfig::default());
        let r = Simulation::new(SimConfig::homogeneous(1, 4), jobs)
            .unwrap()
            .run(&mut rush)
            .unwrap();
        assert_eq!(r.assignments, 4);
        // One plan per event, not per container: the last plan is retained.
        assert!(!rush.last_plan().entries.is_empty() || r.outcomes.len() == 1);
    }

    #[test]
    fn failed_attempts_raise_eta_in_next_plan() {
        use rush_sim::perturb::FailureModel;
        let jobs = vec![job(
            "flaky",
            0,
            16,
            10.0,
            TimeUtility::sigmoid(400.0, 5.0, 0.05).unwrap(),
            400,
        )];
        let cfg = SimConfig::homogeneous(1, 4)
            .with_failures(FailureModel::Bernoulli { p: 0.3 })
            .with_seed(11);
        let mut rush = RushScheduler::new(RushConfig::default());
        let r = Simulation::new(cfg, jobs).unwrap().run(&mut rush).unwrap();
        assert_eq!(r.outcomes.len(), 1);
        assert!(r.failed_attempts > 0);
    }

    #[test]
    fn survives_capacity_churn() {
        use rush_sim::cluster::{CapacityChange, CapacityEvent};
        // Spot revocation takes half the cluster mid-run, a restock
        // returns it: RUSH must re-plan (killed attempts re-queued as
        // failures) and still finish every job.
        let jobs = vec![
            job("a", 0, 10, 12.0, TimeUtility::sigmoid(300.0, 5.0, 0.05).unwrap(), 300),
            job("b", 5, 10, 12.0, TimeUtility::sigmoid(400.0, 3.0, 0.04).unwrap(), 400),
        ];
        let cfg = SimConfig::homogeneous(1, 6).with_capacity_events(vec![
            CapacityEvent { at: 15, change: CapacityChange::Revoke { n: 3 } },
            CapacityEvent { at: 60, change: CapacityChange::Restock { n: 3 } },
        ]);
        let mut rush = RushScheduler::new(RushConfig::default());
        let r = Simulation::new(cfg, jobs).unwrap().run(&mut rush).unwrap();
        assert_eq!(r.outcomes.len(), 2);
        assert_eq!(r.revoked_containers, 3);
        assert_eq!(r.restocked_containers, 3);
        assert!(rush.last_capacity_error().is_none());
    }

    #[test]
    fn capacity_error_is_surfaced_not_swallowed() {
        use rush_sim::view::ClusterView;
        // The kernel refuses a zero-container view: refresh degrades to an
        // empty plan AND records the typed cause.
        let mut rush = RushScheduler::new(RushConfig::default());
        let view = ClusterView { now: 0, capacity: 0, free_containers: 0, jobs: &[] };
        assert_eq!(rush.assign(&view), None);
        assert!(
            matches!(rush.last_capacity_error(), Some(crate::PlannerError::Config(_))),
            "expected a typed capacity error, got {:?}",
            rush.last_capacity_error()
        );
        // A workable capacity clears it.
        let view = ClusterView { now: 1, capacity: 4, free_containers: 4, jobs: &[] };
        assert_eq!(rush.assign(&view), None);
        assert!(rush.last_capacity_error().is_none());
    }

    #[test]
    fn mixed_sensitivities_complete() {
        let mk = |s: Sensitivity, arrival: Slot, budget: f64| {
            JobSpec::builder(format!("{s:?}"))
                .arrival(arrival)
                .tasks((0..6).map(|_| TaskSpec::new(10.0, Phase::Map)))
                .utility(s.utility_for(budget, 3.0).unwrap())
                .sensitivity(s)
                .budget(budget as Slot)
                .build()
                .unwrap()
        };
        let jobs = vec![
            mk(Sensitivity::Critical, 0, 120.0),
            mk(Sensitivity::Sensitive, 10, 200.0),
            mk(Sensitivity::Insensitive, 20, 100_000.0),
        ];
        let mut rush = RushScheduler::new(RushConfig::default());
        let r = Simulation::new(SimConfig::homogeneous(1, 3), jobs)
            .unwrap()
            .run(&mut rush)
            .unwrap();
        assert_eq!(r.outcomes.len(), 3);
        let critical = r.outcomes.iter().find(|o| o.label == "Critical").unwrap();
        assert!(critical.utility > 1.0, "critical utility {}", critical.utility);
    }
}
