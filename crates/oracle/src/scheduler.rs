//! [`ReferenceScheduler`] — the **frozen pre-kernel** RUSH
//! container-assignment unit, kept verbatim as the differential twin of
//! the production adapter (`rush_planner::RushScheduler`).
//!
//! The live scheduler now drives the shared planner kernel
//! (`rush_planner::PlannerCore`); this module preserves the original
//! self-contained implementation so the refactor stays provable:
//! `crates/planner/tests/adapter_differential.rs` runs both schedulers
//! over the same randomized workloads and asserts bit-identical
//! assignment behavior and `SimResult`s. Do not evolve this file with new
//! scheduling features — change the kernel and its adapter instead.
//!
//! What is frozen is the *driving* logic — sample pools, cold start,
//! invalidation, the dispatch rule; the CA pipeline underneath is the one
//! every caller shares. On every scheduling event the CA unit re-runs it
//! ([`compute_plan_incremental`] on the scheduler's own [`PlanState`]),
//! obtains each job's desired next-slot allocation, and hands the free
//! container to the job with the **largest gap between planned and
//! current occupancy** — the
//! paper's dispatch rule (Sec. IV, "Container Assignment"). The plan is
//! cached for the current slot and invalidated by arrivals, completions or
//! the clock moving, so a burst of free containers in one slot costs one
//! pipeline pass.
//!
//! Cold-start estimation: a job with no completed tasks borrows the runtime
//! samples of *same-template* jobs seen earlier (keyed by job label), then
//! any cluster-local samples, and only falls back to the configured prior
//! when no runtime evidence exists at all — mirroring how production
//! clusters benchmark recurring applications.

use rush_core::plan::{compute_plan_incremental, Plan, PlanInput, PlanState};
use rush_core::RushConfig;
use rush_sim::view::{ClusterView, TaskSample};
use rush_sim::{JobId, Scheduler, Slot};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Maximum borrowed samples per label pool (newest kept).
const LABEL_POOL_CAP: usize = 256;

/// Cached per-slot desired allocations: `(job, desired_now, target)`.
type DesiredCache = Vec<(JobId, u32, f64)>;

/// The frozen pre-kernel RUSH scheduler (differential twin of
/// `rush_planner::RushScheduler`).
///
/// # Example
///
/// ```
/// use rush_core::RushConfig;
/// use rush_oracle::scheduler::ReferenceScheduler;
/// use rush_sim::engine::{SimConfig, Simulation};
/// use rush_sim::job::{JobSpec, Phase, TaskSpec};
/// use rush_utility::TimeUtility;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let job = JobSpec::builder("quick")
///     .tasks((0..4).map(|_| TaskSpec::new(10.0, Phase::Map)))
///     .utility(TimeUtility::sigmoid(100.0, 5.0, 0.1)?)
///     .build()?;
/// let mut rush = ReferenceScheduler::new(RushConfig::default());
/// let result = Simulation::new(SimConfig::homogeneous(1, 4), vec![job])?.run(&mut rush)?;
/// assert_eq!(result.outcomes.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceScheduler {
    config: RushConfig,
    name: &'static str,
    /// Plan cached for the slot it was computed in.
    cache: Option<(Slot, DesiredCache)>,
    dirty: bool,
    /// Cross-job sample pools keyed by job label (template name).
    label_pool: BTreeMap<String, Vec<u64>>,
    /// All observed samples regardless of label — last-resort cold-start
    /// pool before falling back to the configured prior.
    global_pool: Vec<u64>,
    /// Label of each active job, captured at arrival.
    labels: BTreeMap<JobId, String>,
    /// The most recent full plan, for introspection (the paper's HTTP
    /// monitoring interface exposes exactly this).
    last_plan: Plan,
    /// Cross-event pipeline state: a scheduling event touches one job, so
    /// the other jobs' robust demands are served from here (see
    /// [`PlanState`]).
    plan_state: PlanState,
}

impl ReferenceScheduler {
    /// Creates a RUSH scheduler with the given configuration.
    pub fn new(config: RushConfig) -> Self {
        ReferenceScheduler {
            config,
            name: "RUSH",
            cache: None,
            dirty: true,
            label_pool: BTreeMap::new(),
            global_pool: Vec::new(),
            labels: BTreeMap::new(),
            last_plan: Plan::default(),
            plan_state: PlanState::new(),
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
        &self.config
    }

    /// The most recently computed plan (projected completion times, robust
    /// demands, impossible-job flags) — the data behind the paper's
    /// enhanced HTTP interface (Fig. 2).
    pub fn last_plan(&self) -> &Plan {
        &self.last_plan
    }

    /// Forgets a completed or cancelled job: drops its label mapping and
    /// invalidates the per-slot plan cache so the next scheduling event
    /// re-plans without it. Returns whether the job was known.
    ///
    /// The simulator calls [`Scheduler::on_task_complete`] with the job
    /// already gone from the view when it finishes naturally, which prunes
    /// the mapping — but a job *cancelled* mid-flight (or completed while
    /// no further task-completion event fires) would otherwise leak its
    /// entry forever and keep polluting `last_plan` until the next event.
    /// Long-running daemons must call this on every cancel.
    ///
    /// Pooled runtime samples the job contributed are deliberately kept:
    /// they are evidence about the *template*, not the job, and future
    /// same-label jobs still want them.
    pub fn remove_job(&mut self, job: rush_sim::JobId) -> bool {
        self.dirty = true;
        self.labels.remove(&job).is_some()
    }

    /// Ensures the per-slot plan cache is fresh; returns desired
    /// allocations as `(job, desired_now, target)` tuples.
    fn refresh(&mut self, view: &ClusterView<'_>) {
        let stale = self.dirty || !matches!(&self.cache, Some((slot, _)) if *slot == view.now);
        if !stale {
            return;
        }
        // Destructure for disjoint borrows: the inputs borrow the sample
        // pools while the pipeline takes the plan state mutably.
        let Self { config, label_pool, global_pool, plan_state, .. } = &mut *self;
        let inputs: Vec<PlanInput<'_>> = view
            .jobs
            .iter()
            .map(|j| PlanInput {
                key: u64::from(j.id.0),
                generation: None,
                samples: Cow::Borrowed(cold_start_samples(
                    label_pool,
                    global_pool,
                    &j.label,
                    &j.samples,
                )),
                remaining_tasks: j.pending_tasks,
                failed_attempts: j.failed_attempts,
                age: j.age(view.now) as f64,
                utility: j.utility,
            })
            .collect();
        // On estimation failure (pathological inputs) fall back to an empty
        // plan; the assign() fallbacks keep the cluster from stalling.
        let plan = compute_plan_incremental(config, view.capacity, &inputs, plan_state)
            .unwrap_or_default();
        let desired = view
            .jobs
            .iter()
            .zip(plan.entries.iter())
            .map(|(j, e)| (j.id, e.desired_now, e.target))
            .collect();
        self.last_plan = plan;
        self.cache = Some((view.now, desired));
        self.dirty = false;
    }
}

/// Picks the sample set backing a job's estimate: its own completed-task
/// runtimes, else the same-label pool, else the cluster-wide pool. A label
/// pool that exists but holds no samples is *no evidence* — it must not
/// shadow the global pool (a label entry can outlive its drained samples).
/// The returned slice may be empty, in which case the estimator falls back
/// to the configured prior.
fn cold_start_samples<'v>(
    label_pool: &'v BTreeMap<String, Vec<u64>>,
    global_pool: &'v [u64],
    label: &str,
    own: &'v [u64],
) -> &'v [u64] {
    if !own.is_empty() {
        own
    } else if let Some(pool) = label_pool.get(label).filter(|p| !p.is_empty()) {
        pool
    } else {
        // Same-template history is best, but any cluster-local runtime
        // evidence beats an arbitrary prior.
        global_pool
    }
}

impl Scheduler for ReferenceScheduler {
    fn name(&self) -> &str {
        self.name
    }

    fn on_job_arrival(&mut self, _view: &ClusterView<'_>, job: JobId) {
        self.dirty = true;
        // Label is resolved lazily in on_task_complete via the view; record
        // it here while the job is certainly visible.
        if let Some(j) = _view.job(job) {
            self.labels.insert(job, j.label.clone());
        }
    }

    fn on_task_failed(&mut self, _view: &ClusterView<'_>, _sample: TaskSample) {
        // Failed-attempt durations are not runtime samples, but the plan
        // must be recomputed with the updated failure count.
        self.dirty = true;
    }

    fn on_task_complete(&mut self, _view: &ClusterView<'_>, sample: TaskSample) {
        self.dirty = true;
        if let Some(label) = self.labels.get(&sample.job) {
            let pool = self.label_pool.entry(label.clone()).or_default();
            pool.push(sample.runtime);
            if pool.len() > LABEL_POOL_CAP {
                let excess = pool.len() - LABEL_POOL_CAP;
                pool.drain(..excess);
            }
        }
        self.global_pool.push(sample.runtime);
        if self.global_pool.len() > LABEL_POOL_CAP {
            let excess = self.global_pool.len() - LABEL_POOL_CAP;
            self.global_pool.drain(..excess);
        }
        if _view.job(sample.job).is_none() {
            // Job finished: forget its label mapping.
            self.labels.remove(&sample.job);
        }
    }

    fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
        self.refresh(view);
        // `refresh` always populates the cache; `?` keeps that assumption
        // from becoming a panic if the invariant ever breaks.
        let desired = &self.cache.as_ref()?.1;

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
        let reserve_ok = free_after >= self.config.insensitive_reserve * view.capacity as f64;
        let mut best: Option<(JobId, i64, f64)> = None;
        for j in view.jobs.iter().filter(|j| j.runnable_tasks > 0) {
            if !j.sensitivity.is_time_aware() && !reserve_ok {
                continue;
            }
            let (want, target) = desired
                .iter()
                .find(|(id, _, _)| *id == j.id)
                .map_or((0, f64::MAX), |&(_, w, t)| (w, t));
            let gap = want as i64 - j.running_tasks as i64;
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
                    let ta =
                        desired.iter().find(|(id, _, _)| *id == a.id).map_or(f64::MAX, |x| x.2);
                    let tb =
                        desired.iter().find(|(id, _, _)| *id == b.id).map_or(f64::MAX, |x| x.2);
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
    fn empty_label_pool_falls_back_to_global_pool() {
        // A label key can exist with no samples left (e.g. after future
        // pool eviction): it must not shadow the global pool.
        let mut label_pool: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        label_pool.insert("tpl".into(), Vec::new());
        label_pool.insert("warm".into(), vec![7, 8]);
        let global = vec![40, 50, 60];

        // Own samples always win.
        assert_eq!(cold_start_samples(&label_pool, &global, "tpl", &[9]), &[9]);
        // Non-empty label pool beats global.
        assert_eq!(cold_start_samples(&label_pool, &global, "warm", &[]), &[7, 8]);
        // Empty label pool → global, same as a missing label.
        assert_eq!(cold_start_samples(&label_pool, &global, "tpl", &[]), &[40, 50, 60]);
        assert_eq!(cold_start_samples(&label_pool, &global, "unseen", &[]), &[40, 50, 60]);
        // Nothing anywhere → empty slice (estimator prior takes over).
        let no_global: Vec<u64> = Vec::new();
        assert!(cold_start_samples(&label_pool, &no_global, "tpl", &[]).is_empty());
    }

    #[test]
    fn remove_job_forgets_label_and_invalidates_cache() {
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
        let mut rush = ReferenceScheduler::new(RushConfig::default());
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
        // Re-planning over an empty view yields an empty plan (the dirty
        // flag set by remove_job forces the refresh).
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
        let mut rush = ReferenceScheduler::new(RushConfig::default());
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
        let mut rush = ReferenceScheduler::new(RushConfig::default());
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
        let cora = ReferenceScheduler::cora();
        assert_eq!(Scheduler::name(&cora), "CoRA");
        assert_eq!(cora.config().delta, 0.0);
        assert!(matches!(cora.config().estimator, rush_core::config::EstimatorKind::Mean));
        // CoRA still schedules a workload to completion.
        let jobs = vec![job("wc", 0, 6, 10.0, TimeUtility::sigmoid(120.0, 5.0, 0.1).unwrap(), 120)];
        let r = Simulation::new(SimConfig::homogeneous(1, 3), jobs)
            .unwrap()
            .run(&mut ReferenceScheduler::cora())
            .unwrap();
        assert_eq!(r.outcomes.len(), 1);
    }

    #[test]
    fn name_and_introspection() {
        let rush = ReferenceScheduler::new(RushConfig::default());
        assert_eq!(Scheduler::name(&rush), "RUSH");
        assert!(rush.last_plan().entries.is_empty());
        assert_eq!(rush.config().theta, 0.9);
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
        let mut rush = ReferenceScheduler::new(RushConfig::default());
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
        let mut rush = ReferenceScheduler::new(RushConfig::default());
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
            .run(&mut ReferenceScheduler::new(strict))
            .unwrap();
        let r_open = Simulation::new(SimConfig::homogeneous(1, 4), jobs)
            .unwrap()
            .run(&mut ReferenceScheduler::new(open))
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
        let mut rush = ReferenceScheduler::new(RushConfig::default());
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
        let mut rush = ReferenceScheduler::new(RushConfig::default());
        let r = Simulation::new(cfg, jobs).unwrap().run(&mut rush).unwrap();
        assert_eq!(r.outcomes.len(), 1);
        assert!(r.failed_attempts > 0);
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
        let mut rush = ReferenceScheduler::new(RushConfig::default());
        let r = Simulation::new(SimConfig::homogeneous(1, 3), jobs)
            .unwrap()
            .run(&mut rush)
            .unwrap();
        assert_eq!(r.outcomes.len(), 3);
        let critical = r.outcomes.iter().find(|o| o.label == "Critical").unwrap();
        assert!(critical.utility > 1.0, "critical utility {}", critical.utility);
    }
}
