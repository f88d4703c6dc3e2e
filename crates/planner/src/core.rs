//! [`PlannerCore`] — the planner state machine.
//!
//! The kernel owns the four pieces of state the RUSH driving loop needs
//! and that every adapter previously duplicated:
//!
//! 1. the **job registry** ([`JobRecord`] per [`JobId`], in a `BTreeMap`
//!    so iteration — and therefore planning — is deterministic);
//! 2. the **sample history**: per-job completed-task runtimes
//!    ([`PlannerCore::ingest_sample`]) and the cross-job cold-start pools,
//!    same-label first, cluster-wide second ([`PlannerCore::pool_sample`]);
//! 3. the incremental **[`PlanCache`]** memo for the per-job
//!    estimate+WCDE stage;
//! 4. the current **[`Plan`]**, its job ids and the slot it was computed
//!    at.
//!
//! All mutation goes through the named methods; all planning goes through
//! [`PlannerCore::plan_at`] (registry mode) or [`PlannerCore::plan_roster`]
//! (roster mode). Both modes share the invalidation rule: a plan is fresh
//! exactly when nothing changed since it was computed *and* the logical
//! clock still reads the same slot.

use crate::PlannerError;
use rush_core::plan::{compute_plan_incremental, Plan, PlanCache, PlanEntry, PlanInput, PlanPhaseStats, PlanState};
use rush_core::wcde::worst_case_quantile;
use rush_core::RushConfig;
use rush_estimator::DistributionEstimator;
use rush_sim::view::ClusterView;
use rush_utility::TimeUtility;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Maximum borrowed samples per cold-start pool (newest kept).
const POOL_CAP: usize = 256;

/// Kernel-level job identifier. All adapters speak this type: the daemon
/// uses the raw `u64` on the wire, the simulator adapter converts from
/// [`rush_sim::JobId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl From<u64> for JobId {
    fn from(raw: u64) -> Self {
        JobId(raw)
    }
}

impl From<rush_sim::JobId> for JobId {
    fn from(id: rush_sim::JobId) -> Self {
        JobId(u64::from(id.0))
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Everything the kernel needs to register a new job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Template / application label (keys the cold-start pools).
    pub label: String,
    /// Completion-time utility.
    pub utility: TimeUtility,
    /// Tasks that have not completed yet at registration time.
    pub tasks: u64,
    /// Logical slot of arrival (ages the job in plan inputs).
    pub arrived_slot: u64,
    /// Optional caller-declared mean task runtime: sizes the job, at
    /// admission and in the plan, until its first sample lands.
    pub runtime_hint: Option<f64>,
    /// Whether the job starts parked (excluded from registry planning).
    pub parked: bool,
}

/// One resident job as the kernel tracks it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// Template / application label.
    pub label: String,
    /// Completion-time utility.
    pub utility: TimeUtility,
    /// Tasks that have not reported a sample yet.
    pub remaining_tasks: u64,
    /// Logical slot at which the job was registered.
    pub arrived_slot: u64,
    /// Caller-declared mean task runtime, if any.
    pub runtime_hint: Option<f64>,
    /// Whether the job is parked (excluded from registry planning).
    pub parked: bool,
    /// Completed-task runtime samples (slots), in arrival order, as
    /// [`PlannerCore::ingest_sample`] recorded them. Roster mode reads
    /// samples from the caller's view instead.
    pub samples: Vec<u64>,
}

impl JobRecord {
    fn from_spec(spec: JobSpec) -> Self {
        JobRecord {
            label: spec.label,
            utility: spec.utility,
            remaining_tasks: spec.tasks,
            arrived_slot: spec.arrived_slot,
            runtime_hint: spec.runtime_hint,
            parked: spec.parked,
            samples: Vec::new(),
        }
    }
}

/// The planner kernel. See the [crate docs](crate) for the layering.
#[derive(Debug, Clone)]
pub struct PlannerCore {
    config: RushConfig,
    capacity: u32,
    jobs: BTreeMap<JobId, JobRecord>,
    next_id: u64,
    /// Cross-job sample pools keyed by job label (template name).
    label_pool: BTreeMap<String, Vec<u64>>,
    /// All observed samples regardless of label — last-resort cold-start
    /// pool before the configured prior.
    global_pool: Vec<u64>,
    /// Cross-event planning state: the per-job estimate + WCDE memo
    /// table plus the peel trace and mapping pack the delta replan
    /// patches instead of recomputing (see `rush_core::plan::PlanState`).
    state: PlanState,
    /// The most recent plan.
    plan: Plan,
    /// Job ids of `plan.entries`, parallel.
    plan_ids: Vec<JobId>,
    /// Slot the current plan was computed at.
    plan_slot: Option<u64>,
    /// Set by every state-changing call; cleared by a successful replan.
    dirty: bool,
}

impl PlannerCore {
    /// Creates an empty kernel.
    ///
    /// # Errors
    ///
    /// [`PlannerError::Config`] for zero capacity, [`PlannerError::Core`]
    /// for an invalid [`RushConfig`].
    pub fn new(config: RushConfig, capacity: u32) -> Result<Self, PlannerError> {
        config.validate()?;
        check_capacity(capacity)?;
        Ok(PlannerCore::new_unchecked(config, capacity))
    }

    /// Creates a kernel without validating the config — adapter use only:
    /// the simulator's scheduler SPI has no error channel, so an invalid
    /// config must surface as a failed plan pass at planning time (exactly
    /// as it did pre-kernel), not as a construction error.
    pub(crate) fn new_unchecked(config: RushConfig, capacity: u32) -> Self {
        PlannerCore {
            config,
            capacity,
            jobs: BTreeMap::new(),
            next_id: 0,
            label_pool: BTreeMap::new(),
            global_pool: Vec::new(),
            state: PlanState::new(),
            plan: Plan::default(),
            plan_ids: Vec::new(),
            plan_slot: None,
            dirty: false,
        }
    }

    /// Rebuilds a kernel from snapshot parts. Every record must be one a
    /// live kernel could hold: [`PlannerCore::ingest_sample`] retires a job
    /// at its last sample and refuses a runtime it cannot estimate the
    /// job's remaining tasks from, so a restore refuses both too — kept,
    /// the second would fail every later plan.
    ///
    /// # Errors
    ///
    /// Same as [`PlannerCore::new`], plus [`PlannerError::Snapshot`] when
    /// a job id is duplicated or not below `next_id`, a record has no
    /// remaining tasks, or its largest sample fails
    /// [`rush_estimator::check_runtime`].
    pub fn from_parts(
        config: RushConfig,
        capacity: u32,
        jobs: Vec<(JobId, JobRecord)>,
        next_id: u64,
    ) -> Result<Self, PlannerError> {
        let mut kernel = PlannerCore::new(config, capacity)?;
        for (id, record) in jobs {
            if id.0 >= next_id {
                return Err(PlannerError::Snapshot(format!(
                    "job id {id} is not below next_id {next_id}"
                )));
            }
            if record.remaining_tasks == 0 {
                return Err(PlannerError::Snapshot(format!(
                    "job {id}: \"remaining_tasks\" is 0, but a job retires at its last sample"
                )));
            }
            let largest = record.samples.iter().copied().max().unwrap_or(0);
            rush_estimator::check_runtime(largest, record.remaining_tasks as usize).map_err(
                |e| PlannerError::Snapshot(format!("job {id}: \"samples\" hold {largest}: {e}")),
            )?;
            if kernel.jobs.insert(id, record).is_some() {
                return Err(PlannerError::Snapshot(format!("duplicate job id {id}")));
            }
        }
        kernel.next_id = next_id;
        Ok(kernel)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The scheduler configuration.
    pub fn config(&self) -> &RushConfig {
        &self.config
    }

    /// Cluster capacity in containers.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Next job id [`PlannerCore::admit`] will assign.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Looks up one resident job.
    pub fn job(&self, id: JobId) -> Option<&JobRecord> {
        self.jobs.get(&id)
    }

    /// Iterates all resident jobs (planned and parked) in id order.
    pub fn jobs(&self) -> impl Iterator<Item = (JobId, &JobRecord)> {
        self.jobs.iter().map(|(id, j)| (*id, j))
    }

    /// Number of resident jobs (planned and parked).
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Number of parked jobs.
    pub fn parked_count(&self) -> usize {
        self.jobs.values().filter(|j| j.parked).count()
    }

    /// The most recent plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Job ids of [`PlannerCore::plan`]'s entries, parallel.
    pub fn plan_ids(&self) -> &[JobId] {
        &self.plan_ids
    }

    /// Slot the current plan was computed at (`None` before any plan).
    pub fn plan_slot(&self) -> Option<u64> {
        self.plan_slot
    }

    /// Iterates the current plan as `(job, entry)` pairs, in planning
    /// order: [`PlannerCore::plan_ids`] zipped with the plan's entries.
    pub fn planned(&self) -> impl Iterator<Item = (JobId, &PlanEntry)> {
        self.plan_ids.iter().copied().zip(&self.plan.entries)
    }

    /// The plan entry of one job, if it is in the current plan.
    pub fn entry(&self, id: JobId) -> Option<&PlanEntry> {
        let idx = self.plan_ids.iter().position(|p| *p == id)?;
        self.plan.entries.get(idx)
    }

    /// Estimate+WCDE memo hits since construction.
    pub fn cache_hits(&self) -> u64 {
        self.cache().hits()
    }

    /// Estimate+WCDE memo misses since construction.
    pub fn cache_misses(&self) -> u64 {
        self.cache().misses()
    }

    /// The per-job estimate + WCDE memo table of the planning state.
    pub fn cache(&self) -> &PlanCache {
        self.state.cache()
    }

    /// Phase breakdown and delta telemetry of the most recent replan.
    pub fn plan_stats(&self) -> PlanPhaseStats {
        self.state.last_stats()
    }

    /// Whether the current plan is fresh for `now_slot`: nothing changed
    /// since it was computed and the clock still reads the same slot.
    pub fn is_fresh(&self, now_slot: u64) -> bool {
        !self.dirty && self.plan_slot == Some(now_slot)
    }

    /// This kernel, under the name `benchmark/` still calls it by. Kept
    /// only for `benchmark/`, which is frozen between benchmark changes;
    /// new code reads the kernel directly.
    #[doc(hidden)]
    pub fn shard_core(&self, _shard: usize) -> &PlannerCore {
        self
    }

    // ------------------------------------------------------------------
    // Mutations
    // ------------------------------------------------------------------

    /// Registers a new job under the next free id and returns that id.
    pub fn admit(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.next_id);
        self.admit_as(id, spec);
        id
    }

    /// Registers (or re-registers) a job under a caller-chosen id — the
    /// simulator owns its own id space. Bumps `next_id` past `id`.
    pub fn admit_as(&mut self, id: JobId, spec: JobSpec) {
        self.next_id = self.next_id.max(id.0.saturating_add(1));
        self.dirty = true;
        self.jobs.insert(id, JobRecord::from_spec(spec));
    }

    /// Records one completed-task runtime among the job's own samples,
    /// which size it in [`PlannerCore::plan_at`]. The job retires when its
    /// last task reports. Returns whether it did.
    ///
    /// # Errors
    ///
    /// [`PlannerError::UnknownJob`] for a non-resident id, and
    /// [`PlannerError::Estimator`]
    /// ([`rush_estimator::EstimatorError::RangeTooLarge`]) for a runtime
    /// too large to estimate the job's remaining tasks from
    /// ([`rush_estimator::check_runtime`]): kept, it would fail every later
    /// plan. Either way the job is left untouched.
    pub fn ingest_sample(&mut self, job: JobId, runtime: u64) -> Result<bool, PlannerError> {
        let record = self.jobs.get_mut(&job).ok_or(PlannerError::UnknownJob(job.0))?;
        rush_estimator::check_runtime(runtime, record.remaining_tasks as usize)?;
        record.samples.push(runtime);
        record.remaining_tasks = record.remaining_tasks.saturating_sub(1);
        let completed = record.remaining_tasks == 0;
        self.dirty = true;
        if completed {
            self.jobs.remove(&job);
        }
        Ok(completed)
    }

    /// Adds one completed-task runtime to the cold-start pools that
    /// [`PlannerCore::plan_roster`] borrows from: the job's label pool, if
    /// the job is resident, and the cluster-wide pool either way (evidence
    /// is evidence). The job's own record is not touched.
    pub fn pool_sample(&mut self, job: JobId, runtime: u64) {
        self.dirty = true;
        if let Some(record) = self.jobs.get(&job) {
            let pool = self.label_pool.entry(record.label.clone()).or_default();
            pool.push(runtime);
            pool.drain(..pool.len().saturating_sub(POOL_CAP));
        }
        self.global_pool.push(runtime);
        self.global_pool.drain(..self.global_pool.len().saturating_sub(POOL_CAP));
    }

    /// Removes a job from the registry. Pooled samples the job
    /// contributed are deliberately kept: they are evidence about the
    /// *template*, not the job. Returns whether the job was known; only a
    /// known removal invalidates the plan.
    pub fn cancel(&mut self, job: JobId) -> bool {
        if self.jobs.remove(&job).is_some() {
            self.dirty = true;
            true
        } else {
            false
        }
    }

    /// Parks or unparks a job (registry planning excludes parked jobs).
    ///
    /// # Errors
    ///
    /// [`PlannerError::UnknownJob`] for a non-resident id.
    pub fn set_parked(&mut self, job: JobId, parked: bool) -> Result<(), PlannerError> {
        let record = self.jobs.get_mut(&job).ok_or(PlannerError::UnknownJob(job.0))?;
        if record.parked != parked {
            record.parked = parked;
            self.dirty = true;
        }
        Ok(())
    }

    /// Forces the next plan request to recompute even if nothing visible
    /// changed (a failed task attempt, an epoch close, an external state
    /// change).
    pub fn invalidate(&mut self) {
        self.dirty = true;
    }

    /// Sets the cluster's effective capacity (spot revocation, restock,
    /// node failure, operator resize); a change invalidates the plan. The
    /// next pass replans against the new total, and the peel replay treats
    /// the move as one more drift term rather than peeling from scratch.
    ///
    /// # Errors
    ///
    /// [`PlannerError::Config`] for zero capacity; the capacity and the
    /// plan's freshness are left untouched.
    pub fn set_capacity(&mut self, capacity: u32) -> Result<(), PlannerError> {
        check_capacity(capacity)?;
        if self.capacity != capacity {
            self.capacity = capacity;
            self.dirty = true;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Planning
    // ------------------------------------------------------------------

    /// Replans from the kernel's own registry (non-parked jobs, ascending
    /// id order) unless the current plan [is fresh](Self::is_fresh). A job
    /// is sized from its own samples, else its runtime hint, else the
    /// configured prior — exactly as admission sized it ([`estimate_eta`]),
    /// and never from the pools, so a plan depends only on the records and
    /// a snapshot restore reproduces it bit for bit.
    ///
    /// # Errors
    ///
    /// [`PlannerError::Core`] when the pipeline fails; the previous plan
    /// and staleness are left untouched so the next call retries.
    pub fn plan_at(&mut self, now_slot: u64) -> Result<(), PlannerError> {
        if self.is_fresh(now_slot) {
            return Ok(());
        }
        let (ids, hints): (Vec<JobId>, Vec<Option<u64>>) = self
            .jobs
            .iter()
            .filter(|(_, j)| !j.parked)
            .map(|(id, j)| (*id, hint_sample(j.runtime_hint)))
            .unzip();
        // Destructure for disjoint borrows: the inputs borrow the records
        // while the pipeline takes the planning state mutably.
        let Self { config, capacity, jobs, state, .. } = &mut *self;
        let inputs: Vec<PlanInput<'_>> = jobs
            .values()
            .filter(|j| !j.parked)
            .zip(&hints)
            .map(|(j, hint)| PlanInput {
                samples: Cow::Borrowed(sizing_samples(&j.samples, hint)),
                remaining_tasks: j.remaining_tasks as usize,
                running: 0,
                failed_attempts: 0,
                age: now_slot.saturating_sub(j.arrived_slot) as f64,
                utility: j.utility,
            })
            .collect();
        let plan = compute_plan_incremental(config, *capacity, &inputs, state)?;
        self.install_plan(now_slot, ids, plan);
        Ok(())
    }

    /// Replans from the simulator's view at `view.now` unless the current
    /// plan [is fresh](Self::is_fresh). The view's jobs, in its order, are
    /// the planning roster, and their samples, counts and ages are
    /// authoritative. A job with no samples of its own borrows its label's
    /// pool, else the cluster-wide pool ([`PlannerCore::pool_sample`]),
    /// before the configured prior — as production clusters benchmark
    /// recurring applications.
    ///
    /// # Errors
    ///
    /// [`PlannerError::Core`] when the pipeline fails; the previous plan
    /// and staleness are left untouched. Callers that must make progress
    /// anyway can install an empty plan via
    /// [`PlannerCore::install_empty_plan`].
    pub fn plan_roster(&mut self, view: &ClusterView<'_>) -> Result<(), PlannerError> {
        if self.is_fresh(view.now) {
            return Ok(());
        }
        let Self { config, capacity, label_pool, global_pool, state, .. } = &mut *self;
        let inputs: Vec<PlanInput<'_>> = view
            .jobs
            .iter()
            .map(|j| PlanInput {
                samples: Cow::Borrowed(cold_start_samples(
                    label_pool,
                    global_pool,
                    &j.label,
                    &j.samples,
                )),
                remaining_tasks: j.pending_tasks,
                running: j.running_tasks as u32,
                failed_attempts: j.failed_attempts,
                age: j.age(view.now) as f64,
                utility: j.utility,
            })
            .collect();
        let plan = compute_plan_incremental(config, *capacity, &inputs, state)?;
        let ids: Vec<JobId> = view.jobs.iter().map(|j| JobId::from(j.id)).collect();
        self.install_plan(view.now, ids, plan);
        Ok(())
    }

    /// Installs an *empty* plan for `now_slot` — the fallback when a plan
    /// pass fails on pathological inputs and the caller must stay live
    /// (the simulator adapter's stall guards keep the cluster moving).
    pub fn install_empty_plan(&mut self, now_slot: u64) {
        self.install_plan(now_slot, Vec::new(), Plan::default());
    }

    fn install_plan(&mut self, now_slot: u64, ids: Vec<JobId>, plan: Plan) {
        self.plan = plan;
        self.plan_ids = ids;
        self.plan_slot = Some(now_slot);
        self.dirty = false;
        self.check_plan_invariants();
    }

    /// Contract layer: structural invariants every installed plan obeys.
    /// Debug builds only.
    fn check_plan_invariants(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        debug_assert_eq!(
            self.plan_ids.len(),
            self.plan.entries.len(),
            "plan ids and entries must stay parallel"
        );
        let mut seen = std::collections::BTreeSet::new();
        for id in &self.plan_ids {
            debug_assert!(seen.insert(*id), "plan ids must be unique, {id} repeats");
        }
    }
}

/// Refuses a cluster without containers: no plan fits it.
fn check_capacity(capacity: u32) -> Result<(), PlannerError> {
    if capacity == 0 {
        return Err(PlannerError::Config("capacity must be >= 1".into()));
    }
    Ok(())
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

/// The pseudo-sample a runtime hint stands for: the hint rounded to whole
/// slots, at least one.
fn hint_sample(runtime_hint: Option<f64>) -> Option<u64> {
    runtime_hint.map(|h| (h.round() as u64).max(1))
}

/// The samples that size a job, for admission ([`estimate_eta`]) and
/// planning ([`PlannerCore::plan_at`]) alike: its own, else its
/// [`hint_sample`] (if any). An empty result leaves the estimate to the
/// configured cold prior.
fn sizing_samples<'a>(own: &'a [u64], hint: &'a Option<u64>) -> &'a [u64] {
    if own.is_empty() {
        hint.as_slice()
    } else {
        own
    }
}

/// Estimates a job's robust remaining demand `η` (container·slots) and
/// mean task runtime `R` (slots) from its runtime samples, using exactly
/// the estimator + WCDE path the planner runs — so admission control and
/// planning never disagree about a job's size.
///
/// With no samples yet, the runtime hint (if any) seeds a single
/// pseudo-sample, as it does in [`PlannerCore::plan_at`]; otherwise the
/// configured cold prior carries the estimate.
///
/// # Errors
///
/// [`PlannerError::Estimator`] / [`PlannerError::Core`] when estimation or
/// robustification fails (e.g. no samples and no prior).
pub fn estimate_eta(
    config: &RushConfig,
    samples: &[u64],
    runtime_hint: Option<f64>,
    remaining_tasks: usize,
) -> Result<(u64, f64), PlannerError> {
    let hint = hint_sample(runtime_hint);
    let estimate =
        config.estimator().estimate(sizing_samples(samples, &hint), remaining_tasks)?;
    let wcde = worst_case_quantile(&estimate.pmf, config.theta, config.delta)?;
    Ok((wcde.eta, estimate.mean_task_runtime))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(label: &str, tasks: u64, arrived: u64) -> JobSpec {
        JobSpec {
            label: label.into(),
            utility: TimeUtility::sigmoid(500.0, 3.0, 0.02).expect("valid utility"),
            tasks,
            arrived_slot: arrived,
            runtime_hint: Some(50.0),
            parked: false,
        }
    }

    /// The contract layer is armed in every debug build: plan ids out of
    /// step with the plan's entries must trip it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "plan ids and entries must stay parallel")]
    fn contract_layer_catches_ids_out_of_step_with_entries() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        k.admit(spec("a", 4, 0));
        k.plan_at(0).expect("plan");
        k.plan_ids.push(JobId(99));
        k.check_plan_invariants();
    }

    #[test]
    fn admit_assigns_ascending_ids_and_dirties() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("a", 4, 0));
        let b = k.admit(spec("b", 4, 0));
        assert_eq!((a, b), (JobId(0), JobId(1)));
        assert_eq!(k.next_id(), 2);
        assert!(!k.is_fresh(0), "admission invalidates the plan");
    }

    #[test]
    fn admit_as_replaces_and_bumps_next_id() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        k.admit_as(JobId(7), spec("x", 3, 0));
        assert_eq!(k.next_id(), 8);
        assert_eq!(k.job(JobId(7)).map(|j| j.remaining_tasks), Some(3));
        // Re-registration replaces the record.
        k.admit_as(JobId(7), spec("x", 9, 0));
        assert_eq!(k.job(JobId(7)).map(|j| j.remaining_tasks), Some(9));
        assert_eq!(k.job_count(), 1);
        // A lower id leaves next_id where it is.
        k.admit_as(JobId(2), spec("y", 1, 0));
        assert_eq!(k.next_id(), 8);
        assert_eq!(k.admit(spec("z", 1, 0)), JobId(8));
    }

    #[test]
    fn plan_is_fresh_within_slot_and_stale_across() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("a", 4, 0));
        k.plan_at(0).expect("plan");
        assert_eq!(k.plan_ids(), &[a]);
        assert!(k.is_fresh(0));
        assert!(!k.is_fresh(1), "a new slot is a new plan");
        // Same slot, no change: the plan stands, no recompute.
        let plan = k.plan().clone();
        let misses = k.cache_misses();
        k.plan_at(0).expect("plan");
        assert_eq!(k.plan(), &plan);
        assert_eq!(k.cache_misses(), misses);
    }

    #[test]
    fn set_capacity_refuses_zero_and_leaves_the_plan_fresh() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        k.admit(spec("a", 5, 0));
        k.plan_at(0).expect("plan");
        assert!(matches!(k.set_capacity(0), Err(PlannerError::Config(_))));
        assert_eq!(k.capacity(), 8);
        assert!(k.is_fresh(0), "a refused resize must not invalidate");
        // The same capacity changes nothing; another one invalidates.
        k.set_capacity(8).expect("same capacity");
        assert!(k.is_fresh(0));
        k.set_capacity(5).expect("revocation");
        assert_eq!(k.capacity(), 5);
        assert!(!k.is_fresh(0));
        k.plan_at(0).expect("plan at the new capacity");
        assert!(k.is_fresh(0));
    }

    #[test]
    fn registry_planning_skips_parked_jobs() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("a", 4, 0));
        let b = k.admit(JobSpec { parked: true, ..spec("b", 4, 0) });
        k.plan_at(0).expect("plan");
        assert_eq!(k.plan_ids(), &[a]);
        assert_eq!(k.parked_count(), 1);
        k.set_parked(b, false).expect("known job");
        k.plan_at(0).expect("plan");
        assert_eq!(k.plan_ids(), &[a, b]);
        assert!(k.entry(b).is_some());
        assert!(matches!(
            k.set_parked(JobId(99), true),
            Err(PlannerError::UnknownJob(99))
        ));
    }

    #[test]
    fn ingest_sample_retires_on_last_sample() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("a", 2, 0));
        assert!(!k.ingest_sample(a, 40).expect("known"));
        assert!(k.ingest_sample(a, 44).expect("known"), "the last task completes the job");
        assert!(k.job(a).is_none(), "retired on last sample");
        assert!(matches!(
            k.ingest_sample(a, 1),
            Err(PlannerError::UnknownJob(0))
        ));
    }

    /// A runtime too large to estimate the job's remaining tasks from never
    /// reaches its samples: kept, it would fail every plan until the job
    /// left.
    #[test]
    fn ingest_sample_refuses_a_runtime_it_cannot_estimate() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("a", 100, 0));
        assert!(matches!(
            k.ingest_sample(a, 100_000_000_000_000),
            Err(PlannerError::Estimator(rush_estimator::EstimatorError::RangeTooLarge { .. }))
        ));
        let record = k.job(a).expect("still resident");
        assert!(record.samples.is_empty() && record.remaining_tasks == 100);
        k.plan_at(0).expect("plan");
        k.ingest_sample(a, 60).expect("an ordinary runtime");
        k.plan_at(1).expect("plan");
    }

    /// The two sample paths stay apart: a job's own samples never reach
    /// the pools a roster borrows from, and a pooled sample never becomes
    /// one of a record's own or retires it.
    #[test]
    fn own_and_pooled_samples_stay_apart() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("tpl", 2, 0));
        k.ingest_sample(a, 30).expect("known");
        assert!(k.label_pool.is_empty() && k.global_pool.is_empty());

        let b = k.admit(spec("tpl", 1, 0));
        k.plan_at(0).expect("plan");
        k.pool_sample(b, 31);
        k.pool_sample(b, 32);
        let record = k.job(b).expect("pooling never retires");
        assert!(record.samples.is_empty());
        assert_eq!(record.remaining_tasks, 1);
        assert!(!k.is_fresh(0), "new evidence invalidates the plan");
        assert_eq!(k.job(a).map(|r| r.samples.as_slice()), Some(&[30][..]));
    }

    #[test]
    fn pool_sample_feeds_pools_even_for_unknown_jobs() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("tpl", 4, 0));
        k.pool_sample(a, 30);
        k.pool_sample(JobId(77), 31);
        // Both samples landed in the global pool; only the known one in
        // the label pool. A fresh same-label job borrows the label pool.
        assert_eq!(
            cold_start_samples(&k.label_pool, &k.global_pool, "tpl", &[]),
            &[30]
        );
        assert_eq!(
            cold_start_samples(&k.label_pool, &k.global_pool, "other", &[]),
            &[30, 31]
        );
    }

    #[test]
    fn pool_caps_drain_oldest() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("tpl", 4, 0));
        for i in 0..(POOL_CAP as u64 + 10) {
            k.pool_sample(a, i);
        }
        assert_eq!(k.global_pool.len(), POOL_CAP);
        assert_eq!(k.global_pool.first().copied(), Some(10));
        let pool = k.label_pool.get("tpl").expect("label pool exists");
        assert_eq!(pool.len(), POOL_CAP);
    }

    #[test]
    fn cancel_dirties_only_known_jobs() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("a", 4, 0));
        k.plan_at(0).expect("plan");
        assert!(!k.cancel(JobId(9)), "unknown cancel is a no-op");
        assert!(k.is_fresh(0), "no-op cancel must not invalidate");
        assert!(k.cancel(a));
        assert!(!k.is_fresh(0));
    }

    /// A restored record faces the rules a live kernel's records obey:
    /// unique ids below `next_id`, no finished job, no sample
    /// `ingest_sample` would have refused.
    #[test]
    fn from_parts_validates_records() {
        let record = JobRecord::from_spec(spec("a", 12, 0));
        let restore = |jobs: Vec<(JobId, JobRecord)>| {
            PlannerCore::from_parts(RushConfig::default(), 4, jobs, 5)
        };
        for (jobs, why) in [
            (vec![(JobId(7), record.clone())], "not below next_id"),
            (vec![(JobId(1), record.clone()), (JobId(1), record.clone())], "duplicate"),
            (
                vec![(JobId(1), JobRecord { remaining_tasks: 0, ..record.clone() })],
                "\"remaining_tasks\"",
            ),
            (
                vec![(
                    JobId(1),
                    JobRecord {
                        remaining_tasks: 10,
                        samples: vec![38, 4_000_000_000_000_000],
                        ..record.clone()
                    },
                )],
                "\"samples\"",
            ),
        ] {
            match restore(jobs) {
                Err(PlannerError::Snapshot(msg)) => assert!(msg.contains(why), "{msg}"),
                other => panic!("{why} must be refused, got {:?}", other.map(|_| ())),
            }
        }
        let sampled = JobRecord { remaining_tasks: 10, samples: vec![38, 44], ..record };
        let mut ok = restore(vec![(JobId(1), sampled)]).expect("consistent parts");
        assert_eq!(ok.next_id(), 5);
        assert_eq!(ok.job_count(), 1);
        ok.plan_at(0).expect("plan");
    }

    #[test]
    fn zero_capacity_is_a_config_error() {
        assert!(matches!(
            PlannerCore::new(RushConfig::default(), 0),
            Err(PlannerError::Config(_))
        ));
    }

    #[test]
    fn estimate_eta_matches_hint_and_scales() {
        let c = RushConfig::default();
        let (eta5, r5) = estimate_eta(&c, &[50, 60, 55], None, 5).expect("estimate");
        let (eta20, _) = estimate_eta(&c, &[50, 60, 55], None, 20).expect("estimate");
        assert!(eta20 > eta5);
        assert!(r5 > 0.0);
        let (small, _) = estimate_eta(&c, &[], Some(10.0), 10).expect("estimate");
        let (big, _) = estimate_eta(&c, &[], Some(1000.0), 10).expect("estimate");
        assert!(big > small);
    }

    #[test]
    fn empty_registry_plans_to_empty() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("a", 4, 0));
        k.plan_at(0).expect("plan");
        assert!(!k.plan().entries.is_empty());
        k.cancel(a);
        k.plan_at(1).expect("plan");
        assert!(k.plan().entries.is_empty());
        assert!(k.plan_ids().is_empty());
    }

    #[test]
    fn install_empty_plan_is_fresh_and_empty() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        k.admit(spec("a", 4, 0));
        k.plan_at(0).expect("plan");
        k.install_empty_plan(3);
        assert!(k.plan().entries.is_empty());
        assert!(k.plan_ids().is_empty());
        assert!(k.is_fresh(3));
    }
}
