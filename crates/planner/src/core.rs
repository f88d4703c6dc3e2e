//! [`PlannerCore`] — the event-driven planner state machine.
//!
//! The kernel owns the four pieces of state the RUSH driving loop needs
//! and that every adapter previously duplicated:
//!
//! 1. the **job registry** ([`JobRecord`] per [`JobId`], in a `BTreeMap`
//!    so iteration — and therefore planning — is deterministic);
//! 2. the **sample history**: per-job completed-task runtimes plus the
//!    cross-job cold-start pools (same-label first, cluster-wide second);
//! 3. the incremental **[`PlanCache`]** memo for the per-job
//!    estimate+WCDE stage;
//! 4. the current **[`Plan`]**, the slot it was computed at, and the
//!    [`PlanDelta`] describing what the last replan changed.
//!
//! All mutation goes through the event methods (or [`PlannerCore::apply`]
//! with a [`crate::PlannerEvent`]); all planning goes through
//! [`PlannerCore::plan_at`] (registry mode) or
//! [`PlannerCore::plan_roster`] (roster mode). Both modes share the
//! invalidation rule: a plan is fresh exactly when no event arrived since
//! it was computed *and* the logical clock still reads the same slot.

use crate::PlannerError;
use rush_core::plan::{compute_plan_incremental, Plan, PlanCache, PlanEntry, PlanInput, PlanPhaseStats, PlanState};
use rush_core::wcde::worst_case_quantile;
use rush_core::RushConfig;
use rush_estimator::DistributionEstimator;
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
    /// Completed-task runtime samples (slots), in arrival order.
    /// Maintained in [`ColdStart::OwnSamplesOnly`] mode; roster-mode
    /// callers carry authoritative samples in the roster instead.
    pub samples: Vec<u64>,
    /// Failed task attempts charged to the job (raises its η).
    pub failed_attempts: usize,
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
            failed_attempts: 0,
        }
    }
}

/// How a job with no samples of its own is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColdStart {
    /// Only the job's own samples feed its estimate; with none, the
    /// configured prior (or runtime hint, for admission probes) carries
    /// it. The daemon and CLI use this: plans must depend only on
    /// explicitly ingested state so snapshot/restore is bit-exact.
    OwnSamplesOnly,
    /// Borrow same-label pool samples, then any cluster-local samples,
    /// before falling back to the prior — mirroring how production
    /// clusters benchmark recurring applications. The simulator adapter
    /// uses this.
    PooledByLabel,
}

/// One job of a caller-supplied planning roster (roster mode): the caller
/// owns the authoritative per-event job state (the simulator's view) and
/// lends it to the kernel for one plan pass, zero-copy.
#[derive(Debug, Clone, Copy)]
pub struct RosterJob<'a> {
    /// Kernel job id.
    pub id: JobId,
    /// Template label (cold-start pool key).
    pub label: &'a str,
    /// The job's own completed-task runtime samples.
    pub samples: &'a [u64],
    /// Tasks not yet completed.
    pub remaining_tasks: usize,
    /// Tasks currently running.
    pub running: u32,
    /// Failed attempts so far.
    pub failed_attempts: usize,
    /// Slots since arrival.
    pub age: f64,
    /// Completion-time utility.
    pub utility: TimeUtility,
}

/// What one replan changed, keyed by job id — the incremental contract
/// between the kernel and its adapters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanDelta {
    /// Jobs that are new in the plan or whose entry (η, target, mapping
    /// column, …) differs from the previous plan, with their new entries.
    pub changed: Vec<(JobId, PlanEntry)>,
    /// Jobs that were in the previous plan but are not in this one.
    pub removed: Vec<JobId>,
}

impl PlanDelta {
    /// Whether the replan changed nothing.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty() && self.removed.is_empty()
    }
}

/// Result of ingesting one runtime sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleOutcome {
    /// Whether the sample's job was resident in the registry.
    pub known: bool,
    /// Whether this was the job's last outstanding task (and, with
    /// retirement enabled, the job was dropped from the registry).
    pub completed: bool,
}

/// The planner kernel. See the [crate docs](crate) for the layering.
#[derive(Debug, Clone)]
pub struct PlannerCore {
    config: RushConfig,
    capacity: u32,
    cold_start: ColdStart,
    /// Drop a job from the registry when its last task reports (daemon
    /// semantics). Roster-mode callers keep records alive until an
    /// explicit `Cancel` because late samples may still arrive.
    retire_completed: bool,
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
    /// Set by every state-changing event; cleared by a successful replan.
    dirty: bool,
    /// What the last replan changed.
    delta: PlanDelta,
}

impl PlannerCore {
    /// Creates an empty kernel in [`ColdStart::OwnSamplesOnly`] mode with
    /// retirement enabled (daemon semantics).
    ///
    /// # Errors
    ///
    /// [`PlannerError::Config`] for zero capacity, [`PlannerError::Core`]
    /// for an invalid [`RushConfig`].
    pub fn new(config: RushConfig, capacity: u32) -> Result<Self, PlannerError> {
        config.validate()?;
        if capacity == 0 {
            return Err(PlannerError::Config("capacity must be >= 1".into()));
        }
        Ok(PlannerCore {
            config,
            capacity,
            cold_start: ColdStart::OwnSamplesOnly,
            retire_completed: true,
            jobs: BTreeMap::new(),
            next_id: 0,
            label_pool: BTreeMap::new(),
            global_pool: Vec::new(),
            state: PlanState::new(),
            plan: Plan::default(),
            plan_ids: Vec::new(),
            plan_slot: None,
            dirty: false,
            delta: PlanDelta::default(),
        })
    }

    /// Creates a kernel without validating the config — adapter use only:
    /// the simulator's scheduler SPI has no error channel, so an invalid
    /// config must surface as a failed plan pass at planning time (exactly
    /// as it did pre-kernel), not as a construction error.
    pub(crate) fn new_unchecked(config: RushConfig, capacity: u32) -> Self {
        PlannerCore {
            config,
            capacity,
            cold_start: ColdStart::OwnSamplesOnly,
            retire_completed: true,
            jobs: BTreeMap::new(),
            next_id: 0,
            label_pool: BTreeMap::new(),
            global_pool: Vec::new(),
            state: PlanState::new(),
            plan: Plan::default(),
            plan_ids: Vec::new(),
            plan_slot: None,
            dirty: false,
            delta: PlanDelta::default(),
        }
    }

    /// Selects the cold-start policy.
    pub fn with_cold_start(mut self, cold_start: ColdStart) -> Self {
        self.cold_start = cold_start;
        self
    }

    /// Enables or disables dropping a job when its last task reports.
    pub fn with_retirement(mut self, retire: bool) -> Self {
        self.retire_completed = retire;
        self
    }

    /// Rebuilds a kernel from snapshot parts.
    ///
    /// # Errors
    ///
    /// Same as [`PlannerCore::new`], plus [`PlannerError::Snapshot`] when
    /// a job id is duplicated or not below `next_id`.
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

    /// What the last replan changed.
    pub fn delta(&self) -> &PlanDelta {
        &self.delta
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

    /// Whether the current plan is fresh for `now_slot`: no event arrived
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
    // Events
    // ------------------------------------------------------------------

    /// Registers a new job under the next free id and returns that id.
    pub fn admit(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.next_id);
        self.next_id = self.next_id.saturating_add(1);
        self.dirty = true;
        self.jobs.insert(id, JobRecord::from_spec(spec));
        id
    }

    /// Registers (or re-registers) a job under a caller-chosen id — the
    /// simulator owns its own id space. Bumps `next_id` past `id`.
    pub fn admit_as(&mut self, id: JobId, spec: JobSpec) {
        self.next_id = self.next_id.max(id.0.saturating_add(1));
        self.dirty = true;
        self.jobs.insert(id, JobRecord::from_spec(spec));
    }

    /// Ingests one completed-task runtime sample.
    ///
    /// In [`ColdStart::PooledByLabel`] mode the sample also feeds the
    /// same-label and cluster-wide pools (a sample for an unknown job
    /// still feeds the cluster pool — evidence is evidence). In
    /// [`ColdStart::OwnSamplesOnly`] mode an unknown job is an error, and
    /// so is a runtime too large to estimate the job's remaining tasks
    /// from ([`rush_estimator::check_runtime`]): kept, it would fail every
    /// later plan. Roster mode (pooled) trusts its caller's runtimes.
    ///
    /// # Errors
    ///
    /// [`PlannerError::UnknownJob`] and [`PlannerError::Estimator`]
    /// ([`rush_estimator::EstimatorError::RangeTooLarge`]), in
    /// `OwnSamplesOnly` mode only; the job is left untouched.
    pub fn ingest_sample(
        &mut self,
        job: JobId,
        runtime: u64,
    ) -> Result<SampleOutcome, PlannerError> {
        match self.cold_start {
            ColdStart::OwnSamplesOnly => {
                let record =
                    self.jobs.get_mut(&job).ok_or(PlannerError::UnknownJob(job.0))?;
                rush_estimator::check_runtime(runtime, record.remaining_tasks as usize)?;
                record.samples.push(runtime);
                record.remaining_tasks = record.remaining_tasks.saturating_sub(1);
                let completed = record.remaining_tasks == 0;
                self.dirty = true;
                if completed && self.retire_completed {
                    self.jobs.remove(&job);
                }
                Ok(SampleOutcome { known: true, completed })
            }
            ColdStart::PooledByLabel => {
                self.dirty = true;
                let label = self.jobs.get(&job).map(|r| r.label.clone());
                let known = label.is_some();
                if let Some(label) = label {
                    let pool = self.label_pool.entry(label).or_default();
                    pool.push(runtime);
                    pool.drain(..pool.len().saturating_sub(POOL_CAP));
                }
                self.global_pool.push(runtime);
                self.global_pool.drain(..self.global_pool.len().saturating_sub(POOL_CAP));
                Ok(SampleOutcome { known, completed: false })
            }
        }
    }

    /// Charges one failed task attempt to the job (the next plan inflates
    /// its η). Returns whether the job was known; the plan is invalidated
    /// either way, since roster-mode callers track attempt counts in the
    /// roster, not the registry.
    pub fn record_failure(&mut self, job: JobId) -> bool {
        self.dirty = true;
        match self.jobs.get_mut(&job) {
            Some(record) => {
                record.failed_attempts = record.failed_attempts.saturating_add(1);
                true
            }
            None => false,
        }
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
    /// changed (epoch close, external state change).
    pub fn invalidate(&mut self) {
        self.dirty = true;
    }

    /// Updates the planning capacity; a change invalidates the plan.
    /// Roster-mode adapters call this with the view's capacity before
    /// planning (the simulator owns the cluster size, not the kernel).
    ///
    /// Crate-private: outside `rush-planner` capacity changes only through
    /// [`PlannerCore::apply`] with [`PlannerEvent::CapacityChange`], so
    /// every change is a typed, validated, replayable event.
    ///
    /// ```
    /// use rush_planner::{PlannerCore, PlannerEvent};
    /// let mut core = PlannerCore::new(rush_core::RushConfig::default(), 8).unwrap();
    /// core.apply(PlannerEvent::CapacityChange { capacity: 4 }).unwrap();
    /// assert_eq!(core.capacity(), 4);
    /// ```
    ///
    /// ```compile_fail
    /// use rush_planner::PlannerCore;
    /// let mut core = PlannerCore::new(rush_core::RushConfig::default(), 8).unwrap();
    /// core.set_capacity(4); // private: E0624
    /// ```
    ///
    /// [`PlannerEvent::CapacityChange`]: crate::PlannerEvent::CapacityChange
    pub(crate) fn set_capacity(&mut self, capacity: u32) {
        if self.capacity != capacity {
            self.capacity = capacity;
            self.dirty = true;
        }
    }

    // ------------------------------------------------------------------
    // Planning
    // ------------------------------------------------------------------

    /// Replans from the kernel's own registry (non-parked jobs, ascending
    /// id order) unless the current plan [is fresh](Self::is_fresh).
    /// Returns the delta of the last replan.
    ///
    /// # Errors
    ///
    /// [`PlannerError::Core`] when the pipeline fails; the previous plan
    /// and staleness are left untouched so the next call retries.
    pub fn plan_at(&mut self, now_slot: u64) -> Result<&PlanDelta, PlannerError> {
        if self.is_fresh(now_slot) {
            return Ok(&self.delta);
        }
        let (ids, hints): (Vec<JobId>, Vec<Option<u64>>) = self
            .jobs
            .iter()
            .filter(|(_, j)| !j.parked)
            .map(|(id, j)| (*id, hint_sample(j.runtime_hint)))
            .unzip();
        // Destructure for disjoint borrows: the inputs borrow the records
        // and pools while the pipeline takes the plan cache mutably.
        let Self { config, capacity, cold_start, jobs, label_pool, global_pool, state, .. } =
            &mut *self;
        let inputs: Vec<PlanInput<'_>> = jobs
            .values()
            .filter(|j| !j.parked)
            .zip(&hints)
            .map(|(j, hint)| {
                // Sized exactly as admission sized it: own samples, else the
                // runtime hint.
                let own = sizing_samples(&j.samples, hint);
                let samples: &[u64] = match cold_start {
                    ColdStart::OwnSamplesOnly => own,
                    ColdStart::PooledByLabel => {
                        cold_start_samples(label_pool, global_pool, &j.label, own)
                    }
                };
                PlanInput {
                    samples: Cow::Borrowed(samples),
                    remaining_tasks: j.remaining_tasks as usize,
                    running: 0,
                    failed_attempts: j.failed_attempts,
                    age: now_slot.saturating_sub(j.arrived_slot) as f64,
                    utility: j.utility,
                }
            })
            .collect();
        let plan = compute_plan_incremental(config, *capacity, &inputs, state)?;
        self.install_plan(now_slot, ids, plan);
        Ok(&self.delta)
    }

    /// Replans from a caller-supplied roster (roster mode) unless the
    /// current plan [is fresh](Self::is_fresh). The roster's order is the
    /// planning order; the kernel contributes cold-start pools and the
    /// plan cache. Returns the delta of the last replan.
    ///
    /// # Errors
    ///
    /// [`PlannerError::Core`] when the pipeline fails; the previous plan
    /// and staleness are left untouched. Callers that must make progress
    /// anyway can install an empty plan via
    /// [`PlannerCore::install_empty_plan`].
    pub fn plan_roster(
        &mut self,
        now_slot: u64,
        roster: &[RosterJob<'_>],
    ) -> Result<&PlanDelta, PlannerError> {
        if self.is_fresh(now_slot) {
            return Ok(&self.delta);
        }
        let Self { config, capacity, cold_start, label_pool, global_pool, state, .. } =
            &mut *self;
        let inputs: Vec<PlanInput<'_>> = roster
            .iter()
            .map(|r| {
                let samples: &[u64] = match cold_start {
                    ColdStart::OwnSamplesOnly => r.samples,
                    ColdStart::PooledByLabel => {
                        cold_start_samples(label_pool, global_pool, r.label, r.samples)
                    }
                };
                PlanInput {
                    samples: Cow::Borrowed(samples),
                    remaining_tasks: r.remaining_tasks,
                    running: r.running,
                    failed_attempts: r.failed_attempts,
                    age: r.age,
                    utility: r.utility,
                }
            })
            .collect();
        let plan = compute_plan_incremental(config, *capacity, &inputs, state)?;
        let ids: Vec<JobId> = roster.iter().map(|r| r.id).collect();
        self.install_plan(now_slot, ids, plan);
        Ok(&self.delta)
    }

    /// Installs an *empty* plan for `now_slot` — the fallback when a plan
    /// pass fails on pathological inputs and the caller must stay live
    /// (the simulator adapter's stall guards keep the cluster moving).
    /// The delta reports every previously planned job as removed.
    pub fn install_empty_plan(&mut self, now_slot: u64) {
        self.install_plan(now_slot, Vec::new(), Plan::default());
    }

    fn install_plan(&mut self, now_slot: u64, ids: Vec<JobId>, plan: Plan) {
        let mut previous: BTreeMap<JobId, PlanEntry> = self
            .plan_ids
            .iter()
            .copied()
            .zip(self.plan.entries.iter().copied())
            .collect();
        let mut changed = Vec::new();
        for (id, entry) in ids.iter().zip(plan.entries.iter()) {
            match previous.remove(id) {
                Some(old) if old == *entry => {}
                _ => changed.push((*id, *entry)),
            }
        }
        let removed: Vec<JobId> = previous.into_keys().collect();
        self.delta = PlanDelta { changed, removed };
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
        for (id, _) in &self.delta.changed {
            debug_assert!(
                self.plan_ids.contains(id),
                "changed job {id} must be in the installed plan"
            );
        }
        for id in &self.delta.removed {
            debug_assert!(
                !self.plan_ids.contains(id),
                "removed job {id} must not be in the installed plan"
            );
        }
    }
}

/// Picks the sample set backing a job's estimate: its own completed-task
/// runtimes, else the same-label pool, else the cluster-wide pool. A label
/// pool that exists but holds no samples is *no evidence* — it must not
/// shadow the global pool (a label entry can outlive its drained samples).
/// The returned slice may be empty, in which case the estimator falls back
/// to the configured prior.
pub(crate) fn cold_start_samples<'v>(
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
    fn plan_is_fresh_within_slot_and_stale_across() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        k.admit(spec("a", 4, 0));
        let delta = k.plan_at(0).expect("plan").clone();
        assert_eq!(delta.changed.len(), 1);
        assert!(k.is_fresh(0));
        assert!(!k.is_fresh(1), "a new slot is a new plan");
        // Same slot, no events: the cached delta comes back, no recompute.
        let misses = k.cache_misses();
        let again = k.plan_at(0).expect("plan").clone();
        assert_eq!(again, delta);
        assert_eq!(k.cache_misses(), misses);
    }

    #[test]
    fn delta_reports_changes_and_removals() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("a", 4, 0));
        let b = k.admit(spec("b", 8, 0));
        k.plan_at(0).expect("plan");
        // Nothing changed: replanning at the same inputs yields an empty
        // delta (forced via invalidate).
        k.invalidate();
        let delta = k.plan_at(0).expect("plan");
        assert!(delta.is_empty(), "unchanged inputs produce an empty delta");
        // Cancel one job: it must show up as removed, and the survivor's
        // entry typically changes (more capacity for it).
        assert!(k.cancel(a));
        let delta = k.plan_at(0).expect("plan").clone();
        assert_eq!(delta.removed, vec![a]);
        assert!(delta.changed.iter().all(|(id, _)| *id == b));
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
    fn own_samples_mode_retires_on_last_sample() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("a", 2, 0));
        let first = k.ingest_sample(a, 40).expect("known");
        assert_eq!(first, SampleOutcome { known: true, completed: false });
        let last = k.ingest_sample(a, 44).expect("known");
        assert_eq!(last, SampleOutcome { known: true, completed: true });
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
    fn own_samples_mode_refuses_a_runtime_it_cannot_estimate() {
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

    #[test]
    fn pooled_mode_feeds_pools_even_for_unknown_jobs() {
        let mut k = PlannerCore::new(RushConfig::default(), 8)
            .expect("kernel")
            .with_cold_start(ColdStart::PooledByLabel)
            .with_retirement(false);
        let a = k.admit(spec("tpl", 4, 0));
        let known = k.ingest_sample(a, 30).expect("pooled never errors");
        assert!(known.known);
        let unknown = k.ingest_sample(JobId(77), 31).expect("pooled never errors");
        assert!(!unknown.known);
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
        let mut k = PlannerCore::new(RushConfig::default(), 8)
            .expect("kernel")
            .with_cold_start(ColdStart::PooledByLabel);
        let a = k.admit(spec("tpl", 4, 0));
        for i in 0..(POOL_CAP as u64 + 10) {
            k.ingest_sample(a, i).expect("pooled");
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

    #[test]
    fn from_parts_validates_ids() {
        let record = JobRecord::from_spec(spec("a", 4, 0));
        let err = PlannerCore::from_parts(
            RushConfig::default(),
            4,
            vec![(JobId(7), record.clone())],
            5,
        );
        assert!(matches!(err, Err(PlannerError::Snapshot(_))));
        let err = PlannerCore::from_parts(
            RushConfig::default(),
            4,
            vec![(JobId(1), record.clone()), (JobId(1), record.clone())],
            5,
        );
        assert!(matches!(err, Err(PlannerError::Snapshot(_))));
        let ok = PlannerCore::from_parts(RushConfig::default(), 4, vec![(JobId(1), record)], 5)
            .expect("consistent parts");
        assert_eq!(ok.next_id(), 5);
        assert_eq!(ok.job_count(), 1);
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
    fn empty_registry_plans_to_empty_and_clears_cache() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("a", 4, 0));
        k.plan_at(0).expect("plan");
        assert!(!k.plan().entries.is_empty());
        k.cancel(a);
        let delta = k.plan_at(1).expect("plan").clone();
        assert!(k.plan().entries.is_empty());
        assert_eq!(delta.removed, vec![a]);
    }

    #[test]
    fn install_empty_plan_reports_removals() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(spec("a", 4, 0));
        k.plan_at(0).expect("plan");
        k.install_empty_plan(3);
        assert!(k.plan().entries.is_empty());
        assert_eq!(k.delta().removed, vec![a]);
        assert!(k.is_fresh(3));
    }
}
