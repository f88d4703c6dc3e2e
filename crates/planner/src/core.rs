//! [`PlannerCore`] — the planner state machine.
//!
//! The kernel owns the four pieces of state the RUSH driving loop needs
//! and that every adapter previously duplicated:
//!
//! 1. the **job registry** ([`JobRecord`] per [`JobId`], in a `BTreeMap`
//!    so iteration — and therefore planning — is deterministic). A record
//!    is the client's [`JobSubmission`] plus the kernel's bookkeeping, and
//!    it is the only record of the job: the daemon, its snapshots and the
//!    CLI read it as it is;
//! 2. the **sample history**: per-job completed-task runtimes
//!    ([`PlannerCore::ingest_sample`]) and the cross-job cold-start pools,
//!    same-label first, cluster-wide second ([`PlannerCore::pool_sample`]),
//!    each job and pool stamped from one monotone counter whenever its
//!    samples change, so a pass tells the memo which jobs' inputs may have
//!    moved ([`PlanInput::generation`]);
//! 3. the incremental **[`PlanCache`]** memo for the per-job
//!    estimate+WCDE stage;
//! 4. the current **pass** — its job ids and the slot it was started at —
//!    and the most recent complete **[`Plan`]**.
//!
//! All mutation goes through the named methods; all planning goes through
//! [`PlannerCore::plan_at`] (registry mode) or [`PlannerCore::plan_roster`]
//! (roster mode), which complete a pass, or through the registry-mode
//! reads that run only the stages they need: [`PlannerCore::solve_at`]
//! (every job's η) and [`PlannerCore::entry_at`] (one job's entry). All
//! share the invalidation rule: a pass is fresh exactly when nothing changed
//! since it started *and* the logical clock still reads the same slot, and
//! a read of a fresh pass continues it instead of starting another.

use crate::PlannerError;
use rush_core::plan::{
    robust_demand, JobSolve, Plan, PlanCache, PlanEntry, PlanInput, PlanPhaseStats, PlanState,
};
use rush_core::{CoreError, RushConfig};
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

/// A job submission: everything the paper's job-configuration interface
/// collects from the client (Sec. IV). The daemon receives it over the
/// wire; the simulator adapter and the CLI build it from a job's spec.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSubmission {
    /// Human-readable label (e.g. the workload template name); keys the
    /// cold-start pools.
    pub label: String,
    /// Number of tasks the job will run.
    pub tasks: u64,
    /// Client's per-task runtime hint in slots (used only before the first
    /// real sample arrives; the cold prior covers its absence).
    pub runtime_hint: Option<f64>,
    /// Completion-time utility.
    pub utility: TimeUtility,
    /// Declared time budget in slots, if any (drives the daemon's
    /// admission deadline; the planner itself reads only the utility).
    pub budget: Option<u64>,
    /// Priority weight.
    pub priority: u32,
}

/// The blank a wire reader starts from; it fails the wire's own
/// validation (`tasks`, `priority` ≥ 1), so it can never pass for a
/// decoded submission.
impl Default for JobSubmission {
    fn default() -> Self {
        JobSubmission {
            label: String::new(),
            tasks: 0,
            runtime_hint: None,
            utility: TimeUtility::Constant { weight: 1.0 },
            budget: None,
            priority: 0,
        }
    }
}

impl JobSubmission {
    /// Whether the job is completion-time insensitive (constant utility) —
    /// the class admission control may defer instead of reject.
    pub fn is_insensitive(&self) -> bool {
        matches!(self.utility, TimeUtility::Constant { .. })
    }
}

/// One resident job: the client's submission plus the kernel's
/// bookkeeping for it. The only record of a job in every adapter.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobRecord {
    /// The submission as received.
    pub submission: JobSubmission,
    /// Tasks that have not reported a sample yet.
    pub remaining_tasks: u64,
    /// Logical slot at which the job was registered.
    pub arrived_slot: u64,
    /// Whether the job is parked (excluded from registry planning).
    pub parked: bool,
    /// Completed-task runtime samples (slots), in arrival order, as
    /// [`PlannerCore::ingest_sample`] recorded them. Roster mode reads
    /// samples from the caller's view instead.
    pub samples: Vec<u64>,
}

impl JobRecord {
    /// A planned, sample-less record of `submission` arrived at
    /// `arrived_slot`, with all its tasks remaining.
    pub fn new(submission: JobSubmission, arrived_slot: u64) -> Self {
        JobRecord {
            remaining_tasks: submission.tasks,
            submission,
            arrived_slot,
            parked: false,
            samples: Vec::new(),
        }
    }
}

/// The planner kernel. See the [crate docs](crate) for the layering.
#[derive(Debug, Clone)]
pub struct PlannerCore {
    config: RushConfig,
    capacity: u32,
    /// Each record beside its stamp: the counter's value when the record or
    /// its own samples last changed.
    jobs: BTreeMap<JobId, (JobRecord, u64)>,
    next_id: u64,
    /// The last stamp handed out; every change takes the next one.
    stamp: u64,
    /// Cross-job sample pools keyed by job label (template name).
    label_pool: BTreeMap<String, Pool>,
    /// All observed samples regardless of label — last-resort cold-start
    /// pool before the configured prior.
    global_pool: Pool,
    /// Cross-event planning state: the per-job estimate + WCDE memo
    /// table plus the peel trace and mapping pack the delta replan
    /// patches instead of recomputing, and the current pass's stages (see
    /// `rush_core::plan::PlanState`).
    state: PlanState,
    /// Job ids of the current pass, in its input order.
    pass_ids: Vec<JobId>,
    /// Whether `plan` is the current pass, completed.
    installed: bool,
    /// The most recent complete plan.
    plan: Plan,
    /// Job ids of `plan.entries`, parallel.
    plan_ids: Vec<JobId>,
    /// Slot the current pass was started at.
    plan_slot: Option<u64>,
    /// Set by every state-changing call; cleared by a successful solve.
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
            stamp: 0,
            label_pool: BTreeMap::new(),
            global_pool: Pool::default(),
            state: PlanState::new(),
            pass_ids: Vec::new(),
            installed: false,
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
            let stamp = kernel.next_stamp();
            if kernel.jobs.insert(id, (record, stamp)).is_some() {
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
        self.jobs.get(&id).map(|(j, _)| j)
    }

    /// Iterates all resident jobs (planned and parked) in id order.
    pub fn jobs(&self) -> impl Iterator<Item = (JobId, &JobRecord)> {
        self.jobs.iter().map(|(id, (j, _))| (*id, j))
    }

    /// Number of resident jobs (planned and parked).
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Number of parked jobs.
    pub fn parked_count(&self) -> usize {
        self.jobs.values().filter(|(j, _)| j.parked).count()
    }

    /// The most recent complete plan: the one [`PlannerCore::plan_at`] or
    /// [`PlannerCore::plan_roster`] last finished. The reads that run part
    /// of a pass ([`PlannerCore::solve_at`], [`PlannerCore::entry_at`])
    /// never change it, so it holds only whole entries.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Job ids of [`PlannerCore::plan`]'s entries, parallel.
    pub fn plan_ids(&self) -> &[JobId] {
        &self.plan_ids
    }

    /// Slot the current pass was started at (`None` before any pass).
    pub fn plan_slot(&self) -> Option<u64> {
        self.plan_slot
    }

    /// Iterates the most recent complete plan as `(job, entry)` pairs, in
    /// planning order: [`PlannerCore::plan_ids`] zipped with the plan's
    /// entries.
    pub fn planned(&self) -> impl Iterator<Item = (JobId, &PlanEntry)> {
        self.plan_ids.iter().copied().zip(&self.plan.entries)
    }

    /// The current pass's jobs with their `(η, R)`, in planning order, as
    /// far as [`PlannerCore::solve_at`] (or any read after it) has run it.
    pub fn solved(&self) -> impl Iterator<Item = (JobId, &JobSolve)> {
        self.pass_ids.iter().copied().zip(self.state.solves())
    }

    /// The plan entry of one job, if it is in the most recent complete plan.
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

    /// Phase breakdown and delta telemetry of the current pass, summed over
    /// the calls that ran its stages.
    pub fn plan_stats(&self) -> PlanPhaseStats {
        self.state.last_stats()
    }

    /// Whether the current pass is fresh for `now_slot`: nothing changed
    /// since it started and the clock still reads the same slot. A read of a
    /// fresh pass continues it; a stale one starts another.
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
    pub fn admit(&mut self, record: JobRecord) -> JobId {
        let id = JobId(self.next_id);
        self.admit_as(id, record);
        id
    }

    /// Registers (or re-registers) a job under a caller-chosen id — the
    /// simulator owns its own id space. Bumps `next_id` past `id`.
    pub fn admit_as(&mut self, id: JobId, record: JobRecord) {
        self.next_id = self.next_id.max(id.0.saturating_add(1));
        self.dirty = true;
        let stamp = self.next_stamp();
        self.jobs.insert(id, (record, stamp));
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
        let next = self.next_stamp();
        let (record, stamp) = self.jobs.get_mut(&job).ok_or(PlannerError::UnknownJob(job.0))?;
        rush_estimator::check_runtime(runtime, record.remaining_tasks as usize)?;
        *stamp = next;
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
    ///
    /// The job (a roster's own samples grow with the pools), its label pool
    /// and the cluster-wide pool all take one new stamp.
    pub fn pool_sample(&mut self, job: JobId, runtime: u64) {
        self.dirty = true;
        let next = self.next_stamp();
        if let Some((record, stamp)) = self.jobs.get_mut(&job) {
            *stamp = next;
            let pool = self.label_pool.entry(record.submission.label.clone()).or_default();
            pool.push(runtime, next);
        }
        self.global_pool.push(runtime, next);
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
        let (record, _) = self.jobs.get_mut(&job).ok_or(PlannerError::UnknownJob(job.0))?;
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
    /// id order) unless the current pass [is fresh](Self::is_fresh), and
    /// completes the pass: [`PlannerCore::plan`] is then its plan. A job
    /// is sized from its own samples, else its runtime hint, else the
    /// configured prior — exactly as admission sized it ([`estimate_eta`]),
    /// and never from the pools, so a plan depends only on the records and
    /// a snapshot restore reproduces it bit for bit. The records count no
    /// failed attempts, so [`RushConfig::failure_aware`] inflates nothing
    /// here.
    ///
    /// # Errors
    ///
    /// [`PlannerError::Core`] when the pipeline fails; the previous plan
    /// and staleness are left untouched so the next call retries.
    pub fn plan_at(&mut self, now_slot: u64) -> Result<(), PlannerError> {
        self.solve_at(now_slot)?;
        self.install()
    }

    /// The solve stage of a registry-mode pass: unless the current pass [is
    /// fresh](Self::is_fresh), starts one and fixes every planned job's
    /// `(η, R)` ([`PlannerCore::solved`]), as [`PlannerCore::plan_at`]
    /// would, and nothing more.
    ///
    /// # Errors
    ///
    /// Same as [`PlannerCore::plan_at`].
    pub fn solve_at(&mut self, now_slot: u64) -> Result<(), PlannerError> {
        if self.is_fresh(now_slot) {
            return Ok(());
        }
        let (ids, hints): (Vec<JobId>, Vec<Option<u64>>) = self
            .jobs
            .iter()
            .filter(|(_, (j, _))| !j.parked)
            .map(|(id, (j, _))| (*id, hint_sample(j.submission.runtime_hint)))
            .unzip();
        // Destructure for disjoint borrows: the inputs borrow the records
        // while the pipeline takes the planning state mutably.
        let Self { config, capacity, jobs, state, .. } = &mut *self;
        let inputs: Vec<PlanInput<'_>> = jobs
            .iter()
            .filter(|(_, (j, _))| !j.parked)
            .zip(&hints)
            .map(|((id, (j, stamp)), hint)| PlanInput {
                key: id.0,
                // Its own samples or its hint: both change with the record.
                generation: Some(*stamp),
                samples: Cow::Borrowed(sizing_samples(&j.samples, hint)),
                remaining_tasks: j.remaining_tasks as usize,
                failed_attempts: 0,
                age: now_slot.saturating_sub(j.arrived_slot) as f64,
                utility: j.submission.utility,
            })
            .collect();
        state.solve(config, *capacity, &inputs)?;
        self.start_pass(now_slot, ids);
        Ok(())
    }

    /// One planned job's entry in the registry-mode pass at `now_slot`
    /// (`None` when the job is not planned): continues the current pass if
    /// it [is fresh](Self::is_fresh), else starts one, and runs only the
    /// stages the entry reads — the peel's layers, the deferred phase if the
    /// job is lax, and the map up to the job's pack position. The entry is
    /// the one [`PlannerCore::plan_at`] would produce.
    ///
    /// # Errors
    ///
    /// Same as [`PlannerCore::plan_at`].
    pub fn entry_at(&mut self, now_slot: u64, id: JobId) -> Result<Option<PlanEntry>, PlannerError> {
        self.solve_at(now_slot)?;
        let Some(i) = self.pass_ids.iter().position(|&p| p == id) else {
            return Ok(None);
        };
        Ok(self.state.entry(i)?)
    }

    /// Replans from the simulator's view at `view.now` unless the current
    /// plan [is fresh](Self::is_fresh). The view's jobs, in its order, are
    /// the planning roster, and their samples, counts and ages are
    /// authoritative. A job with no samples of its own borrows its label's
    /// pool, else the cluster-wide pool ([`PlannerCore::pool_sample`]),
    /// before the configured prior — as production clusters benchmark
    /// recurring applications. A job the kernel admitted is stamped: every
    /// sample added to its view must also reach
    /// [`PlannerCore::pool_sample`]. A job it never admitted is hashed on
    /// every pass.
    ///
    /// # Errors
    ///
    /// [`PlannerError::Core`] when the pipeline fails; the previous plan
    /// and staleness are left untouched. Callers that must make progress
    /// anyway can install an empty plan via
    /// [`PlannerCore::install_empty_plan`].
    pub fn plan_roster(&mut self, view: &ClusterView<'_>) -> Result<(), PlannerError> {
        if self.is_fresh(view.now) {
            return self.install();
        }
        let Self { config, capacity, jobs, label_pool, global_pool, state, .. } = &mut *self;
        let inputs: Vec<PlanInput<'_>> = view
            .jobs
            .iter()
            .map(|j| {
                let key = JobId::from(j.id);
                let (samples, pool_stamp) =
                    cold_start_samples(label_pool, global_pool, &j.label, &j.samples);
                PlanInput {
                    key: key.0,
                    // A job the kernel never admitted is not tracked.
                    generation: jobs.get(&key).map(|&(_, stamp)| stamp.max(pool_stamp)),
                    samples: Cow::Borrowed(samples),
                    remaining_tasks: j.pending_tasks,
                    failed_attempts: j.failed_attempts,
                    age: j.age(view.now) as f64,
                    utility: j.utility,
                }
            })
            .collect();
        state.solve(config, *capacity, &inputs)?;
        let ids: Vec<JobId> = view.jobs.iter().map(|j| JobId::from(j.id)).collect();
        self.start_pass(view.now, ids);
        self.install()
    }

    /// Installs an *empty* plan for `now_slot` — the fallback when a plan
    /// pass fails on pathological inputs and the caller must stay live
    /// (the simulator adapter's stall guards keep the cluster moving).
    pub fn install_empty_plan(&mut self, now_slot: u64) {
        self.start_pass(now_slot, Vec::new());
        self.plan = Plan::default();
        self.plan_ids.clear();
        self.installed = true;
    }

    /// Takes the next stamp.
    fn next_stamp(&mut self) -> u64 {
        self.stamp = self.stamp.wrapping_add(1);
        self.stamp
    }

    /// Makes the pass the planning state just solved, over `ids`, current.
    fn start_pass(&mut self, now_slot: u64, ids: Vec<JobId>) {
        self.pass_ids = ids;
        self.plan_slot = Some(now_slot);
        self.dirty = false;
        self.installed = false;
    }

    /// Completes the current pass, if it is not yet, and makes it the plan.
    fn install(&mut self) -> Result<(), PlannerError> {
        if !self.installed {
            self.plan = self.state.finish()?;
            self.plan_ids.clone_from(&self.pass_ids);
            self.installed = true;
        }
        self.check_plan_invariants();
        Ok(())
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

/// A cold-start pool: the newest [`POOL_CAP`] pooled samples, and the stamp
/// of its last change.
#[derive(Debug, Clone, Default)]
struct Pool {
    samples: Vec<u64>,
    stamp: u64,
}

impl Pool {
    fn push(&mut self, runtime: u64, stamp: u64) {
        self.samples.push(runtime);
        self.samples.drain(..self.samples.len().saturating_sub(POOL_CAP));
        self.stamp = stamp;
    }
}

/// Picks the sample set backing a job's estimate: its own completed-task
/// runtimes, else the same-label pool, else the cluster-wide pool, with the
/// stamp of the pool it picked (0 for the job's own samples, whose stamp is
/// the job's). A label pool that exists but holds no samples is *no
/// evidence* — it must not shadow the global pool (a label entry can
/// outlive its drained samples). The returned slice may be empty, in which
/// case the estimator falls back to the configured prior.
fn cold_start_samples<'v>(
    label_pool: &'v BTreeMap<String, Pool>,
    global_pool: &'v Pool,
    label: &str,
    own: &'v [u64],
) -> (&'v [u64], u64) {
    if !own.is_empty() {
        (own, 0)
    } else if let Some(pool) = label_pool.get(label).filter(|p| !p.samples.is_empty()) {
        (&pool.samples, pool.stamp)
    } else {
        // Same-template history is best, but any cluster-local runtime
        // evidence beats an arbitrary prior.
        (&global_pool.samples, global_pool.stamp)
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
    let samples = sizing_samples(samples, &hint);
    robust_demand(config, &config.estimator(), samples, remaining_tasks).map_err(|e| match e {
        // A failed estimate is reported as the estimator's own error.
        CoreError::Estimator(e) => PlannerError::Estimator(e),
        e => PlannerError::Core(e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(label: &str, tasks: u64, arrived: u64) -> JobRecord {
        let submission = JobSubmission {
            label: label.into(),
            tasks,
            runtime_hint: Some(50.0),
            utility: TimeUtility::sigmoid(500.0, 3.0, 0.02).expect("valid utility"),
            budget: None,
            priority: 1,
        };
        JobRecord::new(submission, arrived)
    }

    /// The contract layer is armed in every debug build: plan ids out of
    /// step with the plan's entries must trip it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "plan ids and entries must stay parallel")]
    fn contract_layer_catches_ids_out_of_step_with_entries() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        k.admit(job("a", 4, 0));
        k.plan_at(0).expect("plan");
        k.plan_ids.push(JobId(99));
        k.check_plan_invariants();
    }

    #[test]
    fn admit_assigns_ascending_ids_and_dirties() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(job("a", 4, 0));
        let b = k.admit(job("b", 4, 0));
        assert_eq!((a, b), (JobId(0), JobId(1)));
        assert_eq!(k.next_id(), 2);
        assert!(!k.is_fresh(0), "admission invalidates the plan");
    }

    #[test]
    fn admit_as_replaces_and_bumps_next_id() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        k.admit_as(JobId(7), job("x", 3, 0));
        assert_eq!(k.next_id(), 8);
        assert_eq!(k.job(JobId(7)).map(|j| j.remaining_tasks), Some(3));
        // Re-registration replaces the record.
        k.admit_as(JobId(7), job("x", 9, 0));
        assert_eq!(k.job(JobId(7)).map(|j| j.remaining_tasks), Some(9));
        assert_eq!(k.job_count(), 1);
        // A lower id leaves next_id where it is.
        k.admit_as(JobId(2), job("y", 1, 0));
        assert_eq!(k.next_id(), 8);
        assert_eq!(k.admit(job("z", 1, 0)), JobId(8));
    }

    #[test]
    fn plan_is_fresh_within_slot_and_stale_across() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(job("a", 4, 0));
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
        k.admit(job("a", 5, 0));
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
        let a = k.admit(job("a", 4, 0));
        let b = k.admit(JobRecord { parked: true, ..job("b", 4, 0) });
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
        let a = k.admit(job("a", 2, 0));
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
        let a = k.admit(job("a", 100, 0));
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
        let a = k.admit(job("tpl", 2, 0));
        k.ingest_sample(a, 30).expect("known");
        assert!(k.label_pool.is_empty() && k.global_pool.samples.is_empty());

        let b = k.admit(job("tpl", 1, 0));
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
        let a = k.admit(job("tpl", 4, 0));
        k.pool_sample(a, 30);
        k.pool_sample(JobId(77), 31);
        // Both samples landed in the global pool; only the known one in
        // the label pool. A fresh same-label job borrows the label pool.
        assert_eq!(
            cold_start_samples(&k.label_pool, &k.global_pool, "tpl", &[]).0,
            &[30]
        );
        assert_eq!(
            cold_start_samples(&k.label_pool, &k.global_pool, "other", &[]).0,
            &[30, 31]
        );
    }

    #[test]
    fn pool_caps_drain_oldest() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(job("tpl", 4, 0));
        for i in 0..(POOL_CAP as u64 + 10) {
            k.pool_sample(a, i);
        }
        assert_eq!(k.global_pool.samples.len(), POOL_CAP);
        assert_eq!(k.global_pool.samples.first().copied(), Some(10));
        let pool = k.label_pool.get("tpl").expect("label pool exists");
        assert_eq!(pool.samples.len(), POOL_CAP);
    }

    #[test]
    fn cancel_dirties_only_known_jobs() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(job("a", 4, 0));
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
        let record = job("a", 12, 0);
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
    fn insensitivity_is_derived_from_the_utility() {
        let sensitive = job("a", 1, 0).submission;
        assert!(!sensitive.is_insensitive());
        let flat = TimeUtility::constant(1.0).expect("valid");
        assert!(JobSubmission { utility: flat, ..sensitive }.is_insensitive());
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

    /// Admission's sizing, pinned bit for bit: a job with no task left needs
    /// nothing (as planning sizes it) but keeps its runtime, a hint seeds
    /// a sample-less job, own samples win over a hint, the cold prior sizes
    /// a job with neither, and an estimate that fails is the estimator's
    /// error.
    #[test]
    fn estimate_eta_is_pinned() {
        let c = RushConfig::default();
        let pin = |samples: &[u64], hint: Option<f64>, remaining: usize, want: (u64, f64)| {
            let got = estimate_eta(&c, samples, hint, remaining).expect("estimate");
            let bits = |(eta, runtime): (u64, f64)| (eta, runtime.to_bits());
            assert_eq!(bits(got), bits(want), "{samples:?} {hint:?} {remaining}");
        };
        pin(&[50, 60, 55], None, 0, (0, 55.0));
        pin(&[], Some(10.0), 0, (0, 10.0));
        pin(&[], Some(10.0), 10, (352, 10.0));
        pin(&[50, 60, 55], Some(10.0), 5, (320, 55.0));
        pin(&[], None, 0, (0, 60.0));
        pin(&[], None, 10, (852, 60.0));
        assert!(matches!(
            estimate_eta(&c, &[1 << 60], None, 4),
            Err(PlannerError::Estimator(rush_estimator::EstimatorError::RangeTooLarge { .. }))
        ));
    }

    #[test]
    fn empty_registry_plans_to_empty() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(job("a", 4, 0));
        k.plan_at(0).expect("plan");
        assert!(!k.plan().entries.is_empty());
        k.cancel(a);
        k.plan_at(1).expect("plan");
        assert!(k.plan().entries.is_empty());
        assert!(k.plan_ids().is_empty());
    }

    /// The reads that run part of a pass answer what `plan_at` would, keep
    /// the complete plan as it was until a pass completes, and a failed
    /// solve leaves that plan readable and the pass stale for a retry.
    #[test]
    fn partial_reads_match_plan_at_and_keep_the_complete_plan() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        let a = k.admit(job("a", 4, 0));
        let b = k.admit(job("b", 6, 0));
        k.plan_at(0).expect("plan");
        let plan = k.plan().clone();
        let c = k.admit(job("c", 5, 0));
        k.solve_at(1).expect("solve");
        assert!(k.is_fresh(1));
        assert_eq!(k.solved().map(|(id, _)| id).collect::<Vec<_>>(), [a, b, c]);
        assert_eq!(k.plan(), &plan, "a solve completes nothing");
        let entry = k.entry_at(1, c).expect("entry").expect("planned");
        assert_eq!(k.entry_at(1, JobId(9)).expect("entry"), None);
        assert_eq!(k.plan(), &plan, "nor does one job's entry");
        k.plan_at(1).expect("plan");
        assert_eq!(k.entry(c), Some(&entry));
        assert_eq!(k.solved().count(), 3);

        let misses = k.cache_misses();
        let mut huge = job("huge", 1, 1);
        huge.submission.runtime_hint = Some(1e10);
        huge.remaining_tasks = 10_000_000_000;
        let h = k.admit(huge);
        assert!(k.entry_at(2, a).is_err());
        assert!(!k.is_fresh(2), "a failed solve leaves the pass stale");
        assert_eq!(k.entry(c), Some(&entry), "the complete plan stays readable");
        k.cancel(h);
        assert!(k.entry_at(2, a).expect("retried").is_some());
        assert!(k.cache_misses() > misses);
    }

    #[test]
    fn install_empty_plan_is_fresh_and_empty() {
        let mut k = PlannerCore::new(RushConfig::default(), 8).expect("kernel");
        k.admit(job("a", 4, 0));
        k.plan_at(0).expect("plan");
        k.install_empty_plan(3);
        assert!(k.plan().entries.is_empty());
        assert!(k.plan_ids().is_empty());
        assert!(k.is_fresh(3));
    }
}
