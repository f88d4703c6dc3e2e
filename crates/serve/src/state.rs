//! The daemon's protocol/epoch/admission layer over the shared planner
//! kernel.
//!
//! [`ServeState`] owns no planning state and no job table of its own: the
//! job registry, sample history, plan cache and current plan live in one
//! [`rush_planner::PlannerCore`], planned in registry mode
//! ([`PlannerCore::plan_at`]: a job is sized from its own samples or its
//! hint, never from other jobs' pools, so plans depend only on explicitly
//! ingested state and snapshot/restore stays bit-exact). Each kernel
//! [`JobRecord`] carries the job's wire submission as received, so the
//! budget admission reads and the label a plan row shows come from the
//! same record the planner sizes. What remains here is the
//! daemon-specific rind: admission verdicts, monotonic counters, and the
//! translation from kernel errors to wire errors.
//!
//! [`ServeState`] is deliberately *pure with respect to time*: every method
//! that can replan takes an explicit logical `now_slot`, and the plan is a
//! deterministic function of (config, capacity, job table, `now_slot`).
//! The server layer owns the wall clock and quantizes it to slots; tests
//! and the snapshot/restore path drive the state with explicit slots and
//! get bit-identical plans.
//!
//! **Epochs.** Submissions are not planned one at a time. The server
//! collects a batch (whatever queued while its planner was busy, bounded
//! by count and by wall-clock age) and hands it to
//! [`ServeState::submit_epoch`], which runs admission per candidate —
//! each admitted job's reservation immediately counts against the next
//! candidate in the same epoch. Admission reads only the planned jobs'
//! η, so an epoch runs only the solve stage of a pass
//! ([`PlannerCore::solve_at`]); its admissions then mark the plan stale,
//! and the peel and the map are left to the next read, which pays for
//! one pass over the whole batch — or nothing, when another write
//! dirties the plan before anything reads it. That read runs only what
//! it returns: [`ServeState::predict`] and a one-job [`ServeState::rows`]
//! map up to their job ([`PlannerCore::entry_at`]), the whole table
//! completes the pass. Parked (deferred) jobs are re-probed at the start
//! of every epoch, in submission order.
//!
//! **Failure-blind.** No request reports a failed task attempt, and the
//! kernel plans every job with `failed_attempts: 0`
//! ([`PlannerCore::plan_at`]). So [`RushConfig::failure_aware`] inflates no
//! job's demand in the daemon; only the simulator, which counts failed
//! attempts, exercises it.

use crate::admission::{
    admission_deadline, estimate_eta, probe, probe_due, reclaim_defer, remaining_deadline,
};
use crate::protocol::{
    Decision, DeferReason, ErrorCode, JobSubmission, PlanRow, StatsReport, WireError,
};
use crate::ServeError;
use rush_core::cluster::ClusterModel;
use rush_core::plan::PlanEntry;
use rush_core::RushConfig;
use rush_planner::{JobId, JobRecord, PlannerCore, PlannerError};

/// The planner shard of `shards` that owns wire id `job`: wire ids are
/// striped across shards, `job % shards`.
pub(crate) fn wire_shard(job: u64, shards: usize) -> usize {
    (job % shards as u64) as usize
}

/// The shard-local id of wire id `job`.
pub(crate) fn wire_to_local(job: u64, shards: usize) -> u64 {
    job / shards as u64
}

/// The wire id of shard `shard`'s local id `job`: the inverse of
/// [`wire_shard`] and [`wire_to_local`].
pub(crate) fn local_to_wire(job: u64, shard: usize, shards: usize) -> u64 {
    job * shards as u64 + shard as u64
}

/// Monotonic daemon counters (all start at zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Planning epochs closed.
    pub epochs: u64,
    /// Submissions admitted (including unparkings).
    pub admitted: u64,
    /// Submissions parked at least once.
    pub deferred: u64,
    /// Submissions rejected.
    pub rejected: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs fully sampled (all tasks reported).
    pub completed: u64,
    /// Runtime samples ingested.
    pub samples: u64,
}

/// One admission verdict from [`ServeState::submit_epoch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochVerdict {
    /// The admission decision.
    pub decision: Decision,
    /// The assigned job id; `None` exactly when the submission was
    /// rejected.
    pub job: Option<u64>,
    /// Why a deferral happened; `Some` exactly when `decision` is
    /// [`Decision::Defer`].
    pub defer_reason: Option<DeferReason>,
}

/// The daemon's entire mutable state (minus sockets and clocks): the
/// planner kernel, whose records hold each job's wire submission, plus
/// the counters.
#[derive(Debug, Clone)]
pub struct ServeState {
    planner: PlannerCore,
    counters: Counters,
    /// The typed container supply, when the operator described one.
    /// Admission consults it to upgrade supply-side rejections into
    /// [`DeferReason::AwaitingRestock`] deferrals.
    model: Option<ClusterModel>,
    /// This state's planner shard and the daemon's shard count, so an
    /// error message names a job by the wire id its client sent; `(0, 1)`
    /// (wire id = local id) until [`ServeState::on_shard`] places it.
    shard: (usize, usize),
}

impl ServeState {
    /// Creates an empty state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for zero capacity, [`ServeError::Planner`]
    /// for an invalid [`RushConfig`].
    pub fn new(config: RushConfig, capacity: u32) -> Result<Self, ServeError> {
        Ok(ServeState {
            planner: PlannerCore::new(config, capacity)?,
            counters: Counters::default(),
            model: None,
            shard: (0, 1),
        })
    }

    /// Attaches a typed cluster model, turning on revocation-aware
    /// admission: a time-sensitive candidate that fails the Theorem-2
    /// probe at the current capacity is parked (instead of rejected) when
    /// the model predicts the deficit heals inside the candidate's
    /// deadline (see [`crate::admission::reclaim_defer`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when the model fails
    /// [`ClusterModel::validate`] or provisions fewer containers than the
    /// state's current capacity (observed capacity can sag below the
    /// provisioned total during an outage, never exceed it).
    pub fn with_cluster_model(mut self, model: ClusterModel) -> Result<Self, ServeError> {
        model.validate().map_err(|e| ServeError::Config(e.to_string()))?;
        if self.capacity() > model.total_capacity() {
            return Err(ServeError::Config(format!(
                "cluster model provisions {} containers but the daemon serves {}",
                model.total_capacity(),
                self.capacity()
            )));
        }
        self.model = Some(model);
        Ok(self)
    }

    /// Places the state as planner shard `shard` of `shards`: its error
    /// messages then name jobs by wire id (the typed fields of a reply are
    /// rewritten by the server instead).
    pub(crate) fn on_shard(mut self, shard: usize, shards: usize) -> Self {
        self.shard = (shard, shards);
        self
    }

    /// The attached cluster model, if any.
    pub fn cluster_model(&self) -> Option<&ClusterModel> {
        self.model.as_ref()
    }

    /// Rebuilds a state from snapshot parts (see [`crate::snapshot`]).
    ///
    /// # Errors
    ///
    /// Same as [`ServeState::new`], plus [`ServeError::Snapshot`] when a
    /// job id is duplicated or not below `next_id`, or a record is one a
    /// live daemon never writes (see [`PlannerCore::from_parts`]).
    pub fn from_parts(
        config: RushConfig,
        capacity: u32,
        jobs: Vec<(u64, JobRecord)>,
        next_id: u64,
        counters: Counters,
    ) -> Result<Self, ServeError> {
        let records = jobs.into_iter().map(|(id, j)| (JobId(id), j)).collect();
        let planner = PlannerCore::from_parts(config, capacity, records, next_id)?;
        Ok(ServeState { planner, counters, model: None, shard: (0, 1) })
    }

    /// The scheduler configuration.
    pub fn config(&self) -> &RushConfig {
        self.planner.config()
    }

    /// Cluster capacity in containers.
    pub fn capacity(&self) -> u32 {
        self.planner.capacity()
    }

    /// Next job id to be assigned.
    pub fn next_id(&self) -> u64 {
        self.planner.next_id()
    }

    /// Re-sizes the cluster through the kernel's validating
    /// [`PlannerCore::set_capacity`] (the same call the simulator adapter
    /// makes), so the peel replay's capacity drift — not an out-of-band
    /// reset — absorbs the change.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadField`] when the kernel refuses the capacity (zero
    /// containers); the capacity is left as it was.
    pub fn set_capacity(&mut self, capacity: u32) -> Result<(), WireError> {
        self.planner.set_capacity(capacity).map_err(|e| {
            let reason = match e {
                PlannerError::Config(msg) => msg,
                other => other.to_string(),
            };
            WireError { code: ErrorCode::BadField, message: format!("capacity: {reason}") }
        })
    }

    /// The counters.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// The planner (plan, cache counters) — read-only.
    pub fn planner(&self) -> &PlannerCore {
        &self.planner
    }

    /// Iterates all resident jobs (planned and parked) in id order, as
    /// the kernel records them.
    pub fn jobs(&self) -> impl Iterator<Item = (u64, &JobRecord)> {
        self.planner.jobs().map(|(id, record)| (id.0, record))
    }

    /// The `(remaining deadline, η)` reservations of the planned jobs, read
    /// off the kernel's current pass (solve it first).
    fn reservations(&self, now_slot: u64) -> Vec<(f64, u64)> {
        let config = self.planner.config();
        self.planner
            .solved()
            .filter_map(|(id, solve)| {
                let record = self.planner.job(id)?;
                let age = now_slot.saturating_sub(record.arrived_slot) as f64;
                Some((remaining_deadline(config, record.submission.budget, age), solve.eta))
            })
            .collect()
    }

    /// Closes one planning epoch: re-probes parked jobs, then admits /
    /// defers / rejects each new submission (in order, each admission's
    /// reservation visible to the next candidate). Admission reads only the
    /// planned jobs' η, so the epoch opens with the solve stage of a pass
    /// ([`PlannerCore::solve_at`]), not a whole one. It does not replan for
    /// its own admissions: they mark the plan stale, and the next
    /// [`Self::rows`] / [`Self::predict`] pays for **one** pass over the
    /// whole batch. An epoch that admits and unparks nothing leaves a fresh
    /// plan fresh.
    ///
    /// Returns one [`EpochVerdict`] per submission, in order; the job id
    /// is `None` exactly when the submission was rejected.
    ///
    /// With a cluster model attached ([`Self::with_cluster_model`]), a
    /// time-sensitive candidate the probe rejects at the current
    /// (revocation-depressed) capacity is parked with
    /// [`DeferReason::AwaitingRestock`] when the model predicts the
    /// deficit heals inside its deadline; ordinary insensitive deferrals
    /// carry [`DeferReason::Overcommit`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Planner`] when the opening solve (the current
    /// reservations admission probes against) fails; it runs before any
    /// state is mutated, so a failed epoch changes nothing. Per-candidate
    /// estimation failures downgrade that candidate to a rejection rather
    /// than aborting the epoch.
    pub fn submit_epoch(
        &mut self,
        subs: Vec<JobSubmission>,
        now_slot: u64,
    ) -> Result<Vec<EpochVerdict>, ServeError> {
        self.planner.solve_at(now_slot)?;
        let mut reservations = self.reservations(now_slot);

        // Re-probe parked jobs first: deferred work gets the room freed
        // since the last epoch before new arrivals can claim it.
        let parked: Vec<JobId> = self
            .planner
            .jobs()
            .filter(|(_, j)| j.parked)
            .map(|(id, _)| id)
            .collect();
        for id in parked {
            let Some(record) = self.planner.job(id) else { continue };
            let sub = &record.submission;
            let Ok((eta, _)) = estimate_eta(
                self.planner.config(),
                &record.samples,
                sub.runtime_hint,
                record.remaining_tasks as usize,
            ) else {
                continue;
            };
            // The planner ages a job from the slot it was parked at: the
            // slots it waited are gone from its deadline, for its own probe
            // and for every candidate probed behind it.
            let waited = now_slot.saturating_sub(record.arrived_slot) as f64;
            let due = remaining_deadline(self.planner.config(), sub.budget, waited);
            if probe_due(self.capacity(), &reservations, sub, eta, due) == Decision::Admit {
                let _ = self.planner.set_parked(id, false);
                self.counters.admitted += 1;
                reservations.push((due, eta));
            }
        }

        let mut verdicts = Vec::with_capacity(subs.len());
        for sub in subs {
            // New submissions carry no samples; admission sizes them from
            // the hint or the cold prior.
            let eta =
                estimate_eta(self.planner.config(), &[], sub.runtime_hint, sub.tasks as usize)
                    .ok()
                    .map(|(eta, _)| eta);
            let decision = match eta {
                Some(eta) => {
                    probe(self.planner.config(), self.capacity(), &reservations, &sub, eta)
                }
                // A submission the estimator cannot size cannot be probed;
                // refusing it is the conservative verdict.
                None => Decision::Reject,
            };
            let (decision, defer_reason) = match (decision, eta, &self.model) {
                (Decision::Reject, Some(eta), Some(model))
                    if reclaim_defer(
                        self.planner.config(),
                        model,
                        self.planner.capacity(),
                        &reservations,
                        &sub,
                        eta,
                    ) =>
                {
                    (Decision::Defer, Some(DeferReason::AwaitingRestock))
                }
                (Decision::Defer, ..) => (Decision::Defer, Some(DeferReason::Overcommit)),
                (d, ..) => (d, None),
            };
            let id = match decision {
                Decision::Admit | Decision::Defer => {
                    if decision == Decision::Admit {
                        self.counters.admitted += 1;
                        if let Some(eta) = eta {
                            reservations.push((
                                admission_deadline(self.planner.config(), sub.budget),
                                eta,
                            ));
                        }
                    } else {
                        self.counters.deferred += 1;
                    }
                    let parked = decision == Decision::Defer;
                    let id = self.planner.admit(JobRecord { parked, ..JobRecord::new(sub, now_slot) });
                    Some(id.0)
                }
                Decision::Reject => {
                    self.counters.rejected += 1;
                    None
                }
            };
            verdicts.push(EpochVerdict { decision, job: id, defer_reason });
        }

        self.counters.epochs += 1;
        Ok(verdicts)
    }

    /// Ingests one completed-task runtime sample. Returns `true` when the
    /// job's last task reported (the job is then dropped from the table).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownJob`] for a non-resident id;
    /// [`ErrorCode::BadField`] for a runtime too large to estimate the
    /// job's remaining tasks from (the sample is dropped, the job stays).
    pub fn report_sample(&mut self, job: u64, runtime: u64) -> Result<bool, WireError> {
        let completed = self.planner.ingest_sample(JobId(job), runtime).map_err(|e| match e {
            PlannerError::UnknownJob(id) => self.unknown_job(id),
            PlannerError::Estimator(e) => WireError {
                code: ErrorCode::BadField,
                message: format!("runtime {runtime} of job {}: {e}", self.wire_id(job)),
            },
            other => internal(ServeError::from(other)),
        })?;
        self.counters.samples += 1;
        if completed {
            self.counters.completed += 1;
        }
        Ok(completed)
    }

    /// Removes a job (planned or parked).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownJob`] for a non-resident id.
    pub fn cancel(&mut self, job: u64) -> Result<(), WireError> {
        if !self.planner.cancel(JobId(job)) {
            return Err(self.unknown_job(job));
        }
        self.counters.cancelled += 1;
        Ok(())
    }

    /// The current plan table (replanning if stale), optionally filtered to
    /// one job. The whole table completes the pass; one job's row runs only
    /// the stages that row reads ([`PlannerCore::entry_at`]).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::UnknownJob`] / [`ErrorCode::Deferred`] for a filter id
    /// that is absent / parked; [`ServeError`]-shaped internal errors are
    /// reported as [`ErrorCode::Internal`].
    pub fn rows(
        &mut self,
        now_slot: u64,
        filter: Option<u64>,
    ) -> Result<Vec<PlanRow>, WireError> {
        let row = |planner: &PlannerCore, id: JobId, e: &PlanEntry| {
            let record = planner.job(id)?;
            Some(PlanRow {
                job: id.0,
                label: record.submission.label.clone(),
                eta: e.eta,
                task_len: e.task_len,
                target: e.target,
                level: e.level,
                desired_now: e.desired_now,
                planned_completion: e.planned_completion,
                impossible: e.impossible,
                remaining_tasks: record.remaining_tasks,
            })
        };
        let Some(id) = filter else {
            self.planner.plan_at(now_slot).map_err(|e| internal(ServeError::from(e)))?;
            return Ok(self.planner.planned().filter_map(|(id, e)| row(&self.planner, id, e)).collect());
        };
        self.check_planned(id)?;
        let entry = self
            .planner
            .entry_at(now_slot, JobId(id))
            .map_err(|e| internal(ServeError::from(e)))?;
        Ok(entry.and_then(|e| row(&self.planner, JobId(id), &e)).into_iter().collect())
    }

    /// The Theorem-3 robust completion prediction for one planned job:
    /// `(target T, task_len R, bound T+R, planned_completion, impossible)`.
    ///
    /// # Errors
    ///
    /// Same classes as [`Self::rows`].
    pub fn predict(
        &mut self,
        job: u64,
        now_slot: u64,
    ) -> Result<(f64, u64, f64, u64, bool), WireError> {
        self.check_planned(job)?;
        let e = self
            .planner
            .entry_at(now_slot, JobId(job))
            .map_err(|e| internal(ServeError::from(e)))?
            .ok_or_else(|| self.unknown_job(job))?;
        Ok((e.target, e.task_len, e.target + e.task_len as f64, e.planned_completion, e.impossible))
    }

    /// The counter snapshot. A stale plan is fine for counters, so this
    /// never forces a replan.
    pub fn stats(&mut self, now_slot: u64) -> StatsReport {
        let parked = self.planner.parked_count() as u64;
        StatsReport {
            active_jobs: self.planner.job_count() as u64 - parked,
            deferred_jobs: parked,
            epochs: self.counters.epochs,
            admitted: self.counters.admitted,
            deferred: self.counters.deferred,
            rejected: self.counters.rejected,
            cancelled: self.counters.cancelled,
            completed: self.counters.completed,
            samples: self.counters.samples,
            cache_hits: self.planner.cache_hits(),
            cache_misses: self.planner.cache_misses(),
            now_slot,
        }
    }

    fn check_planned(&self, job: u64) -> Result<(), WireError> {
        match self.planner.job(JobId(job)) {
            None => Err(self.unknown_job(job)),
            Some(j) if j.parked => Err(WireError {
                code: ErrorCode::Deferred,
                message: format!("job {} is deferred by admission control", self.wire_id(job)),
            }),
            Some(_) => Ok(()),
        }
    }

    /// The id the client knows the shard-local job `job` by.
    fn wire_id(&self, job: u64) -> u64 {
        local_to_wire(job, self.shard.0, self.shard.1)
    }

    fn unknown_job(&self, job: u64) -> WireError {
        let message = format!("job {} is not resident", self.wire_id(job));
        WireError { code: ErrorCode::UnknownJob, message }
    }
}

fn internal(e: ServeError) -> WireError {
    WireError { code: ErrorCode::Internal, message: e.to_string() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_utility::TimeUtility;

    fn sub(label: &str, tasks: u64, budget: u64) -> JobSubmission {
        JobSubmission {
            label: label.into(),
            tasks,
            runtime_hint: Some(50.0),
            utility: TimeUtility::sigmoid(budget as f64, 3.0, 10.0 / budget as f64)
                .expect("valid"),
            budget: Some(budget),
            priority: 1,
        }
    }

    fn insensitive(label: &str, tasks: u64) -> JobSubmission {
        JobSubmission {
            label: label.into(),
            tasks,
            runtime_hint: Some(50.0),
            utility: TimeUtility::constant(1.0).expect("valid"),
            budget: None,
            priority: 1,
        }
    }

    #[test]
    fn one_epoch_plans_a_batch_with_one_miss() {
        let mut s = ServeState::new(RushConfig::default(), 32).expect("state");
        let verdicts = s
            .submit_epoch(vec![sub("a", 10, 5000), sub("b", 20, 8000)], 0)
            .expect("epoch");
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts
            .iter()
            .all(|v| v.decision == Decision::Admit && v.job.is_some() && v.defer_reason.is_none()));
        assert_eq!(s.counters().epochs, 1);
        assert_eq!(s.counters().admitted, 2);
        let rows = s.rows(0, None).expect("rows");
        // The first read replanned once for the whole batch: one per-job
        // solve each.
        assert_eq!(s.stats(0).cache_misses, 2);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.eta > 0));
        // Re-reading the plan at the same slot hits the in-state plan, and
        // at a new slot goes through the cache.
        let before = s.stats(0).cache_misses;
        let _ = s.rows(0, None).expect("rows");
        assert_eq!(s.stats(0).cache_misses, before);
    }

    #[test]
    fn overcommit_rejects_sensitive_and_defers_insensitive() {
        let mut s = ServeState::new(RushConfig::default(), 2).expect("state");
        // 50-slot tasks × 400 tasks on 2 containers: ~10000 slots of work,
        // with a budget of 100 slots — hopeless for a sensitive job.
        let verdicts = s
            .submit_epoch(vec![sub("huge", 400, 100), insensitive("patient", 400)], 0)
            .expect("epoch");
        assert_eq!(verdicts[0].decision, Decision::Reject);
        assert_eq!(verdicts[0].job, None);
        assert_eq!(verdicts[0].defer_reason, None);
        assert_eq!(s.counters().rejected, 1);
        // The insensitive twin is parked, not dropped. (Whether it is
        // parked or admitted depends on the horizon; with the default 1e6
        // horizon 10000 slots of work fit, so it is admitted.)
        assert!(verdicts[1].job.is_some());
    }

    #[test]
    fn deferred_job_is_admitted_when_room_frees_up() {
        let cfg = RushConfig { horizon: 1000.0, ..RushConfig::default() };
        let mut s = ServeState::new(cfg, 2).expect("state");
        // One bulk job (~20 × 50 = 1000 mean demand, more after WCDE
        // inflation) fits the 2 × 1000 container·slot horizon; two don't.
        let verdicts =
            s.submit_epoch(vec![insensitive("filler", 20)], 0).expect("epoch");
        assert_eq!(verdicts[0].decision, Decision::Admit);
        let filler = verdicts[0].job.expect("id");
        // A second bulk job no longer fits and is deferred (a plain
        // demand-side overcommit: no cluster model is attached).
        let verdicts = s.submit_epoch(vec![insensitive("waiter", 20)], 1).expect("epoch");
        assert_eq!(verdicts[0].decision, Decision::Defer);
        assert_eq!(verdicts[0].defer_reason, Some(DeferReason::Overcommit));
        let waiter = verdicts[0].job.expect("id");
        assert!(s.rows(1, Some(waiter)).is_err(), "parked job has no plan row");
        // Cancel the filler; the next epoch unparks the waiter.
        s.cancel(filler).expect("cancel");
        let verdicts = s.submit_epoch(vec![], 2).expect("epoch");
        assert!(verdicts.is_empty());
        assert_eq!(s.stats(2).deferred_jobs, 0);
        assert_eq!(s.rows(2, Some(waiter)).expect("rows").len(), 1);
    }

    #[test]
    fn samples_shrink_the_job_and_complete_it() {
        let mut s = ServeState::new(RushConfig::default(), 8).expect("state");
        let verdicts = s.submit_epoch(vec![sub("j", 3, 5000)], 0).expect("epoch");
        let id = verdicts[0].job.expect("id");
        assert!(!s.report_sample(id, 48).expect("sample"));
        assert!(!s.report_sample(id, 52).expect("sample"));
        assert!(s.report_sample(id, 50).expect("sample"), "last task completes the job");
        assert_eq!(s.counters().completed, 1);
        assert_eq!(s.counters().samples, 3);
        assert!(matches!(
            s.report_sample(id, 1).unwrap_err().code,
            ErrorCode::UnknownJob
        ));
        assert!(s.rows(1, None).expect("rows").is_empty());
    }

    #[test]
    fn predict_returns_the_theorem3_bound() {
        let mut s = ServeState::new(RushConfig::default(), 8).expect("state");
        let id = s.submit_epoch(vec![sub("j", 10, 5000)], 0).expect("epoch")[0]
            .job
            .expect("id");
        let (target, task_len, bound, planned, impossible) =
            s.predict(id, 0).expect("predict");
        assert!(target > 0.0);
        assert!(task_len > 0);
        assert!((bound - (target + task_len as f64)).abs() < 1e-9);
        assert!(planned > 0);
        assert!(!impossible);
        assert!(matches!(s.predict(999, 0).unwrap_err().code, ErrorCode::UnknownJob));
    }

    #[test]
    fn restored_state_reproduces_the_plan_bit_identically() {
        let mut a = ServeState::new(RushConfig::default(), 16).expect("state");
        let verdicts =
            a.submit_epoch(vec![sub("x", 12, 4000), sub("y", 30, 9000)], 5).expect("epoch");
        let x = verdicts[0].job.expect("admitted");
        a.report_sample(x, 47).expect("sample");
        let rows_a = a.rows(9, None).expect("rows");

        // Clone through from_parts, as snapshot restore does.
        let jobs = a.jobs().map(|(id, j)| (id, j.clone())).collect();
        let mut b = ServeState::from_parts(
            *a.config(),
            a.capacity(),
            jobs,
            a.next_id(),
            a.counters(),
        )
        .expect("restore");
        let rows_b = b.rows(9, None).expect("rows");
        assert_eq!(rows_a, rows_b, "restored plan must be bit-identical");
    }

    /// The daemon's read path under job churn: a departure (last sample,
    /// cancel) and an epoch's arrivals must each *replay* the recorded peel
    /// — `predict` answers at request time, behind that pass — and still
    /// produce the rows a cold state computes from the same jobs.
    #[test]
    fn job_churn_replays_the_peel_and_matches_a_restored_state() {
        let fleet = |range: std::ops::Range<u64>| -> Vec<JobSubmission> {
            range
                .map(|k| {
                    let budget = 3000 + 170 * (k % 13);
                    JobSubmission {
                        label: format!("j{k}"),
                        // Every seventh job is one sample from retiring.
                        tasks: if k % 7 == 0 { 1 } else { 4 + k % 9 },
                        runtime_hint: Some(40.0 + (k % 5) as f64),
                        utility: TimeUtility::sigmoid(
                            budget as f64,
                            1.0 + (k % 5) as f64,
                            5.0 / budget as f64,
                        )
                        .expect("valid"),
                        budget: Some(budget),
                        priority: 1,
                    }
                })
                .collect()
        };
        let mut s = ServeState::new(RushConfig::default(), 4096).expect("state");
        let verdicts = s.submit_epoch(fleet(0..300), 2).expect("epoch");
        assert!(verdicts.iter().all(|v| v.decision == Decision::Admit));
        let id = |k: usize| verdicts[k].job.expect("admitted");
        // A client reads the table: the pass behind it plans the whole
        // first epoch and records the peel the churn below replays.
        assert_eq!(s.rows(2, None).expect("rows").len(), 300);

        let check = |s: &mut ServeState, what: &str| {
            s.predict(id(17), 2).expect("predict");
            let replay = s.planner().plan_stats().peel_replay;
            assert!(replay.delta, "{what}: the pass behind predict re-peeled ({replay:?})");
            let jobs = s.jobs().map(|(id, j)| (id, j.clone())).collect();
            let mut cold =
                ServeState::from_parts(*s.config(), s.capacity(), jobs, s.next_id(), s.counters())
                    .expect("restore");
            assert_eq!(s.rows(2, None).expect("rows"), cold.rows(2, None).expect("rows"), "{what}");
            assert!(!cold.planner().plan_stats().peel_replay.delta);
        };

        assert!(s.report_sample(id(140), 44).expect("sample"), "last task: the job retires");
        check(&mut s, "retired job");
        s.cancel(id(201)).expect("cancel");
        check(&mut s, "cancelled job");
        let verdicts = s.submit_epoch(fleet(300..303), 2).expect("epoch");
        assert!(verdicts.iter().all(|v| v.decision == Decision::Admit));
        check(&mut s, "three arrivals");
        assert_eq!(s.planner().planned().count(), 301);
    }

    /// A read one slot and then five slots later replans on a clock that
    /// moved: the pass replays the recorded peel through the tick instead of
    /// re-peeling, and still produces the rows a cold state computes.
    #[test]
    fn slot_ticks_replay_the_peel_and_match_a_restored_state() {
        let fleet: Vec<JobSubmission> = (0..120u64)
            .map(|k| {
                let budget = 3000 + 170 * (k % 13);
                JobSubmission {
                    label: format!("j{k}"),
                    tasks: 4 + k % 9,
                    runtime_hint: Some(40.0 + (k % 5) as f64),
                    utility: TimeUtility::sigmoid(
                        budget as f64,
                        1.0 + (k % 5) as f64,
                        5.0 / budget as f64,
                    )
                    .expect("valid"),
                    budget: Some(budget),
                    priority: 1,
                }
            })
            .collect();
        let mut s = ServeState::new(RushConfig::default(), 4096).expect("state");
        let verdicts = s.submit_epoch(fleet, 2).expect("epoch");
        assert!(verdicts.iter().all(|v| v.decision == Decision::Admit));
        assert_eq!(s.rows(2, None).expect("rows").len(), 120);
        for now in [3, 8] {
            let rows = s.rows(now, None).expect("rows");
            let replay = s.planner().plan_stats().peel_replay;
            assert!(
                replay.delta && replay.resumed_at != Some(0),
                "slot {now}: the tick re-peeled ({replay:?})"
            );
            let jobs = s.jobs().map(|(id, j)| (id, j.clone())).collect();
            let mut cold =
                ServeState::from_parts(*s.config(), s.capacity(), jobs, s.next_id(), s.counters())
                    .expect("restore");
            assert_eq!(rows, cold.rows(now, None).expect("rows"), "slot {now}");
            assert!(!cold.planner().plan_stats().peel_replay.delta);
        }
    }

    /// Admission and planning size a hinted job from the same pseudo-sample,
    /// so the plan reserves the η the Theorem-2 gate admitted.
    #[test]
    fn plan_reserves_the_eta_admission_probed() {
        for hint in [10.0, 35.0, 90.0] {
            let mut s = ServeState::new(RushConfig::default(), 4096).expect("state");
            let job = JobSubmission { runtime_hint: Some(hint), ..sub("h", 40, 5000) };
            let id = s.submit_epoch(vec![job], 0).expect("epoch")[0].job.expect("admitted");
            let (eta, _) = estimate_eta(s.config(), &[], Some(hint), 40).expect("estimate");
            assert_eq!(s.rows(0, Some(id)).expect("rows")[0].eta, eta, "hint {hint}");
        }
    }

    /// 10¹⁰ tasks of a 10¹⁰-slot hint pass the wire's checks (tasks below
    /// 2⁵³, a finite positive hint), but their demand range does not fit an
    /// estimate: the job is rejected, not admitted as tiny or a planner
    /// panic.
    #[test]
    fn a_submission_too_large_to_estimate_is_rejected() {
        let mut s = ServeState::new(RushConfig::default(), 4096).expect("state");
        let job = JobSubmission {
            runtime_hint: Some(1e10),
            ..sub("huge", 10_000_000_000, 5000)
        };
        let verdicts = s.submit_epoch(vec![job], 0).expect("epoch");
        assert_eq!(verdicts[0].decision, Decision::Reject);
        assert_eq!(verdicts[0].job, None);
        assert_eq!(s.counters().rejected, 1);
    }

    /// A reported runtime is wire input too: 10¹⁴ slots for a job with 100
    /// tasks left is refused where it enters, so it never fails a later
    /// plan — the reads and epochs after it go on as before.
    #[test]
    fn a_runtime_too_large_to_estimate_is_refused() {
        let mut s = ServeState::new(RushConfig::default(), 32).expect("state");
        let verdicts = s.submit_epoch(vec![sub("a", 100, 50_000)], 0).expect("epoch");
        let job = verdicts[0].job.expect("admitted");
        let err = s.report_sample(job, 100_000_000_000_000).expect_err("refused");
        assert_eq!(err.code, ErrorCode::BadField);
        assert_eq!(s.counters().samples, 0);
        assert_eq!(s.rows(1, None).expect("rows").len(), 1);
        s.submit_epoch(vec![sub("b", 10, 50_000)], 2).expect("epoch");
        assert!(!s.report_sample(job, 60).expect("an ordinary runtime"));
        assert_eq!(s.rows(3, None).expect("rows").len(), 2);
    }

    #[test]
    fn from_parts_rejects_inconsistent_ids() {
        let jobs = vec![(7u64, JobRecord::new(sub("j", 1, 100), 0))];
        let err = ServeState::from_parts(RushConfig::default(), 4, jobs, 5, Counters::default());
        assert!(matches!(err, Err(ServeError::Snapshot(_))));
    }

    #[test]
    fn set_capacity_resizes_and_refuses_zero_as_bad_field() {
        let mut s = ServeState::new(RushConfig::default(), 8).expect("state");
        let id = s.submit_epoch(vec![sub("j", 10, 5000)], 0).expect("epoch")[0]
            .job
            .expect("id");
        s.set_capacity(3).expect("shrink");
        assert_eq!(s.capacity(), 3);
        assert_eq!(s.rows(1, None).expect("rows").len(), 1);
        s.set_capacity(12).expect("grow");
        assert_eq!(s.capacity(), 12);
        let (_, _, _, planned, _) = s.predict(id, 2).expect("predict");
        assert!(planned > 0);
        // The kernel refuses a zero-container cluster, as a BadField.
        let err = s.set_capacity(0).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadField);
        assert_eq!(err.message, "capacity: capacity must be >= 1");
        assert_eq!(s.capacity(), 12, "failed resize must not change capacity");
    }

    /// A budget that makes a `tasks`-task, hint-50 job infeasible at the
    /// depressed capacity 8 but feasible at the provisioned 16 even after
    /// the 60-slot spot reclaim horizon: `8·b < η ≤ 16·(b − 60)` holds for
    /// `b = η/8 − 1` whenever `η ≥ 976`.
    fn outage_budget(s: &ServeState, tasks: u64) -> u64 {
        let (eta, _) = crate::admission::estimate_eta(s.config(), &[], Some(50.0), tasks as usize)
            .expect("estimate");
        assert!(eta >= 976, "test premise needs a big job, eta={eta}");
        eta / 8 - 1
    }

    #[test]
    fn spot_outage_defers_then_restock_admits() {
        use rush_core::cluster::ClusterModel;
        let mut s = ServeState::new(RushConfig::default(), 16)
            .expect("state")
            .with_cluster_model(ClusterModel::tiered(8, 0, 8))
            .expect("valid model");
        // The spot pool is revoked: 16 → 8 containers.
        s.set_capacity(8).expect("revoke");
        let budget = outage_budget(&s, 400);
        // A time-sensitive job that fails Theorem 2 at the depressed 8 but
        // fits the provisioned 16 after the 60-slot spot reclaim horizon
        // is parked as awaiting-restock instead of rejected.
        let verdicts = s.submit_epoch(vec![sub("spiky", 400, budget)], 0).expect("epoch");
        assert_eq!(verdicts[0].decision, Decision::Defer);
        assert_eq!(verdicts[0].defer_reason, Some(DeferReason::AwaitingRestock));
        let job = verdicts[0].job.expect("parked job keeps its id");
        assert_eq!(s.counters().deferred, 1);
        assert!(s.rows(0, Some(job)).is_err(), "parked job has no plan row");
        // The market restocks; the next epoch's re-probe admits the job.
        s.set_capacity(16).expect("restock");
        let verdicts = s.submit_epoch(vec![], 1).expect("epoch");
        assert!(verdicts.is_empty());
        assert_eq!(s.stats(1).deferred_jobs, 0);
        assert_eq!(s.rows(1, Some(job)).expect("rows").len(), 1);
    }

    /// A parked job's wait comes out of its deadline: restocked only after
    /// `w` slots with `16·(b − w) < η ≤ 16·b`, the job no longer fits and
    /// must stay parked — the re-probe may not grant it the budget again.
    #[test]
    fn restock_after_the_slack_is_spent_does_not_admit() {
        use rush_core::cluster::ClusterModel;
        let mut s = ServeState::new(RushConfig::default(), 16)
            .expect("state")
            .with_cluster_model(ClusterModel::tiered(8, 0, 8))
            .expect("valid model");
        s.set_capacity(8).expect("revoke");
        let budget = outage_budget(&s, 400);
        let (eta, _) =
            crate::admission::estimate_eta(s.config(), &[], Some(50.0), 400).expect("estimate");
        let verdicts = s.submit_epoch(vec![sub("spiky", 400, budget)], 0).expect("epoch");
        assert_eq!(verdicts[0].defer_reason, Some(DeferReason::AwaitingRestock));
        let job = verdicts[0].job.expect("parked job keeps its id");
        // b = η/8 − 1, so 16·b ≥ η still holds, but after w = η/16 + 1
        // slots only b − w < η/16 remain.
        let waited = eta / 16 + 1;
        assert!(16 * (budget - waited) < eta && eta <= 16 * budget, "test premise");
        s.set_capacity(16).expect("restock");
        s.submit_epoch(vec![], waited).expect("epoch");
        assert_eq!(s.stats(waited).deferred_jobs, 1, "the wait consumed the deadline");
        assert!(s.rows(waited, Some(job)).is_err(), "still parked: no plan row");
        assert_eq!(s.counters().admitted, 0);
    }

    #[test]
    fn without_a_model_the_same_outage_rejects() {
        let mut s = ServeState::new(RushConfig::default(), 16).expect("state");
        s.set_capacity(8).expect("revoke");
        let budget = outage_budget(&s, 400);
        let verdicts = s.submit_epoch(vec![sub("spiky", 400, budget)], 0).expect("epoch");
        assert_eq!(verdicts[0].decision, Decision::Reject);
        assert_eq!(verdicts[0].defer_reason, None);
    }

    #[test]
    fn cluster_model_attachment_is_validated() {
        use rush_core::cluster::ClusterModel;
        let s = ServeState::new(RushConfig::default(), 16).expect("state");
        // Model provisions fewer containers than the daemon serves.
        let err = s.with_cluster_model(ClusterModel::tiered(4, 0, 4));
        assert!(matches!(err, Err(ServeError::Config(_))));
        // Malformed model (no classes).
        let s = ServeState::new(RushConfig::default(), 16).expect("state");
        let err = s.with_cluster_model(ClusterModel::default());
        assert!(matches!(err, Err(ServeError::Config(_))));
        // A well-formed model attaches and is readable back.
        let s = ServeState::new(RushConfig::default(), 16)
            .expect("state")
            .with_cluster_model(ClusterModel::tiered(8, 4, 4))
            .expect("valid model");
        assert_eq!(s.cluster_model().expect("model").total_capacity(), 16);
    }

    #[test]
    fn cancel_of_unknown_job_keeps_the_plan_fresh() {
        // An unknown-job cancel must not invalidate the kernel's plan:
        // cache hit/miss statistics would silently drift otherwise.
        let mut s = ServeState::new(RushConfig::default(), 8).expect("state");
        s.submit_epoch(vec![sub("j", 4, 5000)], 0).expect("epoch");
        let _ = s.rows(0, None).expect("rows");
        let misses = s.stats(0).cache_misses;
        assert!(matches!(s.cancel(777).unwrap_err().code, ErrorCode::UnknownJob));
        let _ = s.rows(0, None).expect("rows");
        assert_eq!(s.stats(0).cache_misses, misses, "no replan after a no-op cancel");
    }

    #[test]
    fn an_admitting_epoch_leaves_the_replan_to_the_next_read() {
        let mut s = ServeState::new(RushConfig::default(), 8).expect("state");
        s.submit_epoch(vec![sub("j", 4, 5000)], 3).expect("epoch");
        assert!(!s.planner().is_fresh(3), "the epoch replanned for a read nobody made");
        assert_eq!(s.rows(3, None).expect("rows").len(), 1);
        assert!(s.planner().is_fresh(3));
    }

    #[test]
    fn an_epoch_that_only_rejects_keeps_a_fresh_plan_fresh() {
        let mut s = ServeState::new(RushConfig::default(), 2).expect("state");
        s.submit_epoch(vec![sub("small", 4, 5000)], 0).expect("epoch");
        let rows = s.rows(0, None).expect("rows");
        let before = s.stats(0);
        // Hopeless for a sensitive job (see the overcommit test above).
        let verdicts = s.submit_epoch(vec![sub("huge", 400, 100)], 0).expect("epoch");
        assert_eq!(verdicts[0].decision, Decision::Reject);
        assert!(s.planner().is_fresh(0));
        assert_eq!(s.rows(0, None).expect("rows"), rows);
        let after = s.stats(0);
        assert_eq!(
            (after.cache_hits, after.cache_misses),
            (before.cache_hits, before.cache_misses),
            "no pass ran"
        );
    }

    /// Where the epoch boundaries fall does not change the plan: k one-job
    /// epochs, one k-job epoch and a cold restore of the same jobs read
    /// back the same rows.
    #[test]
    fn epoch_boundaries_do_not_change_the_plan() {
        let batch: Vec<JobSubmission> =
            (0..5u64).map(|k| sub(&format!("j{k}"), 4 + 3 * k, 4000 + 500 * k)).collect();
        let mut one_by_one = ServeState::new(RushConfig::default(), 48).expect("state");
        for job in &batch {
            let verdicts = one_by_one.submit_epoch(vec![job.clone()], 7).expect("epoch");
            assert_eq!(verdicts[0].decision, Decision::Admit);
        }
        let mut together = ServeState::new(RushConfig::default(), 48).expect("state");
        let verdicts = together.submit_epoch(batch, 7).expect("epoch");
        assert!(verdicts.iter().all(|v| v.decision == Decision::Admit));
        let rows = one_by_one.rows(7, None).expect("rows");
        assert_eq!(rows.len(), 5);
        assert_eq!(together.rows(7, None).expect("rows"), rows);
        let jobs = one_by_one.jobs().map(|(id, j)| (id, j.clone())).collect();
        let mut cold = ServeState::from_parts(
            *one_by_one.config(),
            one_by_one.capacity(),
            jobs,
            one_by_one.next_id(),
            one_by_one.counters(),
        )
        .expect("restore");
        assert_eq!(cold.rows(7, None).expect("rows"), rows);
    }
}
