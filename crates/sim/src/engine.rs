//! The discrete-time simulation engine.
//!
//! [`Simulation::run`] drives a deterministic event loop over job arrivals,
//! task completions and container assignment. Between events the clock
//! jumps directly to the next interesting slot, so run cost scales with the
//! number of task starts/finishes rather than with wall-clock horizon.
//!
//! Per event, the processing order is:
//!
//! 1. task completions at the current slot (containers are freed, samples
//!    are reported to the scheduler), the due attempt with the smallest
//!    `(job, task, container)` first;
//! 2. capacity events at the current slot (revocations claim the
//!    highest-indexed in-service containers, restocks return the
//!    lowest-indexed revoked ones);
//! 3. job arrivals at the current slot;
//! 4. the **dispatch loop**: while containers are free and runnable tasks
//!    exist, the scheduler is asked to name the job that gets the next
//!    container (always the lowest-indexed free one). Returning `None`
//!    leaves the remaining containers idle until the next event — a
//!    legitimate decision for a completion-time aware scheduler;
//! 5. the speculation loop, offering the containers still free for
//!    duplicates of running attempts.
//!
//! # One engine, scanned
//!
//! The running attempts are a plain `Vec` that every event scans: for the
//! due completion, a sibling duplicate, the attempt on a revoked container,
//! the next end slot and a job's oldest start. Job views are found by a
//! scan over the active jobs. Free containers sit in a one-level bitset
//! (`cluster::FreePool`), and the revoked ones are a count: a revocation
//! takes the highest in-service container and a restock the lowest revoked
//! one, so the revoked set is always a suffix of the index space. At the
//! sizes this simulator runs — the paper's 48-container testbed with up to
//! a few hundred jobs — the engine is about 1.5 % of a RUSH-scheduled run;
//! the scheduler's replans are the rest (DESIGN.md §8).
//!
//! What guards the engine's order of operations is the exact result of
//! fixed scenarios: `tests/engine_pins.rs` pins the paper testbed with and
//! without capacity churn, a seeded run with failures, speculation and
//! locality, and a primary and its duplicate falling due together; and
//! `figures` regenerates `results/` and `BENCH_ablation_capacity.json`
//! byte for byte.

use crate::cluster::{
    validate_capacity_events, CapacityChange, CapacityEvent, ClusterSpec, FreePool,
};
use crate::job::{JobSpec, Phase};
use crate::outcome::{JobOutcome, SimResult};
use crate::perturb::{FailureModel, Interference};
use crate::scheduler::Scheduler;
use crate::trace::{Trace, TraceEvent};
use crate::view::{ClusterView, JobView, TaskSample};
use crate::{JobId, SimError, Slot, TaskId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::time::Instant;

/// Configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    cluster: ClusterSpec,
    interference: Interference,
    failures: FailureModel,
    record_trace: bool,
    remote_penalty: f64,
    max_slots: Slot,
    seed: u64,
    capacity_events: Vec<CapacityEvent>,
}

impl SimConfig {
    /// Creates a configuration for the given cluster with no interference,
    /// a `2^40`-slot horizon and seed 0.
    pub fn new(cluster: ClusterSpec) -> Self {
        SimConfig {
            cluster,
            interference: Interference::None,
            failures: FailureModel::None,
            record_trace: false,
            remote_penalty: 1.0,
            max_slots: 1 << 40,
            seed: 0,
            capacity_events: Vec::new(),
        }
    }

    /// Convenience: a homogeneous, interference-free cluster of
    /// `nodes × containers_per_node` unit-speed containers.
    ///
    /// # Panics
    ///
    /// Panics if the capacity would be zero.
    #[expect(
        clippy::expect_used,
        reason = "documented constructor panic: config validation rejects empty clusters"
    )]
    pub fn homogeneous(nodes: u32, containers_per_node: u32) -> Self {
        Self::new(
            ClusterSpec::homogeneous(nodes, containers_per_node)
                .expect("homogeneous cluster must have at least one container"),
        )
    }

    /// Sets the interference model (default: none).
    pub fn with_interference(mut self, interference: Interference) -> Self {
        self.interference = interference;
        self
    }

    /// Sets the task-failure model (default: no failures). Failed attempts
    /// occupy their container for the full attempt duration and the task is
    /// re-queued.
    pub fn with_failures(mut self, failures: FailureModel) -> Self {
        self.failures = failures;
        self
    }

    /// Enables event tracing; the resulting [`Trace`] is attached to the
    /// `SimResult` (see [`crate::outcome`]).
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Sets the runtime multiplier applied when a task with a declared
    /// [data preference](crate::job::TaskSpec::with_preference) runs on a
    /// different node (default 1.0 = locality is free). Hadoop's rule of
    /// thumb for rack-remote map input is 1.1–1.5.
    ///
    /// # Panics
    ///
    /// Panics unless `penalty ≥ 1.0` and finite.
    pub fn with_remote_penalty(mut self, penalty: f64) -> Self {
        assert!(penalty.is_finite() && penalty >= 1.0, "remote penalty must be >= 1");
        self.remote_penalty = penalty;
        self
    }

    /// Sets the RNG seed for interference draws (default 0).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the safety horizon after which the run aborts (default 2^40).
    pub fn with_max_slots(mut self, max_slots: Slot) -> Self {
        self.max_slots = max_slots;
        self
    }

    /// Sets the deterministic capacity-event stream (default: none). Events
    /// must be sorted by slot; they are validated against the cluster's
    /// capacity when the simulation is built.
    pub fn with_capacity_events(mut self, events: Vec<CapacityEvent>) -> Self {
        self.capacity_events = events;
        self
    }

    /// The configured capacity-event stream.
    pub fn capacity_events(&self) -> &[CapacityEvent] {
        &self.capacity_events
    }

    /// The cluster topology.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// Total container capacity.
    pub fn capacity(&self) -> u32 {
        self.cluster.capacity()
    }

    /// The RNG seed for interference and failure draws.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The interference model.
    pub fn interference(&self) -> &Interference {
        &self.interference
    }

    /// The task-failure model.
    pub fn failures(&self) -> &FailureModel {
        &self.failures
    }

    /// The safety horizon after which the run aborts.
    pub fn max_slots(&self) -> Slot {
        self.max_slots
    }
}

/// Per-job mutable state inside the engine.
#[derive(Debug)]
struct JobState {
    spec: JobSpec,
    /// Unstarted map task indices (popped from the back).
    pending_maps: Vec<usize>,
    /// Unstarted reduce task indices (popped from the back).
    pending_reduces: Vec<usize>,
    maps_remaining: usize,
    completed: usize,
    /// Container·slots consumed by successful attempts.
    useful_slots: u64,
    /// Container·slots wasted on failed or killed attempts.
    wasted_slots: u64,
}

/// A task attempt occupying a container until `end`.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    end: Slot,
    job: usize,
    task: usize,
    container: u32,
    duration: Slot,
    fails: bool,
    speculative: bool,
}

impl Attempt {
    fn start(&self) -> Slot {
        self.end - self.duration
    }
}

/// What one run mutates besides the jobs.
#[derive(Debug)]
struct Run {
    rng: SmallRng,
    free: FreePool,
    /// Running attempts, in no particular order: every lookup is a scan
    /// with a unique answer.
    running: Vec<Attempt>,
    /// Scheduler-visible views of active jobs, in arrival order.
    views: Vec<JobView>,
    result: SimResult,
    trace: Option<Trace>,
}

impl Run {
    /// Removes and returns the attempt due at `now` with the smallest
    /// `(job, task, container)`.
    fn pop_due(&mut self, now: Slot) -> Option<Attempt> {
        let (i, _) = self
            .running
            .iter()
            .enumerate()
            .filter(|(_, a)| a.end == now)
            .min_by_key(|(_, a)| (a.job, a.task, a.container))?;
        Some(self.running.swap_remove(i))
    }

    /// Position of another running attempt of `a`'s task — its speculative
    /// duplicate or the primary it duplicates. At most one exists:
    /// speculation only duplicates attempts that have none.
    fn sibling_of(&self, a: &Attempt) -> Option<usize> {
        self.running
            .iter()
            .position(|o| o.job == a.job && o.task == a.task && o.container != a.container)
    }

    /// The view of job `job`, if it has arrived and not completed.
    fn view_mut(&mut self, job: usize) -> Option<&mut JobView> {
        self.views.iter_mut().find(|v| v.id.0 as usize == job)
    }

    /// Refreshes the job view's oldest-running-attempt start.
    fn refresh_oldest(&mut self, job: usize) {
        let oldest = self.running.iter().filter(|a| a.job == job).map(Attempt::start).min();
        if let Some(v) = self.view_mut(job) {
            v.oldest_running_start = oldest;
        }
    }

    fn record(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(event);
        }
    }

    /// Calls the scheduler (through `call`) on the cluster as it stands at
    /// `now`, charging the call's wall time to `result.scheduler_time`.
    fn consult<T>(&mut self, now: Slot, call: impl FnOnce(&ClusterView<'_>) -> T) -> T {
        let view = ClusterView {
            now,
            capacity: self.free.in_service(),
            free_containers: self.free.len(),
            jobs: &self.views,
        };
        let t0 = Instant::now();
        let out = call(&view);
        self.result.scheduler_time += t0.elapsed();
        out
    }
}

/// A configured simulation, ready to [`run`](Simulation::run).
#[derive(Debug)]
pub struct Simulation {
    config: SimConfig,
    jobs: Vec<JobState>,
}

impl Simulation {
    /// Creates a simulation over the given jobs. Jobs receive ids
    /// `JobId(0)..` in submission order.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if `jobs` is empty.
    pub fn new(config: SimConfig, jobs: Vec<JobSpec>) -> Result<Self, SimError> {
        if jobs.is_empty() {
            return Err(SimError::InvalidConfig { reason: "no jobs submitted" });
        }
        validate_capacity_events(config.capacity(), &config.capacity_events)?;
        let jobs = jobs
            .into_iter()
            .map(|spec| {
                let maps: Vec<usize> = spec.task_indices(Phase::Map).rev().collect();
                let reduces: Vec<usize> = spec.task_indices(Phase::Reduce).rev().collect();
                JobState {
                    maps_remaining: maps.len(),
                    pending_maps: maps,
                    pending_reduces: reduces,
                    completed: 0,
                    useful_slots: 0,
                    wasted_slots: 0,
                    spec,
                }
            })
            .collect();
        Ok(Simulation { config, jobs })
    }

    /// Runs the simulation to completion under `scheduler`, consuming it.
    ///
    /// # Errors
    ///
    /// * [`SimError::HorizonExceeded`] if the configured `max_slots` passes
    ///   with unfinished jobs.
    /// * [`SimError::SchedulerStalled`] if the scheduler refuses to assign
    ///   while nothing is running and no arrival is pending.
    pub fn run<S: Scheduler + ?Sized>(mut self, scheduler: &mut S) -> Result<SimResult, SimError> {
        // Arrivals sorted descending so the next arrival pops from the back.
        let mut arrivals: Vec<usize> = (0..self.jobs.len()).collect();
        arrivals.sort_by_key(|&i| Reverse((self.jobs[i].spec.arrival(), i)));

        let cap_events = std::mem::take(&mut self.config.capacity_events);
        let mut cap_idx = 0usize;

        let mut run = Run {
            rng: SmallRng::seed_from_u64(self.config.seed),
            free: FreePool::new(&self.config.cluster),
            running: Vec::with_capacity(self.config.capacity() as usize),
            views: Vec::new(),
            result: SimResult::default(),
            trace: self.config.record_trace.then(Trace::new),
        };
        let mut now: Slot = arrivals.last().map_or(0, |&i| self.jobs[i].spec.arrival());

        loop {
            // 1. Completions (and attempt failures) at `now`.
            while let Some(a) = run.pop_due(now) {
                run.free.release(a.container);
                let sibling = run.sibling_of(&a);
                if a.fails {
                    let sample = self.fail_task(&mut run, a, now, sibling.is_some());
                    run.consult(now, |view| scheduler.on_task_failed(view, sample));
                } else {
                    // First successful attempt wins: kill any duplicate of
                    // the same task before recording the completion.
                    if let Some(i) = sibling {
                        let sib = run.running.swap_remove(i);
                        run.free.release(sib.container);
                        run.result.killed_attempts += 1;
                        self.jobs[sib.job].wasted_slots += now.saturating_sub(sib.start());
                        if let Some(v) = run.view_mut(sib.job) {
                            v.running_tasks -= 1;
                        }
                        run.record(TraceEvent::TaskKilled {
                            job: JobId(sib.job as u32),
                            task: TaskId(sib.task as u32),
                            at: now,
                        });
                    }
                    let sample = self.complete_task(&mut run, a, now);
                    run.consult(now, |view| scheduler.on_task_complete(view, sample));
                }
            }

            // 2. Capacity events at `now`, after completions have freed
            // their containers: a revocation claims the highest-indexed
            // in-service containers (whatever runs on one is killed and
            // re-queued as a failure, charged as wasted slots); a restock
            // returns the lowest-indexed revoked containers. The scheduler
            // observes the change through `on_capacity_change` and through
            // every later view's effective capacity.
            // `validate_capacity_events` keeps a container in service and
            // bounds every restock by the revoked count.
            while let Some(ev) = cap_events.get(cap_idx).filter(|ev| ev.at <= now) {
                cap_idx += 1;
                match ev.change {
                    CapacityChange::Revoke { n } => {
                        for _ in 0..n {
                            let (c, was_free) = run.free.revoke_highest();
                            run.result.revoked_containers += 1;
                            if was_free {
                                continue; // nothing to kill
                            }
                            #[expect(
                                clippy::expect_used,
                                reason = "a revoked container that was not free always carries a running attempt"
                            )]
                            let i = run
                                .running
                                .iter()
                                .position(|a| a.container == c)
                                .expect("busy container has an attempt");
                            let a = run.running.swap_remove(i);
                            let sibling = run.sibling_of(&a).is_some();
                            // The attempt dies mid-flight: only the elapsed
                            // runtime was wasted, and that is what the
                            // scheduler observes as the failure sample.
                            let killed = Attempt { end: now, duration: now - a.start(), ..a };
                            let sample = self.fail_task(&mut run, killed, now, sibling);
                            run.result.revoked_attempts += 1;
                            run.consult(now, |view| scheduler.on_task_failed(view, sample));
                        }
                    }
                    CapacityChange::Restock { n } => {
                        for _ in 0..n {
                            run.free.restore_lowest();
                            run.result.restocked_containers += 1;
                        }
                    }
                }
                run.consult(now, |view| scheduler.on_capacity_change(view));
            }

            // 3. Arrivals at `now`.
            while let Some(&i) = arrivals.last().filter(|&&i| self.jobs[i].spec.arrival() == now) {
                arrivals.pop();
                let v = self.make_view(i);
                let id = v.id;
                run.views.push(v);
                run.record(TraceEvent::JobArrived { job: id, at: now });
                run.consult(now, |view| scheduler.on_job_arrival(view, id));
            }

            // 4. Dispatch loop. A bounded misassignment budget lets a
            // scheduler recover from naming an invalid job (unknown,
            // finished or with nothing runnable) without letting a
            // persistently confused one spin the engine forever.
            let mut misassign_budget = run.free.in_service() as u64 + 1;
            while !run.free.is_empty() && run.views.iter().any(|v| v.runnable_tasks > 0) {
                let choice = run.consult(now, |view| scheduler.assign(view));
                run.result.scheduler_invocations += 1;
                let Some(id) = choice else { break };
                let Some(vi) = run.views.iter().position(|v| v.id == id && v.runnable_tasks > 0)
                else {
                    run.result.misassignments += 1;
                    misassign_budget -= 1;
                    if misassign_budget == 0 {
                        break;
                    }
                    continue;
                };
                #[expect(
                    clippy::expect_used,
                    reason = "acquire follows a non-empty free-pool check"
                )]
                let container = run.free.acquire_lowest().expect("free checked");
                self.start_task(&mut run, vi, container, now);
                run.result.assignments += 1;
            }

            // 5. Speculation loop: with containers still free, offer the
            // scheduler the chance to duplicate a long-running attempt
            // (Hadoop-style speculative execution). The engine picks the
            // oldest non-duplicated primary attempt of the named job.
            let mut spec_budget = run.free.in_service() as u64;
            while !run.free.is_empty() && spec_budget > 0 {
                spec_budget -= 1;
                let Some(id) = run.consult(now, |view| scheduler.speculate(view)) else { break };
                let job = id.0 as usize;
                let target = run
                    .running
                    .iter()
                    .filter(|a| a.job == job && !a.speculative && run.sibling_of(a).is_none())
                    .min_by_key(|a| (a.start(), a.task))
                    .copied();
                let Some(primary) = target else { break };
                #[expect(
                    clippy::expect_used,
                    reason = "acquire follows a non-empty free-pool check"
                )]
                let container = run.free.acquire_lowest().expect("free checked");
                self.launch(&mut run, job, primary.task, container, now, true);
                run.result.speculative_attempts += 1;
            }

            // 6. Advance to the next event.
            let unfinished = self.jobs.len() - run.result.outcomes.len();
            if unfinished == 0 {
                break;
            }
            let next_completion = run.running.iter().map(|a| a.end).min();
            let next_arrival = arrivals.last().map(|&i| self.jobs[i].spec.arrival());
            let next_capacity = cap_events.get(cap_idx).map(|e| e.at);
            let next = [next_completion, next_arrival, next_capacity].into_iter().flatten().min();
            let Some(next) = next else {
                return Err(SimError::SchedulerStalled { at: now });
            };
            debug_assert!(next > now, "time must advance");
            if next > self.config.max_slots {
                return Err(SimError::HorizonExceeded {
                    max_slots: self.config.max_slots,
                    unfinished,
                });
            }
            now = next;
        }

        let mut result = run.result;
        result.makespan = now;
        result.sort_outcomes();
        result.trace = run.trace;
        Ok(result)
    }

    /// Handles a failed attempt: the task is re-queued and the wasted
    /// runtime reported.
    fn fail_task(
        &mut self,
        run: &mut Run,
        a: Attempt,
        now: Slot,
        sibling_running: bool,
    ) -> TaskSample {
        let job = &mut self.jobs[a.job];
        let was_map = job.spec.tasks()[a.task].phase() == Phase::Map;
        // With a duplicate attempt still in flight, the failure is absorbed:
        // the task stays running elsewhere and is not re-queued.
        if !sibling_running {
            if was_map {
                job.pending_maps.push(a.task);
            } else {
                job.pending_reduces.push(a.task);
            }
        }
        #[expect(clippy::expect_used, reason = "an attempt only runs for an active job")]
        let v = run.view_mut(a.job).expect("failing task of an active job");
        v.running_tasks -= 1;
        v.failed_attempts += 1;
        if !sibling_running {
            v.pending_tasks += 1;
            // Re-queued map tasks are always runnable; reduces only once the
            // map barrier has cleared (it has, if a reduce was running).
            if was_map || job.maps_remaining == 0 {
                v.runnable_tasks += 1;
            }
        }
        run.result.failed_attempts += 1;
        job.wasted_slots += a.duration;
        let sample = TaskSample {
            job: JobId(a.job as u32),
            task: TaskId(a.task as u32),
            runtime: a.duration,
            finished_at: now,
        };
        run.record(TraceEvent::TaskFailed {
            job: sample.job,
            task: sample.task,
            at: now,
            runtime: a.duration,
        });
        run.refresh_oldest(a.job);
        sample
    }

    /// Builds the initial view of job `i`.
    fn make_view(&self, i: usize) -> JobView {
        let job = &self.jobs[i];
        let spec = &job.spec;
        let runnable = if job.maps_remaining > 0 {
            job.pending_maps.len()
        } else {
            job.pending_maps.len() + job.pending_reduces.len()
        };
        JobView {
            id: JobId(i as u32),
            label: spec.label().to_owned(),
            arrival: spec.arrival(),
            utility: *spec.utility(),
            priority: spec.priority(),
            sensitivity: spec.sensitivity(),
            budget: spec.budget(),
            total_tasks: spec.tasks().len(),
            pending_tasks: spec.tasks().len(),
            runnable_tasks: runnable,
            running_tasks: 0,
            completed_tasks: 0,
            failed_attempts: 0,
            oldest_running_start: None,
            samples: Vec::new(),
        }
    }

    /// Starts the next runnable task of the job behind `run.views[vi]` on
    /// `container`.
    fn start_task(&mut self, run: &mut Run, vi: usize, container: u32, now: Slot) {
        let job_idx = run.views[vi].id.0 as usize;
        let node_id = self.config.cluster.node_of_container(container).id();
        let job = &mut self.jobs[job_idx];
        // Locality-aware pick: prefer a pending task whose input lives on
        // this container's node (the data-local choice a YARN node manager
        // heartbeat would make), falling back to stack order.
        let pick_local = |pending: &[usize], spec: &JobSpec| -> Option<usize> {
            pending.iter().rposition(|&t| spec.tasks()[t].preferred_node() == Some(node_id))
        };
        #[expect(
            clippy::expect_used,
            clippy::unreachable,
            reason = "dispatch only picks a view with a runnable task"
        )]
        let task_idx = if let Some(pos) = pick_local(&job.pending_maps, &job.spec) {
            job.pending_maps.remove(pos)
        } else if let Some(t) = job.pending_maps.pop() {
            t
        } else if job.maps_remaining == 0 {
            if let Some(pos) = pick_local(&job.pending_reduces, &job.spec) {
                job.pending_reduces.remove(pos)
            } else {
                job.pending_reduces.pop().expect("runnable task exists")
            }
        } else {
            unreachable!("runnable task exists")
        };
        match job.spec.tasks()[task_idx].preferred_node() {
            Some(pref) if pref != node_id => run.result.remote_starts += 1,
            Some(_) => run.result.local_starts += 1,
            None => {}
        }
        let v = &mut run.views[vi];
        v.pending_tasks -= 1;
        v.runnable_tasks -= 1;
        self.launch(run, job_idx, task_idx, container, now, false);
    }

    /// Launches an attempt of task `task` of job `job` on `container` and
    /// counts it as running. Its duration is the base runtime times the
    /// node's speed factor, the remote penalty when the task's input lives
    /// on another node, and an interference draw, rounded up to at least
    /// one slot; whether it fails is drawn after the interference.
    fn launch(
        &self,
        run: &mut Run,
        job: usize,
        task: usize,
        container: u32,
        now: Slot,
        speculative: bool,
    ) {
        let spec = self.jobs[job].spec.tasks()[task];
        let node = self.config.cluster.node_of_container(container);
        let locality = match spec.preferred_node() {
            Some(pref) if pref != node.id() => self.config.remote_penalty,
            _ => 1.0,
        };
        let factor = self.config.interference.draw(&mut run.rng);
        let fails = self.config.failures.draw(&mut run.rng);
        let duration =
            (spec.base_runtime() * node.speed_factor() * locality * factor).ceil().max(1.0) as Slot;
        let (job_id, task_id, node_id) = (JobId(job as u32), TaskId(task as u32), node.id());
        run.record(if speculative {
            TraceEvent::TaskSpeculated {
                job: job_id,
                task: task_id,
                container,
                node: node_id,
                at: now,
                duration,
            }
        } else {
            TraceEvent::TaskStarted {
                job: job_id,
                task: task_id,
                container,
                node: node_id,
                at: now,
                duration,
            }
        });
        run.running.push(Attempt {
            end: now + duration,
            job,
            task,
            container,
            duration,
            fails,
            speculative,
        });
        if let Some(v) = run.view_mut(job) {
            v.running_tasks += 1;
        }
        run.refresh_oldest(job);
    }

    /// Records a task completion; returns the sample reported to the
    /// scheduler. Removes the job's view once the job is fully complete.
    fn complete_task(&mut self, run: &mut Run, a: Attempt, now: Slot) -> TaskSample {
        let job = &mut self.jobs[a.job];
        job.completed += 1;
        job.useful_slots += a.duration;
        let was_map = job.spec.tasks()[a.task].phase() == Phase::Map;
        if was_map {
            job.maps_remaining -= 1;
        }
        #[expect(clippy::expect_used, reason = "an attempt only runs for an active job")]
        let vi = run
            .views
            .iter()
            .position(|v| v.id.0 as usize == a.job)
            .expect("completing task of an active job");
        let v = &mut run.views[vi];
        v.running_tasks -= 1;
        v.completed_tasks += 1;
        if was_map && job.maps_remaining == 0 {
            // Map barrier cleared: reduces become runnable.
            v.runnable_tasks += job.pending_reduces.len();
        }
        v.samples.push(a.duration);
        let sample = TaskSample {
            job: JobId(a.job as u32),
            task: TaskId(a.task as u32),
            runtime: a.duration,
            finished_at: now,
        };
        run.record(TraceEvent::TaskFinished {
            job: sample.job,
            task: sample.task,
            at: now,
            runtime: a.duration,
        });
        run.refresh_oldest(a.job);
        if job.completed == job.spec.tasks().len() {
            let runtime_slots = now - job.spec.arrival();
            run.result.outcomes.push(JobOutcome {
                id: sample.job,
                label: job.spec.label().to_owned(),
                arrival: job.spec.arrival(),
                finish: now,
                runtime: runtime_slots,
                budget: job.spec.budget(),
                utility: job.spec.utility().utility(runtime_slots as f64),
                sensitivity: job.spec.sensitivity(),
                priority: job.spec.priority(),
                tasks: job.spec.tasks().len(),
                container_slots: job.useful_slots,
                wasted_slots: job.wasted_slots,
            });
            run.record(TraceEvent::JobCompleted { job: sample.job, at: now });
            run.views.remove(vi);
        }
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TaskSpec;
    use crate::scheduler::{fcfs_task_order, FcfsTaskOrder};
    use rush_utility::TimeUtility;

    fn util() -> TimeUtility {
        TimeUtility::constant(1.0).unwrap()
    }

    fn simple_job(label: &str, arrival: Slot, maps: usize, runtime: f64) -> JobSpec {
        JobSpec::builder(label)
            .arrival(arrival)
            .tasks((0..maps).map(|_| TaskSpec::new(runtime, Phase::Map)))
            .utility(util())
            .build()
            .unwrap()
    }

    #[test]
    fn single_job_on_ample_cluster_runs_in_one_wave() {
        let sim = Simulation::new(SimConfig::homogeneous(1, 8), vec![simple_job("j", 0, 4, 10.0)])
            .unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        assert_eq!(r.outcomes.len(), 1);
        assert_eq!(r.outcomes[0].runtime, 10);
        assert_eq!(r.assignments, 4);
        assert_eq!(r.misassignments, 0);
    }

    #[test]
    fn constrained_cluster_serializes_waves() {
        let sim = Simulation::new(SimConfig::homogeneous(1, 2), vec![simple_job("j", 0, 4, 10.0)])
            .unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        assert_eq!(r.outcomes[0].runtime, 20); // two waves of two tasks
    }

    #[test]
    fn arrival_offsets_are_respected() {
        let sim = Simulation::new(SimConfig::homogeneous(1, 1), vec![simple_job("j", 7, 1, 5.0)])
            .unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        assert_eq!(r.outcomes[0].arrival, 7);
        assert_eq!(r.outcomes[0].finish, 12);
        assert_eq!(r.outcomes[0].runtime, 5);
    }

    #[test]
    fn reduce_waits_for_map_barrier() {
        let job = JobSpec::builder("mr")
            .tasks(vec![
                TaskSpec::new(10.0, Phase::Map),
                TaskSpec::new(2.0, Phase::Map),
                TaskSpec::new(5.0, Phase::Reduce),
            ])
            .utility(util())
            .build()
            .unwrap();
        // Plenty of containers: without the barrier the reduce would start
        // at 0 and the job would finish at 10; with it, 10 + 5 = 15.
        let sim = Simulation::new(SimConfig::homogeneous(1, 8), vec![job]).unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        assert_eq!(r.outcomes[0].runtime, 15);
    }

    #[test]
    fn two_jobs_fcfs_order() {
        let sim = Simulation::new(
            SimConfig::homogeneous(1, 1),
            vec![simple_job("a", 0, 1, 10.0), simple_job("b", 1, 1, 10.0)],
        )
        .unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        let a = r.outcome(JobId(0)).unwrap();
        let b = r.outcome(JobId(1)).unwrap();
        assert_eq!(a.finish, 10);
        assert_eq!(b.finish, 20); // waits for the single container
        assert_eq!(b.runtime, 19);
    }

    #[test]
    fn node_speed_scales_runtime() {
        let cluster = ClusterSpec::new(vec![(2.0, 1)]).unwrap(); // 2x slower
        let sim =
            Simulation::new(SimConfig::new(cluster), vec![simple_job("j", 0, 1, 10.0)]).unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        assert_eq!(r.outcomes[0].runtime, 20);
    }

    #[test]
    fn interference_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let cfg = SimConfig::homogeneous(1, 4)
                .with_interference(Interference::LogNormal { cv: 0.5 })
                .with_seed(seed);
            let sim = Simulation::new(cfg, vec![simple_job("j", 0, 16, 10.0)]).unwrap();
            sim.run(&mut fcfs_task_order()).unwrap().makespan
        };
        assert_eq!(run(9), run(9));
        // With CV=0.5, two seeds virtually never produce identical makespans.
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn horizon_exceeded_is_reported() {
        let cfg = SimConfig::homogeneous(1, 1).with_max_slots(5);
        let sim = Simulation::new(cfg, vec![simple_job("j", 0, 2, 10.0)]).unwrap();
        let err = sim.run(&mut fcfs_task_order()).unwrap_err();
        assert!(matches!(err, SimError::HorizonExceeded { unfinished: 1, .. }));
    }

    #[test]
    fn empty_job_list_rejected() {
        assert!(matches!(
            Simulation::new(SimConfig::homogeneous(1, 1), vec![]),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    /// A scheduler that always refuses to assign.
    #[derive(Debug)]
    struct Refusenik;
    impl Scheduler for Refusenik {
        fn name(&self) -> &str {
            "refusenik"
        }
        fn assign(&mut self, _view: &ClusterView<'_>) -> Option<JobId> {
            None
        }
    }

    #[test]
    fn refusing_scheduler_stalls() {
        let sim = Simulation::new(SimConfig::homogeneous(1, 1), vec![simple_job("j", 0, 1, 5.0)])
            .unwrap();
        let err = sim.run(&mut Refusenik).unwrap_err();
        assert!(matches!(err, SimError::SchedulerStalled { at: 0 }));
    }

    /// A scheduler that names a bogus job.
    #[derive(Debug)]
    struct Bogus(bool);
    impl Scheduler for Bogus {
        fn name(&self) -> &str {
            "bogus"
        }
        fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
            if self.0 {
                // After the first bogus answer, behave.
                FcfsTaskOrder.assign(view)
            } else {
                self.0 = true;
                Some(JobId(999))
            }
        }
    }

    #[test]
    fn misassignments_are_counted_and_survivable() {
        let sim = Simulation::new(SimConfig::homogeneous(1, 2), vec![simple_job("j", 0, 2, 5.0)])
            .unwrap();
        let r = sim.run(&mut Bogus(false)).unwrap();
        assert!(r.misassignments >= 1);
        assert_eq!(r.outcomes.len(), 1);
    }

    #[test]
    fn scheduler_counters_populated() {
        let sim = Simulation::new(SimConfig::homogeneous(1, 2), vec![simple_job("j", 0, 4, 5.0)])
            .unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        assert_eq!(r.assignments, 4);
        assert!(r.scheduler_invocations >= 4);
    }

    #[test]
    fn outcomes_sorted_by_finish() {
        let sim = Simulation::new(
            SimConfig::homogeneous(1, 2),
            vec![simple_job("slow", 0, 1, 30.0), simple_job("fast", 0, 1, 5.0)],
        )
        .unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        assert_eq!(r.outcomes[0].label, "fast");
        assert_eq!(r.outcomes[1].label, "slow");
        assert_eq!(r.makespan, 30);
    }

    #[test]
    fn failed_attempts_are_requeued_and_job_still_completes() {
        use crate::perturb::FailureModel;
        let cfg = SimConfig::homogeneous(1, 2)
            .with_failures(FailureModel::Bernoulli { p: 0.3 })
            .with_seed(5);
        let sim = Simulation::new(cfg, vec![simple_job("j", 0, 30, 10.0)]).unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        assert_eq!(r.outcomes.len(), 1);
        assert!(r.failed_attempts > 0, "p=0.3 over 30+ attempts should fail at least once");
        // Every failed attempt re-runs: assignments = tasks + failures.
        assert_eq!(r.assignments, 30 + r.failed_attempts);
        // Wasted attempts stretch the runtime beyond the ideal 150.
        assert!(r.outcomes[0].runtime >= 150);
    }

    #[test]
    fn reduce_failure_respects_barrier_state() {
        use crate::perturb::FailureModel;
        // With p=0.5 and a seed chosen to hit a reduce failure, the reduce
        // must be re-queued as runnable (barrier already cleared).
        let job = JobSpec::builder("mr")
            .tasks(vec![TaskSpec::new(5.0, Phase::Map), TaskSpec::new(5.0, Phase::Reduce)])
            .utility(util())
            .build()
            .unwrap();
        for seed in 0..20 {
            let cfg = SimConfig::homogeneous(1, 1)
                .with_failures(FailureModel::Bernoulli { p: 0.4 })
                .with_seed(seed);
            let sim = Simulation::new(cfg, vec![job.clone()]).unwrap();
            let r = sim.run(&mut fcfs_task_order()).unwrap();
            assert_eq!(r.outcomes.len(), 1, "seed {seed}");
        }
    }

    #[test]
    fn trace_records_full_lifecycle() {
        use crate::trace::TraceEvent;
        let cfg = SimConfig::homogeneous(1, 2).with_trace(true);
        let sim = Simulation::new(cfg, vec![simple_job("j", 3, 2, 10.0)]).unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        let trace = r.trace.expect("tracing enabled");
        let kinds: Vec<&str> = trace
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::JobArrived { .. } => "arrive",
                TraceEvent::TaskStarted { .. } => "start",
                TraceEvent::TaskFinished { .. } => "finish",
                TraceEvent::TaskFailed { .. } => "fail",
                TraceEvent::TaskSpeculated { .. } => "speculate",
                TraceEvent::TaskKilled { .. } => "kill",
                TraceEvent::JobCompleted { .. } => "complete",
            })
            .collect();
        assert_eq!(kinds, vec!["arrive", "start", "start", "finish", "finish", "complete"]);
        assert_eq!(trace.events()[0].at(), 3);
        // CSV renders one line per event plus a header.
        assert_eq!(trace.to_csv().lines().count(), 7);
    }

    #[test]
    fn trace_disabled_by_default() {
        let sim = Simulation::new(SimConfig::homogeneous(1, 1), vec![simple_job("j", 0, 1, 5.0)])
            .unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        assert!(r.trace.is_none());
    }

    /// Speculates on every opportunity.
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

    #[test]
    fn speculation_duplicates_and_kills_cleanly() {
        // 2 tasks on 4 containers: after both start, 2 containers stay free
        // and the speculator duplicates both. Every task finishes once;
        // sibling attempts are killed; counters balance.
        let sim = Simulation::new(
            SimConfig::homogeneous(1, 4).with_trace(true),
            vec![simple_job("s", 0, 2, 10.0)],
        )
        .unwrap();
        let r = sim.run(&mut AlwaysSpeculate).unwrap();
        assert_eq!(r.outcomes.len(), 1);
        assert_eq!(r.speculative_attempts, 2);
        // Duplicates on a homogeneous interference-free cluster tie with
        // their primaries; the primary (processed first by job/task order)
        // wins and each duplicate is killed.
        assert_eq!(r.killed_attempts, 2);
        assert_eq!(r.outcomes[0].runtime, 10);
        let trace = r.trace.unwrap();
        use crate::trace::TraceEvent;
        let kinds: Vec<&str> = trace
            .events()
            .iter()
            .map(|e| match e {
                TraceEvent::JobArrived { .. } => "arrive",
                TraceEvent::TaskStarted { .. } => "start",
                TraceEvent::TaskFinished { .. } => "finish",
                TraceEvent::TaskFailed { .. } => "fail",
                TraceEvent::TaskSpeculated { .. } => "speculate",
                TraceEvent::TaskKilled { .. } => "kill",
                TraceEvent::JobCompleted { .. } => "complete",
            })
            .collect();
        assert_eq!(kinds.iter().filter(|k| **k == "speculate").count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == "kill").count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == "finish").count(), 2);
    }

    #[test]
    fn speculation_rescues_failed_primary() {
        use crate::perturb::FailureModel;
        // With failures and always-on speculation, a failed primary whose
        // duplicate is still running is absorbed without re-queueing; the
        // job still completes exactly its task count.
        for seed in 0..12 {
            let cfg = SimConfig::homogeneous(1, 6)
                .with_failures(FailureModel::Bernoulli { p: 0.4 })
                .with_seed(seed);
            let sim = Simulation::new(cfg, vec![simple_job("s", 0, 3, 10.0)]).unwrap();
            let r = sim.run(&mut AlwaysSpeculate).unwrap();
            assert_eq!(r.outcomes.len(), 1, "seed {seed}");
            assert_eq!(r.outcomes[0].tasks, 3);
        }
    }

    #[test]
    fn remote_penalty_slows_misplaced_tasks() {
        use crate::NodeId;
        // 2 nodes x 1 container. Two tasks preferring node 0: one runs
        // local (10 slots), the other is forced onto node 1 (15 slots).
        let job = JobSpec::builder("loc")
            .tasks(vec![
                TaskSpec::new(10.0, Phase::Map).with_preference(NodeId(0)),
                TaskSpec::new(10.0, Phase::Map).with_preference(NodeId(0)),
            ])
            .utility(util())
            .build()
            .unwrap();
        let cfg = SimConfig::homogeneous(2, 1).with_remote_penalty(1.5).with_trace(true);
        let r = Simulation::new(cfg, vec![job]).unwrap().run(&mut fcfs_task_order()).unwrap();
        let trace = r.trace.unwrap();
        let mut durations: Vec<Slot> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                crate::trace::TraceEvent::TaskStarted { duration, .. } => Some(*duration),
                _ => None,
            })
            .collect();
        durations.sort_unstable();
        assert_eq!(durations, vec![10, 15]);
    }

    #[test]
    fn local_tasks_are_picked_first() {
        use crate::NodeId;
        // Single container on node 0; the job has one node-1 task and one
        // node-0 task queued in that order. The engine must pick the local
        // (node-0) task first.
        let job = JobSpec::builder("pick")
            .tasks(vec![
                TaskSpec::new(10.0, Phase::Map).with_preference(NodeId(1)),
                TaskSpec::new(10.0, Phase::Map).with_preference(NodeId(0)),
            ])
            .utility(util())
            .build()
            .unwrap();
        let cfg = SimConfig::homogeneous(1, 1).with_remote_penalty(2.0).with_trace(true);
        let r = Simulation::new(cfg, vec![job]).unwrap().run(&mut fcfs_task_order()).unwrap();
        let trace = r.trace.unwrap();
        let first_started = trace
            .events()
            .iter()
            .find_map(|e| match e {
                crate::trace::TraceEvent::TaskStarted { task, duration, .. } => {
                    Some((*task, *duration))
                }
                _ => None,
            })
            .unwrap();
        // task-1 prefers node 0 → runs first at full speed.
        assert_eq!(first_started, (crate::TaskId(1), 10));
    }

    #[test]
    #[should_panic(expected = "remote penalty")]
    fn remote_penalty_validated() {
        let _ = SimConfig::homogeneous(1, 1).with_remote_penalty(0.5);
    }

    #[test]
    fn resource_accounting_balances() {
        use crate::perturb::FailureModel;
        let cfg = SimConfig::homogeneous(1, 2)
            .with_failures(FailureModel::Bernoulli { p: 0.25 })
            .with_seed(4);
        let sim = Simulation::new(cfg, vec![simple_job("j", 0, 10, 10.0)]).unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        let o = &r.outcomes[0];
        assert_eq!(o.container_slots, 100, "10 successes x 10 slots");
        assert_eq!(o.wasted_slots, r.failed_attempts * 10, "each wasted attempt is 10 slots");
    }

    #[test]
    fn default_schedulers_never_speculate() {
        let sim = Simulation::new(SimConfig::homogeneous(1, 8), vec![simple_job("s", 0, 2, 10.0)])
            .unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        assert_eq!(r.speculative_attempts, 0);
        assert_eq!(r.killed_attempts, 0);
    }

    #[test]
    fn samples_reach_views_through_scheduler() {
        /// Records samples it receives.
        #[derive(Debug, Default)]
        struct Recorder {
            samples: Vec<Slot>,
        }
        impl Scheduler for Recorder {
            fn name(&self) -> &str {
                "recorder"
            }
            fn on_task_complete(&mut self, _view: &ClusterView<'_>, s: TaskSample) {
                self.samples.push(s.runtime);
            }
            fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
                FcfsTaskOrder.assign(view)
            }
        }
        let sim = Simulation::new(SimConfig::homogeneous(1, 2), vec![simple_job("j", 0, 3, 7.0)])
            .unwrap();
        let mut rec = Recorder::default();
        sim.run(&mut rec).unwrap();
        assert_eq!(rec.samples, vec![7, 7, 7]);
    }

    #[test]
    fn revocation_kills_running_attempt_and_requeues() {
        // One job, 2 maps of 10 slots on a 2-container cluster. At slot 4
        // one container is revoked: the attempt on container 1 dies with 4
        // wasted slots and its task re-queues onto the surviving container.
        let cfg = SimConfig::homogeneous(1, 2).with_trace(true).with_capacity_events(vec![
            CapacityEvent { at: 4, change: CapacityChange::Revoke { n: 1 } },
        ]);
        let sim = Simulation::new(cfg, vec![simple_job("j", 0, 2, 10.0)]).unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        assert_eq!(r.revoked_containers, 1);
        assert_eq!(r.revoked_attempts, 1);
        assert_eq!(r.failed_attempts, 1);
        // Task 0 runs 0..10 on container 0; task 1 is killed at 4 and
        // reruns 10..20 after container 0 frees up.
        assert_eq!(r.outcomes[0].finish, 20);
        assert_eq!(r.outcomes[0].wasted_slots, 4);
        assert_eq!(r.outcomes[0].container_slots, 20);
        let trace = r.trace.as_ref().unwrap();
        assert!(trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::TaskFailed { at: 4, runtime: 4, .. }
        )));
    }

    /// Declines every container while the effective capacity is below 2 —
    /// the shape of a planner that waits out a revocation.
    struct WaitsForCapacity;

    impl Scheduler for WaitsForCapacity {
        fn name(&self) -> &str {
            "waits-for-capacity"
        }

        fn assign(&mut self, view: &ClusterView<'_>) -> Option<JobId> {
            if view.capacity < 2 {
                return None;
            }
            view.runnable_jobs().min_by_key(|j| (j.arrival, j.id)).map(|j| j.id)
        }
    }

    #[test]
    fn restock_wakes_a_waiting_scheduler() {
        // Two of three containers revoked before the job arrives; the
        // scheduler refuses to run on the rump cluster. With nothing
        // running and no arrivals pending, the engine must advance to the
        // restock at slot 40 instead of reporting SchedulerStalled.
        let cfg = SimConfig::homogeneous(1, 3).with_capacity_events(vec![
            CapacityEvent { at: 0, change: CapacityChange::Revoke { n: 2 } },
            CapacityEvent { at: 40, change: CapacityChange::Restock { n: 2 } },
        ]);
        let sim = Simulation::new(cfg, vec![simple_job("j", 0, 2, 10.0)]).unwrap();
        let r = sim.run(&mut WaitsForCapacity).unwrap();
        assert_eq!(r.revoked_containers, 2);
        assert_eq!(r.restocked_containers, 2);
        // Both maps start at 40 once capacity is back.
        assert_eq!(r.outcomes[0].finish, 50);

        // A pre-arrival revocation serializes the waves on the survivor;
        // the restock scheduled after the job completes is never applied.
        let cfg = SimConfig::homogeneous(1, 3).with_capacity_events(vec![
            CapacityEvent { at: 0, change: CapacityChange::Revoke { n: 2 } },
            CapacityEvent { at: 40, change: CapacityChange::Restock { n: 1 } },
        ]);
        let sim = Simulation::new(cfg, vec![simple_job("j", 0, 2, 10.0)]).unwrap();
        let r = sim.run(&mut fcfs_task_order()).unwrap();
        // Maps serialize 0..10 and 10..20 on container 0.
        assert_eq!(r.outcomes[0].finish, 20);
        assert_eq!(r.revoked_containers, 2);
        assert_eq!(r.restocked_containers, 0);
    }

    #[test]
    fn capacity_schedule_validated_at_build() {
        let cfg = SimConfig::homogeneous(1, 2).with_capacity_events(vec![CapacityEvent {
            at: 0,
            change: CapacityChange::Revoke { n: 2 },
        }]);
        assert!(matches!(
            Simulation::new(cfg, vec![simple_job("j", 0, 1, 5.0)]),
            Err(SimError::InvalidConfig { .. })
        ));
    }
}
