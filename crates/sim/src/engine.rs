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
//!    are reported to the scheduler);
//! 2. job arrivals at the current slot;
//! 3. the **dispatch loop**: while containers are free and runnable tasks
//!    exist, the scheduler is asked to name the job that gets the next
//!    container. Returning `None` leaves the remaining containers idle
//!    until the next event — a legitimate decision for a completion-time
//!    aware scheduler.
//!
//! # Two engines, one contract
//!
//! The default engine is **indexed**: completions live in a lazy-deletion
//! binary heap keyed by `(end, job, task, container)` (O(log n) next
//! event), free containers in a two-level bitset
//! [`FreePool`] (O(1) word-op acquire/release),
//! the dispatch condition is a maintained `total_runnable` counter, and
//! per-event scratch (attempt slab, per-job attempt lists, the job → view
//! index) is allocated once up front, so the steady state allocates only
//! when a job's sample vector or the optional trace grows.
//!
//! The seed engine — linear scans over a running `Vec`, a re-sorted free
//! list — is preserved verbatim outside this crate, as
//! `rush_oracle::engine::run`, and must produce **bit-identical** results:
//! same outcomes, same counters, same trace event sequence, same RNG draw
//! order. The differential property test in `tests/engine_differential.rs`
//! holds the two to that contract under randomized workloads, failures,
//! interference, speculation and capacity churn.

use crate::cluster::{
    validate_capacity_events, CapacityChange, CapacityEvent, ClusterSpec, FreePool, Node,
};
use crate::job::{JobSpec, Phase, TaskSpec};
use crate::outcome::{JobOutcome, SimResult};
use crate::perturb::{FailureModel, Interference};
use crate::scheduler::Scheduler;
use crate::trace::{Trace, TraceEvent};
use crate::view::{ClusterView, JobView, TaskSample};
use crate::{JobId, SimError, Slot, TaskId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

    /// Whether the run records a [`Trace`].
    pub fn records_trace(&self) -> bool {
        self.record_trace
    }

    /// The runtime multiplier for a task placed off its preferred node.
    pub fn remote_penalty(&self) -> f64 {
        self.remote_penalty
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
    finish: Option<Slot>,
    /// Container·slots consumed by successful attempts.
    useful_slots: u64,
    /// Container·slots wasted on failed or killed attempts.
    wasted_slots: u64,
}

/// A task attempt occupying a container until `end`, stored in the
/// indexed engine's attempt slab.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    end: Slot,
    job: u32,
    task: u32,
    container: u32,
    duration: Slot,
    fails: bool,
    speculative: bool,
    /// Cleared when the attempt is killed or popped; a dead slab entry
    /// lingers until its heap entry surfaces (lazy deletion).
    alive: bool,
}

impl Attempt {
    fn start(&self) -> Slot {
        self.end - self.duration
    }
}

/// Completion-queue key: `(end, job, task, container, attempt_id)`.
///
/// The first four fields replicate the naive engine's pop order — the due
/// attempt with the smallest `(job, task, container)` — and are unique
/// among *alive* attempts (containers are exclusive; duplicates of one
/// task sit on different containers), so the trailing slab id never
/// decides between two live entries; it only keeps the ordering total once
/// dead entries are in the heap.
type QueueKey = (Slot, u32, u32, u32, u32);

/// All per-run engine indexes, allocated once before the event loop.
///
/// Nothing here allocates in the steady state: the attempt slab recycles
/// slots through a free list, the completion queue's backing buffer is
/// pre-sized to cluster capacity (an attempt needs a container, so at most
/// `capacity` entries are alive; dead entries are drained lazily), and the
/// per-job attempt lists grow to each job's high-water running count.
#[derive(Debug)]
struct EngineState {
    /// Attempt storage; `slab_free` holds recyclable slots.
    slab: Vec<Attempt>,
    slab_free: Vec<u32>,
    /// Min-heap of completions with lazy deletion of killed attempts.
    queue: BinaryHeap<Reverse<QueueKey>>,
    /// Free containers as a two-level bitset (lowest-index acquire).
    free: FreePool,
    /// Scheduler-visible views of active jobs, in arrival order.
    views: Vec<JobView>,
    /// Job index → position in `views`, `None` once the job completed (or
    /// before it arrives).
    view_of: Vec<Option<u32>>,
    /// Alive attempt ids per job — sized for sibling lookup, speculation
    /// targeting and oldest-start refresh without scanning all running
    /// attempts.
    job_attempts: Vec<Vec<u32>>,
    /// Container → node index, precomputed from the cluster spec.
    node_of: Vec<u32>,
    /// Maintained sum of `views[*].runnable_tasks` — the dispatch-loop
    /// condition without a view scan.
    total_runnable: usize,
    /// Jobs with `finish` set — the termination condition without a job
    /// scan.
    finished_jobs: usize,
}

impl EngineState {
    fn new(config: &SimConfig, n_jobs: usize) -> Self {
        let capacity = config.capacity() as usize;
        EngineState {
            slab: Vec::with_capacity(capacity),
            slab_free: Vec::with_capacity(capacity),
            queue: BinaryHeap::with_capacity(capacity + 1),
            free: FreePool::new(config.cluster()),
            views: Vec::new(),
            view_of: vec![None; n_jobs],
            job_attempts: vec![Vec::new(); n_jobs],
            node_of: config.cluster().container_node_map(),
            total_runnable: 0,
            finished_jobs: 0,
        }
    }

    /// Registers a new attempt: slab slot (recycled if possible), heap
    /// entry, per-job list entry.
    fn spawn(&mut self, a: Attempt) {
        let id = match self.slab_free.pop() {
            Some(id) => {
                self.slab[id as usize] = a;
                id
            }
            None => {
                self.slab.push(a);
                (self.slab.len() - 1) as u32
            }
        };
        self.queue.push(Reverse((a.end, a.job, a.task, a.container, id)));
        self.job_attempts[a.job as usize].push(id);
    }

    /// Pops the next attempt due at `now`, in the naive engine's order
    /// (smallest `(job, task, container)` first). Dead heap entries are
    /// discarded — and their slab slots recycled — on the way.
    fn pop_due(&mut self, now: Slot) -> Option<Attempt> {
        while let Some(&Reverse((end, _, _, _, id))) = self.queue.peek() {
            let a = self.slab[id as usize];
            if !a.alive {
                self.queue.pop();
                self.slab_free.push(id);
                continue;
            }
            if end != now {
                return None;
            }
            self.queue.pop();
            let attempts = &mut self.job_attempts[a.job as usize];
            #[expect(
                clippy::expect_used,
                reason = "attempt slab and per-job lists are updated together"
            )]
            let pos = attempts.iter().position(|&x| x == id).expect("attempt tracked");
            attempts.swap_remove(pos);
            self.slab[id as usize].alive = false;
            self.slab_free.push(id);
            return Some(a);
        }
        None
    }

    /// Earliest end across alive attempts. Dead heap tops are drained so
    /// the engine never advances to a slot where nothing happens (which
    /// would add scheduler invocations the naive engine does not issue).
    fn next_end(&mut self) -> Option<Slot> {
        while let Some(&Reverse((end, _, _, _, id))) = self.queue.peek() {
            if self.slab[id as usize].alive {
                return Some(end);
            }
            self.queue.pop();
            self.slab_free.push(id);
        }
        None
    }

    /// Kills attempt `id` (sibling lost the duplicate race). The slab slot
    /// is **not** recycled here — the heap still holds an entry pointing at
    /// it; the slot frees when that entry surfaces in
    /// [`pop_due`](Self::pop_due)/[`next_end`](Self::next_end).
    fn kill(&mut self, id: u32) {
        let job = self.slab[id as usize].job as usize;
        self.slab[id as usize].alive = false;
        let attempts = &mut self.job_attempts[job];
        #[expect(
            clippy::expect_used,
            reason = "attempt slab and per-job lists are updated together"
        )]
        let pos = attempts.iter().position(|&x| x == id).expect("attempt tracked");
        attempts.swap_remove(pos);
    }

    /// The alive duplicate of `(job, task)`, if one is running. At most one
    /// exists: speculation only duplicates singleton attempts.
    fn sibling_of(&self, job: u32, task: u32) -> Option<u32> {
        self.job_attempts[job as usize]
            .iter()
            .copied()
            .find(|&a| self.slab[a as usize].task == task)
    }

    /// Refreshes the job view's oldest-running-attempt start from the
    /// job's alive attempts (no-op once the job's view is gone).
    fn refresh_oldest(&mut self, job: u32) {
        if let Some(vi) = self.view_of[job as usize] {
            self.views[vi as usize].oldest_running_start = self.job_attempts[job as usize]
                .iter()
                .map(|&a| self.slab[a as usize].start())
                .min();
        }
    }

    /// The alive attempt currently occupying container `c`, if any.
    fn attempt_on(&self, c: u32) -> Option<u32> {
        self.slab
            .iter()
            .position(|a| a.alive && a.container == c)
            .map(|i| i as u32)
    }

    /// Calls the scheduler (through `call`) on the cluster as it stands at
    /// `now`, charging the call's wall time to `result.scheduler_time`.
    fn consult<T>(
        &self,
        now: Slot,
        result: &mut SimResult,
        call: impl FnOnce(&ClusterView<'_>) -> T,
    ) -> T {
        let view = ClusterView {
            now,
            capacity: self.free.effective_capacity(),
            free_containers: self.free.len(),
            jobs: &self.views,
        };
        let t0 = Instant::now();
        let out = call(&view);
        result.scheduler_time += t0.elapsed();
        out
    }

    /// Removes a completed job's view and re-indexes the views behind it
    /// (views stay in arrival order, which schedulers observe).
    fn remove_view(&mut self, vi: usize) {
        let job = self.views[vi].id.0 as usize;
        self.views.remove(vi);
        self.view_of[job] = None;
        for (w, v) in self.views.iter().enumerate().skip(vi) {
            self.view_of[v.id.0 as usize] = Some(w as u32);
        }
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
                    finish: None,
                    useful_slots: 0,
                    wasted_slots: 0,
                    spec,
                }
            })
            .collect();
        Ok(Simulation { config, jobs })
    }

    /// Takes the validated simulation apart again: its configuration and
    /// the submitted job specs, in submission order. This is how an
    /// engine outside this crate (the scan-based oracle in `rush-oracle`)
    /// runs exactly what [`Simulation::new`] accepted.
    pub fn into_parts(self) -> (SimConfig, Vec<JobSpec>) {
        (self.config, self.jobs.into_iter().map(|j| j.spec).collect())
    }

    /// Runs the simulation to completion under `scheduler`, consuming it.
    ///
    /// This is the indexed engine; `rush_oracle::engine::run` executes the
    /// same semantics with scan-based structures and must agree bit-for-bit.
    ///
    /// # Errors
    ///
    /// * [`SimError::HorizonExceeded`] if the configured `max_slots` passes
    ///   with unfinished jobs.
    /// * [`SimError::SchedulerStalled`] if the scheduler refuses to assign
    ///   while nothing is running and no arrival is pending.
    pub fn run<S: Scheduler + ?Sized>(mut self, scheduler: &mut S) -> Result<SimResult, SimError> {
        let mut rng = SmallRng::seed_from_u64(self.config.seed);

        // Arrivals sorted descending so the next arrival pops from the back.
        let mut arrivals: Vec<usize> = (0..self.jobs.len()).collect();
        arrivals.sort_by_key(|&i| Reverse((self.jobs[i].spec.arrival(), i)));

        let cap_events = self.config.capacity_events.clone();
        let mut cap_idx = 0usize;

        let mut st = EngineState::new(&self.config, self.jobs.len());
        let mut result = SimResult::default();
        let mut trace: Option<Trace> = if self.config.record_trace {
            // Every job arrives and completes; every task starts and
            // finishes at least once. Failures, kills and speculation push
            // past the hint, but the common case never reallocates.
            let total_tasks: usize = self.jobs.iter().map(|j| j.spec.tasks().len()).sum();
            Some(Trace::with_capacity(2 * self.jobs.len() + 2 * total_tasks))
        } else {
            None
        };
        let mut now: Slot = match arrivals.last() {
            Some(&i) => self.jobs[i].spec.arrival(),
            None => 0,
        };

        loop {
            // 1. Completions (and attempt failures) at `now`.
            while let Some(a) = st.pop_due(now) {
                st.free.release(a.container);
                let sibling = st.sibling_of(a.job, a.task);
                if a.fails {
                    let sample = self.fail_task_ix(
                        &mut st,
                        a,
                        now,
                        sibling.is_some(),
                        &mut result,
                        &mut trace,
                    );
                    st.refresh_oldest(a.job);
                    st.consult(now, &mut result, |view| scheduler.on_task_failed(view, sample));
                } else {
                    // First successful attempt wins: kill any duplicate of
                    // the same task before recording the completion.
                    if let Some(sib_id) = sibling {
                        let sib = st.slab[sib_id as usize];
                        st.kill(sib_id);
                        st.free.release(sib.container);
                        result.killed_attempts += 1;
                        self.jobs[sib.job as usize].wasted_slots +=
                            now.saturating_sub(sib.start());
                        if let Some(vi) = st.view_of[sib.job as usize] {
                            st.views[vi as usize].running_tasks -= 1;
                        }
                        if let Some(trace) = &mut trace {
                            trace.push(TraceEvent::TaskKilled {
                                job: JobId(sib.job),
                                task: TaskId(sib.task),
                                at: now,
                            });
                        }
                    }
                    let sample = self.complete_task_ix(&mut st, a, now, &mut result, &mut trace);
                    st.refresh_oldest(a.job);
                    st.consult(now, &mut result, |view| scheduler.on_task_complete(view, sample));
                }
            }

            // 1b. Capacity events at `now`, after completions have freed
            // their containers: a revocation claims the highest-indexed
            // in-service containers (whatever runs on one is killed and
            // re-queued as a failure, charged as wasted slots); a restock
            // returns the lowest-indexed revoked containers. The scheduler
            // observes the change through `on_capacity_change` and through
            // every later view's effective capacity.
            while cap_idx < cap_events.len() && cap_events[cap_idx].at <= now {
                let ev = cap_events[cap_idx];
                cap_idx += 1;
                match ev.change {
                    CapacityChange::Revoke { n } => {
                        for _ in 0..n {
                            #[expect(
                                clippy::expect_used,
                                reason = "validate_capacity_events bounds revocations by in-service and restocks by revoked containers"
                            )]
                            let c = st.free.highest_in_service().expect("schedule validated");
                            result.revoked_containers += 1;
                            if st.free.revoke(c) {
                                continue; // was free: nothing to kill
                            }
                            #[expect(
                                clippy::expect_used,
                                reason = "a revoked container that was not free always carries a running attempt"
                            )]
                            let id = st.attempt_on(c).expect("busy container has an attempt");
                            let a = st.slab[id as usize];
                            st.kill(id);
                            let sibling = st.sibling_of(a.job, a.task);
                            // The attempt dies mid-flight: only the elapsed
                            // runtime was wasted, and that is what the
                            // scheduler observes as the failure sample.
                            let killed =
                                Attempt { end: now, duration: now - a.start(), ..a };
                            let sample = self.fail_task_ix(
                                &mut st,
                                killed,
                                now,
                                sibling.is_some(),
                                &mut result,
                                &mut trace,
                            );
                            result.revoked_attempts += 1;
                            st.refresh_oldest(a.job);
                            st.consult(now, &mut result, |view| scheduler.on_task_failed(view, sample));
                        }
                    }
                    CapacityChange::Restock { n } => {
                        for _ in 0..n {
                            #[expect(
                                clippy::expect_used,
                                reason = "validate_capacity_events bounds revocations by in-service and restocks by revoked containers"
                            )]
                            let c = st.free.lowest_revoked().expect("schedule validated");
                            st.free.restore(c);
                            result.restocked_containers += 1;
                        }
                    }
                }
                st.consult(now, &mut result, |view| scheduler.on_capacity_change(view));
            }

            // 2. Arrivals at `now`.
            while arrivals.last().is_some_and(|&i| self.jobs[i].spec.arrival() == now) {
                #[expect(
                    clippy::expect_used,
                    reason = "pop follows a successful peek of the same heap"
                )]
                let i = arrivals.pop().expect("peeked");
                let v = self.make_view(i);
                let id = v.id;
                st.view_of[i] = Some(st.views.len() as u32);
                st.total_runnable += v.runnable_tasks;
                st.views.push(v);
                if let Some(trace) = &mut trace {
                    trace.push(TraceEvent::JobArrived { job: id, at: now });
                }
                st.consult(now, &mut result, |view| scheduler.on_job_arrival(view, id));
            }

            // 3. Dispatch loop. A bounded misassignment budget lets a
            // scheduler recover from naming an invalid job without letting
            // a persistently confused one spin the engine forever.
            let mut misassign_budget = st.free.effective_capacity() as u64 + 1;
            while !st.free.is_empty() && st.total_runnable > 0 {
                let choice = st.consult(now, &mut result, |view| scheduler.assign(view));
                result.scheduler_invocations += 1;
                match choice {
                    None => break,
                    Some(id) => {
                        let Some(vi) = st.view_of.get(id.0 as usize).copied().flatten() else {
                            result.misassignments += 1;
                            misassign_budget -= 1;
                            if misassign_budget == 0 {
                                break;
                            }
                            continue;
                        };
                        let vi = vi as usize;
                        if st.views[vi].runnable_tasks == 0 {
                            result.misassignments += 1;
                            misassign_budget -= 1;
                            if misassign_budget == 0 {
                                break;
                            }
                            continue;
                        }
                        #[expect(
                            clippy::expect_used,
                            reason = "acquire follows a non-empty free-pool check"
                        )]
                        let container = st.free.acquire_lowest().expect("free checked");
                        self.start_task_ix(
                            &mut st,
                            vi,
                            container,
                            now,
                            &mut rng,
                            &mut trace,
                            &mut result,
                        );
                        result.assignments += 1;
                    }
                }
            }

            // 3b. Speculation loop: with containers still free, offer the
            // scheduler the chance to duplicate a long-running attempt
            // (Hadoop-style speculative execution). The engine picks the
            // oldest non-duplicated primary attempt of the named job.
            let mut spec_budget = st.free.effective_capacity() as u64;
            while !st.free.is_empty() && spec_budget > 0 {
                spec_budget -= 1;
                let choice = st.consult(now, &mut result, |view| scheduler.speculate(view));
                let Some(id) = choice else { break };
                let job_idx = id.0 as usize;
                let target = st.job_attempts.get(job_idx).and_then(|attempts| {
                    attempts
                        .iter()
                        .map(|&aid| st.slab[aid as usize])
                        .filter(|a| {
                            !a.speculative
                                && attempts
                                    .iter()
                                    .filter(|&&o| st.slab[o as usize].task == a.task)
                                    .count()
                                    == 1
                        })
                        .min_by_key(|a| (a.start(), a.task))
                });
                let Some(primary) = target else { break };
                #[expect(
                    clippy::expect_used,
                    reason = "acquire follows a non-empty free-pool check"
                )]
                let container = st.free.acquire_lowest().expect("free checked");
                let task = self.jobs[job_idx].spec.tasks()[primary.task as usize];
                let node = &self.config.cluster.nodes()[st.node_of[container as usize] as usize];
                let (duration, fails) = self.draw_attempt(&task, node, &mut rng);
                if let Some(trace) = &mut trace {
                    trace.push(TraceEvent::TaskSpeculated {
                        job: id,
                        task: TaskId(primary.task),
                        container,
                        node: node.id(),
                        at: now,
                        duration,
                    });
                }
                st.spawn(Attempt {
                    end: now + duration,
                    job: job_idx as u32,
                    task: primary.task,
                    container,
                    duration,
                    fails,
                    speculative: true,
                    alive: true,
                });
                if let Some(vi) = st.view_of[job_idx] {
                    st.views[vi as usize].running_tasks += 1;
                }
                st.refresh_oldest(job_idx as u32);
                result.speculative_attempts += 1;
            }

            // 4. Advance to the next event.
            if st.finished_jobs == self.jobs.len() {
                break;
            }
            let next_completion = st.next_end();
            let next_arrival = arrivals.last().map(|&i| self.jobs[i].spec.arrival());
            let next_capacity = cap_events.get(cap_idx).map(|e| e.at);
            let next = [next_completion, next_arrival, next_capacity]
                .into_iter()
                .flatten()
                .min();
            let Some(next) = next else {
                return Err(SimError::SchedulerStalled { at: now });
            };
            debug_assert!(next > now, "time must advance");
            if next > self.config.max_slots {
                let unfinished = self.jobs.len() - st.finished_jobs;
                return Err(SimError::HorizonExceeded {
                    max_slots: self.config.max_slots,
                    unfinished,
                });
            }
            now = next;
        }

        result.makespan = now;
        result.sort_outcomes();
        result.trace = trace;
        Ok(result)
    }

    /// Handles a failed attempt (indexed engine): the task is re-queued and
    /// the wasted runtime reported.
    fn fail_task_ix(
        &mut self,
        st: &mut EngineState,
        a: Attempt,
        now: Slot,
        sibling_running: bool,
        result: &mut SimResult,
        trace: &mut Option<Trace>,
    ) -> TaskSample {
        let job = &mut self.jobs[a.job as usize];
        let was_map = job.spec.tasks()[a.task as usize].phase() == Phase::Map;
        // With a duplicate attempt still in flight, the failure is absorbed:
        // the task stays running elsewhere and is not re-queued.
        if !sibling_running {
            if was_map {
                job.pending_maps.push(a.task as usize);
            } else {
                job.pending_reduces.push(a.task as usize);
            }
        }
        #[expect(clippy::expect_used, reason = "view index is maintained for every active job")]
        let vi = st.view_of[a.job as usize].expect("failing task of an active job") as usize;
        let v = &mut st.views[vi];
        v.running_tasks -= 1;
        v.failed_attempts += 1;
        if !sibling_running {
            v.pending_tasks += 1;
            // Re-queued map tasks are always runnable; reduces only once the
            // map barrier has cleared (it has, if a reduce was running).
            if was_map || job.maps_remaining == 0 {
                v.runnable_tasks += 1;
                st.total_runnable += 1;
            }
        }
        result.failed_attempts += 1;
        job.wasted_slots += a.duration;
        if let Some(trace) = trace {
            trace.push(TraceEvent::TaskFailed {
                job: JobId(a.job),
                task: TaskId(a.task),
                at: now,
                runtime: a.duration,
            });
        }
        TaskSample {
            job: JobId(a.job),
            task: TaskId(a.task),
            runtime: a.duration,
            finished_at: now,
        }
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

    /// Starts the next runnable task of the job behind `views[vi]`
    /// (indexed engine).
    #[allow(clippy::too_many_arguments)] // engine plumbing, not public API
    fn start_task_ix(
        &mut self,
        st: &mut EngineState,
        vi: usize,
        container: u32,
        now: Slot,
        rng: &mut SmallRng,
        trace: &mut Option<Trace>,
        result: &mut SimResult,
    ) {
        let job_idx = st.views[vi].id.0 as usize;
        let node = &self.config.cluster.nodes()[st.node_of[container as usize] as usize];
        let node_id = node.id();
        let job = &mut self.jobs[job_idx];
        // Locality-aware pick: prefer a pending task whose input lives on
        // this container's node (the data-local choice a YARN node manager
        // heartbeat would make), falling back to stack order.
        let pick_local = |pending: &[usize], spec: &JobSpec| -> Option<usize> {
            pending.iter().rposition(|&t| spec.tasks()[t].preferred_node() == Some(node_id))
        };
        #[expect(
            clippy::expect_used, clippy::unreachable,
            reason = "dispatch only fires while the runnable counter is positive"
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
        let task = job.spec.tasks()[task_idx];
        match task.preferred_node() {
            Some(pref) if pref != node_id => result.remote_starts += 1,
            Some(_) => result.local_starts += 1,
            None => {}
        }
        let (duration, fails) = self.draw_attempt(&task, node, rng);
        if let Some(trace) = trace {
            trace.push(TraceEvent::TaskStarted {
                job: JobId(job_idx as u32),
                task: TaskId(task_idx as u32),
                container,
                node: node_id,
                at: now,
                duration,
            });
        }
        st.spawn(Attempt {
            end: now + duration,
            job: job_idx as u32,
            task: task_idx as u32,
            container,
            duration,
            fails,
            speculative: false,
            alive: true,
        });
        let v = &mut st.views[vi];
        v.pending_tasks -= 1;
        v.runnable_tasks -= 1;
        v.running_tasks += 1;
        st.total_runnable -= 1;
        st.refresh_oldest(job_idx as u32);
    }

    /// Draws an attempt of `task` on `node`: its duration — the base runtime
    /// times the node's speed factor, the remote penalty when the task's
    /// input lives on another node, and an interference draw, rounded up to
    /// at least one slot — then whether it fails, in that RNG order.
    fn draw_attempt(&self, task: &TaskSpec, node: &Node, rng: &mut SmallRng) -> (Slot, bool) {
        let locality = match task.preferred_node() {
            Some(pref) if pref != node.id() => self.config.remote_penalty,
            _ => 1.0,
        };
        let factor = self.config.interference.draw(rng);
        let fails = self.config.failures.draw(rng);
        let duration =
            (task.base_runtime() * node.speed_factor() * locality * factor).ceil().max(1.0) as Slot;
        (duration, fails)
    }

    /// Records a task completion (indexed engine); returns the sample
    /// reported to the scheduler. Removes the job's view once the job is
    /// fully complete.
    fn complete_task_ix(
        &mut self,
        st: &mut EngineState,
        a: Attempt,
        now: Slot,
        result: &mut SimResult,
        trace: &mut Option<Trace>,
    ) -> TaskSample {
        let job = &mut self.jobs[a.job as usize];
        job.completed += 1;
        job.useful_slots += a.duration;
        let was_map = job.spec.tasks()[a.task as usize].phase() == Phase::Map;
        if was_map {
            job.maps_remaining -= 1;
        }
        #[expect(clippy::expect_used, reason = "view index is maintained for every active job")]
        let vi = st.view_of[a.job as usize].expect("completing task of an active job") as usize;
        let v = &mut st.views[vi];
        v.running_tasks -= 1;
        v.completed_tasks += 1;
        if was_map && job.maps_remaining == 0 {
            // Map barrier cleared: reduces become runnable.
            v.runnable_tasks += job.pending_reduces.len();
            st.total_runnable += job.pending_reduces.len();
        }
        v.samples.push(a.duration);
        if let Some(trace) = trace {
            trace.push(TraceEvent::TaskFinished {
                job: JobId(a.job),
                task: TaskId(a.task),
                at: now,
                runtime: a.duration,
            });
        }
        let sample = TaskSample {
            job: JobId(a.job),
            task: TaskId(a.task),
            runtime: a.duration,
            finished_at: now,
        };
        if job.completed == job.spec.tasks().len() {
            job.finish = Some(now);
            let runtime_slots = now - job.spec.arrival();
            result.outcomes.push(JobOutcome {
                id: JobId(a.job),
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
            if let Some(trace) = trace {
                trace.push(TraceEvent::JobCompleted { job: JobId(a.job), at: now });
            }
            st.remove_view(vi);
            st.finished_jobs += 1;
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
