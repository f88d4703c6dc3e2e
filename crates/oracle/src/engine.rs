//! The seed scan-based simulation engine.
//!
//! [`run`] executes the same event loop as
//! [`Simulation::run`](rush_sim::engine::Simulation::run) with the
//! original data structures: a linear scan over a `Vec` of running
//! attempts per event, a descending-sorted free container list, and a view
//! scan for the dispatch condition. Results must be bit-identical to the
//! indexed engine (outcomes, counters, RNG draw order, trace events);
//! `crates/sim/tests/engine_differential.rs` enforces that.
//!
//! The oracle reads a built [`Simulation`] through its public surface
//! only — [`Simulation::into_parts`] and [`SimConfig`]'s getters — and
//! keeps its own copy of the per-job state the indexed engine holds
//! privately.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rush_sim::cluster::CapacityChange;
use rush_sim::engine::{SimConfig, Simulation};
use rush_sim::job::{JobSpec, Phase};
use rush_sim::outcome::{JobOutcome, SimResult};
use rush_sim::scheduler::Scheduler;
use rush_sim::trace::{Trace, TraceEvent};
use rush_sim::view::{ClusterView, JobView, TaskSample};
use rush_sim::{JobId, SimError, Slot, TaskId};
use std::cmp::Reverse;
use std::time::Instant;

/// Frozen copy of the indexed engine's private per-job state.
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

/// What the seed engine knew as `Simulation`: the validated configuration
/// and the per-job state built from the submitted specs.
#[derive(Debug)]
struct Sim {
    config: SimConfig,
    jobs: Vec<JobState>,
}

impl Sim {
    fn new(sim: Simulation) -> Self {
        let (config, jobs) = sim.into_parts();
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
        Sim { config, jobs }
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
}

/// A task occupying a container until `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RunningTask {
    end: Slot,
    job: usize,
    task: usize,
    container: u32,
    duration: Slot,
    fails: bool,
    speculative: bool,
}

impl RunningTask {
    fn start(&self) -> Slot {
        self.end - self.duration
    }
}

/// Index of the due attempt with the smallest (end, job, task,
/// container), or None when nothing ends at `now`.
fn pop_due(running: &mut Vec<RunningTask>, now: Slot) -> Option<RunningTask> {
    let idx = running
        .iter()
        .enumerate()
        .filter(|(_, rt)| rt.end == now)
        .min_by_key(|(_, rt)| (rt.job, rt.task, rt.container))
        .map(|(i, _)| i)?;
    Some(running.remove(idx))
}

/// Earliest attempt end across the running set.
fn next_end(running: &[RunningTask]) -> Option<Slot> {
    running.iter().map(|rt| rt.end).min()
}

/// Refreshes a job view's oldest-running-attempt start from the
/// running set.
fn refresh_oldest(views: &mut [JobView], running: &[RunningTask], job_idx: usize) {
    if let Some(v) = views.iter_mut().find(|v| v.id == JobId(job_idx as u32)) {
        v.oldest_running_start =
            running.iter().filter(|rt| rt.job == job_idx).map(|rt| rt.start()).min();
    }
}

/// Runs `sim` to completion under `scheduler` with the scan-based
/// engine.
///
/// # Errors
///
/// Same as [`Simulation::run`]: [`SimError::HorizonExceeded`] and
/// [`SimError::SchedulerStalled`].
pub fn run<S: Scheduler + ?Sized>(
    sim: Simulation,
    scheduler: &mut S,
) -> Result<SimResult, SimError> {
    let mut sim = Sim::new(sim);
    let capacity = sim.config.capacity();
    let mut rng = SmallRng::seed_from_u64(sim.config.seed());

    // Arrivals sorted descending so the next arrival pops from the back.
    let mut arrivals: Vec<usize> = (0..sim.jobs.len()).collect();
    arrivals.sort_by_key(|&i| Reverse((sim.jobs[i].spec.arrival(), i)));

    let cap_events = sim.config.capacity_events().to_vec();
    let mut cap_idx = 0usize;
    let mut revoked = vec![false; capacity as usize];
    let mut revoked_count = 0u32;

    // Free containers, largest index first so pop() yields the smallest.
    let mut free: Vec<u32> = (0..capacity).rev().collect();
    let mut running: Vec<RunningTask> = Vec::with_capacity(capacity as usize);
    let mut views: Vec<JobView> = Vec::new();
    let mut result = SimResult::default();
    let mut trace: Option<Trace> =
        if sim.config.records_trace() { Some(Trace::new()) } else { None };
    let mut now: Slot = match arrivals.last() {
        Some(&i) => sim.jobs[i].spec.arrival(),
        None => 0,
    };

    loop {
        // 1. Completions (and attempt failures) at `now`. Freed
        // containers are collected unsorted and the free list re-sorted
        // once after the drain: ordering only matters when a container
        // is acquired, which happens no earlier than the dispatch loop.
        let mut freed_any = false;
        while let Some(rt) = pop_due(&mut running, now) {
            free.push(rt.container);
            freed_any = true;
            let sibling_running = running.iter().any(|o| o.job == rt.job && o.task == rt.task);
            if rt.fails {
                let sample = fail_task(
                    &mut sim,
                    &mut views,
                    rt,
                    now,
                    sibling_running,
                    &mut result,
                    &mut trace,
                );
                refresh_oldest(&mut views, &running, rt.job);
                let view = ClusterView {
                    now,
                    capacity: capacity - revoked_count,
                    free_containers: free.len() as u32,
                    jobs: &views,
                };
                let t0 = Instant::now();
                scheduler.on_task_failed(&view, sample);
                result.scheduler_time += t0.elapsed();
            } else {
                // First successful attempt wins: kill any duplicate of
                // the same task before recording the completion.
                if sibling_running {
                    #[expect(
                        clippy::expect_used,
                        reason = "speculation tracks both attempt siblings"
                    )]
                    let idx = running
                        .iter()
                        .position(|o| o.job == rt.job && o.task == rt.task)
                        .expect("sibling present");
                    let sib = running.remove(idx);
                    free.push(sib.container);
                    result.killed_attempts += 1;
                    sim.jobs[sib.job].wasted_slots += now.saturating_sub(sib.start());
                    if let Some(v) = views.iter_mut().find(|v| v.id == JobId(sib.job as u32)) {
                        v.running_tasks -= 1;
                    }
                    if let Some(trace) = &mut trace {
                        trace.push(TraceEvent::TaskKilled {
                            job: JobId(sib.job as u32),
                            task: TaskId(sib.task as u32),
                            at: now,
                        });
                    }
                }
                let sample =
                    complete_task(&mut sim, &mut views, rt, now, &mut result, &mut trace);
                refresh_oldest(&mut views, &running, rt.job);
                let view = ClusterView {
                    now,
                    capacity: capacity - revoked_count,
                    free_containers: free.len() as u32,
                    jobs: &views,
                };
                let t0 = Instant::now();
                scheduler.on_task_complete(&view, sample);
                result.scheduler_time += t0.elapsed();
            }
        }
        if freed_any {
            free.sort_unstable_by_key(|&c| Reverse(c));
        }

        // 1b. Capacity events at `now` — identical semantics to the
        // indexed engine: revoke the highest-indexed in-service
        // containers (killing and re-queueing whatever runs on them),
        // restock the lowest-indexed revoked ones.
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
                        let c = (0..capacity)
                            .rev()
                            .find(|&c| !revoked[c as usize])
                            .expect("schedule validated");
                        revoked[c as usize] = true;
                        revoked_count += 1;
                        result.revoked_containers += 1;
                        if let Some(pos) = free.iter().position(|&f| f == c) {
                            free.remove(pos);
                            continue; // was free: nothing to kill
                        }
                        #[expect(
                            clippy::expect_used,
                            reason = "a revoked container that was not free always carries a running attempt"
                        )]
                        let idx = running
                            .iter()
                            .position(|rt| rt.container == c)
                            .expect("busy container has an attempt");
                        let rt = running.remove(idx);
                        let sibling_running =
                            running.iter().any(|o| o.job == rt.job && o.task == rt.task);
                        let killed =
                            RunningTask { end: now, duration: now - rt.start(), ..rt };
                        let sample = fail_task(
                            &mut sim,
                            &mut views,
                            killed,
                            now,
                            sibling_running,
                            &mut result,
                            &mut trace,
                        );
                        result.revoked_attempts += 1;
                        refresh_oldest(&mut views, &running, rt.job);
                        let view = ClusterView {
                            now,
                            capacity: capacity - revoked_count,
                            free_containers: free.len() as u32,
                            jobs: &views,
                        };
                        let t0 = Instant::now();
                        scheduler.on_task_failed(&view, sample);
                        result.scheduler_time += t0.elapsed();
                    }
                }
                CapacityChange::Restock { n } => {
                    for _ in 0..n {
                        #[expect(
                            clippy::expect_used,
                            reason = "validate_capacity_events bounds revocations by in-service and restocks by revoked containers"
                        )]
                        let c = (0..capacity)
                            .find(|&c| revoked[c as usize])
                            .expect("schedule validated");
                        revoked[c as usize] = false;
                        revoked_count -= 1;
                        free.push(c);
                        result.restocked_containers += 1;
                    }
                    free.sort_unstable_by_key(|&c| Reverse(c));
                }
            }
            let view = ClusterView {
                now,
                capacity: capacity - revoked_count,
                free_containers: free.len() as u32,
                jobs: &views,
            };
            let t0 = Instant::now();
            scheduler.on_capacity_change(&view);
            result.scheduler_time += t0.elapsed();
        }

        // 2. Arrivals at `now`.
        while arrivals.last().is_some_and(|&i| sim.jobs[i].spec.arrival() == now) {
            #[expect(
                clippy::expect_used,
                reason = "pop follows a successful peek of the same heap"
            )]
            let i = arrivals.pop().expect("peeked");
            let v = sim.make_view(i);
            let id = v.id;
            views.push(v);
            if let Some(trace) = &mut trace {
                trace.push(TraceEvent::JobArrived { job: id, at: now });
            }
            let view = ClusterView {
                now,
                capacity: capacity - revoked_count,
                free_containers: free.len() as u32,
                jobs: &views,
            };
            let t0 = Instant::now();
            scheduler.on_job_arrival(&view, id);
            result.scheduler_time += t0.elapsed();
        }

        // 3. Dispatch loop. A bounded misassignment budget lets a
        // scheduler recover from naming an invalid job without letting
        // a persistently confused one spin the engine forever.
        let mut misassign_budget = (capacity - revoked_count) as u64 + 1;
        while !free.is_empty() && views.iter().any(|v| v.runnable_tasks > 0) {
            let view = ClusterView {
                now,
                capacity: capacity - revoked_count,
                free_containers: free.len() as u32,
                jobs: &views,
            };
            let t0 = Instant::now();
            let choice = scheduler.assign(&view);
            result.scheduler_time += t0.elapsed();
            result.scheduler_invocations += 1;
            match choice {
                None => break,
                Some(id) => {
                    let Some(vi) = views.iter().position(|v| v.id == id) else {
                        result.misassignments += 1;
                        misassign_budget -= 1;
                        if misassign_budget == 0 {
                            break;
                        }
                        continue;
                    };
                    if views[vi].runnable_tasks == 0 {
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
                    let container = free.pop().expect("free checked");
                    start_task(
                        &mut sim,
                        &mut views,
                        vi,
                        container,
                        now,
                        &mut running,
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
        let mut spec_budget = (capacity - revoked_count) as u64;
        while !free.is_empty() && spec_budget > 0 {
            spec_budget -= 1;
            let view = ClusterView {
                now,
                capacity: capacity - revoked_count,
                free_containers: free.len() as u32,
                jobs: &views,
            };
            let t0 = Instant::now();
            let choice = scheduler.speculate(&view);
            result.scheduler_time += t0.elapsed();
            let Some(id) = choice else { break };
            let job_idx = id.0 as usize;
            let target = running
                .iter()
                .filter(|rt| {
                    rt.job == job_idx
                        && !rt.speculative
                        && running
                            .iter()
                            .filter(|o| o.job == rt.job && o.task == rt.task)
                            .count()
                            == 1
                })
                .min_by_key(|rt| (rt.start(), rt.task))
                .copied();
            let Some(primary) = target else { break };
            #[expect(
                clippy::expect_used,
                reason = "acquire follows a non-empty free-pool check"
            )]
            let container = free.pop().expect("free checked");
            let task = sim.jobs[job_idx].spec.tasks()[primary.task];
            let base = task.base_runtime();
            let node = sim.config.cluster().node_of_container(container);
            let locality = match task.preferred_node() {
                Some(pref) if pref != node.id() => sim.config.remote_penalty(),
                _ => 1.0,
            };
            let factor = sim.config.interference().draw(&mut rng);
            let fails = sim.config.failures().draw(&mut rng);
            let duration =
                (base * node.speed_factor() * locality * factor).ceil().max(1.0) as Slot;
            if let Some(trace) = &mut trace {
                trace.push(TraceEvent::TaskSpeculated {
                    job: id,
                    task: TaskId(primary.task as u32),
                    container,
                    node: node.id(),
                    at: now,
                    duration,
                });
            }
            running.push(RunningTask {
                end: now + duration,
                job: job_idx,
                task: primary.task,
                container,
                duration,
                fails,
                speculative: true,
            });
            if let Some(v) = views.iter_mut().find(|v| v.id == id) {
                v.running_tasks += 1;
            }
            refresh_oldest(&mut views, &running, job_idx);
            result.speculative_attempts += 1;
        }

        // 4. Advance to the next event.
        if sim.jobs.iter().all(|j| j.finish.is_some()) {
            break;
        }
        let next_completion = next_end(&running);
        let next_arrival = arrivals.last().map(|&i| sim.jobs[i].spec.arrival());
        let next_capacity = cap_events.get(cap_idx).map(|e| e.at);
        let next = [next_completion, next_arrival, next_capacity]
            .into_iter()
            .flatten()
            .min();
        let Some(next) = next else {
            return Err(SimError::SchedulerStalled { at: now });
        };
        debug_assert!(next > now, "time must advance");
        if next > sim.config.max_slots() {
            let unfinished = sim.jobs.iter().filter(|j| j.finish.is_none()).count();
            return Err(SimError::HorizonExceeded {
                max_slots: sim.config.max_slots(),
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

/// Handles a failed attempt: the task is re-queued and the wasted
/// runtime reported.
fn fail_task(
    sim: &mut Sim,
    views: &mut [JobView],
    rt: RunningTask,
    now: Slot,
    sibling_running: bool,
    result: &mut SimResult,
    trace: &mut Option<Trace>,
) -> TaskSample {
    let job = &mut sim.jobs[rt.job];
    let was_map = job.spec.tasks()[rt.task].phase() == Phase::Map;
    // With a duplicate attempt still in flight, the failure is absorbed:
    // the task stays running elsewhere and is not re-queued.
    if !sibling_running {
        if was_map {
            job.pending_maps.push(rt.task);
        } else {
            job.pending_reduces.push(rt.task);
        }
    }
    #[expect(clippy::expect_used, reason = "view index is maintained for every active job")]
    let vi = views
        .iter()
        .position(|v| v.id == JobId(rt.job as u32))
        .expect("failing task of an active job");
    let v = &mut views[vi];
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
    result.failed_attempts += 1;
    job.wasted_slots += rt.duration;
    if let Some(trace) = trace {
        trace.push(TraceEvent::TaskFailed {
            job: JobId(rt.job as u32),
            task: TaskId(rt.task as u32),
            at: now,
            runtime: rt.duration,
        });
    }
    TaskSample {
        job: JobId(rt.job as u32),
        task: TaskId(rt.task as u32),
        runtime: rt.duration,
        finished_at: now,
    }
}

/// Starts the next runnable task of the job behind `views[vi]`.
#[allow(clippy::too_many_arguments)] // engine plumbing, not public API
fn start_task(
    sim: &mut Sim,
    views: &mut [JobView],
    vi: usize,
    container: u32,
    now: Slot,
    running: &mut Vec<RunningTask>,
    rng: &mut SmallRng,
    trace: &mut Option<Trace>,
    result: &mut SimResult,
) {
    let job_idx = views[vi].id.0 as usize;
    let node = sim.config.cluster().node_of_container(container);
    let node_id = node.id();
    let speed = node.speed_factor();
    let job = &mut sim.jobs[job_idx];
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
    let base = task.base_runtime();
    let locality = match task.preferred_node() {
        Some(pref) if pref != node_id => {
            result.remote_starts += 1;
            sim.config.remote_penalty()
        }
        Some(_) => {
            result.local_starts += 1;
            1.0
        }
        None => 1.0,
    };
    let factor = sim.config.interference().draw(rng);
    let fails = sim.config.failures().draw(rng);
    let duration = (base * speed * locality * factor).ceil().max(1.0) as Slot;
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
    running.push(RunningTask {
        end: now + duration,
        job: job_idx,
        task: task_idx,
        container,
        duration,
        fails,
        speculative: false,
    });
    let v = &mut views[vi];
    v.pending_tasks -= 1;
    v.runnable_tasks -= 1;
    v.running_tasks += 1;
    refresh_oldest(views, running, job_idx);
}

/// Records a task completion; returns the sample reported to the
/// scheduler. Removes the job's view once the job is fully complete.
fn complete_task(
    sim: &mut Sim,
    views: &mut Vec<JobView>,
    rt: RunningTask,
    now: Slot,
    result: &mut SimResult,
    trace: &mut Option<Trace>,
) -> TaskSample {
    let job = &mut sim.jobs[rt.job];
    job.completed += 1;
    job.useful_slots += rt.duration;
    let was_map = job.spec.tasks()[rt.task].phase() == Phase::Map;
    if was_map {
        job.maps_remaining -= 1;
    }
    #[expect(clippy::expect_used, reason = "view index is maintained for every active job")]
    let vi = views
        .iter()
        .position(|v| v.id == JobId(rt.job as u32))
        .expect("completing task of an active job");
    let v = &mut views[vi];
    v.running_tasks -= 1;
    v.completed_tasks += 1;
    if was_map && job.maps_remaining == 0 {
        // Map barrier cleared: reduces become runnable.
        v.runnable_tasks += job.pending_reduces.len();
    }
    v.samples.push(rt.duration);
    if let Some(trace) = trace {
        trace.push(TraceEvent::TaskFinished {
            job: JobId(rt.job as u32),
            task: TaskId(rt.task as u32),
            at: now,
            runtime: rt.duration,
        });
    }
    let sample = TaskSample {
        job: JobId(rt.job as u32),
        task: TaskId(rt.task as u32),
        runtime: rt.duration,
        finished_at: now,
    };
    if job.completed == job.spec.tasks().len() {
        job.finish = Some(now);
        let runtime_slots = now - job.spec.arrival();
        result.outcomes.push(JobOutcome {
            id: JobId(rt.job as u32),
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
            trace.push(TraceEvent::JobCompleted { job: JobId(rt.job as u32), at: now });
        }
        views.remove(vi);
    }
    sample
}
