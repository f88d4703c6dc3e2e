//! The scheduler-visible state of the cluster.
//!
//! Schedulers observe exactly what a YARN resource manager would expose:
//! job metadata (utility, priority, arrival), task counts per lifecycle
//! stage, and runtime samples of **completed** tasks. The true runtimes of
//! pending and running tasks are hidden — this information asymmetry is
//! what makes completion-time-aware scheduling in a shared cloud hard, and
//! it is preserved faithfully by the simulator.

use crate::{JobId, Slot, TaskId};
use rush_utility::{Sensitivity, TimeUtility};

/// Scheduler-visible state of one active (arrived, incomplete) job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobView {
    /// Job identifier.
    pub id: JobId,
    /// Human-readable label (template name).
    pub label: String,
    /// Arrival slot.
    pub arrival: Slot,
    /// Client utility of the job's completion time (measured from arrival).
    pub utility: TimeUtility,
    /// Client priority weight.
    pub priority: u32,
    /// Completion-time sensitivity class.
    pub sensitivity: Sensitivity,
    /// Declared time budget in slots, if any.
    pub budget: Option<Slot>,
    /// Total number of tasks in the job.
    pub total_tasks: usize,
    /// Tasks not yet started (either phase).
    pub pending_tasks: usize,
    /// Tasks not yet started whose phase is eligible to run *now*
    /// (maps always; reduces only after the map barrier clears).
    pub runnable_tasks: usize,
    /// Tasks currently occupying containers.
    pub running_tasks: usize,
    /// Tasks finished.
    pub completed_tasks: usize,
    /// Failed task attempts so far (each failed attempt was re-queued).
    pub failed_attempts: usize,
    /// Start slot of the job's longest-running attempt, if any — the
    /// signal straggler-detection (speculative execution) heuristics need.
    pub oldest_running_start: Option<Slot>,
    /// Observed runtimes (slots) of completed tasks, in completion order —
    /// the telemetry stream feeding distribution estimators.
    pub samples: Vec<Slot>,
}

impl JobView {
    /// Tasks not yet finished (pending + running) — the remaining workload
    /// that a distribution estimator must provision for.
    pub fn remaining_tasks(&self) -> usize {
        self.total_tasks - self.completed_tasks
    }

    /// Elapsed slots since the job arrived.
    pub fn age(&self, now: Slot) -> Slot {
        now.saturating_sub(self.arrival)
    }

    /// Mean of the observed task-runtime samples, if any exist.
    pub fn mean_sample(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<Slot>() as f64 / self.samples.len() as f64)
        }
    }
}

/// A completed task's observed runtime, reported to the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSample {
    /// Owning job.
    pub job: JobId,
    /// The task.
    pub task: TaskId,
    /// Observed wall-clock runtime in slots.
    pub runtime: Slot,
    /// Slot at which the task finished.
    pub finished_at: Slot,
}

/// A read-only snapshot of the cluster handed to schedulers on every
/// decision point.
#[derive(Debug)]
pub struct ClusterView<'a> {
    /// Current slot.
    pub now: Slot,
    /// Container capacity `C` currently in service (total capacity minus
    /// containers revoked by capacity events).
    pub capacity: u32,
    /// Containers currently free.
    pub free_containers: u32,
    /// All active jobs, in arrival order.
    pub jobs: &'a [JobView],
}

impl<'a> ClusterView<'a> {
    /// Looks up a job view by id.
    pub fn job(&self, id: JobId) -> Option<&JobView> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Jobs with at least one runnable task, in arrival order — the
    /// candidate set every assignment policy filters down to.
    pub fn runnable_jobs(&self) -> impl Iterator<Item = &JobView> {
        self.jobs.iter().filter(|j| j.runnable_tasks > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_utility::TimeUtility;

    fn view(id: u32, runnable: usize) -> JobView {
        JobView {
            id: JobId(id),
            label: format!("j{id}"),
            arrival: 10,
            utility: TimeUtility::constant(1.0).unwrap(),
            priority: 1,
            sensitivity: Sensitivity::Sensitive,
            budget: None,
            total_tasks: 10,
            pending_tasks: runnable,
            runnable_tasks: runnable,
            running_tasks: 2,
            completed_tasks: 3,
            failed_attempts: 0,
            oldest_running_start: Some(8),
            samples: vec![5, 7],
        }
    }

    #[test]
    fn job_view_derived_quantities() {
        let j = view(1, 5);
        assert_eq!(j.remaining_tasks(), 7);
        assert_eq!(j.age(25), 15);
        assert_eq!(j.age(5), 0); // saturates before arrival
        assert_eq!(j.mean_sample(), Some(6.0));
    }

    #[test]
    fn mean_sample_none_when_empty() {
        let mut j = view(1, 5);
        j.samples.clear();
        assert_eq!(j.mean_sample(), None);
    }

    #[test]
    fn cluster_view_lookup() {
        let jobs = vec![view(1, 4), view(2, 6)];
        let cv = ClusterView { now: 30, capacity: 16, free_containers: 5, jobs: &jobs };
        assert_eq!(cv.job(JobId(2)).unwrap().id, JobId(2));
        assert!(cv.job(JobId(9)).is_none());
    }

    #[test]
    fn runnable_jobs_filters_and_preserves_order() {
        let jobs = vec![view(1, 0), view(2, 6), view(3, 0), view(4, 2)];
        let cv = ClusterView { now: 30, capacity: 16, free_containers: 5, jobs: &jobs };
        let ids: Vec<JobId> = cv.runnable_jobs().map(|j| j.id).collect();
        assert_eq!(ids, vec![JobId(2), JobId(4)]);
    }
}
