//! Job and task specifications.
//!
//! A [`JobSpec`] is what a client submits through the paper's
//! job-configuration interface: a bag of map/reduce tasks, an arrival time,
//! a completion-time utility, a priority and a sensitivity class. Task
//! *base* runtimes are part of the spec (drawn by the workload generator
//! from the template's runtime distribution) but are **never** revealed to
//! schedulers — they only see completed-task samples.

use crate::{SimError, Slot};
use rush_utility::{Sensitivity, TimeUtility};

/// The MapReduce phase a task belongs to. Reduce tasks only become runnable
/// once every map task of the job has finished (a barrier), matching
/// Hadoop's shuffle boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// First-phase task; runnable on arrival.
    Map,
    /// Second-phase task; runnable after all maps finish.
    Reduce,
}

/// Specification of one task: its hidden base runtime (slots, before node
/// speed and interference scaling), its phase, and optionally the node its
/// input data lives on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    base_runtime: f64,
    phase: Phase,
    preferred_node: Option<crate::NodeId>,
}

impl TaskSpec {
    /// Creates a task with the given base runtime (slots) and phase.
    ///
    /// The runtime is validated when the owning [`JobSpec`] is built.
    pub fn new(base_runtime: f64, phase: Phase) -> Self {
        TaskSpec { base_runtime, phase, preferred_node: None }
    }

    /// Declares the node holding this task's input split. Running the task
    /// elsewhere incurs the cluster's remote-execution penalty (see
    /// [`SimConfig::with_remote_penalty`](crate::engine::SimConfig::with_remote_penalty)).
    pub fn with_preference(mut self, node: crate::NodeId) -> Self {
        self.preferred_node = Some(node);
        self
    }

    /// The hidden base runtime in slots.
    pub fn base_runtime(&self) -> f64 {
        self.base_runtime
    }

    /// The task's phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The node holding this task's input, if locality matters for it.
    pub fn preferred_node(&self) -> Option<crate::NodeId> {
        self.preferred_node
    }
}

/// A complete job submission.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    label: String,
    arrival: Slot,
    tasks: Vec<TaskSpec>,
    utility: TimeUtility,
    priority: u32,
    sensitivity: Sensitivity,
    /// Time budget in slots, if the client declared one (used by EDF and by
    /// latency reporting; RUSH itself reads only the utility function).
    budget: Option<Slot>,
}

impl JobSpec {
    /// Starts building a job with the given human-readable label.
    pub fn builder(label: impl Into<String>) -> JobSpecBuilder {
        JobSpecBuilder {
            label: label.into(),
            arrival: 0,
            tasks: Vec::new(),
            utility: None,
            priority: 1,
            sensitivity: Sensitivity::Sensitive,
            budget: None,
        }
    }

    /// Human-readable label (e.g. the workload template name).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Arrival slot.
    pub fn arrival(&self) -> Slot {
        self.arrival
    }

    /// The task specifications.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// The completion-time utility.
    pub fn utility(&self) -> &TimeUtility {
        &self.utility
    }

    /// Client priority weight `W`.
    pub fn priority(&self) -> u32 {
        self.priority
    }

    /// Completion-time sensitivity class.
    pub fn sensitivity(&self) -> Sensitivity {
        self.sensitivity
    }

    /// Declared time budget, if any.
    pub fn budget(&self) -> Option<Slot> {
        self.budget
    }

    /// Number of map tasks.
    pub fn map_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| t.phase() == Phase::Map).count()
    }

    /// Number of reduce tasks.
    pub fn reduce_tasks(&self) -> usize {
        self.tasks.iter().filter(|t| t.phase() == Phase::Reduce).count()
    }

    /// Sum of base runtimes (slots) — the job's hidden ideal total demand on
    /// a unit-speed, interference-free cluster.
    pub fn total_base_runtime(&self) -> f64 {
        self.tasks.iter().map(|t| t.base_runtime()).sum()
    }

    /// Indices of the tasks in `phase`, in declaration order.
    pub fn task_indices(&self, phase: Phase) -> impl DoubleEndedIterator<Item = usize> + '_ {
        self.tasks.iter().enumerate().filter(move |(_, t)| t.phase() == phase).map(|(i, _)| i)
    }
}

/// Builder for [`JobSpec`] (see [`JobSpec::builder`]).
#[derive(Debug, Clone)]
pub struct JobSpecBuilder {
    label: String,
    arrival: Slot,
    tasks: Vec<TaskSpec>,
    utility: Option<TimeUtility>,
    priority: u32,
    sensitivity: Sensitivity,
    budget: Option<Slot>,
}

impl JobSpecBuilder {
    /// Sets the arrival slot (default 0).
    pub fn arrival(mut self, arrival: Slot) -> Self {
        self.arrival = arrival;
        self
    }

    /// Adds tasks from an iterator.
    pub fn tasks(mut self, tasks: impl IntoIterator<Item = TaskSpec>) -> Self {
        self.tasks.extend(tasks);
        self
    }

    /// Adds one task.
    pub fn task(mut self, task: TaskSpec) -> Self {
        self.tasks.push(task);
        self
    }

    /// Sets the completion-time utility (required).
    pub fn utility(mut self, utility: TimeUtility) -> Self {
        self.utility = Some(utility);
        self
    }

    /// Sets the client priority `W` (default 1).
    pub fn priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the sensitivity class (default `Sensitive`).
    pub fn sensitivity(mut self, sensitivity: Sensitivity) -> Self {
        self.sensitivity = sensitivity;
        self
    }

    /// Declares a time budget in slots.
    pub fn budget(mut self, budget: Slot) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Validates and builds the [`JobSpec`].
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyJob`] if no tasks were added.
    /// * [`SimError::InvalidRuntime`] if any base runtime is non-positive or
    ///   non-finite.
    /// * [`SimError::InvalidConfig`] if no utility was set.
    pub fn build(self) -> Result<JobSpec, SimError> {
        if self.tasks.is_empty() {
            return Err(SimError::EmptyJob { label: self.label });
        }
        for t in &self.tasks {
            if !t.base_runtime.is_finite() || t.base_runtime <= 0.0 {
                return Err(SimError::InvalidRuntime { base_runtime: t.base_runtime });
            }
        }
        let utility =
            self.utility.ok_or(SimError::InvalidConfig { reason: "job utility not set" })?;
        Ok(JobSpec {
            label: self.label,
            arrival: self.arrival,
            tasks: self.tasks,
            utility,
            priority: self.priority,
            sensitivity: self.sensitivity,
            budget: self.budget,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn util() -> TimeUtility {
        TimeUtility::constant(1.0).unwrap()
    }

    #[test]
    fn builder_happy_path() {
        let job = JobSpec::builder("wc")
            .arrival(5)
            .tasks(vec![TaskSpec::new(10.0, Phase::Map), TaskSpec::new(20.0, Phase::Reduce)])
            .utility(util())
            .priority(3)
            .sensitivity(Sensitivity::Critical)
            .budget(100)
            .build()
            .unwrap();
        assert_eq!(job.label(), "wc");
        assert_eq!(job.arrival(), 5);
        assert_eq!(job.map_tasks(), 1);
        assert_eq!(job.reduce_tasks(), 1);
        assert_eq!(job.priority(), 3);
        assert_eq!(job.sensitivity(), Sensitivity::Critical);
        assert_eq!(job.budget(), Some(100));
        assert_eq!(job.total_base_runtime(), 30.0);
    }

    #[test]
    fn builder_rejects_empty_job() {
        let err = JobSpec::builder("empty").utility(util()).build().unwrap_err();
        assert!(matches!(err, SimError::EmptyJob { .. }));
    }

    #[test]
    fn builder_rejects_bad_runtime() {
        let err = JobSpec::builder("bad")
            .task(TaskSpec::new(0.0, Phase::Map))
            .utility(util())
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidRuntime { .. }));
        let err = JobSpec::builder("bad")
            .task(TaskSpec::new(f64::NAN, Phase::Map))
            .utility(util())
            .build()
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidRuntime { .. }));
    }

    #[test]
    fn builder_requires_utility() {
        let err = JobSpec::builder("nou").task(TaskSpec::new(1.0, Phase::Map)).build().unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig { .. }));
    }

    #[test]
    fn task_preference_is_optional() {
        let t = TaskSpec::new(5.0, Phase::Map);
        assert_eq!(t.preferred_node(), None);
        let t = t.with_preference(crate::NodeId(2));
        assert_eq!(t.preferred_node(), Some(crate::NodeId(2)));
    }

    #[test]
    fn defaults() {
        let job = JobSpec::builder("d")
            .task(TaskSpec::new(1.0, Phase::Map))
            .utility(util())
            .build()
            .unwrap();
        assert_eq!(job.arrival(), 0);
        assert_eq!(job.priority(), 1);
        assert_eq!(job.sensitivity(), Sensitivity::Sensitive);
        assert_eq!(job.budget(), None);
    }
}
