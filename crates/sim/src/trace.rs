//! Execution traces: a structured record of everything that happened in a
//! run, for debugging, visualization and replay-style analysis.
//!
//! Tracing is off by default (it allocates per event); enable it with
//! [`SimConfig::with_trace`](crate::engine::SimConfig::with_trace).

use crate::{JobId, NodeId, Slot, TaskId};

/// One simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A job was submitted.
    JobArrived {
        /// The job.
        job: JobId,
        /// Arrival slot.
        at: Slot,
    },
    /// A task attempt started on a container.
    TaskStarted {
        /// Owning job.
        job: JobId,
        /// The task.
        task: TaskId,
        /// Container index.
        container: u32,
        /// Hosting node.
        node: NodeId,
        /// Start slot.
        at: Slot,
        /// Attempt duration in slots (decided at start; hidden from
        /// schedulers).
        duration: Slot,
    },
    /// A task attempt finished successfully.
    TaskFinished {
        /// Owning job.
        job: JobId,
        /// The task.
        task: TaskId,
        /// Completion slot.
        at: Slot,
        /// Observed runtime.
        runtime: Slot,
    },
    /// A task attempt failed; the task will be re-queued.
    TaskFailed {
        /// Owning job.
        job: JobId,
        /// The task.
        task: TaskId,
        /// Failure slot.
        at: Slot,
        /// Wasted attempt runtime.
        runtime: Slot,
    },
    /// A speculative duplicate of a running task started.
    TaskSpeculated {
        /// Owning job.
        job: JobId,
        /// The task being duplicated.
        task: TaskId,
        /// Container index of the duplicate.
        container: u32,
        /// Hosting node.
        node: NodeId,
        /// Start slot.
        at: Slot,
        /// Attempt duration (hidden from schedulers).
        duration: Slot,
    },
    /// A duplicate attempt was killed because its sibling finished first.
    TaskKilled {
        /// Owning job.
        job: JobId,
        /// The task.
        task: TaskId,
        /// Kill slot.
        at: Slot,
    },
    /// A job's last task finished.
    JobCompleted {
        /// The job.
        job: JobId,
        /// Completion slot.
        at: Slot,
    },
}

impl TraceEvent {
    /// The slot at which the event occurred.
    pub fn at(&self) -> Slot {
        match *self {
            TraceEvent::JobArrived { at, .. }
            | TraceEvent::TaskStarted { at, .. }
            | TraceEvent::TaskFinished { at, .. }
            | TraceEvent::TaskFailed { at, .. }
            | TraceEvent::TaskSpeculated { at, .. }
            | TraceEvent::TaskKilled { at, .. }
            | TraceEvent::JobCompleted { at, .. } => at,
        }
    }

    /// The job the event belongs to.
    pub fn job(&self) -> JobId {
        match *self {
            TraceEvent::JobArrived { job, .. }
            | TraceEvent::TaskStarted { job, .. }
            | TraceEvent::TaskFinished { job, .. }
            | TraceEvent::TaskFailed { job, .. }
            | TraceEvent::TaskSpeculated { job, .. }
            | TraceEvent::TaskKilled { job, .. }
            | TraceEvent::JobCompleted { job, .. } => job,
        }
    }
}

/// An ordered event log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Appends one event. Events must be pushed in non-decreasing slot
    /// order (the engine guarantees this).
    pub fn push(&mut self, event: TraceEvent) {
        debug_assert!(
            self.events.last().is_none_or(|last| last.at() <= event.at()),
            "trace events must be time-ordered"
        );
        self.events.push(event);
    }

    /// All events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events belonging to one job.
    pub fn for_job(&self, job: JobId) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.job() == job)
    }

    /// Renders the trace as CSV (`slot,kind,job,task,container,runtime`),
    /// suitable for external Gantt plotting.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("slot,kind,job,task,container,runtime\n");
        for e in &self.events {
            let line = match *e {
                TraceEvent::JobArrived { job, at } => format!("{at},arrive,{},,,\n", job.0),
                TraceEvent::TaskStarted { job, task, container, at, duration, .. } => {
                    format!("{at},start,{},{},{container},{duration}\n", job.0, task.0)
                }
                TraceEvent::TaskFinished { job, task, at, runtime } => {
                    format!("{at},finish,{},{},,{runtime}\n", job.0, task.0)
                }
                TraceEvent::TaskFailed { job, task, at, runtime } => {
                    format!("{at},fail,{},{},,{runtime}\n", job.0, task.0)
                }
                TraceEvent::TaskSpeculated { job, task, container, at, duration, .. } => {
                    format!("{at},speculate,{},{},{container},{duration}\n", job.0, task.0)
                }
                TraceEvent::TaskKilled { job, task, at } => {
                    format!("{at},kill,{},{},,\n", job.0, task.0)
                }
                TraceEvent::JobCompleted { job, at } => format!("{at},complete,{},,,\n", job.0),
            };
            out.push_str(&line);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut t = Trace::new();
        t.push(TraceEvent::JobArrived { job: JobId(0), at: 0 });
        t.push(TraceEvent::TaskStarted {
            job: JobId(0),
            task: TaskId(0),
            container: 2,
            node: NodeId(0),
            at: 0,
            duration: 10,
        });
        t.push(TraceEvent::TaskFailed { job: JobId(0), task: TaskId(0), at: 10, runtime: 10 });
        t.push(TraceEvent::TaskFinished { job: JobId(0), task: TaskId(0), at: 25, runtime: 12 });
        t.push(TraceEvent::JobCompleted { job: JobId(0), at: 25 });
        t
    }

    #[test]
    fn push_and_query() {
        let t = sample_trace();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.for_job(JobId(0)).count(), 5);
        assert_eq!(t.for_job(JobId(1)).count(), 0);
        assert_eq!(t.events()[0].at(), 0);
        assert_eq!(t.events()[4].at(), 25);
    }

    #[test]
    fn csv_shape() {
        let csv = sample_trace().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 6); // header + 5 events
        assert!(lines[0].starts_with("slot,kind"));
        assert!(lines[1].contains("arrive"));
        assert!(lines[2].contains("start"));
        assert!(lines[3].contains("fail"));
        assert!(lines[5].contains("complete"));
    }

    #[test]
    fn event_accessors() {
        let e = TraceEvent::TaskFinished { job: JobId(3), task: TaskId(1), at: 7, runtime: 5 };
        assert_eq!(e.at(), 7);
        assert_eq!(e.job(), JobId(3));
    }
}
