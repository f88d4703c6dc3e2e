//! Simulation results: per-job outcomes and run-level counters.

use crate::trace::Trace;
use crate::{JobId, Slot};
use rush_prob::stats::FiveNumber;
use rush_utility::Sensitivity;
use std::time::Duration;

/// What happened to one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Job identifier.
    pub id: JobId,
    /// Label (template name).
    pub label: String,
    /// Arrival slot.
    pub arrival: Slot,
    /// Slot at which the last task finished.
    pub finish: Slot,
    /// Job runtime: `finish − arrival` (the paper's "actual job runtime").
    pub runtime: Slot,
    /// Declared time budget, if any.
    pub budget: Option<Slot>,
    /// Utility achieved: `U(runtime)`.
    pub utility: f64,
    /// Completion-time sensitivity class.
    pub sensitivity: Sensitivity,
    /// Client priority weight.
    pub priority: u32,
    /// Number of tasks in the job.
    pub tasks: usize,
    /// Container·slots consumed by successful attempts.
    pub container_slots: u64,
    /// Container·slots wasted on failed or killed attempts.
    pub wasted_slots: u64,
}

impl JobOutcome {
    /// The paper's latency metric: `runtime − budget` (negative means the
    /// job beat its budget). `None` when the job declared no budget.
    pub fn latency(&self) -> Option<f64> {
        self.budget.map(|b| self.runtime as f64 - b as f64)
    }

    /// Whether the job finished within its budget (vacuously `false`
    /// without a budget).
    pub fn met_budget(&self) -> bool {
        matches!(self.latency(), Some(l) if l <= 0.0)
    }
}

/// Aggregate result of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// One outcome per job, in completion order.
    pub outcomes: Vec<JobOutcome>,
    /// Slot at which the last job finished.
    pub makespan: Slot,
    /// Number of container assignments performed.
    pub assignments: u64,
    /// Number of times the scheduler named a job with no runnable task.
    pub misassignments: u64,
    /// Number of `assign` calls issued to the scheduler.
    pub scheduler_invocations: u64,
    /// Total wall-clock time spent inside the scheduler (assign +
    /// notifications) — the quantity behind the paper's Fig. 5 runtime
    /// series.
    pub scheduler_time: Duration,
    /// Task attempts that failed and were re-queued.
    pub failed_attempts: u64,
    /// Speculative duplicate attempts launched.
    pub speculative_attempts: u64,
    /// Task starts placed on their preferred data node.
    pub local_starts: u64,
    /// Task starts with a data preference placed on a different node.
    pub remote_starts: u64,
    /// Duplicate attempts killed because their sibling finished first.
    pub killed_attempts: u64,
    /// Containers taken out of service by capacity events.
    pub revoked_containers: u64,
    /// Containers returned to service by capacity events.
    pub restocked_containers: u64,
    /// Running attempts killed because their container was revoked (each
    /// also counts as a failed attempt: the task is re-queued).
    pub revoked_attempts: u64,
    /// The event trace, when tracing was enabled in the config.
    pub trace: Option<Trace>,
}

/// Utility at or below this counts as zero in [`Summary`] (the paper's
/// Fig. 6 "zero-utility" jobs).
const ZERO_UTILITY_EPS: f64 = 1e-3;

/// The result row every comparison table prints for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Mean achieved utility over all jobs (0 for an empty run).
    pub mean_utility: f64,
    /// Fraction of jobs with utility ≤ 1e-3.
    pub zero_utility_fraction: f64,
    /// Boxplot of the time-aware jobs' latencies (`runtime − budget`);
    /// `None` when no time-aware job declared a budget.
    pub latency: Option<FiveNumber>,
    /// Time-aware jobs that finished within budget (latency ≤ 0).
    pub met: usize,
    /// Time-aware jobs that declared a budget.
    pub time_aware: usize,
}

impl Summary {
    /// `met/time_aware`, as the tables print it.
    pub fn met_of_n(&self) -> String {
        format!("{}/{}", self.met, self.time_aware)
    }
}

impl SimResult {
    /// Summarizes the run: utilities over all jobs, latencies over the
    /// time-aware (critical + sensitive) ones — the Fig. 4 population.
    pub fn summary(&self) -> Summary {
        let lat: Vec<f64> = self.time_aware_outcomes().filter_map(JobOutcome::latency).collect();
        let utils = self.utility_vector();
        Summary {
            mean_utility: utils.iter().sum::<f64>() / utils.len().max(1) as f64,
            zero_utility_fraction: self.zero_utility_fraction(ZERO_UTILITY_EPS),
            latency: (!lat.is_empty()).then(|| FiveNumber::from_samples(&lat)),
            met: lat.iter().filter(|&&l| l <= 0.0).count(),
            time_aware: lat.len(),
        }
    }

    /// Sorts `outcomes` into the order the engine promises — ascending
    /// `(finish, id)` — and checks the invariant that the order is *strict*
    /// (ids are unique, so ties on `finish` break deterministically by id).
    ///
    /// Both simulation engines call this exactly once before returning;
    /// every consumer of `outcomes` may rely on the ordering.
    pub fn sort_outcomes(&mut self) {
        self.outcomes.sort_by_key(|o| (o.finish, o.id));
        debug_assert!(
            // bound: windows(2) yields exactly two elements
            self.outcomes.windows(2).all(|w| (w[0].finish, w[0].id) < (w[1].finish, w[1].id)),
            "outcomes must be strictly ordered by (finish, id)"
        );
    }

    /// Outcomes restricted to time-aware (critical + sensitive) jobs — the
    /// population plotted in the paper's Fig. 4.
    pub fn time_aware_outcomes(&self) -> impl Iterator<Item = &JobOutcome> {
        self.outcomes.iter().filter(|o| o.sensitivity.is_time_aware())
    }

    /// The achieved utility vector, one entry per job (arbitrary order) —
    /// the object RUSH's lexicographic max-min criterion ranks.
    pub fn utility_vector(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.utility).collect()
    }

    /// Fraction of jobs with (near-)zero achieved utility, the headline of
    /// the paper's Fig. 6 discussion.
    pub fn zero_utility_fraction(&self, eps: f64) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let zeros = self.outcomes.iter().filter(|o| o.utility <= eps).count();
        zeros as f64 / self.outcomes.len() as f64
    }

    /// Fraction of preference-carrying task starts that ran data-local
    /// (1.0 when no task declared a preference).
    pub fn locality_rate(&self) -> f64 {
        let total = self.local_starts + self.remote_starts;
        if total == 0 {
            1.0
        } else {
            self.local_starts as f64 / total as f64
        }
    }

    /// Looks up one job's outcome.
    pub fn outcome(&self, id: JobId) -> Option<&JobOutcome> {
        self.outcomes.iter().find(|o| o.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u32, runtime: Slot, budget: Option<Slot>, utility: f64) -> JobOutcome {
        JobOutcome {
            id: JobId(id),
            label: "t".into(),
            arrival: 0,
            finish: runtime,
            runtime,
            budget,
            utility,
            sensitivity: if id.is_multiple_of(2) {
                Sensitivity::Sensitive
            } else {
                Sensitivity::Insensitive
            },
            priority: 1,
            tasks: 4,
            container_slots: 40,
            wasted_slots: 0,
        }
    }

    #[test]
    fn latency_and_budget() {
        let o = outcome(0, 120, Some(100), 1.0);
        assert_eq!(o.latency(), Some(20.0));
        assert!(!o.met_budget());
        let o = outcome(0, 80, Some(100), 1.0);
        assert_eq!(o.latency(), Some(-20.0));
        assert!(o.met_budget());
        let o = outcome(0, 80, None, 1.0);
        assert_eq!(o.latency(), None);
        assert!(!o.met_budget());
    }

    #[test]
    fn result_aggregates() {
        let r = SimResult {
            outcomes: vec![
                outcome(0, 10, None, 0.0),
                outcome(1, 20, None, 2.0),
                outcome(2, 30, None, 3.0),
            ],
            makespan: 30,
            ..Default::default()
        };
        assert_eq!(r.utility_vector(), vec![0.0, 2.0, 3.0]);
        assert!((r.zero_utility_fraction(1e-9) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.time_aware_outcomes().count(), 2); // ids 0 and 2
        assert_eq!(r.outcome(JobId(1)).unwrap().utility, 2.0);
        assert!(r.outcome(JobId(9)).is_none());
    }

    #[test]
    fn summary_is_the_table_row() {
        let r = SimResult {
            outcomes: vec![
                outcome(0, 80, Some(100), 0.0),
                outcome(1, 500, Some(100), 2.0), // insensitive: not in the latency set
                outcome(2, 130, Some(100), 4.0),
                outcome(4, 90, None, 2.0), // no budget: no latency
            ],
            ..Default::default()
        };
        let s = r.summary();
        assert_eq!((s.mean_utility, s.zero_utility_fraction), (2.0, 0.25));
        assert_eq!((s.met, s.time_aware, s.met_of_n().as_str()), (1, 2, "1/2"));
        assert_eq!(s.latency.map(|l| l.median), Some(5.0));
        assert_eq!(SimResult::default().summary().latency, None);
    }

    #[test]
    fn locality_rate_math() {
        let mut r = SimResult::default();
        assert_eq!(r.locality_rate(), 1.0);
        r.local_starts = 3;
        r.remote_starts = 1;
        assert!((r.locality_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn zero_utility_fraction_empty() {
        assert_eq!(SimResult::default().zero_utility_fraction(0.0), 0.0);
    }

    #[test]
    fn sort_outcomes_breaks_finish_ties_by_id() {
        // Jobs 3 and 1 tie on finish; 2 finishes earlier. Expected order:
        // (5, id 2), (9, id 1), (9, id 3).
        let mut r = SimResult {
            outcomes: vec![
                outcome(3, 9, None, 1.0),
                outcome(1, 9, None, 1.0),
                outcome(2, 5, None, 1.0),
            ],
            ..Default::default()
        };
        r.sort_outcomes();
        let order: Vec<(Slot, JobId)> = r.outcomes.iter().map(|o| (o.finish, o.id)).collect();
        assert_eq!(order, vec![(5, JobId(2)), (9, JobId(1)), (9, JobId(3))]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly ordered")]
    fn sort_outcomes_rejects_duplicate_ids() {
        let mut r = SimResult {
            outcomes: vec![outcome(1, 9, None, 1.0), outcome(1, 9, None, 1.0)],
            ..Default::default()
        };
        r.sort_outcomes();
    }
}
