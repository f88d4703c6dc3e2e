//! Plain-text workload persistence.
//!
//! Generated workloads (with their calibrated budgets) can be saved and
//! re-loaded so that an experiment is reproducible without re-running the
//! benchmark-calibration pass — and shareable across machines without any
//! serde dependency. The format is line-based:
//!
//! ```text
//! # rush workload v1
//! job WordCount arrival=130 priority=3 sensitivity=Sensitive budget=412 utility=sigmoid:412,3,0.024
//! task map 58.3
//! task reduce 41.0
//! ```
//!
//! The `utility=` value is [`rush_utility::utility_to_text`]'s form, the
//! one the `rushd` wire protocol speaks too.

use rush_sim::job::{JobSpec, Phase, TaskSpec};
use rush_sim::Slot;
use rush_utility::{utility_from_text, utility_to_text, Sensitivity, TimeUtility};
use std::error::Error;
use std::fmt;

/// The format header line.
const HEADER: &str = "# rush workload v1";

/// Errors from parsing a workload file.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PersistError {
    /// Missing or wrong header line.
    BadHeader,
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        reason: String,
    },
    /// A `task` line appeared before any `job` line.
    TaskBeforeJob {
        /// 1-based line number.
        line: usize,
    },
    /// A job failed validation when rebuilt.
    InvalidJob {
        /// The job's label.
        label: String,
        /// The underlying message.
        reason: String,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadHeader => write!(f, "missing '{HEADER}' header"),
            PersistError::BadLine { line, reason } => write!(f, "line {line}: {reason}"),
            PersistError::TaskBeforeJob { line } => {
                write!(f, "line {line}: task before any job")
            }
            PersistError::InvalidJob { label, reason } => {
                write!(f, "job {label} invalid: {reason}")
            }
        }
    }
}

impl Error for PersistError {}

/// Serializes a workload to the v1 text format.
pub fn to_text(jobs: &[JobSpec]) -> String {
    let mut out = String::from(HEADER);
    out.push('\n');
    for job in jobs {
        let budget = job.budget().map_or("-".to_owned(), |b| b.to_string());
        out.push_str(&format!(
            "job {} arrival={} priority={} sensitivity={:?} budget={} utility={}\n",
            job.label(),
            job.arrival(),
            job.priority(),
            job.sensitivity(),
            budget,
            utility_to_text(job.utility()),
        ));
        for t in job.tasks() {
            let phase = match t.phase() {
                Phase::Map => "map",
                Phase::Reduce => "reduce",
            };
            match t.preferred_node() {
                Some(node) => out.push_str(&format!(
                    "task {phase} {} node={}\n",
                    t.base_runtime(),
                    node.0
                )),
                None => out.push_str(&format!("task {phase} {}\n", t.base_runtime())),
            }
        }
    }
    out
}

/// Parses a workload from the v1 text format.
///
/// # Errors
///
/// [`PersistError`] describing the first offending line.
pub fn from_text(text: &str) -> Result<Vec<JobSpec>, PersistError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        _ => return Err(PersistError::BadHeader),
    }

    struct Pending {
        label: String,
        arrival: Slot,
        priority: u32,
        sensitivity: Sensitivity,
        budget: Option<Slot>,
        utility: TimeUtility,
        tasks: Vec<TaskSpec>,
    }
    let mut pending: Option<Pending> = None;
    let mut jobs = Vec::new();
    let finish = |p: Pending| -> Result<JobSpec, PersistError> {
        let mut b = JobSpec::builder(p.label.clone())
            .arrival(p.arrival)
            .priority(p.priority)
            .sensitivity(p.sensitivity)
            .utility(p.utility)
            .tasks(p.tasks);
        if let Some(budget) = p.budget {
            b = b.budget(budget);
        }
        b.build().map_err(|e| PersistError::InvalidJob { label: p.label, reason: e.to_string() })
    };

    for (idx, raw) in lines {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |reason: &str| PersistError::BadLine { line: line_no, reason: reason.into() };
        if let Some(rest) = line.strip_prefix("job ") {
            if let Some(p) = pending.take() {
                jobs.push(finish(p)?);
            }
            let mut parts = rest.split_whitespace();
            let label = parts.next().ok_or_else(|| bad("job needs a label"))?.to_owned();
            let mut arrival = 0;
            let mut priority = 1;
            let mut sensitivity = Sensitivity::Sensitive;
            let mut budget = None;
            let mut utility = None;
            for kv in parts {
                let (k, v) = kv.split_once('=').ok_or_else(|| bad("expected key=value"))?;
                match k {
                    "arrival" => {
                        arrival = v.parse().map_err(|_| bad("bad arrival"))?;
                    }
                    "priority" => {
                        priority = v.parse().map_err(|_| bad("bad priority"))?;
                    }
                    "sensitivity" => {
                        sensitivity = match v {
                            "Critical" => Sensitivity::Critical,
                            "Sensitive" => Sensitivity::Sensitive,
                            "Insensitive" => Sensitivity::Insensitive,
                            _ => return Err(bad("unknown sensitivity")),
                        };
                    }
                    "budget" => {
                        budget = if v == "-" {
                            None
                        } else {
                            Some(v.parse().map_err(|_| bad("bad budget"))?)
                        };
                    }
                    "utility" => {
                        utility = Some(
                            utility_from_text(v)
                                .map_err(|e| bad(&format!("bad utility: {e}")))?,
                        );
                    }
                    other => return Err(bad(&format!("unknown key {other}"))),
                }
            }
            let utility = utility.ok_or_else(|| bad("job needs utility="))?;
            pending =
                Some(Pending { label, arrival, priority, sensitivity, budget, utility, tasks: Vec::new() });
        } else if let Some(rest) = line.strip_prefix("task ") {
            let p = pending.as_mut().ok_or(PersistError::TaskBeforeJob { line: line_no })?;
            let mut parts = rest.split_whitespace();
            let phase = match parts.next() {
                Some("map") => Phase::Map,
                Some("reduce") => Phase::Reduce,
                _ => return Err(bad("task phase must be map|reduce")),
            };
            let runtime: f64 = parts
                .next()
                .ok_or_else(|| bad("task needs a runtime"))?
                .parse()
                .map_err(|_| bad("bad task runtime"))?;
            let mut spec = TaskSpec::new(runtime, phase);
            if let Some(extra) = parts.next() {
                let node = extra
                    .strip_prefix("node=")
                    .ok_or_else(|| bad("unexpected task token"))?
                    .parse::<u32>()
                    .map_err(|_| bad("bad node index"))?;
                spec = spec.with_preference(rush_sim::NodeId(node));
            }
            p.tasks.push(spec);
        } else {
            return Err(bad("expected 'job ...' or 'task ...'"));
        }
    }
    if let Some(p) = pending.take() {
        jobs.push(finish(p)?);
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::generator::{generate, WorkloadConfig};
    use rush_sim::cluster::ClusterSpec;

    fn sample_jobs() -> Vec<JobSpec> {
        let exp = Experiment::new(ClusterSpec::homogeneous(2, 4).unwrap());
        let cfg = WorkloadConfig { jobs: 6, max_map_tasks: 8, seed: 5, ..Default::default() };
        generate(&cfg, &exp).unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let jobs = sample_jobs();
        let text = to_text(&jobs);
        let back = from_text(&text).unwrap();
        assert_eq!(jobs.len(), back.len());
        for (a, b) in jobs.iter().zip(back.iter()) {
            assert_eq!(a.label(), b.label());
            assert_eq!(a.arrival(), b.arrival());
            assert_eq!(a.priority(), b.priority());
            assert_eq!(a.sensitivity(), b.sensitivity());
            assert_eq!(a.budget(), b.budget());
            assert_eq!(a.utility(), b.utility());
            assert_eq!(a.tasks().len(), b.tasks().len());
            for (ta, tb) in a.tasks().iter().zip(b.tasks().iter()) {
                assert_eq!(ta.phase(), tb.phase());
                assert!((ta.base_runtime() - tb.base_runtime()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn node_preferences_round_trip() {
        let job = JobSpec::builder("loc")
            .task(TaskSpec::new(5.0, Phase::Map).with_preference(rush_sim::NodeId(3)))
            .task(TaskSpec::new(7.0, Phase::Reduce))
            .utility(TimeUtility::constant(1.0).unwrap())
            .build()
            .unwrap();
        let text = to_text(std::slice::from_ref(&job));
        assert!(text.contains("node=3"));
        let back = from_text(&text).unwrap();
        assert_eq!(back[0].tasks()[0].preferred_node(), Some(rush_sim::NodeId(3)));
        assert_eq!(back[0].tasks()[1].preferred_node(), None);
        // Malformed extra token is rejected.
        let bad = format!("{HEADER}\njob x utility=constant:1\ntask map 5 rack=3\n");
        assert!(matches!(from_text(&bad), Err(PersistError::BadLine { .. })));
    }

    #[test]
    fn header_required() {
        assert_eq!(from_text("job x utility=constant:1\n"), Err(PersistError::BadHeader));
        assert_eq!(from_text(""), Err(PersistError::BadHeader));
    }

    #[test]
    fn task_before_job_rejected() {
        let text = format!("{HEADER}\ntask map 10\n");
        assert!(matches!(from_text(&text), Err(PersistError::TaskBeforeJob { line: 2 })));
    }

    #[test]
    fn bad_lines_are_located() {
        let text = format!("{HEADER}\njob x utility=constant:1\ntask map ten\n");
        match from_text(&text) {
            Err(PersistError::BadLine { line: 3, .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
        let text = format!("{HEADER}\nnonsense\n");
        assert!(matches!(from_text(&text), Err(PersistError::BadLine { line: 2, .. })));
        let text = format!("{HEADER}\njob x utility=warp:1\ntask map 5\n");
        assert!(matches!(from_text(&text), Err(PersistError::BadLine { line: 2, .. })));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = format!(
            "{HEADER}\n\n# a comment\njob x utility=constant:2\ntask map 5\n\ntask reduce 3\n"
        );
        let jobs = from_text(&text).unwrap();
        assert_eq!(jobs.len(), 1);
        assert_eq!(jobs[0].tasks().len(), 2);
        assert_eq!(jobs[0].reduce_tasks(), 1);
    }

    #[test]
    fn empty_job_reported_with_label() {
        let text = format!("{HEADER}\njob lonely utility=constant:1\n");
        match from_text(&text) {
            Err(PersistError::InvalidJob { label, .. }) => assert_eq!(label, "lonely"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_display() {
        for e in [
            PersistError::BadHeader,
            PersistError::BadLine { line: 3, reason: "x".into() },
            PersistError::TaskBeforeJob { line: 2 },
            PersistError::InvalidJob { label: "l".into(), reason: "r".into() },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
