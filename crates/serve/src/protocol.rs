//! The versioned, newline-delimited wire protocol of `rushd`.
//!
//! One frame = one JSON object = one line. Every request carries
//! `"v": 1` and an `"op"` discriminator; every response carries `"ok"`
//! plus either a `"kind"` discriminator (success) or a structured error
//! (`"code"`, `"message"`). Unknown versions, unknown ops and missing or
//! mistyped fields are *structured* errors ([`WireError`]), never panics —
//! the daemon keeps serving after any malformed frame.
//!
//! Utilities travel in the compact text form (`sigmoid:700,5,0.02`, see
//! [`rush_utility::utility_from_text`]) so the wire format, the workload
//! files and the snapshot format all share one grammar.
//!
//! A submission is the planner kernel's [`JobSubmission`], re-exported
//! here: the record the daemon keeps for a resident job
//! ([`rush_planner::JobRecord`]) holds it as received.
//!
//! This file holds the message *types*; their field names, order, tags and
//! validation are stated once, for every encoding, in `wire.rs`. The
//! full grammar is documented in `DESIGN.md` §10.

use crate::{json, wire};
pub use rush_planner::JobSubmission;
use std::fmt;

/// Wire protocol version carried in every request's `"v"` field.
pub const PROTOCOL_VERSION: u64 = 1;

/// Machine-readable error class carried in error responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not valid JSON.
    BadJson,
    /// A binary frame was structurally malformed (truncated payload,
    /// unknown tag, bad UTF-8) — the binary analog of [`ErrorCode::BadJson`].
    BadFrame,
    /// The `"v"` field was missing or not a supported version.
    BadVersion,
    /// The `"op"` (or response `"kind"`) was missing or unrecognized.
    BadOp,
    /// A field was missing, mistyped or out of range.
    BadField,
    /// The referenced job id is not resident.
    UnknownJob,
    /// The referenced job is parked by admission control (deferred), so it
    /// has no plan row yet.
    Deferred,
    /// The daemon is shutting down and no longer accepts work.
    Shutdown,
    /// The request was valid but the planner failed internally.
    Internal,
}

impl ErrorCode {
    /// The wire form of the code.
    pub fn as_str(self) -> &'static str {
        wire::name_of(self)
    }
}

/// A structured protocol-level failure: decoding a frame, or a request the
/// server answered with an error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl WireError {
    pub(crate) fn new(code: ErrorCode, message: impl Into<String>) -> WireError {
        WireError { code, message: message.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for WireError {}

/// The admission controller's verdict on a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The job passed the Theorem-2 prefix-capacity test and is planned.
    Admit,
    /// The cluster is overcommitted but the job is completion-time
    /// insensitive: it is parked and re-probed every epoch.
    Defer,
    /// The cluster is overcommitted and the job's deadline cannot be met;
    /// admitting it would only dilute every resident job's guarantee.
    Reject,
}

/// Why a submission was deferred (parked) rather than admitted outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeferReason {
    /// The classic Theorem-2 verdict: the cluster is overcommitted and the
    /// job is completion-time insensitive, so it waits for room.
    Overcommit,
    /// Revocation-aware price deferral: the cluster is temporarily below
    /// its provisioned capacity (spot revocation / node failure), the
    /// [`rush_core::ClusterModel`] predicts the lost containers return
    /// within the job's deadline slack, and the job fits at the
    /// provisioned capacity — so it waits for the restock instead of
    /// being rejected.
    AwaitingRestock,
}

/// A client request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job for admission + planning.
    Submit(JobSubmission),
    /// Report one completed-task runtime sample for a resident job.
    ReportSample {
        /// Job id returned by `submit`.
        job: u64,
        /// Observed task runtime in slots.
        runtime: u64,
    },
    /// Fetch the current plan table (all jobs, or one).
    QueryPlan {
        /// Restrict to one job id.
        job: Option<u64>,
    },
    /// Ask for the robust completion bound `T_i + R_i` (Theorem 3).
    Predict {
        /// Job id.
        job: u64,
    },
    /// Remove a job from the table (and its parked twin, if deferred).
    Cancel {
        /// Job id.
        job: u64,
    },
    /// Fetch daemon counters.
    Stats,
    /// Inject a capacity event: the cluster's effective container count
    /// changed (spot revocation, restock, node failure, operator resize).
    /// Cluster-wide: a multi-shard daemon re-splits the new total across
    /// its shards exactly like the startup split.
    SetCapacity {
        /// New cluster-wide effective capacity in containers (≥ 1).
        capacity: u32,
    },
    /// Gracefully stop the daemon.
    Shutdown {
        /// Write a state snapshot before exiting (requires the daemon to
        /// have been started with a snapshot path).
        snapshot: bool,
    },
}

/// One row of the plan table, mirroring [`rush_core::plan::PlanEntry`] plus
/// the job's identity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanRow {
    /// Job id.
    pub job: u64,
    /// Job label.
    pub label: String,
    /// Robust remaining demand `η` (container·slots).
    pub eta: u64,
    /// Mean task runtime `R` (slots).
    pub task_len: u64,
    /// Target completion time (slots from now).
    pub target: f64,
    /// Achieved max-min utility level.
    pub level: f64,
    /// Containers the plan allocates next slot.
    pub desired_now: u32,
    /// Planned completion (slots from now).
    pub planned_completion: u64,
    /// Whether the job cannot finish with nonzero utility.
    pub impossible: bool,
    /// Remaining (unsampled) tasks.
    pub remaining_tasks: u64,
}

/// Daemon counters returned by `stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsReport {
    /// Jobs currently planned.
    pub active_jobs: u64,
    /// Jobs parked by admission control.
    pub deferred_jobs: u64,
    /// Planning epochs closed so far.
    pub epochs: u64,
    /// Submissions admitted (including unparked ones).
    pub admitted: u64,
    /// Submissions deferred at least once.
    pub deferred: u64,
    /// Submissions rejected.
    pub rejected: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs whose every task reported a sample.
    pub completed: u64,
    /// Task runtime samples ingested.
    pub samples: u64,
    /// Plan-cache hits across all epochs.
    pub cache_hits: u64,
    /// Plan-cache misses across all epochs.
    pub cache_misses: u64,
    /// Current logical slot.
    pub now_slot: u64,
}

/// A server response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Verdict on a `submit`.
    Submitted {
        /// Job id (present unless rejected).
        job: Option<u64>,
        /// Admission decision.
        decision: Decision,
        /// Epoch that planned (or parked) the job.
        epoch: u64,
        /// Microseconds the submission waited for its epoch to close.
        waited_us: u64,
        /// Why the job was parked (present exactly when `decision` is
        /// [`Decision::Defer`]).
        defer_reason: Option<DeferReason>,
    },
    /// Generic success (report-sample, cancel).
    Ack,
    /// Plan table.
    PlanTable {
        /// Logical slot the table was computed at.
        now_slot: u64,
        /// Epoch counter at computation time.
        epoch: u64,
        /// One row per requested job.
        rows: Vec<PlanRow>,
    },
    /// Robust completion prediction for one job.
    Prediction {
        /// Job id.
        job: u64,
        /// Target completion `T_i` (slots from now).
        target: f64,
        /// Mean task runtime `R_i` (slots).
        task_len: u64,
        /// Theorem-3 robust bound `T_i + R_i` (slots from now).
        bound: f64,
        /// Planned completion under the continuity mapping (slots from now).
        planned_completion: u64,
        /// Whether the job cannot finish with nonzero utility.
        impossible: bool,
    },
    /// Counter dump.
    Stats(StatsReport),
    /// The capacity event was applied. From a multi-shard daemon this is
    /// the merged (summed) effective capacity across shards.
    CapacitySet {
        /// The effective capacity now in force.
        capacity: u32,
    },
    /// The daemon acknowledged `shutdown` and is exiting.
    ShuttingDown {
        /// Whether a snapshot was written.
        snapshot_written: bool,
    },
    /// Structured failure.
    Error(WireError),
}

impl Request {
    /// Encodes the request as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut out = Vec::with_capacity(128);
        wire::request_json_into(self, &mut out);
        json::into_text(out)
    }

    /// Decodes one request line.
    ///
    /// # Errors
    ///
    /// [`WireError`] with [`ErrorCode::BadJson`], [`ErrorCode::BadVersion`],
    /// [`ErrorCode::BadOp`] or [`ErrorCode::BadField`]; the connection
    /// stays usable after any of them.
    pub fn decode(line: &str) -> Result<Request, WireError> {
        wire::request_from_json(line)
    }
}

impl Response {
    /// Encodes the response as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        // A prediction or a one-row plan table fits without regrowing.
        let mut out = Vec::with_capacity(256);
        self.encode_into(&mut out);
        json::into_text(out)
    }

    /// Appends the response's JSON line (no trailing newline) to `out`;
    /// into a buffer with room, this allocates nothing.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        wire::response_json_into(self, out);
    }

    /// Decodes one response line (the client side of the codec).
    ///
    /// # Errors
    ///
    /// [`WireError`] when the line is not a well-formed response frame.
    pub fn decode(line: &str) -> Result<Response, WireError> {
        wire::response_from_json(line)
    }

    /// Shorthand for an error response.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error(WireError::new(code, message))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_utility::TimeUtility;

    fn sub() -> JobSubmission {
        JobSubmission {
            label: "terasort".into(),
            tasks: 40,
            runtime_hint: Some(55.5),
            utility: TimeUtility::sigmoid(700.0, 5.0, 0.02).expect("valid"),
            budget: Some(700),
            priority: 3,
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Submit(sub()),
            Request::Submit(JobSubmission {
                runtime_hint: None,
                budget: None,
                utility: TimeUtility::constant(2.0).expect("valid"),
                ..sub()
            }),
            Request::ReportSample { job: 7, runtime: 61 },
            Request::QueryPlan { job: None },
            Request::QueryPlan { job: Some(3) },
            Request::Predict { job: 9 },
            Request::Cancel { job: 0 },
            Request::Stats,
            Request::SetCapacity { capacity: 12 },
            Request::Shutdown { snapshot: false },
        ];
        for r in reqs {
            let line = r.encode();
            assert!(!line.contains('\n'), "{line}");
            let back = Request::decode(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(r, back, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Submitted {
                job: Some(12),
                decision: Decision::Admit,
                epoch: 4,
                waited_us: 1800,
                defer_reason: None,
            },
            Response::Submitted {
                job: None,
                decision: Decision::Reject,
                epoch: 4,
                waited_us: 90,
                defer_reason: None,
            },
            Response::Submitted {
                job: Some(3),
                decision: Decision::Defer,
                epoch: 2,
                waited_us: 40,
                defer_reason: Some(DeferReason::AwaitingRestock),
            },
            Response::Submitted {
                job: Some(4),
                decision: Decision::Defer,
                epoch: 2,
                waited_us: 41,
                defer_reason: Some(DeferReason::Overcommit),
            },
            Response::Ack,
            Response::PlanTable {
                now_slot: 17,
                epoch: 6,
                rows: vec![PlanRow {
                    job: 12,
                    label: "grep".into(),
                    eta: 2400,
                    task_len: 60,
                    target: 512.25,
                    level: 4.75,
                    desired_now: 5,
                    planned_completion: 480,
                    impossible: false,
                    remaining_tasks: 31,
                }],
            },
            Response::Prediction {
                job: 12,
                target: 512.25,
                task_len: 60,
                bound: 572.25,
                planned_completion: 480,
                impossible: false,
            },
            Response::Stats(StatsReport {
                active_jobs: 3,
                deferred_jobs: 1,
                epochs: 9,
                admitted: 10,
                deferred: 2,
                rejected: 1,
                cancelled: 1,
                completed: 5,
                samples: 230,
                cache_hits: 40,
                cache_misses: 9,
                now_slot: 123,
            }),
            Response::CapacitySet { capacity: 9 },
            Response::ShuttingDown { snapshot_written: true },
            Response::error(ErrorCode::UnknownJob, "job 99 is not resident"),
        ];
        for r in resps {
            let line = r.encode();
            assert!(!line.contains('\n'), "{line}");
            let back = Response::decode(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(r, back, "{line}");
        }
    }

    #[test]
    fn version_is_enforced() {
        let line = Request::Stats.encode().replace("\"v\":1", "\"v\":2");
        let e = Request::decode(&line).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadVersion);
        let e = Request::decode(r#"{"op":"stats"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadVersion);
    }

    #[test]
    fn unknown_op_is_structured() {
        let e = Request::decode(r#"{"v":1,"op":"frobnicate"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadOp);
        assert!(e.message.contains("frobnicate"));
    }

    #[test]
    fn missing_and_mistyped_fields_are_structured() {
        let e = Request::decode(r#"{"v":1,"op":"predict"}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadField);
        let e = Request::decode(r#"{"v":1,"op":"predict","job":-3}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadField);
        let e = Request::decode(r#"{"v":1,"op":"predict","job":1.5}"#).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadField);
        let e = Request::decode(
            r#"{"v":1,"op":"submit","label":"x","tasks":0,"utility":"constant:1","priority":1}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadField);
        let e = Request::decode(
            r#"{"v":1,"op":"submit","label":"x","tasks":4,"utility":"warp:1","priority":1}"#,
        )
        .unwrap_err();
        assert_eq!(e.code, ErrorCode::BadField);
        assert!(e.message.contains("utility"));
    }

    #[test]
    fn truncated_frames_are_bad_json() {
        let whole = Request::Submit(sub()).encode();
        for cut in [1, whole.len() / 2, whole.len() - 1] {
            let e = Request::decode(&whole[..cut]).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadJson, "cut at {cut}");
        }
    }

    #[test]
    fn shutdown_snapshot_defaults_to_true() {
        let r = Request::decode(r#"{"v":1,"op":"shutdown"}"#).unwrap();
        assert_eq!(r, Request::Shutdown { snapshot: true });
    }

    #[test]
    fn set_capacity_is_validated() {
        let r = Request::decode(r#"{"v":1,"op":"set-capacity","capacity":7}"#).unwrap();
        assert_eq!(r, Request::SetCapacity { capacity: 7 });
        for bad in [
            r#"{"v":1,"op":"set-capacity"}"#,
            r#"{"v":1,"op":"set-capacity","capacity":0}"#,
            r#"{"v":1,"op":"set-capacity","capacity":5000000000}"#,
            r#"{"v":1,"op":"set-capacity","capacity":-3}"#,
        ] {
            let e = Request::decode(bad).unwrap_err();
            assert_eq!(e.code, ErrorCode::BadField, "{bad}");
        }
    }

    #[test]
    fn unknown_defer_reason_is_structured() {
        let line = r#"{"ok":true,"kind":"submitted","job":1,"decision":"defer","epoch":1,"waited_us":5,"defer_reason":"lunar-eclipse"}"#;
        let e = Response::decode(line).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadField);
        assert!(e.message.contains("defer_reason"));
    }
}
