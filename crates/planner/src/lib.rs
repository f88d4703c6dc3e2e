//! The RUSH **planner kernel**: one event-driven owner of all planning
//! state, shared by the simulator adapter, the `rushd` daemon and the CLI.
//!
//! Before this crate existed the stateful driving logic around the paper's
//! DE→WCDE→TAS→mapping pipeline — sample ingestion, label-pool
//! bookkeeping, plan invalidation, recompute triggering, and acting on the
//! resulting [`rush_core::Plan`] — was implemented three times: in the
//! simulator-facing scheduler, in the daemon's job table, and in ad-hoc
//! CLI glue. [`PlannerCore`] centralizes it:
//!
//! * **Single owner** of the job registry, per-job sample history, the
//!   cross-job cold-start pools, the incremental [`rush_core::PlanCache`]
//!   and the current [`rush_core::Plan`].
//! * **Event-sourced**: state changes arrive as typed [`PlannerEvent`]s
//!   (`JobArrival`, `TaskSample`, `TaskFailed`, `Cancel`, `Tick`) via
//!   [`PlannerCore::apply`], or through the equivalent named methods.
//! * **Plan deltas**: every replan emits a [`PlanDelta`] — exactly the
//!   jobs whose `η`/target/mapping changed plus the jobs that left the
//!   plan — so adapters react incrementally instead of rereading whole
//!   plans.
//!
//! Two planning modes cover the three call sites:
//!
//! * **Registry mode** ([`PlannerCore::plan_at`]) — the kernel's own job
//!   records are the source of truth (daemon, CLI). Jobs are planned in
//!   ascending id order; parked jobs are excluded.
//! * **Roster mode** ([`PlannerCore::plan_roster`]) — the caller supplies
//!   a borrowed per-event roster (the simulator's [`ClusterView`]) and the
//!   kernel contributes config, cold-start pools and the plan cache. This
//!   keeps the hot path allocation-light and bit-identical to the
//!   pre-kernel scheduler.
//!
//! [`RushScheduler`] is the thin `rush_sim::Scheduler` adapter over the
//! kernel; `rush-serve` and `rush-cli` drive the same kernel for the
//! online and offline surfaces.
//!
//! [`ClusterView`]: rush_sim::view::ClusterView

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The planner kernel owns slot accounting: on top of the determinism,
// float and panic-family lints, every integer `+ - * / %` in library code is
// checked or saturating (DESIGN.md §9).
#![cfg_attr(
    not(test),
    deny(
        clippy::iter_over_hash_type,
        clippy::float_cmp,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::arithmetic_side_effects,
    )
)]

pub mod core;
pub mod event;
pub mod scheduler;
pub mod sharded;

pub use crate::core::{
    estimate_eta, ColdStart, JobId, JobRecord, JobSpec, PlanDelta, PlannerCore, RosterJob,
    SampleOutcome,
};
pub use event::{EventOutcome, PlannerEvent};
pub use scheduler::RushScheduler;
pub use sharded::{even_split, shard_of_label, ShardedPlanner, DEFAULT_REBALANCE_INTERVAL};

use std::fmt;

/// Unified error type of the planner layer: absorbs the estimation and
/// core-pipeline error enums so every adapter handles one type.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum PlannerError {
    /// The CA pipeline (WCDE / peel / mapping) failed.
    Core(rush_core::CoreError),
    /// Demand estimation failed.
    Estimator(rush_estimator::EstimatorError),
    /// A kernel configuration parameter is invalid.
    Config(String),
    /// An event referenced a job id the kernel does not know.
    UnknownJob(u64),
    /// Restored kernel parts were internally inconsistent.
    Snapshot(String),
}

impl fmt::Display for PlannerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlannerError::Core(e) => write!(f, "core: {e}"),
            PlannerError::Estimator(e) => write!(f, "estimator: {e}"),
            PlannerError::Config(msg) => write!(f, "config: {msg}"),
            PlannerError::UnknownJob(id) => write!(f, "job {id} is not resident"),
            PlannerError::Snapshot(msg) => write!(f, "snapshot: {msg}"),
        }
    }
}

impl std::error::Error for PlannerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlannerError::Core(e) => Some(e),
            PlannerError::Estimator(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rush_core::CoreError> for PlannerError {
    fn from(e: rush_core::CoreError) -> Self {
        PlannerError::Core(e)
    }
}

impl From<rush_estimator::EstimatorError> for PlannerError {
    fn from(e: rush_estimator::EstimatorError) -> Self {
        PlannerError::Estimator(e)
    }
}
