//! The RUSH **planner kernel**: one owner of all planning state, shared
//! by the simulator adapter, the `rushd` daemon and the CLI.
//!
//! Before this crate existed the stateful driving logic around the paper's
//! DE→WCDE→TAS→mapping pipeline — sample ingestion, label-pool
//! bookkeeping, plan invalidation, recompute triggering, and acting on the
//! resulting [`rush_core::Plan`] — was implemented three times: in the
//! simulator-facing scheduler, in the daemon's job table, and in ad-hoc
//! CLI glue. [`PlannerCore`] centralizes it as the **single owner** of the
//! job registry, per-job sample history, the cross-job cold-start pools,
//! the incremental [`rush_core::PlanCache`] and the current
//! [`rush_core::Plan`]. Its [`JobRecord`] — the client's
//! [`JobSubmission`] plus remaining tasks, arrival slot, parked flag and
//! own samples — is the one record of a job: no adapter keeps a twin. It is driven by named methods only (`admit`,
//! `ingest_sample`, `pool_sample`, `cancel`, `set_parked`,
//! `set_capacity`, `invalidate`), and read through `planned()` and
//! `entry()`.
//!
//! Two planning entry points cover the three call sites, and each fixes
//! how a job with no samples of its own is sized:
//!
//! * **Registry mode** ([`PlannerCore::plan_at`]) — the kernel's own job
//!   records are the source of truth (daemon, CLI). Jobs are planned in
//!   ascending id order; parked jobs are excluded. A job is sized from
//!   its own samples, else its runtime hint, else the prior, so a plan
//!   depends only on the records and a snapshot restore is bit-exact.
//! * **Roster mode** ([`PlannerCore::plan_roster`]) — the simulator's
//!   [`ClusterView`] is the roster, read in place; the kernel contributes
//!   config, the label and cluster-wide cold-start pools and the plan
//!   cache. This keeps the hot path allocation-light and bit-identical to
//!   the pre-kernel scheduler. Each view job's own samples must reach the
//!   kernel through [`PlannerCore::pool_sample`], as the simulator's task
//!   completions do: that call stamps the job, and the memo trusts the
//!   stamp ([`rush_core::plan::PlanInput::generation`]).
//!
//! [`RushScheduler`] is the thin `rush_sim::Scheduler` adapter over the
//! kernel; `rush-serve` and `rush-cli` drive the same kernel for the
//! online and offline surfaces. Each adapter holds one bare
//! [`PlannerCore`]: the daemon's sharding is one kernel per planner thread
//! (`rushd --shards N`, see `rush_serve::server`), not a partition inside
//! the kernel.
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
pub mod scheduler;

pub use crate::core::{estimate_eta, JobId, JobRecord, JobSubmission, PlannerCore};
pub use scheduler::RushScheduler;

/// The planner kernel under the name `benchmark/` still uses. Kept only
/// for `benchmark/`, which is frozen between benchmark changes (as
/// `rush_serve::Frontend` is); new code names [`PlannerCore`].
#[doc(hidden)]
pub type ShardedPlanner = PlannerCore;

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
    /// A call referenced a job id the kernel does not know.
    UnknownJob(u64),
    /// Restored kernel parts were inconsistent, or held a record a live
    /// kernel never holds.
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
