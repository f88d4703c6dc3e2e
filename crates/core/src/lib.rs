//! The RUSH robust scheduler (ICDCS 2016) — core algorithms and the
//! YARN-style container-assignment unit.
//!
//! RUSH allocates cluster containers to jobs whose utilities depend on their
//! completion times, under *uncertain* job demands. The pipeline, run on
//! every scheduling event (the paper's feedback cycle):
//!
//! 1. **Estimate** — a per-job DE unit (from [`rush_estimator`]) turns
//!    completed-task runtime samples into a reference distribution `φ_i` of
//!    remaining demand.
//! 2. **Robustify** ([`wcde`]) — the Worst-Case Distribution Estimation
//!    problem finds `η_i = max Ω_i⁻¹(θ)`, the θ-quantile of the *worst*
//!    distribution within KL-divergence `δ` of `φ_i`, via bisection
//!    (Algorithm 2) with a closed-form Relative-Entropy-Minimization oracle
//!    ([`rem`], Algorithm 1, Theorem 1).
//! 3. **Peel** ([`onion`]) — the Time-Aware Scheduling problem maximizes the
//!    lexicographic max-min utility vector by peeling bottleneck jobs layer
//!    by layer (Algorithm 3, Theorem 2).
//! 4. **Map** ([`mapping`]) — targets become a continuity-respecting
//!    per-container plan (Algorithm 4), each job completing no later than
//!    `T_i + R_i` (Theorem 3).
//! 5. **Assign** ([`plan`]) — only the plan's next-slot column is used:
//!    the free container goes to the job with the largest gap between
//!    planned and current occupancy, then the cycle repeats on the next
//!    event. The assignment unit lives in `rush-planner`
//!    (`rush_planner::RushScheduler`, a thin adapter over the shared
//!    planner kernel). Its frozen pre-kernel twin, like every other
//!    differential oracle of this crate, lives in the dev-only
//!    `rush-oracle` crate and is compared against under `tests/`.
//!
//! # Example: one pass of the robust pipeline
//!
//! ```
//! use rush_core::{plan::{PlanInput, compute_plan}, RushConfig};
//! use rush_utility::TimeUtility;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = RushConfig::default();
//! let jobs = vec![
//!     PlanInput {
//!         key: 0,
//!         generation: None,
//!         samples: vec![50, 60, 70, 55, 65].into(),
//!         remaining_tasks: 10,
//!         failed_attempts: 0,
//!         age: 0.0,
//!         utility: TimeUtility::sigmoid(700.0, 5.0, 0.02)?,
//!     },
//! ];
//! let plan = compute_plan(&cfg, 8, &jobs)?;
//! assert_eq!(plan.entries.len(), 1);
//! assert!(plan.entries[0].eta > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Bit-identical to the `rush-oracle` twins and panic-free in library code: no
// hash-order iteration, no exact float compares, no panic family. Excuses
// are `#[expect(.., reason)]` at the site (DESIGN.md §9).
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
    )
)]

// `cluster` owns capacity accounting (class counts, revocations, reclaim
// estimates): every integer `+ - * / %` there is checked or saturating.
#[cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]
pub mod cluster;
pub mod config;
pub mod error;
pub mod mapping;
pub mod onion;
pub mod plan;
pub mod rem;
pub mod wcde;

pub use cluster::{CapacityChange, CapacityEvent, ClusterModel, ContainerClass, ReliabilityTier};
pub use config::RushConfig;
pub use error::CoreError;
pub use plan::{compute_plan, compute_plan_incremental, Plan, PlanCache, PlanInput, PlanState};
