//! A discrete-time, YARN-like cluster simulator for completion-time-aware
//! scheduling research.
//!
//! The RUSH paper (ICDCS 2016) evaluates its scheduler on a Hadoop/YARN
//! cluster. This crate replaces that testbed with a deterministic simulator
//! that preserves the paper's system model (Sec. II):
//!
//! * time advances in integer **slots**;
//! * the cluster offers `C` homogeneous **containers** (hosted on
//!   heterogeneous-speed [nodes](cluster::Node), the paper's mixed
//!   Dell R320/T320/Optiplex fleet);
//! * each **job** is a set of map/reduce **tasks**; a task occupies one
//!   container *continuously* from start to finish (the paper's continuity
//!   constraint);
//! * task runtimes are **uncertain**: the true duration is the template's
//!   base runtime scaled by the node speed and a random interference factor,
//!   and schedulers never observe it in advance — they only see runtime
//!   *samples* of completed tasks, exactly the signal YARN reports.
//!
//! Schedulers plug in through the [`Scheduler`] SPI, mirroring how RUSH,
//! the fair scheduler and the capacity scheduler all sit behind YARN's
//! resource-manager interface. The [`engine::Simulation`] drives arrivals,
//! task completions and container assignment in a reproducible event loop.
//!
//! # Example
//!
//! ```
//! use rush_sim::engine::{Simulation, SimConfig};
//! use rush_sim::job::{JobSpec, Phase, TaskSpec};
//! use rush_sim::scheduler::fcfs_task_order;
//! use rush_utility::TimeUtility;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let job = JobSpec::builder("wordcount")
//!     .arrival(0)
//!     .utility(TimeUtility::step(100.0, 1.0)?)
//!     .tasks((0..4).map(|_| TaskSpec::new(10.0, Phase::Map)))
//!     .build()?;
//! let sim = Simulation::new(SimConfig::homogeneous(1, 2), vec![job])?;
//! let result = sim.run(&mut fcfs_task_order())?;
//! assert_eq!(result.outcomes.len(), 1);
//! // 4 tasks x 10 slots on 2 containers: two waves, 20 slots.
//! assert_eq!(result.outcomes[0].runtime, 20);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Bit-reproducible and panic-free in library code: no hash-order
// iteration, no exact float compares, no panic family. Excuses
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

pub mod cluster;
pub mod engine;
pub mod error;
pub mod job;
pub mod outcome;
pub mod perturb;
pub mod scheduler;
pub mod trace;
pub mod view;

pub use error::SimError;
pub use scheduler::Scheduler;

/// A discrete time slot. The paper fixes an arbitrary slot length (e.g. one
/// second); all durations and completion times in the simulator are counted
/// in these units.
pub type Slot = u64;

/// Identifies a job within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

/// Identifies a task within its job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

/// Identifies a node in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task-{}", self.0)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(JobId(3).to_string(), "job-3");
        assert_eq!(TaskId(1).to_string(), "task-1");
        assert_eq!(NodeId(0).to_string(), "node-0");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(JobId(1) < JobId(2));
        let mut v = vec![TaskId(5), TaskId(1)];
        v.sort();
        assert_eq!(v, vec![TaskId(1), TaskId(5)]);
    }
}
