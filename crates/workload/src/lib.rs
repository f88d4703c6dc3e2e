//! Synthetic MapReduce workloads modelled on the PUMA benchmark suite.
//!
//! The paper's evaluation (Sec. V-B) submits 100 jobs drawn from an equal
//! mix of eight heterogeneous Hadoop templates over 1–10 GB datasets, with
//! Poisson arrivals (mean 130 s), priorities `W ∈ 1..5`, a
//! 20 % / 60 % / 20 % critical / sensitive / insensitive mix, and time
//! budgets set to {2, 1.5, 1}× each job's *benchmarked* runtime (the job
//! alone on the whole cluster). This crate reproduces that pipeline:
//!
//! * [`templates`] — eight parameterized job templates with heterogeneous
//!   task-count and task-runtime distributions;
//! * [`spot`] — named spot-market cluster scenarios (tiered supply with a
//!   periodic revocation trajectory) that pair with any job mix;
//! * [`generator`] — the randomized workload builder, including the
//!   benchmark-calibration pass that sets budgets;
//! * [`experiment`] — a driver that replays one workload under several
//!   schedulers with identical interference randomness.
//!
//! # Example
//!
//! ```no_run
//! use rush_workload::generator::{generate, WorkloadConfig};
//! use rush_workload::experiment::Experiment;
//! use rush_sched::Fifo;
//! use rush_sim::cluster::ClusterSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cluster = ClusterSpec::paper_testbed(8)?;
//! let cfg = WorkloadConfig { jobs: 20, budget_ratio: 1.5, seed: 7, ..Default::default() };
//! let exp = Experiment::new(cluster);
//! let jobs = generate(&cfg, &exp)?;
//! let result = exp.run(jobs, &mut Fifo::new())?;
//! println!("zero-utility fraction: {}", result.zero_utility_fraction(1e-9));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod experiment;
pub mod generator;
pub mod persist;
pub mod spot;
pub mod templates;

pub use experiment::Experiment;
pub use generator::{generate, ArrivalProcess, WorkloadConfig};
pub use spot::{spot_scenarios, SpotScenario};
pub use templates::{puma_templates, JobTemplate, RuntimeDist};
