//! # RUSH — robust completion-time-aware cluster scheduling
//!
//! A full reproduction of *RUSH: A RobUst ScHeduler to Manage Uncertain
//! Completion-Times in Shared Clouds* (Huang et al., ICDCS 2016) as a Rust
//! workspace. This facade crate re-exports every sub-crate:
//!
//! * [`prob`] — quantized PMFs, KL divergence, distributions, statistics.
//! * [`sim`] — a discrete-time YARN-like cluster simulator with a pluggable
//!   scheduler SPI.
//! * [`utility`] — completion-time utility functions with inverses.
//! * [`estimator`] — online job-demand distribution estimators.
//! * [`core`] — the RUSH algorithms (REM closed form, WCDE bisection, onion
//!   peeling, continuous time-slot mapping) and the CA feedback pipeline.
//! * [`planner`] — the shared planner kernel
//!   ([`planner::PlannerCore`]) and the [`planner::RushScheduler`] simulator
//!   adapter built on it.
//! * [`sched`] — baseline schedulers (FIFO, EDF, RRH, Fair).
//! * [`workload`] — PUMA-like job templates and the experiment driver.
//! * [`metrics`] — boxplots, ECDFs and table rendering for the harness.
//! * [`reactor`] — nonblocking event-loop primitives (epoll poller,
//!   eventfd waker, timer wheel, backpressure-aware buffers) behind the
//!   daemon's connection frontend.
//! * [`serve`] — the `rushd` scheduling daemon: versioned JSON and
//!   length-prefixed binary wire protocols, epoch batching, admission
//!   control, snapshots and a blocking client.
//!
//! Not re-exported: `rush-oracle`, the frozen reference implementations
//! (naive peel, scan-based sim engine, pre-kernel scheduler, LP path) the
//! differential suites compare against. It is a dev-dependency only.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end run: generate a workload,
//! schedule it with RUSH and a baseline, and compare utility distributions.

pub use rush_core as core;
pub use rush_estimator as estimator;
pub use rush_metrics as metrics;
pub use rush_planner as planner;
pub use rush_prob as prob;
pub use rush_reactor as reactor;
pub use rush_sched as sched;
pub use rush_serve as serve;
pub use rush_sim as sim;
pub use rush_utility as utility;
pub use rush_workload as workload;
