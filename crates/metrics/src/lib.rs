//! Experiment reporting for the RUSH reproduction: fixed-width tables,
//! boxplot and ECDF series (the shapes behind the paper's Figs. 3–6),
//! Gantt views and log-bucketed histograms.
//!
//! # Example
//!
//! ```
//! use rush_metrics::table::Table;
//!
//! let mut t = Table::new(["scheduler", "median latency"]);
//! t.row(["RUSH", "-12.0"]);
//! t.row(["FIFO", "85.0"]);
//! let s = t.render();
//! assert!(s.contains("RUSH"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// `planner_loop` records into `Histogram` on the daemon's hot path: no exact
// float compares, no panic family in library code (DESIGN.md §9).
#![cfg_attr(
    not(test),
    deny(
        clippy::float_cmp,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
    )
)]

pub mod gantt;
pub mod histogram;
pub mod series;
pub mod table;

pub use histogram::Histogram;
pub use rush_prob::stats::{Ecdf, FiveNumber};
