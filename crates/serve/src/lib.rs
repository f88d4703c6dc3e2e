//! Online serving layer for the RUSH scheduler: the `rushd` daemon and its
//! wire protocol.
//!
//! Everything below PR 3 ran *offline* — workloads were generated, simulated
//! and scored in one process. This crate turns the same planning pipeline
//! into a long-running service:
//!
//! * [`json`] — a hand-rolled strict JSON codec (the workspace vendors no
//!   serde, and a daemon must reject malformed frames with located errors,
//!   not panics);
//! * [`protocol`] — the versioned newline-delimited request/response frames
//!   (`submit`, `report-sample`, `query-plan`, `predict`, `cancel`,
//!   `stats`, `shutdown`);
//! * [`binary`] — the version-negotiated, length-prefixed binary codec
//!   carrying the same `Request`/`Response` values (`RUSH1` magic + varint
//!   framing); the daemon sniffs binary vs. JSON from a connection's
//!   first byte;
//! * `wire` (private) — the one description both codecs and the snapshot
//!   are derived from: each message's fields, order, tags and validation
//!   stated once, walked by a JSON and a `RUSH1` reader and writer;
//! * [`state`] — protocol/epoch/admission bookkeeping over the shared
//!   planner kernel ([`rush_planner::PlannerCore`]): many submissions
//!   arriving close together are planned by **one** kernel replan;
//! * [`admission`] — the Theorem-2 prefix-capacity test applied *before* a
//!   job enters the table, so an overcommitted cluster defers or rejects
//!   instead of thrashing every resident deadline;
//! * [`snapshot`] — durable state: a graceful shutdown writes the job table
//!   to disk and a restarted daemon reproduces the same plan (bit-identical
//!   `η` and targets) for in-flight jobs;
//! * [`server`] / [`client`] — the TCP daemon (epoll reactors feeding
//!   per-shard planner threads over channels) and a blocking client;
//! * [`reactor_frontend`] — the daemon's one connection frontend: N
//!   nonblocking event-loop threads multiplexing thousands of connections
//!   with bounded in-flight frames, write-buffer caps and slow-reader
//!   eviction.
//!
//! Time is a **logical slot clock**: `now_slot = base + elapsed_ms /
//! ms_per_slot`, integer-quantized, so plans depend only on (state,
//! `now_slot`) and snapshot/restore is exact.
//!
//! # Example
//!
//! See `examples/server_quickstart.rs` at the workspace root, or the
//! end-to-end tests in `tests/server_e2e.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// A long-running daemon sheds, never panics: the whole library is denied
// the panic family and unchecked indexing/slicing, and the blocking calls
// listed in this crate's `clippy.toml` (`disallowed_methods`) are excused
// only off the event loop. Excuses are `#[expect(.., reason)]` at the site
// (DESIGN.md §9).
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
        clippy::indexing_slicing,
        clippy::disallowed_methods,
    )
)]

pub mod admission;
pub mod binary;
pub mod client;
pub mod json;
pub mod protocol;
pub mod reactor_frontend;
pub mod server;
pub mod snapshot;
pub mod state;
mod wire;

pub use client::Client;
pub use protocol::{Decision, ErrorCode, Request, Response, PROTOCOL_VERSION};
pub use server::{serve, Frontend, ServeConfig, ServerHandle};
pub use state::ServeState;

use std::fmt;

/// Top-level error type of the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// Planning, estimation or admission sizing failed inside the shared
    /// planner kernel (see [`rush_planner::PlannerError`]).
    Planner(rush_planner::PlannerError),
    /// Socket or file I/O failed.
    Io(std::io::Error),
    /// A peer sent a frame we could not decode, or we received one we
    /// could not interpret.
    Wire(protocol::WireError),
    /// A snapshot file was missing fields or internally inconsistent.
    Snapshot(String),
    /// The serve configuration is invalid.
    Config(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Planner(e) => write!(f, "planner: {e}"),
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Wire(e) => write!(f, "wire: {e}"),
            ServeError::Snapshot(msg) => write!(f, "snapshot: {msg}"),
            ServeError::Config(msg) => write!(f, "config: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<rush_planner::PlannerError> for ServeError {
    fn from(e: rush_planner::PlannerError) -> Self {
        // Config and snapshot problems keep their serve-level identity (the
        // daemon surfaces them differently); everything else is a planner
        // failure.
        match e {
            rush_planner::PlannerError::Config(msg) => ServeError::Config(msg),
            rush_planner::PlannerError::Snapshot(msg) => ServeError::Snapshot(msg),
            other => ServeError::Planner(other),
        }
    }
}

impl From<rush_core::CoreError> for ServeError {
    fn from(e: rush_core::CoreError) -> Self {
        ServeError::Planner(rush_planner::PlannerError::from(e))
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<protocol::WireError> for ServeError {
    fn from(e: protocol::WireError) -> Self {
        ServeError::Wire(e)
    }
}
