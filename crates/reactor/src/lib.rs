//! # rush-reactor — nonblocking event-loop primitives
//!
//! A from-scratch, dependency-free reactor substrate for the RUSH serving
//! layer, built the same way the workspace's `rand`/`proptest`
//! stand-ins were: the minimal API subset the repo needs, implemented
//! against raw syscalls instead of a registry crate.
//!
//! Four pieces, composable into an event loop:
//!
//! * [`sys`] — the only `unsafe` in the workspace: a thin FFI binding for
//!   `epoll_create1` / `epoll_ctl` / `epoll_wait` / `eventfd` plus
//!   `read`/`write`/`close` on those descriptors. Non-Linux targets get
//!   stubs returning [`std::io::ErrorKind::Unsupported`].
//! * [`Poller`] — one epoll instance: level-triggered registration of
//!   descriptors under integer tokens, `wait` with an optional timeout.
//! * [`Waker`] — an eventfd registered in the poller; any thread can make
//!   a parked reactor return from `wait` (wakes coalesce).
//! * [`ReadBuf`] / [`WriteBuf`] — per-connection byte queues with
//!   occupancy accounting for backpressure decisions.
//!
//! The crate deliberately stops below the protocol layer: it knows nothing
//! about frames, codecs, or the planner. `rush-serve` composes these
//! primitives into its connection state machines, and keeps its own
//! deadlines: a `wait` timeout is all a timer needs from this crate.
//!
//! # Example
//!
//! ```no_run
//! use rush_reactor::{Interest, Poller, Waker};
//! use std::time::{Duration, Instant};
//!
//! let mut poller = Poller::new()?;
//! let waker = Waker::new()?;
//! poller.register(waker.fd(), 0, Interest::READ)?;
//! // A deadline 25 ms out bounds the wait: the loop wakes for it even
//! // when no descriptor is ready.
//! let deadline = Instant::now() + Duration::from_millis(25);
//! for event in poller.wait(Some(deadline.saturating_duration_since(Instant::now())))? {
//!     if event.token == 0 {
//!         waker.drain();
//!     }
//! }
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]
// Every primitive here runs on an event-loop thread against untrusted
// peers: no panic family, no unchecked indexing/slicing, none of the
// blocking calls listed in this crate's `clippy.toml` (DESIGN.md §9).
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

pub mod buffer;
pub mod poller;
pub mod sys;
pub mod waker;

pub use buffer::{ReadBuf, ReadOutcome, WriteBuf, WriteOutcome};
pub use poller::{Event, Interest, Poller};
pub use waker::Waker;
