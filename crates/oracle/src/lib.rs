//! Frozen reference implementations for the RUSH differential suites.
//!
//! Every optimized kernel in the workspace is held to an older, simpler
//! twin that must agree with it bit for bit (or, for the LP path, within
//! bisection tolerance). The twins live here — outside every shipped
//! library — so that `rushd`, the `rush` facade and `benchmark/` compile
//! none of them, and so that an oracle shares no line with the code it
//! checks: what it needs of a kernel's private helpers it carries as a
//! frozen copy.
//!
//! | module | freezes | read by |
//! |---|---|---|
//! | [`onion`] | Algorithm 3 as written: sort per probe, full-range bisection per layer | `rush-core` `delta_peel_proptests`, `plan_cache_proptests`, `proptests`; `fig5`'s seed-baseline series |
//! | [`scheduler`] | the pre-kernel container-assignment unit | `rush-planner` `adapter_differential` |
//! | [`lp`] | a dense two-phase simplex and the LP form of Time-Aware Scheduling | `rush-core` `proptests`, the facade's `tests/extensions.rs` |
//!
//! This crate is a `[dev-dependencies]` entry of the crates whose `tests/`
//! read it (cargo allows the cycle `rush-core` ⇢dev `rush-oracle` →
//! `rush-core`) and a plain dependency of the `rush-bench` harness only.
//! A crate's `#[cfg(test)]` build is a different compilation from the one
//! this crate links, so a comparison against an oracle belongs in that
//! crate's `tests/` directory, never in its `src/`.
//!
//! Do not evolve these modules with new features. A change of contract
//! (a new input of the peel, a new scheduler callback) is transcribed here
//! in the same naive style; an optimization never is. The simulator has
//! no twin: `rush-sim` runs one scan-based engine, guarded by the results
//! its `engine_pins` test pins and by the `figures` reports, so a new
//! simulator contract is written once.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The same lint family as the crates the code was frozen out of. The
// bodies moved with their `#[expect(.., reason)]` excuses intact; denying
// the family keeps those excuses checked (a stale one fails the clippy
// gate) and keeps an oracle from dying on a panic where the kernel it
// checks returns an error (DESIGN.md §9).
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

pub mod lp;
pub mod onion;
pub mod scheduler;
