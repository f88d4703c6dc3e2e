//! Probability substrate for the RUSH scheduler reproduction.
//!
//! The RUSH paper (ICDCS 2016) models each job's total resource demand as a
//! random variable `v_i` measured in *container time slots*, and its robust
//! scheduling pipeline manipulates **quantized probability mass functions**
//! over demand bins: the Distribution Estimator produces a reference PMF
//! `φ_i`, the WCDE sub-problem searches over a Kullback–Leibler ball around
//! `φ_i`, and the scheduler provisions the `θ`-quantile of the worst-case
//! distribution.
//!
//! This crate provides exactly those primitives, with no third-party
//! dependencies beyond [`rand`]:
//!
//! * [`Pmf`] — a quantized PMF over demand bins with CDF/quantile queries,
//!   moments, and [KL divergence](Pmf::kl_divergence).
//! * [`dist`] — continuous reference distributions (Gaussian, log-normal,
//!   uniform, exponential) with deterministic sampling (Box–Muller,
//!   no `rand_distr` dependency) and quantization into [`Pmf`]s.
//! * [`stats`] — descriptive statistics (quartiles, five-number summaries,
//!   empirical CDFs) used by the evaluation harness.
//! * [`rng`] — deterministic seed-derivation helpers so that every experiment
//!   in the reproduction is replayable bit-for-bit.
//!
//! # Example
//!
//! Build a reference distribution for a job of 100 tasks whose runtimes are
//! roughly Gaussian, then ask for a robust demand quantile:
//!
//! ```
//! use rush_prob::dist::{Continuous, Gaussian};
//! use rush_prob::Pmf;
//!
//! # fn main() -> Result<(), rush_prob::ProbError> {
//! // Total demand of 100 tasks, each ~N(60 s, 20 s): N(6000, 200) by CLT.
//! let total = Gaussian::new(6000.0, 200.0)?;
//! let phi: Pmf = total.quantize(8000, 1, 1e-12)?;
//! let eta = phi.quantile(0.9);
//! assert!(eta >= 6000 && eta <= 6700);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// PMF/KL substrate of the deterministic engines: no hash-order iteration,
// no exact float compares, no panic family in library code. Excuses are
// `#[expect(.., reason)]` at the site (DESIGN.md §9).
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

pub mod dist;
pub mod pmf;
pub mod rng;
pub mod stats;

pub use pmf::Pmf;

use std::error::Error;
use std::fmt;

/// Errors produced while constructing or manipulating probability objects.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ProbError {
    /// A PMF was constructed from an empty weight vector.
    EmptyPmf,
    /// A weight/probability was negative or non-finite.
    InvalidWeight {
        /// Bin index of the offending weight.
        bin: usize,
        /// The offending value.
        value: f64,
    },
    /// All weights were zero, so the PMF cannot be normalized.
    ZeroMass,
    /// A distribution parameter was out of its valid domain.
    InvalidParameter {
        /// Human-readable parameter name.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A probability argument was outside `[0, 1]`.
    InvalidProbability(f64),
    /// Two PMFs with mismatched bin counts or widths were combined.
    ShapeMismatch {
        /// Bin count of the left operand.
        left: usize,
        /// Bin count of the right operand.
        right: usize,
    },
}

impl fmt::Display for ProbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbError::EmptyPmf => write!(f, "cannot build a PMF with zero bins"),
            ProbError::InvalidWeight { bin, value } => {
                write!(f, "weight at bin {bin} is invalid: {value}")
            }
            ProbError::ZeroMass => write!(f, "all weights are zero; nothing to normalize"),
            ProbError::InvalidParameter { name, value } => {
                write!(f, "invalid distribution parameter {name}: {value}")
            }
            ProbError::InvalidProbability(p) => {
                write!(f, "probability must lie in [0, 1], got {p}")
            }
            ProbError::ShapeMismatch { left, right } => {
                write!(f, "PMF shapes differ: {left} bins vs {right} bins")
            }
        }
    }
}

impl Error for ProbError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let errors = [
            ProbError::EmptyPmf,
            ProbError::InvalidWeight { bin: 3, value: -1.0 },
            ProbError::ZeroMass,
            ProbError::InvalidParameter { name: "std", value: -2.0 },
            ProbError::InvalidProbability(1.5),
            ProbError::ShapeMismatch { left: 4, right: 8 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
            assert!(!format!("{e:?}").is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ProbError>();
    }
}
