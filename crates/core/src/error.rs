//! Error types for the RUSH core algorithms.

use rush_estimator::EstimatorError;
use rush_prob::ProbError;
use std::error::Error;
use std::fmt;

/// Errors raised by the RUSH scheduling pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// `θ` must lie strictly inside `(0, 1)`.
    InvalidTheta(f64),
    /// `δ` (the KL-ball radius) must be finite and non-negative.
    InvalidDelta(f64),
    /// A configuration parameter was out of range.
    InvalidConfig {
        /// Description of the problem.
        reason: &'static str,
    },
    /// A [`crate::cluster::ClusterModel`] failed its consistency check.
    /// The model is not part of [`crate::RushConfig`], and the reason names
    /// its own subject (the model, a container class, a capacity event), so
    /// it displays as the bare reason.
    InvalidClusterModel {
        /// Description of the problem.
        reason: &'static str,
    },
    /// An underlying probability operation failed.
    Prob(ProbError),
    /// A demand estimation failed.
    Estimator(EstimatorError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidTheta(t) => write!(f, "theta must be in (0, 1), got {t}"),
            CoreError::InvalidDelta(d) => write!(f, "delta must be finite and >= 0, got {d}"),
            CoreError::InvalidConfig { reason } => write!(f, "invalid RUSH config: {reason}"),
            CoreError::InvalidClusterModel { reason } => f.write_str(reason),
            CoreError::Prob(e) => write!(f, "probability error: {e}"),
            CoreError::Estimator(e) => write!(f, "estimator error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Prob(e) => Some(e),
            CoreError::Estimator(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProbError> for CoreError {
    fn from(e: ProbError) -> Self {
        CoreError::Prob(e)
    }
}

impl From<EstimatorError> for CoreError {
    fn from(e: EstimatorError) -> Self {
        CoreError::Estimator(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_sources() {
        assert!(CoreError::InvalidTheta(1.5).to_string().contains("theta"));
        assert!(CoreError::InvalidDelta(-1.0).to_string().contains("delta"));
        assert!(CoreError::InvalidConfig { reason: "x" }.to_string().contains("x"));
        assert_eq!(CoreError::InvalidClusterModel { reason: "x" }.to_string(), "x");
        let e: CoreError = ProbError::ZeroMass.into();
        assert!(Error::source(&e).is_some());
        let e: CoreError = EstimatorError::NoSamples.into();
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&CoreError::InvalidTheta(0.0)).is_none());
    }
}
