//! Completion-time utility functions for the RUSH scheduler.
//!
//! Each job in the RUSH model (ICDCS 2016, Sec. II) carries a
//! **non-increasing** utility function `U_i(T_i)` of its completion time.
//! The paper's job-configuration interface ships three utility classes —
//! piece-wise linear, sigmoid and constant — parameterized by a time budget
//! `B`, a priority `W` and a sensitivity `β`; this crate implements those
//! (plus a hard step deadline) as the closed enum [`TimeUtility`], and the
//! open trait [`Utility`] for user-supplied classes.
//!
//! The onion-peeling algorithm needs the *inverse* `U⁻¹(L)`: the latest
//! completion time that still attains utility level `L`. Because some
//! utilities are flat (constant class) or bounded (all classes), the inverse
//! is the three-valued [`LatestTime`].
//!
//! **Paper erratum**: the paper prints the sigmoid as `W/(1+e^{β(B−T)})`,
//! which *increases* with `T`, contradicting its own non-increasing
//! assumption. [`TimeUtility::sigmoid`] implements the evident intent
//! `U(T) = W/(1+e^{β(T−B)})`.
//!
//! # Example
//!
//! ```
//! use rush_utility::{LatestTime, TimeUtility, Utility};
//!
//! # fn main() -> Result<(), rush_utility::UtilityError> {
//! let u = TimeUtility::sigmoid(600.0, 5.0, 0.05)?; // budget 600 s, W=5
//! assert!(u.utility(0.0) > 4.9);          // well before budget: ~W
//! assert!(u.utility(2000.0) < 0.01);      // far past budget: ~0
//! match u.latest_time(2.5) {
//!     LatestTime::At(t) => assert!((t - 600.0).abs() < 1e-9), // U(B) = W/2
//!     _ => unreachable!(),
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Algorithm crate: no exact float compares, no panic family in library code
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
    )
)]

use std::error::Error;
use std::fmt;

mod text;
pub use text::{utility_from_text, utility_to_text};

/// Errors from constructing utility functions.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum UtilityError {
    /// A parameter was out of its valid domain.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl fmt::Display for UtilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UtilityError::InvalidParameter { name, value } => {
                write!(f, "invalid utility parameter {name}: {value}")
            }
        }
    }
}

impl Error for UtilityError {}

/// The inverse image of a utility level: the latest completion time that
/// still attains it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatestTime {
    /// Utility level `L` is attained iff the job completes by this time.
    At(f64),
    /// The level is attained at every completion time (flat utility ≥ L).
    Always,
    /// The level is unattainable even at `T = 0`.
    Never,
}

impl LatestTime {
    /// Collapses to a finite deadline, mapping [`Always`](LatestTime::Always)
    /// to `horizon` and [`Never`](LatestTime::Never) to `None`.
    pub fn deadline_within(self, horizon: f64) -> Option<f64> {
        match self {
            LatestTime::At(t) => Some(t.min(horizon)),
            LatestTime::Always => Some(horizon),
            LatestTime::Never => None,
        }
    }

    /// The same inverse measured from `elapsed` slots later: a deadline
    /// that already passed becomes [`Never`](LatestTime::Never).
    pub fn after(self, elapsed: f64) -> LatestTime {
        match self {
            LatestTime::At(t) if t >= elapsed => LatestTime::At(t - elapsed),
            LatestTime::At(_) => LatestTime::Never,
            other => other,
        }
    }
}

/// Everything inverting a sigmoid reads, with its supremum evaluated once:
/// what [`Utility::sigmoid_inverse`] hands a caller that inverts one job at
/// many levels.
///
/// An inversion then costs one `ln(W/L − 1)` ([`SigmoidInverse::ln_term`]),
/// and that term depends on the weight and the level only, so jobs sharing a
/// weight can share it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SigmoidInverse {
    /// Time budget `B`.
    pub budget: f64,
    /// Priority weight `W`.
    pub weight: f64,
    /// Steepness `β`.
    pub beta: f64,
    /// `U(0)` of the sigmoid itself (before any shift).
    pub sup: f64,
    /// Slots between the sigmoid's time origin and the caller's "now"
    /// (`0` for a bare [`TimeUtility`]).
    pub shift: f64,
}

impl SigmoidInverse {
    /// `ln(W/L − 1)`: the one transcendental of a sigmoid inversion.
    pub fn ln_term(weight: f64, level: f64) -> f64 {
        (weight / level - 1.0).ln()
    }

    /// `latest_time(level)` of the utility this record describes, bit for
    /// bit; `ln` is called at most once, for [`Self::ln_term`]`(self.weight,
    /// level)`.
    pub fn latest_time(&self, level: f64, ln: impl FnOnce() -> f64) -> LatestTime {
        sigmoid_latest_time(self.budget, self.beta, level, || self.sup, ln).after(self.shift)
    }
}

/// The sigmoid arm of [`TimeUtility::latest_time`], shared with
/// [`SigmoidInverse::latest_time`]: `sup` and `ln` are evaluated only on the
/// branches that read them.
fn sigmoid_latest_time(
    budget: f64,
    beta: f64,
    level: f64,
    sup: impl FnOnce() -> f64,
    ln: impl FnOnce() -> f64,
) -> LatestTime {
    if level <= 0.0 {
        return LatestTime::Always;
    }
    let sup = sup();
    if level >= sup {
        // The sigmoid's sup is only approached as T→0; treat
        // level == U(0) as "complete immediately".
        return if level > sup + 1e-12 {
            LatestTime::Never
        } else {
            LatestTime::At(0.0)
        };
    }
    // W/(1+e^{β(T−B)}) = L  ⇒  T = B + ln(W/L − 1)/β
    LatestTime::At((budget + ln() / beta).max(0.0))
}

/// A non-increasing utility of completion time.
///
/// Implementations must guarantee `utility(t1) ≥ utility(t2)` whenever
/// `t1 ≤ t2`, with `sup() = utility(0)` and `inf() = lim_{t→∞} utility(t)`.
pub trait Utility {
    /// Utility of completing at time `t ≥ 0`.
    fn utility(&self, t: f64) -> f64;

    /// Supremum of the utility (attained at `t = 0`).
    fn sup(&self) -> f64 {
        self.utility(0.0)
    }

    /// Infimum of the utility as `t → ∞`.
    fn inf(&self) -> f64;

    /// The latest completion time attaining utility at least `level`
    /// (`U⁻¹(L)` in the paper's onion-peeling algorithm).
    fn latest_time(&self, level: f64) -> LatestTime;

    /// For a sigmoid, the record whose [`SigmoidInverse::latest_time`]
    /// equals [`Utility::latest_time`] bit for bit; `None` (the default)
    /// for every other class.
    fn sigmoid_inverse(&self) -> Option<SigmoidInverse> {
        None
    }
}

/// The closed set of utility classes shipped with RUSH's job-configuration
/// interface (paper Sec. IV), plus a hard step deadline.
///
/// All variants take the client-specified time budget `B` (slots), priority
/// weight `W > 0` and, where applicable, sensitivity `β > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeUtility {
    /// `U(T) = max(β·(B − T) + W, 0)` — utility decays linearly past the
    /// point where the budget margin runs out.
    Linear {
        /// Time budget `B`.
        budget: f64,
        /// Priority weight `W`.
        weight: f64,
        /// Decay slope `β`.
        beta: f64,
    },
    /// `U(T) = W / (1 + e^{β(T − B)})` — smooth drop around the budget with
    /// steepness `β` (corrected sign; see crate docs).
    Sigmoid {
        /// Time budget `B`.
        budget: f64,
        /// Priority weight `W`.
        weight: f64,
        /// Steepness `β`.
        beta: f64,
    },
    /// `U(T) = W` — a completion-time-insensitive job.
    Constant {
        /// Priority weight `W`.
        weight: f64,
    },
    /// `U(T) = W` for `T ≤ B`, else 0 — a hard deadline.
    Step {
        /// Deadline `B`.
        budget: f64,
        /// Priority weight `W`.
        weight: f64,
    },
}

impl TimeUtility {
    /// Linear class `max(β(B−T)+W, 0)`.
    ///
    /// # Errors
    ///
    /// [`UtilityError::InvalidParameter`] if `budget < 0`, `weight ≤ 0` or
    /// `beta ≤ 0`, or any parameter is non-finite.
    pub fn linear(budget: f64, weight: f64, beta: f64) -> Result<Self, UtilityError> {
        validate_budget(budget)?;
        validate_weight(weight)?;
        validate_beta(beta)?;
        Ok(TimeUtility::Linear { budget, weight, beta })
    }

    /// Sigmoid class `W/(1+e^{β(T−B)})`.
    ///
    /// # Errors
    ///
    /// [`UtilityError::InvalidParameter`] as for [`TimeUtility::linear`].
    pub fn sigmoid(budget: f64, weight: f64, beta: f64) -> Result<Self, UtilityError> {
        validate_budget(budget)?;
        validate_weight(weight)?;
        validate_beta(beta)?;
        Ok(TimeUtility::Sigmoid { budget, weight, beta })
    }

    /// Constant class `W` (time-insensitive).
    ///
    /// # Errors
    ///
    /// [`UtilityError::InvalidParameter`] if `weight ≤ 0` or non-finite.
    pub fn constant(weight: f64) -> Result<Self, UtilityError> {
        validate_weight(weight)?;
        Ok(TimeUtility::Constant { weight })
    }

    /// Hard step deadline: `W` up to `budget`, 0 after.
    ///
    /// # Errors
    ///
    /// [`UtilityError::InvalidParameter`] if `budget < 0` or `weight ≤ 0`.
    pub fn step(budget: f64, weight: f64) -> Result<Self, UtilityError> {
        validate_budget(budget)?;
        validate_weight(weight)?;
        Ok(TimeUtility::Step { budget, weight })
    }

    /// The priority weight `W`.
    pub fn weight(&self) -> f64 {
        match *self {
            TimeUtility::Linear { weight, .. }
            | TimeUtility::Sigmoid { weight, .. }
            | TimeUtility::Constant { weight }
            | TimeUtility::Step { weight, .. } => weight,
        }
    }

    /// The time budget `B`, if this class has one.
    pub fn budget(&self) -> Option<f64> {
        match *self {
            TimeUtility::Linear { budget, .. }
            | TimeUtility::Sigmoid { budget, .. }
            | TimeUtility::Step { budget, .. } => Some(budget),
            TimeUtility::Constant { .. } => None,
        }
    }
}

fn validate_budget(budget: f64) -> Result<(), UtilityError> {
    if !budget.is_finite() || budget < 0.0 {
        return Err(UtilityError::InvalidParameter { name: "budget", value: budget });
    }
    Ok(())
}

fn validate_weight(weight: f64) -> Result<(), UtilityError> {
    if !weight.is_finite() || weight <= 0.0 {
        return Err(UtilityError::InvalidParameter { name: "weight", value: weight });
    }
    Ok(())
}

fn validate_beta(beta: f64) -> Result<(), UtilityError> {
    if !beta.is_finite() || beta <= 0.0 {
        return Err(UtilityError::InvalidParameter { name: "beta", value: beta });
    }
    Ok(())
}

impl Utility for TimeUtility {
    fn utility(&self, t: f64) -> f64 {
        let t = t.max(0.0);
        match *self {
            TimeUtility::Linear { budget, weight, beta } => (beta * (budget - t) + weight).max(0.0),
            TimeUtility::Sigmoid { budget, weight, beta } => {
                weight / (1.0 + (beta * (t - budget)).exp())
            }
            TimeUtility::Constant { weight } => weight,
            TimeUtility::Step { budget, weight } => {
                if t <= budget {
                    weight
                } else {
                    0.0
                }
            }
        }
    }

    fn inf(&self) -> f64 {
        match *self {
            TimeUtility::Constant { weight } => weight,
            _ => 0.0,
        }
    }

    fn latest_time(&self, level: f64) -> LatestTime {
        match *self {
            TimeUtility::Linear { budget, weight, beta } => {
                if level <= 0.0 {
                    return LatestTime::Always;
                }
                if level > self.sup() + 1e-12 {
                    return LatestTime::Never;
                }
                // β(B−T)+W = L  ⇒  T = B + (W − L)/β
                LatestTime::At((budget + (weight - level) / beta).max(0.0))
            }
            TimeUtility::Sigmoid { budget, weight, beta } => sigmoid_latest_time(
                budget,
                beta,
                level,
                || self.sup(),
                || SigmoidInverse::ln_term(weight, level),
            ),
            TimeUtility::Constant { weight } => {
                if level <= weight {
                    LatestTime::Always
                } else {
                    LatestTime::Never
                }
            }
            TimeUtility::Step { budget, weight } => {
                if level <= 0.0 {
                    LatestTime::Always
                } else if level <= weight {
                    LatestTime::At(budget)
                } else {
                    LatestTime::Never
                }
            }
        }
    }

    fn sigmoid_inverse(&self) -> Option<SigmoidInverse> {
        match *self {
            TimeUtility::Sigmoid { budget, weight, beta } => {
                Some(SigmoidInverse { budget, weight, beta, sup: self.sup(), shift: 0.0 })
            }
            _ => None,
        }
    }
}

/// A general piece-wise linear, non-increasing utility defined by
/// `(time, utility)` breakpoints — the "piece-wise linear class" the
/// paper's job-configuration interface accepts in its most general form.
///
/// Before the first breakpoint the utility is the first value; after the
/// last it is the last value; in between it interpolates linearly.
///
/// # Example
///
/// ```
/// use rush_utility::{PiecewiseLinear, Utility};
///
/// # fn main() -> Result<(), rush_utility::UtilityError> {
/// // Full value to t=100, linear decay to 1 at t=200, floor at 1.
/// let u = PiecewiseLinear::new(vec![(100.0, 5.0), (200.0, 1.0)])?;
/// assert_eq!(u.utility(50.0), 5.0);
/// assert_eq!(u.utility(150.0), 3.0);
/// assert_eq!(u.utility(1000.0), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseLinear {
    points: Vec<(f64, f64)>,
}

impl PiecewiseLinear {
    /// Creates a piece-wise linear utility from breakpoints.
    ///
    /// # Errors
    ///
    /// [`UtilityError::InvalidParameter`] if fewer than one breakpoint is
    /// given, times are not strictly increasing, utilities are increasing
    /// anywhere, any value is non-finite, or any utility is negative.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, UtilityError> {
        if points.is_empty() {
            return Err(UtilityError::InvalidParameter { name: "points", value: 0.0 });
        }
        let mut prev_t = f64::NEG_INFINITY;
        let mut prev_u = f64::INFINITY;
        for &(t, u) in &points {
            if !t.is_finite() || t < 0.0 || t <= prev_t {
                return Err(UtilityError::InvalidParameter { name: "time", value: t });
            }
            if !u.is_finite() || u < 0.0 || u > prev_u {
                return Err(UtilityError::InvalidParameter { name: "utility", value: u });
            }
            prev_t = t;
            prev_u = u;
        }
        Ok(PiecewiseLinear { points })
    }

    /// The breakpoints.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }
}

impl Utility for PiecewiseLinear {
    fn utility(&self, t: f64) -> f64 {
        let t = t.max(0.0);
        // bound: points is validated non-empty at construction
        let first = self.points[0];
        if t <= first.0 {
            return first.1;
        }
        for w in self.points.windows(2) {
            // bound: windows(2) yields exactly two elements
            let ((t0, u0), (t1, u1)) = (w[0], w[1]);
            if t <= t1 {
                return u0 + (u1 - u0) * (t - t0) / (t1 - t0);
            }
        }
        self.points.last().map_or(0.0, |&(_, u)| u)
    }

    fn inf(&self) -> f64 {
        // Points are validated non-empty at construction; an empty curve
        // degenerates to zero utility rather than a panic.
        self.points.last().map_or(0.0, |&(_, u)| u)
    }

    fn latest_time(&self, level: f64) -> LatestTime {
        // bound: points is validated non-empty at construction
        let sup = self.points[0].1;
        let inf = self.inf();
        if level <= inf {
            return LatestTime::Always;
        }
        if level > sup + 1e-12 {
            return LatestTime::Never;
        }
        // Walk segments to find the last time with utility ≥ level.
        // bound: points is validated non-empty at construction
        let mut latest = self.points[0].0;
        for w in self.points.windows(2) {
            // bound: windows(2) yields exactly two elements
            let ((t0, u0), (t1, u1)) = (w[0], w[1]);
            if u1 >= level {
                latest = t1;
            } else if u0 >= level {
                // Crossing inside this segment.
                latest = t0 + (u0 - level) / (u0 - u1) * (t1 - t0);
            }
        }
        LatestTime::At(latest)
    }
}

/// The completion-time sensitivity classes of the paper's evaluation mix
/// (20 % critical / 60 % sensitive / 20 % insensitive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sensitivity {
    /// Utility drops rapidly past the budget (steep sigmoid).
    Critical,
    /// Utility drops gradually past the budget (gentle sigmoid).
    Sensitive,
    /// Utility does not depend on completion time (constant).
    Insensitive,
}

impl Sensitivity {
    /// Builds the utility the paper's evaluation assigns to this class:
    /// steep sigmoid (critical), gentle sigmoid (sensitive) or constant
    /// (insensitive), for time budget `budget` and priority `weight`.
    ///
    /// The steepness values are scaled to the budget so "steep" means the
    /// utility collapses within ~2 % of the budget past the deadline and
    /// "gentle" within ~25 %.
    ///
    /// # Errors
    ///
    /// Propagates [`UtilityError::InvalidParameter`] for non-positive
    /// budgets or weights.
    pub fn utility_for(self, budget: f64, weight: f64) -> Result<TimeUtility, UtilityError> {
        if !budget.is_finite() || budget <= 0.0 {
            return Err(UtilityError::InvalidParameter { name: "budget", value: budget });
        }
        match self {
            Sensitivity::Critical => TimeUtility::sigmoid(budget, weight, 50.0 / budget),
            Sensitivity::Sensitive => TimeUtility::sigmoid(budget, weight, 10.0 / budget),
            Sensitivity::Insensitive => TimeUtility::constant(weight),
        }
    }

    /// Whether the class cares about completion time at all.
    pub fn is_time_aware(self) -> bool {
        !matches!(self, Sensitivity::Insensitive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_non_increasing(u: &TimeUtility, horizon: f64) {
        let mut prev = f64::INFINITY;
        let mut t = 0.0;
        while t <= horizon {
            let v = u.utility(t);
            assert!(v <= prev + 1e-9, "utility increased at t={t}: {v} > {prev} for {u:?}");
            prev = v;
            t += horizon / 256.0;
        }
    }

    #[test]
    fn linear_shape_and_floor() {
        let u = TimeUtility::linear(100.0, 5.0, 0.1).unwrap();
        assert!((u.utility(100.0) - 5.0).abs() < 1e-12);
        assert!((u.utility(0.0) - 15.0).abs() < 1e-12);
        assert_eq!(u.utility(1e6), 0.0); // floored at zero
        assert_non_increasing(&u, 500.0);
    }

    #[test]
    fn linear_inverse_round_trips() {
        let u = TimeUtility::linear(100.0, 5.0, 0.1).unwrap();
        for level in [1.0, 2.5, 5.0, 10.0, 14.0] {
            match u.latest_time(level) {
                LatestTime::At(t) => {
                    assert!((u.utility(t) - level).abs() < 1e-9, "level {level}");
                }
                other => panic!("expected At, got {other:?}"),
            }
        }
        assert_eq!(u.latest_time(0.0), LatestTime::Always);
        assert_eq!(u.latest_time(-1.0), LatestTime::Always);
        assert_eq!(u.latest_time(16.0), LatestTime::Never);
    }

    #[test]
    fn sigmoid_is_corrected_direction() {
        // Regression for the paper's sign typo: utility must DROP as T grows.
        let u = TimeUtility::sigmoid(600.0, 5.0, 0.05).unwrap();
        assert!(u.utility(0.0) > u.utility(600.0));
        assert!(u.utility(600.0) > u.utility(1200.0));
        assert!((u.utility(600.0) - 2.5).abs() < 1e-12); // W/2 at the budget
        assert_non_increasing(&u, 3000.0);
    }

    #[test]
    fn sigmoid_inverse_round_trips() {
        let u = TimeUtility::sigmoid(600.0, 5.0, 0.05).unwrap();
        for level in [0.5, 1.0, 2.5, 4.0, 4.9] {
            match u.latest_time(level) {
                LatestTime::At(t) => {
                    assert!((u.utility(t) - level).abs() < 1e-9, "level {level}");
                }
                other => panic!("expected At, got {other:?}"),
            }
        }
        assert_eq!(u.latest_time(0.0), LatestTime::Always);
        assert_eq!(u.latest_time(6.0), LatestTime::Never);
    }

    #[test]
    fn sigmoid_inverse_clamps_high_levels_to_zero_time() {
        let u = TimeUtility::sigmoid(10.0, 5.0, 2.0).unwrap();
        let sup = u.sup();
        match u.latest_time(sup) {
            LatestTime::At(t) => assert_eq!(t, 0.0),
            other => panic!("expected At(0), got {other:?}"),
        }
    }

    #[test]
    fn sigmoid_steepness_orders_decay() {
        let steep = TimeUtility::sigmoid(100.0, 5.0, 0.5).unwrap();
        let gentle = TimeUtility::sigmoid(100.0, 5.0, 0.05).unwrap();
        // Past the budget the steep one collapses faster.
        assert!(steep.utility(120.0) < gentle.utility(120.0));
        // Before the budget the steep one holds value longer.
        assert!(steep.utility(80.0) > gentle.utility(80.0));
    }

    #[test]
    fn constant_is_flat() {
        let u = TimeUtility::constant(3.0).unwrap();
        assert_eq!(u.utility(0.0), 3.0);
        assert_eq!(u.utility(1e9), 3.0);
        assert_eq!(u.inf(), 3.0);
        assert_eq!(u.latest_time(3.0), LatestTime::Always);
        assert_eq!(u.latest_time(3.1), LatestTime::Never);
    }

    #[test]
    fn step_deadline() {
        let u = TimeUtility::step(50.0, 2.0).unwrap();
        assert_eq!(u.utility(50.0), 2.0);
        assert_eq!(u.utility(50.1), 0.0);
        assert_eq!(u.latest_time(1.0), LatestTime::At(50.0));
        assert_eq!(u.latest_time(2.5), LatestTime::Never);
        assert_eq!(u.latest_time(0.0), LatestTime::Always);
    }

    #[test]
    fn constructors_validate() {
        assert!(TimeUtility::linear(-1.0, 1.0, 1.0).is_err());
        assert!(TimeUtility::linear(1.0, 0.0, 1.0).is_err());
        assert!(TimeUtility::linear(1.0, 1.0, 0.0).is_err());
        assert!(TimeUtility::sigmoid(1.0, 1.0, f64::NAN).is_err());
        assert!(TimeUtility::constant(-2.0).is_err());
        assert!(TimeUtility::step(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn negative_times_are_clamped() {
        let u = TimeUtility::linear(10.0, 1.0, 1.0).unwrap();
        assert_eq!(u.utility(-5.0), u.utility(0.0));
    }

    #[test]
    fn accessors() {
        let u = TimeUtility::sigmoid(10.0, 4.0, 1.0).unwrap();
        assert_eq!(u.weight(), 4.0);
        assert_eq!(u.budget(), Some(10.0));
        let c = TimeUtility::constant(2.0).unwrap();
        assert_eq!(c.budget(), None);
    }

    #[test]
    fn latest_time_deadline_within() {
        assert_eq!(LatestTime::At(5.0).deadline_within(10.0), Some(5.0));
        assert_eq!(LatestTime::At(50.0).deadline_within(10.0), Some(10.0));
        assert_eq!(LatestTime::Always.deadline_within(10.0), Some(10.0));
        assert_eq!(LatestTime::Never.deadline_within(10.0), None);
    }

    #[test]
    fn sensitivity_classes() {
        let crit = Sensitivity::Critical.utility_for(100.0, 5.0).unwrap();
        let sens = Sensitivity::Sensitive.utility_for(100.0, 5.0).unwrap();
        let insens = Sensitivity::Insensitive.utility_for(100.0, 5.0).unwrap();
        // Critical collapses faster past budget than sensitive.
        assert!(crit.utility(110.0) < sens.utility(110.0));
        assert_eq!(insens.utility(110.0), insens.utility(0.0));
        assert!(Sensitivity::Critical.is_time_aware());
        assert!(!Sensitivity::Insensitive.is_time_aware());
        assert!(Sensitivity::Critical.utility_for(0.0, 5.0).is_err());
    }

    #[test]
    fn piecewise_shape_and_bounds() {
        let u = PiecewiseLinear::new(vec![(100.0, 5.0), (200.0, 1.0), (300.0, 0.0)]).unwrap();
        assert_eq!(u.utility(0.0), 5.0);
        assert_eq!(u.utility(100.0), 5.0);
        assert_eq!(u.utility(150.0), 3.0);
        assert_eq!(u.utility(250.0), 0.5);
        assert_eq!(u.utility(300.0), 0.0);
        assert_eq!(u.utility(1e9), 0.0);
        assert_eq!(u.sup(), 5.0);
        assert_eq!(u.inf(), 0.0);
        assert_eq!(u.points().len(), 3);
    }

    #[test]
    fn piecewise_is_non_increasing() {
        let u = PiecewiseLinear::new(vec![(10.0, 4.0), (20.0, 4.0), (50.0, 0.5)]).unwrap();
        let mut prev = f64::INFINITY;
        let mut t = 0.0;
        while t < 100.0 {
            let v = u.utility(t);
            assert!(v <= prev + 1e-12);
            prev = v;
            t += 0.5;
        }
    }

    #[test]
    fn piecewise_inverse_round_trips() {
        let u = PiecewiseLinear::new(vec![(100.0, 5.0), (200.0, 1.0)]).unwrap();
        for level in [1.5, 2.5, 4.0, 5.0] {
            match u.latest_time(level) {
                LatestTime::At(t) => {
                    assert!((u.utility(t) - level).abs() < 1e-9, "level {level} at t {t}");
                }
                other => panic!("level {level}: {other:?}"),
            }
        }
        assert_eq!(u.latest_time(0.5), LatestTime::Always); // below inf=1
        assert_eq!(u.latest_time(6.0), LatestTime::Never);
        // Flat-segment boundary: level = sup is attainable until the first
        // breakpoint time.
        assert_eq!(u.latest_time(5.0), LatestTime::At(100.0));
    }

    #[test]
    fn piecewise_validation() {
        assert!(PiecewiseLinear::new(vec![]).is_err());
        assert!(PiecewiseLinear::new(vec![(10.0, 1.0), (5.0, 0.5)]).is_err()); // time order
        assert!(PiecewiseLinear::new(vec![(10.0, 1.0), (20.0, 2.0)]).is_err()); // increasing
        assert!(PiecewiseLinear::new(vec![(10.0, -1.0)]).is_err()); // negative
        assert!(PiecewiseLinear::new(vec![(f64::NAN, 1.0)]).is_err());
        assert!(PiecewiseLinear::new(vec![(10.0, 2.0), (10.0, 1.0)]).is_err()); // dup time
    }

    #[test]
    fn piecewise_single_point_is_step_like() {
        let u = PiecewiseLinear::new(vec![(50.0, 2.0)]).unwrap();
        assert_eq!(u.utility(10.0), 2.0);
        assert_eq!(u.utility(100.0), 2.0); // constant after the last point
        assert_eq!(u.inf(), 2.0);
        assert_eq!(u.latest_time(2.0), LatestTime::Always);
    }

    #[test]
    fn error_display() {
        let e = UtilityError::InvalidParameter { name: "beta", value: -1.0 };
        assert!(e.to_string().contains("beta"));
    }
}
