//! The Relative-Entropy-Minimization oracle — Algorithm 1 of the paper.
//!
//! Given a reference PMF `φ`, a target bin `L` and a percentile `θ`, REM
//! asks: what is the *smallest* KL divergence `D(p‖φ)` over distributions
//! `p` whose head mass satisfies `Σ_{l≤L} p_l ≤ θ`? If that minimum is
//! within the ambiguity radius `δ`, some distribution in the KL ball puts
//! its θ-quantile above `L` — the feasibility test inside the WCDE
//! bisection.
//!
//! The KKT conditions split the optimum into two groups (eq. 11): bins
//! `0..=L` carry a rescaled copy of `φ`'s head normalized to mass `θ`, and
//! bins `L+1..` carry a rescaled copy of the tail normalized to `1 − θ` —
//! unless the head constraint is already slack, in which case `p = φ`
//! (KL = 0). Theorem 1: this closed form is optimal.

use crate::CoreError;
use rush_prob::Pmf;

/// The outcome of one REM solve.
#[derive(Debug, Clone, PartialEq)]
pub enum RemSolution {
    /// The reference itself satisfies the head constraint: `p = φ`, KL 0.
    Reference,
    /// The two-group reweighting of eq. (11), with its KL divergence from
    /// the reference.
    Reweighted {
        /// The optimal distribution `p*`.
        pmf: Pmf,
        /// `D(p* ‖ φ)` in nats.
        kl: f64,
    },
    /// No feasible distribution exists: the reference has (numerically) no
    /// mass beyond bin `L`, so the tail cannot absorb `1 − θ` without
    /// infinite divergence.
    Infeasible,
}

impl RemSolution {
    /// The minimal KL divergence (`0`, finite, or `+∞`).
    pub fn kl(&self) -> f64 {
        match self {
            RemSolution::Reference => 0.0,
            RemSolution::Reweighted { kl, .. } => *kl,
            RemSolution::Infeasible => f64::INFINITY,
        }
    }

    /// The optimal distribution, if one exists. `Reference` returns `None`
    /// because the caller already holds `φ`.
    pub fn pmf(&self) -> Option<&Pmf> {
        match self {
            RemSolution::Reweighted { pmf, .. } => Some(pmf),
            _ => None,
        }
    }
}

/// Solves REM in closed form (Algorithm 1, Theorem 1).
///
/// `l_bin` is the last head bin `L`; `theta` the percentile constraint on
/// the head mass.
///
/// # Errors
///
/// [`CoreError::InvalidTheta`] unless `θ ∈ (0, 1)`.
pub fn solve(phi: &Pmf, l_bin: usize, theta: f64) -> Result<RemSolution, CoreError> {
    let (head, tail) = match split_masses(phi, l_bin, theta)? {
        Split::Reference => return Ok(RemSolution::Reference),
        Split::Infeasible => return Ok(RemSolution::Infeasible),
        Split::Tight { head, tail } => (head, tail),
    };
    // Eq. (11): head bins scaled by θ/head, tail bins by (1−θ)/tail.
    let head_scale = theta / head;
    let tail_scale = (1.0 - theta) / tail;
    let weights: Vec<f64> = phi
        .probs()
        .iter()
        .enumerate()
        .map(|(l, &p)| if l <= l_bin { p * head_scale } else { p * tail_scale })
        .collect();
    let pmf = Pmf::from_weights(weights, phi.bin_width())?;
    let kl = closed_form_kl(head, tail, theta);
    if cfg!(debug_assertions) {
        // Contract (Theorem 1 / eq. 11): the reweighted head carries mass
        // exactly θ, and the closed-form divergence agrees with a direct
        // D(p*‖φ) evaluation.
        let head_after: f64 = pmf.probs().iter().take(l_bin + 1).sum();
        debug_assert!(
            (head_after - theta).abs() < 1e-9,
            "REM contract: reweighted head mass {head_after} != θ {theta}"
        );
        debug_assert!(kl.is_finite() && kl >= 0.0, "REM contract: KL {kl} not finite/non-negative");
        if let Ok(direct) = pmf.kl_divergence(phi) {
            debug_assert!(
                (kl - direct).abs() < 1e-9,
                "REM contract: closed-form KL {kl} disagrees with direct {direct}"
            );
        }
    }
    Ok(RemSolution::Reweighted { pmf, kl })
}

enum Split {
    Reference,
    Infeasible,
    Tight { head: f64, tail: f64 },
}

/// Shared validation + head/tail mass computation. O(1): the head mass is
/// the PMF's cached prefix sum, not a fresh O(bins) summation.
fn split_masses(phi: &Pmf, l_bin: usize, theta: f64) -> Result<Split, CoreError> {
    if !(0.0..1.0).contains(&theta) || theta <= 0.0 {
        return Err(CoreError::InvalidTheta(theta));
    }
    let head = phi.head_mass(l_bin);
    if head <= theta {
        return Ok(Split::Reference);
    }
    let tail = 1.0 - head;
    if tail <= f64::EPSILON {
        return Ok(Split::Infeasible);
    }
    Ok(Split::Tight { head, tail })
}

/// D(p‖φ) collapses to θ·ln(θ/head) + (1−θ)·ln((1−θ)/tail) because the
/// within-group shape is unchanged (Theorem 1).
fn closed_form_kl(head: f64, tail: f64, theta: f64) -> f64 {
    let kl = theta * (theta / head).ln() + (1.0 - theta) * ((1.0 - theta) / tail).ln();
    kl.max(0.0)
}

/// The minimal KL divergence for the head constraint at `l_bin` — the value
/// the WCDE bisection compares against `δ`.
///
/// Allocation-free: unlike [`solve`] it never materializes the reweighted
/// distribution, so each probe of the bisection is O(1).
///
/// # Errors
///
/// [`CoreError::InvalidTheta`] unless `θ ∈ (0, 1)`.
pub fn min_kl(phi: &Pmf, l_bin: usize, theta: f64) -> Result<f64, CoreError> {
    Ok(match split_masses(phi, l_bin, theta)? {
        Split::Reference => 0.0,
        Split::Infeasible => f64::INFINITY,
        Split::Tight { head, tail } => closed_form_kl(head, tail, theta),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pmf(ws: &[f64]) -> Pmf {
        Pmf::from_weights(ws.to_vec(), 1).unwrap()
    }

    #[test]
    fn slack_constraint_returns_reference() {
        let phi = pmf(&[0.1, 0.1, 0.8]);
        // head at L=1 is 0.2 ≤ θ=0.5 → reference optimal.
        let sol = solve(&phi, 1, 0.5).unwrap();
        assert_eq!(sol, RemSolution::Reference);
        assert_eq!(sol.kl(), 0.0);
        assert!(sol.pmf().is_none());
    }

    #[test]
    fn tight_constraint_reweights() {
        let phi = pmf(&[0.6, 0.2, 0.2]);
        // head at L=0 is 0.6 > θ=0.5.
        let sol = solve(&phi, 0, 0.5).unwrap();
        let RemSolution::Reweighted { pmf: p, kl } = &sol else {
            panic!("expected reweighted, got {sol:?}")
        };
        assert!((p.prob(0) - 0.5).abs() < 1e-12);
        // Tail keeps its internal shape: 0.2/0.2 split of mass 0.5.
        assert!((p.prob(1) - 0.25).abs() < 1e-12);
        assert!((p.prob(2) - 0.25).abs() < 1e-12);
        assert!(*kl > 0.0);
        // KL check by direct computation.
        let direct = p.kl_divergence(&phi).unwrap();
        assert!((kl - direct).abs() < 1e-12, "closed-form {kl} vs direct {direct}");
    }

    #[test]
    fn head_mass_exactly_theta_after_reweight() {
        let phi = pmf(&[0.3, 0.3, 0.2, 0.2]);
        let theta = 0.4;
        let sol = solve(&phi, 1, theta).unwrap();
        let p = sol.pmf().unwrap();
        let head: f64 = p.probs()[..2].iter().sum();
        assert!((head - theta).abs() < 1e-12);
        assert!(p.is_normalized());
    }

    #[test]
    fn infeasible_when_tail_empty() {
        let phi = pmf(&[0.5, 0.5, 0.0]);
        // L=1 covers all mass; 1−θ must go beyond — impossible.
        let sol = solve(&phi, 1, 0.9).unwrap();
        assert_eq!(sol, RemSolution::Infeasible);
        assert_eq!(sol.kl(), f64::INFINITY);
    }

    #[test]
    fn l_beyond_support_is_infeasible_when_head_exceeds() {
        let phi = pmf(&[0.5, 0.5]);
        let sol = solve(&phi, 5, 0.9).unwrap();
        assert_eq!(sol, RemSolution::Infeasible);
    }

    #[test]
    fn theta_validation() {
        let phi = pmf(&[1.0, 1.0]);
        assert!(matches!(solve(&phi, 0, 0.0), Err(CoreError::InvalidTheta(_))));
        assert!(matches!(solve(&phi, 0, 1.0), Err(CoreError::InvalidTheta(_))));
        assert!(matches!(solve(&phi, 0, -0.1), Err(CoreError::InvalidTheta(_))));
        assert!(matches!(solve(&phi, 0, 1.7), Err(CoreError::InvalidTheta(_))));
    }

    #[test]
    fn min_kl_monotone_in_l() {
        // Larger L ⇒ more constrained head ⇒ KL non-decreasing.
        let phi = pmf(&[0.2, 0.2, 0.2, 0.2, 0.1, 0.1]);
        let theta = 0.3;
        let mut prev = 0.0;
        for l in 0..5 {
            let kl = min_kl(&phi, l, theta).unwrap();
            assert!(kl + 1e-12 >= prev, "KL dipped at L={l}");
            prev = kl;
        }
    }

    #[test]
    fn min_kl_bit_identical_to_solve() {
        let phi = pmf(&[0.25, 0.3, 0.2, 0.15, 0.1]);
        for theta in [0.05, 0.3, 0.5, 0.7, 0.9, 0.99] {
            for l in 0..7 {
                let fast = min_kl(&phi, l, theta).unwrap();
                let full = solve(&phi, l, theta).unwrap().kl();
                assert!(
                    fast == full || (fast.is_infinite() && full.is_infinite()),
                    "min_kl {fast} != solve().kl() {full} at L={l}, θ={theta}"
                );
            }
        }
    }

    #[test]
    fn kl_optimality_against_perturbations() {
        // The closed form must beat hand-constructed feasible alternatives.
        let phi = pmf(&[0.4, 0.3, 0.2, 0.1]);
        let theta = 0.5;
        let l = 1;
        let star = min_kl(&phi, l, theta).unwrap();
        // Alternatives: push different head/tail splits.
        for head_mass in [0.1, 0.2, 0.3, 0.4, 0.45, 0.49] {
            let h: f64 = phi.probs()[..=l].iter().sum();
            let t = 1.0 - h;
            let ws: Vec<f64> = phi
                .probs()
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    if i <= l {
                        p * head_mass / h
                    } else {
                        p * (1.0 - head_mass) / t
                    }
                })
                .collect();
            let alt = Pmf::from_weights(ws, 1).unwrap();
            let alt_head: f64 = alt.probs()[..=l].iter().sum();
            assert!(alt_head <= theta + 1e-9, "alternative must be feasible");
            let alt_kl = alt.kl_divergence(&phi).unwrap();
            assert!(
                alt_kl + 1e-12 >= star,
                "closed form {star} beaten by alternative {alt_kl} (head {head_mass})"
            );
        }
    }
}
