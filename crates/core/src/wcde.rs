//! Worst-Case Distribution Estimation — Algorithm 2 of the paper.
//!
//! WCDE computes `η = max Ω⁻¹(θ)`: the largest θ-quantile attainable by any
//! distribution within KL divergence `δ` of the reference `φ`. Provisioning
//! `η` container·slots therefore guarantees `P(v ≤ η) ≥ θ` **for every**
//! distribution in the ambiguity ball — the robustness at the heart of RUSH.
//!
//! The quantile is monotone in the bin index, so a bisection over bins
//! suffices; each feasibility probe solves one closed-form REM instance
//! ([`crate::rem`]), giving `O(log bins)` total cost — the property that
//! keeps the scheduler lightweight (paper Fig. 5).

use crate::{rem, CoreError};
use rush_prob::Pmf;

/// Result of a WCDE solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WcdeResult {
    /// The worst-case θ-quantile as a bin index.
    pub eta_bin: usize,
    /// The demand to provision, in container·slots: the upper edge of
    /// `eta_bin` (`(eta_bin + 1) · bin_width`), so the guarantee holds for
    /// any demand realization quantized into that bin.
    pub eta: u64,
}

/// Computes the worst-case θ-quantile of the KL ball of radius `delta`
/// around `phi` (Algorithm 2).
///
/// A bin `L` is *feasible* when some distribution within the ball keeps at
/// most `θ` mass in bins `0..=L` (so its θ-quantile exceeds `L`); the REM
/// oracle decides this in closed form. Feasibility is monotone decreasing
/// in `L`, and the returned `eta_bin` is the largest feasible bin, or the
/// reference quantile bin if even `L = reference quantile` is infeasible
/// (which happens only for `δ = 0`-style degenerate inputs).
///
/// # Errors
///
/// * [`CoreError::InvalidTheta`] unless `θ ∈ (0, 1)`.
/// * [`CoreError::InvalidDelta`] if `δ` is negative or non-finite.
///
/// # Example
///
/// ```
/// use rush_core::wcde::worst_case_quantile;
/// use rush_prob::Pmf;
///
/// # fn main() -> Result<(), rush_core::CoreError> {
/// let phi = Pmf::from_weights(vec![0.1; 10], 1)?;
/// let nominal = worst_case_quantile(&phi, 0.9, 0.0)?;
/// let robust = worst_case_quantile(&phi, 0.9, 0.5)?;
/// assert!(robust.eta >= nominal.eta); // robustness only adds margin
/// # Ok(())
/// # }
/// ```
pub fn worst_case_quantile(phi: &Pmf, theta: f64, delta: f64) -> Result<WcdeResult, CoreError> {
    if !(0.0..1.0).contains(&theta) || theta <= 0.0 {
        return Err(CoreError::InvalidTheta(theta));
    }
    if !delta.is_finite() || delta < 0.0 {
        return Err(CoreError::InvalidDelta(delta));
    }
    let bins = phi.bins();
    let feasible = |l: usize| -> Result<bool, CoreError> { Ok(rem::min_kl(phi, l, theta)? <= delta + 1e-12) };

    // The last bin is never feasible: the head would cover all mass (1 > θ).
    let mut hi = bins - 1;
    if bins == 1 || feasible(hi)? {
        // Degenerate single-bin PMF (head==1 makes this unreachable for
        // bins > 1, but keep the guard total).
        let r = WcdeResult { eta_bin: hi, eta: (hi as u64 + 1) * phi.bin_width() };
        debug_check_wcde(phi, theta, delta, &r);
        return Ok(r);
    }
    let mut lo = 0usize;
    if !feasible(lo)? {
        // Even bin 0 cannot hold ≤ θ mass within the ball: every in-ball
        // distribution has its quantile at bin 0... except the reference
        // itself may place it higher; fall back to the reference quantile
        // so the provision never undershoots the nominal estimate.
        let qb = phi.quantile_bin(theta);
        let r = WcdeResult { eta_bin: qb, eta: (qb as u64 + 1) * phi.bin_width() };
        debug_check_wcde(phi, theta, delta, &r);
        return Ok(r);
    }
    // Invariant: feasible(lo), !feasible(hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // The worst case keeps ≤ θ mass at or below `lo`, so its θ-quantile sits
    // in bin lo+1 at the latest; provisioning to the reference quantile is a
    // floor so δ→0 never yields less than the nominal estimate.
    let eta_bin = (lo + 1).max(phi.quantile_bin(theta));
    let eta_bin = eta_bin.min(bins - 1);
    let r = WcdeResult { eta_bin, eta: (eta_bin as u64 + 1) * phi.bin_width() };
    debug_check_wcde(phi, theta, delta, &r);
    Ok(r)
}

/// Contract for Algorithm 2 (checked on every return path): `η` is the
/// upper edge of `eta_bin`, never undershoots the nominal quantile, and the
/// in-ball guarantee holds — no distribution within KL radius `δ` can push
/// its θ-quantile past `eta_bin` (the REM minimum one bin further already
/// exceeds `δ`). Debug builds only.
fn debug_check_wcde(phi: &Pmf, theta: f64, delta: f64, r: &WcdeResult) {
    if !cfg!(debug_assertions) {
        return;
    }
    debug_assert_eq!(
        r.eta,
        (r.eta_bin as u64 + 1) * phi.bin_width(),
        "WCDE contract: eta is not the upper edge of eta_bin"
    );
    debug_assert!(
        r.eta_bin >= phi.quantile_bin(theta),
        "WCDE contract: eta_bin {} undershoots nominal quantile bin {}",
        r.eta_bin,
        phi.quantile_bin(theta)
    );
    if r.eta_bin + 1 < phi.bins() {
        if let Ok(kl_next) = rem::min_kl(phi, r.eta_bin + 1, theta) {
            debug_assert!(
                kl_next > delta,
                "WCDE contract: bin {} beyond eta is still in-ball (KL {kl_next} <= δ {delta})",
                r.eta_bin + 1
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_prob::dist::{Continuous, Gaussian};

    fn uniform(bins: usize) -> Pmf {
        Pmf::from_weights(vec![1.0; bins], 1).unwrap()
    }

    #[test]
    fn zero_delta_matches_reference_quantile() {
        let phi = uniform(100);
        let r = worst_case_quantile(&phi, 0.9, 0.0).unwrap();
        let nominal = phi.quantile_bin(0.9);
        // Within one bin of the nominal quantile.
        assert!(
            r.eta_bin >= nominal && r.eta_bin <= nominal + 1,
            "eta_bin {} vs nominal {nominal}",
            r.eta_bin
        );
    }

    #[test]
    fn eta_grows_with_delta() {
        let g = Gaussian::new(500.0, 50.0).unwrap();
        let phi = g.quantize(1000, 1, 1e-12).unwrap();
        let mut prev = 0;
        for delta in [0.0, 0.1, 0.3, 0.7, 1.4] {
            let r = worst_case_quantile(&phi, 0.9, delta).unwrap();
            assert!(r.eta >= prev, "eta must grow with delta (delta={delta})");
            prev = r.eta;
        }
    }

    #[test]
    fn eta_grows_with_theta() {
        let g = Gaussian::new(500.0, 50.0).unwrap();
        let phi = g.quantize(1000, 1, 1e-12).unwrap();
        let mut prev = 0;
        for theta in [0.5, 0.7, 0.9, 0.99] {
            let r = worst_case_quantile(&phi, theta, 0.5).unwrap();
            assert!(r.eta >= prev, "eta must grow with theta (theta={theta})");
            prev = r.eta;
        }
    }

    #[test]
    fn worst_case_quantile_guarantee_holds() {
        // For the returned eta, the REM minimum at eta_bin+1 must exceed
        // delta: no in-ball distribution can push its quantile past eta.
        let g = Gaussian::new(200.0, 30.0).unwrap();
        let phi = g.quantize(400, 1, 1e-12).unwrap();
        let (theta, delta) = (0.9, 0.4);
        let r = worst_case_quantile(&phi, theta, delta).unwrap();
        if r.eta_bin + 1 < phi.bins() {
            let kl_next = crate::rem::min_kl(&phi, r.eta_bin + 1, theta).unwrap();
            assert!(
                kl_next > delta,
                "bin {} beyond eta should be infeasible (kl {kl_next} <= {delta})",
                r.eta_bin + 1
            );
        }
    }

    #[test]
    fn impulse_reference_is_robustified() {
        // Mean-estimator style impulse: the KL ball around an impulse with
        // a *smoothing* support floor lets mass shift to the tail. (A
        // too-small floor like 1e-9 makes tail mass cost > δ in KL and the
        // robust quantile collapses to the nominal one — by design.)
        let phi = Pmf::impulse(100, 50, 1).unwrap().with_support_floor(1e-4).unwrap();
        let r0 = worst_case_quantile(&phi, 0.9, 0.0).unwrap();
        let r = worst_case_quantile(&phi, 0.9, 0.7).unwrap();
        assert!(r0.eta_bin >= 50);
        assert!(r.eta > r0.eta, "robust eta {} should exceed nominal {}", r.eta, r0.eta);
    }

    #[test]
    fn eta_scales_with_bin_width() {
        let phi = Pmf::from_weights(vec![1.0; 50], 10).unwrap();
        let r = worst_case_quantile(&phi, 0.9, 0.2).unwrap();
        assert_eq!(r.eta, (r.eta_bin as u64 + 1) * 10);
    }

    #[test]
    fn parameter_validation() {
        let phi = uniform(10);
        assert!(matches!(worst_case_quantile(&phi, 0.0, 0.1), Err(CoreError::InvalidTheta(_))));
        assert!(matches!(worst_case_quantile(&phi, 1.0, 0.1), Err(CoreError::InvalidTheta(_))));
        assert!(matches!(worst_case_quantile(&phi, 0.9, -0.1), Err(CoreError::InvalidDelta(_))));
        assert!(matches!(
            worst_case_quantile(&phi, 0.9, f64::NAN),
            Err(CoreError::InvalidDelta(_))
        ));
    }

    #[test]
    fn single_bin_pmf_is_total() {
        let phi = Pmf::from_weights(vec![1.0], 5).unwrap();
        let r = worst_case_quantile(&phi, 0.9, 0.3).unwrap();
        assert_eq!(r.eta_bin, 0);
        assert_eq!(r.eta, 5);
    }

    #[test]
    fn large_delta_pushes_to_tail() {
        let phi = uniform(100);
        // δ large enough to push almost all mass into the tail.
        let r = worst_case_quantile(&phi, 0.9, 5.0).unwrap();
        assert!(r.eta_bin > 95, "eta_bin={}", r.eta_bin);
    }
}
