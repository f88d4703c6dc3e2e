//! LP-based reference solution for the Time-Aware Scheduling problem.
//!
//! The paper (Sec. III-B) notes TAS "can be transformed and efficiently
//! solved using linear programming techniques (e.g., simplex method)" —
//! the approach of the authors' earlier CoRA scheduler — and proposes
//! onion peeling because the LP grows with jobs × time slots. This module
//! implements that LP path over a *deadline-interval* grid (the standard
//! aggregation: between two consecutive deadlines the capacity constraint
//! is a single pooled row), giving an independent oracle for the max-min
//! utility level that the test suite cross-validates against the onion
//! peel.

use super::{Problem, Relation, Solution};
use rush_core::onion::OnionJob;
use rush_core::CoreError;

/// Decides, via LP feasibility, whether every job can attain utility level
/// `level` simultaneously.
///
/// Variables `x[i][k] ≥ 0`: demand of job `i` served in deadline interval
/// `k`. Constraints: interval capacity `Σ_i x[i][k] ≤ C·len_k`, per-job
/// demand `Σ_{k: end_k ≤ d_i} x[i][k] ≥ η_i`.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] if `capacity == 0` or `horizon ≤ 0`.
pub fn level_feasible_lp(
    jobs: &[OnionJob<'_>],
    capacity: u32,
    horizon: f64,
    level: f64,
) -> Result<bool, CoreError> {
    if capacity == 0 {
        return Err(CoreError::InvalidConfig { reason: "capacity must be > 0" });
    }
    if !horizon.is_finite() || horizon <= 0.0 {
        return Err(CoreError::InvalidConfig { reason: "horizon must be > 0" });
    }
    // Deadlines; a Never with positive demand is immediately infeasible.
    let mut deadlines = Vec::with_capacity(jobs.len());
    for j in jobs {
        match j.utility.latest_time(level).deadline_within(horizon) {
            Some(d) => deadlines.push(d.max(0.0)),
            None => {
                if j.demand > 0 {
                    return Ok(false);
                }
                deadlines.push(0.0);
            }
        }
    }
    // Interval grid from the distinct positive deadlines.
    let mut bounds: Vec<f64> = deadlines.iter().copied().filter(|d| *d > 0.0).collect();
    bounds.sort_by(|a, b| a.total_cmp(b));
    bounds.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    if bounds.is_empty() {
        // No one needs anything (all demands of deadline-0 jobs must be 0).
        return Ok(jobs.iter().all(|j| j.demand == 0));
    }
    let n = jobs.len();
    let k = bounds.len();
    let var = |i: usize, kk: usize| i * k + kk;
    let mut p = Problem::maximize(vec![0.0; n * k]);
    // Interval capacities.
    let mut prev = 0.0;
    for (kk, &end) in bounds.iter().enumerate() {
        let mut row = vec![0.0; n * k];
        for i in 0..n {
            row[var(i, kk)] = 1.0;
        }
        p.constrain(row, Relation::Le, capacity as f64 * (end - prev));
        prev = end;
    }
    // Per-job demand before its own deadline; intervals past the deadline
    // are unusable (variable forced to 0 via an Le-0 row).
    for (i, j) in jobs.iter().enumerate() {
        if j.demand == 0 {
            continue;
        }
        let mut demand_row = vec![0.0; n * k];
        for (kk, &end) in bounds.iter().enumerate() {
            if end <= deadlines[i] + 1e-9 {
                demand_row[var(i, kk)] = 1.0;
            } else {
                let mut zero = vec![0.0; n * k];
                zero[var(i, kk)] = 1.0;
                p.constrain(zero, Relation::Le, 0.0);
            }
        }
        p.constrain(demand_row, Relation::Ge, j.demand as f64);
    }
    Ok(!matches!(p.solve(), Solution::Infeasible))
}

/// Computes the max-min utility level by bisection over LP feasibility —
/// the reference value for the onion peel's first layer.
///
/// # Errors
///
/// Propagates [`level_feasible_lp`]'s configuration errors.
pub fn max_min_level_lp(
    jobs: &[OnionJob<'_>],
    capacity: u32,
    tolerance: f64,
    horizon: f64,
) -> Result<f64, CoreError> {
    if !tolerance.is_finite() || tolerance <= 0.0 {
        return Err(CoreError::InvalidConfig { reason: "tolerance must be > 0" });
    }
    let mut lo = jobs.iter().map(|j| j.utility.inf()).fold(f64::INFINITY, f64::min);
    if !lo.is_finite() {
        lo = 0.0;
    }
    let hi0 = jobs.iter().map(|j| j.utility.sup()).fold(lo, f64::max);
    let mut hi = hi0 + tolerance;
    if !level_feasible_lp(jobs, capacity, horizon, lo)? {
        return Ok(lo);
    }
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        if level_feasible_lp(jobs, capacity, horizon, mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_core::onion::peel;
    use rush_utility::{TimeUtility, Utility};

    fn sigmoid(budget: f64, weight: f64, beta: f64) -> TimeUtility {
        TimeUtility::sigmoid(budget, weight, beta).unwrap()
    }

    #[test]
    fn single_job_level_matches_capacity_bound() {
        // Demand 800 on 8 containers ⇒ earliest completion 100; the max-min
        // level is U(100).
        let u = sigmoid(100.0, 5.0, 0.1);
        let jobs = [OnionJob { demand: 800, utility: &u }];
        let lvl = max_min_level_lp(&jobs, 8, 1e-4, 1e6).unwrap();
        let expect = u.utility(100.0);
        assert!((lvl - expect).abs() < 0.01, "lvl {lvl} vs U(100) {expect}");
    }

    #[test]
    fn lp_and_onion_agree_on_first_layer() {
        let a = sigmoid(80.0, 5.0, 0.1);
        let b = sigmoid(150.0, 4.0, 0.05);
        let c = sigmoid(300.0, 3.0, 0.02);
        let jobs = [
            OnionJob { demand: 300, utility: &a },
            OnionJob { demand: 500, utility: &b },
            OnionJob { demand: 400, utility: &c },
        ];
        let lp = max_min_level_lp(&jobs, 8, 1e-4, 1e6).unwrap();
        let targets = peel(&jobs, 8, 1e-4, 1e6).unwrap();
        let onion_min = targets.iter().map(|t| t.level).fold(f64::INFINITY, f64::min);
        assert!(
            (lp - onion_min).abs() < 0.02,
            "LP max-min {lp} vs onion min level {onion_min}"
        );
    }

    #[test]
    fn infeasible_level_detected() {
        let u = sigmoid(10.0, 5.0, 1.0);
        let jobs = [OnionJob { demand: 1000, utility: &u }];
        // Level 4.9 needs completion by ~budget 10 → 1000 > 8*10.
        assert!(!level_feasible_lp(&jobs, 8, 1e6, 4.9).unwrap());
        // Level 0 is always feasible (flat region: deadline → horizon).
        assert!(level_feasible_lp(&jobs, 8, 1e6, 0.0).unwrap());
        // A tiny positive level still induces a finite deadline (the
        // sigmoid tail reaches 1e-6 at ~budget + 15/beta), which this
        // demand cannot meet.
        assert!(!level_feasible_lp(&jobs, 8, 1e6, 1e-6).unwrap());
    }

    #[test]
    fn zero_demand_jobs_are_free() {
        let u = sigmoid(10.0, 1.0, 0.5);
        let jobs = [OnionJob { demand: 0, utility: &u }];
        assert!(level_feasible_lp(&jobs, 1, 1e6, 0.5).unwrap());
        // Above the sup with zero demand: Never but nothing needed.
        assert!(level_feasible_lp(&jobs, 1, 1e6, 2.0).unwrap());
    }

    #[test]
    fn validation() {
        let u = sigmoid(10.0, 1.0, 0.5);
        let jobs = [OnionJob { demand: 1, utility: &u }];
        assert!(level_feasible_lp(&jobs, 0, 1e6, 0.5).is_err());
        assert!(level_feasible_lp(&jobs, 1, 0.0, 0.5).is_err());
        assert!(max_min_level_lp(&jobs, 1, 0.0, 1e6).is_err());
    }
}
