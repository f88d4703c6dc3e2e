//! Admission control: the Theorem-2 prefix-capacity test applied at the
//! door.
//!
//! The offline pipeline assumes the job set is given; a daemon gets to
//! choose. Admitting a job the cluster cannot carry does not merely hurt
//! that job — the onion peel lowers the *max-min* utility level, so one
//! overcommitting arrival dilutes every resident job's guarantee. The
//! controller therefore probes, before a submission enters the job table,
//! whether the resident reservations plus the candidate still satisfy the
//! paper's Theorem 2 feasibility condition
//! `Σ_{k: T_k ≤ d} η_k ≤ C · d` for every deadline `d`
//! (via [`rush_core::onion::prefix_capacity_feasible`]).
//!
//! Verdicts:
//!
//! * feasible → **admit**;
//! * infeasible, candidate completion-time *insensitive* → **defer**: a
//!   constant-utility job loses nothing by waiting, so it is parked and
//!   re-probed at every epoch;
//! * infeasible, candidate time-sensitive → **reject**: its deadline
//!   cannot be met, and admitting it anyway would only spread the damage.
//!
//! The candidate's robust demand `η` is estimated exactly the way the
//! planner will estimate it once admitted (same estimator class, same
//! cold-start prior, same WCDE robustification), so admission and planning
//! never disagree about a job's size.

use crate::protocol::{Decision, JobSubmission};
use crate::ServeError;
use rush_core::cluster::ClusterModel;
use rush_core::onion::prefix_capacity_feasible;
use rush_core::RushConfig;

/// Estimates a job's robust remaining demand `η` (container·slots) and mean
/// task runtime `R` (slots) from its runtime samples, delegating to the
/// shared planner kernel's [`rush_planner::estimate_eta`] — the same
/// estimator + WCDE path the planner runs, so admission and planning never
/// disagree about a job's size.
///
/// With no samples yet, the submission's runtime hint (if any) seeds a
/// single pseudo-sample; otherwise the configured cold prior carries the
/// estimate.
///
/// # Errors
///
/// [`ServeError::Planner`] when estimation or robustification fails (e.g.
/// no samples and no prior).
pub fn estimate_eta(
    config: &RushConfig,
    samples: &[u64],
    runtime_hint: Option<f64>,
    remaining_tasks: usize,
) -> Result<(u64, f64), ServeError> {
    Ok(rush_planner::estimate_eta(config, samples, runtime_hint, remaining_tasks)?)
}

/// The admission deadline of a job: its declared budget, else the planning
/// horizon (an insensitive job still occupies `η` container·slots *by* the
/// horizon, which is what lets the probe detect saturation).
pub fn admission_deadline(config: &RushConfig, budget: Option<u64>) -> f64 {
    match budget {
        Some(b) => (b as f64).min(config.horizon).max(1.0),
        None => config.horizon,
    }
}

/// What is left of a job's [`admission_deadline`] once it has been resident
/// (admitted or parked) for `age` slots: waiting consumes deadline, not
/// demand. Never below one slot.
pub fn remaining_deadline(config: &RushConfig, budget: Option<u64>, age: f64) -> f64 {
    (admission_deadline(config, budget) - age).clamp(1.0, config.horizon)
}

/// Probes one new candidate against the resident reservations and returns
/// the verdict: [`probe_due`] with the candidate's whole
/// [`admission_deadline`] ahead of it.
pub fn probe(
    config: &RushConfig,
    capacity: u32,
    reservations: &[(f64, u64)],
    candidate: &JobSubmission,
    candidate_eta: u64,
) -> Decision {
    let deadline = admission_deadline(config, candidate.budget);
    probe_due(capacity, reservations, candidate, candidate_eta, deadline)
}

/// Probes one candidate that must finish `deadline` slots from now.
///
/// `reservations` are the `(remaining deadline, η)` pairs of currently
/// admitted jobs (deadlines in slots from now); the candidate is appended
/// with its own estimated `η` and `deadline`.
pub fn probe_due(
    capacity: u32,
    reservations: &[(f64, u64)],
    candidate: &JobSubmission,
    candidate_eta: u64,
    deadline: f64,
) -> Decision {
    let mut all = reservations.to_vec();
    all.push((deadline, candidate_eta));
    if prefix_capacity_feasible(&all, capacity) {
        Decision::Admit
    } else if candidate.is_insensitive() {
        Decision::Defer
    } else {
        Decision::Reject
    }
}

/// Decides whether a time-sensitive candidate that [`probe`] would reject
/// at the *current* (revocation-depressed) capacity deserves a
/// revocation-aware deferral instead.
///
/// Returns `true` — meaning the caller should park the job with
/// [`crate::protocol::DeferReason::AwaitingRestock`] — exactly when the
/// cluster model can both explain and price the deficit:
///
/// 1. the model predicts the deficit heals in `reclaim` slots
///    ([`ClusterModel::predicted_reclaim_slots`] attributes it
///    least-reliable-first; deficits reaching reserved capacity return
///    `None` and the reject stands);
/// 2. the candidate could still wait that long: `reclaim` is strictly
///    inside its [`admission_deadline`]; and
/// 3. once capacity is restored the candidate would actually fit: the
///    Theorem-2 probe passes at the *provisioned* capacity with the
///    candidate's deadline shrunk by the reclaim horizon (waiting consumes
///    deadline, not demand).
///
/// The verdict is advisory by construction — a parked job is re-probed
/// every epoch at whatever capacity then holds, so a wrong prediction
/// costs waiting time, never a guarantee.
pub fn reclaim_defer(
    config: &RushConfig,
    model: &ClusterModel,
    current_capacity: u32,
    reservations: &[(f64, u64)],
    candidate: &JobSubmission,
    candidate_eta: u64,
) -> bool {
    let Some(reclaim) = model.predicted_reclaim_slots(current_capacity) else {
        return false;
    };
    let deadline = admission_deadline(config, candidate.budget);
    let reclaim_f = reclaim as f64;
    if reclaim_f >= deadline {
        return false;
    }
    let mut all = reservations.to_vec();
    all.push((deadline - reclaim_f, candidate_eta));
    prefix_capacity_feasible(&all, model.total_capacity())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_utility::TimeUtility;

    fn cfg() -> RushConfig {
        RushConfig::default()
    }

    fn sub(utility: TimeUtility, budget: Option<u64>) -> JobSubmission {
        JobSubmission {
            label: "t".into(),
            tasks: 10,
            runtime_hint: Some(50.0),
            utility,
            budget,
            priority: 1,
        }
    }

    #[test]
    fn eta_scales_with_remaining_tasks() {
        let c = cfg();
        let (eta5, r5) = estimate_eta(&c, &[50, 60, 55], None, 5).expect("estimate");
        let (eta20, r20) = estimate_eta(&c, &[50, 60, 55], None, 20).expect("estimate");
        assert!(eta20 > eta5, "eta20={eta20} eta5={eta5}");
        assert!(r5 > 0.0 && r20 > 0.0);
        // Robustification only ever inflates the nominal demand.
        assert!(eta5 as f64 >= 5.0 * 50.0 * 0.5, "eta5={eta5}");
    }

    #[test]
    fn hint_seeds_the_cold_start() {
        let c = cfg();
        let (with_small_hint, _) = estimate_eta(&c, &[], Some(10.0), 10).expect("estimate");
        let (with_big_hint, _) = estimate_eta(&c, &[], Some(1000.0), 10).expect("estimate");
        assert!(
            with_big_hint > with_small_hint,
            "{with_big_hint} vs {with_small_hint}"
        );
        // No hint: the cold prior still produces an estimate.
        let (cold, _) = estimate_eta(&c, &[], None, 10).expect("cold prior");
        assert!(cold > 0);
    }

    #[test]
    fn feasible_candidate_is_admitted() {
        let c = cfg();
        let util = TimeUtility::sigmoid(1000.0, 3.0, 0.01).expect("valid");
        // 16 containers × 1000 slots of room, tiny resident load.
        let d = probe(&c, 16, &[(500.0, 100)], &sub(util, Some(1000)), 200);
        assert_eq!(d, Decision::Admit);
    }

    #[test]
    fn infeasible_sensitive_candidate_is_rejected() {
        let c = cfg();
        let util = TimeUtility::sigmoid(10.0, 3.0, 1.0).expect("valid");
        // Demand 10_000 by slot 10 on a 4-container cluster: hopeless.
        let d = probe(&c, 4, &[], &sub(util, Some(10)), 10_000);
        assert_eq!(d, Decision::Reject);
    }

    #[test]
    fn infeasible_insensitive_candidate_is_deferred() {
        let c = cfg();
        let util = TimeUtility::constant(1.0).expect("valid");
        // The horizon-deadline reservation already saturates the cluster, so
        // the insensitive candidate must wait.
        let full = (c.horizon, (c.horizon as u64) * 4);
        let d = probe(&c, 4, &[full], &sub(util, None), 10_000);
        assert_eq!(d, Decision::Defer);
    }

    #[test]
    fn admission_deadline_prefers_budget_and_clamps() {
        let c = cfg();
        assert!((admission_deadline(&c, Some(700)) - 700.0).abs() < 1e-12);
        assert!((admission_deadline(&c, None) - c.horizon).abs() < 1e-12);
        assert!((admission_deadline(&c, Some(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn reclaim_defer_upgrades_a_spot_outage_reject() {
        let c = cfg();
        let util = TimeUtility::sigmoid(500.0, 3.0, 1.0).expect("valid");
        let model = ClusterModel::tiered(8, 0, 8);
        let cand = sub(util, Some(500));
        // 8 of 16 containers are out (the whole spot pool, reclaim horizon
        // 60 slots). Demand 5000 by slot 500 fails at capacity 8
        // (8·500 = 4000) …
        assert_eq!(probe(&c, 8, &[], &cand, 5000), Decision::Reject);
        // … but fits at the provisioned 16 with 440 slots left
        // (16·440 = 7040): defer.
        assert!(reclaim_defer(&c, &model, 8, &[], &cand, 5000));
    }

    #[test]
    fn reclaim_defer_refuses_unpredictable_or_hopeless_deficits() {
        let c = cfg();
        let util = TimeUtility::sigmoid(500.0, 3.0, 1.0).expect("valid");
        let model = ClusterModel::tiered(8, 0, 8);
        let cand = sub(util, Some(500));

        // Deficit reaches reserved capacity: no reclaim prediction.
        assert!(!reclaim_defer(&c, &model, 4, &[], &cand, 3000));
        // No deficit at all: the reject was demand-side, not supply-side.
        assert!(!reclaim_defer(&c, &model, 16, &[], &cand, 100_000));
        // Infeasible even at provisioned capacity within the shrunk
        // deadline (16·440 = 7040): waiting cannot save it.
        assert!(!reclaim_defer(&c, &model, 8, &[], &cand, 7041));

        // Reclaim horizon at/over the deadline: too late to matter.
        let tight = sub(TimeUtility::sigmoid(40.0, 3.0, 1.0).expect("valid"), Some(40));
        assert!(!reclaim_defer(&c, &model, 8, &[], &tight, 10));
    }

    #[test]
    fn reclaim_defer_accounts_for_resident_reservations() {
        let c = cfg();
        let util = TimeUtility::sigmoid(500.0, 3.0, 1.0).expect("valid");
        let model = ClusterModel::tiered(8, 0, 8);
        let cand = sub(util, Some(500));
        // Alone it would fit after restock …
        assert!(reclaim_defer(&c, &model, 8, &[], &cand, 3000));
        // … but residents already hold most of the provisioned prefix.
        let resident = (440.0, 16u64 * 440 - 1000);
        assert!(!reclaim_defer(&c, &model, 8, &[resident], &cand, 3000));
    }
}
