//! Spot-scenario workload templates: named cluster trajectories that pair
//! the PUMA job mix with a tiered, churning container supply.
//!
//! A [`SpotScenario`] is to the cluster what a
//! [`JobTemplate`](crate::templates::JobTemplate) is to a job: a named,
//! parameterized shape. Each scenario splits a nominal capacity into a
//! reserved core and a spot-market remainder, then schedules periodic bulk
//! revocations of the spot tier — the recurring price-spike reclamations
//! described in the spot-instance literature (see PAPERS.md). The
//! `revocation_rate` is the outage duty cycle: the fraction of each churn
//! period the spot tier spends revoked, which is also the expected
//! fractional capacity loss on that tier.

use rush_core::cluster::ClusterModel;
use rush_sim::cluster::CapacityEvent as SimCapacityEvent;
use rush_sim::Slot;

/// A named spot-market scenario: how much of the supply is reserved, and
/// how violently the remainder churns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotScenario {
    /// Scenario name (stable; used in bench tables and JSON artifacts).
    pub name: &'static str,
    /// Fraction of nominal capacity bought as reserved instances
    /// (`0 < reserved_frac ≤ 1`); the rest is spot.
    pub reserved_frac: f64,
    /// Outage duty cycle of the spot tier, `0 ≤ rate < 1`: each churn
    /// period, the whole spot tier is revoked for `rate × period` slots.
    pub revocation_rate: f64,
    /// Churn period in slots (one revoke/restock cycle per period).
    pub period: Slot,
}

impl SpotScenario {
    /// Splits `capacity` into `(reserved, spot)` counts. The reserved core
    /// is rounded up and never empty, so revoking the whole spot tier can
    /// never revoke the whole cluster.
    pub fn split(&self, capacity: u32) -> (u32, u32) {
        let reserved =
            ((f64::from(capacity) * self.reserved_frac).ceil() as u32).clamp(1, capacity);
        (reserved, capacity - reserved)
    }

    /// Builds the scenario's [`ClusterModel`] at nominal `capacity`, with
    /// churn cycles covering `horizon` slots.
    ///
    /// The model always validates: outages are clamped strictly inside the
    /// period (no overlapping revocations) and the reserved core survives
    /// every revocation. A zero rate, a zero horizon, or an all-reserved
    /// split yields a calm tiered model with no events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0, `reserved_frac` is not in `(0, 1]`, or
    /// `revocation_rate` is not in `[0, 1)` — scenario tables are static
    /// data, so malformed entries are programmer error.
    pub fn cluster_model(&self, capacity: u32, horizon: Slot) -> ClusterModel {
        assert!(capacity > 0, "scenario needs capacity");
        assert!(
            self.reserved_frac > 0.0 && self.reserved_frac <= 1.0,
            "reserved_frac must be in (0, 1]"
        );
        assert!(
            (0.0..1.0).contains(&self.revocation_rate),
            "revocation_rate must be in [0, 1)"
        );
        let (reserved, spot) = self.split(capacity);
        let model = ClusterModel::tiered(reserved, 0, spot);
        let outage = (self.revocation_rate * self.period as f64).round() as Slot;
        if spot == 0 || outage == 0 || horizon == 0 {
            return model;
        }
        let outage = outage.min(self.period - 1);
        // Class 1 is the spot class: `tiered` omits the zero-count
        // on-demand class, and reserved ≥ 1 keeps index 0.
        let cycles = (horizon / self.period + 1) as u32;
        model.with_spot_churn(1, self.period / 2, self.period, outage, spot, cycles)
    }

    /// The scenario's trajectory lowered onto the simulator's class-free
    /// capacity events (see [`ClusterModel::sim_events`]).
    pub fn sim_events(&self, capacity: u32, horizon: Slot) -> Vec<SimCapacityEvent> {
        self.cluster_model(capacity, horizon).sim_events()
    }
}

/// The four named scenarios bench binaries sweep: a calm control, two
/// intermediate churn levels, and a spot-storm where the spot half of the
/// cluster is gone most of the time.
pub fn spot_scenarios() -> [SpotScenario; 4] {
    [
        SpotScenario { name: "calm", reserved_frac: 0.5, revocation_rate: 0.0, period: 400 },
        SpotScenario {
            name: "light-churn",
            reserved_frac: 0.5,
            revocation_rate: 0.2,
            period: 400,
        },
        SpotScenario {
            name: "heavy-churn",
            reserved_frac: 0.5,
            revocation_rate: 0.45,
            period: 400,
        },
        SpotScenario {
            name: "spot-storm",
            reserved_frac: 0.5,
            revocation_rate: 0.7,
            period: 400,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rush_core::cluster::ReliabilityTier;
    use rush_sim::cluster::validate_capacity_events;

    #[test]
    fn named_scenarios_build_valid_models() {
        for s in spot_scenarios() {
            let model = s.cluster_model(48, 10_000);
            model.validate().unwrap_or_else(|e| panic!("{}: {e}", s.name));
            assert_eq!(model.total_capacity(), 48, "{}", s.name);
            validate_capacity_events(48, &s.sim_events(48, 10_000))
                .unwrap_or_else(|e| panic!("{}: {e:?}", s.name));
        }
    }

    #[test]
    fn calm_scenario_has_no_events() {
        let calm = spot_scenarios()[0];
        assert!(calm.sim_events(48, 10_000).is_empty());
    }

    #[test]
    fn churn_scales_with_rate() {
        let light =
            SpotScenario { name: "light", reserved_frac: 0.5, revocation_rate: 0.2, period: 400 };
        let heavy = SpotScenario { revocation_rate: 0.6, ..light };
        // Same cycle count, longer outages.
        let ev_l = light.sim_events(48, 4_000);
        let ev_h = heavy.sim_events(48, 4_000);
        assert_eq!(ev_l.len(), ev_h.len());
        assert!(!ev_l.is_empty());
    }

    #[test]
    fn reserved_core_survives_every_revocation() {
        let storm = spot_scenarios()[3];
        let model = storm.cluster_model(48, 100_000);
        let (reserved, spot) = storm.split(48);
        assert_eq!(reserved, 24);
        assert_eq!(spot, 24);
        assert_eq!(model.classes[0].tier, ReliabilityTier::Reserved);
        // Low-water mark across the whole trajectory never dips below the
        // reserved core.
        let mut cap = model.total_capacity();
        let mut low = cap;
        for e in &model.events {
            match e.change {
                rush_core::cluster::CapacityChange::Revoke { n, .. } => cap -= n,
                rush_core::cluster::CapacityChange::Restock { n, .. } => cap += n,
            }
            low = low.min(cap);
        }
        assert_eq!(low, reserved);
    }

    #[test]
    fn tiny_clusters_and_extreme_fracs_stay_sane() {
        let s = SpotScenario { name: "t", reserved_frac: 0.01, revocation_rate: 0.5, period: 10 };
        let (reserved, spot) = s.split(1);
        assert_eq!((reserved, spot), (1, 0));
        assert!(s.sim_events(1, 1_000).is_empty(), "no spot tier, no churn");
        let all_reserved =
            SpotScenario { name: "r", reserved_frac: 1.0, revocation_rate: 0.9, period: 10 };
        assert!(all_reserved.sim_events(48, 1_000).is_empty());
    }

    #[test]
    #[should_panic(expected = "revocation_rate")]
    fn full_revocation_rate_is_rejected() {
        let s =
            SpotScenario { name: "full", reserved_frac: 0.5, revocation_rate: 1.0, period: 400 };
        s.cluster_model(48, 100);
    }
}
