//! A typed model of the cluster's container supply.
//!
//! The paper treats capacity `C` as a scalar constant; real shared clouds
//! are tiered: some containers are *reserved* (never reclaimed), some are
//! *on-demand* (reclaimed rarely, e.g. by correlated node failures), and
//! some are *spot* (cheap, revoked whenever the market moves). RUSH's
//! δ-ball already hedges demand-side uncertainty; this module supplies the
//! supply-side counterpart: a [`ClusterModel`] describing container
//! classes with prices and reliability tiers, plus a deterministic stream
//! of class-tagged capacity events.
//!
//! The simulator itself is class-free (`rush_sim::cluster::CapacityEvent`
//! carries only a count); [`ClusterModel::sim_events`] lowers the typed
//! stream onto it. The typed view is what the planner and the serve layer
//! consume: [`ClusterModel::predicted_reclaim_slots`] turns a capacity
//! deficit into a tier-informed estimate of when the lost containers come
//! back, which is what revocation-aware admission defers against.

use crate::error::CoreError;
use rush_sim::cluster::{
    CapacityChange as SimCapacityChange, CapacityEvent as SimCapacityEvent,
};
use rush_sim::Slot;

/// How likely a container class is to be reclaimed by the provider, and
/// how quickly reclaimed capacity tends to return.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ReliabilityTier {
    /// Capacity the operator owns outright; leaves only on node failure.
    Reserved,
    /// Pay-as-you-go capacity; reclaimed rarely and restored slowly.
    OnDemand,
    /// Preemptible market capacity; revoked often but restored quickly
    /// (the market churns on the scale of minutes, not hours).
    Spot,
}

impl ReliabilityTier {
    /// Predicted slots until capacity revoked from this tier is restored,
    /// or `None` when no prediction is defensible (reserved capacity only
    /// leaves on failures, whose repair time this model does not know).
    pub fn predicted_reclaim_slots(self) -> Option<Slot> {
        match self {
            ReliabilityTier::Reserved => None,
            ReliabilityTier::OnDemand => Some(240),
            ReliabilityTier::Spot => Some(60),
        }
    }

    /// Tiers ordered least-reliable first — the order in which a capacity
    /// deficit is attributed to classes (spot capacity vanishes first).
    fn least_reliable_first() -> [ReliabilityTier; 3] {
        [ReliabilityTier::Spot, ReliabilityTier::OnDemand, ReliabilityTier::Reserved]
    }

    /// Stable wire form used by snapshots and diagnostics.
    pub fn as_str(self) -> &'static str {
        match self {
            ReliabilityTier::Reserved => "reserved",
            ReliabilityTier::OnDemand => "on-demand",
            ReliabilityTier::Spot => "spot",
        }
    }

    /// Parses the wire form produced by [`ReliabilityTier::as_str`].
    pub fn from_wire(s: &str) -> Option<ReliabilityTier> {
        match s {
            "reserved" => Some(ReliabilityTier::Reserved),
            "on-demand" => Some(ReliabilityTier::OnDemand),
            "spot" => Some(ReliabilityTier::Spot),
            _ => None,
        }
    }
}

/// One class of interchangeable containers.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerClass {
    /// Class name (unique within a model), e.g. `"spot-m4"`.
    pub name: String,
    /// Containers of this class provisioned at slot 0.
    pub count: u32,
    /// Price per container·slot, in arbitrary consistent units.
    pub price: f64,
    /// Reliability tier.
    pub tier: ReliabilityTier,
}

/// A class-tagged change to the container supply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityChange {
    /// The provider reclaims `n` containers of class `class`.
    Revoke {
        /// Index into [`ClusterModel::classes`].
        class: usize,
        /// Containers reclaimed; must be ≥ 1.
        n: u32,
    },
    /// The provider restores `n` previously revoked containers of `class`.
    Restock {
        /// Index into [`ClusterModel::classes`].
        class: usize,
        /// Containers restored; must be ≥ 1.
        n: u32,
    },
}

/// A [`CapacityChange`] scheduled at an absolute slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityEvent {
    /// Slot at which the change takes effect.
    pub at: Slot,
    /// The change.
    pub change: CapacityChange,
}

/// A tiered container supply with a deterministic capacity-event stream.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClusterModel {
    /// Container classes; at least one, with unique names.
    pub classes: Vec<ContainerClass>,
    /// Scheduled capacity changes, sorted by slot.
    pub events: Vec<CapacityEvent>,
}

impl ClusterModel {
    /// The scalar-capacity special case: one reserved class, no events.
    /// Every pre-existing call site that passed a plain `capacity: u32`
    /// lowers onto this.
    pub fn fixed(capacity: u32) -> Self {
        ClusterModel {
            classes: vec![ContainerClass {
                name: "reserved".into(),
                count: capacity,
                price: 1.0,
                tier: ReliabilityTier::Reserved,
            }],
            events: Vec::new(),
        }
    }

    /// A three-tier supply with conventional relative prices (on-demand
    /// at a premium over reserved, spot at a deep discount). Classes with
    /// zero count are omitted.
    pub fn tiered(reserved: u32, on_demand: u32, spot: u32) -> Self {
        let mut classes = Vec::new();
        if reserved > 0 {
            classes.push(ContainerClass {
                name: "reserved".into(),
                count: reserved,
                price: 1.0,
                tier: ReliabilityTier::Reserved,
            });
        }
        if on_demand > 0 {
            classes.push(ContainerClass {
                name: "on-demand".into(),
                count: on_demand,
                price: 1.25,
                tier: ReliabilityTier::OnDemand,
            });
        }
        if spot > 0 {
            classes.push(ContainerClass {
                name: "spot".into(),
                count: spot,
                price: 0.4,
                tier: ReliabilityTier::Spot,
            });
        }
        ClusterModel { classes, events: Vec::new() }
    }

    /// Appends a periodic spot-churn schedule: every `period` slots
    /// starting at `start`, `n` containers of `class` are revoked and
    /// restored `outage` slots later, for `cycles` cycles. Models the
    /// recurring price-spike reclamations of a spot market.
    pub fn with_spot_churn(
        mut self,
        class: usize,
        start: Slot,
        period: Slot,
        outage: Slot,
        n: u32,
        cycles: u32,
    ) -> Self {
        for k in 0..cycles as u64 {
            let at = start.saturating_add(k.saturating_mul(period));
            self.events.push(CapacityEvent { at, change: CapacityChange::Revoke { class, n } });
            self.events
                .push(CapacityEvent { at: at.saturating_add(outage), change: CapacityChange::Restock { class, n } });
        }
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// Total provisioned capacity at slot 0 (before any events), saturating
    /// at `u32::MAX`: [`validate`](Self::validate) refuses a model whose
    /// classes add up past it.
    pub fn total_capacity(&self) -> u32 {
        self.classes.iter().fold(0, |total, c| total.saturating_add(c.count))
    }

    /// Checks internal consistency. Required before handing the model to
    /// the sim or serve layers; [`ClusterModel::sim_events`] assumes it.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidClusterModel`] naming the first inconsistency.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.classes.is_empty() {
            return Err(CoreError::InvalidClusterModel { reason: "cluster model needs at least one container class" });
        }
        for c in &self.classes {
            if c.name.is_empty() {
                return Err(CoreError::InvalidClusterModel { reason: "container class name must be non-empty" });
            }
            if !(c.price.is_finite() && c.price >= 0.0) {
                return Err(CoreError::InvalidClusterModel { reason: "container class price must be finite and >= 0" });
            }
        }
        for (i, a) in self.classes.iter().enumerate() {
            if self.classes.iter().take(i).any(|b| b.name == a.name) {
                return Err(CoreError::InvalidClusterModel { reason: "container class names must be unique" });
            }
        }
        match self.classes.iter().try_fold(0u32, |total, c| total.checked_add(c.count)) {
            None => return Err(CoreError::InvalidClusterModel { reason: "cluster model provisions more than u32::MAX containers" }),
            Some(0) => return Err(CoreError::InvalidClusterModel { reason: "cluster model must provision at least one container" }),
            Some(_) => {}
        }
        // Replay the event stream with per-class bookkeeping.
        let mut revoked: Vec<u32> = vec![0; self.classes.len()];
        let mut in_service = self.total_capacity();
        let mut last_at: Slot = 0;
        for e in &self.events {
            if e.at < last_at {
                return Err(CoreError::InvalidClusterModel { reason: "capacity events must be sorted by slot" });
            }
            last_at = e.at;
            match e.change {
                CapacityChange::Revoke { class, n } => {
                    if n == 0 {
                        return Err(CoreError::InvalidClusterModel { reason: "capacity event count must be >= 1" });
                    }
                    let Some(c) = self.classes.get(class) else {
                        return Err(CoreError::InvalidClusterModel { reason: "capacity event names an unknown container class" });
                    };
                    let avail = c.count.saturating_sub(revoked[class]);
                    if n > avail {
                        return Err(CoreError::InvalidClusterModel { reason: "revocation exceeds the class's in-service count" });
                    }
                    if n >= in_service {
                        return Err(CoreError::InvalidClusterModel { reason: "revocation would leave the cluster with no containers" });
                    }
                    revoked[class] = revoked[class].saturating_add(n);
                    in_service = in_service.saturating_sub(n);
                }
                CapacityChange::Restock { class, n } => {
                    if n == 0 {
                        return Err(CoreError::InvalidClusterModel { reason: "capacity event count must be >= 1" });
                    }
                    if class >= self.classes.len() {
                        return Err(CoreError::InvalidClusterModel { reason: "capacity event names an unknown container class" });
                    }
                    if n > revoked[class] {
                        return Err(CoreError::InvalidClusterModel { reason: "restock exceeds the class's revoked count" });
                    }
                    revoked[class] = revoked[class].saturating_sub(n);
                    in_service = in_service.saturating_add(n);
                }
            }
        }
        Ok(())
    }

    /// Effective capacity after applying every event with `at <= slot`.
    /// The model must validate.
    pub fn capacity_at(&self, slot: Slot) -> u32 {
        let mut cap = self.total_capacity();
        for e in self.events.iter().take_while(|e| e.at <= slot) {
            match e.change {
                CapacityChange::Revoke { n, .. } => cap = cap.saturating_sub(n),
                CapacityChange::Restock { n, .. } => cap = cap.saturating_add(n),
            }
        }
        cap
    }

    /// Lowers the class-tagged stream onto the simulator's class-free
    /// events. Event order (and hence slot order) is preserved; the
    /// simulator's own validation accepts any stream this model validates.
    pub fn sim_events(&self) -> Vec<SimCapacityEvent> {
        self.events
            .iter()
            .map(|e| SimCapacityEvent {
                at: e.at,
                change: match e.change {
                    CapacityChange::Revoke { n, .. } => SimCapacityChange::Revoke { n },
                    CapacityChange::Restock { n, .. } => SimCapacityChange::Restock { n },
                },
            })
            .collect()
    }

    /// Predicts how many slots until a capacity deficit heals, given the
    /// currently observed effective capacity.
    ///
    /// The deficit `total − current` is attributed to classes
    /// least-reliable-first (spot capacity is assumed to vanish before
    /// on-demand, on-demand before reserved); the prediction is the
    /// largest reclaim horizon among the tiers carrying deficit. Returns
    /// `None` when there is no deficit, or when the deficit reaches into
    /// reserved capacity (a failure whose repair time is unknown) —
    /// callers must not defer against an unpredictable reclaim.
    pub fn predicted_reclaim_slots(&self, current: u32) -> Option<Slot> {
        let total = self.total_capacity();
        let mut deficit = total.checked_sub(current)?;
        if deficit == 0 {
            return None;
        }
        let mut horizon: Option<Slot> = None;
        for tier in ReliabilityTier::least_reliable_first() {
            if deficit == 0 {
                break;
            }
            let tier_count: u32 =
                self.classes.iter().filter(|c| c.tier == tier).map(|c| c.count).sum();
            let absorbed = deficit.min(tier_count);
            if absorbed == 0 {
                continue;
            }
            deficit = deficit.saturating_sub(absorbed);
            match tier.predicted_reclaim_slots() {
                Some(h) => horizon = Some(horizon.map_or(h, |cur| cur.max(h))),
                None => return None,
            }
        }
        if deficit > 0 {
            // Deficit exceeds the model's provisioned total — the observed
            // capacity disagrees with the model; refuse to predict.
            return None;
        }
        horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_model_is_one_reserved_class() {
        let m = ClusterModel::fixed(16);
        m.validate().unwrap();
        assert_eq!(m.total_capacity(), 16);
        assert_eq!(m.classes.len(), 1);
        assert_eq!(m.classes[0].tier, ReliabilityTier::Reserved);
        assert!(m.sim_events().is_empty());
        assert_eq!(m.capacity_at(1_000_000), 16);
        assert_eq!(m.predicted_reclaim_slots(16), None);
    }

    #[test]
    fn tiered_model_and_spot_churn() {
        let m = ClusterModel::tiered(8, 4, 4).with_spot_churn(2, 10, 100, 30, 3, 2);
        m.validate().unwrap();
        assert_eq!(m.total_capacity(), 16);
        assert_eq!(m.events.len(), 4);
        assert_eq!(m.capacity_at(9), 16);
        assert_eq!(m.capacity_at(10), 13);
        assert_eq!(m.capacity_at(40), 16);
        assert_eq!(m.capacity_at(110), 13);
        let sim = m.sim_events();
        assert_eq!(sim.len(), 4);
        assert_eq!(sim[0].at, 10);
        assert!(matches!(sim[0].change, SimCapacityChange::Revoke { n: 3 }));
    }

    #[test]
    fn validation_rejects_malformed_models() {
        assert!(ClusterModel::default().validate().is_err());
        assert!(ClusterModel::fixed(0).validate().is_err());
        // Class counts that add up past `u32::MAX`.
        assert!(ClusterModel::tiered(u32::MAX, 2, 0).validate().is_err());
        assert_eq!(ClusterModel::tiered(u32::MAX, 2, 0).total_capacity(), u32::MAX);

        let mut m = ClusterModel::tiered(4, 0, 4);
        m.classes[1].name = "reserved".into();
        assert!(m.validate().is_err());

        let mut m = ClusterModel::tiered(4, 0, 4);
        m.classes[0].price = f64::NAN;
        assert!(m.validate().is_err());

        // Unsorted events.
        let m = ClusterModel::tiered(4, 0, 4).with_spot_churn(1, 20, 100, 5, 1, 1);
        let mut m2 = m.clone();
        m2.events.swap(0, 1);
        assert!(m2.validate().is_err());

        // Revoking more than the class has in service.
        let mut m = ClusterModel::tiered(4, 0, 4);
        m.events.push(CapacityEvent { at: 0, change: CapacityChange::Revoke { class: 1, n: 5 } });
        assert!(m.validate().is_err());

        // Revoking everything.
        let mut m = ClusterModel::tiered(0, 0, 4);
        m.events.push(CapacityEvent { at: 0, change: CapacityChange::Revoke { class: 0, n: 4 } });
        assert!(m.validate().is_err());

        // Restock without a matching revocation.
        let mut m = ClusterModel::tiered(4, 0, 4);
        m.events.push(CapacityEvent { at: 0, change: CapacityChange::Restock { class: 1, n: 1 } });
        assert!(m.validate().is_err());

        // Unknown class index.
        let mut m = ClusterModel::tiered(4, 0, 4);
        m.events.push(CapacityEvent { at: 0, change: CapacityChange::Revoke { class: 7, n: 1 } });
        assert!(m.validate().is_err());

        // Zero-count event.
        let mut m = ClusterModel::tiered(4, 0, 4);
        m.events.push(CapacityEvent { at: 0, change: CapacityChange::Revoke { class: 1, n: 0 } });
        assert!(m.validate().is_err());
    }

    #[test]
    fn reclaim_prediction_attributes_deficit_least_reliable_first() {
        let m = ClusterModel::tiered(8, 4, 4);
        // Deficit 3 ≤ spot count: spot horizon.
        assert_eq!(m.predicted_reclaim_slots(13), Some(60));
        // Deficit 6 spills into on-demand: the slower horizon dominates.
        assert_eq!(m.predicted_reclaim_slots(10), Some(240));
        // Deficit 9 reaches reserved: no prediction.
        assert_eq!(m.predicted_reclaim_slots(7), None);
        // No deficit, or capacity above the model's total: no prediction.
        assert_eq!(m.predicted_reclaim_slots(16), None);
        assert_eq!(m.predicted_reclaim_slots(20), None);
        // Observed deficit larger than the model provisions: refuse.
        let spot_only = ClusterModel::tiered(1, 0, 3);
        assert_eq!(spot_only.predicted_reclaim_slots(0), None);
    }

    #[test]
    fn tier_wire_forms_round_trip() {
        for tier in ReliabilityTier::least_reliable_first() {
            assert_eq!(ReliabilityTier::from_wire(tier.as_str()), Some(tier));
        }
        assert_eq!(ReliabilityTier::from_wire("preemptible"), None);
    }

    #[test]
    fn sim_accepts_lowered_events() {
        let mut m = ClusterModel::tiered(8, 4, 4).with_spot_churn(2, 10, 100, 30, 3, 2);
        // A burst across every class at once, all restored together.
        for (class, n) in [(0, 2), (1, 1), (2, 1)] {
            m.events.push(CapacityEvent { at: 500, change: CapacityChange::Revoke { class, n } });
            m.events.push(CapacityEvent { at: 540, change: CapacityChange::Restock { class, n } });
        }
        m.events.sort_by_key(|e| e.at);
        m.validate().unwrap();
        rush_sim::cluster::validate_capacity_events(m.total_capacity(), &m.sim_events()).unwrap();
    }
}
