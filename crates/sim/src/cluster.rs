//! Cluster topology: heterogeneous nodes hosting homogeneous containers.
//!
//! The paper's testbed mixes Dell R320 (2.7 GHz), T320 (2.3 GHz) and
//! Optiplex (3.2 GHz) machines; a task's wall-clock runtime therefore
//! depends on where its container lands. We model each [`Node`] with a
//! *speed factor* (relative runtime multiplier: 1.0 = baseline, < 1.0 =
//! faster) and a number of container slots.

use crate::{NodeId, SimError, Slot};

/// One step of a deterministic capacity-event stream: the provider takes
/// containers away or hands them back.
///
/// The sim works in the flat container index space and does not know about
/// container classes or prices — `rush_core::cluster::ClusterModel` lowers
/// its class-tagged event stream onto these totals. Revocation always claims
/// the *highest*-indexed in-service containers and restock returns the
/// *lowest*-indexed revoked ones, so the event stream alone determines the
/// exact container set deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityChange {
    /// The provider reclaims `n` containers (spot revocation or a
    /// correlated node-failure burst).
    Revoke {
        /// Containers taken out of service.
        n: u32,
    },
    /// `n` previously revoked containers return to service.
    Restock {
        /// Containers returned to service.
        n: u32,
    },
}

/// A [`CapacityChange`] scheduled at an absolute simulation slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityEvent {
    /// Slot at which the change takes effect.
    pub at: Slot,
    /// What happens.
    pub change: CapacityChange,
}

/// Validates a capacity-event stream against a starting capacity: events
/// must be sorted by slot, zero-sized changes are rejected, a revocation
/// may never leave fewer than one container in service, and a restock may
/// never return more containers than are currently revoked.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] describing the first violation.
pub fn validate_capacity_events(
    capacity: u32,
    events: &[CapacityEvent],
) -> Result<(), SimError> {
    let mut in_service = capacity;
    let mut last_at = 0;
    for ev in events {
        if ev.at < last_at {
            return Err(SimError::InvalidConfig {
                reason: "capacity events must be sorted by slot",
            });
        }
        last_at = ev.at;
        match ev.change {
            CapacityChange::Revoke { n } => {
                if n == 0 {
                    return Err(SimError::InvalidConfig {
                        reason: "capacity event must change at least one container",
                    });
                }
                if n >= in_service {
                    return Err(SimError::InvalidConfig {
                        reason: "revocation would leave the cluster without containers",
                    });
                }
                in_service -= n;
            }
            CapacityChange::Restock { n } => {
                if n == 0 {
                    return Err(SimError::InvalidConfig {
                        reason: "capacity event must change at least one container",
                    });
                }
                if in_service + n > capacity {
                    return Err(SimError::InvalidConfig {
                        reason: "restock exceeds the revoked container count",
                    });
                }
                in_service += n;
            }
        }
    }
    Ok(())
}

/// One machine in the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    id: NodeId,
    speed_factor: f64,
    containers: u32,
}

impl Node {
    /// The node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Runtime multiplier for tasks on this node (1.0 = baseline speed,
    /// 0.8 = 25 % faster, 1.2 = 20 % slower).
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
    }

    /// Number of containers hosted by this node.
    pub fn containers(&self) -> u32 {
        self.containers
    }
}

/// The cluster topology handed to the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    nodes: Vec<Node>,
}

impl ClusterSpec {
    /// Builds a cluster from `(speed_factor, containers)` pairs.
    ///
    /// # Errors
    ///
    /// * [`SimError::EmptyCluster`] if the total container count is zero.
    /// * [`SimError::InvalidConfig`] if any speed factor is non-positive or
    ///   non-finite.
    pub fn new(nodes: impl IntoIterator<Item = (f64, u32)>) -> Result<Self, SimError> {
        let mut out = Vec::new();
        for (i, (speed_factor, containers)) in nodes.into_iter().enumerate() {
            if !speed_factor.is_finite() || speed_factor <= 0.0 {
                return Err(SimError::InvalidConfig { reason: "node speed factor must be > 0" });
            }
            out.push(Node { id: NodeId(i as u32), speed_factor, containers });
        }
        let spec = ClusterSpec { nodes: out };
        if spec.capacity() == 0 {
            return Err(SimError::EmptyCluster);
        }
        Ok(spec)
    }

    /// A homogeneous cluster: `nodes` identical unit-speed machines with
    /// `containers_per_node` containers each.
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyCluster`] if the total capacity is zero.
    pub fn homogeneous(nodes: u32, containers_per_node: u32) -> Result<Self, SimError> {
        Self::new((0..nodes).map(|_| (1.0, containers_per_node)))
    }

    /// A heterogeneous cluster shaped like the paper's testbed: six nodes of
    /// three speed grades (two fast desktops, two mid servers, two slower
    /// servers) with `containers_per_node` containers each (8 gives the
    /// paper's 48-container capacity).
    ///
    /// # Errors
    ///
    /// [`SimError::EmptyCluster`] if `containers_per_node == 0`.
    pub fn paper_testbed(containers_per_node: u32) -> Result<Self, SimError> {
        Self::new(vec![
            (0.85, containers_per_node), // Optiplex i5-3470 @3.2GHz
            (0.85, containers_per_node),
            (1.0, containers_per_node), // R320 E5-2470v2 @2.7GHz
            (1.0, containers_per_node),
            (1.15, containers_per_node), // T320 E5-2470 @2.3GHz
            (1.15, containers_per_node),
        ])
    }

    /// The nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Total container capacity `C`.
    pub fn capacity(&self) -> u32 {
        self.nodes.iter().map(|n| n.containers).sum()
    }

    /// Maps a flat container index (`0..capacity()`) to its hosting node,
    /// walking the node list.
    ///
    /// # Panics
    ///
    /// Panics if `container >= capacity()`.
    #[expect(clippy::panic, reason = "documented caller contract: container < capacity()")]
    pub fn node_of_container(&self, container: u32) -> &Node {
        let mut remaining = container;
        for node in &self.nodes {
            if remaining < node.containers {
                return node;
            }
            remaining -= node.containers;
        }
        panic!("container index {container} out of range (capacity {})", self.capacity());
    }
}

/// An ordered pool of free containers over a [`ClusterSpec`]'s flat
/// container index space.
///
/// The simulation engine acquires the lowest free container on every task
/// start and releases one on every completion; with a sorted `Vec` those
/// operations cost a re-sort per completion. `FreePool` keeps the free set
/// as a two-level bitset — one bit per container plus a summary bit per
/// 64-container word — so acquire, release and membership are O(1) word
/// operations (O(capacity/4096) in the worst case for the summary scan).
#[derive(Debug, Clone)]
pub struct FreePool {
    /// Bit `c % 64` of `words[c / 64]` is set iff container `c` is free.
    words: Vec<u64>,
    /// Bit `w % 64` of `summary[w / 64]` is set iff `words[w] != 0`.
    summary: Vec<u64>,
    /// Bit `c % 64` of `revoked[c / 64]` is set iff container `c` has been
    /// revoked (taken out of service by a capacity event). A revoked
    /// container is never free; the index space itself never shrinks.
    revoked: Vec<u64>,
    free: u32,
    revoked_count: u32,
    capacity: u32,
}

impl FreePool {
    /// Creates a pool over `spec`'s containers with every container free.
    pub fn new(spec: &ClusterSpec) -> Self {
        let capacity = spec.capacity();
        let n_words = (capacity as usize).div_ceil(64);
        let mut words = vec![u64::MAX; n_words];
        // Mask off the bits past `capacity` in the last word.
        let tail = capacity as usize % 64;
        if tail != 0 {
            words[n_words - 1] = (1u64 << tail) - 1;
        }
        let summary = (0..n_words.div_ceil(64))
            .map(|s| {
                let mut bits = 0u64;
                for b in 0..64.min(n_words - s * 64) {
                    if words[s * 64 + b] != 0 {
                        bits |= 1 << b;
                    }
                }
                bits
            })
            .collect();
        FreePool {
            words,
            summary,
            revoked: vec![0; n_words],
            free: capacity,
            revoked_count: 0,
            capacity,
        }
    }

    /// Number of free containers.
    pub fn len(&self) -> u32 {
        self.free
    }

    /// Whether no container is free.
    pub fn is_empty(&self) -> bool {
        self.free == 0
    }

    /// Total container capacity — the fixed index space, including
    /// containers currently revoked.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Containers currently in service: `capacity() - revoked`.
    pub fn effective_capacity(&self) -> u32 {
        self.capacity - self.revoked_count
    }

    /// Containers currently revoked (out of service).
    pub fn revoked_count(&self) -> u32 {
        self.revoked_count
    }

    /// Whether container `c` is currently revoked.
    pub fn is_revoked(&self, c: u32) -> bool {
        c < self.capacity && self.revoked[(c / 64) as usize] & (1 << (c % 64)) != 0
    }

    /// Takes container `c` out of service. Returns `true` if it was free
    /// (and has been removed from the pool); `false` if it was busy — the
    /// caller owns killing whatever runs on it.
    ///
    /// Crate-private, like [`restore`](Self::restore): only the engine's
    /// capacity-event queue takes containers out of service, so a revocation
    /// is always a scheduled, replayable [`CapacityEvent`].
    ///
    /// ```compile_fail
    /// use rush_sim::cluster::{ClusterSpec, FreePool};
    /// let mut pool = FreePool::new(&ClusterSpec::homogeneous(1, 4).unwrap());
    /// pool.revoke(3); // private: E0624
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range or already revoked.
    pub(crate) fn revoke(&mut self, c: u32) -> bool {
        assert!(c < self.capacity, "container {c} out of range (capacity {})", self.capacity);
        assert!(!self.is_revoked(c), "container {c} revoked twice");
        self.revoked[(c / 64) as usize] |= 1 << (c % 64);
        self.revoked_count += 1;
        let was_free = self.contains(c);
        if was_free {
            self.clear(c);
        }
        was_free
    }

    /// Returns a revoked container to service (and to the free set).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range or not currently revoked.
    pub(crate) fn restore(&mut self, c: u32) {
        assert!(c < self.capacity, "container {c} out of range (capacity {})", self.capacity);
        assert!(self.is_revoked(c), "restore of in-service container {c}");
        self.revoked[(c / 64) as usize] &= !(1 << (c % 64));
        self.revoked_count -= 1;
        self.release(c);
    }

    /// The highest-indexed in-service container (free or busy) — the next
    /// victim of a deterministic revocation sweep.
    pub fn highest_in_service(&self) -> Option<u32> {
        (0..self.capacity).rev().find(|&c| !self.is_revoked(c))
    }

    /// The lowest-indexed revoked container — the next container a
    /// deterministic restock returns to service.
    pub fn lowest_revoked(&self) -> Option<u32> {
        (0..self.capacity).find(|&c| self.is_revoked(c))
    }

    /// Whether container `c` is currently free.
    pub fn contains(&self, c: u32) -> bool {
        c < self.capacity && self.words[(c / 64) as usize] & (1 << (c % 64)) != 0
    }

    /// Acquires (removes and returns) the lowest-indexed free container.
    pub fn acquire_lowest(&mut self) -> Option<u32> {
        let si = self.summary.iter().position(|&s| s != 0)?;
        let w = si * 64 + self.summary[si].trailing_zeros() as usize;
        let c = w as u32 * 64 + self.words[w].trailing_zeros();
        self.clear(c);
        Some(c)
    }

    /// Acquires a specific container; returns `false` if it was not free.
    pub fn acquire(&mut self, c: u32) -> bool {
        if !self.contains(c) {
            return false;
        }
        self.clear(c);
        true
    }

    /// Returns container `c` to the pool.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range; debug-asserts it was not already free.
    pub fn release(&mut self, c: u32) {
        assert!(c < self.capacity, "container {c} out of range (capacity {})", self.capacity);
        let w = (c / 64) as usize;
        debug_assert!(!self.is_revoked(c), "release of revoked container {c}");
        debug_assert!(self.words[w] & (1 << (c % 64)) == 0, "double release of container {c}");
        self.words[w] |= 1 << (c % 64);
        self.summary[w / 64] |= 1 << (w % 64);
        self.free += 1;
    }

    fn clear(&mut self, c: u32) {
        let w = (c / 64) as usize;
        self.words[w] &= !(1 << (c % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1 << (w % 64));
        }
        self.free -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_capacity() {
        let c = ClusterSpec::homogeneous(3, 4).unwrap();
        assert_eq!(c.capacity(), 12);
        assert_eq!(c.nodes().len(), 3);
        assert!(c.nodes().iter().all(|n| n.speed_factor() == 1.0));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(ClusterSpec::homogeneous(0, 4), Err(SimError::EmptyCluster));
        assert_eq!(ClusterSpec::homogeneous(4, 0), Err(SimError::EmptyCluster));
    }

    #[test]
    fn rejects_bad_speed() {
        assert!(matches!(
            ClusterSpec::new(vec![(0.0, 1)]),
            Err(SimError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ClusterSpec::new(vec![(f64::NAN, 1)]),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn paper_testbed_shape() {
        let c = ClusterSpec::paper_testbed(8).unwrap();
        assert_eq!(c.capacity(), 48);
        assert_eq!(c.nodes().len(), 6);
        let speeds: Vec<f64> = c.nodes().iter().map(|n| n.speed_factor()).collect();
        assert!(speeds.contains(&0.85) && speeds.contains(&1.0) && speeds.contains(&1.15));
    }

    #[test]
    fn container_to_node_mapping() {
        let c = ClusterSpec::new(vec![(1.0, 2), (2.0, 1)]).unwrap();
        assert_eq!(c.node_of_container(0).id(), NodeId(0));
        assert_eq!(c.node_of_container(1).id(), NodeId(0));
        assert_eq!(c.node_of_container(2).id(), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn container_out_of_range_panics() {
        let c = ClusterSpec::homogeneous(1, 1).unwrap();
        c.node_of_container(1);
    }

    #[test]
    fn free_pool_acquires_lowest_first() {
        let spec = ClusterSpec::homogeneous(2, 3).unwrap();
        let mut pool = FreePool::new(&spec);
        assert_eq!(pool.len(), 6);
        assert_eq!(pool.capacity(), 6);
        assert_eq!(pool.acquire_lowest(), Some(0));
        assert_eq!(pool.acquire_lowest(), Some(1));
        pool.release(0);
        assert_eq!(pool.acquire_lowest(), Some(0)); // released slot comes back first
        assert_eq!(pool.len(), 4);
    }

    #[test]
    fn free_pool_drains_and_refills() {
        let spec = ClusterSpec::homogeneous(1, 130).unwrap(); // spans 3 words
        let mut pool = FreePool::new(&spec);
        let mut order = Vec::new();
        while let Some(c) = pool.acquire_lowest() {
            order.push(c);
        }
        assert_eq!(order, (0..130).collect::<Vec<_>>());
        assert!(pool.is_empty());
        for c in (0..130).rev() {
            pool.release(c);
        }
        assert_eq!(pool.len(), 130);
        assert_eq!(pool.acquire_lowest(), Some(0));
    }

    #[test]
    fn free_pool_specific_acquire_and_membership() {
        let spec = ClusterSpec::homogeneous(1, 8).unwrap();
        let mut pool = FreePool::new(&spec);
        assert!(pool.contains(5));
        assert!(pool.acquire(5));
        assert!(!pool.contains(5));
        assert!(!pool.acquire(5)); // already taken
        assert!(!pool.acquire(99)); // out of range is just "not free"
        assert_eq!(pool.acquire_lowest(), Some(0));
        assert_eq!(pool.len(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn free_pool_release_out_of_range_panics() {
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        FreePool::new(&spec).release(4);
    }

    #[test]
    fn free_pool_revoke_and_restore() {
        let spec = ClusterSpec::homogeneous(1, 6).unwrap();
        let mut pool = FreePool::new(&spec);
        assert_eq!(pool.effective_capacity(), 6);
        assert_eq!(pool.highest_in_service(), Some(5));
        // Revoking a free container removes it from the pool.
        assert!(pool.revoke(5));
        assert_eq!(pool.len(), 5);
        assert_eq!(pool.effective_capacity(), 5);
        assert!(!pool.contains(5));
        assert!(pool.is_revoked(5));
        assert_eq!(pool.highest_in_service(), Some(4));
        assert_eq!(pool.lowest_revoked(), Some(5));
        // Revoking a busy container leaves the free count alone.
        assert!(pool.acquire(4));
        assert!(!pool.revoke(4));
        assert_eq!(pool.len(), 4);
        assert_eq!(pool.effective_capacity(), 4);
        assert_eq!(pool.revoked_count(), 2);
        assert_eq!(pool.lowest_revoked(), Some(4));
        // Restock returns the lowest revoked container to the free set.
        pool.restore(4);
        assert!(pool.contains(4));
        assert_eq!(pool.effective_capacity(), 5);
        pool.restore(5);
        assert_eq!(pool.len(), 6);
        assert_eq!(pool.revoked_count(), 0);
        assert_eq!(pool.lowest_revoked(), None);
    }

    #[test]
    #[should_panic(expected = "revoked twice")]
    fn free_pool_double_revoke_panics() {
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        let mut pool = FreePool::new(&spec);
        pool.revoke(3);
        pool.revoke(3);
    }

    #[test]
    fn capacity_event_validation() {
        let ok = vec![
            CapacityEvent { at: 10, change: CapacityChange::Revoke { n: 3 } },
            CapacityEvent { at: 20, change: CapacityChange::Restock { n: 2 } },
            CapacityEvent { at: 20, change: CapacityChange::Revoke { n: 1 } },
        ];
        assert!(validate_capacity_events(4, &ok).is_ok());
        // Out of order.
        let bad = vec![
            CapacityEvent { at: 20, change: CapacityChange::Revoke { n: 1 } },
            CapacityEvent { at: 10, change: CapacityChange::Revoke { n: 1 } },
        ];
        assert!(validate_capacity_events(4, &bad).is_err());
        // Revokes the whole cluster.
        let bad = vec![CapacityEvent { at: 0, change: CapacityChange::Revoke { n: 4 } }];
        assert!(validate_capacity_events(4, &bad).is_err());
        // Restocks more than was revoked.
        let bad = vec![
            CapacityEvent { at: 0, change: CapacityChange::Revoke { n: 1 } },
            CapacityEvent { at: 5, change: CapacityChange::Restock { n: 2 } },
        ];
        assert!(validate_capacity_events(4, &bad).is_err());
        // Zero-sized change.
        let bad = vec![CapacityEvent { at: 0, change: CapacityChange::Revoke { n: 0 } }];
        assert!(validate_capacity_events(4, &bad).is_err());
    }
}
