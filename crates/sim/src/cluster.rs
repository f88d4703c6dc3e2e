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
                if n > capacity - in_service {
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

/// The free containers over a [`ClusterSpec`]'s flat container index
/// space, and how many of them are in service.
///
/// The engine acquires the lowest free container on every task start and
/// releases one on every completion. A revocation always takes the highest
/// in-service container and a restock returns the lowest revoked one, so
/// the revoked containers are always the suffix `in_service..capacity` and
/// a count is all the pool keeps of them. The free set is one bit per
/// container; acquire scans for the first non-zero 64-container word.
///
/// Crate-private as a whole: only the engine's capacity-event queue takes
/// containers out of service, so a revocation is always a scheduled,
/// replayable [`CapacityEvent`].
///
/// ```compile_fail
/// use rush_sim::cluster::FreePool; // private: E0603
/// ```
#[derive(Debug)]
pub(crate) struct FreePool {
    /// Bit `c % 64` of `words[c / 64]` is set iff container `c` is free.
    /// A revoked container is never free.
    words: Vec<u64>,
    free: u32,
    /// Containers `0..in_service` are in service; the rest are revoked.
    in_service: u32,
}

impl FreePool {
    /// Creates a pool over `spec`'s containers with every container free.
    pub(crate) fn new(spec: &ClusterSpec) -> Self {
        let capacity = spec.capacity();
        let n_words = (capacity as usize).div_ceil(64);
        let mut words = vec![u64::MAX; n_words];
        // Mask off the bits past `capacity` in the last word.
        let tail = capacity as usize % 64;
        if tail != 0 {
            words[n_words - 1] = (1u64 << tail) - 1;
        }
        FreePool { words, free: capacity, in_service: capacity }
    }

    /// Number of free containers.
    pub(crate) fn len(&self) -> u32 {
        self.free
    }

    /// Whether no container is free.
    pub(crate) fn is_empty(&self) -> bool {
        self.free == 0
    }

    /// Containers currently in service (free or busy).
    pub(crate) fn in_service(&self) -> u32 {
        self.in_service
    }

    /// Takes the highest in-service container out of service. Returns it
    /// and whether it was free (and has left the pool); a busy one's
    /// attempt is the caller's to kill.
    ///
    /// # Panics
    ///
    /// Panics if no container is in service.
    pub(crate) fn revoke_highest(&mut self) -> (u32, bool) {
        self.in_service -= 1;
        let c = self.in_service;
        let was_free = self.words[(c / 64) as usize] & (1 << (c % 64)) != 0;
        if was_free {
            self.clear(c);
        }
        (c, was_free)
    }

    /// Puts the lowest revoked container back in service and in the free
    /// set, and returns it. The caller restores only what it revoked
    /// ([`validate_capacity_events`] bounds a restock by the revoked
    /// count).
    pub(crate) fn restore_lowest(&mut self) -> u32 {
        let c = self.in_service;
        self.in_service += 1;
        self.release(c);
        c
    }

    /// Acquires (removes and returns) the lowest-indexed free container.
    pub(crate) fn acquire_lowest(&mut self) -> Option<u32> {
        let w = self.words.iter().position(|&w| w != 0)?;
        let c = w as u32 * 64 + self.words[w].trailing_zeros();
        self.clear(c);
        Some(c)
    }

    /// Returns container `c` to the pool.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not in service; debug-asserts it was not already
    /// free.
    pub(crate) fn release(&mut self, c: u32) {
        assert!(c < self.in_service, "release of container {c}, which is not in service");
        let w = (c / 64) as usize;
        debug_assert!(self.words[w] & (1 << (c % 64)) == 0, "double release of container {c}");
        self.words[w] |= 1 << (c % 64);
        self.free += 1;
    }

    fn clear(&mut self, c: u32) {
        self.words[(c / 64) as usize] &= !(1 << (c % 64));
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
        assert_eq!(pool.in_service(), 6);
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
    #[should_panic(expected = "not in service")]
    fn free_pool_release_out_of_range_panics() {
        let spec = ClusterSpec::homogeneous(1, 4).unwrap();
        FreePool::new(&spec).release(4);
    }

    #[test]
    fn free_pool_revokes_highest_and_restores_lowest() {
        let spec = ClusterSpec::homogeneous(1, 6).unwrap();
        let mut pool = FreePool::new(&spec);
        // Revoking a free container removes it from the pool.
        assert_eq!(pool.revoke_highest(), (5, true));
        assert_eq!((pool.len(), pool.in_service()), (5, 5));
        // Revoking a busy container leaves the free count alone.
        for c in 0..5 {
            assert_eq!(pool.acquire_lowest(), Some(c));
        }
        assert_eq!(pool.revoke_highest(), (4, false));
        assert_eq!((pool.len(), pool.in_service()), (0, 4));
        // Restock returns the lowest revoked container to the free set.
        assert_eq!(pool.restore_lowest(), 4);
        assert_eq!(pool.acquire_lowest(), Some(4));
        assert_eq!(pool.restore_lowest(), 5);
        assert_eq!((pool.len(), pool.in_service()), (1, 6));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Over random acquire / release / revoke / restore sequences the
        /// pool hands out the same containers as a naive model: a free
        /// flag and a revoked flag per container, scanned linearly.
        #[test]
        fn free_pool_matches_a_naive_model(
            capacity in 1u32..150,
            ops in proptest::collection::vec((0usize..4, 0usize..1000), 0..400),
        ) {
            let mut pool = FreePool::new(&ClusterSpec::homogeneous(1, capacity).unwrap());
            let n = capacity as usize;
            let (mut free, mut revoked) = (vec![true; n], vec![false; n]);
            for (op, pick) in ops {
                match op {
                    0 => {
                        let want = (0..n).find(|&c| free[c] && !revoked[c]);
                        if let Some(c) = want {
                            free[c] = false;
                        }
                        proptest::prop_assert_eq!(pool.acquire_lowest(), want.map(|c| c as u32));
                    }
                    1 => {
                        let busy: Vec<usize> = (0..n).filter(|&c| !free[c] && !revoked[c]).collect();
                        if busy.is_empty() {
                            continue;
                        }
                        let c = busy[pick % busy.len()];
                        free[c] = true;
                        pool.release(c as u32);
                    }
                    2 => {
                        let Some(c) = (0..n).rev().find(|&c| !revoked[c]) else { continue };
                        let was_free = free[c];
                        (free[c], revoked[c]) = (false, true);
                        proptest::prop_assert_eq!(pool.revoke_highest(), (c as u32, was_free));
                    }
                    _ => {
                        let Some(c) = (0..n).find(|&c| revoked[c]) else { continue };
                        (free[c], revoked[c]) = (true, false);
                        proptest::prop_assert_eq!(pool.restore_lowest(), c as u32);
                    }
                }
                let free_count = (0..n).filter(|&c| free[c]).count() as u32;
                let in_service = (0..n).filter(|&c| !revoked[c]).count() as u32;
                proptest::prop_assert_eq!((pool.len(), pool.in_service()), (free_count, in_service));
            }
        }
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
        // A restock whose count would overflow the in-service count.
        let bad = vec![
            CapacityEvent { at: 0, change: CapacityChange::Revoke { n: 1 } },
            CapacityEvent { at: 1, change: CapacityChange::Restock { n: u32::MAX } },
        ];
        assert!(validate_capacity_events(4, &bad).is_err());
    }
}
