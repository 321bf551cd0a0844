//! The dynamic bandwidth allocation (DBA) controller.
//!
//! One controller instance models the distributed token-based protocol of
//! Section 3.2.1: the token circulates between the photonic routers on the
//! control waveguide; the router holding the token acquires or relinquishes
//! wavelengths so that its held pool approaches its target, then passes the
//! token on. Acquisition takes one wavelength per token visit, so that, when
//! the chip-wide demand exceeds the wavelength budget, no router takes the
//! whole budget on its first visit.
//!
//! # Where the split lands
//!
//! The controller itself splits without weights: the weighting is in the
//! targets (see `DhetFabric`'s `proportional` and `paper-max` policies).
//! From a fresh controller, [`DbaController::converge`] fills every cluster
//! up to a common level `L`, the largest level whose total fits the dynamic
//! budget, capped at each cluster's target; what is left over goes one
//! wavelength each, lowest cluster index first, to clusters still below
//! their target. `tests/prop_dba_invariants.rs` pins that closed form
//! exactly. From a non-fresh state the result depends on history: a visit
//! only releases what its own cluster holds above its target, so a cluster
//! that acquired wavelengths under an earlier target keeps them while others
//! stay short of theirs.
//!
//! # The Figure 3-2 tables
//!
//! The paper's photonic router holds demand, request and current tables.
//! Nothing here stores them, because nothing reads them beyond what other
//! state already answers:
//!
//! * the demand and request tables (per-destination wavelength demand, and
//!   its element-wise maximum over a cluster's cores) are the demand
//!   matrix's class per cluster pair, which the class table `DhetFabric`
//!   hands the system turns into a transfer width
//!   (`PhotonicFabric::wavelengths_for`);
//! * the request table's maximum, the acquisition goal Section 3.2.1 states,
//!   is the `paper-max` policy's target;
//! * the current table (the width granted toward each destination) is
//!   `wavelengths_for`'s `min` of that width with the cluster's pool.
//!
//! What remains per cluster is its target and the identifiers of the
//! wavelengths it acquired on top of the reserve; the token bitmap and
//! [`DbaController::check_invariants`] use the identifiers to detect double
//! allocation.
//!
//! The controller upholds three invariants, checked by the property tests in
//! `tests/`:
//!
//! 1. a wavelength is never allocated to two clusters at once,
//! 2. every cluster always holds at least its reserved minimum (no
//!    starvation: "This ensures that no cluster starves even if all other
//!    clusters consume all the data bandwidth"); a pool is the reserve plus
//!    the acquired wavelengths, so this holds by construction,
//! 3. no cluster ever holds more than the per-channel maximum of the
//!    bandwidth set.
//!
//! # The run sees the fixed point
//!
//! The protocol only re-allocates when the task mapping changes; under a
//! stable mapping every token visit after convergence is a no-op. The
//! simulator therefore models the protocol at its fixed point:
//! `DhetFabric` calls [`DbaController::converge`] before cycle 0 and, as
//! its class table's retarget hook, at every fault transition that
//! retargets, with enough rotations to reach the fixed point (see its
//! docs), and no simulated cycle moves the token.
//! A healthy run's allocation is thus fixed before cycle 0, and every
//! reallocation at a fault transition is instantaneous: the transient of a
//! remap (the rotations the token needs to move wavelengths) is not
//! modelled. A retarget starts from the current allocation, so after a
//! fault's repair the fixed point can differ from the healthy one (the
//! history dependence above). [`DbaController::tick`] circulates the token
//! one cycle at a time; only the `dba_token_trace` example and the
//! benchmark's per-layer token probe call it.

use crate::token::{Token, TokenRing};
use pnoc_noc::ids::ClusterId;

/// How a cluster's wavelength target is derived from the demand information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocationPolicy {
    /// Wavelength pools sized in proportion to each cluster's traffic
    /// requirement (Section 3.1: "a variable number of wavelengths are
    /// allocated to the channel in proportion to the traffic requirement").
    /// This is the default.
    #[default]
    Proportional,
    /// Each cluster aims for the widest class it sends (the maximum of its
    /// request table, the literal acquisition goal stated in Section
    /// 3.2.1); used as an ablation of the allocation policy.
    PaperMax,
}

/// Per-cluster allocation state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ClusterAllocation {
    /// Identifiers (indices into the token) of the wavelengths acquired on
    /// top of the reserve, oldest first.
    acquired: Vec<usize>,
    target: usize,
}

/// The chip-wide DBA state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct DbaController {
    token: Token,
    ring: TokenRing,
    clusters: Vec<ClusterAllocation>,
    /// Wavelengths every cluster holds permanently (its minimum pool).
    reserved_per_cluster: usize,
    max_channel_wavelengths: usize,
}

impl DbaController {
    /// Creates a controller.
    ///
    /// * `num_clusters` — photonic routers sharing the budget,
    /// * `dynamic_wavelengths` — wavelengths that can be dynamically
    ///   allocated (`N_TW` of eq. 1),
    /// * `reserved_per_cluster` — the guaranteed minimum per cluster,
    /// * `max_channel_wavelengths` — cap on one cluster's pool,
    /// * `token_hop_cycles` — cycles per token hop (eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or the cap is below the reserved minimum.
    #[must_use]
    pub fn new(
        num_clusters: usize,
        dynamic_wavelengths: usize,
        reserved_per_cluster: usize,
        max_channel_wavelengths: usize,
        token_hop_cycles: u64,
    ) -> Self {
        assert!(num_clusters > 0);
        assert!(
            reserved_per_cluster >= 1,
            "the minimum allocation is 1 wavelength"
        );
        assert!(max_channel_wavelengths >= reserved_per_cluster);
        let clusters = vec![
            ClusterAllocation {
                acquired: Vec::new(),
                target: reserved_per_cluster,
            };
            num_clusters
        ];
        Self {
            token: Token::new(dynamic_wavelengths),
            ring: TokenRing::new(num_clusters, token_hop_cycles),
            clusters,
            reserved_per_cluster,
            max_channel_wavelengths,
        }
    }

    /// Number of clusters managed.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Installs the per-cluster wavelength targets (clamped to
    /// `[reserved, max_channel]`).
    pub fn set_targets(&mut self, targets: &[usize]) {
        assert_eq!(targets.len(), self.clusters.len());
        for (cluster, &target) in self.clusters.iter_mut().zip(targets) {
            cluster.target = target
                .max(self.reserved_per_cluster)
                .min(self.max_channel_wavelengths);
        }
    }

    /// Current pool (reserved + acquired wavelengths) of a cluster.
    #[must_use]
    pub fn pool(&self, cluster: ClusterId) -> usize {
        self.reserved_per_cluster + self.clusters[cluster.0].acquired.len()
    }

    /// Target pool of a cluster.
    #[must_use]
    pub fn target(&self, cluster: ClusterId) -> usize {
        self.clusters[cluster.0].target
    }

    /// Total wavelengths currently held across all clusters (reserved +
    /// dynamic).
    #[must_use]
    pub fn total_held(&self) -> usize {
        (0..self.num_clusters())
            .map(|c| self.pool(ClusterId(c)))
            .sum()
    }

    /// Processes a token visit at `cluster`: release the newest wavelengths
    /// held above the target, or acquire one missing wavelength. Returns
    /// whether the visit acquired or released anything.
    fn on_token(&mut self, cluster: ClusterId) -> bool {
        let held = self.pool(cluster);
        let state = &mut self.clusters[cluster.0];
        if held > state.target {
            // `target >= reserved`, so the excess is all acquired.
            let keep = state.acquired.len() - (held - state.target);
            self.token.release(&state.acquired[keep..]);
            state.acquired.truncate(keep);
            true
        } else if held < state.target {
            let acquired = self.token.allocate(1);
            state.acquired.extend_from_slice(&acquired);
            !acquired.is_empty()
        } else {
            false
        }
    }

    /// Advances one cycle of token circulation; when the token arrives at a
    /// router, that router's allocation step runs. Returns the router that
    /// processed the token this cycle, if any. A simulated run never calls
    /// it (see the module docs).
    pub fn tick(&mut self) -> Option<ClusterId> {
        let arrived = self.ring.tick()?;
        self.on_token(arrived);
        Some(arrived)
    }

    /// Visits every cluster in index order for up to `max_rotations`
    /// rotations or until a rotation changes nothing, whichever comes first.
    /// Used when the task mapping changes (and at construction) so that
    /// measurements see the converged allocation. It models the allocation,
    /// not the ring: the token does not move.
    ///
    /// `max_channel_wavelengths` rotations reach the fixed point from any
    /// state, so one more finds nothing to change. Rotation 1 releases every
    /// excess: a visit drops all of its cluster's wavelengths above target,
    /// and targets do not change inside the loop. From then on no cluster
    /// is above its target and nothing returns to the token, so every
    /// rotation gives each short cluster one wavelength until it reaches its
    /// target or the token runs dry (after which no visit changes anything).
    /// A short cluster holds at least the reserve of 1 and aims for at most
    /// `max_channel_wavelengths`, so rotations 2 to `max_channel_wavelengths`
    /// fill every deficit the budget allows.
    pub fn converge(&mut self, max_rotations: usize) {
        for _ in 0..max_rotations {
            let mut changed = false;
            for c in 0..self.num_clusters() {
                changed |= self.on_token(ClusterId(c));
            }
            if !changed {
                break;
            }
        }
    }

    /// Snapshot of every cluster's pool size.
    #[must_use]
    pub fn allocation_snapshot(&self) -> Vec<usize> {
        (0..self.num_clusters())
            .map(|c| self.pool(ClusterId(c)))
            .collect()
    }

    /// Verifies the allocation invariants; returns an error message when one
    /// is violated. Used by integration and property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        for (idx, cluster) in self.clusters.iter().enumerate() {
            let pool = self.pool(ClusterId(idx));
            if pool > self.max_channel_wavelengths {
                return Err(format!(
                    "cluster {idx} holds {pool} wavelengths, above the cap {}",
                    self.max_channel_wavelengths
                ));
            }
            for &w in &cluster.acquired {
                if !self.token.is_allocated(w) {
                    return Err(format!(
                        "cluster {idx} holds wavelength {w} that the token says is free"
                    ));
                }
                if !seen.insert(w) {
                    return Err(format!("wavelength {w} allocated to two clusters"));
                }
            }
        }
        if seen.len() != self.token.allocated_count() {
            return Err(format!(
                "token says {} wavelengths are allocated but clusters hold {}",
                self.token.allocated_count(),
                seen.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> DbaController {
        // BW set 1 shape: 16 clusters, 48 dynamic wavelengths, cap 8.
        DbaController::new(16, 48, 1, 8, 1)
    }

    #[test]
    fn initial_state_has_only_reserved_wavelengths() {
        let c = controller();
        assert_eq!(c.total_held(), 16);
        assert_eq!(c.token.free_count(), 48);
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn uniform_targets_converge_to_uniform_allocation() {
        let mut c = controller();
        c.set_targets(&[4; 16]);
        c.converge(32);
        let alloc = c.allocation_snapshot();
        assert!(alloc.iter().all(|&p| p == 4), "allocation {alloc:?}");
        assert_eq!(c.total_held(), 64);
        assert_eq!(c.token.free_count(), 0);
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn heterogeneous_targets_allocate_more_to_demanding_clusters() {
        let mut c = controller();
        // Two clusters want the maximum, the rest want little.
        let mut targets = vec![2usize; 16];
        targets[3] = 8;
        targets[9] = 8;
        c.set_targets(&targets);
        c.converge(32);
        assert_eq!(c.pool(ClusterId(3)), 8);
        assert_eq!(c.pool(ClusterId(9)), 8);
        assert_eq!(c.pool(ClusterId(0)), 2);
        assert!(c.check_invariants().is_ok());
        // Total demand (2·8 + 14·2 = 44 dynamic above the reserve of 16... )
        // never exceeds the budget.
        assert!(c.total_held() <= 16 + 48);
    }

    #[test]
    fn oversubscription_converges_to_a_fair_split_without_starvation() {
        let mut c = controller();
        // Everyone wants the maximum: 16 × 8 = 128 > 64 available.
        c.set_targets(&[8; 16]);
        c.converge(64);
        let alloc = c.allocation_snapshot();
        assert!(c.check_invariants().is_ok());
        assert_eq!(c.token.free_count(), 0, "budget fully used");
        let min = *alloc.iter().min().unwrap();
        let max = *alloc.iter().max().unwrap();
        assert!(min >= 1, "no cluster may starve");
        assert!(
            max - min <= 1,
            "incremental acquisition must give a near-even split, got {alloc:?}"
        );
    }

    #[test]
    fn reallocation_releases_wavelengths_when_targets_drop() {
        let mut c = controller();
        c.set_targets(&[8; 16]);
        c.converge(64);
        // A task-mapping change: cluster 0 no longer needs extra bandwidth.
        let mut targets = vec![8usize; 16];
        targets[0] = 1;
        c.set_targets(&targets);
        c.converge(64);
        assert_eq!(c.pool(ClusterId(0)), 1);
        assert!(c.check_invariants().is_ok());
        // The released wavelengths were picked up by the others.
        assert_eq!(c.token.free_count(), 0);
    }

    #[test]
    fn releases_return_the_newest_wavelengths_and_never_the_reserve() {
        let mut c = DbaController::new(2, 4, 1, 5, 1);
        c.set_targets(&[4, 1]);
        c.converge(8);
        assert_eq!(c.clusters[0].acquired, [0, 1, 2]);
        c.set_targets(&[2, 1]);
        c.converge(8);
        assert_eq!(c.clusters[0].acquired, [0], "the newest two go back");
        assert!(!c.token.is_allocated(1) && !c.token.is_allocated(2));
        // A target below the reserve clamps to it: only acquisitions go back.
        c.set_targets(&[0, 0]);
        c.converge(8);
        assert_eq!(c.allocation_snapshot(), [1, 1]);
        assert_eq!(c.token.free_count(), 4);
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn the_split_depends_on_history() {
        // Two clusters, two dynamic wavelengths. Fresh, equal targets split
        // evenly; after cluster 0 took both under an earlier target, it
        // keeps them, because a visit only releases its own excess.
        let mut fresh = DbaController::new(2, 2, 1, 3, 1);
        fresh.set_targets(&[3, 3]);
        fresh.converge(8);
        assert_eq!(fresh.allocation_snapshot(), [2, 2]);
        let mut earlier = DbaController::new(2, 2, 1, 3, 1);
        earlier.set_targets(&[3, 1]);
        earlier.converge(8);
        earlier.set_targets(&[3, 3]);
        earlier.converge(8);
        assert_eq!(earlier.allocation_snapshot(), [3, 1]);
    }

    #[test]
    fn targets_are_clamped_to_the_channel_cap_and_reserve() {
        let mut c = controller();
        c.set_targets(&[100; 16]);
        assert_eq!(c.target(ClusterId(0)), 8);
        c.set_targets(&[0; 16]);
        assert_eq!(c.target(ClusterId(0)), 1);
    }

    #[test]
    fn tick_advances_the_ring_and_processes_allocations() {
        let mut c = controller();
        c.set_targets(&[8; 16]);
        let mut visits = 0;
        for _ in 0..64 {
            if c.tick().is_some() {
                visits += 1;
            }
        }
        assert_eq!(visits, 64, "hop latency 1 means one visit per cycle");
        assert!(
            c.total_held() > 16,
            "some wavelengths must have been acquired"
        );
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn a_converged_controller_ticks_in_place() {
        let mut c = DbaController::new(16, 48, 1, 8, 3);
        c.set_targets(&[8; 16]);
        c.converge(9);
        let converged = c.allocation_snapshot();
        for _ in 0..1_000 {
            let _ = c.tick();
        }
        assert_eq!(c.allocation_snapshot(), converged, "a visit moved a pool");
        assert!(c.check_invariants().is_ok());
    }
}
