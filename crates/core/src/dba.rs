//! The dynamic bandwidth allocation (DBA) controller.
//!
//! One controller instance models the distributed token-based protocol of
//! Section 3.2.1: the token circulates between the photonic routers on the
//! control waveguide; the router holding the token acquires or relinquishes
//! wavelengths so that its held pool approaches its target, then passes the
//! token on. Acquisition is incremental (a bounded number of wavelengths per
//! token visit) so that, when the chip-wide demand exceeds the wavelength
//! budget, the allocation converges to a demand-weighted max-min split
//! instead of a first-come-take-all outcome.
//!
//! The controller upholds three invariants, checked by the property tests in
//! `tests/`:
//!
//! 1. a wavelength is never allocated to two clusters at once,
//! 2. every cluster always holds at least its reserved minimum (no
//!    starvation: "This ensures that no cluster starves even if all other
//!    clusters consume all the data bandwidth"),
//! 3. no cluster ever holds more than the per-channel maximum of the
//!    bandwidth set.

use crate::tables::{CurrentTable, RequestTable};
use crate::token::{Token, TokenRing};
use pnoc_noc::ids::ClusterId;

/// How a cluster's wavelength target is derived from the demand information.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum AllocationPolicy {
    /// Wavelength pools sized in proportion to each cluster's traffic
    /// requirement (Section 3.1: "a variable number of wavelengths are
    /// allocated to the channel in proportion to the traffic requirement").
    /// This is the default.
    #[default]
    Proportional,
    /// Each cluster aims for the maximum entry of its request table
    /// (the literal acquisition goal stated in Section 3.2.1); used as an
    /// ablation of the allocation policy.
    PaperMax,
}

/// Per-cluster allocation state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ClusterAllocation {
    request: RequestTable,
    current: CurrentTable,
    target: usize,
}

/// The chip-wide DBA state machine.
#[derive(Debug, Clone, PartialEq)]
pub struct DbaController {
    token: Token,
    ring: TokenRing,
    clusters: Vec<ClusterAllocation>,
    max_channel_wavelengths: usize,
    /// Maximum wavelengths acquired per token visit.
    acquisition_chunk: usize,
    /// Total token visits processed (diagnostic).
    token_visits: u64,
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
        let clusters = (0..num_clusters)
            .map(|_| ClusterAllocation {
                request: RequestTable::new(num_clusters),
                current: CurrentTable::new(num_clusters, reserved_per_cluster),
                target: reserved_per_cluster,
            })
            .collect();
        Self {
            token: Token::new(dynamic_wavelengths),
            ring: TokenRing::new(num_clusters, token_hop_cycles),
            clusters,
            max_channel_wavelengths,
            acquisition_chunk: 1,
            token_visits: 0,
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
                .max(cluster.current.reserved())
                .min(self.max_channel_wavelengths);
        }
    }

    /// Installs a cluster's request table (per-destination wavelength
    /// requests, the element-wise max of its cores' demand tables).
    pub(crate) fn set_request_table(&mut self, cluster: ClusterId, request: RequestTable) {
        self.clusters[cluster.0].request = request;
    }

    /// Current pool (reserved + acquired wavelengths) of a cluster.
    #[must_use]
    pub fn pool(&self, cluster: ClusterId) -> usize {
        self.clusters[cluster.0].current.total_held()
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
        self.clusters.iter().map(|c| c.current.total_held()).sum()
    }

    /// Processes a token visit at `cluster`: release excess wavelengths, or
    /// acquire up to `acquisition_chunk` missing ones.
    pub(crate) fn on_token(&mut self, cluster: ClusterId) {
        self.token_visits += 1;
        let state = &mut self.clusters[cluster.0];
        let held = state.current.total_held();
        if held > state.target {
            let released = state.current.release(held - state.target);
            self.token.release(&released);
        } else if held < state.target {
            let want = (state.target - held).min(self.acquisition_chunk);
            let acquired = self.token.allocate(want);
            state.current.acquire(&acquired);
        }
        state.current.refresh(&state.request);
    }

    /// Advances one cycle of token circulation; when the token arrives at a
    /// router, that router's allocation step runs. Returns the router that
    /// processed the token this cycle, if any.
    pub fn tick(&mut self) -> Option<ClusterId> {
        let arrived = self.ring.tick()?;
        self.on_token(arrived);
        Some(arrived)
    }

    /// Fast-forwards `span` cycles, equivalent to calling
    /// [`DbaController::tick`] `span` times: every token arrival inside the
    /// span is processed in order, so the allocation state (and the token
    /// visit count) ends up exactly as if the controller had been ticked
    /// cycle by cycle.
    pub fn skip_cycles(&mut self, mut span: u64) {
        while span > 0 {
            let until_arrival = self.ring.cycles_until_arrival();
            if span < until_arrival {
                self.ring.skip(span);
                return;
            }
            span -= until_arrival;
            self.ring.skip(until_arrival - 1);
            let arrived = self.ring.tick().expect("token arrival is due this cycle");
            self.on_token(arrived);
        }
    }

    /// Circulates the token for up to `max_rotations` full rotations or until
    /// the allocation stops changing, whichever comes first. Used when the
    /// task mapping changes (and at construction) so that measurements see
    /// the converged allocation.
    pub fn converge(&mut self, max_rotations: usize) {
        for _ in 0..max_rotations {
            let before: Vec<usize> = (0..self.num_clusters())
                .map(|c| self.pool(ClusterId(c)))
                .collect();
            for c in 0..self.num_clusters() {
                self.on_token(ClusterId(c));
            }
            let after: Vec<usize> = (0..self.num_clusters())
                .map(|c| self.pool(ClusterId(c)))
                .collect();
            if before == after {
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
            if cluster.current.total_held() < cluster.current.reserved() {
                return Err(format!("cluster {idx} lost its reserved minimum"));
            }
            if cluster.current.total_held() > self.max_channel_wavelengths {
                return Err(format!(
                    "cluster {idx} holds {} wavelengths, above the cap {}",
                    cluster.current.total_held(),
                    self.max_channel_wavelengths
                ));
            }
            for &w in cluster.current.acquired() {
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
        assert!(c.token_visits >= 64);
        assert!(
            c.total_held() > 16,
            "some wavelengths must have been acquired"
        );
        assert!(c.check_invariants().is_ok());
    }

    #[test]
    fn skip_cycles_is_bitwise_identical_to_repeated_ticks() {
        // Hop latency 3 so spans start and end mid-hop, exercising the
        // partial skips on both sides of an arrival.
        for span in [1u64, 2, 3, 5, 48, 97] {
            let mut ticked = DbaController::new(16, 48, 1, 8, 3);
            ticked.set_targets(&[8; 16]);
            let mut skipped = ticked.clone();
            for _ in 0..span {
                let _ = ticked.tick();
            }
            skipped.skip_cycles(span);
            assert_eq!(ticked, skipped, "span {span}");
            assert!(skipped.check_invariants().is_ok());
        }
    }

    #[test]
    fn next_token_cycle_predicts_the_next_arrival() {
        let mut c = DbaController::new(4, 8, 1, 4, 3);
        let mut now = 0u64;
        let predicted = now + c.ring.cycles_until_arrival();
        loop {
            now += 1;
            if c.tick().is_some() {
                break;
            }
        }
        assert_eq!(now, predicted);
    }
}
