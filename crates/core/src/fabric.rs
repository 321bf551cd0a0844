//! The d-HetPNoC photonic fabric: demand-driven wavelength pools.
//!
//! The fabric translates the chip's demand information (a
//! [`pnoc_traffic::demand::DemandMatrix`] built from the running
//! applications) into per-cluster wavelength targets, lets the token-based
//! [`DbaController`] converge to an allocation, and answers the cycle-accurate
//! system's queries:
//!
//! * the *pool size* of a cluster is its currently held wavelengths,
//! * a transmission toward destination `d` uses the wavelengths demanded by
//!   the application class of the `(src, d)` pair (never more than the pool),
//! * the reservation broadcast costs 1–2 cycles depending on how many
//!   wavelength identifiers must be piggybacked (Section 3.4.1.1).

use crate::dba::{AllocationPolicy, DbaController};
use crate::reservation::ReservationTiming;
use crate::token::{token_hop_cycles, token_size_bits};
use pnoc_faults::{FaultEvent, FaultKind, FaultSurface};
use pnoc_noc::ids::ClusterId;
use pnoc_photonics::dwdm::WavelengthGrid;
use pnoc_sim::config::SimConfig;
use pnoc_sim::system::PhotonicFabric;
use pnoc_traffic::demand::DemandMatrix;

/// The dynamic heterogeneous photonic fabric.
#[derive(Debug, Clone)]
pub struct DhetFabric {
    config: SimConfig,
    demand: DemandMatrix,
    controller: DbaController,
    reservation: ReservationTiming,
    policy: AllocationPolicy,
    max_channel_wavelengths: usize,
}

impl DhetFabric {
    /// The paper's maximum channel width for a bandwidth set (8 / 32 / 64,
    /// Table 3-3: the wavelength demand of the set's highest application
    /// class). This is what the `"d-hetpnoc"` registry entry's
    /// `max_wavelengths` parameter defaults to (via its `0 = auto` value).
    #[must_use]
    pub fn default_max_channel_wavelengths(config: &SimConfig) -> usize {
        ReservationTiming::default_max_identifiers(config.bandwidth_set)
    }

    /// Builds the fabric with the default (proportional) allocation policy
    /// at the paper's maximum channel width and converges the initial
    /// allocation.
    #[must_use]
    pub fn new(config: &SimConfig, demand: DemandMatrix) -> Self {
        let max = Self::default_max_channel_wavelengths(config);
        Self::with_options(config, demand, AllocationPolicy::Proportional, max)
    }

    /// Builds the fabric with an explicit allocation policy and maximum
    /// per-cluster channel width (what the registry entry's `policy` /
    /// `max_wavelengths` parameters feed). The width caps both the DBA
    /// controller's acquisition and the reservation flit's worst-case
    /// identifier payload.
    ///
    /// # Panics
    ///
    /// Panics if `max_channel_wavelengths` is zero or the demand matrix does
    /// not match the topology.
    #[must_use]
    pub(crate) fn with_options(
        config: &SimConfig,
        demand: DemandMatrix,
        policy: AllocationPolicy,
        max_channel_wavelengths: usize,
    ) -> Self {
        let num_clusters = config.topology.num_clusters();
        assert_eq!(
            demand.num_clusters(),
            num_clusters,
            "demand matrix does not match the topology"
        );
        assert!(
            max_channel_wavelengths > 0,
            "a channel needs at least one wavelength"
        );
        let set = config.bandwidth_set;
        let grid =
            WavelengthGrid::for_total(set.total_wavelengths(), config.wavelengths_per_waveguide);
        let reserved_per_cluster = 1;
        let dynamic = token_size_bits(
            grid.num_waveguides(),
            config.wavelengths_per_waveguide,
            reserved_per_cluster * num_clusters,
        );
        let hop = token_hop_cycles(
            dynamic,
            config.wavelengths_per_waveguide,
            config.wavelength_rate_gbps,
            config.clock,
        );
        let controller = DbaController::new(
            num_clusters,
            dynamic,
            reserved_per_cluster,
            max_channel_wavelengths,
            hop,
        );
        let reservation = ReservationTiming::with_max_identifiers(
            set,
            config.wavelengths_per_waveguide,
            config.wavelength_rate_gbps,
            config.clock,
            max_channel_wavelengths,
        );
        let mut fabric = Self {
            config: *config,
            demand,
            controller,
            reservation,
            policy,
            max_channel_wavelengths,
        };
        // The initial task mapping is known before the simulation starts, so
        // the allocation is converged up front (the token keeps circulating
        // during the run to model the protocol's steady-state behaviour). A
        // healthy surface derates nothing.
        fabric.allocate(&FaultSurface::new(num_clusters));
        fabric
    }

    /// Installs the controller's targets from the demand matrix (the
    /// policy's targets, derated by the laser dimming of `faults`), then
    /// converges the allocation. Construction calls it with a healthy
    /// surface and every degradation transition (apply and repair) calls it
    /// again, so a repaired fabric converges back to exactly the healthy
    /// targets.
    fn allocate(&mut self, faults: &FaultSurface) {
        let mut targets = Self::compute_targets(
            &self.config,
            &self.demand,
            self.policy,
            self.max_channel_wavelengths,
        );
        let laser = faults.laser_divisor() as usize;
        if laser > 1 {
            for target in &mut targets {
                *target = (*target / laser).max(1);
            }
        }
        self.controller.set_targets(&targets);
        self.controller
            .converge(4 * self.config.topology.num_clusters());
    }

    /// Computes per-cluster wavelength targets from the demand matrix,
    /// capped at `cap` wavelengths per cluster.
    fn compute_targets(
        config: &SimConfig,
        demand: &DemandMatrix,
        policy: AllocationPolicy,
        cap: usize,
    ) -> Vec<usize> {
        let set = config.bandwidth_set;
        let num_clusters = config.topology.num_clusters();
        match policy {
            AllocationPolicy::PaperMax => (0..num_clusters)
                .map(|c| {
                    let max_mult = demand.max_class_multiplier(ClusterId(c));
                    (set.min_class_wavelengths() * max_mult).min(cap)
                })
                .collect(),
            AllocationPolicy::Proportional => {
                // Apportion the whole wavelength budget in proportion to each
                // cluster's traffic intensity (largest-remainder method), so
                // that the aggregate bandwidth budget is fully assigned — the
                // same budget Firefly spreads uniformly. The class mix then
                // decides how many of those wavelengths an individual
                // transfer switches on.
                let total = set.total_wavelengths();
                let weights: Vec<f64> = (0..num_clusters)
                    .map(|c| demand.intensity(ClusterId(c)).max(1e-6))
                    .collect();
                let weight_sum: f64 = weights.iter().sum();
                let quotas: Vec<f64> = weights
                    .iter()
                    .map(|w| w / weight_sum * total as f64)
                    .collect();
                let mut targets: Vec<usize> = quotas
                    .iter()
                    .map(|q| (q.floor() as usize).clamp(1, cap))
                    .collect();
                // Hand out the remaining wavelengths by largest fractional
                // remainder, respecting the per-channel cap.
                let mut remaining = total.saturating_sub(targets.iter().sum::<usize>());
                let mut order: Vec<usize> = (0..num_clusters).collect();
                order.sort_by(|&a, &b| {
                    let fa = quotas[a] - quotas[a].floor();
                    let fb = quotas[b] - quotas[b].floor();
                    fb.partial_cmp(&fa).unwrap_or(std::cmp::Ordering::Equal)
                });
                let mut idx = 0;
                while remaining > 0 && targets.iter().any(|&t| t < cap) {
                    let c = order[idx % num_clusters];
                    if targets[c] < cap {
                        targets[c] += 1;
                        remaining -= 1;
                    }
                    idx += 1;
                }
                targets
            }
        }
    }

    /// Access to the DBA controller (allocation snapshots, invariants).
    #[must_use]
    pub fn controller(&self) -> &DbaController {
        &self.controller
    }

    /// The demand matrix the fabric was configured with.
    #[must_use]
    pub fn demand(&self) -> &DemandMatrix {
        &self.demand
    }
}

impl PhotonicFabric for DhetFabric {
    #[inline]
    fn pre_cycle(&mut self) {
        // Keep the token circulating; with a stable task mapping the
        // allocation is already converged, so visits are cheap no-ops, but
        // the protocol timing (and any remapped targets) is still modelled.
        let _ = self.controller.tick();
    }

    fn skip_cycles(&mut self, from: u64, to: u64) {
        // The controller processes every token arrival inside the span
        // through the same `on_token` path a per-cycle run would take.
        self.controller.skip_cycles(to - from);
    }

    #[inline]
    fn pool_size(&self, src: ClusterId) -> usize {
        self.controller.pool(src)
    }

    #[inline]
    fn wavelengths_for(&self, src: ClusterId, dst: ClusterId, faults: &FaultSurface) -> usize {
        let class = self.demand.class(src, dst);
        let demanded = self.config.bandwidth_set.class_wavelengths(class);
        // Unlike Firefly, only the degraded class's transfers shrink: the
        // DBA keeps steering healthy classes onto their full demand.
        let derated = (demanded / faults.class_divisor(class) as usize).max(1);
        derated.min(self.controller.pool(src)).max(1)
    }

    #[inline]
    fn reservation_cycles(&self) -> u64 {
        self.reservation.cycles
    }

    fn faults_changed(&mut self, event: &FaultEvent, faults: &FaultSurface) {
        // Laser dimming derates the targets. A degraded class changes none
        // (`wavelengths_for` derates its transfers), yet it re-converges
        // too: with `max_wavelengths` up to 512, `converge(4·N)` can stop
        // short of the fixed point, so this later converge can still move
        // pools. A link or ring transition leaves the allocation where it is.
        if matches!(
            event.kind,
            FaultKind::WavelengthDegrade | FaultKind::LaserDim
        ) {
            self.allocate(faults);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_noc::topology::ClusterTopology;
    use pnoc_noc::traffic_model::OfferedLoad;
    use pnoc_sim::config::BandwidthSet;
    use pnoc_traffic::pattern::{PacketShape, SkewLevel};
    use pnoc_traffic::skewed::SkewedTraffic;
    use pnoc_traffic::uniform::UniformRandomTraffic;

    fn config(set: BandwidthSet) -> SimConfig {
        SimConfig::fast(set)
    }

    fn uniform_demand(set: BandwidthSet) -> DemandMatrix {
        let cfg = config(set);
        let traffic = UniformRandomTraffic::new(
            ClusterTopology::paper_default(),
            PacketShape::new(set.packet_flits(), set.flit_bits()),
            OfferedLoad::new(0.01),
            cfg.seed,
        );
        DemandMatrix::from_model(&traffic, 16)
    }

    fn skewed_demand(set: BandwidthSet, skew: SkewLevel, seed: u64) -> DemandMatrix {
        let traffic = SkewedTraffic::new(
            ClusterTopology::paper_default(),
            PacketShape::new(set.packet_flits(), set.flit_bits()),
            skew,
            OfferedLoad::new(0.01),
            seed,
        );
        DemandMatrix::from_model(&traffic, 16)
    }

    #[test]
    fn uniform_demand_reproduces_the_firefly_allocation() {
        // "with uniform traffic ... both architectures provide the exact same
        // bandwidth between all pairs of clusters."
        for set in BandwidthSet::ALL {
            let cfg = config(set);
            let fabric = DhetFabric::new(&cfg, uniform_demand(set));
            let alloc = fabric.controller().allocation_snapshot();
            let firefly_width = set.class_wavelengths(pnoc_noc::packet::BandwidthClass::MediumHigh);
            assert!(
                alloc.iter().all(|&p| p == firefly_width),
                "{set:?}: allocation {alloc:?} != uniform {firefly_width}"
            );
            assert_eq!(
                fabric.wavelengths_for(ClusterId(0), ClusterId(5), &FaultSurface::new(16)),
                firefly_width
            );
        }
    }

    #[test]
    fn skewed_demand_gives_heterogeneous_pools_within_budget() {
        let cfg = config(BandwidthSet::Set1);
        let fabric = DhetFabric::new(
            &cfg,
            skewed_demand(BandwidthSet::Set1, SkewLevel::Skewed3, 11),
        );
        let alloc = fabric.controller().allocation_snapshot();
        let total: usize = alloc.iter().sum();
        assert!(total <= 64, "allocation {alloc:?} exceeds the budget");
        assert!(alloc.iter().all(|&p| (1..=8).contains(&p)), "{alloc:?}");
        let min = alloc.iter().min().unwrap();
        let max = alloc.iter().max().unwrap();
        assert!(
            max > min,
            "skewed demand must produce a heterogeneous allocation"
        );
        fabric.controller().check_invariants().unwrap();
    }

    #[test]
    fn pools_track_cluster_traffic_intensity() {
        let cfg = config(BandwidthSet::Set1);
        let demand = skewed_demand(BandwidthSet::Set1, SkewLevel::Skewed3, 5);
        let fabric = DhetFabric::new(&cfg, demand.clone());
        // The cluster with the highest traffic intensity must get at least
        // as many wavelengths as the one with the lowest.
        let busiest = (0..16)
            .max_by(|&a, &b| {
                demand
                    .intensity(ClusterId(a))
                    .partial_cmp(&demand.intensity(ClusterId(b)))
                    .unwrap()
            })
            .unwrap();
        let calmest = (0..16)
            .min_by(|&a, &b| {
                demand
                    .intensity(ClusterId(a))
                    .partial_cmp(&demand.intensity(ClusterId(b)))
                    .unwrap()
            })
            .unwrap();
        assert!(
            fabric.pool_size(ClusterId(busiest)) >= fabric.pool_size(ClusterId(calmest)),
            "busy cluster must not get less bandwidth than an idle one"
        );
    }

    #[test]
    fn transmissions_use_the_class_wavelengths_capped_by_the_pool() {
        let cfg = config(BandwidthSet::Set1);
        let demand = skewed_demand(BandwidthSet::Set1, SkewLevel::Skewed2, 9);
        let fabric = DhetFabric::new(&cfg, demand.clone());
        for s in 0..16 {
            for d in 0..16 {
                if s == d {
                    continue;
                }
                let (src, dst) = (ClusterId(s), ClusterId(d));
                let w = fabric.wavelengths_for(src, dst, &FaultSurface::new(16));
                assert!(w >= 1);
                assert!(w <= fabric.pool_size(src));
                assert!(w <= cfg.bandwidth_set.class_wavelengths(demand.class(src, dst)));
            }
        }
    }

    #[test]
    fn reservation_cycles_match_the_bandwidth_set() {
        let f1 = DhetFabric::new(
            &config(BandwidthSet::Set1),
            uniform_demand(BandwidthSet::Set1),
        );
        let f3 = DhetFabric::new(
            &config(BandwidthSet::Set3),
            uniform_demand(BandwidthSet::Set3),
        );
        assert_eq!(f1.reservation_cycles(), 1);
        assert_eq!(f3.reservation_cycles(), 2);
    }

    #[test]
    fn paper_max_policy_requests_the_maximum_class() {
        let cfg = config(BandwidthSet::Set1);
        let demand = skewed_demand(BandwidthSet::Set1, SkewLevel::Skewed1, 3);
        let max = DhetFabric::default_max_channel_wavelengths(&cfg);
        let fabric = DhetFabric::with_options(&cfg, demand, AllocationPolicy::PaperMax, max);
        assert_eq!(fabric.policy, AllocationPolicy::PaperMax);
        // With nearly every cluster having at least one high-class flow, the
        // targets are all 8 and the budget-constrained allocation stays fair.
        let alloc = fabric.controller().allocation_snapshot();
        assert!(alloc.iter().sum::<usize>() <= 64);
        fabric.controller().check_invariants().unwrap();
    }

    #[test]
    fn explicit_max_channel_width_caps_the_allocation() {
        let cfg = config(BandwidthSet::Set1);
        let demand = skewed_demand(BandwidthSet::Set1, SkewLevel::Skewed3, 11);
        let capped =
            DhetFabric::with_options(&cfg, demand.clone(), AllocationPolicy::Proportional, 4);
        assert_eq!(capped.max_channel_wavelengths, 4);
        let alloc = capped.controller().allocation_snapshot();
        assert!(alloc.iter().all(|&p| p <= 4), "{alloc:?}");
        // A narrower maximum channel shrinks the reservation payload too.
        let default = DhetFabric::new(&cfg, demand);
        assert_eq!(
            DhetFabric::default_max_channel_wavelengths(&cfg),
            8,
            "set 1 default"
        );
        assert!(
            capped.reservation.identifier_payload_bits
                < default.reservation.identifier_payload_bits
        );
        capped.controller().check_invariants().unwrap();
    }

    #[test]
    fn degradation_shrinks_only_the_damaged_class_and_repairs_restore_it() {
        let cfg = config(BandwidthSet::Set1);
        let demand = skewed_demand(BandwidthSet::Set1, SkewLevel::Skewed2, 9);
        let mut fabric = DhetFabric::new(&cfg, demand.clone());
        let healthy_alloc = fabric.controller().allocation_snapshot();
        // Find one high-class and one low-class pair to compare.
        let mut high_pair = None;
        let mut low_pair = None;
        for s in 0..16 {
            for d in 0..16 {
                if s == d {
                    continue;
                }
                let (src, dst) = (ClusterId(s), ClusterId(d));
                match demand.class(src, dst) {
                    pnoc_noc::packet::BandwidthClass::High if high_pair.is_none() => {
                        high_pair = Some((src, dst));
                    }
                    pnoc_noc::packet::BandwidthClass::Low if low_pair.is_none() => {
                        low_pair = Some((src, dst));
                    }
                    _ => {}
                }
            }
        }
        let (hs, hd) = high_pair.expect("skewed demand has a high-class flow");
        let mut faults = FaultSurface::new(16);
        let healthy_high = fabric.wavelengths_for(hs, hd, &faults);
        let event = pnoc_faults::FaultPlan::parse("wavelength-degrade@c10-20:class-high/2")
            .unwrap()
            .events()[0];
        faults.apply(&event);
        fabric.faults_changed(&event, &faults);
        // The degraded class's transfers shrink; a healthy class is untouched
        // (the DBA keeps steering it onto its full demand).
        assert!(fabric.wavelengths_for(hs, hd, &faults) < healthy_high);
        if let Some((ls, ld)) = low_pair {
            let w = fabric.wavelengths_for(ls, ld, &faults);
            assert!(w >= 1);
            assert!(w <= cfg.bandwidth_set.class_wavelengths(demand.class(ls, ld)));
        }
        fabric.controller().check_invariants().unwrap();
        faults.clear(&event);
        fabric.faults_changed(&event, &faults);
        assert_eq!(fabric.wavelengths_for(hs, hd, &faults), healthy_high);
        assert_eq!(fabric.controller().allocation_snapshot(), healthy_alloc);

        // Laser dimming derates every pool target globally.
        let dim = pnoc_faults::FaultPlan::parse("laser-dim@c10-20:fabric/2")
            .unwrap()
            .events()[0];
        faults.apply(&dim);
        fabric.faults_changed(&dim, &faults);
        let dimmed = fabric.controller().allocation_snapshot();
        assert!(dimmed.iter().sum::<usize>() < healthy_alloc.iter().sum::<usize>());
        faults.clear(&dim);
        fabric.faults_changed(&dim, &faults);
        assert_eq!(fabric.controller().allocation_snapshot(), healthy_alloc);

        // A link or ring transition does not move the allocation.
        let fail =
            pnoc_faults::FaultPlan::parse("link-fail@c10-20:sw4,ring-stuck@c10-20:sw2").unwrap();
        for event in fail.events() {
            faults.apply(event);
            fabric.faults_changed(event, &faults);
        }
        assert_eq!(fabric.controller().allocation_snapshot(), healthy_alloc);
    }

    #[test]
    fn remap_reconverges_the_allocation() {
        let cfg = config(BandwidthSet::Set1);
        let mut fabric = DhetFabric::new(
            &cfg,
            skewed_demand(BandwidthSet::Set1, SkewLevel::Skewed3, 1),
        );
        let before = fabric.controller().allocation_snapshot();
        // A task-mapping change installs a new demand matrix and re-runs
        // target computation and allocation convergence.
        fabric.demand = uniform_demand(BandwidthSet::Set1);
        fabric.allocate(&FaultSurface::new(16));
        let after = fabric.controller().allocation_snapshot();
        assert_ne!(before, after, "remapping must change a skewed allocation");
        assert!(after.iter().all(|&p| p == 4));
    }
}
