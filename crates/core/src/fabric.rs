//! The d-HetPNoC allocator: demand-driven wavelength pools.
//!
//! [`DhetFabric`] translates the chip's demand information (a
//! [`pnoc_traffic::demand::DemandMatrix`] built from the running
//! applications) into per-cluster wavelength targets and the eq. 1 budget,
//! and fills the pools from the reserve with [`refill`], the count form of
//! the token protocol's fixed point (the `dba` module docs). It hands the
//! cycle-accurate system a class table of the one [`PhotonicFabric`]
//! ([`DhetFabric::into_fabric`]):
//!
//! * the *pool* of a cluster is its currently held wavelengths,
//! * a transmission toward destination `d` uses the wavelengths demanded by
//!   the application class of the `(src, d)` pair (never more than the pool),
//! * the reservation broadcast costs 1–2 cycles depending on how many
//!   wavelength identifiers must be piggybacked (Section 3.4.1.1),
//! * the targets, budget, reserve and cap ride along as the table's
//!   [`Allocation`], from which a `laser-dim` transition refills the pools
//!   ([`PhotonicFabric::laser_changed`]).

use crate::dba::AllocationPolicy;
use crate::reservation::ReservationTiming;
use crate::token::token_size_bits;
use pnoc_noc::ids::ClusterId;
use pnoc_photonics::dwdm::WavelengthGrid;
use pnoc_sim::config::{BandwidthSet, SimConfig};
use pnoc_sim::system::{refill, Allocation, PhotonicFabric};
use pnoc_traffic::demand::DemandMatrix;

/// The dynamic heterogeneous allocator: demand, targets, budget and the
/// pools they converge to behind a d-HetPNoC class table.
#[derive(Debug, Clone)]
pub struct DhetFabric {
    set: BandwidthSet,
    demand: DemandMatrix,
    allocation: Allocation,
    pools: Vec<usize>,
    reservation: ReservationTiming,
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
    /// `max_wavelengths` parameters feed). The width caps both a cluster's
    /// pool and the reservation flit's worst-case identifier payload.
    ///
    /// # Panics
    ///
    /// Panics if `max_channel_wavelengths` is zero or the demand matrix does
    /// not match the topology.
    #[must_use]
    pub fn with_options(
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
        let reserve = 1;
        let budget = token_size_bits(
            grid.num_waveguides(),
            config.wavelengths_per_waveguide,
            reserve * num_clusters,
        );
        let cap = max_channel_wavelengths;
        let targets = Self::compute_targets(config, &demand, policy, cap)
            .into_iter()
            .map(|target| target.clamp(reserve, cap))
            .collect();
        let allocation = Allocation {
            targets,
            budget,
            reserve,
            cap,
        };
        // The initial task mapping is known before the simulation starts, so
        // the run starts at the converged allocation.
        let pools = refill(
            &vec![reserve; num_clusters],
            &allocation.targets,
            budget,
            reserve,
            cap,
        );
        let reservation = ReservationTiming::with_max_identifiers(
            set,
            config.wavelengths_per_waveguide,
            config.wavelength_rate_gbps,
            config.clock,
            cap,
        );
        Self {
            set,
            demand,
            allocation,
            pools,
            reservation,
        }
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

    /// The demand matrix the fabric was configured with.
    #[must_use]
    pub fn demand(&self) -> &DemandMatrix {
        &self.demand
    }

    /// The class table the system runs on, carrying the [`Allocation`] a
    /// `laser-dim` transition refills its pools from.
    #[must_use]
    pub fn into_fabric(self) -> PhotonicFabric {
        PhotonicFabric::class(
            self.pools,
            self.demand,
            self.set,
            self.reservation.cycles,
            self.allocation,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_faults::{FaultPlan, FaultSurface};
    use pnoc_noc::topology::ClusterTopology;
    use pnoc_noc::traffic_model::OfferedLoad;
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
            let table = DhetFabric::new(&cfg, uniform_demand(set)).into_fabric();
            let alloc = table.pools();
            let firefly_width = set.class_wavelengths(pnoc_noc::packet::BandwidthClass::MediumHigh);
            assert!(
                alloc.iter().all(|&p| p == firefly_width),
                "{set:?}: allocation {alloc:?} != uniform {firefly_width}"
            );
            assert_eq!(
                table.wavelengths_for(ClusterId(0), ClusterId(5), &FaultSurface::new(16)),
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
        let alloc = &fabric.pools;
        let total: usize = alloc.iter().sum();
        assert!(total <= 64, "allocation {alloc:?} exceeds the budget");
        assert!(alloc.iter().all(|&p| (1..=8).contains(&p)), "{alloc:?}");
        let min = alloc.iter().min().unwrap();
        let max = alloc.iter().max().unwrap();
        assert!(
            max > min,
            "skewed demand must produce a heterogeneous allocation"
        );
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
        let pool = |c: usize| fabric.pools[c];
        assert!(
            pool(busiest) >= pool(calmest),
            "busy cluster must not get less bandwidth than an idle one"
        );
    }

    #[test]
    fn transmissions_use_the_class_wavelengths_capped_by_the_pool() {
        let cfg = config(BandwidthSet::Set1);
        let demand = skewed_demand(BandwidthSet::Set1, SkewLevel::Skewed2, 9);
        let table = DhetFabric::new(&cfg, demand.clone()).into_fabric();
        for s in 0..16 {
            for d in 0..16 {
                if s == d {
                    continue;
                }
                let (src, dst) = (ClusterId(s), ClusterId(d));
                let w = table.wavelengths_for(src, dst, &FaultSurface::new(16));
                assert!(w >= 1);
                assert!(w <= table.pool_size(src));
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
        assert_eq!(f1.into_fabric().reservation_cycles(), 1);
        assert_eq!(f3.into_fabric().reservation_cycles(), 2);
    }

    #[test]
    fn paper_max_policy_requests_the_maximum_class() {
        let cfg = config(BandwidthSet::Set1);
        let demand = skewed_demand(BandwidthSet::Set1, SkewLevel::Skewed1, 3);
        let max = DhetFabric::default_max_channel_wavelengths(&cfg);
        let fabric =
            DhetFabric::with_options(&cfg, demand.clone(), AllocationPolicy::PaperMax, max);
        // Each target is the widest class the cluster sends; with nearly
        // every cluster sending a high-class flow the targets oversubscribe
        // the budget, and the allocation stays within it.
        for (c, &target) in fabric.allocation.targets.iter().enumerate() {
            let widest = cfg.bandwidth_set.min_class_wavelengths()
                * demand.max_class_multiplier(ClusterId(c));
            assert_eq!(target, widest.min(max));
        }
        assert!(fabric.allocation.targets.iter().sum::<usize>() > 64);
        assert!(fabric.pools.iter().sum::<usize>() <= 64);
    }

    #[test]
    fn explicit_max_channel_width_caps_the_allocation() {
        let cfg = config(BandwidthSet::Set1);
        let demand = skewed_demand(BandwidthSet::Set1, SkewLevel::Skewed3, 11);
        let capped =
            DhetFabric::with_options(&cfg, demand.clone(), AllocationPolicy::Proportional, 4);
        assert_eq!(capped.allocation.cap, 4);
        let alloc = &capped.pools;
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
    }

    #[test]
    fn degradation_shrinks_only_the_damaged_class_and_repairs_restore_it() {
        let cfg = config(BandwidthSet::Set1);
        let demand = skewed_demand(BandwidthSet::Set1, SkewLevel::Skewed2, 9);
        let mut table = DhetFabric::new(&cfg, demand.clone()).into_fabric();
        let healthy_alloc = table.pools().to_vec();
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
        // A degradation moves no pool; it derates widths only.
        let mut faults = FaultSurface::new(16);
        let healthy_high = table.wavelengths_for(hs, hd, &faults);
        let event = FaultPlan::parse("wavelength-degrade@c10-20:class-high/2")
            .unwrap()
            .events()[0];
        faults.apply(&event);
        // The degraded class's transfers shrink; a healthy class is untouched
        // (the DBA keeps steering it onto its full demand).
        assert!(table.wavelengths_for(hs, hd, &faults) < healthy_high);
        if let Some((ls, ld)) = low_pair {
            let w = table.wavelengths_for(ls, ld, &faults);
            assert!(w >= 1);
            assert!(w <= cfg.bandwidth_set.class_wavelengths(demand.class(ls, ld)));
        }
        faults.clear(&event);
        assert_eq!(table.wavelengths_for(hs, hd, &faults), healthy_high);

        // Laser dimming derates every pool target globally.
        let dim = FaultPlan::parse("laser-dim@c10-20:fabric/2")
            .unwrap()
            .events()[0];
        faults.apply(&dim);
        table.laser_changed(&faults);
        assert!(table.pools().iter().sum::<usize>() < healthy_alloc.iter().sum::<usize>());
        faults.clear(&dim);
        table.laser_changed(&faults);
        assert_eq!(table.pools(), healthy_alloc);
    }

    #[test]
    fn paper_max_pools_remember_a_laser_dim_after_its_repair() {
        // The protocol's history dependence: under `paper-max` every cluster
        // but 3 aims for 8 wavelengths and 3 for 4, against a fair share of
        // 4. Dimming halves the targets, so cluster 3 frees two wavelengths;
        // on the repair `laser_changed` refills from the dimmed pools in
        // index order, 0 and 1 take them and 3 stays short. The healthy
        // targets stay in the table, the healthy pools do not come back.
        let cfg = config(BandwidthSet::Set1);
        let demand = skewed_demand(BandwidthSet::Set1, SkewLevel::Skewed1, 0);
        let max = DhetFabric::default_max_channel_wavelengths(&cfg);
        let mut table =
            DhetFabric::with_options(&cfg, demand, AllocationPolicy::PaperMax, max).into_fabric();
        let healthy = table.allocation().unwrap().clone();
        assert_eq!(healthy.targets[3], 4);
        assert_eq!(table.pools(), [4; 16]);
        let dim = FaultPlan::parse("laser-dim@c10-20:fabric/2")
            .unwrap()
            .events()[0];
        let mut faults = FaultSurface::new(16);
        faults.apply(&dim);
        table.laser_changed(&faults);
        faults.clear(&dim);
        table.laser_changed(&faults);
        assert_eq!(table.allocation(), Some(&healthy));
        let mut repaired = vec![4; 16];
        repaired[..2].fill(5);
        repaired[3] = 2;
        assert_eq!(table.pools(), repaired);
    }

    #[test]
    fn remap_reconverges_the_allocation() {
        let cfg = config(BandwidthSet::Set1);
        let fabric = DhetFabric::new(
            &cfg,
            skewed_demand(BandwidthSet::Set1, SkewLevel::Skewed3, 1),
        );
        // A task-mapping change computes the new demand's targets and
        // refills the pools from the current ones.
        let targets = DhetFabric::compute_targets(
            &cfg,
            &uniform_demand(BandwidthSet::Set1),
            AllocationPolicy::Proportional,
            fabric.allocation.cap,
        );
        let Allocation {
            budget,
            reserve,
            cap,
            ..
        } = fabric.allocation;
        let after = refill(&fabric.pools, &targets, budget, reserve, cap);
        assert_ne!(
            fabric.pools, after,
            "remapping must change a skewed allocation"
        );
        assert!(after.iter().all(|&p| p == 4));
    }
}
