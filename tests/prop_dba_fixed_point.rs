//! The allocation a d-HetPNoC run sees is the token protocol's fixed point.
//!
//! No simulated cycle moves the token, so the pools the fabric holds after
//! construction and after every fault transition must already be where the
//! ring would leave them: a clone of the controller ticked through
//! `max_channel_wavelengths + 1` full rotations changes no pool. This is
//! drawn over every registered traffic pattern, all three bandwidth sets,
//! both allocation policies and channel caps on either side of 65 (the
//! widest target 64 rotations of one-wavelength visits reach from a fresh
//! controller).

use d_hetpnoc_repro::dhetpnoc::dba::AllocationPolicy;
use d_hetpnoc_repro::dhetpnoc::fabric::DhetFabric;
use d_hetpnoc_repro::noc::ids::ClusterId;
use d_hetpnoc_repro::noc::topology::ClusterTopology;
use d_hetpnoc_repro::noc::traffic_model::OfferedLoad;
use d_hetpnoc_repro::sim::config::{BandwidthSet, SimConfig};
use d_hetpnoc_repro::sim::{FaultPlan, FaultSurface};
use d_hetpnoc_repro::traffic::demand::DemandMatrix;
use d_hetpnoc_repro::traffic::factory::{
    lookup_traffic_factory, registered_traffic_patterns, TrafficSpec,
};
use d_hetpnoc_repro::traffic::pattern::PacketShape;
use proptest::prelude::*;

/// Channel caps to draw from; 0 is the set's Table 3-3 default.
const MAX_WAVELENGTHS: [usize; 6] = [0, 64, 65, 66, 128, 512];

fn fabric(
    pattern: &str,
    set: BandwidthSet,
    policy: AllocationPolicy,
    max: usize,
    seed: u64,
) -> DhetFabric {
    let config = SimConfig::paper_default(set);
    let spec = TrafficSpec::new(
        ClusterTopology::paper_default(),
        PacketShape::new(set.packet_flits(), set.flit_bits()),
        OfferedLoad::new(0.01),
        seed,
    );
    let traffic = lookup_traffic_factory(pattern).unwrap().build(&spec);
    let demand = DemandMatrix::from_model(&*traffic, 16);
    DhetFabric::with_options(&config, demand, policy, max)
}

/// Ticks a clone of the fabric's controller through `max + 1` full
/// rotations of the ring and asserts that no pool moved.
fn assert_at_fixed_point(fabric: &DhetFabric, max: usize, when: &str) {
    let mut controller = fabric.controller().clone();
    let mut visits = 0;
    while visits < (max + 1) * controller.num_clusters() {
        visits += usize::from(controller.tick().is_some());
    }
    assert_eq!(
        controller.allocation_snapshot(),
        fabric.controller().allocation_snapshot(),
        "the ring moved a pool {when}"
    );
    fabric.controller().check_invariants().unwrap();
}

/// Asserts the fixed point after construction and after each apply and
/// repair of a laser dim by 2 and by 4 and a degraded high class.
fn check_fabric_and_fault_transitions(mut fabric: DhetFabric, max: usize) {
    assert_at_fixed_point(&fabric, max, "after construction");
    let plan = FaultPlan::parse(
        "laser-dim@c10-20:fabric/2,laser-dim@c30-40:fabric/4,\
         wavelength-degrade@c50-60:class-high/2",
    )
    .unwrap();
    let mut faults = FaultSurface::new(16);
    for event in plan.events() {
        faults.apply(event);
        fabric.faults_changed(event, &faults);
        assert_at_fixed_point(&fabric, max, &format!("after applying {event:?}"));
        faults.clear(event);
        fabric.faults_changed(event, &faults);
        assert_at_fixed_point(&fabric, max, &format!("after repairing {event:?}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every registered pattern, at a drawn set, policy, cap and seed.
    #[test]
    fn fabrics_start_and_stay_at_the_protocol_fixed_point(
        set in 0usize..3,
        paper_max in any::<bool>(),
        max_index in 0usize..MAX_WAVELENGTHS.len(),
        seed in 0u64..1_000_000,
    ) {
        let set = BandwidthSet::ALL[set];
        let policy = if paper_max {
            AllocationPolicy::PaperMax
        } else {
            AllocationPolicy::Proportional
        };
        let max = match MAX_WAVELENGTHS[max_index] {
            0 => DhetFabric::default_max_channel_wavelengths(&SimConfig::paper_default(set)),
            n => n,
        };
        for pattern in registered_traffic_patterns() {
            let fabric = fabric(&pattern, set, policy, max, seed);
            check_fabric_and_fault_transitions(fabric, max);
        }
    }
}

/// A proportional target above 65: 64 rotations of one-wavelength visits
/// stopped cluster 0 at 65 of its 72, and the ring filled the rest during
/// the first cycles of the run.
#[test]
fn a_target_above_65_is_reached_before_the_run() {
    let fabric = fabric(
        "skewed-3",
        BandwidthSet::Set3,
        AllocationPolicy::Proportional,
        512,
        3,
    );
    let targets: Vec<usize> = (0..2)
        .map(|c| fabric.controller().target(ClusterId(c)))
        .collect();
    assert_eq!(targets, [72, 30]);
    assert_eq!(fabric.controller().pool(ClusterId(0)), 72);
    check_fabric_and_fault_transitions(fabric, 512);
}
