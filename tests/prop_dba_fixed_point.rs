//! The allocation a d-HetPNoC run sees is the token protocol's fixed point.
//!
//! No simulated cycle moves the token, so the pools the class table holds
//! after construction and after every fault transition must already be
//! where the ring would leave them. The table is driven as the system
//! drives it (`PhotonicFabric::laser_changed` on each `laser-dim`
//! transition), and an oracle `DbaController` with the table's targets,
//! budget, reserve and cap is driven through `set_targets` + `converge` on
//! every transition: the two must hold equal pools, and the oracle ticked
//! through `max_channel_wavelengths + 1` full rotations changes no pool.
//! This is drawn over every registered traffic pattern, all three bandwidth
//! sets, both allocation policies and channel caps on either side of 65
//! (the widest target 64 rotations of one-wavelength visits reach from a
//! fresh controller).

use d_hetpnoc_repro::dhetpnoc::dba::{AllocationPolicy, DbaController};
use d_hetpnoc_repro::dhetpnoc::fabric::DhetFabric;
use d_hetpnoc_repro::noc::topology::ClusterTopology;
use d_hetpnoc_repro::noc::traffic_model::OfferedLoad;
use d_hetpnoc_repro::sim::config::{BandwidthSet, SimConfig};
use d_hetpnoc_repro::sim::system::PhotonicFabric;
use d_hetpnoc_repro::sim::{FaultKind, FaultPlan, FaultSurface};
use d_hetpnoc_repro::traffic::demand::DemandMatrix;
use d_hetpnoc_repro::traffic::factory::{
    lookup_traffic_factory, registered_traffic_patterns, TrafficSpec,
};
use d_hetpnoc_repro::traffic::pattern::PacketShape;
use proptest::prelude::*;

/// Channel caps to draw from; 0 is the set's Table 3-3 default.
const MAX_WAVELENGTHS: [usize; 6] = [0, 64, 65, 66, 128, 512];

fn table(
    pattern: &str,
    set: BandwidthSet,
    policy: AllocationPolicy,
    max: usize,
    seed: u64,
) -> PhotonicFabric {
    let config = SimConfig::paper_default(set);
    let spec = TrafficSpec::new(
        ClusterTopology::paper_default(),
        PacketShape::new(set.packet_flits(), set.flit_bits()),
        OfferedLoad::new(0.01),
        seed,
    );
    let traffic = lookup_traffic_factory(pattern).unwrap().build(&spec);
    let demand = DemandMatrix::from_model(&*traffic, 16);
    DhetFabric::with_options(&config, demand, policy, max).into_fabric()
}

/// Installs the table's healthy targets, derated by the laser dimming of
/// `faults`, on the oracle and converges it.
fn retarget(oracle: &mut DbaController, table: &PhotonicFabric, faults: &FaultSurface) {
    let allocation = table.allocation().expect("a class table");
    let laser = faults.laser_divisor() as usize;
    let targets: Vec<usize> = allocation
        .targets
        .iter()
        .map(|&target| (target / laser).max(1))
        .collect();
    oracle.set_targets(&targets);
    oracle.converge(allocation.cap + 1);
}

/// Asserts that the table holds the oracle's pools, and that ticking a
/// clone of the oracle through `max + 1` full rotations of the ring moves
/// no pool.
fn assert_at_fixed_point(table: &PhotonicFabric, oracle: &DbaController, max: usize, when: &str) {
    assert_eq!(
        table.pools(),
        oracle.allocation_snapshot(),
        "the table left the protocol {when}"
    );
    let mut ring = oracle.clone();
    let mut visits = 0;
    while visits < (max + 1) * ring.num_clusters() {
        visits += usize::from(ring.tick().is_some());
    }
    assert_eq!(
        ring.allocation_snapshot(),
        oracle.allocation_snapshot(),
        "the ring moved a pool {when}"
    );
    oracle.check_invariants().unwrap();
}

/// Asserts the fixed point after construction and after each apply and
/// repair of a laser dim by 2 and by 4 and a degraded high class.
fn check_table_and_fault_transitions(mut table: PhotonicFabric, max: usize) {
    let allocation = table.allocation().expect("a class table");
    let mut oracle = DbaController::new(
        table.pools().len(),
        allocation.budget,
        allocation.reserve,
        allocation.cap,
        1,
    );
    let mut faults = FaultSurface::new(16);
    retarget(&mut oracle, &table, &faults);
    assert_at_fixed_point(&table, &oracle, max, "after construction");
    let plan = FaultPlan::parse(
        "laser-dim@c10-20:fabric/2,laser-dim@c30-40:fabric/4,\
         wavelength-degrade@c50-60:class-high/2",
    )
    .unwrap();
    for event in plan.events() {
        for action in ["applying", "repairing"] {
            if action == "applying" {
                faults.apply(event);
            } else {
                faults.clear(event);
            }
            if event.kind == FaultKind::LaserDim {
                table.laser_changed(&faults);
            }
            retarget(&mut oracle, &table, &faults);
            assert_at_fixed_point(&table, &oracle, max, &format!("after {action} {event:?}"));
        }
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
            check_table_and_fault_transitions(table(&pattern, set, policy, max, seed), max);
        }
    }
}

/// A proportional target above 65: 64 rotations of one-wavelength visits
/// stopped cluster 0 at 65 of its 72, and the ring filled the rest during
/// the first cycles of the run.
#[test]
fn a_target_above_65_is_reached_before_the_run() {
    let table = table(
        "skewed-3",
        BandwidthSet::Set3,
        AllocationPolicy::Proportional,
        512,
        3,
    );
    let targets = &table.allocation().expect("a class table").targets;
    assert_eq!(targets[..2], [72, 30]);
    assert_eq!(table.pools()[0], 72);
    check_table_and_fault_transitions(table, 512);
}
