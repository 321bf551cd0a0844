//! Cross-crate integration tests: the full simulation stack (traffic →
//! electrical switches → photonic fabric → statistics) exercised end to end
//! for both architectures, checking the qualitative properties the paper's
//! evaluation relies on.

use d_hetpnoc_repro::prelude::*;
use pnoc_noc::ids::ClusterId;

/// A reduced-scale configuration so the whole file runs quickly in debug
/// builds while still exercising the paper's 64-core / 16-cluster system.
fn test_config() -> SimConfig {
    let mut config = SimConfig::fast(BandwidthSet::Set1);
    config.sim_cycles = 900;
    config.warmup_cycles = 200;
    config
}

fn shape(config: &SimConfig) -> PacketShape {
    PacketShape::new(
        config.bandwidth_set.packet_flits(),
        config.bandwidth_set.flit_bits(),
    )
}

#[test]
fn uniform_traffic_makes_the_architectures_equivalent() {
    // Figure 3-3: "with uniform traffic the d-HetPNoC and the baseline
    // crossbar-based Firefly performs similarly" — in this reproduction the
    // allocation degenerates to the Firefly allocation, so with the same seed
    // the two runs are statistically indistinguishable.
    let config = test_config();
    let load = OfferedLoad::new(config.estimated_saturation_load() * 0.8);
    let make = || {
        UniformRandomTraffic::new(
            ClusterTopology::paper_default(),
            shape(&config),
            load,
            config.seed,
        )
    };
    let firefly = run_to_completion(&mut build_firefly_system(config, make()));
    let dhet = run_to_completion(&mut build_dhetpnoc_system(config, make()));
    assert!(firefly.delivered_packets > 0);
    let rel = (firefly.accepted_bandwidth_gbps() - dhet.accepted_bandwidth_gbps()).abs()
        / firefly.accepted_bandwidth_gbps();
    assert!(
        rel < 0.02,
        "uniform traffic should give near-identical bandwidth (difference {:.2}%)",
        rel * 100.0
    );
}

#[test]
fn dhetpnoc_allocation_matches_firefly_under_uniform_demand() {
    let config = test_config();
    let load = OfferedLoad::new(0.001);
    let traffic =
        UniformRandomTraffic::new(ClusterTopology::paper_default(), shape(&config), load, 1);
    let system = build_dhetpnoc_system(config, traffic);
    let allocation = system.fabric().pools();
    assert_eq!(
        allocation,
        vec![4; 16],
        "uniform demand → 4 wavelengths per cluster"
    );
}

#[test]
fn uniform_demand_gives_dhetpnoc_firefly_s_table_but_for_the_set_3_reservation() {
    // Item 8's degenerate law at the table: the same pools and the same
    // healthy width for every pair at every set, so healthy uniform runs
    // differ only where d-HetPNoC's reservation carries 64 wavelength
    // identifiers (set 3, two cycles against Firefly's one).
    let healthy = FaultSurface::new(16);
    for set in BandwidthSet::ALL {
        let config = SimConfig::paper_default(set);
        let traffic = || {
            UniformRandomTraffic::new(
                ClusterTopology::paper_default(),
                shape(&config),
                OfferedLoad::new(0.001),
                config.seed,
            )
        };
        let firefly = build_firefly_system(config, traffic());
        let dhet = build_dhetpnoc_system(config, traffic());
        let (firefly, dhet) = (firefly.fabric(), dhet.fabric());
        assert_eq!(dhet.pools(), firefly.pools(), "{set:?}");
        for (s, d) in (0..16).flat_map(|s| (0..16).map(move |d| (s, d))) {
            let (src, dst) = (ClusterId(s), ClusterId(d));
            assert_eq!(
                dhet.wavelengths_for(src, dst, &healthy),
                firefly.wavelengths_for(src, dst, &healthy),
                "{set:?}: {s} -> {d}"
            );
        }
        let reservations = (dhet.reservation_cycles(), firefly.reservation_cycles());
        let expected = if set == BandwidthSet::Set3 {
            (2, 1)
        } else {
            (1, 1)
        };
        assert_eq!(reservations, expected, "{set:?}");
    }
}

#[test]
fn skewed_traffic_is_not_slower_on_dhetpnoc_at_saturation() {
    // The headline claim (Figures 3-3/3-4): under skewed traffic the dynamic
    // allocation delivers at least Firefly's bandwidth at saturation.
    let config = test_config();
    let load = OfferedLoad::new(config.estimated_saturation_load() * 1.5);
    let make = || {
        SkewedTraffic::new(
            ClusterTopology::paper_default(),
            shape(&config),
            SkewLevel::Skewed3,
            load,
            config.seed,
        )
    };
    let firefly = run_to_completion(&mut build_firefly_system(config, make()));
    let dhet = run_to_completion(&mut build_dhetpnoc_system(config, make()));
    assert!(firefly.delivered_packets > 100, "need a meaningful sample");
    assert!(
        dhet.accepted_bandwidth_gbps() >= firefly.accepted_bandwidth_gbps() * 0.97,
        "d-HetPNoC ({:.1} Gb/s) should not fall behind Firefly ({:.1} Gb/s) on skewed traffic",
        dhet.accepted_bandwidth_gbps(),
        firefly.accepted_bandwidth_gbps()
    );
}

#[test]
fn dba_invariants_hold_after_a_full_simulation() {
    let config = test_config();
    let load = OfferedLoad::new(config.estimated_saturation_load());
    let traffic = SkewedTraffic::new(
        ClusterTopology::paper_default(),
        shape(&config),
        SkewLevel::Skewed2,
        load,
        7,
    );
    let fabric = DhetFabric::new(&config, DemandMatrix::from_model(&traffic, 16));
    fabric
        .controller()
        .check_invariants()
        .expect("DBA invariants must hold at the converged allocation");
    let healthy = fabric.controller().allocation_snapshot();
    let mut system = PhotonicSystem::new(config, fabric.into_fabric(), Box::new(traffic));
    let stats = run_to_completion(&mut system);
    assert!(stats.delivered_packets > 0);
    // A healthy run moves no pool; pools stay within [1, 8] for bandwidth
    // set 1 and never exceed the budget.
    let allocation = system.fabric().pools();
    assert_eq!(allocation, healthy);
    assert!(allocation.iter().all(|&p| (1..=8).contains(&p)));
    assert!(allocation.iter().sum::<usize>() <= 64);
}

#[test]
fn flit_accounting_is_consistent() {
    // Delivered flits = delivered packets × packet length; delivered bits
    // match the flit width; nothing is delivered that was never injected.
    let config = test_config();
    let load = OfferedLoad::new(config.estimated_saturation_load() * 0.5);
    let traffic =
        UniformRandomTraffic::new(ClusterTopology::paper_default(), shape(&config), load, 3);
    let mut system = build_firefly_system(config, traffic);
    let stats = run_to_completion(&mut system);
    let flits_per_packet = u64::from(config.bandwidth_set.packet_flits());
    // A packet whose delivery straddles the start of the measurement window
    // contributes its tail (and the packet count) but not its warm-up-era
    // flits. At most one packet per (core, VC) can be mid-ejection at the
    // boundary, which bounds the deficit.
    let straddle_slack =
        config.topology.num_cores() as u64 * config.vcs_per_port as u64 * flits_per_packet;
    assert!(
        stats.delivered_flits + straddle_slack >= stats.delivered_packets * flits_per_packet,
        "delivered {} flits for {} packets of {} flits",
        stats.delivered_flits,
        stats.delivered_packets,
        flits_per_packet
    );
    assert_eq!(
        stats.delivered_bits,
        stats.delivered_flits * u64::from(config.bandwidth_set.flit_bits())
    );
    assert!(stats.delivered_packets <= stats.injected_packets + 64);
    // Packets generated during warm-up may still sit in the injection queues
    // when measurement starts and inject inside the window; the backlog is
    // bounded by the queue capacity (plus one in-flight packet) per core.
    let backlog_slack =
        (config.topology.num_cores() * (config.injection_queue_capacity + 1)) as u64;
    assert!(stats.injected_packets <= stats.generated_packets + backlog_slack);
}

#[test]
fn energy_scales_with_delivered_traffic() {
    let config = test_config();
    let low = OfferedLoad::new(config.estimated_saturation_load() * 0.25);
    let high = OfferedLoad::new(config.estimated_saturation_load() * 0.75);
    let run = |load| {
        let traffic =
            UniformRandomTraffic::new(ClusterTopology::paper_default(), shape(&config), load, 11);
        run_to_completion(&mut build_dhetpnoc_system(config, traffic))
    };
    let a = run(low);
    let b = run(high);
    assert!(b.delivered_packets > a.delivered_packets);
    assert!(
        b.energy.total_pj() > a.energy.total_pj(),
        "more delivered traffic must dissipate more total energy"
    );
    // Per-packet energy stays within a sane envelope (well below 1 µJ).
    for stats in [&a, &b] {
        assert!(stats.packet_energy_pj() > 1_000.0);
        assert!(stats.packet_energy_pj() < 1_000_000.0);
    }
}

#[test]
fn higher_bandwidth_sets_deliver_more_aggregate_bandwidth() {
    // Figures 3-7 / 3-10: growing the wavelength budget from 64 to 512 grows
    // the achievable bandwidth by several times.
    let measure = |set: BandwidthSet| {
        let mut config = SimConfig::fast(set);
        config.sim_cycles = 900;
        config.warmup_cycles = 200;
        let load = OfferedLoad::new(config.estimated_saturation_load() * 1.5);
        let traffic = SkewedTraffic::new(
            ClusterTopology::paper_default(),
            PacketShape::new(set.packet_flits(), set.flit_bits()),
            SkewLevel::Skewed3,
            load,
            config.seed,
        );
        run_to_completion(&mut build_dhetpnoc_system(config, traffic)).accepted_bandwidth_gbps()
    };
    let set1 = measure(BandwidthSet::Set1);
    let set3 = measure(BandwidthSet::Set3);
    assert!(
        set3 > 4.0 * set1,
        "512 wavelengths ({set3:.0} Gb/s) should deliver several times the bandwidth of 64 ({set1:.0} Gb/s)"
    );
}

#[test]
fn hotspot_and_real_application_traffic_run_end_to_end() {
    let config = test_config();
    let load = OfferedLoad::new(config.estimated_saturation_load() * 0.8);
    let hotspot = HotspotSkewedTraffic::new(
        ClusterTopology::paper_default(),
        shape(&config),
        SkewLevel::Skewed3,
        pnoc_noc::ids::CoreId(0),
        0.2,
        load,
        config.seed,
    );
    let stats = run_to_completion(&mut build_dhetpnoc_system(config, hotspot));
    assert!(stats.delivered_packets > 0, "hotspot traffic must flow");

    let real = RealApplicationTraffic::paper_mapping(
        ClusterTopology::paper_default(),
        shape(&config),
        load,
        config.seed,
    );
    let mut system = build_dhetpnoc_system(config, real);
    let stats = run_to_completion(&mut system);
    assert!(
        stats.delivered_packets > 0,
        "real-application traffic must flow"
    );
    // Memory clusters (12-15) should hold at least as much bandwidth on
    // average as the compute clusters running mostly low-bandwidth kernels.
    let allocation = system.fabric().pools();
    let memory_avg: f64 = allocation[12..16].iter().sum::<usize>() as f64 / 4.0;
    let lps_avg: f64 = allocation[8..12].iter().sum::<usize>() as f64 / 4.0;
    assert!(
        memory_avg >= lps_avg,
        "memory clusters ({memory_avg:.1}) should not get less bandwidth than LPS clusters ({lps_avg:.1}); allocation {allocation:?}"
    );
}

#[test]
fn demand_matrix_round_trips_through_the_fabric() {
    let config = test_config();
    let traffic = SkewedTraffic::new(
        ClusterTopology::paper_default(),
        shape(&config),
        SkewLevel::Skewed1,
        OfferedLoad::new(0.001),
        5,
    );
    let matrix = DemandMatrix::from_model(&traffic, 16);
    let fabric = DhetFabric::new(&config, matrix.clone());
    let table = fabric.clone().into_fabric();
    let healthy = FaultSurface::new(16);
    for s in 0..16 {
        for d in 0..16 {
            if s == d {
                continue;
            }
            let (src, dst) = (ClusterId(s), ClusterId(d));
            assert_eq!(fabric.demand().class(src, dst), matrix.class(src, dst));
            let w = table.wavelengths_for(src, dst, &healthy);
            assert!(w >= 1 && w <= DhetFabric::default_max_channel_wavelengths(&config));
        }
    }
}

#[test]
fn parameterized_specs_run_end_to_end_across_architectures() {
    d_hetpnoc_repro::install_architectures();
    // One batch sweeping a Firefly geometry knob and a d-HetPNoC
    // provisioning knob next to the paper defaults; everything runs through
    // the same deduplicated queue and stays bitwise-deterministic.
    let matrix = ScenarioMatrix::new()
        .architectures([
            "firefly",
            "firefly{radix=32}",
            "d-hetpnoc{policy=paper-max}",
        ])
        .traffics(["skewed-2"])
        .effort(Effort::Smoke);
    let first = matrix.run().expect("all specs valid");
    let second = matrix.run().expect("all specs valid");
    assert_eq!(first.scenarios.len(), 3);
    assert!(
        first.bitwise_eq(&second),
        "param-swept batches must be reproducible run-to-run"
    );
    // The radix override must actually change Firefly's measured sweep.
    let default_firefly = &first.scenarios[0];
    let narrow_firefly = &first.scenarios[1];
    assert_eq!(narrow_firefly.spec.arch_params.get("radix"), Some("32"));
    assert_ne!(
        default_firefly.result, narrow_firefly.result,
        "radix=32 halves every channel and must move the sweep"
    );
}
