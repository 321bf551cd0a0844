//! Convenience constructors and the registry entry for d-HetPNoC
//! simulations.

use crate::dba::AllocationPolicy;
use crate::fabric::DhetFabric;
use pnoc_noc::traffic_model::TrafficModel;
use pnoc_sim::config::SimConfig;
use pnoc_sim::engine::CycleNetwork;
use pnoc_sim::params::{ParamSchema, ResolvedParams};
use pnoc_sim::registry::{register_architecture, ArchitectureBuilder};
use pnoc_sim::system::{PhotonicFabric, PhotonicSystem};
use pnoc_traffic::demand::DemandMatrix;
use std::sync::Arc;

/// Builds a ready-to-run d-HetPNoC system for the given traffic model. The
/// demand matrix (and therefore the wavelength allocation) is derived from
/// the traffic model itself, mirroring the paper's flow where the cores
/// advertise the demands of their mapped tasks.
pub fn build_dhetpnoc_system(
    config: SimConfig,
    traffic: impl TrafficModel + Send + 'static,
) -> PhotonicSystem {
    let demand = DemandMatrix::from_model(&traffic, config.topology.num_clusters());
    let fabric = DhetFabric::new(&config, demand).into_fabric();
    PhotonicSystem::new(config, fabric, Box::new(traffic))
}

/// The d-HetPNoC [`ArchitectureBuilder`], registered under the name
/// `"d-hetpnoc"`.
///
/// Declared parameters:
///
/// * `max_wavelengths` (int, default 0 = auto) — maximum wavelengths a
///   single cluster channel may hold. `0` resolves to the paper's Table 3-3
///   value for the bandwidth set (8 / 32 / 64: the demand of the set's
///   highest application class). The cap also sizes the reservation flit's
///   worst-case identifier payload.
/// * `policy` (enum `proportional` | `paper-max`, default `proportional`) —
///   how per-cluster wavelength targets are derived from the demand matrix
///   (see [`AllocationPolicy`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DhetPnocArchitecture;

impl ArchitectureBuilder for DhetPnocArchitecture {
    fn name(&self) -> &str {
        "d-hetpnoc"
    }

    fn label(&self) -> String {
        "d-HetPNoC".to_string()
    }

    fn param_schema(&self) -> ParamSchema {
        ParamSchema::new()
            .int(
                "max_wavelengths",
                0,
                0,
                512,
                "maximum wavelengths per cluster channel \
                 (0 = the bandwidth set's Table 3-3 value: 8/32/64)",
            )
            .choice(
                "policy",
                "proportional",
                &["proportional", "paper-max"],
                "how wavelength targets are derived from demand: apportion \
                 the whole budget proportionally, or aim for each cluster's \
                 maximum requested class",
            )
    }

    fn build(
        &self,
        config: SimConfig,
        params: &ResolvedParams,
        traffic: Box<dyn TrafficModel + Send>,
    ) -> Box<dyn CycleNetwork> {
        let fabric = dhet_fabric(&config, params, &*traffic);
        Box::new(PhotonicSystem::new(config, fabric, traffic))
    }

    /// With the point's traffic, the class table `build` constructs, so a
    /// table equal to Firefly's channel table renders Firefly's id; without
    /// it, the default.
    fn network_id(
        &self,
        config: &SimConfig,
        params: &ResolvedParams,
        traffic: Option<&dyn TrafficModel>,
    ) -> String {
        match traffic {
            Some(traffic) => dhet_fabric(config, params, traffic).network_id(),
            None => format!("{}{}", self.name(), params.canonical()),
        }
    }
}

/// The class table the registry entry builds: `params`' policy and cap over
/// the demand `traffic` advertises.
fn dhet_fabric(
    config: &SimConfig,
    params: &ResolvedParams,
    traffic: &dyn TrafficModel,
) -> PhotonicFabric {
    let policy = match params.choice("policy") {
        "paper-max" => AllocationPolicy::PaperMax,
        _ => AllocationPolicy::Proportional,
    };
    let max_wavelengths = match params.int("max_wavelengths") {
        0 => DhetFabric::default_max_channel_wavelengths(config),
        n => n as usize,
    };
    let demand = DemandMatrix::from_model(traffic, config.topology.num_clusters());
    DhetFabric::with_options(config, demand, policy, max_wavelengths).into_fabric()
}

/// Registers d-HetPNoC into the process-global architecture registry.
/// Idempotent; usually invoked through the umbrella crate's
/// `install_architectures`.
///
/// Once registered, sweeps run through `pnoc_sim::scenario` — e.g.
/// `ScenarioSpec::new("d-hetpnoc", "skewed-3").resolve()?.run()` — instead
/// of the per-architecture sweep wrapper this crate used to export.
pub fn register_dhetpnoc_architecture() {
    register_architecture(Arc::new(DhetPnocArchitecture));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_noc::topology::ClusterTopology;
    use pnoc_noc::traffic_model::OfferedLoad;
    use pnoc_sim::config::BandwidthSet;
    use pnoc_sim::engine::run_to_completion;
    use pnoc_traffic::pattern::{PacketShape, SkewLevel};
    use pnoc_traffic::skewed::SkewedTraffic;
    use pnoc_traffic::uniform::UniformRandomTraffic;

    fn shape(set: BandwidthSet) -> PacketShape {
        PacketShape::new(set.packet_flits(), set.flit_bits())
    }

    #[test]
    fn dhetpnoc_delivers_skewed_traffic() {
        let config = SimConfig::fast(BandwidthSet::Set1);
        let traffic = SkewedTraffic::new(
            ClusterTopology::paper_default(),
            shape(BandwidthSet::Set1),
            SkewLevel::Skewed3,
            OfferedLoad::new(config.estimated_saturation_load() * 0.5),
            config.seed,
        );
        let mut system = build_dhetpnoc_system(config, traffic);
        let stats = run_to_completion(&mut system);
        assert!(stats.delivered_packets > 0);
        let pools = system.fabric().pools();
        assert!(pools.iter().all(|&p| (1..=8).contains(&p)), "{pools:?}");
        assert!(pools.iter().sum::<usize>() <= 64, "{pools:?}");
    }

    #[test]
    fn uniform_traffic_gives_firefly_equivalent_allocation() {
        let config = SimConfig::fast(BandwidthSet::Set2);
        let traffic = UniformRandomTraffic::new(
            ClusterTopology::paper_default(),
            shape(BandwidthSet::Set2),
            OfferedLoad::new(config.estimated_saturation_load() * 0.4),
            config.seed,
        );
        let system = build_dhetpnoc_system(config, traffic);
        let alloc = system.fabric().pools();
        let firefly_width =
            BandwidthSet::Set2.class_wavelengths(pnoc_noc::packet::BandwidthClass::MediumHigh);
        assert!(alloc.iter().all(|&p| p == firefly_width));
    }

    #[test]
    fn a_laser_dim_retargets_the_running_system_through_its_hook() {
        // The fabric test `paper_max_pools_remember_a_laser_dim_after_its_repair`,
        // run: the system must refill its table through `laser_changed`
        // while the laser is dim, and keep the refill's history after the
        // repair instead of the healthy pools. A copy of the cycle-0 table
        // driven through the same two transitions by that method lands on
        // the running system's table.
        use pnoc_faults::{FaultController, FaultPlan, FaultSurface};
        use pnoc_sim::engine::run_cycles;
        let config = SimConfig::fast(BandwidthSet::Set1);
        let traffic = SkewedTraffic::new(
            ClusterTopology::paper_default(),
            shape(BandwidthSet::Set1),
            SkewLevel::Skewed1,
            OfferedLoad::new(0.01),
            0,
        );
        let demand = DemandMatrix::from_model(&traffic, 16);
        let max = DhetFabric::default_max_channel_wavelengths(&config);
        let fabric = DhetFabric::with_options(&config, demand, AllocationPolicy::PaperMax, max);
        let mut system = PhotonicSystem::new(config, fabric.into_fabric(), Box::new(traffic));
        let mut copy = system.fabric().clone();
        let plan = FaultPlan::parse("laser-dim@c10-20:fabric/2").unwrap();
        assert!(system.install_fault_schedule(FaultController::new(&plan)));
        let mut dimmed = [4; 16];
        dimmed[3] = 2;
        let mut repaired = dimmed;
        repaired[..2].fill(5);
        for (cycles, pools) in [(0..5, [4; 16]), (5..15, dimmed), (15..25, repaired)] {
            run_cycles(&mut system, cycles.start, cycles.end - cycles.start);
            assert_eq!(
                system.fabric().pools(),
                pools,
                "pools at cycle {}",
                cycles.end
            );
        }
        let dim = plan.events()[0];
        let mut faults = FaultSurface::new(16);
        faults.apply(&dim);
        copy.laser_changed(&faults);
        faults.clear(&dim);
        copy.laser_changed(&faults);
        assert_eq!(&copy, system.fabric());
    }

    #[test]
    fn dhetpnoc_emits_probe_events_through_the_metrics_pipeline() {
        use pnoc_sim::engine::run_to_completion_with;
        use pnoc_sim::metrics::{MetricValue, MetricsProbe, Probe};
        let config = SimConfig::fast(BandwidthSet::Set1);
        let traffic = SkewedTraffic::new(
            ClusterTopology::paper_default(),
            shape(BandwidthSet::Set1),
            SkewLevel::Skewed3,
            OfferedLoad::new(config.estimated_saturation_load() * 0.6),
            config.seed,
        );
        let mut system = build_dhetpnoc_system(config, traffic);
        let mut probe = MetricsProbe::for_config(&config);
        let stats = run_to_completion_with(&mut system, &mut [&mut probe]);
        assert!(stats.delivered_packets > 0);
        let report = probe.report();
        assert_eq!(
            report.counter("delivered_photonic_bits"),
            Some(stats.delivered_photonic_bits),
            "probe event stream must agree with the legacy snapshot"
        );
        // Skewed traffic concentrates on a few cluster pairs; the streamed
        // per-pair photonic breakdown must partition the aggregate.
        let by_pair = report
            .family("photonic_bits_by_cluster_pair")
            .expect("present");
        let pair_sum: u64 = by_pair
            .values()
            .map(|v| match v {
                MetricValue::Counter(c) => *c,
                other => panic!("family member must be a counter, got {other:?}"),
            })
            .sum();
        assert_eq!(pair_sum, stats.delivered_photonic_bits);
        assert!(report
            .histogram("latency_cycles")
            .and_then(|h| h.percentile(99.0))
            .is_some());
    }

    #[test]
    fn registry_builder_matches_the_direct_constructor() {
        let mut config = SimConfig::fast(BandwidthSet::Set1);
        config.sim_cycles = 900;
        config.warmup_cycles = 200;
        let load = OfferedLoad::new(config.estimated_saturation_load() * 0.7);
        let make = || {
            SkewedTraffic::new(
                ClusterTopology::paper_default(),
                shape(BandwidthSet::Set1),
                SkewLevel::Skewed2,
                load,
                config.seed,
            )
        };
        let direct = run_to_completion(&mut build_dhetpnoc_system(config, make()));
        let mut via_registry = DhetPnocArchitecture.build(
            config,
            &DhetPnocArchitecture.default_params(),
            Box::new(make()),
        );
        let registry_stats = run_to_completion(&mut *via_registry);
        assert_eq!(
            direct, registry_stats,
            "registry path must not change results"
        );
    }

    #[test]
    fn policy_and_max_wavelengths_parameters_flow_from_specs() {
        register_dhetpnoc_architecture();
        let schema = DhetPnocArchitecture.param_schema();
        assert_eq!(schema.len(), 2);
        assert_eq!(
            schema.get("policy").unwrap().kind.bounds_label(),
            "proportional|paper-max"
        );

        // A capped channel width changes the sweep versus the default.
        let base = pnoc_sim::scenario::ScenarioSpec::new("d-hetpnoc", "skewed-3")
            .with_effort(pnoc_sim::scenario::Effort::Smoke);
        let capped = base.clone().with_arch_param("max_wavelengths", 2);
        assert_eq!(
            capped.id(),
            "d-hetpnoc{max_wavelengths=2}:skewed-3:set1:smoke"
        );
        let default_run = base.resolve().expect("registered").run();
        let capped_run = capped.resolve().expect("within bounds").run();
        assert_ne!(
            default_run.result, capped_run.result,
            "a 2-wavelength channel cap must change the sweep"
        );

        // An unknown policy label fails with the declared choices and the
        // nearest suggestion.
        let error =
            pnoc_sim::scenario::ScenarioSpec::new("d-hetpnoc{policy=proportionale}", "skewed-3")
                .resolve()
                .expect_err("unknown choice");
        let message = error.to_string();
        assert!(message.contains("[proportional, paper-max]"), "{message}");
        assert!(
            message.contains("did you mean 'proportional'?"),
            "{message}"
        );
    }

    #[test]
    fn scenario_sweep_produces_a_peak() {
        register_dhetpnoc_architecture();
        let outcome = pnoc_sim::scenario::ScenarioSpec::new("d-hetpnoc", "skewed-2")
            .with_effort(pnoc_sim::scenario::Effort::Smoke)
            .resolve()
            .expect("d-hetpnoc was just registered")
            .run();
        assert!(outcome.result.peak_bandwidth_gbps() > 0.0);
        assert!(outcome.result.packet_energy_at_saturation_pj() > 0.0);
    }
}
