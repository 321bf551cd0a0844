//! Convenience constructors and the registry entry for Firefly simulations.
//!
//! Every cluster's write channel carries `total wavelengths / radix` DWDM
//! wavelengths — 4, 16 or 32 for the three bandwidth sets at the paper's
//! radix 16 (Table 3-3) — and every transmission uses the full channel, so
//! a source drives one packet at a time and a high-bandwidth application
//! receives no more bandwidth than a low-bandwidth one.

use pnoc_noc::traffic_model::TrafficModel;
use pnoc_sim::config::SimConfig;
use pnoc_sim::engine::CycleNetwork;
use pnoc_sim::params::{ParamSchema, ResolvedParams};
use pnoc_sim::registry::{register_architecture, ArchitectureBuilder, Provisioning};
use pnoc_sim::system::{PhotonicFabric, PhotonicSystem};
use std::sync::Arc;

/// The paper's crossbar radix: 16 clusters share the R-SWMR crossbar
/// (Table 3-3). The default of the registry entry's `radix` parameter.
const DEFAULT_RADIX: usize = 16;

/// Firefly's fabric: the channel table with `total wavelengths / radix`
/// wavelengths (at least 1) per write channel.
fn firefly_fabric(config: &SimConfig, radix: usize, reservation_cycles: u64) -> PhotonicFabric {
    let per_channel = (config.bandwidth_set.total_wavelengths() / radix).max(1);
    PhotonicFabric::channel(config, per_channel, reservation_cycles)
}

/// Builds a ready-to-run Firefly system for the given traffic model at the
/// paper's defaults (radix 16, single-cycle reservation). For other design
/// points use the registry entry's parameters (`firefly{radix=...}`).
pub fn build_firefly_system(
    config: SimConfig,
    traffic: impl TrafficModel + Send + 'static,
) -> PhotonicSystem {
    let fabric = firefly_fabric(&config, DEFAULT_RADIX, 1);
    PhotonicSystem::new(config, fabric, Box::new(traffic))
}

/// The Firefly baseline's [`ArchitectureBuilder`], registered under the name
/// `"firefly"`.
///
/// Declared parameters:
///
/// * `radix` (int, default 16) — clusters sharing the R-SWMR crossbar; each
///   write channel gets `total wavelengths / radix` wavelengths (at least
///   1). The paper's Table 3-3 point is radix 16.
/// * `reservation_cycles` (int, default 1) — latency of the reservation
///   broadcast preceding every photonic transfer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FireflyArchitecture;

impl ArchitectureBuilder for FireflyArchitecture {
    fn name(&self) -> &str {
        "firefly"
    }

    fn label(&self) -> String {
        "Firefly".to_string()
    }

    fn provisioning(&self) -> Provisioning {
        Provisioning::Static
    }

    fn param_schema(&self) -> ParamSchema {
        ParamSchema::new()
            .int(
                "radix",
                DEFAULT_RADIX as i64,
                2,
                512,
                "clusters sharing the R-SWMR crossbar; each write channel \
                 gets total_wavelengths/radix wavelengths (min 1)",
            )
            .int(
                "reservation_cycles",
                1,
                1,
                16,
                "cycles of the reservation broadcast preceding every \
                 photonic transfer",
            )
    }

    fn build(
        &self,
        config: SimConfig,
        params: &ResolvedParams,
        traffic: Box<dyn TrafficModel + Send>,
    ) -> Box<dyn CycleNetwork> {
        let fabric = fabric_of(&config, params);
        Box::new(PhotonicSystem::new(config, fabric, traffic))
    }

    fn network_id(
        &self,
        config: &SimConfig,
        params: &ResolvedParams,
        _traffic: Option<&dyn TrafficModel>,
    ) -> String {
        fabric_of(config, params).network_id()
    }
}

/// The fabric the registry entry builds from its resolved parameters.
fn fabric_of(config: &SimConfig, params: &ResolvedParams) -> PhotonicFabric {
    firefly_fabric(
        config,
        params.int("radix") as usize,
        params.int("reservation_cycles") as u64,
    )
}

/// Registers the Firefly baseline into the process-global architecture
/// registry. Idempotent; usually invoked through the umbrella crate's
/// `install_architectures`.
///
/// Once registered, sweeps run through `pnoc_sim::scenario` — e.g.
/// `ScenarioSpec::new("firefly", "skewed-3").resolve()?.run()` — instead of
/// the per-architecture sweep wrapper this crate used to export.
pub fn register_firefly_architecture() {
    register_architecture(Arc::new(FireflyArchitecture));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_faults::FaultSurface;
    use pnoc_noc::ids::ClusterId;
    use pnoc_noc::topology::ClusterTopology;
    use pnoc_sim::config::BandwidthSet;
    use pnoc_sim::engine::run_to_completion;
    use pnoc_traffic::pattern::PacketShape;
    use pnoc_traffic::uniform::UniformRandomTraffic;

    fn shape(set: BandwidthSet) -> PacketShape {
        PacketShape::new(set.packet_flits(), set.flit_bits())
    }

    #[test]
    fn channel_widths_match_table_3_3() {
        for (set, expected) in [
            (BandwidthSet::Set1, 4),
            (BandwidthSet::Set2, 16),
            (BandwidthSet::Set3, 32),
        ] {
            let fabric = firefly_fabric(&SimConfig::paper_default(set), DEFAULT_RADIX, 1);
            assert_eq!(fabric.pool_size(ClusterId(0)), expected);
            let healthy = FaultSurface::new(16);
            assert_eq!(
                fabric.wavelengths_for(ClusterId(0), ClusterId(5), &healthy),
                expected
            );
        }
    }

    #[test]
    fn allocation_is_uniform_across_clusters() {
        let fabric = firefly_fabric(&SimConfig::paper_default(BandwidthSet::Set1), 16, 1);
        // The whole aggregate bandwidth budget (64 λ) is used, evenly.
        assert_eq!(fabric.pools(), [4; 16]);
    }

    #[test]
    fn reservation_takes_one_cycle() {
        let config = SimConfig::paper_default(BandwidthSet::Set3);
        let traffic = UniformRandomTraffic::new(
            ClusterTopology::paper_default(),
            shape(BandwidthSet::Set3),
            pnoc_noc::traffic_model::OfferedLoad::ZERO,
            1,
        );
        let system = build_firefly_system(config, traffic);
        assert_eq!(system.fabric().reservation_cycles(), 1);
    }

    #[test]
    fn radix_parameter_scales_the_channel_width() {
        let config = SimConfig::paper_default(BandwidthSet::Set1);
        // Halving the radix doubles each channel's wavelength share.
        assert_eq!(firefly_fabric(&config, 8, 1).pool_size(ClusterId(0)), 8);
        // A radix beyond the wavelength budget still leaves one wavelength.
        let starved = firefly_fabric(&config, 128, 2);
        assert_eq!(starved.pool_size(ClusterId(0)), 1);
        assert_eq!(starved.reservation_cycles(), 2);
    }

    #[test]
    fn faults_derate_the_channel_and_repairs_restore_it() {
        let fabric = firefly_fabric(&SimConfig::paper_default(BandwidthSet::Set2), 16, 1);
        let (src, dst) = (ClusterId(0), ClusterId(5));
        let mut faults = FaultSurface::new(16);
        assert_eq!(fabric.wavelengths_for(src, dst, &faults), 16);
        let plan = "wavelength-degrade@c10-20:class-high/2,laser-dim@c10-20:fabric/2";
        let plan = pnoc_faults::FaultPlan::parse(plan).unwrap();
        plan.events().iter().for_each(|event| faults.apply(event));
        // Class-blind Firefly derates the whole channel by the worst class
        // times the laser dimming, whatever the pair's class.
        assert_eq!(fabric.wavelengths_for(src, dst, &faults), 4);
        plan.events().iter().for_each(|event| faults.clear(event));
        assert_eq!(fabric.wavelengths_for(src, dst, &faults), 16);
    }

    #[test]
    fn firefly_delivers_uniform_traffic() {
        let config = SimConfig::fast(BandwidthSet::Set1);
        let traffic = UniformRandomTraffic::new(
            ClusterTopology::paper_default(),
            shape(BandwidthSet::Set1),
            pnoc_noc::traffic_model::OfferedLoad::new(config.estimated_saturation_load() * 0.5),
            config.seed,
        );
        let mut system = build_firefly_system(config, traffic);
        let stats = run_to_completion(&mut system);
        assert!(stats.delivered_packets > 0);
        assert!(stats.accepted_bandwidth_gbps() > 0.0);
    }

    #[test]
    fn firefly_emits_probe_events_through_the_metrics_pipeline() {
        use pnoc_sim::engine::run_to_completion_with;
        use pnoc_sim::metrics::{MetricsProbe, Probe};
        let config = SimConfig::fast(BandwidthSet::Set1);
        let traffic = UniformRandomTraffic::new(
            ClusterTopology::paper_default(),
            shape(BandwidthSet::Set1),
            pnoc_noc::traffic_model::OfferedLoad::new(config.estimated_saturation_load() * 0.5),
            config.seed,
        );
        let mut system = build_firefly_system(config, traffic);
        let mut probe = MetricsProbe::for_config(&config);
        let stats = run_to_completion_with(&mut system, &mut [&mut probe]);
        assert!(stats.delivered_packets > 0);
        let report = probe.report();
        assert_eq!(
            report.counter("delivered_packets"),
            Some(stats.delivered_packets),
            "probe event stream must agree with the legacy snapshot"
        );
        assert_eq!(report.counter("delivered_bits"), Some(stats.delivered_bits));
        let latency = report.histogram("latency_cycles").expect("recorded");
        let p95 = latency.percentile(95.0).expect("non-empty");
        assert!(p95 >= latency.percentile(50.0).expect("non-empty"));
        assert!(
            !report.family("delivered_bits_by_node").unwrap().is_empty(),
            "per-node delivery breakdown must be populated"
        );
    }

    #[test]
    fn registry_builder_matches_the_direct_constructor() {
        let mut config = SimConfig::fast(BandwidthSet::Set1);
        config.sim_cycles = 900;
        config.warmup_cycles = 200;
        let load =
            pnoc_noc::traffic_model::OfferedLoad::new(config.estimated_saturation_load() * 0.6);
        let make = || {
            UniformRandomTraffic::new(
                ClusterTopology::paper_default(),
                shape(BandwidthSet::Set1),
                load,
                config.seed,
            )
        };
        let direct = run_to_completion(&mut build_firefly_system(config, make()));
        let mut via_registry = FireflyArchitecture.build(
            config,
            &FireflyArchitecture.default_params(),
            Box::new(make()),
        );
        let registry_stats = run_to_completion(&mut *via_registry);
        assert_eq!(
            direct, registry_stats,
            "registry path must not change results"
        );
    }

    #[test]
    fn radix_parameter_flows_from_spec_to_fabric() {
        register_firefly_architecture();
        let schema = FireflyArchitecture.param_schema();
        assert_eq!(schema.len(), 2);
        assert_eq!(schema.get("radix").unwrap().kind.bounds_label(), "2..=512");

        // A radix override resolves through the scenario API and changes
        // the measured sweep relative to the paper default.
        let base = pnoc_sim::scenario::ScenarioSpec::new("firefly", "uniform-random")
            .with_effort(pnoc_sim::scenario::Effort::Smoke);
        let swept = base.clone().with_arch_param("radix", 64);
        assert_eq!(swept.id(), "firefly{radix=64}:uniform-random:set1:smoke");
        let default_run = base.resolve().expect("registered").run();
        let starved_run = swept.resolve().expect("within bounds").run();
        assert_ne!(
            default_run.result, starved_run.result,
            "a 64-radix (1-wavelength) channel must change the sweep"
        );

        // Out-of-schema specs fail resolution with the declared catalogue.
        let error = pnoc_sim::scenario::ScenarioSpec::new("firefly{radix=1}", "uniform-random")
            .resolve()
            .expect_err("radix 1 is below the declared minimum");
        assert!(error.to_string().contains("2..=512"), "{error}");
    }

    #[test]
    fn scenario_sweep_finds_a_peak_below_the_aggregate_photonic_limit() {
        register_firefly_architecture();
        let outcome = pnoc_sim::scenario::ScenarioSpec::new("firefly", "uniform-random")
            .with_effort(pnoc_sim::scenario::Effort::Smoke)
            .resolve()
            .expect("firefly was just registered")
            .run();
        let peak = outcome.result.peak_bandwidth_gbps();
        assert!(peak > 0.0, "peak bandwidth must be positive");
        // The photonic crossbar carries 800 Gb/s; including intra-cluster
        // traffic the accepted bandwidth cannot exceed a small multiple of it.
        assert!(peak < 2.0 * 800.0, "peak {peak} Gb/s is implausibly high");
        // Accepted bandwidth must grow between the lightest and the peak load.
        let first = outcome.result.points[0].stats.accepted_bandwidth_gbps();
        assert!(peak >= first);
    }
}
