//! The architecture registry: the catalogue of simulatable network
//! architectures.
//!
//! An architecture implements [`ArchitectureBuilder`] — a name plus a
//! `build(config, traffic) → network` constructor — and registers itself
//! into the process-global catalogue through [`register_architecture`].
//! Everything downstream (the generic sweep driver in [`crate::sweep`], the
//! experiment harness, the `repro` binary) resolves architectures by name
//! with [`lookup_architecture`], so adding an architecture touches only the
//! crate that defines it. Unlike the closed traffic-pattern and workload
//! tables, this catalogue is filled at run time: the Firefly baseline,
//! d-HetPNoC and the hierarchy live in crates above this one. An unknown
//! name fails with the same [`UnknownNameError`] as the closed tables.
//!
//! Firefly's static allocation, a channel [`PhotonicFabric`] with a
//! wavelength-budget knob, registers here out of the box under the name
//! `"uniform-fabric"`; the Firefly
//! baseline and d-HetPNoC register from their own crates (see
//! `pnoc_firefly::register_firefly_architecture` and
//! `pnoc_dhetpnoc::register_dhetpnoc_architecture`, both invoked by the
//! umbrella crate's `install_architectures`).

use crate::config::SimConfig;
use crate::engine::CycleNetwork;
use crate::params::{ArchParams, ParamSchema, ResolvedParams};
use crate::system::{PhotonicFabric, PhotonicSystem};
use pnoc_noc::registry::UnknownNameError;
use pnoc_noc::traffic_model::TrafficModel;
use std::collections::BTreeMap;
use std::sync::{Arc, LazyLock, Mutex, MutexGuard};

/// How an architecture provisions its photonic resources. Cost models (e.g.
/// the electro-optic area model) differ between the two styles, so the
/// builder declares its style instead of experiments special-casing names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provisioning {
    /// Resources are provisioned once, at design time (Firefly-style fixed
    /// per-cluster channels).
    Static,
    /// Resources are (re)allocated at run time (d-HetPNoC-style dynamic
    /// bandwidth allocation), which needs the larger ring complement.
    Dynamic,
}

/// A factory for one network architecture.
///
/// Implementations must be cheap to construct and thread-safe: during a
/// parallel sweep the same builder instance is shared across worker threads,
/// each calling [`ArchitectureBuilder::build`] to obtain its own private
/// network instance.
///
/// An architecture is a **parameter space**, not a single design point: it
/// declares its tunable knobs as a [`ParamSchema`] and builds from a
/// schema-validated [`ResolvedParams`] set (see [`crate::params`]). An
/// architecture with no knobs keeps the default empty schema and ignores
/// the params argument.
pub trait ArchitectureBuilder: Send + Sync {
    /// Stable registry key, also used as the architecture label in
    /// statistics (e.g. `"firefly"`, `"d-hetpnoc"`).
    fn name(&self) -> &str;

    /// Human-readable display label (defaults to [`ArchitectureBuilder::name`]).
    fn label(&self) -> String {
        self.name().to_string()
    }

    /// Resource-provisioning style, consumed by the cost models (defaults to
    /// [`Provisioning::Dynamic`]).
    fn provisioning(&self) -> Provisioning {
        Provisioning::Dynamic
    }

    /// The architecture's declared parameter space (defaults to the empty
    /// schema: no tunable parameters).
    fn param_schema(&self) -> ParamSchema {
        ParamSchema::new()
    }

    /// The architecture's parameters at their declared defaults (an empty
    /// set for an empty schema). Convenience for callers that build a
    /// network directly without a `name{key=value,...}` spec.
    fn default_params(&self) -> ResolvedParams {
        self.param_schema()
            .validate(self.name(), &ArchParams::new())
            .expect("schema defaults validate against their own bounds")
    }

    /// Builds a ready-to-run network for the given configuration, resolved
    /// parameters and traffic source. `params` is always a full resolved set
    /// for this architecture's schema (validate overrides with
    /// [`ParamSchema::validate`], or start from
    /// [`ArchitectureBuilder::default_params`]).
    ///
    /// The configuration is the architecture's **effective** configuration:
    /// callers that start from a scenario-level base configuration must pass
    /// it through [`ArchitectureBuilder::effective_config`] first.
    fn build(
        &self,
        config: SimConfig,
        params: &ResolvedParams,
        traffic: Box<dyn TrafficModel + Send>,
    ) -> Box<dyn CycleNetwork>;

    /// The identity of the network [`ArchitectureBuilder::build`] constructs
    /// from `config` (the **effective** configuration of one point), `params`
    /// and, when given, the point's `traffic` model. A batch simulates each
    /// point once per network: two points that differ only in their
    /// architecture component share one run when their network ids are
    /// equal, so equal ids must mean equal networks: the id must name
    /// everything `build`, [`ArchitectureBuilder::effective_config`] and
    /// [`ArchitectureBuilder::workload_placement`] read. The default is the
    /// name with the full resolved parameter set, the architecture component
    /// of [`Scenario::canonical_id`](crate::scenario::Scenario::canonical_id),
    /// which nothing else can equal. An override renders the value `build`
    /// constructs, with the same helper `build` calls, so the id cannot
    /// drift from the network.
    ///
    /// The scenario passes `traffic` only for a healthy open-loop point (an
    /// empty fault plan), where the table `build` constructs at cycle 0 is
    /// the whole network. An architecture whose table depends on the traffic
    /// (d-HetPNoC sizes its pools from the demand) renders it then, and
    /// keeps the default without it.
    fn network_id(
        &self,
        config: &SimConfig,
        params: &ResolvedParams,
        traffic: Option<&dyn TrafficModel>,
    ) -> String {
        let _ = (config, traffic);
        format!("{}{}", self.name(), params.canonical())
    }

    /// Rewrites a scenario-level base configuration into the configuration
    /// this architecture actually simulates under the given parameters. The
    /// default is the identity — a flat architecture simulates exactly the
    /// scenario's configuration. Composite architectures override this to
    /// scale the geometry (the hierarchy layer multiplies the cluster count
    /// by its pod count), so traffic models, workload sizing, fault-plan
    /// validation and metrics probes all see the full composed topology.
    fn effective_config(&self, config: SimConfig, params: &ResolvedParams) -> SimConfig {
        let _ = params;
        config
    }

    /// Whether the networks this architecture builds take a fault schedule
    /// ([`CycleNetwork::install_fault_schedule`]). Defaults to `true`; an
    /// architecture that declines one returns `false`, so a scenario pairing
    /// it with a non-empty fault plan fails at
    /// [`ScenarioSpec::resolve`](crate::scenario::ScenarioSpec::resolve)
    /// with a typed error instead of inside the simulation.
    fn accepts_fault_schedules(&self) -> bool {
        true
    }

    /// An optional placement map for closed-loop workloads: `map[rank]` is
    /// the core that workload participant `rank` runs on, for a workload of
    /// `ranks` participants on this architecture's effective topology
    /// (`config` is the **effective** configuration, already passed through
    /// [`ArchitectureBuilder::effective_config`]). `None` (the default)
    /// keeps the generators' native dense placement (rank `i` on core `i`).
    /// The hierarchy layer overrides this with a round-robin-across-pods map
    /// so collective workloads exercise the cross-pod spine instead of
    /// packing into pod 0.
    ///
    /// A returned map must be injective over `0..ranks` and every entry must
    /// be a valid core of the effective topology — [`crate::scenario`]
    /// enforces this with a panic, since a registered builder producing an
    /// invalid map is a programming error, not a user error.
    fn workload_placement(
        &self,
        config: &SimConfig,
        params: &ResolvedParams,
        ranks: usize,
    ) -> Option<Vec<usize>> {
        let _ = (config, params, ranks);
        None
    }
}

/// Builder for Firefly's channel [`PhotonicFabric`] under its own name: every
/// cluster statically owns `total wavelengths / clusters` wavelengths (at
/// least 1) — Firefly's allocation, whose paper point has 16 clusters and
/// radix 16, with the wavelength budget as the knob.
///
/// Declares one parameter, `wavelengths`: the total data-wavelength budget
/// split evenly over the clusters, with `0` (the default) meaning "use the
/// bandwidth set's budget". Needs none of the architecture crates, so
/// `pnoc-sim`'s own tests run on it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct UniformFabricArchitecture;

impl ArchitectureBuilder for UniformFabricArchitecture {
    fn name(&self) -> &str {
        "uniform-fabric"
    }

    fn label(&self) -> String {
        "Uniform fabric".to_string()
    }

    fn provisioning(&self) -> Provisioning {
        Provisioning::Static
    }

    fn param_schema(&self) -> ParamSchema {
        ParamSchema::new().int(
            "wavelengths",
            0,
            0,
            4096,
            "total data wavelengths split evenly over the clusters \
             (0 = the bandwidth set's budget)",
        )
    }

    fn build(
        &self,
        config: SimConfig,
        params: &ResolvedParams,
        traffic: Box<dyn TrafficModel + Send>,
    ) -> Box<dyn CycleNetwork> {
        let fabric = uniform_fabric(&config, params);
        Box::new(PhotonicSystem::new(config, fabric, traffic))
    }

    fn network_id(
        &self,
        config: &SimConfig,
        params: &ResolvedParams,
        _traffic: Option<&dyn TrafficModel>,
    ) -> String {
        uniform_fabric(config, params).network_id()
    }
}

/// The channel table `uniform-fabric` builds: `wavelengths / clusters` (at
/// least 1) per channel and a one-cycle reservation.
fn uniform_fabric(config: &SimConfig, params: &ResolvedParams) -> PhotonicFabric {
    let wavelengths = match params.int("wavelengths") {
        0 => config.bandwidth_set.total_wavelengths(),
        n => n as usize,
    };
    let per_channel = (wavelengths / config.topology.num_clusters()).max(1);
    PhotonicFabric::channel(config, per_channel, 1)
}

/// A name-keyed catalogue of shared builders.
type Architectures = BTreeMap<String, Arc<dyn ArchitectureBuilder>>;

/// The process-global architecture catalogue; the architecture crates add
/// themselves through [`register_architecture`].
static ARCHITECTURES: LazyLock<Mutex<Architectures>> = LazyLock::new(|| {
    let builder: Arc<dyn ArchitectureBuilder> = Arc::new(UniformFabricArchitecture);
    Mutex::new(BTreeMap::from([(builder.name().to_string(), builder)]))
});

fn architectures() -> MutexGuard<'static, Architectures> {
    // No code path panics while holding the lock, and every map operation
    // leaves the catalogue valid, so poisoning cannot be observed.
    ARCHITECTURES
        .lock()
        .expect("architecture registry lock poisoned")
}

/// Registers a builder into the process-global registry under its own name,
/// replacing (and returning) any previous builder of the same name.
pub fn register_architecture(
    builder: Arc<dyn ArchitectureBuilder>,
) -> Option<Arc<dyn ArchitectureBuilder>> {
    architectures().insert(builder.name().to_string(), builder)
}

/// Looks up a builder in the process-global registry.
///
/// # Errors
///
/// Returns [`UnknownNameError`] — which lists every registered name and
/// suggests the nearest match — when no builder of that name is registered.
pub fn lookup_architecture(name: &str) -> Result<Arc<dyn ArchitectureBuilder>, UnknownNameError> {
    let architectures = architectures();
    architectures
        .get(name)
        .cloned()
        .ok_or_else(|| UnknownNameError {
            kind: "architecture",
            name: name.to_string(),
            registered: architectures.keys().cloned().collect(),
            aliases: &[],
        })
}

/// Names registered in the process-global registry, sorted.
#[must_use]
pub fn registered_architectures() -> Vec<String> {
    architectures().keys().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BandwidthSet;
    use crate::engine::run_to_completion;

    #[test]
    fn global_registry_ships_the_uniform_test_fabric() {
        let builder = lookup_architecture("uniform-fabric").expect("uniform-fabric is built in");
        assert_eq!(builder.name(), "uniform-fabric");
        assert!(registered_architectures().contains(&"uniform-fabric".to_string()));
    }

    #[test]
    fn unknown_architecture_error_lists_names_and_suggests_the_nearest() {
        let Err(error) = lookup_architecture("uniform-fabrik") else {
            panic!("'uniform-fabrik' must not resolve");
        };
        assert_eq!(error.name, "uniform-fabrik");
        assert!(error.registered.contains(&"uniform-fabric".to_string()));
        assert_eq!(error.suggestion(), Some("uniform-fabric"));
        let message = error.to_string();
        assert!(message.contains("unknown architecture 'uniform-fabrik'"));
        assert!(message.contains("did you mean 'uniform-fabric'?"));
    }

    /// Deterministic one-destination traffic for driving a registry-built
    /// network end to end.
    struct SingleFlow {
        shape: (u32, u32),
    }

    impl TrafficModel for SingleFlow {
        fn next_packet(
            &mut self,
            cycle: u64,
            src: pnoc_noc::ids::CoreId,
        ) -> Option<pnoc_noc::packet::PacketDescriptor> {
            cycle
                .is_multiple_of(400)
                .then(|| pnoc_noc::packet::PacketDescriptor {
                    src,
                    dst: pnoc_noc::ids::CoreId((src.0 + 4) % 64),
                    num_flits: self.shape.0,
                    flit_bits: self.shape.1,
                    class: pnoc_noc::packet::BandwidthClass::MediumHigh,
                    created_cycle: cycle,
                })
        }

        fn demand_class(
            &self,
            _src: pnoc_noc::ids::ClusterId,
            _dst: pnoc_noc::ids::ClusterId,
        ) -> pnoc_noc::packet::BandwidthClass {
            pnoc_noc::packet::BandwidthClass::MediumHigh
        }
    }

    fn single_flow(config: &SimConfig) -> Box<SingleFlow> {
        Box::new(SingleFlow {
            shape: (
                config.bandwidth_set.packet_flits(),
                config.bandwidth_set.flit_bits(),
            ),
        })
    }

    #[test]
    fn uniform_fabric_builder_produces_a_working_network() {
        let mut config = SimConfig::fast(BandwidthSet::Set1);
        config.sim_cycles = 1_000;
        config.warmup_cycles = 200;
        let builder = UniformFabricArchitecture;
        let params = builder.default_params();
        let mut network = builder.build(config, &params, single_flow(&config));
        let stats = run_to_completion(&mut *network);
        assert!(stats.delivered_packets > 0);
    }

    #[test]
    fn uniform_fabric_declares_and_honours_the_wavelengths_parameter() {
        let builder = UniformFabricArchitecture;
        let schema = builder.param_schema();
        assert_eq!(schema.len(), 1);
        assert_eq!(schema.get("wavelengths").unwrap().kind.label(), "int");
        // The default (0 = auto) resolves to the bandwidth set's budget.
        assert_eq!(builder.default_params().int("wavelengths"), 0);

        let mut config = SimConfig::fast(BandwidthSet::Set1);
        config.sim_cycles = 1_000;
        config.warmup_cycles = 200;
        let starved = schema
            .validate(
                "uniform-fabric",
                &crate::params::ArchParams::new().set("wavelengths", 16),
            )
            .expect("within bounds");
        let mut narrow = builder.build(config, &starved, single_flow(&config));
        let mut wide = builder.build(config, &builder.default_params(), single_flow(&config));
        let narrow_stats = run_to_completion(&mut *narrow);
        let wide_stats = run_to_completion(&mut *wide);
        assert!(narrow_stats.delivered_packets > 0);
        assert!(
            narrow_stats.average_packet_latency() > wide_stats.average_packet_latency(),
            "a quarter of the wavelengths must cost latency ({} vs {})",
            narrow_stats.average_packet_latency(),
            wide_stats.average_packet_latency()
        );
    }
}
