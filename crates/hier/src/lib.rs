#![doc = include_str!("hierarchy.md")]

pub mod spine;
pub mod system;

pub use spine::Spine;
pub use system::HIER_ONLY_METRICS;

use crate::system::HierarchicalSystem;
use pnoc_noc::topology::ClusterTopology;
use pnoc_noc::traffic_model::TrafficModel;
use pnoc_sim::config::SimConfig;
use pnoc_sim::engine::CycleNetwork;
use pnoc_sim::params::{ParamSchema, ResolvedParams};
use pnoc_sim::registry::{
    lookup_architecture, register_architecture, ArchitectureBuilder, Provisioning,
};
use std::sync::Arc;

/// Leaf fabrics a pod can run. The choice set is closed because
/// architecture-parameter specs are flat (no nested braces) — each entry
/// names a registered architecture that runs at its default parameters.
pub(crate) const LEAF_ARCHITECTURES: [&str; 3] = ["d-hetpnoc", "firefly", "uniform-fabric"];

/// The registered `hier` architecture: `pods` replicas of a registered leaf
/// fabric composed under an electrical or photonic spine. See the crate
/// docs for the spec grammar and execution model.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct HierArchitecture;

impl HierArchitecture {
    /// Resolves the `epoch` parameter: `0` means auto — one cycle for a
    /// single pod (exact degeneracy to the bare leaf), 64 otherwise.
    #[must_use]
    pub(crate) fn resolve_epoch(epoch: i64, pods: usize) -> u64 {
        match epoch {
            0 if pods == 1 => 1,
            0 => 64,
            n => n as u64,
        }
    }
}

impl ArchitectureBuilder for HierArchitecture {
    fn name(&self) -> &str {
        "hier"
    }

    fn label(&self) -> String {
        "Hierarchical multi-pod composition".to_string()
    }

    fn provisioning(&self) -> Provisioning {
        Provisioning::Dynamic
    }

    /// Faults target a single photonic fabric; pod-addressed fault targets
    /// do not exist, so the hierarchy declines fault schedules.
    fn accepts_fault_schedules(&self) -> bool {
        false
    }

    fn param_schema(&self) -> ParamSchema {
        ParamSchema::new()
            .int(
                "pods",
                4,
                1,
                64,
                "number of leaf-fabric pods composed under the spine",
            )
            .choice(
                "leaf",
                "d-hetpnoc",
                &LEAF_ARCHITECTURES,
                "leaf fabric replicated in every pod (runs at its default parameters)",
            )
            .int(
                "epoch",
                0,
                0,
                4096,
                "boundary-exchange epoch in cycles (0 = auto: 1 for a single pod, 64 otherwise)",
            )
            .choice(
                "spine",
                "electrical",
                &["electrical", "photonic"],
                "spine link technology (photonic counts cross-pod bits as photonic)",
            )
            .int(
                "spine_latency",
                32,
                0,
                100_000,
                "one-way spine traversal latency in cycles",
            )
            .int(
                "spine_bandwidth",
                0,
                0,
                65_536,
                "spine capacity in flits per cycle before oversubscription \
                 (0 = auto: one packet's flits per cycle)",
            )
            .float(
                "spine_oversub",
                1.0,
                1.0,
                64.0,
                "spine oversubscription divisor; effective capacity = bandwidth / oversub",
            )
    }

    fn effective_config(&self, config: SimConfig, params: &ResolvedParams) -> SimConfig {
        let pods = params.int("pods") as usize;
        let mut effective = config;
        effective.topology = ClusterTopology::new(
            config.topology.num_clusters() * pods,
            config.topology.cores_per_cluster(),
        );
        effective
    }

    fn workload_placement(
        &self,
        config: &SimConfig,
        params: &ResolvedParams,
        ranks: usize,
    ) -> Option<Vec<usize>> {
        let pods = params.int("pods") as usize;
        if pods <= 1 {
            return None;
        }
        // Round-robin ranks across pods: rank i on core (i mod P)·Nc + ⌊i/P⌋,
        // so dense collectives stripe over every pod and exercise the spine.
        let leaf_cores = config.topology.num_cores() / pods;
        Some(
            (0..ranks)
                .map(|rank| (rank % pods) * leaf_cores + rank / pods)
                .collect(),
        )
    }

    fn build(
        &self,
        config: SimConfig,
        params: &ResolvedParams,
        traffic: Box<dyn TrafficModel + Send>,
    ) -> Box<dyn CycleNetwork> {
        let pods = params.int("pods") as usize;
        let leaf_name = params.choice("leaf");
        let leaf = lookup_architecture(leaf_name)
            .unwrap_or_else(|error| panic!("hier leaf '{leaf_name}' is not registered: {error}"));
        let epoch = Self::resolve_epoch(params.int("epoch"), pods);
        let bandwidth = match params.int("spine_bandwidth") {
            0 => u64::from(config.bandwidth_set.packet_flits()),
            n => n as u64,
        };
        let capacity = ((bandwidth as f64 / params.float("spine_oversub")).floor() as u64).max(1);
        let spine = Spine::new(
            params.choice("spine") == "photonic",
            params.int("spine_latency") as u64,
            capacity,
        );
        Box::new(HierarchicalSystem::new(
            config,
            pods,
            epoch,
            spine,
            leaf.as_ref(),
            traffic,
        ))
    }
}

/// Registers the `hier` architecture into the process-global registry.
/// Idempotent (re-registration replaces the builder with an equivalent one).
pub fn register_hier_architecture() {
    register_architecture(Arc::new(HierArchitecture));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_sim::config::BandwidthSet;
    use pnoc_sim::params::ArchParams;

    fn resolved(overrides: ArchParams) -> ResolvedParams {
        HierArchitecture
            .param_schema()
            .validate("hier", &overrides)
            .expect("valid overrides")
    }

    #[test]
    fn schema_declares_the_seven_hierarchy_knobs() {
        let schema = HierArchitecture.param_schema();
        assert_eq!(schema.len(), 7);
        let defaults = HierArchitecture.default_params();
        assert_eq!(defaults.int("pods"), 4);
        assert_eq!(defaults.choice("leaf"), "d-hetpnoc");
        assert_eq!(defaults.int("epoch"), 0);
        assert_eq!(defaults.choice("spine"), "electrical");
        assert_eq!(defaults.int("spine_latency"), 32);
        assert_eq!(defaults.int("spine_bandwidth"), 0);
        assert!((defaults.float("spine_oversub") - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn effective_config_multiplies_clusters_by_pods() {
        let base = SimConfig::paper_default(BandwidthSet::Set1);
        let params = resolved(ArchParams::new().set("pods", 16));
        let effective = HierArchitecture.effective_config(base, &params);
        assert_eq!(
            effective.topology.num_clusters(),
            base.topology.num_clusters() * 16
        );
        assert_eq!(
            effective.topology.cores_per_cluster(),
            base.topology.cores_per_cluster()
        );
        assert_eq!(effective.bandwidth_set, base.bandwidth_set);
        assert_eq!(effective.seed, base.seed);

        // A single pod leaves the geometry untouched.
        let one = resolved(ArchParams::new().set("pods", 1));
        let degenerate = HierArchitecture.effective_config(base, &one);
        assert_eq!(
            degenerate.topology.num_clusters(),
            base.topology.num_clusters()
        );
    }

    #[test]
    fn placement_round_robins_ranks_across_pods() {
        let base = SimConfig::paper_default(BandwidthSet::Set1);
        let params = resolved(ArchParams::new().set("pods", 4));
        let effective = HierArchitecture.effective_config(base, &params);
        let leaf_cores = effective.topology.num_cores() / 4;
        let map = HierArchitecture
            .workload_placement(&effective, &params, 8)
            .expect("multi-pod hierarchies place ranks");
        assert_eq!(map.len(), 8);
        // Ranks 0..4 land on core 0 of pods 0..4; ranks 4..8 on core 1.
        for (rank, &core) in map.iter().enumerate() {
            assert_eq!(core, (rank % 4) * leaf_cores + rank / 4);
        }
        // Injective over a full-fabric workload.
        let full = HierArchitecture
            .workload_placement(&effective, &params, effective.topology.num_cores())
            .expect("full-size map");
        let mut seen = vec![false; effective.topology.num_cores()];
        for &core in &full {
            assert!(
                !std::mem::replace(&mut seen[core], true),
                "core {core} placed twice"
            );
        }

        // A single pod keeps the generators' native dense placement.
        let one = resolved(ArchParams::new().set("pods", 1));
        let degenerate = HierArchitecture.effective_config(base, &one);
        assert!(HierArchitecture
            .workload_placement(&degenerate, &one, 8)
            .is_none());
    }

    #[test]
    fn epoch_auto_resolves_to_exact_degeneracy_for_one_pod() {
        assert_eq!(HierArchitecture::resolve_epoch(0, 1), 1);
        assert_eq!(HierArchitecture::resolve_epoch(0, 4), 64);
        assert_eq!(HierArchitecture::resolve_epoch(128, 1), 128);
        assert_eq!(HierArchitecture::resolve_epoch(128, 4), 128);
    }
}
