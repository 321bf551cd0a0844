//! The traffic-pattern registry: the open-ended catalogue of workloads.
//!
//! Mirrors the architecture registry of `pnoc-sim`: a traffic pattern
//! implements [`TrafficFactory`] — a name plus a `build(spec) → model`
//! constructor — and registers into the process-global catalogue (a
//! [`pnoc_noc::registry::Registry`] behind [`register_traffic_factory`] /
//! [`lookup_traffic_factory`]).
//! The benchmark harness resolves workloads by name, so adding a pattern
//! touches only this crate (or whatever crate defines the new pattern).
//!
//! The registry ships with every pattern of the paper's evaluation plus the
//! extended scenarios added by this reproduction:
//!
//! | name | generator |
//! |------|-----------|
//! | `uniform-random` | [`UniformRandomTraffic`] |
//! | `skewed-1` / `skewed-2` / `skewed-3` | [`SkewedTraffic`] |
//! | `hotspot-{10,20}pct-skewed-{2,3}` | [`HotspotSkewedTraffic`] |
//! | `real-application` | [`RealApplicationTraffic`] |
//! | `transpose`, `bit-reverse`, `tornado` | `PermutationTraffic` |
//! | `bursty-uniform` | `BurstyUniformTraffic` |

use crate::bursty::BurstyUniformTraffic;
use crate::gpu::RealApplicationTraffic;
use crate::hotspot::HotspotSkewedTraffic;
use crate::pattern::{PacketShape, SkewLevel};
use crate::permutation::{PermutationKind, PermutationTraffic};
use crate::skewed::SkewedTraffic;
use crate::uniform::UniformRandomTraffic;
use pnoc_noc::ids::CoreId;
use pnoc_noc::registry::{Registry, UnknownNameError};
use pnoc_noc::topology::ClusterTopology;
use pnoc_noc::traffic_model::{OfferedLoad, TrafficModel};
use std::sync::{Arc, LazyLock};

/// Everything a factory needs to instantiate a traffic model for one run.
#[derive(Debug, Clone, Copy)]
pub struct TrafficSpec {
    /// Cluster topology of the simulated chip.
    pub topology: ClusterTopology,
    /// Packet geometry (from the bandwidth set under test).
    pub shape: PacketShape,
    /// Offered load of the run.
    pub load: OfferedLoad,
    /// RNG seed of the run (sweeps derive a fresh seed per point).
    pub seed: u64,
}

impl TrafficSpec {
    /// Creates a spec.
    #[must_use]
    pub fn new(
        topology: ClusterTopology,
        shape: PacketShape,
        load: OfferedLoad,
        seed: u64,
    ) -> Self {
        Self {
            topology,
            shape,
            load,
            seed,
        }
    }
}

/// A factory for one traffic pattern.
///
/// Like `ArchitectureBuilder` in `pnoc-sim`, implementations are shared
/// across sweep worker threads; every call to [`TrafficFactory::build`]
/// must return a fresh, independent model.
pub trait TrafficFactory: Send + Sync {
    /// Stable registry key: the pattern's one name (its models carry none).
    fn name(&self) -> &str;

    /// Builds a fresh traffic model for one run.
    fn build(&self, spec: &TrafficSpec) -> Box<dyn TrafficModel + Send>;

    /// Why the pattern cannot run on `topology`, or `None` when it can (the
    /// default). Scenarios ask it when they resolve, against the
    /// architecture's effective topology, so a pattern that fits only some
    /// chips is a typed error there instead of a panic in
    /// [`TrafficFactory::build`].
    fn unsupported_topology(&self, topology: &ClusterTopology) -> Option<String> {
        let _ = topology;
        None
    }
}

/// A [`TrafficFactory`] from a name and a plain constructor function.
struct FnFactory {
    name: &'static str,
    construct: fn(&TrafficSpec) -> Box<dyn TrafficModel + Send>,
}

impl TrafficFactory for FnFactory {
    fn name(&self) -> &str {
        self.name
    }

    fn build(&self, spec: &TrafficSpec) -> Box<dyn TrafficModel + Send> {
        (self.construct)(spec)
    }
}

/// `real-application`: the paper's fixed mapping, which fits only 16
/// clusters of 4 cores.
struct RealApplicationFactory;

impl TrafficFactory for RealApplicationFactory {
    fn name(&self) -> &str {
        "real-application"
    }

    fn build(&self, spec: &TrafficSpec) -> Box<dyn TrafficModel + Send> {
        Box::new(RealApplicationTraffic::paper_mapping(
            spec.topology,
            spec.shape,
            spec.load,
            spec.seed,
        ))
    }

    fn unsupported_topology(&self, topology: &ClusterTopology) -> Option<String> {
        (!RealApplicationTraffic::fits(topology)).then(|| {
            format!(
                "the paper's mapping needs 16 clusters of 4 cores, not {} of {}",
                topology.num_clusters(),
                topology.cores_per_cluster()
            )
        })
    }
}

fn skewed(spec: &TrafficSpec, level: SkewLevel) -> Box<dyn TrafficModel + Send> {
    Box::new(SkewedTraffic::new(
        spec.topology,
        spec.shape,
        level,
        spec.load,
        spec.seed,
    ))
}

fn hotspot(spec: &TrafficSpec, fraction: f64, level: SkewLevel) -> Box<dyn TrafficModel + Send> {
    Box::new(HotspotSkewedTraffic::new(
        spec.topology,
        spec.shape,
        level,
        CoreId(0),
        fraction,
        spec.load,
        spec.seed,
    ))
}

fn permutation(spec: &TrafficSpec, kind: PermutationKind) -> Box<dyn TrafficModel + Send> {
    Box::new(PermutationTraffic::new(
        spec.topology,
        spec.shape,
        kind,
        spec.load,
        spec.seed,
    ))
}

/// A registry of the built-in factories (see the module docs).
fn builtin_patterns() -> Registry<dyn TrafficFactory> {
    let f = |name: &'static str,
             construct: fn(&TrafficSpec) -> Box<dyn TrafficModel + Send>|
     -> Arc<dyn TrafficFactory> { Arc::new(FnFactory { name, construct }) };
    let registry = Registry::new("traffic pattern", &PATTERN_ALIASES);
    for factory in [
        f("uniform-random", |s| {
            Box::new(UniformRandomTraffic::new(
                s.topology, s.shape, s.load, s.seed,
            ))
        }),
        f("skewed-1", |s| skewed(s, SkewLevel::Skewed1)),
        f("skewed-2", |s| skewed(s, SkewLevel::Skewed2)),
        f("skewed-3", |s| skewed(s, SkewLevel::Skewed3)),
        f("hotspot-10pct-skewed-2", |s| {
            hotspot(s, 0.10, SkewLevel::Skewed2)
        }),
        f("hotspot-10pct-skewed-3", |s| {
            hotspot(s, 0.10, SkewLevel::Skewed3)
        }),
        f("hotspot-20pct-skewed-2", |s| {
            hotspot(s, 0.20, SkewLevel::Skewed2)
        }),
        f("hotspot-20pct-skewed-3", |s| {
            hotspot(s, 0.20, SkewLevel::Skewed3)
        }),
        Arc::new(RealApplicationFactory),
        f("transpose", |s| permutation(s, PermutationKind::Transpose)),
        f("bit-reverse", |s| {
            permutation(s, PermutationKind::BitReverse)
        }),
        f("tornado", |s| permutation(s, PermutationKind::Tornado)),
        f("bursty-uniform", |s| {
            Box::new(BurstyUniformTraffic::new(
                s.topology, s.shape, s.load, s.seed,
            ))
        }),
    ] {
        registry.register(factory.name().to_string(), factory);
    }
    registry
}

/// Shorthand pattern names accepted by lookups, mapped to their canonical
/// registry keys. Only the canonical names appear in
/// [`registered_traffic_patterns`]; shorthands are a lookup convenience (e.g. the
/// `repro --scenario firefly:uniform` CLI spelling).
pub(crate) const PATTERN_ALIASES: [(&str, &str); 2] =
    [("uniform", "uniform-random"), ("bursty", "bursty-uniform")];

/// The process-global pattern catalogue, seeded with the built-ins.
static PATTERNS: LazyLock<Registry<dyn TrafficFactory>> = LazyLock::new(builtin_patterns);

/// Registers a factory into the process-global registry under its own name,
/// replacing (and returning) any previous factory of the same name.
pub fn register_traffic_factory(
    factory: Arc<dyn TrafficFactory>,
) -> Option<Arc<dyn TrafficFactory>> {
    PATTERNS.register(factory.name().to_string(), factory)
}

/// Looks up a factory in the process-global registry: exact registered names
/// always win; when nothing is registered under `name`, the
/// shorthands (`uniform`, `bursty`) fall back to their canonical pattern, so a
/// factory explicitly registered as `"uniform"` is never shadowed by the
/// `uniform → uniform-random` convenience.
///
/// # Errors
///
/// Returns [`UnknownNameError`] — which lists every registered name and
/// suggests the nearest match — when no factory of that name is registered.
pub fn lookup_traffic_factory(name: &str) -> Result<Arc<dyn TrafficFactory>, UnknownNameError> {
    PATTERNS.lookup(name)
}

/// Names registered in the process-global registry, sorted.
#[must_use]
pub fn registered_traffic_patterns() -> Vec<String> {
    PATTERNS.names()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> TrafficSpec {
        TrafficSpec::new(
            ClusterTopology::paper_default(),
            PacketShape::new(64, 32),
            OfferedLoad::new(0.01),
            42,
        )
    }

    #[test]
    fn registry_covers_the_paper_and_extended_scenarios() {
        let registry = builtin_patterns();
        assert!(
            registry.len() >= 7,
            "expected at least 7 built-in patterns, found {}",
            registry.len()
        );
        for name in [
            "uniform-random",
            "skewed-1",
            "skewed-2",
            "skewed-3",
            "hotspot-10pct-skewed-2",
            "hotspot-20pct-skewed-3",
            "real-application",
            "transpose",
            "bit-reverse",
            "tornado",
            "bursty-uniform",
        ] {
            assert!(registry.get(name).is_some(), "pattern '{name}' missing");
        }
    }

    #[test]
    fn built_models_honour_the_spec() {
        // The spec's load reaches the model: silent at zero, sending at 0.01.
        let registry = builtin_patterns();
        let topology = ClusterTopology::paper_default();
        for name in registry.names() {
            let factory = registry.get(&name).expect("listed");
            let packets = |load: f64| {
                let mut model = factory.build(&TrafficSpec {
                    load: OfferedLoad::new(load),
                    ..spec()
                });
                let mut count = 0;
                for cycle in 0..500 {
                    model.poll_cycle(cycle, topology.num_cores(), &mut |_, _| count += 1);
                }
                count
            };
            assert_eq!(packets(0.0), 0, "pattern '{name}' sends at load 0");
            assert!(packets(0.01) > 0, "pattern '{name}' is silent at load 0.01");
        }
    }

    #[test]
    fn builds_are_reproducible_per_seed() {
        let registry = builtin_patterns();
        for name in registry.names() {
            let factory = registry.get(&name).expect("listed");
            let mut a = factory.build(&spec());
            let mut b = factory.build(&spec());
            for cycle in 0..2_000 {
                let src = pnoc_noc::ids::CoreId(cycle as usize % 64);
                assert_eq!(
                    a.next_packet(cycle, src),
                    b.next_packet(cycle, src),
                    "pattern '{name}' is not reproducible for a fixed seed"
                );
            }
        }
    }

    #[test]
    fn unknown_pattern_error_lists_names_and_suggests_the_nearest() {
        let Err(error) = lookup_traffic_factory("tornadoo") else {
            panic!("'tornadoo' must not resolve");
        };
        assert_eq!(error.name, "tornadoo");
        assert!(error.registered.contains(&"tornado".to_string()));
        assert_eq!(error.suggestion(), Some("tornado"));
        let message = error.to_string();
        assert!(message.contains("unknown traffic pattern 'tornadoo'"));
        assert!(message.contains("uniform-random"));
        assert!(message.contains("did you mean 'tornado'?"));
    }

    #[test]
    fn global_registry_serves_and_accepts_registrations() {
        assert!(lookup_traffic_factory("uniform-random").is_ok());
        assert!(registered_traffic_patterns().len() >= 7);

        struct Custom;

        impl TrafficFactory for Custom {
            fn name(&self) -> &str {
                "custom-test-pattern"
            }

            fn build(&self, spec: &TrafficSpec) -> Box<dyn TrafficModel + Send> {
                Box::new(UniformRandomTraffic::new(
                    spec.topology,
                    spec.shape,
                    spec.load,
                    spec.seed,
                ))
            }
        }

        register_traffic_factory(Arc::new(Custom));
        assert!(lookup_traffic_factory("custom-test-pattern").is_ok());
    }

    #[test]
    fn shorthand_aliases_resolve_to_their_canonical_pattern() {
        for (name, canonical) in [
            ("uniform", "uniform-random"),
            ("bursty", "bursty-uniform"),
            ("tornado", "tornado"),
        ] {
            let factory = lookup_traffic_factory(name).expect("alias resolves");
            assert_eq!(factory.name(), canonical);
        }
        // Aliases are a lookup convenience only: the catalogue stays
        // canonical.
        assert!(!registered_traffic_patterns().contains(&"uniform".to_string()));
    }
}
