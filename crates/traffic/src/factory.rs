//! The traffic-pattern catalogue: the closed table of open-loop patterns.
//!
//! A pattern is one [`TrafficFactory`] — a name, a `build(spec) → model`
//! constructor and the topologies it cannot run on — in one `static`,
//! name-sorted table, resolved by [`lookup_traffic_factory`] (through
//! [`pnoc_noc::registry::lookup`]) and listed by
//! [`registered_traffic_patterns`]. Adding a pattern means adding a row here.
//!
//! The catalogue holds every pattern of the paper's evaluation plus the
//! extended scenarios added by this reproduction:
//!
//! | name | alias | generator |
//! |------|-------|-----------|
//! | `uniform-random` | `uniform` | [`UniformRandomTraffic`] |
//! | `skewed-1` / `skewed-2` / `skewed-3` | | [`SkewedTraffic`] |
//! | `hotspot-{10,20}pct-skewed-{2,3}` | | [`HotspotSkewedTraffic`] |
//! | `real-application` | | [`RealApplicationTraffic`] |
//! | `transpose`, `bit-reverse`, `tornado` | | `PermutationTraffic` |
//! | `bursty-uniform` | `bursty` | `BurstyUniformTraffic` |

use crate::bursty::BurstyUniformTraffic;
use crate::gpu::RealApplicationTraffic;
use crate::hotspot::HotspotSkewedTraffic;
use crate::pattern::{PacketShape, SkewLevel};
use crate::permutation::{PermutationKind, PermutationTraffic};
use crate::skewed::SkewedTraffic;
use crate::uniform::UniformRandomTraffic;
use pnoc_noc::ids::CoreId;
use pnoc_noc::registry::{lookup, Aliases, UnknownNameError};
use pnoc_noc::topology::ClusterTopology;
use pnoc_noc::traffic_model::{OfferedLoad, TrafficModel};

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

/// One traffic pattern of the catalogue (see the module docs).
///
/// Sweep worker threads share the `static` entries; every call to
/// [`TrafficFactory::build`] returns a fresh, independent model.
#[derive(Debug)]
pub struct TrafficFactory {
    name: &'static str,
    build: fn(&TrafficSpec) -> Box<dyn TrafficModel + Send>,
    unsupported_topology: fn(&ClusterTopology) -> Option<String>,
}

impl TrafficFactory {
    /// A pattern that runs on every topology.
    const fn new(
        name: &'static str,
        build: fn(&TrafficSpec) -> Box<dyn TrafficModel + Send>,
    ) -> Self {
        Self {
            name,
            build,
            unsupported_topology: |_| None,
        }
    }

    /// The pattern's one name (its models carry none).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Builds a fresh traffic model for one run.
    #[must_use]
    pub fn build(&self, spec: &TrafficSpec) -> Box<dyn TrafficModel + Send> {
        (self.build)(spec)
    }

    /// Why the pattern cannot run on `topology`, or `None` when it can.
    /// Scenarios ask it when they resolve, against the architecture's
    /// effective topology, so a pattern that fits only some chips is a
    /// typed error there instead of a panic in [`TrafficFactory::build`].
    #[must_use]
    pub fn unsupported_topology(&self, topology: &ClusterTopology) -> Option<String> {
        (self.unsupported_topology)(topology)
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

/// `real-application`: the paper's fixed mapping fits only 16 clusters of
/// 4 cores.
fn real_application_unsupported(topology: &ClusterTopology) -> Option<String> {
    (!RealApplicationTraffic::fits(topology)).then(|| {
        format!(
            "the paper's mapping needs 16 clusters of 4 cores, not {} of {}",
            topology.num_clusters(),
            topology.cores_per_cluster()
        )
    })
}

/// The catalogue, sorted by name.
static PATTERNS: [TrafficFactory; 13] = [
    TrafficFactory::new("bit-reverse", |s| {
        permutation(s, PermutationKind::BitReverse)
    }),
    TrafficFactory::new("bursty-uniform", |s| {
        Box::new(BurstyUniformTraffic::new(
            s.topology, s.shape, s.load, s.seed,
        ))
    }),
    TrafficFactory::new("hotspot-10pct-skewed-2", |s| {
        hotspot(s, 0.10, SkewLevel::Skewed2)
    }),
    TrafficFactory::new("hotspot-10pct-skewed-3", |s| {
        hotspot(s, 0.10, SkewLevel::Skewed3)
    }),
    TrafficFactory::new("hotspot-20pct-skewed-2", |s| {
        hotspot(s, 0.20, SkewLevel::Skewed2)
    }),
    TrafficFactory::new("hotspot-20pct-skewed-3", |s| {
        hotspot(s, 0.20, SkewLevel::Skewed3)
    }),
    TrafficFactory {
        name: "real-application",
        build: |s| {
            Box::new(RealApplicationTraffic::paper_mapping(
                s.topology, s.shape, s.load, s.seed,
            ))
        },
        unsupported_topology: real_application_unsupported,
    },
    TrafficFactory::new("skewed-1", |s| skewed(s, SkewLevel::Skewed1)),
    TrafficFactory::new("skewed-2", |s| skewed(s, SkewLevel::Skewed2)),
    TrafficFactory::new("skewed-3", |s| skewed(s, SkewLevel::Skewed3)),
    TrafficFactory::new("tornado", |s| permutation(s, PermutationKind::Tornado)),
    TrafficFactory::new("transpose", |s| permutation(s, PermutationKind::Transpose)),
    TrafficFactory::new("uniform-random", |s| {
        Box::new(UniformRandomTraffic::new(
            s.topology, s.shape, s.load, s.seed,
        ))
    }),
];

/// Shorthand pattern names accepted by lookups, mapped to their canonical
/// names. Only the canonical names appear in
/// [`registered_traffic_patterns`]; shorthands are a lookup convenience (e.g.
/// the `repro --scenario firefly:uniform` CLI spelling).
const PATTERN_ALIASES: Aliases = &[("uniform", "uniform-random"), ("bursty", "bursty-uniform")];

/// Looks a pattern up by its name or shorthand (`uniform`, `bursty`).
///
/// # Errors
///
/// Returns [`UnknownNameError`] — which lists every pattern and suggests the
/// nearest name or shorthand — when neither resolves.
pub fn lookup_traffic_factory(name: &str) -> Result<&'static TrafficFactory, UnknownNameError> {
    lookup(
        "traffic pattern",
        &PATTERNS,
        TrafficFactory::name,
        PATTERN_ALIASES,
        name,
    )
}

/// Every pattern's name, sorted.
#[must_use]
pub fn registered_traffic_patterns() -> Vec<String> {
    PATTERNS
        .iter()
        .map(|factory| factory.name.to_string())
        .collect()
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
            let factory = lookup_traffic_factory(name).expect("in the catalogue");
            assert_eq!(factory.name(), name);
        }
    }

    #[test]
    fn the_catalogue_is_sorted_and_its_aliases_are_shorthands() {
        let names = registered_traffic_patterns();
        assert!(
            names.windows(2).all(|pair| pair[0] < pair[1]),
            "names must be sorted and unique: {names:?}"
        );
        for &(alias, canonical) in PATTERN_ALIASES {
            assert!(
                names.iter().any(|name| name == canonical),
                "{alias} → {canonical}"
            );
            assert!(!names.iter().any(|name| name == alias), "{alias} is a name");
        }
    }

    #[test]
    fn built_models_honour_the_spec() {
        // The spec's load reaches the model: silent at zero, sending at 0.01.
        let topology = ClusterTopology::paper_default();
        for factory in &PATTERNS {
            let name = factory.name();
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
        for factory in &PATTERNS {
            let mut a = factory.build(&spec());
            let mut b = factory.build(&spec());
            for cycle in 0..2_000 {
                let src = pnoc_noc::ids::CoreId(cycle as usize % 64);
                assert_eq!(
                    a.next_packet(cycle, src),
                    b.next_packet(cycle, src),
                    "pattern '{}' is not reproducible for a fixed seed",
                    factory.name()
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
        // A shorthand is a candidate too, after the names.
        let error = lookup_traffic_factory("unifrm").expect_err("a typo");
        assert_eq!(error.suggestion(), Some("uniform"));
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
