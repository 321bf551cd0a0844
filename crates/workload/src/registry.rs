//! The workload catalogue: the closed table of closed-loop workloads.
//!
//! A workload is one [`WorkloadFactory`] — a name and a
//! `build(spec) → Workload` constructor — in one `static`, name-sorted
//! table, resolved by [`lookup_workload_factory`] (through
//! [`pnoc_noc::registry::lookup`]) and listed by [`registered_workloads`].
//! Downstream harnesses resolve workloads by `NAME[:SIZE]` references
//! ([`WorkloadRef`]); unknown names fail with the full catalogue and a "did
//! you mean" suggestion, exactly like the other two catalogues.
//!
//! | name | alias | generator |
//! |------|-------|-----------|
//! | `all-to-all` | `shuffle` | [`crate::collectives::all_to_all`] |
//! | `incast` | | [`crate::collectives::incast`] |
//! | `parameter-server` | `ps` | [`crate::collectives::parameter_server`] |
//! | `ring-allreduce` | `allreduce` | [`crate::collectives::ring_allreduce`] |
//! | `tree-allreduce` | | [`crate::collectives::tree_allreduce`] |

use crate::collectives;
use crate::dag::Workload;
use pnoc_noc::registry::{lookup, Aliases, UnknownNameError};

/// Default per-node payload of generated workloads: 16 KiB per participant,
/// i.e. 64 packets of the universal 2048-bit packet — big enough that
/// bandwidth matters, small enough that smoke runs drain in tens of
/// thousands of cycles.
pub(crate) const DEFAULT_BYTES_PER_NODE: u64 = 16 * 1024;

/// Everything a factory needs to instantiate a workload for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Number of participating cores (mapped onto cores `0..size`).
    pub size: usize,
    /// Payload per participating node, bytes.
    pub bytes_per_node: u64,
}

impl WorkloadSpec {
    /// Creates a spec with the default payload of 16 KiB per node.
    #[must_use]
    pub fn new(size: usize) -> Self {
        Self {
            size,
            bytes_per_node: DEFAULT_BYTES_PER_NODE,
        }
    }
}

/// Participant count of a [`WorkloadRef`] that omits `:SIZE`.
const DEFAULT_SIZE: usize = 16;

/// One closed-loop workload family of the catalogue (see the module docs).
///
/// Sweep worker threads share the `static` entries; [`WorkloadFactory::build`]
/// is a pure function of the spec, so that batch deduplication, DAG sharing
/// and the parallel / sequential determinism guarantee hold.
#[derive(Debug)]
pub struct WorkloadFactory {
    name: &'static str,
    build: fn(&WorkloadSpec) -> Workload,
}

impl WorkloadFactory {
    /// The workload's canonical name (`"ring-allreduce"`, `"incast"`, ...).
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Builds the workload for one run (valid by construction: see
    /// [`crate::dag::WorkloadBuilder::finish`]).
    #[must_use]
    pub fn build(&self, spec: &WorkloadSpec) -> Workload {
        (self.build)(spec)
    }
}

/// The catalogue, sorted by name.
static WORKLOADS: [WorkloadFactory; 5] = [
    WorkloadFactory {
        name: "all-to-all",
        build: |s| collectives::all_to_all(s.size, s.bytes_per_node),
    },
    WorkloadFactory {
        name: "incast",
        build: |s| collectives::incast(s.size, s.bytes_per_node),
    },
    WorkloadFactory {
        name: "parameter-server",
        build: |s| collectives::parameter_server(s.size, s.bytes_per_node),
    },
    WorkloadFactory {
        name: "ring-allreduce",
        build: |s| collectives::ring_allreduce(s.size, s.bytes_per_node),
    },
    WorkloadFactory {
        name: "tree-allreduce",
        build: |s| collectives::tree_allreduce(s.size, s.bytes_per_node),
    },
];

/// Shorthand workload names accepted by lookups, mapped to their canonical
/// names (the same convention as `pnoc-traffic`'s pattern aliases: only
/// canonical names appear in the catalogue).
const WORKLOAD_ALIASES: Aliases = &[
    ("allreduce", "ring-allreduce"),
    ("shuffle", "all-to-all"),
    ("ps", "parameter-server"),
];

/// Looks a workload up by its name or shorthand (`allreduce`, `shuffle`,
/// `ps`).
///
/// # Errors
///
/// Returns [`UnknownNameError`] — which lists every workload and suggests
/// the nearest name or shorthand — when neither resolves.
pub fn lookup_workload_factory(name: &str) -> Result<&'static WorkloadFactory, UnknownNameError> {
    lookup(
        "workload",
        &WORKLOADS,
        WorkloadFactory::name,
        WORKLOAD_ALIASES,
        name,
    )
}

/// Every workload's name, sorted.
#[must_use]
pub fn registered_workloads() -> Vec<String> {
    WORKLOADS
        .iter()
        .map(|factory| factory.name.to_string())
        .collect()
}

/// A `NAME[:SIZE]` workload reference — the spelling accepted by `repro
/// --workload` and stored in scenario specs. `SIZE` is the participant
/// count; omitted, 16 participants apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadRef {
    /// Workload name (canonical or alias).
    pub name: String,
    /// Explicit participant count, if given.
    pub size: Option<usize>,
}

impl WorkloadRef {
    /// Parses `NAME[:SIZE]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason on an empty name, a malformed size,
    /// or extra `:` parts.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut parts = text.split(':');
        let name = parts.next().unwrap_or_default();
        if name.is_empty() {
            return Err(format!("workload reference '{text}' has an empty name"));
        }
        let size = match parts.next() {
            None => None,
            Some(size_text) => Some(size_text.parse::<usize>().map_err(|_| {
                format!("workload size '{size_text}' in '{text}' is not a positive integer")
            })?),
        };
        if parts.next().is_some() {
            return Err(format!(
                "workload reference '{text}' has too many ':' parts (expected NAME[:SIZE])"
            ));
        }
        if size == Some(0) {
            return Err(format!("workload size in '{text}' must be positive"));
        }
        Ok(Self {
            name: name.to_string(),
            size,
        })
    }

    /// Resolves the reference against the catalogue, returning the factory
    /// and the effective participant count.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNameError`] when the name is not in the catalogue.
    pub fn resolve(&self) -> Result<(&'static WorkloadFactory, usize), UnknownNameError> {
        let factory = lookup_workload_factory(&self.name)?;
        Ok((factory, self.size.unwrap_or(DEFAULT_SIZE)))
    }
}

impl std::fmt::Display for WorkloadRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.size {
            Some(size) => write!(f, "{}:{size}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_cover_the_canonical_collectives() {
        assert_eq!(
            registered_workloads(),
            [
                "all-to-all",
                "incast",
                "parameter-server",
                "ring-allreduce",
                "tree-allreduce",
            ]
        );
        for name in registered_workloads() {
            let factory = lookup_workload_factory(&name).expect("listed");
            assert_eq!(factory.name(), name);
        }
    }

    #[test]
    fn the_catalogue_is_sorted_and_its_aliases_are_shorthands() {
        let names = registered_workloads();
        assert!(
            names.windows(2).all(|pair| pair[0] < pair[1]),
            "names must be sorted and unique: {names:?}"
        );
        for &(alias, canonical) in WORKLOAD_ALIASES {
            assert!(
                names.iter().any(|name| name == canonical),
                "{alias} → {canonical}"
            );
            assert!(!names.iter().any(|name| name == alias), "{alias} is a name");
        }
    }

    #[test]
    fn built_workloads_validate_and_scale_with_the_spec() {
        for factory in &WORKLOADS {
            for size in [2usize, 5, 16] {
                let spec = WorkloadSpec {
                    size,
                    bytes_per_node: 4096,
                };
                let workload = factory.build(&spec);
                assert!(
                    workload.max_core() < size,
                    "workload '{}' uses cores beyond its size",
                    factory.name()
                );
            }
        }
    }

    #[test]
    fn aliases_resolve_but_do_not_appear_in_the_catalogue() {
        for (name, canonical) in [
            ("allreduce", "ring-allreduce"),
            ("shuffle", "all-to-all"),
            ("incast", "incast"),
        ] {
            let factory = lookup_workload_factory(name).expect("alias resolves");
            assert_eq!(factory.name(), canonical);
        }
        assert!(!registered_workloads().contains(&"allreduce".to_string()));
    }

    #[test]
    fn unknown_workload_error_lists_names_and_suggests_the_nearest() {
        let Err(error) = lookup_workload_factory("ring-alreduce") else {
            panic!("'ring-alreduce' must not resolve");
        };
        assert_eq!(error.suggestion(), Some("ring-allreduce"));
        let message = error.to_string();
        assert!(
            message.contains("unknown workload 'ring-alreduce'"),
            "{message}"
        );
        assert!(
            message.contains("did you mean 'ring-allreduce'?"),
            "{message}"
        );
        assert!(message.contains("incast"));
        // Shorthands are candidates too, after the names.
        for (typo, alias) in [("alreduce", "allreduce"), ("shufle", "shuffle")] {
            let error = lookup_workload_factory(typo).expect_err("a typo");
            assert_eq!(error.suggestion(), Some(alias));
            assert!(error
                .to_string()
                .ends_with(&format!("tree-allreduce] — did you mean '{alias}'?")));
        }
    }

    #[test]
    fn workload_refs_parse_display_and_resolve() {
        let bare = WorkloadRef::parse("incast").unwrap();
        assert_eq!(bare.size, None);
        assert_eq!(bare.to_string(), "incast");
        let (factory, size) = bare.resolve().expect("registered");
        assert_eq!(factory.name(), "incast");
        assert_eq!(size, DEFAULT_SIZE);

        let sized = WorkloadRef::parse("allreduce:64").unwrap();
        assert_eq!(sized.size, Some(64));
        assert_eq!(sized.to_string(), "allreduce:64");
        let (factory, size) = sized.resolve().expect("alias registered");
        assert_eq!(factory.name(), "ring-allreduce");
        assert_eq!(size, 64);

        for bad in ["", ":8", "allreduce:zero", "allreduce:0", "a:1:2"] {
            assert!(WorkloadRef::parse(bad).is_err(), "'{bad}' should fail");
        }
    }
}
