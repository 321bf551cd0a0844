//! The workload registry: the open-ended catalogue of closed-loop
//! workloads, mirroring the architecture registry of `pnoc-sim` and the
//! traffic registry of `pnoc-traffic`.
//!
//! A workload implements [`WorkloadFactory`] — a name plus a
//! `build(spec) → Workload` constructor — and registers into the
//! process-global catalogue (a [`pnoc_noc::registry::Registry`] behind
//! [`register_workload_factory`] / [`lookup_workload_factory`]). Downstream
//! harnesses resolve workloads by `NAME[:SIZE]` references ([`WorkloadRef`]);
//! unknown names fail with the full catalogue and a "did you mean"
//! suggestion, exactly like the other two registries.
//!
//! Built-in factories:
//!
//! | name | alias | generator |
//! |------|-------|-----------|
//! | `ring-allreduce` | `allreduce` | [`crate::collectives::ring_allreduce`] |
//! | `tree-allreduce` | | [`crate::collectives::tree_allreduce`] |
//! | `all-to-all` | `shuffle` | [`crate::collectives::all_to_all`] |
//! | `parameter-server` | `ps` | [`crate::collectives::parameter_server`] |
//! | `incast` | | [`crate::collectives::incast`] |

use crate::collectives;
use crate::dag::Workload;
use pnoc_noc::registry::{Registry, UnknownNameError};
use std::sync::{Arc, LazyLock};

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

/// A factory for one closed-loop workload family.
///
/// Like the architecture and traffic factories, implementations are shared
/// across sweep worker threads; [`WorkloadFactory::build`] must be a pure
/// function of the spec so that batch deduplication and the parallel /
/// sequential determinism guarantee hold.
pub trait WorkloadFactory: Send + Sync {
    /// Stable registry key (`"ring-allreduce"`, `"incast"`, ...).
    fn name(&self) -> &str;

    /// Participant count used when a [`WorkloadRef`] omits `:SIZE`.
    fn default_size(&self) -> usize {
        16
    }

    /// Builds the workload for one run. Implementations must return a
    /// workload that passes [`Workload::validate`].
    fn build(&self, spec: &WorkloadSpec) -> Workload;
}

/// A [`WorkloadFactory`] from a name and a plain constructor function.
struct FnWorkloadFactory {
    name: &'static str,
    construct: fn(&WorkloadSpec) -> Workload,
}

impl WorkloadFactory for FnWorkloadFactory {
    fn name(&self) -> &str {
        self.name
    }

    fn build(&self, spec: &WorkloadSpec) -> Workload {
        (self.construct)(spec)
    }
}

/// A registry of the built-in factories (see the module docs) — what the
/// process-global catalogue starts from.
#[must_use]
pub fn builtin_workloads() -> Registry<dyn WorkloadFactory> {
    let f = |name: &'static str,
             construct: fn(&WorkloadSpec) -> Workload|
     -> Arc<dyn WorkloadFactory> { Arc::new(FnWorkloadFactory { name, construct }) };
    let registry = Registry::new("workload", &WORKLOAD_ALIASES);
    for factory in [
        f("ring-allreduce", |s| {
            collectives::ring_allreduce(s.size, s.bytes_per_node)
        }),
        f("tree-allreduce", |s| {
            collectives::tree_allreduce(s.size, s.bytes_per_node)
        }),
        f("all-to-all", |s| {
            collectives::all_to_all(s.size, s.bytes_per_node)
        }),
        f("parameter-server", |s| {
            collectives::parameter_server(s.size, s.bytes_per_node)
        }),
        f("incast", |s| collectives::incast(s.size, s.bytes_per_node)),
    ] {
        registry.register(factory.name().to_string(), factory);
    }
    registry
}

/// Shorthand workload names accepted by lookups, mapped to their canonical
/// registry keys (the same convention as `pnoc-traffic`'s pattern aliases:
/// only canonical names appear in the catalogue).
pub(crate) const WORKLOAD_ALIASES: [(&str, &str); 3] = [
    ("allreduce", "ring-allreduce"),
    ("shuffle", "all-to-all"),
    ("ps", "parameter-server"),
];

/// The process-global workload catalogue, seeded with the built-ins.
static WORKLOADS: LazyLock<Registry<dyn WorkloadFactory>> = LazyLock::new(builtin_workloads);

/// Registers a factory into the process-global registry under its own name,
/// replacing (and returning) any previous factory of the same name.
pub fn register_workload_factory(
    factory: Arc<dyn WorkloadFactory>,
) -> Option<Arc<dyn WorkloadFactory>> {
    WORKLOADS.register(factory.name().to_string(), factory)
}

/// Looks up a factory in the process-global registry: exact registered names
/// always win; when nothing is registered under `name`, the
/// shorthands (`allreduce`, `shuffle`, `ps`) fall back to their canonical
/// workload.
///
/// # Errors
///
/// Returns [`UnknownNameError`] — which lists every registered name and
/// suggests the nearest match — when no factory of that name is registered.
pub fn lookup_workload_factory(name: &str) -> Result<Arc<dyn WorkloadFactory>, UnknownNameError> {
    WORKLOADS.lookup(name)
}

/// Names registered in the process-global registry, sorted.
#[must_use]
pub fn registered_workloads() -> Vec<String> {
    WORKLOADS.names()
}

/// A `NAME[:SIZE]` workload reference — the spelling accepted by `repro
/// --workload` and stored in scenario specs. `SIZE` is the participant
/// count; omitted, the factory's [`WorkloadFactory::default_size`] applies.
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

    /// Resolves the reference against the process-global registry, returning
    /// the factory and the effective participant count.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNameError`] when the name is not registered.
    pub fn resolve(&self) -> Result<(Arc<dyn WorkloadFactory>, usize), UnknownNameError> {
        let factory = lookup_workload_factory(&self.name)?;
        let size = self.size.unwrap_or_else(|| factory.default_size());
        Ok((factory, size))
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
        let registry = builtin_workloads();
        for name in [
            "ring-allreduce",
            "tree-allreduce",
            "all-to-all",
            "parameter-server",
            "incast",
        ] {
            assert!(registry.get(name).is_some(), "workload '{name}' missing");
        }
        assert_eq!(registry.len(), 5);
        assert!(!registry.is_empty());
    }

    #[test]
    fn built_workloads_validate_and_scale_with_the_spec() {
        let registry = builtin_workloads();
        for name in registry.names() {
            let factory = registry.get(&name).expect("just listed");
            for size in [2usize, 5, 16] {
                let spec = WorkloadSpec {
                    size,
                    bytes_per_node: 4096,
                };
                let workload = factory.build(&spec);
                workload.validate().unwrap_or_else(|error| {
                    panic!("workload '{name}' (size {size}) invalid: {error}")
                });
                assert!(
                    workload.max_core().expect("non-empty") < size,
                    "workload '{name}' uses cores beyond its size"
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
    }

    #[test]
    fn workload_refs_parse_display_and_resolve() {
        let bare = WorkloadRef::parse("incast").unwrap();
        assert_eq!(bare.size, None);
        assert_eq!(bare.to_string(), "incast");
        let (factory, size) = bare.resolve().expect("registered");
        assert_eq!(factory.name(), "incast");
        assert_eq!(size, factory.default_size());

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

    #[test]
    fn custom_factories_register_into_the_global_registry() {
        struct Custom;

        impl WorkloadFactory for Custom {
            fn name(&self) -> &str {
                "custom-test-workload"
            }

            fn build(&self, spec: &WorkloadSpec) -> Workload {
                collectives::incast(spec.size, spec.bytes_per_node)
            }
        }

        register_workload_factory(Arc::new(Custom));
        assert!(lookup_workload_factory("custom-test-workload").is_ok());
    }
}
