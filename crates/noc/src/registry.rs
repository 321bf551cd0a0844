//! The one name registry: how a string name becomes an entry, an alias, or a
//! did-you-mean error.
//!
//! Architectures (`pnoc-sim`), traffic patterns (`pnoc-traffic`) and
//! closed-loop workloads (`pnoc-workload`) are all open-ended catalogues
//! resolved by name. Each crate keeps one `static` [`Registry`] of its own
//! factory trait, seeded with its built-ins and its alias table; the lookup,
//! alias and error semantics live here, once:
//!
//! * registering under a taken name replaces the entry and hands the previous
//!   one back,
//! * an exact registered name always wins; only when nothing is registered
//!   under a name does the alias table redirect it to its canonical name,
//! * aliases never appear in [`Registry::names`], and
//! * an unknown name fails with [`UnknownNameError`]: the catalogue's kind,
//!   the offending name, every registered name, and the nearest one when it is
//!   within typo distance (see [`crate::suggest`]).

use crate::suggest::{nearest_name, unknown_name_message};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Shorthand names accepted by lookups, as `(alias, canonical)` pairs.
pub(crate) type AliasTable = &'static [(&'static str, &'static str)];

/// Resolves a shorthand to its canonical name through an alias table
/// (identity for names that are not shorthands).
#[must_use]
pub(crate) fn canonical_name<'a>(aliases: &[(&'a str, &'a str)], name: &'a str) -> &'a str {
    aliases
        .iter()
        .find(|(alias, _)| *alias == name)
        .map_or(name, |(_, canonical)| canonical)
}

/// The failure of resolving a name against a [`Registry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownNameError {
    /// Which catalogue the lookup ran against (`"architecture"`,
    /// `"traffic pattern"`, `"workload"`).
    pub kind: &'static str,
    /// The name that failed to resolve.
    pub name: String,
    /// Every name registered at the time of the lookup, sorted.
    pub registered: Vec<String>,
}

impl UnknownNameError {
    /// The registered name closest to the unknown one, if any is plausibly a
    /// typo of it.
    #[must_use]
    pub fn suggestion(&self) -> Option<&str> {
        nearest_name(&self.name, self.registered.iter().map(String::as_str))
    }
}

impl std::fmt::Display for UnknownNameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&unknown_name_message(
            self.kind,
            &self.name,
            &self.registered,
        ))
    }
}

impl std::error::Error for UnknownNameError {}

/// A name-keyed, thread-safe catalogue of shared entries (typically
/// `Registry<dyn SomeFactory>`).
pub struct Registry<T: ?Sized> {
    kind: &'static str,
    aliases: AliasTable,
    entries: Mutex<BTreeMap<String, Arc<T>>>,
}

impl<T: ?Sized> Registry<T> {
    /// Creates an empty registry of `kind` things (the noun error messages
    /// use) whose lookups fall back through `aliases`.
    #[must_use]
    pub const fn new(kind: &'static str, aliases: AliasTable) -> Self {
        Self {
            kind,
            aliases,
            entries: Mutex::new(BTreeMap::new()),
        }
    }

    fn entries(&self) -> MutexGuard<'_, BTreeMap<String, Arc<T>>> {
        // No code path panics while holding the lock, and every map operation
        // leaves the catalogue valid, so poisoning cannot be observed.
        self.entries.lock().expect("registry lock poisoned")
    }

    /// Registers `entry` under `name`, replacing (and returning) any previous
    /// entry of the same name.
    pub fn register(&self, name: impl Into<String>, entry: Arc<T>) -> Option<Arc<T>> {
        self.entries().insert(name.into(), entry)
    }

    /// Looks an entry up by name: the exact name first, then its alias.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<T>> {
        self.lookup(name).ok()
    }

    /// Looks an entry up by name: the exact name first, then its alias.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownNameError`] — which lists every registered name and
    /// suggests the nearest match — when neither resolves.
    pub fn lookup(&self, name: &str) -> Result<Arc<T>, UnknownNameError> {
        let entries = self.entries();
        entries
            .get(name)
            .or_else(|| entries.get(canonical_name(self.aliases, name)))
            .cloned()
            .ok_or_else(|| UnknownNameError {
                kind: self.kind,
                name: name.to_string(),
                registered: entries.keys().cloned().collect(),
            })
    }

    /// All registered names, sorted. Aliases are not listed.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.entries().keys().cloned().collect()
    }

    /// Number of registered entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }
}

impl<T: ?Sized> std::fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("kind", &self.kind)
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALIASES: AliasTable = &[("uniform", "uniform-random")];

    fn catalogue() -> Registry<str> {
        let registry = Registry::new("traffic pattern", ALIASES);
        for name in ["tornado", "transpose", "uniform-random"] {
            assert!(registry.register(name, Arc::from(name)).is_none());
        }
        registry
    }

    #[test]
    fn registering_a_taken_name_replaces_and_returns_the_previous_entry() {
        let registry: Registry<str> = Registry::new("thing", &[]);
        assert!(registry.is_empty());
        assert!(registry.register("a", Arc::from("first")).is_none());
        assert_eq!(registry.len(), 1);
        let previous = registry.register("a", Arc::from("second"));
        assert_eq!(previous.as_deref(), Some("first"));
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.get("a").as_deref(), Some("second"));
        assert!(registry.get("missing").is_none());
    }

    #[test]
    fn aliases_resolve_but_are_not_listed() {
        let registry = catalogue();
        assert_eq!(canonical_name(ALIASES, "uniform"), "uniform-random");
        assert_eq!(canonical_name(ALIASES, "tornado"), "tornado");
        assert_eq!(registry.get("uniform").as_deref(), Some("uniform-random"));
        assert_eq!(
            registry.names(),
            ["tornado", "transpose", "uniform-random"].map(String::from)
        );
        assert!(format!("{registry:?}").contains("traffic pattern"));
    }

    #[test]
    fn an_exact_registration_beats_the_alias() {
        let registry = catalogue();
        registry.register("uniform", Arc::from("exact"));
        assert_eq!(registry.get("uniform").as_deref(), Some("exact"));
    }

    #[test]
    fn unknown_names_list_the_catalogue_and_suggest_the_nearest() {
        let error = catalogue().lookup("tornadoo").expect_err("not registered");
        assert_eq!(error.kind, "traffic pattern");
        assert_eq!(error.name, "tornadoo");
        assert_eq!(error.registered.len(), 3);
        assert_eq!(error.suggestion(), Some("tornado"));
        assert_eq!(
            error.to_string(),
            "unknown traffic pattern 'tornadoo'; registered: \
             [tornado, transpose, uniform-random] — did you mean 'tornado'?"
        );
    }

    #[test]
    fn names_beyond_typo_distance_get_no_suggestion() {
        let error = catalogue()
            .lookup("xyzzy-quux")
            .expect_err("not registered");
        assert_eq!(error.suggestion(), None);
        assert_eq!(
            error.to_string(),
            "unknown traffic pattern 'xyzzy-quux'; registered: \
             [tornado, transpose, uniform-random]"
        );
    }
}
