//! The one name lookup: how a string name becomes a catalogue entry, an
//! alias, or a did-you-mean error.
//!
//! Traffic patterns (`pnoc-traffic`) and closed-loop workloads
//! (`pnoc-workload`) are closed catalogues: each crate keeps one `static`,
//! name-sorted table of a concrete entry type beside a table of shorthand
//! aliases, and resolves names with [`lookup`]. The architecture catalogue
//! (`pnoc-sim`) is filled at run time, because its builders live in crates
//! above the simulator, but fails with the same [`UnknownNameError`]. The
//! rules:
//!
//! * an entry's own name resolves to it, and an alias resolves to the entry
//!   of its canonical name (no alias equals a canonical name, so the two
//!   never compete),
//! * aliases are never listed, and
//! * an unknown name fails with [`UnknownNameError`]: the catalogue's kind,
//!   the offending name, every listed name, and the nearest name — or, after
//!   them, the nearest alias — when it is within typo distance (see
//!   [`crate::suggest`]).

use crate::suggest::{nearest_name, unknown_name_message};

/// Shorthand names accepted by lookups, as `(alias, canonical)` pairs.
pub type Aliases = &'static [(&'static str, &'static str)];

/// The failure of resolving a name against a catalogue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownNameError {
    /// Which catalogue the lookup ran against (`"architecture"`,
    /// `"traffic pattern"`, `"workload"`).
    pub kind: &'static str,
    /// The name that failed to resolve.
    pub name: String,
    /// Every name in the catalogue at the time of the lookup, sorted.
    pub registered: Vec<String>,
    /// The shorthands the catalogue also accepts: suggested after the
    /// registered names, never listed.
    pub aliases: Aliases,
}

impl UnknownNameError {
    /// The registered name or alias closest to the unknown one, if any is
    /// plausibly a typo of it. Registered names come first, so an alias is
    /// suggested only when it is strictly nearer.
    #[must_use]
    pub fn suggestion(&self) -> Option<&str> {
        let aliases = self.aliases.iter().map(|&(alias, _)| alias);
        nearest_name(
            &self.name,
            self.registered.iter().map(String::as_str).chain(aliases),
        )
    }
}

impl std::fmt::Display for UnknownNameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&unknown_name_message(
            self.kind,
            &self.name,
            &self.registered,
            self.suggestion(),
        ))
    }
}

impl std::error::Error for UnknownNameError {}

/// Looks `name` up in the closed catalogue `table` of `kind` things (the
/// noun error messages use), whose entries `name_of` names, in sorted order:
/// the entry of that name, or of the canonical name `aliases` maps it to.
///
/// # Errors
///
/// Returns [`UnknownNameError`] — which lists every name of `table` and
/// suggests the nearest name or alias — when neither resolves.
pub fn lookup<'t, T>(
    kind: &'static str,
    table: &'t [T],
    name_of: fn(&T) -> &str,
    aliases: Aliases,
    name: &str,
) -> Result<&'t T, UnknownNameError> {
    let canonical = aliases
        .iter()
        .find(|&&(alias, _)| alias == name)
        .map_or(name, |&(_, canonical)| canonical);
    table
        .iter()
        .find(|entry| name_of(entry) == canonical)
        .ok_or_else(|| UnknownNameError {
            kind,
            name: name.to_string(),
            registered: table
                .iter()
                .map(|entry| name_of(entry).to_string())
                .collect(),
            aliases,
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: [&str; 3] = ["tornado", "transpose", "uniform-random"];
    const ALIASES: Aliases = &[("uniform", "uniform-random")];

    fn find(name: &str) -> Result<&'static str, UnknownNameError> {
        lookup("traffic pattern", &TABLE, |entry| entry, ALIASES, name).copied()
    }

    #[test]
    fn aliases_resolve_but_are_not_listed() {
        assert_eq!(find("uniform"), Ok("uniform-random"));
        assert_eq!(find("tornado"), Ok("tornado"));
        let error = find("uniform-randon").expect_err("not in the table");
        assert_eq!(error.registered, TABLE.map(String::from));
        assert!(!error.to_string().contains("uniform,"));
    }

    #[test]
    fn unknown_names_list_the_catalogue_and_suggest_the_nearest() {
        let error = find("tornadoo").expect_err("not in the table");
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
    fn an_alias_is_suggested_only_when_strictly_nearer() {
        let error = find("unifrm").expect_err("not in the table");
        assert_eq!(error.suggestion(), Some("uniform"));
        assert!(error.to_string().ends_with(
            "registered: [tornado, transpose, uniform-random] — did you mean 'uniform'?"
        ));
        // One edit from both the name and the alias: the name wins.
        let aliases: Aliases = &[("tornadx", "tornado")];
        let error = lookup("traffic pattern", &TABLE, |entry| entry, aliases, "tornad")
            .expect_err("not in the table");
        assert_eq!(error.suggestion(), Some("tornado"));
    }

    #[test]
    fn names_beyond_typo_distance_get_no_suggestion() {
        let error = find("xyzzy-quux").expect_err("not in the table");
        assert_eq!(error.suggestion(), None);
        assert_eq!(
            error.to_string(),
            "unknown traffic pattern 'xyzzy-quux'; registered: \
             [tornado, transpose, uniform-random]"
        );
    }
}
