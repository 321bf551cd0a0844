//! Name-suggestion helpers for the catalogues.
//!
//! Architectures (`pnoc-sim`), traffic patterns (`pnoc-traffic`) and
//! workloads (`pnoc-workload`) resolve entries by string name through
//! [`crate::registry`]. When a name is unknown, a bare "not found" is
//! hostile: the caller typed `d-hetpnok` and has no idea what the catalogue
//! actually contains. This module provides the pieces of a friendly failure
//! — an edit-distance metric and a "did you mean" picker over the names a
//! catalogue accepts — which the registry's error and the parameter /
//! fault-kind catalogues share.

/// Levenshtein edit distance between two strings (unit costs), computed over
/// Unicode scalar values with a two-row dynamic program.
#[must_use]
pub(crate) fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut previous: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substitution = previous[j] + usize::from(ca != cb);
            current[j + 1] = substitution
                .min(previous[j + 1] + 1) // deletion
                .min(current[j] + 1); // insertion
        }
        std::mem::swap(&mut previous, &mut current);
    }
    previous[b.len()]
}

/// Picks the candidate closest to `target` by edit distance, if any candidate
/// is close enough to plausibly be a typo (distance ≤ max(target.len()/2, 2)).
/// Ties resolve to the earliest candidate, so passing a sorted catalogue gives
/// deterministic suggestions.
#[must_use]
pub fn nearest_name<'a, I>(target: &str, candidates: I) -> Option<&'a str>
where
    I: IntoIterator<Item = &'a str>,
{
    let threshold = (target.chars().count() / 2).max(2);
    let mut best: Option<(usize, &str)> = None;
    for candidate in candidates {
        let distance = edit_distance(target, candidate);
        if distance <= threshold && best.map(|(d, _)| distance < d).unwrap_or(true) {
            best = Some((distance, candidate));
        }
    }
    best.map(|(_, name)| name)
}

/// Renders the standard unknown-name message used by every catalogue:
/// the offending name, the sorted catalogue, and a "did you mean" hint when
/// there is a `suggestion`.
#[must_use]
pub(crate) fn unknown_name_message(
    kind: &str,
    name: &str,
    registered: &[String],
    suggestion: Option<&str>,
) -> String {
    let mut message = format!(
        "unknown {kind} '{name}'; registered: [{}]",
        registered.join(", ")
    );
    if let Some(suggestion) = suggestion {
        message.push_str(&format!(" — did you mean '{suggestion}'?"));
    }
    message
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("tornado", "tornado"), 0);
        assert_eq!(edit_distance("tornado", "tornados"), 1);
    }

    #[test]
    fn nearest_name_finds_typos_and_rejects_nonsense() {
        let names = ["firefly", "d-hetpnoc", "uniform-fabric"];
        assert_eq!(nearest_name("d-hetpnok", names), Some("d-hetpnoc"));
        assert_eq!(nearest_name("firefly2", names), Some("firefly"));
        assert_eq!(nearest_name("warp-drive", names), None);
    }

    #[test]
    fn ties_resolve_to_the_earliest_candidate() {
        // "skewed-0" is distance 1 from every entry; sorted input makes the
        // suggestion deterministic.
        let names = ["skewed-1", "skewed-2", "skewed-3"];
        assert_eq!(nearest_name("skewed-0", names), Some("skewed-1"));
    }

    #[test]
    fn unknown_name_message_lists_and_suggests() {
        let registered = vec!["tornado".to_string(), "transpose".to_string()];
        let message =
            unknown_name_message("traffic pattern", "tornadoo", &registered, Some("tornado"));
        assert_eq!(
            message,
            "unknown traffic pattern 'tornadoo'; registered: [tornado, transpose] \
             — did you mean 'tornado'?"
        );
        let message = unknown_name_message("traffic pattern", "xyzzy-quux", &registered, None);
        assert!(!message.contains("did you mean"));
    }
}
