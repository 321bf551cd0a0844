//! Golden simulated statistics for the default seed.
//!
//! A golden file holds what the simulation *computed* — bandwidth bit
//! patterns, makespans, flit counts, cache and status counts — never
//! canonical ids, fingerprints or ETags, which roll with the version. A
//! speed-up of the simulator must leave every one of them identical.

use pnoc_store::Json;
use std::path::PathBuf;

/// One workload's simulated statistics, as `(name, exact rendering)` pairs:
/// floats as IEEE-754 bit patterns, counts in decimal.
pub type Stats = Vec<(String, String)>;

/// Renders a float as its exact bit pattern.
pub fn bits(value: f64) -> String {
    format!("{:#018x}", value.to_bits())
}

fn path_of(workload: &str) -> PathBuf {
    PathBuf::from(format!("benchmark/golden/{workload}.json"))
}

/// Loads the golden statistics of `workload`.
///
/// # Errors
///
/// Returns a message when the file is missing or not in the format
/// [`bless`] writes.
pub fn load(workload: &str) -> Result<Stats, String> {
    let path = path_of(workload);
    let text = std::fs::read_to_string(&path)
        .map_err(|error| format!("{}: {error} (run with --bless)", path.display()))?;
    let doc = Json::parse(&text).map_err(|error| format!("{}: {error:?}", path.display()))?;
    match doc.get("stats") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, value)| {
                value
                    .as_str()
                    .map(|v| (name.clone(), v.to_string()))
                    .ok_or_else(|| format!("{}: '{name}' is not a string", path.display()))
            })
            .collect(),
        _ => Err(format!("{}: no 'stats' object", path.display())),
    }
}

/// Writes `stats` as the new golden file of `workload`.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn bless(workload: &str, seed: u64, stats: &Stats) -> std::io::Result<()> {
    let doc = Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::str(format!("{seed:#x}"))),
        (
            "stats",
            Json::Obj(
                stats
                    .iter()
                    .map(|(name, value)| (name.clone(), Json::str(value.clone())))
                    .collect(),
            ),
        ),
    ]);
    let path = path_of(workload);
    std::fs::create_dir_all(path.parent().expect("golden files live in a directory"))?;
    std::fs::write(path, doc.render() + "\n")
}

/// Compares measured statistics against the golden ones. Returns the number
/// of comparisons made and a description of each one that failed; a name
/// present on one side only is a failed comparison.
pub fn compare(golden: &Stats, measured: &Stats) -> (u64, Vec<String>) {
    let mut mismatches = Vec::new();
    for (name, expected) in golden {
        match measured.iter().find(|(n, _)| n == name) {
            Some((_, got)) if got == expected => {}
            Some((_, got)) => mismatches.push(format!("{name}: golden {expected}, got {got}")),
            None => mismatches.push(format!("{name}: in the golden file, not measured")),
        }
    }
    let extra = measured
        .iter()
        .filter(|(name, _)| !golden.iter().any(|(n, _)| n == name));
    let mut attempted = golden.len() as u64;
    for (name, _) in extra {
        attempted += 1;
        mismatches.push(format!("{name}: measured, not in the golden file"));
    }
    (attempted, mismatches)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(pairs: &[(&str, &str)]) -> Stats {
        pairs
            .iter()
            .map(|(n, v)| (n.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn compare_counts_every_name_on_either_side() {
        let golden = stats(&[("a", "1"), ("b", "2"), ("c", "3")]);
        assert_eq!(compare(&golden, &golden), (3, vec![]));
        let measured = stats(&[("a", "1"), ("b", "9"), ("d", "4")]);
        let (attempted, mismatches) = compare(&golden, &measured);
        assert_eq!(attempted, 4);
        assert_eq!(mismatches.len(), 3);
    }

    #[test]
    fn floats_render_as_exact_bit_patterns() {
        assert_eq!(bits(1.0), "0x3ff0000000000000");
        assert_ne!(bits(0.1 + 0.2), bits(0.3));
    }
}
