//! Entry files an earlier build wrote, committed byte for byte under
//! `tests/fixtures/`, still hit, and the decoded point re-encodes to exactly
//! the `point` bytes the file holds: the entry format is frozen, whatever
//! reads it.
//!
//! * `open_loop_ladder_point.json`: an open-loop ladder point, with metric
//!   families and a latency histogram;
//! * `closed_loop_collective_point.json`: a closed-loop collective point;
//! * `earlier_layout_point.json`: the open-loop entry in the layout builds
//!   before 0.13 wrote, a `stats` header naming the architecture, traffic and
//!   load and an `atime_epoch_seconds` stamp in the sidecar. It decodes to
//!   the same point as the open-loop entry.

use pnoc_store::{content_hash, point_json, Json, ResultStore};
use std::fs;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|error| panic!("{}: {error}", path.display()))
}

/// The bytes of the entry's `point` value as [`Json::render`] writes a
/// top-level document: the entry's last field, one indent level shallower.
fn point_bytes(entry: &str) -> String {
    let (_, point) = entry
        .split_once("\n  \"point\": ")
        .expect("an entry holds a point");
    point
        .strip_suffix("\n}\n")
        .expect("the point is the entry's last field")
        .replace("\n  ", "\n")
}

/// Loads `entry` through a store of its own, as `repro --cache-dir` would.
fn load(tag: &str, entry: &str) -> pnoc_sim::sweep::SweepPoint {
    let key = Json::parse(entry)
        .expect("fixtures are JSON")
        .get("key")
        .and_then(Json::as_str)
        .expect("fixtures carry their key")
        .to_string();
    let root: PathBuf =
        std::env::temp_dir().join(format!("pnoc-store-fixture-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("entries")).unwrap();
    fs::write(
        root.join("entries")
            .join(format!("{}.json", content_hash(&key))),
        entry,
    )
    .unwrap();
    let store = ResultStore::open(&root).unwrap();
    let point = store.load(&key).expect("a fixture entry hits");
    assert_eq!(store.stats().hits, 1);
    let _ = fs::remove_dir_all(&root);
    point
}

#[test]
fn committed_entries_hit_and_re_encode_to_their_point_bytes() {
    for name in [
        "open_loop_ladder_point.json",
        "closed_loop_collective_point.json",
    ] {
        let entry = fixture(name);
        let point = load(name, &entry);
        assert_eq!(point_json(&point).render(), point_bytes(&entry), "{name}");
    }
}

#[test]
fn an_earlier_layout_entry_decodes_to_the_point_without_its_header() {
    let entry = fixture("earlier_layout_point.json");
    assert!(entry.contains("\"atime_epoch_seconds\""));
    assert!(entry.contains("\"architecture\": \"d-hetpnoc\""));
    let point = load("earlier", &entry);
    let current = fixture("open_loop_ladder_point.json");
    assert_eq!(point_json(&point).render(), point_bytes(&current));
    assert_ne!(point_bytes(&entry), point_bytes(&current));
}
