//! A directory in the shape earlier builds left behind — root `index.json`
//! and `index.lock`, an access stamp in each entry's sidecar, a `stats`
//! object that still names its architecture, traffic and offered load —
//! still opens, hits and compacts clean.

use pnoc_sim::clock::Clock;
use pnoc_sim::metrics::MetricReport;
use pnoc_sim::stats::SimStats;
use pnoc_sim::sweep::SweepPoint;
use pnoc_store::store::ENTRY_FORMAT;
use pnoc_store::{content_hash, point_json, Json, ResultStore};
use std::fs;
use std::path::Path;

/// Writes `point` under `key` as an earlier build's entry file.
fn write_entry(entries: &Path, key: &str, point: Json) {
    let entry = Json::obj(vec![
        ("format", Json::str(ENTRY_FORMAT)),
        ("key", Json::str(key)),
        (
            "sidecar",
            Json::obj(vec![
                ("wall_clock_seconds", Json::Num(0.1)),
                ("atime_epoch_seconds", Json::Num(1_700_000_000.5)),
            ]),
        ),
        ("point", point),
    ]);
    fs::write(
        entries.join(format!("{}.json", content_hash(key))),
        entry.render() + "\n",
    )
    .unwrap();
}

/// `point`'s document with the header earlier builds wrote at the head of
/// its `stats` object.
fn with_stats_header(point: &SweepPoint) -> Json {
    let mut doc = point_json(point);
    let Json::Obj(fields) = &mut doc else {
        panic!("point documents are objects");
    };
    let Some((_, Json::Obj(stats))) = fields.iter_mut().find(|(key, _)| key == "stats") else {
        panic!("stats is an object");
    };
    let header = [
        ("architecture", Json::str("firefly")),
        ("traffic", Json::str("tornado")),
        (
            "offered_load",
            Json::str(format!("{:016x}", 0.25f64.to_bits())),
        ),
    ];
    for (index, (key, value)) in header.into_iter().enumerate() {
        stats.insert(index, (key.to_string(), value));
    }
    doc
}

#[test]
fn a_directory_left_by_an_earlier_build_still_hits_and_compacts_clean() {
    let root = std::env::temp_dir().join(format!("pnoc-store-earlier-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let mut stats = SimStats::new(Clock::paper_default());
    stats.measured_cycles = 1_000;
    stats.delivered_packets = 7;
    let point = SweepPoint {
        offered_load: 0.25,
        stats,
        metrics: MetricReport::new(),
    };
    let entries = root.join("entries");
    fs::create_dir_all(&entries).unwrap();
    write_entry(&entries, "key-a", point_json(&point));
    write_entry(&entries, "key-headed", with_stats_header(&point));
    // Nothing reads the index, so its contents are beside the point.
    fs::write(root.join("index.json"), "{\"entry_count\": 1}\n").unwrap();
    fs::write(root.join("index.lock"), "4242").unwrap();

    let store = ResultStore::open(&root).unwrap();
    assert_eq!(store.load("key-a"), Some(point.clone()));
    // The header is read past: the entry decodes to the header-less point.
    assert_eq!(store.load("key-headed"), Some(point.clone()));

    let report = store.compact().unwrap();
    assert_eq!((report.live_entries, report.removed_files), (2, 2));
    let left: Vec<_> = fs::read_dir(&root)
        .unwrap()
        .map(|file| file.unwrap().file_name())
        .collect();
    assert_eq!(left, ["entries"]);
    assert_eq!(store.entry_count(), 2);
    assert_eq!(store.load("key-headed"), Some(point));
    let _ = fs::remove_dir_all(&root);
}
