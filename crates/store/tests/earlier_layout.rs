//! A directory in the shape earlier builds left behind — root `index.json`
//! and `index.lock`, an access stamp in each entry's sidecar — still opens,
//! hits and compacts clean.

use pnoc_sim::clock::Clock;
use pnoc_sim::metrics::MetricReport;
use pnoc_sim::stats::SimStats;
use pnoc_sim::sweep::SweepPoint;
use pnoc_store::store::ENTRY_FORMAT;
use pnoc_store::{content_hash, point_json, Json, ResultStore};
use std::fs;

#[test]
fn a_directory_left_by_an_earlier_build_still_hits_and_compacts_clean() {
    let root = std::env::temp_dir().join(format!("pnoc-store-earlier-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let point = SweepPoint {
        offered_load: 0.25,
        stats: SimStats::new("firefly", "tornado", 0.25, Clock::paper_default()),
        metrics: MetricReport::new(),
    };
    let key = "key-a";
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
        ("point", point_json(&point)),
    ]);
    let entries = root.join("entries");
    fs::create_dir_all(&entries).unwrap();
    fs::write(
        entries.join(format!("{}.json", content_hash(key))),
        entry.render() + "\n",
    )
    .unwrap();
    // Nothing reads the index, so its contents are beside the point.
    fs::write(root.join("index.json"), "{\"entry_count\": 1}\n").unwrap();
    fs::write(root.join("index.lock"), "4242").unwrap();

    let store = ResultStore::open(&root).unwrap();
    assert_eq!(store.load(key), Some(point));

    let report = store.compact().unwrap();
    assert_eq!((report.live_entries, report.removed_files), (1, 2));
    let left: Vec<_> = fs::read_dir(&root)
        .unwrap()
        .map(|file| file.unwrap().file_name())
        .collect();
    assert_eq!(left, ["entries"]);
    assert_eq!(store.entry_count(), 1);
    let _ = fs::remove_dir_all(&root);
}
