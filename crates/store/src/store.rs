#![doc = include_str!("store.md")]

use crate::codec::{self, CodecError};
use crate::json::{self, Cursor, FieldReader, Json};
use pnoc_sim::scenario::PointCache;
use pnoc_sim::sweep::SweepPoint;
use std::borrow::Cow;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Format tag of one cache entry document.
pub const ENTRY_FORMAT: &str = "d-hetpnoc-store/v1";

/// The 16-hex-digit FNV-1a content address of a cache key. Entry files are
/// named by this hash; the full key text is stored *inside* each entry and
/// re-verified on load, so a (vanishingly unlikely) hash collision degrades
/// to a cache miss instead of serving the wrong point.
#[must_use]
pub fn content_hash(key: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Counters of one store's lifetime (since `open`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups that decoded a valid entry.
    pub hits: u64,
    /// Lookups that found nothing usable (absent, corrupt, or key mismatch).
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
}

/// A content-addressed on-disk store of simulated sweep points.
///
/// The only state, on disk or in memory, is `entries/<hash>.json` under the
/// root directory: one file per cache key, named by [`content_hash`],
/// holding the format tag, the full key text, a `sidecar` object (wall-clock
/// timing, **excluded** from the cached payload) and the losslessly encoded
/// point. An entry's modification time is its last use (written by
/// [`ResultStore::save`], refreshed by every [`ResultStore::load`] hit).
///
/// All writes are atomic (temp file in the same directory + rename), and all
/// reads are corruption-tolerant: a truncated, tampered or alien file is a
/// logged **miss**, never a crash. See `store.md` for the key scheme and the
/// invalidation story.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    entries_dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
}

impl ResultStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        let entries_dir = root.join("entries");
        fs::create_dir_all(&entries_dir)?;
        Ok(Self {
            root,
            entries_dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Every file under `entries/` with its metadata — the one directory
    /// walk behind the counts, eviction and compaction. [`is_entry`] tells
    /// entry files from whatever else landed there.
    fn files(&self) -> io::Result<impl Iterator<Item = (PathBuf, fs::Metadata)>> {
        Ok(fs::read_dir(&self.entries_dir)?
            .filter_map(Result::ok)
            .filter_map(|file| Some((file.path(), file.metadata().ok()?))))
    }

    /// Number of entry files currently on disk.
    #[must_use]
    pub fn entry_count(&self) -> usize {
        self.files()
            .map_or(0, |files| files.filter(is_entry).count())
    }

    /// This store's lifetime hit/miss/write counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.entries_dir.join(format!("{}.json", content_hash(key)))
    }

    /// Loads the point stored under `key`, or `None` on a miss. Every
    /// failure mode — absent file, unreadable file, malformed JSON, wrong
    /// format tag, key mismatch (hash collision or tampering), codec
    /// rejection — is a miss; the non-trivial ones log a warning to stderr.
    ///
    /// A hit sets the entry file's modification time to now, which is what
    /// the LRU eviction of [`ResultStore::evict_to_budget`] orders by; the
    /// entry's bytes are not rewritten.
    #[must_use]
    pub fn load(&self, key: &str) -> Option<SweepPoint> {
        let path = self.entry_path(key);
        let decoded = match fs::read_to_string(&path) {
            Ok(text) => decode_entry(&text, key),
            Err(error) if error.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(error) => Err(format!("unreadable: {error}")),
        };
        match decoded {
            Ok(point) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Best effort: a stale mtime (entry evicted under us,
                // read-only store) costs eviction accuracy, never
                // correctness.
                let _ = fs::File::options()
                    .write(true)
                    .open(&path)
                    .and_then(|file| file.set_modified(SystemTime::now()));
                Some(point)
            }
            Err(reason) => {
                eprintln!(
                    "[pnoc-store] warning: ignoring cache entry {}: {reason}",
                    path.display()
                );
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `point` under `key`, atomically (temp file + rename).
    /// `wall_clock_seconds` goes into the entry's sidecar object only — the
    /// `point` payload stays byte-identical no matter how long the
    /// simulation took.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (the entry is either fully written or absent;
    /// a failed write never leaves a partial entry under its final name).
    pub fn save(&self, key: &str, point: &SweepPoint, wall_clock_seconds: f64) -> io::Result<()> {
        let document = Json::obj(vec![
            ("format", Json::str(ENTRY_FORMAT)),
            ("key", Json::str(key)),
            (
                "sidecar",
                Json::obj(vec![("wall_clock_seconds", Json::Num(wall_clock_seconds))]),
            ),
            ("point", codec::point_json(point)),
        ]);
        write_atomically(&self.entry_path(key), &(document.render() + "\n"))?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Total size in bytes of all entry files currently on disk.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.files().map_or(0, |files| {
            files.filter(is_entry).map(|(_, meta)| meta.len()).sum()
        })
    }

    /// Evicts least-recently-used entries until the total entry bytes fit
    /// within `max_bytes`. Recency is the entry file's modification time
    /// (see [`ResultStore::load`]) at the filesystem's resolution; a file
    /// whose time cannot be read sorts oldest, and ties break on the entry
    /// hash so the eviction order is deterministic. No entry is opened.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures other than concurrent deletion of a
    /// candidate (a racing evictor did our work for us).
    pub fn evict_to_budget(&self, max_bytes: u64) -> io::Result<EvictionReport> {
        // Oldest first; entries share one directory, so ordering equal
        // times by path orders them by hash.
        let mut candidates: Vec<(SystemTime, PathBuf, u64)> = self
            .files()?
            .filter(is_entry)
            .map(|(path, meta)| {
                let used = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                (used, path, meta.len())
            })
            .collect();
        candidates.sort();
        let bytes_before: u64 = candidates.iter().map(|(_, _, len)| len).sum();
        let mut bytes_after = bytes_before;
        let mut evicted = 0usize;
        for (_, path, len) in &candidates {
            if bytes_after <= max_bytes {
                break;
            }
            remove_if_present(path)?;
            bytes_after -= len;
            evicted += 1;
        }
        Ok(EvictionReport {
            scanned: candidates.len(),
            evicted,
            bytes_before,
            bytes_after,
        })
    }

    /// Compacts the store: removes leftover temp files from interrupted
    /// atomic writes, alien or corrupt entry files whose stored key does not
    /// hash to their file name, and the two root files (`index.json`,
    /// `index.lock`) that earlier builds of the store kept next to
    /// `entries/` and nothing reads.
    ///
    /// # Errors
    ///
    /// Propagates directory-scan and deletion failures.
    pub fn compact(&self) -> io::Result<CompactionReport> {
        let mut report = CompactionReport::default();
        for leftover in ["index.json", "index.lock"] {
            if remove_if_present(&self.root.join(leftover))? {
                report.removed_files += 1;
            }
        }
        for file in self.files()? {
            if is_entry(&file) && stored_key_matches_name(&file.0) {
                report.live_entries += 1;
            } else {
                fs::remove_file(&file.0)?;
                report.removed_files += 1;
            }
        }
        Ok(report)
    }
}

/// Outcome of one [`ResultStore::evict_to_budget`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EvictionReport {
    /// Entry files considered.
    pub scanned: usize,
    /// Entry files deleted (least recently used first).
    pub evicted: usize,
    /// Total entry bytes before eviction.
    pub bytes_before: u64,
    /// Total entry bytes after eviction (≤ the budget unless the store was
    /// already empty of candidates).
    pub bytes_after: u64,
}

/// Outcome of one [`ResultStore::compact`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Entry files whose stored key hashes to their file name.
    pub live_entries: usize,
    /// Temp, alien, corrupt or obsolete files removed from the store.
    pub removed_files: usize,
}

impl PointCache for ResultStore {
    fn lookup(&self, key: &str) -> Option<SweepPoint> {
        self.load(key)
    }

    fn store(&self, key: &str, point: &SweepPoint, wall_clock_seconds: f64) {
        // The cache is an accelerator: a failed write costs a future
        // re-simulation, so warn and carry on instead of failing the run.
        if let Err(error) = self.save(key, point, wall_clock_seconds) {
            eprintln!("[pnoc-store] warning: failed to store cache entry for '{key}': {error}");
        }
    }
}

/// Whether a file under `entries/` is named like an entry (`*.json`);
/// anything else there is a temp file of an interrupted write.
fn is_entry((path, _): &(PathBuf, fs::Metadata)) -> bool {
    path.extension().is_some_and(|ext| ext == "json")
}

/// Whether the entry file at `path` is well formed and stores a key that
/// hashes to its file name.
fn stored_key_matches_name(path: &Path) -> bool {
    let Ok(text) = fs::read_to_string(path) else {
        return false;
    };
    let Ok(entry) = read_entry(&text, |_| Ok(())) else {
        return false;
    };
    let stem = path.file_stem().and_then(|stem| stem.to_str());
    entry
        .key
        .flatten()
        .is_some_and(|key| Some(content_hash(&key).as_str()) == stem)
}

/// Removes `path`; `Ok(false)` if it was already gone.
fn remove_if_present(path: &Path) -> io::Result<bool> {
    match fs::remove_file(path) {
        Ok(()) => Ok(true),
        Err(error) if error.kind() == io::ErrorKind::NotFound => Ok(false),
        Err(error) => Err(error),
    }
}

/// Writes `text` to `path` atomically: a temp file next to the target (same
/// filesystem, so the rename cannot cross devices) is written fully, then
/// renamed over the target. The temp name carries the process id and a
/// process-wide sequence number, so neither two processes nor two threads
/// of one process saving the same key ever share a temp file.
fn write_atomically(path: &Path, text: &str) -> io::Result<()> {
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    let file_name = path
        .file_name()
        .and_then(|name| name.to_str())
        .unwrap_or("entry");
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp{}.{}",
        std::process::id(),
        SEQUENCE.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, text)?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(error) => {
            let _ = fs::remove_file(&tmp);
            Err(error)
        }
    }
}

/// The envelope of an entry file: the first occurrence of each field the
/// store reads, as a lookup by name in the parsed document would find it.
/// `format` and `key` are `Some(None)` when present but not strings.
struct Entry<'a, P> {
    format: Option<Option<Cow<'a, str>>>,
    key: Option<Option<Cow<'a, str>>>,
    point: Option<P>,
}

/// Reads an entry file's envelope in one pass over `text`, handing the
/// cursor on the first `point` value to `point`. Everything else — the
/// sidecar, unknown keys, duplicates, and the point when `point` leaves it
/// unread — is read past, so the text must still be one well-formed JSON
/// document.
fn read_entry<'a, P>(
    text: &'a str,
    mut point: impl FnMut(&mut Cursor<'a>) -> Result<P, CodecError>,
) -> Result<Entry<'a, P>, CodecError> {
    json::read_document(text, |document| {
        let mut entry = Entry {
            format: None,
            key: None,
            point: None,
        };
        codec::fields(document, |name, value| {
            match name {
                "format" if entry.format.is_none() => entry.format = Some(value.str()?),
                "key" if entry.key.is_none() => entry.key = Some(value.str()?),
                "point" if entry.point.is_none() => entry.point = Some(point(value)?),
                _ => {}
            }
            Ok(())
        })?;
        Ok(entry)
    })
}

fn decode_entry(text: &str, expected_key: &str) -> Result<SweepPoint, String> {
    let entry = read_entry(text, codec::read_point).map_err(|error| error.to_string())?;
    match entry.format.flatten().as_deref() {
        Some(ENTRY_FORMAT) => {}
        Some(other) => return Err(format!("unsupported entry format '{other}'")),
        None => return Err("entry has no 'format' tag".to_string()),
    }
    match entry.key.flatten() {
        Some(stored) if stored == expected_key => {}
        Some(stored) => {
            return Err(format!(
                "key mismatch (hash collision or tampering): stored '{stored}', \
                 requested '{expected_key}'"
            ));
        }
        None => return Err("entry has no 'key' field".to_string()),
    }
    entry
        .point
        .ok_or_else(|| "entry has no 'point' payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnoc_sim::clock::Clock;
    use pnoc_sim::stats::SimStats;
    use std::time::Duration;

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("pnoc-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    fn sample_point() -> SweepPoint {
        let mut stats = SimStats::new(Clock::paper_default());
        stats.measured_cycles = 600;
        stats.delivered_packets = 1;
        stats.total_packet_latency = 42;
        stats.max_packet_latency = 42;
        SweepPoint {
            offered_load: 0.25,
            stats,
            metrics: pnoc_sim::metrics::MetricReport::new(),
        }
    }

    #[test]
    fn save_load_round_trip_and_counters() {
        let root = temp_root("roundtrip");
        let store = ResultStore::open(&root).unwrap();
        let point = sample_point();
        assert!(store.load("key-a").is_none(), "empty store misses");
        store.save("key-a", &point, 1.5).unwrap();
        assert_eq!(store.load("key-a"), Some(point));
        assert_eq!(store.entry_count(), 1);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.writes), (1, 1, 1));
        let reopened = ResultStore::open(&root).unwrap();
        assert_eq!(reopened.entry_count(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn wall_clock_lives_in_the_sidecar_not_the_payload() {
        let root = temp_root("sidecar");
        let store = ResultStore::open(&root).unwrap();
        let point = sample_point();
        store.save("key-a", &point, 1.25).unwrap();
        let fast = fs::read_to_string(store.entry_path("key-a")).unwrap();
        store.save("key-a", &point, 99.75).unwrap();
        let slow = fs::read_to_string(store.entry_path("key-a")).unwrap();
        assert_ne!(fast, slow, "sidecar timing differs");
        let payload = |text: &str| Json::parse(text).unwrap().get("point").unwrap().render();
        assert_eq!(
            payload(&fast),
            payload(&slow),
            "the cached point payload must not depend on timing"
        );
        let _ = fs::remove_dir_all(&root);
    }

    /// Independent store instances sharing one root (the shape of parallel
    /// server requests populating one `--cache-dir`, or of several
    /// processes) share nothing but the entries directory, so none can lose
    /// another's entries.
    #[test]
    fn concurrent_instances_do_not_lose_entries() {
        let root = temp_root("concurrent-instances");
        let point = sample_point();
        let keys: Vec<String> = (0..48).map(|n| format!("key-{n}")).collect();
        std::thread::scope(|scope| {
            // 8 lanes × 6 keys, one store instance per lane.
            for lane in keys.chunks(6) {
                let (root, point) = (&root, &point);
                scope.spawn(move || {
                    let store = ResultStore::open(root).unwrap();
                    for key in lane {
                        store.save(key, point, 0.01).unwrap();
                    }
                });
            }
        });
        let reopened = ResultStore::open(&root).unwrap();
        assert_eq!(reopened.entry_count(), keys.len());
        for key in &keys {
            assert_eq!(reopened.load(key).as_ref(), Some(&point), "{key}");
        }
        let _ = fs::remove_dir_all(&root);
    }

    /// Threads of one process saving the *same* key (two concurrent cold
    /// `POST /run` of one spec) must each write their own temp file: a
    /// shared one is truncated under the first writer, whose rename then
    /// publishes a torn entry while the second's fails `NotFound`.
    #[test]
    fn concurrent_same_key_saves_never_fail_or_tear() {
        let root = temp_root("same-key");
        let store = ResultStore::open(&root).unwrap();
        let point = sample_point();
        let lanes = 4usize;
        let start = std::sync::Barrier::new(lanes);
        std::thread::scope(|scope| {
            for _ in 0..lanes {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        store.save("key-a", &point, 0.01).unwrap();
                        assert_eq!(store.load("key-a").as_ref(), Some(&point));
                    }
                });
            }
        });
        let left: Vec<PathBuf> = store.files().unwrap().map(|(path, _)| path).collect();
        assert_eq!(left, [store.entry_path("key-a")], "no temp file is left");
        let _ = fs::remove_dir_all(&root);
    }

    /// Pins an entry's modification time to `seconds` past the epoch so
    /// eviction order is under test control instead of wall-clock
    /// resolution.
    fn pin_mtime(store: &ResultStore, key: &str, seconds: u64) {
        fs::File::options()
            .write(true)
            .open(store.entry_path(key))
            .unwrap()
            .set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(seconds))
            .unwrap();
    }

    #[test]
    fn load_refreshes_the_entry_mtime() {
        let root = temp_root("touch");
        let store = ResultStore::open(&root).unwrap();
        store.save("key-a", &sample_point(), 0.1).unwrap();
        pin_mtime(&store, "key-a", 5);
        assert!(store.load("key-a").is_some());
        let refreshed = fs::metadata(store.entry_path("key-a")).unwrap();
        assert!(
            refreshed.modified().unwrap() > SystemTime::UNIX_EPOCH + Duration::from_secs(5),
            "a cache hit must refresh the LRU access time"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn a_hit_writes_nothing_into_the_entry() {
        let root = temp_root("hit");
        let store = ResultStore::open(&root).unwrap();
        store.save("key-a", &sample_point(), 0.1).unwrap();
        let path = store.entry_path("key-a");
        let (bytes, saved) = (fs::read(&path).unwrap(), fs::metadata(&path).unwrap());
        assert!(store.load("key-a").is_some());
        let hit = fs::metadata(&path).unwrap();
        assert!(fs::read(&path).unwrap() == bytes, "a hit must not rewrite");
        #[cfg(unix)]
        assert_eq!(
            std::os::unix::fs::MetadataExt::ino(&hit),
            std::os::unix::fs::MetadataExt::ino(&saved),
            "a hit must not replace the file"
        );
        assert!(hit.modified().unwrap() >= saved.modified().unwrap());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn eviction_is_lru_by_mtime_and_survives_reload() {
        let root = temp_root("evict");
        let store = ResultStore::open(&root).unwrap();
        let point = sample_point();
        for key in ["key-a", "key-b", "key-c"] {
            store.save(key, &point, 0.1).unwrap();
        }
        // key-b is the coldest, key-c the hottest.
        pin_mtime(&store, "key-a", 20);
        pin_mtime(&store, "key-b", 10);
        pin_mtime(&store, "key-c", 30);
        let entry_bytes = fs::metadata(store.entry_path("key-c")).unwrap().len();
        // Budget for exactly one entry: the two coldest must go.
        let report = store.evict_to_budget(entry_bytes).unwrap();
        assert_eq!((report.scanned, report.evicted), (3, 2));
        assert!(report.bytes_after <= entry_bytes);
        assert!(report.bytes_before > report.bytes_after);
        assert!(store.load("key-b").is_none(), "coldest entry evicted");
        assert!(store.load("key-a").is_none(), "second-coldest evicted");
        assert_eq!(store.entry_count(), 1);
        // A reopened store sees only the survivor.
        let reopened = ResultStore::open(&root).unwrap();
        assert_eq!(reopened.entry_count(), 1);
        assert_eq!(
            reopened.load("key-c"),
            Some(point),
            "hottest entry survives"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn eviction_to_zero_budget_clears_the_store() {
        let root = temp_root("evict-all");
        let store = ResultStore::open(&root).unwrap();
        store.save("key-a", &sample_point(), 0.1).unwrap();
        let report = store.evict_to_budget(0).unwrap();
        assert_eq!(report.evicted, 1);
        assert_eq!(report.bytes_after, 0);
        assert_eq!(store.entry_count(), 0);
        assert_eq!(store.total_bytes(), 0);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn compaction_removes_stray_files_and_survives_reopen() {
        let root = temp_root("compact");
        let store = ResultStore::open(&root).unwrap();
        let point = sample_point();
        store.save("key-a", &point, 0.1).unwrap();
        store.save("key-b", &point, 0.1).unwrap();
        // Delete one entry behind the store's back.
        fs::remove_file(store.entry_path("key-b")).unwrap();
        // And litter the entries dir with an interrupted-write temp file.
        fs::write(root.join("entries").join(".stray.json.tmp123"), "junk").unwrap();
        let report = store.compact().unwrap();
        assert_eq!(report.live_entries, 1);
        assert_eq!(report.removed_files, 1);
        let reopened = ResultStore::open(&root).unwrap();
        assert_eq!(reopened.entry_count(), 1);
        assert_eq!(reopened.load("key-a"), Some(point));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn compaction_removes_corrupt_and_alien_entry_files() {
        let root = temp_root("compact-corrupt");
        let store = ResultStore::open(&root).unwrap();
        store.save("key-a", &sample_point(), 0.1).unwrap();
        // A corrupt entry and a forged one (key text hashes elsewhere).
        fs::write(store.entry_path("key-corrupt"), "{ not json").unwrap();
        let forged = fs::read_to_string(store.entry_path("key-a")).unwrap();
        fs::write(store.entry_path("key-forged"), forged).unwrap();
        let report = store.compact().unwrap();
        assert_eq!(report.live_entries, 1);
        assert_eq!(report.removed_files, 2);
        assert_eq!(store.entry_count(), 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let root = temp_root("mismatch");
        let store = ResultStore::open(&root).unwrap();
        let point = sample_point();
        store.save("key-a", &point, 0.1).unwrap();
        // Forge a colliding file: copy key-a's entry under key-b's hash.
        let text = fs::read_to_string(store.entry_path("key-a")).unwrap();
        fs::write(store.entry_path("key-b"), text).unwrap();
        assert!(store.load("key-b").is_none(), "stored key text must match");
        let _ = fs::remove_dir_all(&root);
    }
}
