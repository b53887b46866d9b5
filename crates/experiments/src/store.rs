//! Content-addressed, versioned storage of sweep results.
//!
//! Each measured experiment point persists as one small JSON file at
//! `<root>/store/v1/<hash>.json`, where `<hash>` is the FNV-1a 64-bit
//! digest of the point's canonical configuration key (see
//! [`crate::sweep::SweepJob::cache_key`]). The key covers every parameter
//! that affects the simulation — workload, memory timing, fetch geometry,
//! prefetch policy — so two configurations share a file only if they
//! simulate identically, and resuming a sweep is a per-point file
//! existence check. Bumping the layout or key format means a new `v2/`
//! directory; old stores are simply ignored, never migrated in place.
//!
//! Entries persist every statistic the JSON report surface exposes (see
//! [`crate::json::stats_json`]): cycles, instructions, loads/stores/FPU
//! ops, branch counts, the full stall breakdown, and the fetch-engine
//! counters. A point loaded from the store therefore reconstructs
//! [`SimStats`] bit-identical to the original run on that surface.
//! Queue-occupancy and memory-system counters other than port
//! contention are not persisted and read back as zero. Entries written
//! before the extended format (headline fields only) still load, with
//! the extra fields zeroed.
//!
//! The JSON is hand-rolled via [`crate::json`] (flat object,
//! integer/string values, the standard string escapes) because the
//! workspace deliberately has no external dependencies.

use std::error::Error;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pipe_core::SimStats;
use pipe_icache::FetchStats;

use crate::json::{escape, field_str, field_u64};
use crate::runner::ExperimentPoint;

/// Store layout version; bump when the entry format or key scheme
/// changes.
pub const STORE_VERSION: u32 = 1;

/// How old a `.tmp.` file must be before [`ResultStore::prune`] treats
/// it as an interrupted-write leftover rather than an in-progress save.
/// Saves hold their temp file for microseconds, so a generous grace
/// period costs nothing: a genuinely orphaned temp file is collected by
/// the next prune after the grace elapses.
pub const TMP_GRACE: Duration = Duration::from_secs(60);

/// Whether a temp file is younger than [`TMP_GRACE`] (by mtime). A file
/// that vanished reads as not-fresh (the removal path skips NotFound);
/// an unreadable or future mtime reads as fresh, erring toward not
/// deleting a live writer's file.
fn tmp_is_fresh(path: &Path) -> bool {
    match std::fs::metadata(path) {
        Ok(meta) => match meta.modified().ok().and_then(|m| m.elapsed().ok()) {
            Some(age) => age < TMP_GRACE,
            None => true,
        },
        Err(e) if e.kind() == io::ErrorKind::NotFound => false,
        Err(_) => true,
    }
}

/// A typed result-store failure. Only conditions that indicate the store
/// holds *wrong* data (rather than merely missing or unreadable data) are
/// surfaced this way; corrupt, truncated, or version-mismatched entries
/// simply read as absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The entry file for this key's hash records a *different* key — an
    /// FNV collision or a stale entry written under an old key format.
    /// Callers should treat the point as absent (recompute it) and warn,
    /// never trust the entry.
    KeyMismatch {
        /// The key the caller asked for.
        requested: String,
        /// The key recorded inside the entry file.
        found: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::KeyMismatch { requested, found } => write!(
                f,
                "result store key mismatch (hash collision or stale entry): \
                 requested {requested:?}, entry records {found:?}"
            ),
        }
    }
}

impl Error for StoreError {}

/// FNV-1a 64-bit hash of `key` — stable across runs and platforms.
pub fn fnv1a64(key: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One persisted experiment point.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPoint {
    /// The canonical configuration key the entry was stored under.
    pub key: String,
    /// Strategy label ("16-16", "conventional", ...).
    pub strategy: String,
    /// Cache size in bytes.
    pub cache_bytes: u32,
    /// Wall-clock milliseconds the original simulation took.
    pub wall_ms: u64,
    /// The persisted statistics: every field of the JSON report surface
    /// is round-tripped exactly; queue-occupancy and memory-system
    /// counters other than port contention are zero.
    pub stats: SimStats,
}

/// The subset of `stats` the store persists: the JSON report surface
/// (see [`crate::json::stats_json`]), with queue and other memory
/// counters dropped so a freshly loaded entry compares equal to a
/// re-saved one.
fn persisted_stats(stats: &SimStats) -> SimStats {
    let mut kept = SimStats {
        cycles: stats.cycles,
        instructions_issued: stats.instructions_issued,
        loads: stats.loads,
        stores: stats.stores,
        fpu_ops: stats.fpu_ops,
        branches_taken: stats.branches_taken,
        branches_not_taken: stats.branches_not_taken,
        stalls: stats.stalls.clone(),
        ..SimStats::default()
    };
    kept.fetch = FetchStats {
        demand_requests: stats.fetch.demand_requests,
        prefetch_requests: stats.fetch.prefetch_requests,
        bytes_requested: stats.fetch.bytes_requested,
        cache_hits: stats.fetch.cache_hits,
        cache_misses: stats.fetch.cache_misses,
        redirects: stats.fetch.redirects,
        wasted_requests: stats.fetch.wasted_requests,
        ..FetchStats::default()
    };
    kept.mem.contended_cycles = stats.mem.contended_cycles;
    kept
}

impl StoredPoint {
    /// Captures the persisted subset of a measured point.
    pub fn from_point(key: &str, strategy: &str, point: &ExperimentPoint, wall_ms: u64) -> Self {
        StoredPoint {
            key: key.to_string(),
            strategy: strategy.to_string(),
            cache_bytes: point.cache_bytes,
            wall_ms,
            stats: persisted_stats(&point.stats),
        }
    }

    /// Reconstructs an [`ExperimentPoint`] carrying the persisted
    /// statistics (queue and memory counters zeroed — see the module
    /// docs).
    pub fn to_point(&self) -> ExperimentPoint {
        ExperimentPoint {
            cache_bytes: self.cache_bytes,
            cycles: self.stats.cycles,
            stats: self.stats.clone(),
        }
    }

    fn to_json(&self) -> String {
        let s = &self.stats;
        format!(
            concat!(
                "{{\"version\":{},\"key\":\"{}\",\"strategy\":\"{}\",",
                "\"cache_bytes\":{},\"cycles\":{},\"instructions\":{},",
                "\"ifetch_stalls\":{},\"bytes_requested\":{},",
                "\"cache_hits\":{},\"cache_misses\":{},\"wall_ms\":{},",
                "\"loads\":{},\"stores\":{},\"fpu_ops\":{},",
                "\"branches_taken\":{},\"branches_not_taken\":{},",
                "\"data_wait_stalls\":{},\"queue_full_stalls\":{},\"branch_stalls\":{},",
                "\"demand_requests\":{},\"prefetch_requests\":{},",
                "\"redirects\":{},\"wasted_requests\":{},",
                "\"contended_cycles\":{}}}\n"
            ),
            STORE_VERSION,
            escape(&self.key),
            escape(&self.strategy),
            self.cache_bytes,
            s.cycles,
            s.instructions_issued,
            s.stalls.ifetch,
            s.fetch.bytes_requested,
            s.fetch.cache_hits,
            s.fetch.cache_misses,
            self.wall_ms,
            s.loads,
            s.stores,
            s.fpu_ops,
            s.branches_taken,
            s.branches_not_taken,
            s.stalls.data_wait,
            s.stalls.queue_full,
            s.stalls.branch,
            s.fetch.demand_requests,
            s.fetch.prefetch_requests,
            s.fetch.redirects,
            s.fetch.wasted_requests,
            s.mem.contended_cycles,
        )
    }

    fn from_json(text: &str) -> Option<StoredPoint> {
        // A complete entry ends with the closing brace; anything else is
        // a truncated write and must read as absent even if every
        // required field happens to survive the truncation.
        if !text.trim_end().ends_with('}') {
            return None;
        }
        if field_u64(text, "version")? != u64::from(STORE_VERSION) {
            return None;
        }
        // The original v1 fields are required; the extended statistics
        // are optional so entries written before the extension still
        // load (their extra fields read as zero).
        let opt = |field: &str| field_u64(text, field).unwrap_or(0);
        let mut stats = SimStats {
            cycles: field_u64(text, "cycles")?,
            instructions_issued: field_u64(text, "instructions")?,
            loads: opt("loads"),
            stores: opt("stores"),
            fpu_ops: opt("fpu_ops"),
            branches_taken: opt("branches_taken"),
            branches_not_taken: opt("branches_not_taken"),
            ..SimStats::default()
        };
        stats.stalls.ifetch = field_u64(text, "ifetch_stalls")?;
        stats.stalls.data_wait = opt("data_wait_stalls");
        stats.stalls.queue_full = opt("queue_full_stalls");
        stats.stalls.branch = opt("branch_stalls");
        stats.fetch.bytes_requested = field_u64(text, "bytes_requested")?;
        stats.fetch.cache_hits = field_u64(text, "cache_hits")?;
        stats.fetch.cache_misses = field_u64(text, "cache_misses")?;
        stats.fetch.demand_requests = opt("demand_requests");
        stats.fetch.prefetch_requests = opt("prefetch_requests");
        stats.fetch.redirects = opt("redirects");
        stats.fetch.wasted_requests = opt("wasted_requests");
        stats.mem.contended_cycles = opt("contended_cycles");
        Some(StoredPoint {
            key: field_str(text, "key")?,
            strategy: field_str(text, "strategy")?,
            cache_bytes: u32::try_from(field_u64(text, "cache_bytes")?).ok()?,
            wall_ms: field_u64(text, "wall_ms")?,
            stats,
        })
    }
}

/// A directory of persisted experiment points, keyed by configuration
/// content hash.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) the versioned store under `root` — the
    /// entries live at `<root>/store/v<N>/`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the directory cannot be
    /// created.
    pub fn open(root: &Path) -> io::Result<ResultStore> {
        let dir = root.join("store").join(format!("v{STORE_VERSION}"));
        std::fs::create_dir_all(&dir)?;
        Ok(ResultStore { dir })
    }

    /// The directory entries are stored in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{:016x}.json", fnv1a64(key)))
    }

    /// Whether a point for `key` has already been computed.
    pub fn contains(&self, key: &str) -> bool {
        self.path_for(key).is_file()
    }

    /// Loads the point stored under `key`, if any. A missing, corrupt,
    /// truncated, or version-mismatched entry reads as `Ok(None)` (the
    /// point is simply recomputed). An entry whose *recorded key* differs
    /// from the requested one — a hash collision or a stale entry from an
    /// old key format — is [`StoreError::KeyMismatch`]: the caller should
    /// warn and recompute, never use the entry.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::KeyMismatch`] as above.
    pub fn load(&self, key: &str) -> Result<Option<StoredPoint>, StoreError> {
        let Ok(text) = std::fs::read_to_string(self.path_for(key)) else {
            return Ok(None);
        };
        let Some(entry) = StoredPoint::from_json(&text) else {
            return Ok(None);
        };
        if entry.key != key {
            return Err(StoreError::KeyMismatch {
                requested: key.to_string(),
                found: entry.key,
            });
        }
        Ok(Some(entry))
    }

    /// Persists `entry` under its key, atomically (write to a temp file in
    /// the same directory, then rename), so a killed sweep never leaves a
    /// truncated entry behind. The temp name is unique per process and
    /// call, so concurrent writers — worker threads or separate processes
    /// sharing a store — never interleave on the same temp file; last
    /// rename wins with both entries valid.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn save(&self, entry: &StoredPoint) -> io::Result<()> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.path_for(&entry.key);
        let tmp = self.dir.join(format!(
            "{:016x}.tmp.{}.{}",
            fnv1a64(&entry.key),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&tmp, entry.to_json())?;
        std::fs::rename(&tmp, &path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Number of entries currently stored.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Whether the store has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Deletes every entry that current code could never load: entries
    /// recording a different format version, entries that fail to parse,
    /// entries whose file name no longer matches the FNV hash of their
    /// recorded key (a stale key format), and leftover `.tmp` files from
    /// interrupted writes. Valid entries are untouched.
    ///
    /// Safe to run while writers are active: temp files younger than
    /// [`TMP_GRACE`] belong to in-progress [`save`](ResultStore::save)
    /// calls and are skipped (counted in
    /// [`PruneReport::skipped_active`]), and a file that vanishes between
    /// the directory listing and its removal — because a concurrent save
    /// renamed a temp file into place, or another prune got there first —
    /// is simply skipped, never an error.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the store directory cannot be
    /// listed or a stale file cannot be removed.
    pub fn prune(&self) -> io::Result<PruneReport> {
        self.prune_impl(false)
    }

    /// Like [`prune`](ResultStore::prune), but deletes nothing: the
    /// returned [`PruneReport`] describes what a real prune *would*
    /// remove, and the store is left byte-identical.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the store directory cannot be
    /// listed or an entry cannot be read.
    pub fn prune_dry_run(&self) -> io::Result<PruneReport> {
        self.prune_impl(true)
    }

    fn prune_impl(&self, dry_run: bool) -> io::Result<PruneReport> {
        let mut report = PruneReport::default();
        // Removes `path`, reporting whether a file was actually deleted.
        // "Already gone" is a skip, not an error: a concurrent save
        // renames its temp file away, and a concurrent prune may win the
        // race to any stale file.
        let remove = |path: &Path| -> io::Result<bool> {
            if dry_run {
                return Ok(true);
            }
            match std::fs::remove_file(path) {
                Ok(()) => Ok(true),
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
                Err(e) => Err(e),
            }
        };
        for dirent in std::fs::read_dir(&self.dir)? {
            let path = dirent?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.contains(".tmp.") {
                // A fresh temp file belongs to an in-progress save;
                // deleting it would break that writer's rename. Only
                // temp files older than the grace period are leftovers.
                if tmp_is_fresh(&path) {
                    report.skipped_active += 1;
                } else if remove(&path)? {
                    report.removed_tmp += 1;
                }
                continue;
            }
            if path.extension().is_none_or(|x| x != "json") {
                continue;
            }
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(_) => {
                    if remove(&path)? {
                        report.removed_corrupt += 1;
                    }
                    continue;
                }
            };
            match StoredPoint::from_json(&text) {
                None => {
                    let version_mismatch =
                        field_u64(&text, "version").is_some_and(|v| v != u64::from(STORE_VERSION));
                    if remove(&path)? {
                        if version_mismatch {
                            report.removed_version += 1;
                        } else {
                            report.removed_corrupt += 1;
                        }
                    }
                }
                Some(entry) => {
                    if name == format!("{:016x}.json", fnv1a64(&entry.key)) {
                        report.kept += 1;
                    } else if remove(&path)? {
                        report.removed_hash += 1;
                    }
                }
            }
        }
        Ok(report)
    }
}

/// What [`ResultStore::prune`] removed and kept (or, for
/// [`ResultStore::prune_dry_run`], would remove and keep).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneReport {
    /// Valid entries left in place.
    pub kept: usize,
    /// Entries recording a different format version.
    pub removed_version: usize,
    /// Entries that failed to parse (corrupt or truncated).
    pub removed_corrupt: usize,
    /// Entries whose file name no longer matches their key's hash.
    pub removed_hash: usize,
    /// Leftover temp files from interrupted writes.
    pub removed_tmp: usize,
    /// Temp files younger than [`TMP_GRACE`], left alone because they
    /// belong to an in-progress save.
    pub skipped_active: usize,
}

impl PruneReport {
    /// Total files removed.
    pub fn removed(&self) -> usize {
        self.removed_version + self.removed_corrupt + self.removed_hash + self.removed_tmp
    }
}

impl fmt::Display for PruneReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kept {} entr{}; removed {} ({} version-mismatched, {} corrupt, \
             {} hash-mismatched, {} temp file{})",
            self.kept,
            if self.kept == 1 { "y" } else { "ies" },
            self.removed(),
            self.removed_version,
            self.removed_corrupt,
            self.removed_hash,
            self.removed_tmp,
            if self.removed_tmp == 1 { "" } else { "s" },
        )?;
        if self.skipped_active > 0 {
            write!(
                f,
                "; skipped {} in-progress temp file{}",
                self.skipped_active,
                if self.skipped_active == 1 { "" } else { "s" },
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(key: &str) -> StoredPoint {
        let mut stats = SimStats {
            cycles: 123_456,
            instructions_issued: 1000,
            loads: 120,
            stores: 60,
            fpu_ops: 14,
            branches_taken: 200,
            branches_not_taken: 40,
            ..SimStats::default()
        };
        stats.stalls.ifetch = 17;
        stats.stalls.data_wait = 5;
        stats.stalls.queue_full = 2;
        stats.stalls.branch = 9;
        stats.fetch.demand_requests = 300;
        stats.fetch.prefetch_requests = 80;
        stats.fetch.bytes_requested = 2048;
        stats.fetch.cache_hits = 900;
        stats.fetch.cache_misses = 100;
        stats.fetch.redirects = 12;
        stats.fetch.wasted_requests = 3;
        StoredPoint {
            key: key.to_string(),
            strategy: "16-16".to_string(),
            cache_bytes: 64,
            wall_ms: 42,
            stats,
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn json_round_trips() {
        let entry = sample("v1|fetch=pipe:size=64");
        let parsed = StoredPoint::from_json(&entry.to_json()).unwrap();
        assert_eq!(parsed, entry);
    }

    #[test]
    fn report_surface_round_trips_bit_identical() {
        // The JSON report surface (what `pipe-sim --json` emits) must
        // survive a store round trip exactly.
        let entry = sample("v1|report-surface");
        let parsed = StoredPoint::from_json(&entry.to_json()).unwrap();
        assert_eq!(
            crate::json::stats_json(&parsed.stats),
            crate::json::stats_json(&entry.stats)
        );
    }

    #[test]
    fn legacy_headline_entries_still_load() {
        // An entry written before the extended format: only the original
        // v1 fields. It must load, with the extra statistics zeroed.
        let text = concat!(
            "{\"version\":1,\"key\":\"v1|old\",\"strategy\":\"8-8\",",
            "\"cache_bytes\":32,\"cycles\":777,\"instructions\":100,",
            "\"ifetch_stalls\":7,\"bytes_requested\":512,",
            "\"cache_hits\":90,\"cache_misses\":10,\"wall_ms\":3}"
        );
        let entry = StoredPoint::from_json(text).unwrap();
        assert_eq!(entry.key, "v1|old");
        assert_eq!(entry.stats.cycles, 777);
        assert_eq!(entry.stats.stalls.ifetch, 7);
        assert_eq!(entry.stats.loads, 0);
        assert_eq!(entry.stats.fetch.demand_requests, 0);
        assert_eq!(entry.to_point().cycles, 777);
    }

    #[test]
    fn version_mismatch_reads_as_absent() {
        let text = sample("k")
            .to_json()
            .replace("\"version\":1", "\"version\":999");
        assert!(StoredPoint::from_json(&text).is_none());
    }

    #[test]
    fn store_save_load_contains() {
        let dir = std::env::temp_dir().join(format!("pipe-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.is_empty());
        let entry = sample("v1|fetch=conventional:size=32");
        assert!(!store.contains(&entry.key));
        store.save(&entry).unwrap();
        assert!(store.contains(&entry.key));
        assert_eq!(store.load(&entry.key).unwrap().unwrap(), entry);
        assert_eq!(store.len(), 1);
        // Overwrites are idempotent.
        store.save(&entry).unwrap();
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strings_with_quotes_and_backslashes_round_trip() {
        let mut entry = sample("v1|wl=\"weird\\path\"|fetch=x");
        entry.strategy = "16-16 \"q\" \\ tab\there\nnl".to_string();
        let parsed = StoredPoint::from_json(&entry.to_json()).unwrap();
        assert_eq!(parsed, entry);
    }

    #[test]
    fn corrupt_and_truncated_entries_read_as_absent() {
        let dir = std::env::temp_dir().join(format!("pipe-store-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let entry = sample("v1|corrupt-test");
        store.save(&entry).unwrap();
        let path = store
            .dir()
            .join(format!("{:016x}.json", fnv1a64(&entry.key)));

        // Truncated mid-file.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(store.load(&entry.key), Ok(None));

        // Arbitrary garbage.
        std::fs::write(&path, "not json at all").unwrap();
        assert_eq!(store.load(&entry.key), Ok(None));

        // Version mismatch.
        std::fs::write(&path, full.replace("\"version\":1", "\"version\":999")).unwrap();
        assert_eq!(store.load(&entry.key), Ok(None));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_mismatch_is_typed_error_not_panic() {
        let dir = std::env::temp_dir().join(format!("pipe-store-collide-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let entry = sample("v1|the-real-key");
        store.save(&entry).unwrap();
        // Simulate a hash collision: copy the entry file to the hash slot
        // of a different key.
        let other = "v1|a-colliding-key";
        std::fs::copy(
            store
                .dir()
                .join(format!("{:016x}.json", fnv1a64(&entry.key))),
            store.dir().join(format!("{:016x}.json", fnv1a64(other))),
        )
        .unwrap();
        match store.load(other) {
            Err(StoreError::KeyMismatch { requested, found }) => {
                assert_eq!(requested, other);
                assert_eq!(found, entry.key);
            }
            other => panic!("expected KeyMismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_saves_of_same_key_both_succeed() {
        let dir = std::env::temp_dir().join(format!("pipe-store-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let entry = sample("v1|contended-key");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        store.save(&entry).expect("concurrent save");
                    }
                });
            }
        });
        // Every writer succeeded and the surviving entry is valid.
        assert_eq!(store.load(&entry.key).unwrap().unwrap(), entry);
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_mixed_load_save_same_key_never_tears() {
        // Worker threads read a key while others write it. Every load
        // must observe either "absent" or a complete, valid entry —
        // never a torn or erroring read — and once a reader has seen
        // the entry, it stays visible.
        let dir = std::env::temp_dir().join(format!("pipe-store-rw-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let entry = sample("v1|rw-contended-key");
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        store.save(&entry).expect("concurrent save");
                    }
                });
            }
            for _ in 0..3 {
                scope.spawn(|| {
                    let mut seen = false;
                    for _ in 0..200 {
                        match store.load(&entry.key) {
                            Ok(Some(loaded)) => {
                                assert_eq!(loaded, entry, "complete entry, never torn");
                                seen = true;
                            }
                            Ok(None) => {
                                assert!(!seen, "entry vanished after becoming visible");
                            }
                            Err(e) => panic!("load under contention errored: {e}"),
                        }
                        std::hint::spin_loop();
                    }
                });
            }
        });
        assert_eq!(store.load(&entry.key).unwrap().unwrap(), entry);
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Backdates a file's mtime past [`TMP_GRACE`], so prune sees it as
    /// an interrupted-write leftover instead of an in-progress save.
    fn age_past_grace(path: &Path) {
        let earlier = std::time::SystemTime::now() - 2 * TMP_GRACE;
        std::fs::File::options()
            .write(true)
            .open(path)
            .unwrap()
            .set_modified(earlier)
            .unwrap();
    }

    /// Byte-for-byte snapshot of every file in the store directory.
    fn dir_snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let p = e.unwrap().path();
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn prune_dry_run_reports_without_deleting() {
        let dir = std::env::temp_dir().join(format!("pipe-store-dryrun-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        store.save(&sample("v1|keep-me")).unwrap();
        std::fs::write(store.dir().join("00000000deadbeef.json"), "{garbage").unwrap();
        let tmp = store.dir().join("0000000000000000.tmp.1.2");
        std::fs::write(&tmp, "partial").unwrap();
        age_past_grace(&tmp);

        let before = dir_snapshot(store.dir());
        let dry = store.prune_dry_run().unwrap();
        assert_eq!(
            dry,
            PruneReport {
                kept: 1,
                removed_version: 0,
                removed_corrupt: 1,
                removed_hash: 0,
                removed_tmp: 1,
                skipped_active: 0,
            }
        );
        // Dry run left the store byte-identical.
        assert_eq!(dir_snapshot(store.dir()), before);

        // A real prune removes exactly what the dry run predicted.
        let real = store.prune().unwrap();
        assert_eq!(real, dry);
        assert_ne!(dir_snapshot(store.dir()), before);
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_removes_only_unloadable_entries() {
        let dir = std::env::temp_dir().join(format!("pipe-store-prune-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();

        // Two valid entries that must survive.
        let keep_a = sample("v1|keep-a");
        let keep_b = sample("v1|keep-b");
        store.save(&keep_a).unwrap();
        store.save(&keep_b).unwrap();

        // A version-mismatched entry (filed under its correct hash).
        let old = sample("v1|old-version");
        let old_json = old.to_json().replace("\"version\":1", "\"version\":999");
        std::fs::write(
            store.dir().join(format!("{:016x}.json", fnv1a64(&old.key))),
            old_json,
        )
        .unwrap();

        // A corrupt entry, an entry filed under the wrong hash, and a
        // stale (aged past the grace period) temp file.
        std::fs::write(store.dir().join("00000000deadbeef.json"), "{garbage").unwrap();
        std::fs::write(
            store.dir().join("0123456789abcdef.json"),
            sample("v1|misplaced").to_json(),
        )
        .unwrap();
        let tmp = store.dir().join("0000000000000000.tmp.1.2");
        std::fs::write(&tmp, "partial").unwrap();
        age_past_grace(&tmp);

        let report = store.prune().unwrap();
        assert_eq!(
            report,
            PruneReport {
                kept: 2,
                removed_version: 1,
                removed_corrupt: 1,
                removed_hash: 1,
                removed_tmp: 1,
                skipped_active: 0,
            }
        );
        assert_eq!(report.removed(), 4);
        assert_eq!(store.load(&keep_a.key).unwrap().unwrap(), keep_a);
        assert_eq!(store.load(&keep_b.key).unwrap().unwrap(), keep_b);
        assert_eq!(store.len(), 2);

        // A second prune is a no-op.
        let again = store.prune().unwrap();
        assert_eq!(again.kept, 2);
        assert_eq!(again.removed(), 0);
        assert!(store.prune().unwrap().to_string().contains("kept 2"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_skips_fresh_tmp_files_of_inflight_saves() {
        let dir = std::env::temp_dir().join(format!("pipe-store-fresh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        store.save(&sample("v1|keep")).unwrap();
        // A temp file with a current mtime models a save between its
        // write and its rename: prune must leave it alone.
        let tmp = store.dir().join("00000000cafef00d.tmp.9.9");
        std::fs::write(&tmp, "in flight").unwrap();

        let report = store.prune().unwrap();
        assert_eq!(report.kept, 1);
        assert_eq!(report.removed(), 0);
        assert_eq!(report.skipped_active, 1);
        assert!(tmp.is_file(), "fresh temp file survives prune");
        assert!(report
            .to_string()
            .contains("skipped 1 in-progress temp file"));

        // Once aged past the grace period it is a leftover and goes.
        age_past_grace(&tmp);
        let report = store.prune().unwrap();
        assert_eq!(report.removed_tmp, 1);
        assert_eq!(report.skipped_active, 0);
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prune_tolerates_files_vanishing_mid_scan() {
        // A file listed by read_dir but gone by the time prune reaches
        // it (another prune won the race, or a save renamed its temp
        // away) must be skipped, not surfaced as an I/O error.
        let dir = std::env::temp_dir().join(format!("pipe-store-vanish-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        store.save(&sample("v1|stable")).unwrap();

        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            // Writers keep creating short-lived temp files and new keys
            // while prunes run concurrently.
            for w in 0..2 {
                let (store, stop) = (&store, &stop);
                scope.spawn(move || {
                    let mut i = 0u32;
                    while !stop.load(Ordering::Relaxed) {
                        store
                            .save(&sample(&format!("v1|churn-{w}-{i}")))
                            .expect("save during concurrent prune");
                        i += 1;
                    }
                });
            }
            for _ in 0..2 {
                let store = &store;
                scope.spawn(move || {
                    for _ in 0..50 {
                        store.prune().expect("prune during concurrent saves");
                    }
                });
            }
            std::thread::sleep(Duration::from_millis(100));
            stop.store(true, Ordering::Relaxed);
        });

        // Nothing valid was lost: every surviving entry still loads, and
        // the stable key written before the churn is intact.
        assert_eq!(
            store.load("v1|stable").unwrap().unwrap(),
            sample("v1|stable")
        );
        let report = store.prune().unwrap();
        assert_eq!(report.removed(), 0, "prune never removed a valid entry");
        assert_eq!(report.kept, store.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stored_point_reconstructs_stats() {
        let p = sample("k").to_point();
        assert_eq!(p.cycles, 123_456);
        assert_eq!(p.cache_bytes, 64);
        assert_eq!(p.stats.instructions_issued, 1000);
        assert_eq!(p.stats.stalls.ifetch, 17);
        assert_eq!(p.stats.fetch.bytes_requested, 2048);
        assert_eq!(p.stats.loads, 120);
        assert_eq!(p.stats.fetch.wasted_requests, 3);
    }
}
