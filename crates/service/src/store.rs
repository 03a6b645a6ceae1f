//! Content-addressed report store.
//!
//! Reports are keyed by the submitted plan's [content digest] — the SHA-256
//! of its canonical JSON. Because a campaign report is a pure function of
//! its plan (the engine's determinism guarantee), a digest hit can be
//! served *byte-identically* with zero recompute: no schedule compilation,
//! no trials, not even re-serialization (the stored JSON string itself is
//! shared out behind an `Arc`).
//!
//! With a persistence directory ([`ReportStore::persistent`]) the store
//! gains a durable tier: every insert also lands on disk as
//! `<digest>.json` (temp-file write + atomic rename; content is a 64-hex
//! SHA-256 header line followed by the report bytes), and a memory miss
//! falls through to disk, where the header is re-verified against a fresh
//! hash of the body before the bytes are trusted. A file that fails
//! verification — bit rot, a torn write that somehow survived the rename
//! discipline, or deliberate corruption — is deleted and counted, and the
//! lookup misses: determinism means the recomputed report is
//! byte-identical anyway. Memory capacity bounds only the RAM tier; the
//! disk tier keeps everything.
//!
//! [content digest]: nvpim_sweep::SweepPlan::content_digest

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use nvpim_sweep::digest::{sha256, to_hex};
use nvpim_telemetry::{Counter, Telemetry};

/// Default report-count cap used by [`ReportStore::new`].
pub const DEFAULT_REPORT_CAPACITY: usize = 1024;

/// In-memory content-addressed store of finished report JSON documents,
/// bounded to `capacity` reports: beyond the cap the oldest-inserted
/// report is evicted (reports dominate daemon memory — job records are
/// bounded separately by `ServiceConfig::max_tracked_jobs`). An evicted
/// plan simply recomputes on resubmission; determinism guarantees the
/// recomputed bytes are identical.
///
/// Lookups count hits and misses (and discarded corrupt entries) into the
/// telemetry sink attached with [`ReportStore::with_telemetry`].
#[derive(Debug)]
pub struct ReportStore {
    entries: HashMap<String, Arc<String>>,
    /// Digests in insertion order, for FIFO eviction.
    order: VecDeque<String>,
    capacity: usize,
    /// Durable tier directory; `None` keeps the store purely in memory.
    dir: Option<PathBuf>,
    telemetry: Telemetry,
}

impl Default for ReportStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ReportStore {
    /// An empty store with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_REPORT_CAPACITY)
    }

    /// An empty store evicting beyond `capacity` reports.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            entries: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            dir: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Records this store's lookups into `telemetry`.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// A store with the default capacity backed by a durable on-disk tier
    /// under `dir` (created if absent). Memory capacity bounds only the RAM
    /// tier; inserts also land on disk and memory misses fall through to
    /// disk.
    pub fn persistent(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut store = Self::new();
        store.dir = Some(dir);
        Ok(store)
    }

    /// The durable tier directory, when persistence is enabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Looks up the report for a plan digest, counting a hit or miss.
    /// On a memory miss a persistent store consults the disk tier,
    /// integrity-verifying the file before trusting (and re-caching) it.
    pub fn get(&mut self, digest: &str) -> Option<Arc<String>> {
        if let Some(report) = self.entries.get(digest) {
            self.telemetry.add(Counter::ReportCacheHits, 1);
            return Some(Arc::clone(report));
        }
        if let Some(report) = self.load_from_disk(digest) {
            self.telemetry.add(Counter::ReportCacheHits, 1);
            let report = Arc::new(report);
            self.cache_in_memory(digest.to_string(), Arc::clone(&report));
            return Some(report);
        }
        self.telemetry.add(Counter::ReportCacheMisses, 1);
        None
    }

    /// Stores a finished report under its plan digest, evicting the
    /// oldest-inserted report when the memory tier is at capacity and
    /// writing through to the disk tier when one is configured.
    ///
    /// Determinism makes double-insertion benign (both writers hold the
    /// same bytes), so last-write-wins needs no further coordination.
    pub fn insert(&mut self, digest: String, report: Arc<String>) {
        if let Err(err) = self.write_to_disk(&digest, &report) {
            // Degrade to memory-only for this entry: the journal's `done`
            // record is written after this, so on replay the job simply
            // resumes/recomputes.
            eprintln!("nvpim-serviced: report store write for {digest} failed: {err}");
        }
        self.cache_in_memory(digest, report);
    }

    fn cache_in_memory(&mut self, digest: String, report: Arc<String>) {
        if self.entries.insert(digest.clone(), report).is_none() {
            self.order.push_back(digest);
            while self.entries.len() > self.capacity {
                if let Some(oldest) = self.order.pop_front() {
                    self.entries.remove(&oldest);
                } else {
                    break;
                }
            }
        }
    }

    /// Durable-tier file for a digest: `<digest>.json`.
    fn disk_path(&self, digest: &str) -> Option<PathBuf> {
        // Reject digests that are not plain lowercase hex so a hostile
        // digest string can never traverse outside the store directory.
        if digest.is_empty() || !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        self.dir
            .as_ref()
            .map(|dir| dir.join(format!("{digest}.json")))
    }

    /// Writes `<sha256-of-body>\n<body>` to a temp file, fsyncs, and
    /// atomically renames it into place.
    fn write_to_disk(&self, digest: &str, report: &str) -> io::Result<()> {
        let Some(path) = self.disk_path(digest) else {
            return Ok(());
        };
        let tmp = path.with_extension("json.tmp");
        let mut file = fs::File::create(&tmp)?;
        file.write_all(to_hex(&sha256(report.as_bytes())).as_bytes())?;
        file.write_all(b"\n")?;
        file.write_all(report.as_bytes())?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, &path)
    }

    /// Reads and verifies a durable-tier entry. Corrupt entries (header
    /// hash does not match a fresh hash of the body) are deleted and
    /// counted; the caller sees a plain miss.
    fn load_from_disk(&self, digest: &str) -> Option<String> {
        let path = self.disk_path(digest)?;
        let raw = fs::read_to_string(&path).ok()?;
        match raw.split_once('\n') {
            Some((header, body)) if header == to_hex(&sha256(body.as_bytes())) => {
                Some(body.to_string())
            }
            _ => {
                self.telemetry.add(Counter::ReportStoreCorruptDiscarded, 1);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Number of distinct reports stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store holds no reports.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_evicts_oldest_first() {
        let mut store = ReportStore::with_capacity(2);
        for (d, r) in [
            ("d1", "{\"a\":1}"),
            ("d2", "{\"a\":2}"),
            ("d3", "{\"a\":3}"),
        ] {
            store.insert(d.into(), Arc::new(r.into()));
        }
        assert_eq!(store.len(), 2);
        assert!(store.get("d1").is_none(), "oldest evicted");
        assert!(store.get("d2").is_some());
        assert!(store.get("d3").is_some());
        // Re-inserting an existing digest neither duplicates nor evicts.
        store.insert("d3".into(), Arc::new("{\"a\":3}".into()));
        assert_eq!(store.len(), 2);
        assert!(store.get("d2").is_some());
    }

    #[test]
    fn persistent_store_survives_reopen_and_detects_corruption() {
        let dir = std::env::temp_dir().join(format!(
            "nvpim-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let digest = "ab".repeat(32);
        let report = Arc::new(String::from("{\"schema_version\":1}"));
        let telemetry = Telemetry::new();
        let count = |counter| telemetry.snapshot().counter(counter);
        {
            let mut store = ReportStore::persistent(&dir).unwrap();
            store.insert(digest.clone(), Arc::clone(&report));
        }
        // A fresh handle over the same directory serves the bytes back.
        let mut reopened = ReportStore::persistent(&dir)
            .unwrap()
            .with_telemetry(telemetry.clone());
        assert_eq!(
            reopened.get(&digest).as_deref().map(String::as_str),
            Some(report.as_str())
        );
        assert_eq!(count(Counter::ReportCacheHits), 1);
        // Corrupt the file body: the header hash no longer matches, so the
        // entry is discarded and the lookup misses.
        let path = dir.join(format!("{digest}.json"));
        fs::write(&path, "deadbeef\n{\"schema_version\":1}").unwrap();
        let mut tampered = ReportStore::persistent(&dir)
            .unwrap()
            .with_telemetry(telemetry.clone());
        assert!(tampered.get(&digest).is_none());
        assert_eq!(count(Counter::ReportStoreCorruptDiscarded), 1);
        assert_eq!(count(Counter::ReportCacheMisses), 1);
        assert!(!path.exists(), "corrupt entry deleted");
        // Hostile digests never touch the filesystem.
        let mut hostile = ReportStore::persistent(&dir).unwrap();
        assert!(hostile.get("../../etc/passwd").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hit_returns_the_exact_stored_bytes() {
        let telemetry = Telemetry::new();
        let mut store = ReportStore::new().with_telemetry(telemetry.clone());
        assert!(store.get("d1").is_none());
        let report = Arc::new(String::from("{\"x\":1}"));
        store.insert("d1".into(), Arc::clone(&report));
        let back = store.get("d1").unwrap();
        assert!(Arc::ptr_eq(&back, &report));
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter(Counter::ReportCacheHits), 1);
        assert_eq!(snap.counter(Counter::ReportCacheMisses), 1);
        assert_eq!(store.len(), 1);
    }
}
