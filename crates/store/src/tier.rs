//! The composable tier stack behind [`crate::Store`].
//!
//! A [`StoreTier`] is one byte-oriented cache level: it stores and serves
//! payload bytes under `(namespace, key)`, owning its envelope (the disk
//! tier wraps payloads in the checksummed [`crate::entry`] format, the
//! remote tier ships them as wire frames, the memory tier keeps them bare).
//! Since format v3 the payload every tier carries is a [`crate::compress`]
//! *frame* (mode-tagged, possibly compressed) rather than bare codec bytes;
//! tiers stay byte-opaque — [`crate::Store`] compresses once on write and
//! decompresses once on read, and checksums cover the compressed form.
//! [`crate::Store`] walks its tiers front to back on a lookup, populates
//! earlier tiers from a later hit (read-through) and writes every tier on a
//! put (write-back), then decodes the payload once into its typed front
//! cache — so stacking a new tier (e.g. [`crate::RemoteTier`]) changes no
//! call site anywhere in the pipeline.
//!
//! Tier failures are never errors: a tier that cannot serve a key reports a
//! miss ([`TierLookup::Miss`]) and the computation simply runs.

use crate::compress;
use crate::entry::{decode_entry, encode_entry};
use crate::hash::ContentHash;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Which level of the storage hierarchy a tier lives on — the unit of the
/// per-tier hit accounting in [`crate::NamespaceStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierKind {
    /// In-process byte cache.
    Memory,
    /// Local filesystem.
    Disk,
    /// Shared artifact service over the network.
    Remote,
}

impl TierKind {
    /// Short lowercase label for reports (`mem`/`disk`/`remote`).
    pub fn label(self) -> &'static str {
        match self {
            TierKind::Memory => "mem",
            TierKind::Disk => "disk",
            TierKind::Remote => "remote",
        }
    }
}

/// Outcome of one tier lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierLookup {
    /// The tier holds the key; payload bytes attached.
    Hit(Vec<u8>),
    /// The tier does not hold the key (including "tier unreachable" — a
    /// dead remote degrades to misses, never to errors).
    Miss,
    /// The tier held something under the key but it failed validation and
    /// was discarded.
    Corrupt,
}

/// Point-in-time size snapshot of one tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierStats {
    /// The tier's level.
    pub kind: TierKind,
    /// Human-readable location (directory, address, or budget).
    pub detail: String,
    /// Entries currently held (0 for an unreachable remote).
    pub entries: u64,
    /// Bytes currently held.
    pub bytes: u64,
    /// Whether the tier answered the size probe (a dead remote reports
    /// `false` instead of failing).
    pub reachable: bool,
}

/// Outcome of one tier [`StoreTier::gc`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Entry files found before eviction.
    pub scanned_files: u64,
    /// Total bytes found before eviction.
    pub scanned_bytes: u64,
    /// Files evicted (oldest mtime first).
    pub evicted_files: u64,
    /// Bytes evicted.
    pub evicted_bytes: u64,
    /// Bytes remaining after eviction.
    pub remaining_bytes: u64,
}

impl GcReport {
    /// Accumulates another report (for stacks gc'ing several tiers).
    pub fn absorb(&mut self, other: GcReport) {
        self.scanned_files += other.scanned_files;
        self.scanned_bytes += other.scanned_bytes;
        self.evicted_files += other.evicted_files;
        self.evicted_bytes += other.evicted_bytes;
        self.remaining_bytes += other.remaining_bytes;
    }
}

/// One byte-oriented cache level of a [`crate::Store`] stack.
pub trait StoreTier: Send + Sync + std::fmt::Debug {
    /// The tier's level in the storage hierarchy.
    fn kind(&self) -> TierKind;

    /// Looks up the payload stored under `(ns, key)`.
    fn get_bytes(&self, ns: &str, key: ContentHash) -> TierLookup;

    /// Looks up a whole `(ns, key)` set. The default loops over
    /// [`StoreTier::get_bytes`]; tiers with per-lookup latency (the remote
    /// tier) override this to pipeline the batch in one round trip.
    fn get_bytes_batch(&self, items: &[(String, ContentHash)]) -> Vec<TierLookup> {
        items
            .iter()
            .map(|(ns, key)| self.get_bytes(ns, *key))
            .collect()
    }

    /// Whether the tier currently holds `(ns, key)` — a cheap existence
    /// probe (no payload read, no recency touch) used to decide what a
    /// batched prefetch still needs. The default reads the payload;
    /// local tiers override it with a constant-time check.
    fn contains(&self, ns: &str, key: ContentHash) -> bool {
        matches!(self.get_bytes(ns, key), TierLookup::Hit(_))
    }

    /// Stores `payload` under `(ns, key)`. Best-effort: a full disk or a
    /// dead server must not fail the computation being memoized.
    fn put_bytes(&self, ns: &str, key: ContentHash, payload: &[u8]);

    /// Drops the entry under `(ns, key)` if present — called by the store
    /// when a payload that validated at the tier level fails typed
    /// decoding, so the slot heals on the next write.
    fn remove(&self, ns: &str, key: ContentHash) {
        let _ = (ns, key);
    }

    /// Current size snapshot.
    fn stats(&self) -> TierStats;

    /// Evicts entries until at most `budget_bytes` remain (LRU where the
    /// tier can track recency).
    fn gc(&self, budget_bytes: u64) -> GcReport;

    /// Blocks until every buffered best-effort write has been pushed to
    /// durable custody (acknowledged by the server, for a pipelined
    /// remote tier). Local tiers write synchronously and have nothing to
    /// flush.
    fn flush(&self) {}

    /// Cumulative wire round trips (write→read turnarounds) this tier has
    /// paid — nonzero only for networked tiers. Monotonic; callers sample
    /// deltas to attribute turnarounds to operations.
    fn round_trips(&self) -> u64 {
        0
    }

    /// The on-disk root, for tiers that persist to a local directory.
    fn disk_root(&self) -> Option<&Path> {
        None
    }
}

// ---------------------------------------------------------------------------
// Memory tier: byte-LRU.
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct MemInner {
    entries: HashMap<(String, ContentHash), (Vec<u8>, u64)>,
    total_bytes: usize,
    tick: u64,
}

/// Byte-budgeted LRU memory tier holding raw payload bytes.
///
/// This is the tier the [`crate::server`] stacks in front of its disk tier
/// (the server never decodes payloads, so bytes are the natural resident
/// form). [`crate::Store`] itself fronts its stack with a *decoded* cache
/// instead — see the crate docs — but accepts a `MemTier` in a custom
/// stack.
#[derive(Debug)]
pub struct MemTier {
    inner: Mutex<MemInner>,
    budget: usize,
}

impl MemTier {
    /// Memory tier with the given byte budget.
    pub fn new(budget: usize) -> MemTier {
        MemTier {
            inner: Mutex::new(MemInner::default()),
            budget,
        }
    }

    fn evict_to(inner: &mut MemInner, budget: usize) -> (u64, u64) {
        let mut files = 0;
        let mut bytes = 0;
        while inner.total_bytes > budget {
            let lru = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            match lru {
                Some(k) => {
                    let (payload, _) = inner.entries.remove(&k).expect("lru entry");
                    inner.total_bytes -= payload.len();
                    files += 1;
                    bytes += payload.len() as u64;
                }
                None => break,
            }
        }
        (files, bytes)
    }
}

impl StoreTier for MemTier {
    fn kind(&self) -> TierKind {
        TierKind::Memory
    }

    fn get_bytes(&self, ns: &str, key: ContentHash) -> TierLookup {
        let mut inner = self.inner.lock().expect("mem tier lock");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&(ns.to_owned(), key)) {
            Some((payload, used)) => {
                *used = tick;
                TierLookup::Hit(payload.clone())
            }
            None => TierLookup::Miss,
        }
    }

    fn put_bytes(&self, ns: &str, key: ContentHash, payload: &[u8]) {
        if payload.len() > self.budget {
            return;
        }
        let mut inner = self.inner.lock().expect("mem tier lock");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((old, _)) = inner
            .entries
            .insert((ns.to_owned(), key), (payload.to_vec(), tick))
        {
            inner.total_bytes -= old.len();
        }
        inner.total_bytes += payload.len();
        Self::evict_to(&mut inner, self.budget);
    }

    fn contains(&self, ns: &str, key: ContentHash) -> bool {
        // No LRU touch: an existence probe must not distort recency.
        self.inner
            .lock()
            .expect("mem tier lock")
            .entries
            .contains_key(&(ns.to_owned(), key))
    }

    fn remove(&self, ns: &str, key: ContentHash) {
        let mut inner = self.inner.lock().expect("mem tier lock");
        if let Some((old, _)) = inner.entries.remove(&(ns.to_owned(), key)) {
            inner.total_bytes -= old.len();
        }
    }

    fn stats(&self) -> TierStats {
        let inner = self.inner.lock().expect("mem tier lock");
        TierStats {
            kind: TierKind::Memory,
            detail: format!("budget {} KiB", self.budget / 1024),
            entries: inner.entries.len() as u64,
            bytes: inner.total_bytes as u64,
            reachable: true,
        }
    }

    fn gc(&self, budget_bytes: u64) -> GcReport {
        let mut inner = self.inner.lock().expect("mem tier lock");
        let scanned_files = inner.entries.len() as u64;
        let scanned_bytes = inner.total_bytes as u64;
        let budget = usize::try_from(budget_bytes).unwrap_or(usize::MAX);
        let (evicted_files, evicted_bytes) = Self::evict_to(&mut inner, budget);
        GcReport {
            scanned_files,
            scanned_bytes,
            evicted_files,
            evicted_bytes,
            remaining_bytes: inner.total_bytes as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Disk tier: checksummed entry files, atomic writes.
// ---------------------------------------------------------------------------

/// On-disk tier of checksummed entries under `<dir>/<ns>/<key>.bin`.
///
/// Writes are durable-atomic: the entry is written to a temp file, fsynced,
/// then renamed over the final path — a crash mid-write leaves either the
/// old entry or none, never a torn one. Reads touch the entry's mtime so
/// [`StoreTier::gc`]'s LRU order reflects access recency.
#[derive(Debug)]
pub struct DiskTier {
    dir: PathBuf,
}

/// Process-global temp-name counter: several `DiskTier` instances may
/// share one root (two stores over one directory), so uniqueness must not
/// be per-instance.
static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl DiskTier {
    /// Disk tier rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> DiskTier {
        DiskTier { dir: dir.into() }
    }

    /// The tier's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, ns: &str, key: ContentHash) -> PathBuf {
        self.dir.join(ns).join(format!("{}.bin", key.to_hex()))
    }

    /// Sizes by namespace: `(namespace, files, bytes)`, sorted.
    pub fn usage(&self) -> Vec<(String, u64, u64)> {
        let mut out = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        for ns in entries.flatten() {
            if !ns.path().is_dir() {
                continue;
            }
            let name = ns.file_name().to_string_lossy().into_owned();
            let mut files = 0u64;
            let mut bytes = 0u64;
            if let Ok(items) = std::fs::read_dir(ns.path()) {
                for f in items.flatten() {
                    if let Ok(meta) = f.metadata() {
                        if meta.is_file() {
                            files += 1;
                            bytes += meta.len();
                        }
                    }
                }
            }
            out.push((name, files, bytes));
        }
        out.sort();
        out
    }

    /// Sizes by namespace with both stored (on-disk entry file) and decoded
    /// (post-decompression payload) bytes: `(namespace, files, stored,
    /// decoded)`, sorted. Reads every entry to peek its frame header — a
    /// reporting path, not a hot path.
    pub fn usage_decoded(&self) -> Vec<(String, u64, u64, u64)> {
        let mut out = Vec::new();
        let Ok(namespaces) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        for ns in namespaces.flatten() {
            if !ns.path().is_dir() {
                continue;
            }
            let name = ns.file_name().to_string_lossy().into_owned();
            let (mut files, mut stored, mut decoded) = (0u64, 0u64, 0u64);
            if let Ok(items) = std::fs::read_dir(ns.path()) {
                for f in items.flatten() {
                    let Ok(bytes) = std::fs::read(f.path()) else {
                        continue;
                    };
                    let Some(payload) = decode_entry(&bytes) else {
                        continue;
                    };
                    files += 1;
                    stored += bytes.len() as u64;
                    decoded += compress::decoded_len(payload).unwrap_or(payload.len() as u64);
                }
            }
            out.push((name, files, stored, decoded));
        }
        out.sort();
        out
    }
}

impl StoreTier for DiskTier {
    fn kind(&self) -> TierKind {
        TierKind::Disk
    }

    fn get_bytes(&self, ns: &str, key: ContentHash) -> TierLookup {
        let path = self.entry_path(ns, key);
        let Ok(bytes) = std::fs::read(&path) else {
            return TierLookup::Miss;
        };
        match decode_entry(&bytes) {
            Some(payload) => {
                // Touch the entry so gc's LRU-by-mtime order reflects
                // access recency, not just write time.
                let _ = std::fs::File::options()
                    .append(true)
                    .open(&path)
                    .and_then(|f| {
                        f.set_times(
                            std::fs::FileTimes::new().set_modified(std::time::SystemTime::now()),
                        )
                    });
                TierLookup::Hit(payload.to_vec())
            }
            None => {
                // Corrupted/truncated/stale entry: drop it so the slot is
                // rewritten by the recompute. Never an error — just a miss.
                let _ = std::fs::remove_file(&path);
                TierLookup::Corrupt
            }
        }
    }

    /// Atomic write: temp file + fsync + rename.
    fn put_bytes(&self, ns: &str, key: ContentHash, payload: &[u8]) {
        if std::fs::create_dir_all(self.dir.join(ns)).is_err() {
            return;
        }
        let path = self.entry_path(ns, key);
        let mut tmp = path.clone().into_os_string();
        tmp.push(format!(
            ".tmp.{}.{}",
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        // fsync before the rename: without it a crash can publish the new
        // name pointing at un-flushed (possibly zero-length) data, which
        // only the checksum path would catch later.
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(&encode_entry(payload))?;
                f.sync_all()
            })
            .is_ok();
        if !written || std::fs::rename(&tmp, &path).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    fn contains(&self, ns: &str, key: ContentHash) -> bool {
        // Existence only — a later real get still validates the entry, so
        // a corrupt file at worst costs one skipped prefetch.
        self.entry_path(ns, key).exists()
    }

    fn remove(&self, ns: &str, key: ContentHash) {
        let _ = std::fs::remove_file(self.entry_path(ns, key));
    }

    fn stats(&self) -> TierStats {
        let usage = self.usage();
        TierStats {
            kind: TierKind::Disk,
            detail: self.dir.display().to_string(),
            entries: usage.iter().map(|(_, f, _)| f).sum(),
            bytes: usage.iter().map(|(_, _, b)| b).sum(),
            reachable: true,
        }
    }

    fn gc(&self, budget_bytes: u64) -> GcReport {
        let mut report = GcReport::default();
        // (mtime, size, path) of every entry file.
        let mut entries: Vec<(std::time::SystemTime, u64, PathBuf)> = Vec::new();
        let Ok(namespaces) = std::fs::read_dir(&self.dir) else {
            return report;
        };
        for ns in namespaces.flatten() {
            if !ns.path().is_dir() {
                continue;
            }
            if let Ok(items) = std::fs::read_dir(ns.path()) {
                for f in items.flatten() {
                    if let Ok(meta) = f.metadata() {
                        if meta.is_file() {
                            let mtime = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                            entries.push((mtime, meta.len(), f.path()));
                        }
                    }
                }
            }
        }
        report.scanned_files = entries.len() as u64;
        report.scanned_bytes = entries.iter().map(|(_, s, _)| s).sum();
        let mut remaining = report.scanned_bytes;
        entries.sort();
        for (_, size, path) in entries {
            if remaining <= budget_bytes {
                break;
            }
            if std::fs::remove_file(&path).is_ok() {
                remaining -= size;
                report.evicted_files += 1;
                report.evicted_bytes += size;
            }
        }
        report.remaining_bytes = remaining;
        report
    }

    fn disk_root(&self) -> Option<&Path> {
        Some(&self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::KeyBuilder;

    fn key(n: u64) -> ContentHash {
        KeyBuilder::new("tier-test").u64(n).finish()
    }

    #[test]
    fn mem_tier_round_trip_and_lru() {
        let tier = MemTier::new(64);
        assert_eq!(tier.get_bytes("ns", key(1)), TierLookup::Miss);
        tier.put_bytes("ns", key(1), &[1; 30]);
        tier.put_bytes("ns", key(2), &[2; 30]);
        // Touch 1 so 2 becomes the LRU victim.
        assert!(matches!(tier.get_bytes("ns", key(1)), TierLookup::Hit(_)));
        tier.put_bytes("ns", key(3), &[3; 30]);
        assert_eq!(tier.get_bytes("ns", key(2)), TierLookup::Miss);
        assert!(matches!(tier.get_bytes("ns", key(1)), TierLookup::Hit(_)));
        let s = tier.stats();
        assert_eq!(s.kind, TierKind::Memory);
        assert!(s.bytes <= 64);
        // Oversized payloads are not retained.
        tier.put_bytes("ns", key(9), &[0; 1000]);
        assert_eq!(tier.get_bytes("ns", key(9)), TierLookup::Miss);
    }

    #[test]
    fn mem_tier_gc_and_remove() {
        let tier = MemTier::new(1 << 20);
        tier.put_bytes("a", key(1), &[0; 100]);
        tier.put_bytes("b", key(2), &[0; 100]);
        tier.remove("a", key(1));
        assert_eq!(tier.get_bytes("a", key(1)), TierLookup::Miss);
        let r = tier.gc(0);
        assert_eq!(r.scanned_files, 1);
        assert_eq!(r.evicted_files, 1);
        assert_eq!(r.remaining_bytes, 0);
    }

    #[test]
    fn tier_kind_labels() {
        assert_eq!(TierKind::Memory.label(), "mem");
        assert_eq!(TierKind::Disk.label(), "disk");
        assert_eq!(TierKind::Remote.label(), "remote");
    }

    #[test]
    fn disk_usage_tells_stored_from_decoded_bytes() {
        let dir = std::env::temp_dir().join(format!("rtlt-tier-usage-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tier = DiskTier::new(&dir);

        // A frame round-trips verbatim, and the decoded usage report tells
        // stored from decoded bytes.
        let frame = compress::compress(&vec![7u8; 4096]);
        tier.put_bytes("ns", key(2), &frame);
        assert_eq!(tier.get_bytes("ns", key(2)), TierLookup::Hit(frame));
        let usage = tier.usage_decoded();
        assert_eq!(usage.len(), 1);
        let (ns, files, stored, decoded) = &usage[0];
        assert_eq!((ns.as_str(), *files), ("ns", 1));
        assert_eq!(*decoded, 4096);
        assert!(
            *stored < *decoded,
            "compressible entry should shrink: stored {stored} decoded {decoded}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
