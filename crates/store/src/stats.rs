//! Per-namespace, per-tier hit/miss/byte accounting for a [`crate::Store`].

use crate::tier::TierKind;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Counters of one namespace (one pipeline stage).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NamespaceStats {
    /// Lookups served from the in-memory level (the decoded front cache,
    /// or a byte [`crate::MemTier`] in a custom stack).
    pub mem_hits: u64,
    /// Lookups served from the on-disk tier.
    pub disk_hits: u64,
    /// Lookups served from the remote tier (a shared `rtlt-stored`).
    pub remote_hits: u64,
    /// The subset of `remote_hits` whose bytes arrived through a batched
    /// prefetch (one GETM round trip for a whole key set) rather than a
    /// per-key GET.
    pub batched_hits: u64,
    /// Lookups that found nothing and had to compute.
    pub misses: u64,
    /// Decoded (logical) payload bytes written to the byte tiers.
    pub bytes_written: u64,
    /// Decoded (logical) payload bytes read back from the byte tiers.
    pub bytes_read: u64,
    /// Stored (compress-frame) bytes written to the byte tiers — what
    /// actually lands on disk and travels the wire.
    pub stored_bytes_written: u64,
    /// Stored (compress-frame) bytes read back from the byte tiers.
    pub stored_bytes_read: u64,
    /// Entries that failed verification/decoding and were discarded.
    pub corrupt_entries: u64,
    /// Remote wire round trips (write→read turnarounds) attributed to this
    /// namespace's tier traffic — the thing RPC pipelining removes.
    /// Fire-and-forget writes whose acks are absorbed later land in the
    /// store-wide [`StatsSnapshot::remote_round_trips`] but not here.
    pub round_trips: u64,
}

impl NamespaceStats {
    /// Total hits across every tier.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits + self.remote_hits
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Hit rate in percent (100 when there were no lookups — an untouched
    /// stage is "fully skipped", which is what warm-cache checks want).
    pub fn hit_rate_pct(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            100.0
        } else {
            100.0 * self.hits() as f64 / total as f64
        }
    }

    /// Stored-to-logical byte ratio of this namespace's tier traffic
    /// (lower is better; 1.0 when nothing moved). Write-side traffic is
    /// preferred — it reflects what this run actually produced — falling
    /// back to read-side for warm runs that only consumed.
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_written > 0 {
            self.stored_bytes_written as f64 / self.bytes_written as f64
        } else if self.bytes_read > 0 {
            self.stored_bytes_read as f64 / self.bytes_read as f64
        } else {
            1.0
        }
    }

    /// Counts one hit on the tier level it was served from.
    pub(crate) fn count_tier_hit(&mut self, kind: TierKind) {
        match kind {
            TierKind::Memory => self.mem_hits += 1,
            TierKind::Disk => self.disk_hits += 1,
            TierKind::Remote => self.remote_hits += 1,
        }
    }
}

/// Hits aggregated by tier level — the "where did warm data come from"
/// breakdown the cache reports print.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierHits {
    /// Hits served in memory.
    pub mem: u64,
    /// Hits served from disk.
    pub disk: u64,
    /// Hits served from the remote service.
    pub remote: u64,
}

impl TierHits {
    /// Total hits across the three levels.
    pub fn total(&self) -> u64 {
        self.mem + self.disk + self.remote
    }

    /// Percentage of all hits served by the given level (0 when there were
    /// no hits at all).
    pub fn share_pct(&self, kind: TierKind) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let n = match kind {
            TierKind::Memory => self.mem,
            TierKind::Disk => self.disk,
            TierKind::Remote => self.remote,
        };
        100.0 * n as f64 / total as f64
    }
}

/// Point-in-time snapshot of a store's counters, namespace-keyed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Per-namespace counters, sorted by namespace name.
    pub namespaces: Vec<(String, NamespaceStats)>,
    /// In-memory entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Bytes currently resident in the in-memory tier.
    pub mem_bytes: u64,
    /// Total remote wire round trips across every namespace, including
    /// turnarounds not attributable to a single namespace (flush drains,
    /// STAT and GC requests issued through the same connection).
    /// Authoritative for "how often did this run wait on the wire".
    pub remote_round_trips: u64,
}

impl StatsSnapshot {
    /// Counters of one namespace (zeros if never touched).
    pub fn namespace(&self, ns: &str) -> NamespaceStats {
        self.namespaces
            .iter()
            .find(|(n, _)| n == ns)
            .map(|(_, s)| *s)
            .unwrap_or_default()
    }

    /// Aggregate counters over a set of namespaces (zeros if none touched).
    pub fn aggregate<'a>(&self, names: impl IntoIterator<Item = &'a str>) -> NamespaceStats {
        let mut total = NamespaceStats::default();
        for ns in names {
            let s = self.namespace(ns);
            total.mem_hits += s.mem_hits;
            total.disk_hits += s.disk_hits;
            total.remote_hits += s.remote_hits;
            total.batched_hits += s.batched_hits;
            total.misses += s.misses;
            total.bytes_written += s.bytes_written;
            total.bytes_read += s.bytes_read;
            total.stored_bytes_written += s.stored_bytes_written;
            total.stored_bytes_read += s.stored_bytes_read;
            total.corrupt_entries += s.corrupt_entries;
            total.round_trips += s.round_trips;
        }
        total
    }

    /// Hits summed over every namespace, split by tier level.
    pub fn tier_hits(&self) -> TierHits {
        let mut t = TierHits::default();
        for (_, s) in &self.namespaces {
            t.mem += s.mem_hits;
            t.disk += s.disk_hits;
            t.remote += s.remote_hits;
        }
        t
    }
}

/// Thread-safe counter store, internal to [`crate::Store`].
#[derive(Debug, Default)]
pub(crate) struct StoreStats {
    inner: Mutex<BTreeMap<String, NamespaceStats>>,
    evictions: std::sync::atomic::AtomicU64,
}

impl StoreStats {
    pub(crate) fn with_ns(&self, ns: &str, f: impl FnOnce(&mut NamespaceStats)) {
        let mut map = self.inner.lock().expect("stats lock");
        f(map.entry(ns.to_owned()).or_default());
    }

    pub(crate) fn count_eviction(&self) {
        self.evictions
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, mem_bytes: u64, remote_round_trips: u64) -> StatsSnapshot {
        let map = self.inner.lock().expect("stats lock");
        StatsSnapshot {
            namespaces: map.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            evictions: self.evictions.load(std::sync::atomic::Ordering::Relaxed),
            mem_bytes,
            remote_round_trips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_conventions() {
        let empty = NamespaceStats::default();
        assert_eq!(empty.hit_rate_pct(), 100.0);
        let s = NamespaceStats {
            mem_hits: 3,
            disk_hits: 4,
            remote_hits: 2,
            misses: 1,
            ..Default::default()
        };
        assert_eq!(s.hits(), 9);
        assert!((s.hit_rate_pct() - 90.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_sums_namespaces() {
        let stats = StoreStats::default();
        stats.with_ns("a", |s| s.misses = 2);
        stats.with_ns("b", |s| s.mem_hits = 6);
        stats.with_ns("b", |s| s.remote_hits = 2);
        let snap = stats.snapshot(0, 0);
        let agg = snap.aggregate(["a", "b", "untouched"]);
        assert_eq!(agg.misses, 2);
        assert_eq!(agg.mem_hits, 6);
        assert_eq!(agg.remote_hits, 2);
        assert!((agg.hit_rate_pct() - 80.0).abs() < 1e-12);
    }

    #[test]
    fn compression_ratio_prefers_write_traffic() {
        let none = NamespaceStats::default();
        assert_eq!(none.compression_ratio(), 1.0);
        let wrote = NamespaceStats {
            bytes_written: 1000,
            stored_bytes_written: 250,
            bytes_read: 10,
            stored_bytes_read: 10,
            ..Default::default()
        };
        assert!((wrote.compression_ratio() - 0.25).abs() < 1e-12);
        let read_only = NamespaceStats {
            bytes_read: 1000,
            stored_bytes_read: 500,
            ..Default::default()
        };
        assert!((read_only.compression_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tier_hits_breakdown() {
        let stats = StoreStats::default();
        stats.with_ns("a", |s| {
            s.count_tier_hit(TierKind::Memory);
            s.count_tier_hit(TierKind::Disk);
            s.count_tier_hit(TierKind::Disk);
            s.count_tier_hit(TierKind::Remote);
        });
        let t = stats.snapshot(0, 0).tier_hits();
        assert_eq!((t.mem, t.disk, t.remote), (1, 2, 1));
        assert_eq!(t.total(), 4);
        assert!((t.share_pct(TierKind::Disk) - 50.0).abs() < 1e-12);
        assert_eq!(TierHits::default().share_pct(TierKind::Memory), 0.0);
    }
}
