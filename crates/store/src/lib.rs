//! Content-addressed artifact store for the RTL-Timer workspace.
//!
//! The prepare pipeline (`compile → blast → label → featurize`) and the
//! optimization candidate flows are all pure functions of their inputs, so
//! their outputs are memoizable by a **content hash** of (stage inputs × the
//! configuration fields that stage actually reads). This crate provides the
//! store those call sites share:
//!
//! * [`codec`] — hand-rolled compact binary codec ([`Codec`]); the
//!   environment is offline, no serde,
//! * [`hash`] — stable SHA-256 [`ContentHash`] keys via [`KeyBuilder`]
//!   (identical across processes — the persistent tiers outlive any one
//!   run),
//! * [`entry`] — the checksummed entry envelope every byte tier exchanges,
//! * [`compress`] — the std-only payload compressor: every byte tier holds
//!   mode-tagged *frames* (dictionary-coded LZ, or a raw escape) and
//!   [`Store`] compresses on put / decompresses once on get, so disk files
//!   and wire payloads shrink together,
//! * [`tier`] — the [`StoreTier`] trait and the local tier impls: the
//!   byte-LRU [`MemTier`] and the checksummed [`DiskTier`],
//! * [`wire`]/[`remote`]/[`server`] — the `rtlt-stored` artifact service:
//!   a length-prefixed, always-tagged binary protocol, the [`RemoteTier`]
//!   client and the server, so CI runners and developer machines share one
//!   warm cache,
//! * [`event_loop`]/[`client`] — the one nonblocking server loop and the
//!   one client connection every network service here is built on,
//! * [`Store`] — the handle every call site goes through: a byte-budgeted
//!   LRU cache of **decoded** `Arc<T>` artifacts fronting a composable
//!   stack of byte tiers (disk, then optionally remote); a fixed
//!   per-namespace table picks an optional decoded-cache quota,
//! * [`StatsSnapshot`] — per-namespace, per-tier hit/miss/byte counters.
//!
//! Lookups are namespaced by stage name so identical keys from different
//! stages cannot collide and stats stay attributable. Corrupted, truncated,
//! or version-mismatched entries are discarded and treated as misses — the
//! store never fails a computation, it only skips redundant ones. The same
//! holds one level up: an unreachable `rtlt-stored` server degrades to
//! misses (recompute), never to errors.
//!
//! Tier order is fallback order: decoded front cache → each byte tier front
//! to back. A hit in a later tier is written back into every earlier tier
//! (read-through population), and a put lands in every tier (write-back),
//! so one warm fleet cache fills local disks incrementally.
//!
//! The front cache holds *decoded* artifacts on purpose: repeated gets of
//! the same key return the same `Arc` (the pipeline leans on that sharing),
//! and hot-loop lookups skip re-decoding. Byte-oriented [`MemTier`]s exist
//! for stacks that never decode — the `rtlt-stored` server fronts its disk
//! tier with one.
//!
//! Concurrency model: tiers are guarded by plain mutexes (lookups are
//! microseconds next to the seconds-long computations being memoized). Two
//! threads racing to compute the same key both run the computation and the
//! second insert wins; artifacts are deterministic, so this wastes time but
//! never changes results. The architectural point of routing every call
//! site through this one handle is that new tiers — a remote backend, for
//! one — land behind [`Store`] without touching call sites.

pub mod client;
pub mod codec;
pub mod compress;
pub mod entry;
pub mod event_loop;
pub mod hash;
pub mod remote;
pub mod server;
pub mod stats;
pub mod tier;
pub mod wire;

pub use codec::{Codec, CodecError, Dec, Enc, FORMAT_VERSION};
pub use hash::{ContentHash, KeyBuilder};
pub use remote::RemoteTier;
pub use stats::{NamespaceStats, StatsSnapshot, TierHits};
pub use tier::{DiskTier, GcReport, MemTier, StoreTier, TierKind, TierLookup, TierStats};

use stats::StoreStats;
use std::any::Any;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default in-memory front-cache budget: 2 GiB of encoded artifact bytes.
pub const DEFAULT_MEM_BUDGET: usize = 2 << 30;

/// Decoded-front-cache quota for the bulk `featurize` namespace: big
/// enough to keep the active design's tables decoded, small enough that
/// 21 designs of shards do not crowd out the hot tiny namespaces.
pub const FEATURIZE_MEM_QUOTA: usize = 64 << 20;

/// Decoded-front-cache quota for the `conesta` namespace (seed-independent
/// shared cone evaluations). The entries are read many times during one
/// design's featurize (once per signal sharing the cone) but rarely after,
/// so they get a bounded share rather than crowding out the hot tiny
/// namespaces.
pub const CONESTA_MEM_QUOTA: usize = 32 << 20;

/// Decoded-front-cache quota for the `blast` namespace (whole-design
/// SOGs). A prepare passes its SOG down the stage chain by value and never
/// reads it back; an edit session blasts every revision and reads one
/// again only when the designer reverts to it. Uncapped, every edit's SOG
/// stayed decoded for the life of an in-memory store.
pub const BLAST_MEM_QUOTA: usize = 16 << 20;

/// The tier policy of namespace `ns`: its decoded-front-cache quota, if
/// capped. Bulk `featurize` tables, shared `conesta` evaluations and
/// whole-design `blast` graphs are capped (cheap to re-read from
/// compressed disk, or to recompute); every other namespace has no quota.
fn namespace_policy(ns: &str) -> Option<usize> {
    match ns {
        "featurize" => Some(FEATURIZE_MEM_QUOTA),
        "conesta" => Some(CONESTA_MEM_QUOTA),
        "blast" => Some(BLAST_MEM_QUOTA),
        _ => None,
    }
}

#[derive(Debug)]
struct DecodedEntry {
    value: Arc<dyn Any + Send + Sync>,
    bytes: usize,
    last_used: u64,
}

/// The decoded-artifact front cache (LRU by encoded size, with optional
/// per-namespace byte quotas from [`namespace_policy`]).
#[derive(Debug, Default)]
struct DecodedCache {
    entries: HashMap<(String, ContentHash), DecodedEntry>,
    total_bytes: usize,
    ns_bytes: HashMap<String, usize>,
    tick: u64,
}

impl DecodedCache {
    fn evict(&mut self, k: &(String, ContentHash)) {
        if let Some(e) = self.entries.remove(k) {
            self.total_bytes -= e.bytes;
            if let Some(b) = self.ns_bytes.get_mut(&k.0) {
                *b = b.saturating_sub(e.bytes);
            }
        }
    }
}

/// A thread-safe, content-addressed artifact store: a decoded front cache
/// over a composable stack of byte tiers. See the crate docs for the
/// design.
///
/// Shared by reference (or `Arc`) across worker threads; all methods take
/// `&self`.
#[derive(Debug)]
pub struct Store {
    enabled: bool,
    decoded: Mutex<DecodedCache>,
    mem_budget: usize,
    tiers: Vec<Arc<dyn StoreTier>>,
    stats: StoreStats,
    /// Payload bytes fetched ahead of need by [`Store::prefetch`] (one
    /// batched remote round trip), consumed by the next [`Store::get`] of
    /// the same key — which counts them as remote hits, because that is
    /// where the bytes genuinely came from.
    staged: Mutex<HashMap<(String, ContentHash), Vec<u8>>>,
}

impl Store {
    /// Memory-only store with the [`DEFAULT_MEM_BUDGET`].
    pub fn in_memory() -> Store {
        Store::with_mem_budget(DEFAULT_MEM_BUDGET)
    }

    /// Memory-only store with an explicit byte budget for the decoded
    /// front cache.
    pub fn with_mem_budget(mem_budget: usize) -> Store {
        Store {
            enabled: true,
            decoded: Mutex::new(DecodedCache::default()),
            mem_budget,
            tiers: Vec::new(),
            stats: StoreStats::default(),
            staged: Mutex::new(HashMap::new()),
        }
    }

    /// Two-tier store persisting under `dir` (created lazily on first
    /// write). Namespace names become subdirectories, so they must be
    /// path-safe (the pipeline uses short lowercase words).
    pub fn on_disk(dir: impl Into<PathBuf>) -> Store {
        let mut s = Store::in_memory();
        s.tiers.push(Arc::new(DiskTier::new(dir)));
        s
    }

    /// Store over an explicit tier stack (fallback order, front to back).
    /// The decoded front cache uses `mem_budget` encoded bytes.
    pub fn with_tiers(mem_budget: usize, tiers: Vec<Arc<dyn StoreTier>>) -> Store {
        let mut s = Store::with_mem_budget(mem_budget);
        s.tiers = tiers;
        s
    }

    /// Appends a tier at the back of the fallback order (e.g. a
    /// [`RemoteTier`] behind the local disk tier).
    pub fn push_tier(&mut self, tier: Arc<dyn StoreTier>) {
        self.tiers.push(tier);
    }

    /// A pass-through store: every lookup misses, nothing is retained and
    /// no stats are recorded. Lets non-caching entry points share the
    /// store-aware code path at zero cost.
    pub fn disabled() -> Store {
        let mut s = Store::with_mem_budget(0);
        s.enabled = false;
        s
    }

    /// Whether this store retains anything at all.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The byte tiers, in fallback order.
    pub fn tiers(&self) -> &[Arc<dyn StoreTier>] {
        &self.tiers
    }

    /// Size snapshots of every byte tier, in fallback order.
    pub fn tier_stats(&self) -> Vec<TierStats> {
        self.tiers.iter().map(|t| t.stats()).collect()
    }

    /// The first disk tier's root, if one is configured.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.tiers.iter().find_map(|t| t.disk_root())
    }

    /// Whether a remote tier is stacked (i.e. [`Store::prefetch`] has a
    /// round trip to save).
    pub fn has_remote(&self) -> bool {
        self.tiers.iter().any(|t| t.kind() == TierKind::Remote)
    }

    /// Batched read-ahead: fetches every `(ns, key)` not already available
    /// locally from the remote tier in **one** pipelined round trip
    /// (`GETM`), staging the payloads for the next [`Store::get`] of each
    /// key. Returns one flag per item: `true` = the next get will be
    /// answered without a remote round trip (locally present, already
    /// staged, or staged by this call).
    ///
    /// A no-op without a remote tier; any batch failure leaves the
    /// affected keys unstaged, which the normal lookup path serves or
    /// recomputes byte-identically.
    pub fn prefetch(&self, items: &[(String, ContentHash)]) -> Vec<bool> {
        let mut local = vec![false; items.len()];
        if !self.enabled {
            return local;
        }
        let Some(remote) = self.tiers.iter().find(|t| t.kind() == TierKind::Remote) else {
            return local;
        };
        // Snapshot in-memory availability under the locks, then release
        // them before the per-item local-tier probes: a disk `contains` is
        // a stat() syscall per key, and holding the decoded lock across
        // hundreds of those would stall every concurrent get. The race
        // window is harmless — worst case a key is fetched redundantly.
        let mut in_memory = vec![false; items.len()];
        {
            let decoded = self.decoded.lock().expect("mem lock");
            let staged = self.staged.lock().expect("staged lock");
            for (i, (ns, key)) in items.iter().enumerate() {
                let slot = (ns.clone(), *key);
                in_memory[i] = decoded.entries.contains_key(&slot) || staged.contains_key(&slot);
            }
        }
        let mut wanted_idx = Vec::new();
        let mut wanted = Vec::new();
        for (i, (ns, key)) in items.iter().enumerate() {
            if in_memory[i]
                || self
                    .tiers
                    .iter()
                    .any(|t| t.kind() != TierKind::Remote && t.contains(ns, *key))
            {
                local[i] = true;
            } else {
                wanted_idx.push(i);
                wanted.push((ns.clone(), *key));
            }
        }
        if wanted.is_empty() {
            return local;
        }
        // The server caps one GETM at MAX_BATCH_KEYS; bigger work sets
        // split into several exchanges instead of being refused (which
        // the client would read as all-miss and silently fall back to
        // per-key latency — the exact cost batching exists to remove).
        for (chunk_idx, chunk) in wanted.chunks(wire::MAX_BATCH_KEYS).enumerate() {
            // Wire turnarounds are charged to the chunk's first namespace —
            // prepare batches are per-stage, so the attribution is exact in
            // practice and approximate at worst.
            let results = self.charge_turns(&chunk[0].0, remote.as_ref(), || {
                remote.get_bytes_batch(chunk)
            });
            let idx = &wanted_idx[chunk_idx * wire::MAX_BATCH_KEYS..];
            let mut staged = self.staged.lock().expect("staged lock");
            for ((i, slot), result) in idx.iter().zip(chunk).zip(results) {
                if let TierLookup::Hit(payload) = result {
                    staged.insert(slot.clone(), payload);
                    local[*i] = true;
                }
            }
        }
        local
    }

    /// Consumes a staged prefetched payload, if one exists.
    fn take_staged(&self, ns: &str, key: ContentHash) -> Option<Vec<u8>> {
        self.staged
            .lock()
            .expect("staged lock")
            .remove(&(ns.to_owned(), key))
    }

    /// Drops every staged prefetched payload that was never consumed.
    /// Callers that [`Store::prefetch`] a work set call this when that
    /// work completes: a staged key the pipeline ended up not reading
    /// (e.g. an earlier-stage artifact short-circuited by a later-stage
    /// hit) must not sit in memory for the store's lifetime.
    pub fn drop_staged(&self) -> usize {
        let mut staged = self.staged.lock().expect("staged lock");
        let n = staged.len();
        staged.clear();
        n
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        let mem_bytes = self.decoded.lock().expect("mem lock").total_bytes as u64;
        let remote_round_trips = self.tiers.iter().map(|t| t.round_trips()).sum();
        self.stats.snapshot(mem_bytes, remote_round_trips)
    }

    /// Blocks until every tier's buffered best-effort writes are in the
    /// tier's custody — the pipelined remote tier drains its
    /// fire-and-forget PUT window. Called at measurement and shutdown
    /// boundaries (end of a suite prepare); the hot path never pays it.
    pub fn flush(&self) {
        for tier in &self.tiers {
            tier.flush();
        }
    }

    /// Charges `turns` wire round trips to namespace `ns`'s counters.
    /// For wire traffic the store did not broker itself — the live
    /// annotation session client pays its EDIT→ANNOTATE turnarounds on
    /// its own connection, and reports them here so `print_store_stats`
    /// style tables show every round trip the run paid in one place.
    pub fn charge_round_trips(&self, ns: &str, turns: u64) {
        if turns > 0 {
            self.stats.with_ns(ns, |s| s.round_trips += turns);
        }
    }

    /// Runs `f` against a tier and charges any wire round trips it paid to
    /// `ns` — tiers expose only a monotonic total, so the delta around the
    /// call is that call's share.
    fn charge_turns<R>(&self, ns: &str, tier: &dyn StoreTier, f: impl FnOnce() -> R) -> R {
        let before = tier.round_trips();
        let out = f();
        let delta = tier.round_trips().saturating_sub(before);
        if delta > 0 {
            self.stats.with_ns(ns, |s| s.round_trips += delta);
        }
        out
    }

    /// Looks up `key` in `ns`, returning the artifact from the first tier
    /// that has it. Hits in later tiers populate every earlier byte tier
    /// (read-through) and the decoded front cache.
    pub fn get<T>(&self, ns: &str, key: ContentHash) -> Option<Arc<T>>
    where
        T: Codec + Send + Sync + 'static,
    {
        if !self.enabled {
            return None;
        }
        if let Some(v) = self.mem_get::<T>(ns, key) {
            self.stats.with_ns(ns, |s| s.mem_hits += 1);
            return Some(v);
        }
        // Staged prefetched frames: counted as a (batched) remote hit —
        // that is where they came from — and written through to the local
        // tiers exactly as a direct remote hit would be.
        if let Some(frame) = self.take_staged(ns, key) {
            let decoded =
                compress::decompress(&frame).and_then(|p| T::from_bytes(&p).ok().map(|v| (p, v)));
            match decoded {
                Some((payload, v)) => {
                    self.stats.with_ns(ns, |s| {
                        s.count_tier_hit(TierKind::Remote);
                        s.batched_hits += 1;
                        s.bytes_read += payload.len() as u64;
                        s.stored_bytes_read += frame.len() as u64;
                    });
                    for tier in &self.tiers {
                        if tier.kind() != TierKind::Remote {
                            tier.put_bytes(ns, key, &frame);
                        }
                    }
                    let v = Arc::new(v);
                    self.mem_put(ns, key, v.clone(), payload.len());
                    return Some(v);
                }
                None => {
                    // Frame damage or shape drift the version stamp missed:
                    // drop the staged copy and walk the tiers normally.
                    self.stats.with_ns(ns, |s| s.corrupt_entries += 1);
                }
            }
        }
        for (i, tier) in self.tiers.iter().enumerate() {
            match self.charge_turns(ns, tier.as_ref(), || tier.get_bytes(ns, key)) {
                TierLookup::Hit(frame) => {
                    let Some(payload) = compress::decompress(&frame) else {
                        // The entry checksum passed but the compress frame
                        // inside is malformed (e.g. written by a corrupted
                        // process): drop the slot so it heals on recompute.
                        tier.remove(ns, key);
                        self.stats.with_ns(ns, |s| s.corrupt_entries += 1);
                        continue;
                    };
                    match T::from_bytes(&payload) {
                        Ok(v) => {
                            self.stats.with_ns(ns, |s| {
                                s.count_tier_hit(tier.kind());
                                s.bytes_read += payload.len() as u64;
                                s.stored_bytes_read += frame.len() as u64;
                            });
                            // Read-through: earlier tiers pick the entry up
                            // so the next lookup stops sooner (a remote hit
                            // warms the local disk). The frame travels as
                            // is — tiers never see decoded bytes.
                            for earlier in &self.tiers[..i] {
                                earlier.put_bytes(ns, key, &frame);
                            }
                            let v = Arc::new(v);
                            self.mem_put(ns, key, v.clone(), payload.len());
                            return Some(v);
                        }
                        Err(_) => {
                            // Envelope validated but the typed decode failed
                            // (shape drift the version stamp missed): drop
                            // the entry so the slot heals on recompute.
                            tier.remove(ns, key);
                            self.stats.with_ns(ns, |s| s.corrupt_entries += 1);
                        }
                    }
                }
                TierLookup::Corrupt => {
                    self.stats.with_ns(ns, |s| s.corrupt_entries += 1);
                }
                TierLookup::Miss => {}
            }
        }
        self.stats.with_ns(ns, |s| s.misses += 1);
        None
    }

    /// Stores `value` under `(ns, key)` in every configured tier and
    /// returns it shared.
    pub fn put<T>(&self, ns: &str, key: ContentHash, value: T) -> Arc<T>
    where
        T: Codec + Send + Sync + 'static,
    {
        let value = Arc::new(value);
        if !self.enabled {
            return value;
        }
        // Encode once; the logical bytes size the front cache, while the
        // byte tiers receive one compress frame (write-back).
        let payload = value.to_bytes();
        if !self.tiers.is_empty() {
            let frame = compress::compress(&payload);
            self.stats.with_ns(ns, |s| {
                s.bytes_written += payload.len() as u64;
                s.stored_bytes_written += frame.len() as u64;
            });
            for tier in &self.tiers {
                self.charge_turns(ns, tier.as_ref(), || tier.put_bytes(ns, key, &frame));
            }
        }
        self.mem_put(ns, key, value.clone(), payload.len());
        value
    }

    /// Returns the artifact at `(ns, key)`, computing and storing it on a
    /// miss.
    pub fn get_or_compute<T>(
        &self,
        ns: &str,
        key: ContentHash,
        compute: impl FnOnce() -> T,
    ) -> Arc<T>
    where
        T: Codec + Send + Sync + 'static,
    {
        let r: Result<Arc<T>, std::convert::Infallible> =
            self.get_or_try_compute(ns, key, || Ok(compute()));
        match r {
            Ok(v) => v,
            Err(e) => match e {},
        }
    }

    /// Fallible [`Store::get_or_compute`]: only successful computations are
    /// stored; errors pass straight through.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns on a miss.
    pub fn get_or_try_compute<T, E>(
        &self,
        ns: &str,
        key: ContentHash,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E>
    where
        T: Codec + Send + Sync + 'static,
    {
        if !self.enabled {
            return compute().map(Arc::new);
        }
        if let Some(v) = self.get::<T>(ns, key) {
            return Ok(v);
        }
        Ok(self.put(ns, key, compute()?))
    }

    // -- decoded front cache -----------------------------------------------

    fn mem_get<T: Send + Sync + 'static>(&self, ns: &str, key: ContentHash) -> Option<Arc<T>> {
        let mut cache = self.decoded.lock().expect("mem lock");
        cache.tick += 1;
        let tick = cache.tick;
        let entry = cache.entries.get_mut(&(ns.to_owned(), key))?;
        entry.last_used = tick;
        entry.value.clone().downcast::<T>().ok()
    }

    /// `bytes` is the encoded (logical) payload length — cheap to obtain
    /// (the caller already encoded for the byte tiers or decompressed the
    /// frame), consistent across tiers, and proportional to resident
    /// footprint for the flat vector-heavy artifacts the pipeline stores.
    fn mem_put<T: Send + Sync + 'static>(
        &self,
        ns: &str,
        key: ContentHash,
        value: Arc<T>,
        bytes: usize,
    ) {
        if bytes > self.mem_budget {
            return;
        }
        // The namespace's decoded-cache quota: oversized artifacts skip
        // admission, and admission evicts the namespace's own LRU entries
        // first so one bulky namespace (e.g. featurize) cannot crowd the
        // others out of the front cache.
        let quota = namespace_policy(ns);
        if quota.is_some_and(|q| bytes > q) {
            return;
        }
        let mut cache = self.decoded.lock().expect("mem lock");
        cache.tick += 1;
        let tick = cache.tick;
        if let Some(old) = cache.entries.insert(
            (ns.to_owned(), key),
            DecodedEntry {
                value,
                bytes,
                last_used: tick,
            },
        ) {
            cache.total_bytes -= old.bytes;
            if let Some(b) = cache.ns_bytes.get_mut(ns) {
                *b = b.saturating_sub(old.bytes);
            }
        }
        cache.total_bytes += bytes;
        *cache.ns_bytes.entry(ns.to_owned()).or_default() += bytes;
        if let Some(q) = quota {
            while cache.ns_bytes.get(ns).copied().unwrap_or(0) > q {
                let lru = cache
                    .entries
                    .iter()
                    .filter(|((n, _), _)| n == ns)
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone());
                match lru {
                    Some(k) => {
                        cache.evict(&k);
                        self.stats.count_eviction();
                    }
                    None => break,
                }
            }
        }
        while cache.total_bytes > self.mem_budget {
            let lru = cache
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match lru {
                Some(k) => {
                    cache.evict(&k);
                    self.stats.count_eviction();
                }
                None => break,
            }
        }
    }

    // -- tier maintenance --------------------------------------------------

    /// Sizes of the disk tier by namespace: `(namespace, files, bytes)`,
    /// sorted by namespace. `bytes` is the **on-disk** (stored, possibly
    /// compressed) size. Empty when no disk tier is configured.
    pub fn disk_usage(&self) -> Vec<(String, u64, u64)> {
        self.tiers
            .iter()
            .find_map(|t| t.disk_root().map(|d| DiskTier::new(d).usage()))
            .unwrap_or_default()
    }

    /// Like [`Store::disk_usage`] but also reporting decoded payload sizes:
    /// `(namespace, files, stored_bytes, decoded_bytes)` per namespace —
    /// the ratio of the two byte columns is the namespace's on-disk
    /// compression ratio.
    pub fn disk_usage_decoded(&self) -> Vec<(String, u64, u64, u64)> {
        self.tiers
            .iter()
            .find_map(|t| t.disk_root().map(|d| DiskTier::new(d).usage_decoded()))
            .unwrap_or_default()
    }

    /// Size-bounded garbage collection of the **local** tiers: each
    /// non-remote byte tier evicts down to `budget_bytes` of **on-disk
    /// (compressed) bytes** — the budget means disk footprint, not decoded
    /// payload size (the disk tier evicts in LRU order by access-refreshed
    /// mtime). Remote tiers are skipped —
    /// one client must not evict a fleet's shared cache as a side effect;
    /// use [`RemoteTier::gc_remote`] (or the server's own budget) for
    /// that, deliberately.
    ///
    /// Failures to stat or remove individual files are skipped (another
    /// process may be evicting concurrently); the report counts what this
    /// call actually freed.
    pub fn gc(&self, budget_bytes: u64) -> GcReport {
        let mut report = GcReport::default();
        for tier in &self.tiers {
            if tier.kind() != TierKind::Remote {
                report.absorb(tier.gc(budget_bytes));
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> ContentHash {
        KeyBuilder::new("test").u64(n).finish()
    }

    #[test]
    fn memory_hit_after_put() {
        let store = Store::in_memory();
        assert!(store.get::<u64>("ns", key(1)).is_none());
        store.put("ns", key(1), 42u64);
        assert_eq!(*store.get::<u64>("ns", key(1)).unwrap(), 42);
        let s = store.stats().namespace("ns");
        assert_eq!((s.mem_hits, s.misses), (1, 1));
    }

    #[test]
    fn namespaces_do_not_collide() {
        let store = Store::in_memory();
        store.put("a", key(1), 1u64);
        store.put("b", key(1), 2u64);
        assert_eq!(*store.get::<u64>("a", key(1)).unwrap(), 1);
        assert_eq!(*store.get::<u64>("b", key(1)).unwrap(), 2);
    }

    #[test]
    fn get_or_compute_runs_once() {
        let store = Store::in_memory();
        let mut calls = 0;
        for _ in 0..3 {
            let v = store.get_or_compute("ns", key(2), || {
                calls += 1;
                7u64
            });
            assert_eq!(*v, 7);
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn failed_computations_are_not_cached() {
        let store = Store::in_memory();
        let r: Result<Arc<u64>, &str> = store.get_or_try_compute("ns", key(3), || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        let v = store.get_or_try_compute::<u64, &str>("ns", key(3), || Ok(11));
        assert_eq!(*v.unwrap(), 11);
    }

    #[test]
    fn disabled_store_is_pass_through() {
        let store = Store::disabled();
        let mut calls = 0;
        for _ in 0..2 {
            store.get_or_compute("ns", key(4), || {
                calls += 1;
                1u64
            });
        }
        assert_eq!(calls, 2);
        assert!(store.stats().namespaces.is_empty());
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        // Each Vec<u64> of 8 elements encodes to 4 + 64 bytes; budget fits
        // two entries.
        let store = Store::with_mem_budget(150);
        let v = |x: u64| vec![x; 8];
        store.put("ns", key(1), v(1));
        store.put("ns", key(2), v(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(store.get::<Vec<u64>>("ns", key(1)).is_some());
        store.put("ns", key(3), v(3));
        assert!(store.get::<Vec<u64>>("ns", key(2)).is_none(), "evicted");
        assert!(store.get::<Vec<u64>>("ns", key(1)).is_some());
        assert!(store.get::<Vec<u64>>("ns", key(3)).is_some());
        assert_eq!(store.stats().evictions, 1);
        assert!(store.stats().mem_bytes <= 150);
    }

    #[test]
    fn oversized_value_skips_memory_tier() {
        let store = Store::with_mem_budget(16);
        store.put("ns", key(5), vec![0u64; 100]);
        assert!(store.get::<Vec<u64>>("ns", key(5)).is_none());
        assert_eq!(store.stats().evictions, 0);
    }

    #[test]
    fn explicit_mem_byte_tier_serves_and_counts_as_mem() {
        // A byte MemTier in the stack: the decoded front cache has no
        // budget, so every get re-reads (and re-decodes) tier bytes.
        let store = Store::with_tiers(0, vec![Arc::new(MemTier::new(1 << 20))]);
        store.put("ns", key(6), 9u64);
        assert_eq!(*store.get::<u64>("ns", key(6)).unwrap(), 9);
        let s = store.stats().namespace("ns");
        assert_eq!((s.mem_hits, s.disk_hits, s.remote_hits), (1, 0, 0));
    }

    /// A byte tier that reports itself as remote and counts how it is
    /// consulted — per-key vs batched — so prefetch behavior is
    /// observable without a socket.
    #[derive(Debug)]
    struct FakeRemote {
        bytes: MemTier,
        single_gets: std::sync::atomic::AtomicU64,
        batch_calls: std::sync::atomic::AtomicU64,
    }

    impl FakeRemote {
        fn new() -> FakeRemote {
            FakeRemote {
                bytes: MemTier::new(1 << 20),
                single_gets: Default::default(),
                batch_calls: Default::default(),
            }
        }
    }

    impl StoreTier for FakeRemote {
        fn kind(&self) -> TierKind {
            TierKind::Remote
        }
        fn get_bytes(&self, ns: &str, key: ContentHash) -> TierLookup {
            self.single_gets
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.bytes.get_bytes(ns, key)
        }
        fn get_bytes_batch(&self, items: &[(String, ContentHash)]) -> Vec<TierLookup> {
            self.batch_calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            items
                .iter()
                .map(|(ns, key)| self.bytes.get_bytes(ns, *key))
                .collect()
        }
        fn put_bytes(&self, ns: &str, key: ContentHash, payload: &[u8]) {
            self.bytes.put_bytes(ns, key, payload);
        }
        fn stats(&self) -> TierStats {
            self.bytes.stats()
        }
        fn gc(&self, budget_bytes: u64) -> GcReport {
            self.bytes.gc(budget_bytes)
        }
    }

    #[test]
    fn prefetch_stages_one_batched_round_trip_and_counts_remote_hits() {
        let remote = Arc::new(FakeRemote::new());
        remote.put_bytes("ns", key(1), &compress::raw_frame(&41u64.to_bytes()));
        remote.put_bytes("ns", key(2), &compress::raw_frame(&42u64.to_bytes()));
        let mut store = Store::in_memory();
        store.push_tier(remote.clone());
        assert!(store.has_remote());

        let items: Vec<(String, ContentHash)> =
            (1..=3).map(|i| ("ns".to_owned(), key(i))).collect();
        let flags = store.prefetch(&items);
        assert_eq!(flags, vec![true, true, false], "key 3 is nowhere");
        assert_eq!(
            remote
                .batch_calls
                .load(std::sync::atomic::Ordering::Relaxed),
            1,
            "one pipelined round trip for the whole set"
        );
        assert_eq!(
            remote
                .single_gets
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );

        // The staged keys are served as (batched) remote hits without
        // touching the per-key path again.
        assert_eq!(*store.get::<u64>("ns", key(1)).unwrap(), 41);
        assert_eq!(*store.get::<u64>("ns", key(2)).unwrap(), 42);
        let s = store.stats().namespace("ns");
        assert_eq!((s.remote_hits, s.batched_hits, s.misses), (2, 2, 0));
        assert_eq!(
            remote
                .single_gets
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );

        // Re-prefetching already-served keys is free: they sit in the
        // decoded front cache, so nothing is requested.
        let again = store.prefetch(&items[..2]);
        assert_eq!(again, vec![true, true]);
        assert_eq!(
            remote
                .batch_calls
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );

        // The unstaged key falls through to the normal per-key walk.
        assert!(store.get::<u64>("ns", key(3)).is_none());
        assert_eq!(store.stats().namespace("ns").misses, 1);
    }

    #[test]
    fn prefetch_chunks_batches_past_the_wire_key_cap() {
        let remote = Arc::new(FakeRemote::new());
        remote.put_bytes("ns", key(0), &compress::raw_frame(&7u64.to_bytes()));
        remote.put_bytes("ns", key(1), &compress::raw_frame(&9u64.to_bytes()));
        remote.put_bytes(
            "ns",
            key(wire::MAX_BATCH_KEYS as u64),
            &compress::raw_frame(&8u64.to_bytes()),
        );
        let mut store = Store::in_memory();
        store.push_tier(remote.clone());
        // One key past the cap: the client must split into two exchanges
        // rather than send one refusable oversized batch.
        let items: Vec<(String, ContentHash)> = (0..=wire::MAX_BATCH_KEYS as u64)
            .map(|i| ("ns".to_owned(), key(i)))
            .collect();
        let flags = store.prefetch(&items);
        assert_eq!(
            remote
                .batch_calls
                .load(std::sync::atomic::Ordering::Relaxed),
            2
        );
        assert!(flags[0] && flags[1] && flags[wire::MAX_BATCH_KEYS]);
        assert_eq!(flags.iter().filter(|f| **f).count(), 3);
        assert_eq!(*store.get::<u64>("ns", key(0)).unwrap(), 7);
        assert_eq!(
            *store
                .get::<u64>("ns", key(wire::MAX_BATCH_KEYS as u64))
                .unwrap(),
            8
        );
        // The one-shot drain: a staged key the run never consumed
        // (key 1) is dropped instead of living for the store's lifetime.
        assert_eq!(store.drop_staged(), 1);
        assert_eq!(*store.get::<u64>("ns", key(1)).unwrap(), 9, "refetches");
    }

    #[test]
    fn prefetch_without_a_remote_tier_is_a_no_op() {
        let store = Store::on_disk(
            std::env::temp_dir().join(format!("rtlt-prefetch-noop-{}", std::process::id())),
        );
        assert!(!store.has_remote());
        let flags = store.prefetch(&[("ns".to_owned(), key(9))]);
        assert_eq!(flags, vec![false]);
        assert!(store.stats().namespaces.is_empty(), "no counters touched");
    }

    #[test]
    fn corrupt_staged_payload_heals_through_the_normal_walk() {
        let remote = Arc::new(FakeRemote::new());
        // Stage bytes that are not a valid compress frame.
        remote.put_bytes("ns", key(4), &[1, 2, 3]);
        let mut store = Store::in_memory();
        store.push_tier(remote.clone());
        assert_eq!(store.prefetch(&[("ns".to_owned(), key(4))]), vec![true]);
        // The staged decode fails; the tier walk then re-reads the same
        // bad bytes per-key, drops the slot, and reports a miss.
        assert!(store.get::<u64>("ns", key(4)).is_none());
        let s = store.stats().namespace("ns");
        assert!(s.corrupt_entries >= 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn every_namespace_packs_and_three_are_capped() {
        // Zeros compress to a sliver: every namespace's frame is far
        // smaller than its payload.
        let store = Store::with_tiers(0, vec![Arc::new(MemTier::new(1 << 20))]);
        for ns in ["featurize", "conesta", "blast", "label", "shard", "model"] {
            store.put(ns, key(1), vec![0u64; 512]);
            let s = store.stats().namespace(ns);
            assert!(s.stored_bytes_written < s.bytes_written / 4, "{ns}");
        }
        assert_eq!(namespace_policy("featurize"), Some(FEATURIZE_MEM_QUOTA));
        assert_eq!(namespace_policy("conesta"), Some(CONESTA_MEM_QUOTA));
        assert_eq!(namespace_policy("blast"), Some(BLAST_MEM_QUOTA));
        assert_eq!(
            (FEATURIZE_MEM_QUOTA, CONESTA_MEM_QUOTA, BLAST_MEM_QUOTA),
            (64 << 20, 32 << 20, 16 << 20)
        );
        assert_eq!(namespace_policy("label"), None);
        assert_eq!(namespace_policy("shard"), None);
    }

    #[test]
    fn namespace_mem_quota_bounds_the_decoded_cache() {
        // The global budget is roomy; `conesta` is capped at
        // CONESTA_MEM_QUOTA, so a third entry sized at a third of it
        // evicts the namespace's own LRU entry while "other" is untouched.
        let store = Store::in_memory();
        let third = CONESTA_MEM_QUOTA / 8 / 3 + 1; // u64s; 3 entries overflow
        let v = |x: u64| vec![x; third];
        store.put("other", key(9), v(9));
        store.put("conesta", key(1), v(1));
        store.put("conesta", key(2), v(2));
        assert!(store.get::<Vec<u64>>("conesta", key(1)).is_some());
        store.put("conesta", key(3), v(3));
        assert!(
            store.get::<Vec<u64>>("conesta", key(2)).is_none(),
            "namespace LRU victim"
        );
        assert!(store.get::<Vec<u64>>("conesta", key(1)).is_some());
        assert!(store.get::<Vec<u64>>("conesta", key(3)).is_some());
        assert!(
            store.get::<Vec<u64>>("other", key(9)).is_some(),
            "other namespaces keep their entries"
        );
        assert_eq!(store.stats().evictions, 1);
        // An artifact over the namespace quota skips admission entirely.
        store.put("conesta", key(4), vec![0u64; CONESTA_MEM_QUOTA / 8]);
        assert!(store.get::<Vec<u64>>("conesta", key(4)).is_none());
    }

    #[test]
    fn gc_budgets_on_disk_compressed_bytes() {
        let dir = std::env::temp_dir().join(format!("rtlt-gc-compressed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::on_disk(&dir);
        // 160 KB of zeros compress to a sliver of their decoded size.
        store.put("featurize", key(11), vec![0u64; 20_000]);
        let usage = store.disk_usage_decoded();
        assert_eq!(usage.len(), 1);
        let (files, stored, decoded) = (usage[0].1, usage[0].2, usage[0].3);
        assert_eq!(files, 1);
        assert!(
            stored < decoded / 4,
            "zeros must compress well ({stored} vs {decoded})"
        );
        // A budget that fits the compressed file but not the decoded bytes:
        // gc must budget against what is actually on disk and keep it.
        let report = store.gc(stored + 1024);
        assert_eq!(report.evicted_files, 0, "budget measures on-disk bytes");
        let fresh = Store::on_disk(&dir);
        assert!(fresh.get::<Vec<u64>>("featurize", key(11)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn typed_decode_failure_heals_the_tier_slot() {
        // Store a u64, then ask the same key for a String: the payload
        // validates at the tier envelope level but fails the typed decode,
        // so the entry must be dropped and counted corrupt.
        let store = Store::with_tiers(0, vec![Arc::new(MemTier::new(1 << 20))]);
        store.put("ns", key(7), 1234u64);
        assert!(store.get::<String>("ns", key(7)).is_none());
        let s = store.stats().namespace("ns");
        assert_eq!(s.corrupt_entries, 1);
        assert_eq!(s.misses, 1);
        // The slot healed: the u64 entry is gone too (dropped, not stale).
        assert!(store.get::<u64>("ns", key(7)).is_none());
    }
}
