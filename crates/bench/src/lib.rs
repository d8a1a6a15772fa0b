//! Shared harness for the table/figure regeneration binaries — and the only
//! code in the workspace that reads `RTLT_*` environment variables (the
//! library crates take every setting as an argument; `tests/docs.rs`
//! enforces this).
//!
//! Every binary honors:
//!
//! * `RTLT_FAST=1` — reduced folds/epochs for smoke runs,
//! * `RTLT_SEED=<u64>` — override the master seed (default 2024),
//! * `--cache-dir <DIR>` / `--cache-dir=<DIR>` / `RTLT_CACHE_DIR=<DIR>` —
//!   root of the shared on-disk artifact store (default
//!   `target/rtlt-cache`; `none`/`off` disables persistence),
//! * `--remote <ADDR>` / `--remote=<ADDR>` / `RTLT_STORE_REMOTE=<ADDR>` —
//!   stack a [`RemoteTier`] speaking to a shared `rtlt-stored` server
//!   behind the local tiers (`none`/`off` disables; an unreachable server
//!   degrades to recompute, never an error),
//! * `RTLT_THREADS=<N>` — worker thread count (default: the available
//!   parallelism),
//! * `gc [BUDGET_BYTES]` subcommand — size-bounded LRU-by-mtime eviction of
//!   the **local** disk tier (budget also via `RTLT_CACHE_BUDGET_BYTES`,
//!   default 4 GiB), then exit,
//! * `--cache-stats` — print the tier stack (including the remote
//!   server's size, if reachable) and per-namespace disk usage, then exit.
//!
//! A numeric variable (`RTLT_SEED`, `RTLT_THREADS`,
//! `RTLT_CACHE_BUDGET_BYTES`) or `gc` budget that is set but malformed
//! exits with status 2 and names the setting: a run that silently fell
//! back to a default would measure something other than what was asked.
//!
//! All suite preparation goes through [`Bench::prepare_suite`], which
//! threads the shared [`Store`] through the prepare pipeline: a warm second
//! run of any binary answers suite preparation from the `featurize`
//! namespace instead of re-running compile → blast → label → featurize.
//! Every binary writes a machine-readable `BENCH_<bin>.json` via
//! [`Bench::write_report`].

pub mod json;

use json::Json;
use rtl_timer::cache::stage;
use rtl_timer::pipeline::{DesignSet, TimerConfig};
use rtlt_store::{NamespaceStats, RemoteTier, StatsSnapshot, Store, TierKind};
use std::cell::Cell;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

/// Default disk-tier GC budget when neither the `gc` argument nor
/// `RTLT_CACHE_BUDGET_BYTES` specifies one: 4 GiB.
pub const DEFAULT_CACHE_BUDGET: u64 = 4 << 30;

/// Parses `value`, the setting of numeric variable `name` (`None` or empty
/// = unset), as a `T` of at least `min`. Anything else is an error naming
/// the variable and the value.
fn parse_num<T: FromStr + PartialOrd + Display>(
    name: &str,
    value: Option<&str>,
    min: T,
) -> Result<Option<T>, String> {
    match value {
        None | Some("") => Ok(None),
        Some(v) => match v.parse::<T>() {
            Ok(n) if n >= min => Ok(Some(n)),
            _ => Err(format!("{name} must be a number >= {min}, got {v:?}")),
        },
    }
}

/// The value of a setting, or a usage error (status 2) naming it.
fn or_usage_error<T>(setting: Result<T, String>) -> T {
    setting.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Numeric variable `name`, or `None` when unset; a set but malformed
/// value exits with a usage error (status 2) naming the variable.
fn env_num<T: FromStr + PartialOrd + Display>(name: &str, min: T) -> Option<T> {
    let value = std::env::var(name).ok();
    or_usage_error(parse_num(name, value.as_deref(), min))
}

/// The disk-tier GC budget: `RTLT_CACHE_BUDGET_BYTES`, else the default.
pub fn cache_budget() -> u64 {
    env_num("RTLT_CACHE_BUDGET_BYTES", 0).unwrap_or(DEFAULT_CACHE_BUDGET)
}

/// The `gc` subcommand's budget: its `BUDGET_BYTES` argument, else
/// [`cache_budget`]. A malformed argument is an error naming it.
fn gc_budget(arg: Option<&str>) -> Result<u64, String> {
    Ok(parse_num("gc BUDGET_BYTES", arg, 0)?.unwrap_or_else(cache_budget))
}

/// Handles the cache-maintenance invocations shared by every bench binary:
/// the `gc [BUDGET_BYTES]` subcommand and the `--cache-stats` flag.
/// Returns `true` when a maintenance action ran (the binary should exit).
pub fn run_maintenance(store: &Store) -> bool {
    let args = positional_args();
    if args.first().map(String::as_str) == Some("gc") {
        let budget = or_usage_error(gc_budget(args.get(1).map(String::as_str)));
        let r = store.gc(budget);
        println!(
            "[gc] scanned {} files ({} KiB), evicted {} files ({} KiB), {} KiB remain (budget {} KiB)",
            r.scanned_files,
            r.scanned_bytes / 1024,
            r.evicted_files,
            r.evicted_bytes / 1024,
            r.remaining_bytes / 1024,
            budget / 1024
        );
        return true;
    }
    if std::env::args().any(|a| a == "--cache-stats") {
        print_tier_stack(store);
        if let Some(addr) = remote_addr() {
            // Live server-side load: how many peers share the cache right
            // now, and how many exchanges are in flight across them. An old
            // or unreachable server simply has no load to report.
            match RemoteTier::new(&addr).server_load() {
                Some(load) => println!(
                    "remote server {addr}: wire v{}, {} connections, {} in-flight exchanges",
                    load.wire_version, load.connections, load.inflight
                ),
                None => println!("remote server {addr}: no live load info (old or unreachable)"),
            }
        }
        match store.disk_dir() {
            None => println!("(no disk tier configured)"),
            Some(dir) => {
                println!("\ndisk tier under {}:", dir.display());
                let usage = store.disk_usage_decoded();
                let mut t = Table::new(&[
                    "namespace",
                    "entries",
                    "KiB on disk",
                    "KiB decoded",
                    "ratio",
                ]);
                let (mut total_stored, mut total_decoded) = (0u64, 0u64);
                for (ns, files, stored, decoded) in &usage {
                    total_stored += stored;
                    total_decoded += decoded;
                    t.row(vec![
                        ns.clone(),
                        files.to_string(),
                        (stored / 1024).to_string(),
                        (decoded / 1024).to_string(),
                        format!("{:.2}", ratio(*stored, *decoded)),
                    ]);
                }
                t.print();
                println!(
                    "total: {} KiB on disk for {} KiB decoded (ratio {:.2}, gc budget {} KiB)",
                    total_stored / 1024,
                    total_decoded / 1024,
                    ratio(total_stored, total_decoded),
                    cache_budget() / 1024
                );
            }
        }
        return true;
    }
    false
}

/// Stored-over-decoded byte ratio (1.0 when nothing is decoded — no
/// traffic is neither a win nor a loss).
fn ratio(stored: u64, decoded: u64) -> f64 {
    if decoded == 0 {
        1.0
    } else {
        stored as f64 / decoded as f64
    }
}

/// Prints the store's tier stack in fallback order — one line per tier
/// with its size (the remote tier's numbers come from the server's STAT
/// answer; an unreachable server prints as such instead of failing).
pub fn print_tier_stack(store: &Store) {
    let tiers = store.tier_stats();
    if tiers.is_empty() {
        println!("tier stack: (decoded front cache only — nothing persistent)");
        return;
    }
    println!("tier stack (fallback order):");
    for t in tiers {
        if t.reachable {
            println!(
                "  {:<6} {:<40} {} entries, {} KiB",
                t.kind.label(),
                t.detail,
                t.entries,
                t.bytes / 1024
            );
        } else {
            println!("  {:<6} {:<40} unreachable", t.kind.label(), t.detail);
        }
    }
}

/// Whether fast (smoke) mode is requested.
pub fn fast() -> bool {
    std::env::var("RTLT_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Cross-validation folds: 10 as in the paper, 3 in fast mode.
pub fn folds() -> usize {
    if fast() {
        3
    } else {
        10
    }
}

/// Harness configuration (seed overridable via `RTLT_SEED`, worker
/// threads via `RTLT_THREADS`).
pub fn config() -> TimerConfig {
    let mut cfg = TimerConfig {
        seed: env_num("RTLT_SEED", 0).unwrap_or(2024),
        ..TimerConfig::default()
    };
    if let Some(threads) = env_num("RTLT_THREADS", 1) {
        cfg.threads = threads;
    }
    cfg
}

/// Resolves the shared cache directory: `--cache-dir` argument first, then
/// `RTLT_CACHE_DIR`, then the `target/rtlt-cache` default. `none`, `off`
/// and the empty string disable the disk tier.
pub fn cache_dir() -> Option<PathBuf> {
    fn parse(v: String) -> Option<PathBuf> {
        match v.as_str() {
            "" | "none" | "off" => None,
            _ => Some(PathBuf::from(v)),
        }
    }
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--cache-dir" {
            // A trailing flag with no value is a usage error, not a silent
            // "caching off" — the difference costs a ~70 s re-preparation.
            let Some(v) = args.next() else {
                eprintln!("error: --cache-dir needs a value (a directory, or `none` to disable)");
                std::process::exit(2);
            };
            return parse(v);
        }
        if let Some(v) = a.strip_prefix("--cache-dir=") {
            return parse(v.to_owned());
        }
    }
    if let Ok(v) = std::env::var("RTLT_CACHE_DIR") {
        return parse(v);
    }
    Some(PathBuf::from("target/rtlt-cache"))
}

/// Resolves the shared artifact service address: `--remote` argument
/// first, then `RTLT_STORE_REMOTE`. `none`, `off` and the empty string
/// disable the remote tier (the default).
pub fn remote_addr() -> Option<String> {
    fn parse(v: String) -> Option<String> {
        match v.as_str() {
            "" | "none" | "off" => None,
            _ => Some(v),
        }
    }
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--remote" {
            let Some(v) = args.next() else {
                eprintln!("error: --remote needs a value (host:port, or `none` to disable)");
                std::process::exit(2);
            };
            return parse(v);
        }
        if let Some(v) = a.strip_prefix("--remote=") {
            return parse(v.to_owned());
        }
    }
    std::env::var("RTLT_STORE_REMOTE").ok().and_then(parse)
}

/// Positional process arguments with harness flags (`--cache-dir [DIR]`,
/// `--remote [ADDR]`, `--cache-stats`) stripped — for binaries that take a
/// design name argument.
pub fn positional_args() -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--cache-dir" || a == "--remote" {
            let _ = args.next();
        } else if !a.starts_with("--cache-dir=")
            && !a.starts_with("--remote=")
            && a != "--cache-stats"
        {
            out.push(a);
        }
    }
    out
}

/// One bench invocation: configuration plus the shared artifact store every
/// preparation and optimization flow goes through.
#[derive(Debug)]
pub struct Bench {
    /// Harness configuration.
    pub cfg: TimerConfig,
    /// Shared two-tier artifact store (disk tier per [`cache_dir`]).
    pub store: Store,
    prep_seconds: Cell<f64>,
    /// Shared-cone dedup counters snapshotted when the last preparation
    /// finished, so later featurize calls (e.g. the runtime analysis
    /// loop's uncached measurements) don't leak into the report.
    dedup_stats: Cell<Option<rtl_timer::dataset::ConeDedupStats>>,
}

impl Default for Bench {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Bench {
    /// Builds the harness from environment variables and process arguments.
    /// Cache-maintenance invocations (`gc`, `--cache-stats`) are handled
    /// here — they run against the configured store and exit, so every
    /// bench binary supports them uniformly.
    pub fn from_env() -> Bench {
        let mut store = match cache_dir() {
            Some(dir) => Store::on_disk(dir),
            None => Store::in_memory(),
        };
        // The remote tier stacks *behind* the local tiers: local disk
        // answers first, the shared server fills the gaps, and remote hits
        // populate the local disk on the way back (read-through).
        if let Some(addr) = remote_addr() {
            store.push_tier(Arc::new(RemoteTier::new(addr)));
        }
        if run_maintenance(&store) {
            std::process::exit(0);
        }
        Bench {
            cfg: config(),
            store,
            prep_seconds: Cell::new(f64::NAN),
            dedup_stats: Cell::new(None),
        }
    }

    /// Prepares the 21-design suite through the store, printing progress
    /// timing and the per-stage cache outcome.
    pub fn prepare_suite(&self) -> DesignSet {
        match self.store.disk_dir() {
            Some(dir) => eprintln!(
                "[harness] preparing 21-design suite (threads={}, cache-dir={}) ...",
                self.cfg.threads,
                dir.display()
            ),
            None => eprintln!(
                "[harness] preparing 21-design suite (threads={}, cache-dir=none) ...",
                self.cfg.threads
            ),
        }
        let t = Instant::now();
        let set = DesignSet::prepare_suite_with(&self.cfg, &self.store);
        let secs = t.elapsed().as_secs_f64();
        self.prep_seconds.set(secs);
        self.dedup_stats
            .set(Some(rtl_timer::dataset::cone_dedup_stats()));
        let agg = self.prepare_stats();
        eprintln!(
            "[harness] suite ready in {secs:.1}s (prepare stages: {} hits / {} lookups = {:.1}% hit rate)",
            agg.hits(),
            agg.lookups(),
            agg.hit_rate_pct()
        );
        set
    }

    /// Shared-cone dedup counters as of the end of the last preparation
    /// (live counters before any preparation has run).
    pub fn prepared_dedup_stats(&self) -> rtl_timer::dataset::ConeDedupStats {
        self.dedup_stats
            .get()
            .unwrap_or_else(rtl_timer::dataset::cone_dedup_stats)
    }

    /// Wall time of the last [`Bench::prepare_suite`] (NaN before any run).
    pub fn prep_seconds(&self) -> f64 {
        self.prep_seconds.get()
    }

    /// Aggregate store counters over the stored prepare stages.
    pub fn prepare_stats(&self) -> NamespaceStats {
        self.store.stats().aggregate(stage::PREPARE)
    }

    /// Prints the per-stage store counters as a table (hit rates per
    /// namespace) plus the per-tier mem/disk/remote breakdown of where
    /// warm data actually came from.
    pub fn print_store_stats(&self) {
        let snap = self.store.stats();
        if snap.namespaces.is_empty() {
            println!("(store untouched)");
            return;
        }
        let mut t = Table::new(&[
            "stage",
            "mem hits",
            "disk hits",
            "remote hits",
            "batched",
            "misses",
            "hit %",
            "KiB written",
            "KiB read",
            "stored KiB w",
            "stored KiB r",
            "ratio",
            "turns",
        ]);
        for (ns, s) in &snap.namespaces {
            t.row(vec![
                ns.clone(),
                s.mem_hits.to_string(),
                s.disk_hits.to_string(),
                s.remote_hits.to_string(),
                s.batched_hits.to_string(),
                s.misses.to_string(),
                format!("{:.1}", s.hit_rate_pct()),
                (s.bytes_written / 1024).to_string(),
                (s.bytes_read / 1024).to_string(),
                (s.stored_bytes_written / 1024).to_string(),
                (s.stored_bytes_read / 1024).to_string(),
                format!("{:.2}", s.compression_ratio()),
                s.round_trips.to_string(),
            ]);
        }
        t.print();
        let hits = snap.tier_hits();
        println!(
            "tier breakdown: {} mem ({:.1}%), {} disk ({:.1}%), {} remote ({:.1}%) of {} hits",
            hits.mem,
            hits.share_pct(TierKind::Memory),
            hits.disk,
            hits.share_pct(TierKind::Disk),
            hits.remote,
            hits.share_pct(TierKind::Remote),
            hits.total()
        );
        println!(
            "in-memory tier: {} KiB resident, {} evictions",
            snap.mem_bytes / 1024,
            snap.evictions
        );
        if snap.remote_round_trips > 0 {
            println!(
                "remote wire: {} round trips total (pipelining makes this < request count)",
                snap.remote_round_trips
            );
        }
        let dedup = self.prepared_dedup_stats();
        if dedup.total_signals > 0 {
            println!(
                "cone dedup: {} unique cones / {} signals ({:.1}% shared), {} evals saved by the per-design once-map, featurize {:.2}s",
                dedup.unique_cones,
                dedup.total_signals,
                100.0 * (1.0 - dedup.unique_cones as f64 / dedup.total_signals as f64),
                dedup.saved_evals,
                dedup.featurize_seconds,
            );
        }
    }

    /// Standard report fields: configuration, suite-prep wall time and the
    /// full per-stage store counters.
    fn report_base(&self, bin: &str) -> Vec<(String, Json)> {
        let snap = self.store.stats();
        let agg = self.prepare_stats();
        let dedup = self.prepared_dedup_stats();
        vec![
            ("schema_version".to_owned(), Json::Int(1)),
            ("bin".to_owned(), Json::Str(bin.to_owned())),
            ("seed".to_owned(), Json::UInt(self.cfg.seed)),
            ("threads".to_owned(), Json::UInt(self.cfg.threads as u64)),
            ("fast".to_owned(), Json::Bool(fast())),
            (
                "suite_prep_seconds".to_owned(),
                Json::Num(self.prep_seconds()),
            ),
            (
                "prepare_hit_rate_pct".to_owned(),
                Json::Num(agg.hit_rate_pct()),
            ),
            // Guards the CI warm-cache gate against passing vacuously: a
            // suite prepared without consulting the store reports 100 %
            // hit rate (0/0) but 0 lookups.
            ("prepare_lookups".to_owned(), Json::UInt(agg.lookups())),
            ("prepare_hits".to_owned(), Json::UInt(agg.hits())),
            // Per-tier provenance of the warm prepare data — the remote
            // smoke gate asserts most of a cold-local run came from the
            // shared server.
            ("prepare_mem_hits".to_owned(), Json::UInt(agg.mem_hits)),
            ("prepare_disk_hits".to_owned(), Json::UInt(agg.disk_hits)),
            (
                "prepare_remote_hits".to_owned(),
                Json::UInt(agg.remote_hits),
            ),
            // Of the remote hits, how many arrived through a batched
            // (GETM) prefetch instead of per-key round trips.
            (
                "prepare_batched_hits".to_owned(),
                Json::UInt(agg.batched_hits),
            ),
            // Frame bytes the warm path actually pulled off disk/wire for
            // the prepare stages — the CI perf gate's bytes-read column.
            (
                "prepare_stored_read_bytes".to_owned(),
                Json::UInt(agg.stored_bytes_read),
            ),
            // Wire turnarounds paid by the prepare-stage lookups, and the
            // store-wide total (which also covers write-back and flush
            // traffic) — the multiplexed-store smoke asserts the pipelined
            // total beats the serialized one on the same workload.
            (
                "prepare_round_trips".to_owned(),
                Json::UInt(agg.round_trips),
            ),
            (
                "remote_round_trips".to_owned(),
                Json::UInt(snap.remote_round_trips),
            ),
            // Featurize frame bytes read vs the bytes they decoded to: the
            // compressed-store smoke asserts the frames are ≤ 60 % of it.
            (
                "featurize_stored_read_bytes".to_owned(),
                Json::UInt(snap.namespace("featurize").stored_bytes_read),
            ),
            (
                "featurize_read_bytes".to_owned(),
                Json::UInt(snap.namespace("featurize").bytes_read),
            ),
            // Shared-cone featurization: how much per-signal evaluation the
            // structural dedup collapsed, and the wall time spent inside
            // `build_all_variant_data` (the cold featurize kernel the CI
            // perf gate tracks as `cold_prepare_seconds`).
            ("unique_cones".to_owned(), Json::UInt(dedup.unique_cones)),
            ("total_signals".to_owned(), Json::UInt(dedup.total_signals)),
            (
                "dedup_saved_evals".to_owned(),
                Json::UInt(dedup.saved_evals),
            ),
            (
                "cold_featurize_seconds".to_owned(),
                Json::Num(dedup.featurize_seconds),
            ),
            (
                "cache_dir".to_owned(),
                match self.store.disk_dir() {
                    Some(d) => Json::Str(d.display().to_string()),
                    None => Json::Null,
                },
            ),
            (
                "remote".to_owned(),
                match remote_addr() {
                    Some(addr) => Json::Str(addr),
                    None => Json::Null,
                },
            ),
            ("store".to_owned(), stats_json(&snap)),
        ]
    }

    /// Writes `BENCH_<bin>.json` (cwd) with the standard fields plus
    /// `extras`, and prints where it went.
    pub fn write_report(&self, bin: &str, extras: Vec<(&'static str, Json)>) {
        let mut fields = self.report_base(bin);
        fields.extend(extras.into_iter().map(|(k, v)| (k.to_owned(), v)));
        let path = format!("BENCH_{bin}.json");
        match std::fs::write(&path, Json::Obj(fields).render()) {
            Ok(()) => eprintln!("[harness] wrote {path}"),
            Err(e) => eprintln!("[harness] could not write {path}: {e}"),
        }
    }
}

fn namespace_json(s: &NamespaceStats) -> Json {
    Json::obj([
        ("mem_hits", Json::UInt(s.mem_hits)),
        ("disk_hits", Json::UInt(s.disk_hits)),
        ("remote_hits", Json::UInt(s.remote_hits)),
        ("batched_hits", Json::UInt(s.batched_hits)),
        ("misses", Json::UInt(s.misses)),
        ("hit_rate_pct", Json::Num(s.hit_rate_pct())),
        ("bytes_written", Json::UInt(s.bytes_written)),
        ("bytes_read", Json::UInt(s.bytes_read)),
        // Frame (compressed) bytes: what actually lands on disk and
        // travels the wire, vs. the logical counters above.
        ("stored_bytes_written", Json::UInt(s.stored_bytes_written)),
        ("stored_bytes_read", Json::UInt(s.stored_bytes_read)),
        ("compression_ratio", Json::Num(s.compression_ratio())),
        ("corrupt_entries", Json::UInt(s.corrupt_entries)),
        ("round_trips", Json::UInt(s.round_trips)),
    ])
}

fn stats_json(snap: &StatsSnapshot) -> Json {
    let mut fields: Vec<(String, Json)> = snap
        .namespaces
        .iter()
        .map(|(ns, s)| (ns.clone(), namespace_json(s)))
        .collect();
    fields.push(("evictions".to_owned(), Json::UInt(snap.evictions)));
    fields.push(("mem_bytes".to_owned(), Json::UInt(snap.mem_bytes)));
    fields.push((
        "remote_round_trips".to_owned(),
        Json::UInt(snap.remote_round_trips),
    ));
    Json::Obj(fields)
}

/// Median of a sample (NaN when empty); used for the micro-bench report.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn print(&self) {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate().take(ncols) {
                s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            println!("{}", s.trim_end());
        };
        line(&self.headers);
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * ncols));
        for r in &self.rows {
            line(r);
        }
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}")
}

/// Draws a compact ASCII histogram of values into `bins` buckets.
pub fn ascii_histogram(values: &[f64], bins: usize, width: usize) -> String {
    if values.is_empty() {
        return String::from("(empty)");
    }
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let span = (max - min).max(1e-9);
    let mut counts = vec![0usize; bins];
    for &v in values {
        let b = (((v - min) / span) * bins as f64) as usize;
        counts[b.min(bins - 1)] += 1;
    }
    let peak = counts.iter().copied().max().unwrap_or(1).max(1);
    let mut s = String::new();
    for (i, &c) in counts.iter().enumerate() {
        let lo = min + span * i as f64 / bins as f64;
        let bar = "#".repeat((c * width).div_ceil(peak).min(width));
        s.push_str(&format!("{lo:8.3} | {bar:<w$} {c}\n", w = width));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_renders_all_bins() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        let h = ascii_histogram(&vals, 5, 20);
        assert_eq!(h.lines().count(), 5);
        assert!(h.contains('#'));
    }

    #[test]
    fn table_prints_without_panic() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print();
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn numeric_env_values_parse_or_name_the_variable() {
        assert_eq!(parse_num::<u64>("RTLT_SEED", None, 0), Ok(None));
        assert_eq!(parse_num::<u64>("RTLT_SEED", Some(""), 0), Ok(None));
        assert_eq!(parse_num::<u64>("RTLT_SEED", Some("7"), 0), Ok(Some(7)));
        let err = parse_num::<u64>("RTLT_SEED", Some("12x"), 0).unwrap_err();
        assert!(err.contains("RTLT_SEED") && err.contains("12x"), "{err}");
        assert_eq!(
            parse_num::<usize>("RTLT_THREADS", Some("2"), 1),
            Ok(Some(2))
        );
        let err = parse_num::<usize>("RTLT_THREADS", Some("0"), 1).unwrap_err();
        assert!(err.contains("RTLT_THREADS"), "{err}");
        assert!(parse_num::<u64>("RTLT_CACHE_BUDGET_BYTES", Some("-1"), 0).is_err());
        // The `gc` budget argument: `runtime gc 10MB` must not evict down
        // to the default budget instead.
        let err = gc_budget(Some("10MB")).unwrap_err();
        assert!(
            err.contains("BUDGET_BYTES") && err.contains("10MB"),
            "{err}"
        );
        assert_eq!(gc_budget(Some("1048576")), Ok(1 << 20));
    }

    #[test]
    fn bench_from_env_has_store() {
        // The default cache dir is under target/, so the store has a disk
        // tier unless the environment disabled it.
        let b = Bench::from_env();
        assert!(b.store.is_enabled());
        assert!(b.prep_seconds().is_nan());
    }
}
