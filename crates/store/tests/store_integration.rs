//! Integration tests of the two-tier store: on-disk persistence across
//! store instances (the "across processes" contract — a fresh `Store` has
//! no memory tier to lean on), corruption fallback, and interaction with
//! the `rtlt-runtime` executor the pipeline threads it through.

use proptest::prelude::*;
use rtlt_store::{
    compress, Codec, ContentHash, DiskTier, Enc, KeyBuilder, Store, StoreTier, TierLookup,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A unique scratch directory per test, best-effort removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rtlt-store-test-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn key(label: &str) -> ContentHash {
    KeyBuilder::new("integration").str(label).finish()
}

#[test]
fn disk_entries_survive_into_a_fresh_store_instance() {
    let scratch = ScratchDir::new("persist");
    let value = vec![1.5f64, f64::NAN, -0.0, 1e300];

    let writer = Store::on_disk(&scratch.0);
    writer.put("stage", key("a"), value.clone());

    // A brand-new store over the same directory (≈ a second process: no
    // shared memory tier, keys re-derived from scratch) hits on disk.
    let reader = Store::on_disk(&scratch.0);
    let got = reader.get::<Vec<f64>>("stage", key("a")).expect("disk hit");
    assert_eq!(got.len(), value.len());
    assert_eq!(got[0], 1.5);
    assert!(got[1].is_nan());
    assert_eq!(got[2].to_bits(), (-0.0f64).to_bits());
    assert_eq!(got[3], 1e300);
    let s = reader.stats().namespace("stage");
    assert_eq!((s.disk_hits, s.mem_hits, s.misses), (1, 0, 0));

    // Promotion: the second lookup is served from memory.
    let _ = reader.get::<Vec<f64>>("stage", key("a")).expect("mem hit");
    assert_eq!(reader.stats().namespace("stage").mem_hits, 1);
}

#[test]
fn content_keys_are_identical_across_builders() {
    // Same inputs, independently constructed builders (no shared state):
    // the disk tier relies on this to be stable across processes.
    let a = KeyBuilder::new("stage")
        .str("design")
        .u64(2024)
        .f64(0.6)
        .finish();
    let b = KeyBuilder::new("stage")
        .str("design")
        .u64(2024)
        .f64(0.6)
        .finish();
    assert_eq!(a, b);
    assert_eq!(a.to_hex(), b.to_hex());
    // And any input change moves the key.
    assert_ne!(
        a,
        KeyBuilder::new("stage")
            .str("design")
            .u64(2025)
            .f64(0.6)
            .finish()
    );
}

#[test]
fn corrupted_disk_entry_falls_back_to_recompute() {
    let scratch = ScratchDir::new("corrupt");
    let store = Store::on_disk(&scratch.0);
    store.put("ns", key("x"), 1234u64);

    // Flip one payload byte in the single entry file.
    let entry = find_entry(&scratch.0);
    let mut bytes = std::fs::read(&entry).unwrap();
    let mid = bytes.len() - 9; // inside the payload, before the checksum
    bytes[mid] ^= 0xFF;
    std::fs::write(&entry, &bytes).unwrap();

    let fresh = Store::on_disk(&scratch.0);
    let mut computed = false;
    let v = fresh.get_or_compute("ns", key("x"), || {
        computed = true;
        1234u64
    });
    assert!(computed, "corrupt entry must recompute");
    assert_eq!(*v, 1234);
    let s = fresh.stats().namespace("ns");
    assert_eq!(s.corrupt_entries, 1);
    assert_eq!(s.misses, 1);

    // The recompute rewrote a valid entry.
    let healed = Store::on_disk(&scratch.0);
    assert_eq!(*healed.get::<u64>("ns", key("x")).expect("healed"), 1234);
}

#[test]
fn truncated_disk_entry_falls_back_to_recompute() {
    let scratch = ScratchDir::new("truncate");
    let store = Store::on_disk(&scratch.0);
    store.put("ns", key("t"), vec![7u64; 32]);

    let entry = find_entry(&scratch.0);
    let bytes = std::fs::read(&entry).unwrap();
    std::fs::write(&entry, &bytes[..bytes.len() / 2]).unwrap();

    let fresh = Store::on_disk(&scratch.0);
    assert!(fresh.get::<Vec<u64>>("ns", key("t")).is_none());
    assert_eq!(fresh.stats().namespace("ns").corrupt_entries, 1);
    // The bad file was dropped so the slot can heal.
    assert!(!entry.exists());
}

/// Frames of `vec![0.5f64, 1.0, 1.5, 2.0, 2.5]` in the two retired
/// compress modes (tags 1 and 2), as their encoders wrote them into older
/// caches and shared servers.
const RETIRED_FRAMES: [&[u8]; 2] = [
    &[
        1, 44, 17, 4, 5, 251, 19, 0, 18, 224, 16, 8, 8, 0, 63, 0, 0, 1, 41, 0, 0, 0, 4, 64,
    ],
    &[
        2, 44, 245, 255, 255, 255, 255, 255, 255, 255, 255, 1, 246, 255, 255, 253, 7, 128, 128,
        128, 1, 128, 128, 64, 128, 128, 64, 0, 0, 4, 64,
    ],
];

#[test]
fn retired_compress_modes_heal_on_recompute() {
    let value = vec![0.5f64, 1.0, 1.5, 2.0, 2.5];
    for frame in RETIRED_FRAMES {
        // A well-formed entry (good checksum) whose frame no decoder reads.
        let scratch = ScratchDir::new("retired");
        DiskTier::new(&scratch.0).put_bytes("ns", key("old"), frame);
        let entry = find_entry(&scratch.0);

        let store = Store::on_disk(&scratch.0);
        assert!(store.get::<Vec<f64>>("ns", key("old")).is_none());
        let s = store.stats().namespace("ns");
        assert_eq!((s.corrupt_entries, s.misses), (1, 1));
        assert!(!entry.exists(), "the slot is removed");

        let v = store.get_or_compute("ns", key("old"), || value.clone());
        assert_eq!(*v, value);
        let TierLookup::Hit(healed) = DiskTier::new(&scratch.0).get_bytes("ns", key("old")) else {
            panic!("the recompute rewrote the slot");
        };
        assert!(matches!(healed[0], compress::MODE_LZ | compress::MODE_RAW));
        assert_eq!(compress::decompress(&healed), Some(value.to_bytes()));
    }
}

fn find_entry(root: &std::path::Path) -> PathBuf {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        for e in std::fs::read_dir(dir).unwrap() {
            let p = e.unwrap().path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "bin") {
                out.push(p);
            }
        }
    }
    let mut found = Vec::new();
    walk(root, &mut found);
    assert_eq!(found.len(), 1, "expected exactly one entry under {root:?}");
    found.into_iter().next().unwrap()
}

#[test]
fn gc_evicts_oldest_entries_until_under_budget() {
    let scratch = ScratchDir::new("gc");
    // Three equal-length raw frames written straight into the disk tier:
    // this test reasons about equal-sized files to pin down the LRU order,
    // which compression would perturb. Their mtimes increase strictly
    // (set explicitly so the test does not depend on filesystem timestamp
    // resolution).
    let disk = DiskTier::new(&scratch.0);
    let base = std::time::SystemTime::now() - std::time::Duration::from_secs(600);
    for (i, label) in ["old", "mid", "new"].iter().enumerate() {
        let frame = compress::raw_frame(&vec![i as u64; 64].to_bytes());
        disk.put_bytes("ns", key(label), &frame);
        let p = scratch
            .0
            .join("ns")
            .join(format!("{}.bin", key(label).to_hex()));
        let t = std::fs::FileTimes::new()
            .set_modified(base + std::time::Duration::from_secs(60 * i as u64));
        std::fs::File::options()
            .append(true)
            .open(&p)
            .unwrap()
            .set_times(t)
            .unwrap();
    }

    let store = Store::on_disk(&scratch.0);
    let usage = store.disk_usage();
    assert_eq!(usage.len(), 1);
    let (ns, files, bytes) = &usage[0];
    assert_eq!((ns.as_str(), *files), ("ns", 3));
    let per_entry = bytes / 3;

    // Budget for two entries: the oldest one goes.
    let report = store.gc(per_entry * 2);
    assert_eq!(report.scanned_files, 3);
    assert_eq!(report.evicted_files, 1);
    assert!(report.remaining_bytes <= per_entry * 2);
    let fresh = Store::on_disk(&scratch.0);
    assert!(fresh.get::<Vec<u64>>("ns", key("old")).is_none(), "evicted");
    assert!(fresh.get::<Vec<u64>>("ns", key("mid")).is_some());
    assert!(fresh.get::<Vec<u64>>("ns", key("new")).is_some());

    // Budget 0 clears everything; a memory-only store's gc is a no-op.
    let report = store.gc(0);
    assert_eq!(report.remaining_bytes, 0);
    assert_eq!(Store::in_memory().gc(0), rtlt_store::GcReport::default());
}

#[test]
fn disk_reads_refresh_lru_order() {
    let scratch = ScratchDir::new("gc-touch");
    let store = Store::on_disk(&scratch.0);
    store.put("ns", key("a"), vec![1u64; 64]);
    store.put("ns", key("b"), vec![2u64; 64]);
    // Backdate both entries, then read only `a` (through a fresh store so
    // the lookup goes to disk): the read must refresh `a`'s mtime.
    let backdate = std::time::SystemTime::now() - std::time::Duration::from_secs(3600);
    for label in ["a", "b"] {
        let p = scratch
            .0
            .join("ns")
            .join(format!("{}.bin", key(label).to_hex()));
        std::fs::File::options()
            .append(true)
            .open(&p)
            .unwrap()
            .set_times(std::fs::FileTimes::new().set_modified(backdate))
            .unwrap();
    }
    let reader = Store::on_disk(&scratch.0);
    assert!(reader.get::<Vec<u64>>("ns", key("a")).is_some());

    // Budget for one entry: the unread `b` is the LRU victim.
    let usage = reader.disk_usage();
    let per_entry = usage[0].2 / 2;
    let report = reader.gc(per_entry);
    assert_eq!(report.evicted_files, 1);
    let fresh = Store::on_disk(&scratch.0);
    assert!(
        fresh.get::<Vec<u64>>("ns", key("a")).is_some(),
        "recently read survives"
    );
    assert!(
        fresh.get::<Vec<u64>>("ns", key("b")).is_none(),
        "unread entry evicted"
    );
}

#[test]
fn try_par_map_stays_deterministic_with_a_shared_store() {
    // The pipeline's contract: when several workers fail concurrently
    // while all of them also hit a shared store handle, the surfaced error
    // is still the lowest-indexed one, and successful artifacts written
    // before the failure remain valid.
    let store = Arc::new(Store::in_memory());
    let items: Vec<usize> = (0..64).collect();
    for round in 0..10 {
        let computed = AtomicUsize::new(0);
        let err = rtlt_runtime::try_par_map(8, &items, |&i| {
            // Everyone touches the store first (mem tier contention).
            let v = store.get_or_compute("work", key(&format!("item{i}")), || {
                computed.fetch_add(1, Ordering::Relaxed);
                i as u64
            });
            assert_eq!(*v, i as u64);
            // Items 11 and 43 fail on every round; 29 fails late.
            match i {
                11 | 43 => Err(format!("fail {i}")),
                29 => {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                    Err(format!("fail {i}"))
                }
                _ => Ok(i),
            }
        })
        .unwrap_err();
        assert_eq!(err, "fail 11", "round {round}");
    }
    // Artifacts memoized on earlier rounds were reused, not recomputed:
    // ten rounds over 64 items but at most 64 misses ever.
    let s = store.stats().namespace("work");
    assert!(s.mem_hits > 0);
    assert!(s.misses <= 64, "misses = {}", s.misses);
    assert_eq!(*store.get::<u64>("work", key("item0")).unwrap(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Codec round-trip over a composite artifact shape: every value
    /// decodes back bit-exactly from its own encoding.
    #[test]
    fn codec_round_trips_composite_values(
        floats in proptest::collection::vec(-1e12f64..1e12, 0..64),
        ints in proptest::collection::vec(0u64..u64::MAX, 0..32),
        word in "|a|ab|design_név|u0.state\\[3\\]|àéîœ∞",
        flag in Just(true),
    ) {
        let value = (
            (word.clone(), floats.clone()),
            (ints.clone(), vec![flag, !flag]),
        );
        let bytes = value.to_bytes();
        let back = <((String, Vec<f64>), (Vec<u64>, Vec<bool>))>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back.0 .0, &word);
        prop_assert_eq!(&back.0 .1, &floats);
        prop_assert_eq!(&back.1 .0, &ints);
        prop_assert!(back.1.1 == vec![flag, !flag]);
    }

    /// Nested sequence round-trip (the `tok_feats`-like shape), plus the
    /// truncation contract: any strict prefix fails to decode rather than
    /// yielding a wrong value.
    #[test]
    fn codec_rejects_all_truncations(
        rows in proptest::collection::vec(
            proptest::collection::vec(-1e6f64..1e6, 0..8),
            1..12,
        ),
    ) {
        let bytes = rows.to_bytes();
        let back = Vec::<Vec<f64>>::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&back, &rows);
        // Strict prefixes never decode to a full value.
        let step = (bytes.len() / 16).max(1);
        let mut cut = 0;
        while cut < bytes.len() {
            prop_assert!(Vec::<Vec<f64>>::from_bytes(&bytes[..cut]).is_err());
            cut += step;
        }
    }

    /// Distinct byte strings never collide on their content hash (a
    /// collision within proptest's reach would mean the hash is broken).
    #[test]
    fn content_hashes_of_distinct_inputs_differ(
        a in proptest::collection::vec(0u8..=255, 0..128),
        b in proptest::collection::vec(0u8..=255, 0..128),
    ) {
        let mut ea = Enc::new();
        ea.raw(&a);
        let mut eb = Enc::new();
        eb.raw(&b);
        let ha = ContentHash::of_bytes(&ea.into_bytes());
        let hb = ContentHash::of_bytes(&eb.into_bytes());
        prop_assert_eq!(a == b, ha == hb);
    }
}
