//! End-to-end tests of the `rtlt-stored` service: a real TCP server on an
//! ephemeral localhost port, real [`RemoteTier`] clients, and the
//! degradation contract — a dead, vanished, or garbage-speaking server
//! must reproduce cold-run behavior exactly, never an error.

use rtlt_store::server::{spawn, ServerConfig};
use rtlt_store::{
    ContentHash, KeyBuilder, MemTier, RemoteTier, Store, StoreTier, TierKind, TierLookup,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rtlt-remote-test-{tag}-{}-{}",
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
    KeyBuilder::new("remote-integration").str(label).finish()
}

/// Starts an in-process server over a scratch dir, returns its address.
fn start_server(scratch: &ScratchDir) -> String {
    let cfg = ServerConfig {
        dir: scratch.0.clone(),
        mem_budget: 1 << 20,
    };
    let addr = spawn("127.0.0.1:0", &cfg).expect("bind ephemeral port");
    addr.to_string()
}

/// An address in the dynamic port range nothing is listening on: bind an
/// ephemeral port, then drop the listener.
fn dead_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);
    addr
}

#[test]
fn two_stores_share_one_warm_cache_through_the_server() {
    let server_dir = ScratchDir::new("server");
    let addr = start_server(&server_dir);

    // Machine A: local disk + remote. Its put lands on the server too
    // (write-back).
    let dir_a = ScratchDir::new("machine-a");
    let mut store_a = Store::on_disk(&dir_a.0);
    store_a.push_tier(Arc::new(RemoteTier::new(&addr)));
    store_a.put("featurize", key("shared"), vec![1.5f64, -0.0, 1e300]);

    // Machine B: empty local cache, same server. The lookup is served by
    // the remote tier and counted as such.
    let dir_b = ScratchDir::new("machine-b");
    let mut store_b = Store::on_disk(&dir_b.0);
    store_b.push_tier(Arc::new(RemoteTier::new(&addr)));
    let got = store_b
        .get::<Vec<f64>>("featurize", key("shared"))
        .expect("served by the remote tier");
    assert_eq!(got[0], 1.5);
    assert_eq!(got[1].to_bits(), (-0.0f64).to_bits());
    let s = store_b.stats().namespace("featurize");
    assert_eq!((s.remote_hits, s.disk_hits, s.misses), (1, 0, 0));

    // Read-through population: the remote hit warmed B's *local* disk
    // tier, so a fresh store over B's dir (no remote) hits locally.
    let store_b2 = Store::on_disk(&dir_b.0);
    assert!(store_b2
        .get::<Vec<f64>>("featurize", key("shared"))
        .is_some());
    assert_eq!(store_b2.stats().namespace("featurize").disk_hits, 1);
}

#[test]
fn batched_get_pipelines_a_key_set_in_one_exchange() {
    let server_dir = ScratchDir::new("batch");
    let addr = start_server(&server_dir);
    let remote = RemoteTier::new(&addr);
    // Payloads above the chunk threshold would be unwieldy here; what the
    // TCP test pins down is the multi-frame framing itself (the server
    // always terminates with a last-flagged part) and index alignment.
    // Tier payloads are compress frames over codec encodings, so store
    // them as such — the typed Store::get below must be able to decode
    // what it stages.
    use rtlt_store::Codec;
    let framed: Vec<Vec<u8>> = (0..5u8)
        .map(|i| rtlt_store::compress::raw_frame(&vec![i; 64].to_bytes()))
        .collect();
    for (i, bytes) in framed.iter().enumerate() {
        remote.put_bytes("featurize", key(&format!("k{i}")), bytes);
    }
    let items: Vec<(String, ContentHash)> = (0..7u64)
        .map(|i| ("featurize".to_owned(), key(&format!("k{i}"))))
        .collect();
    let results = remote.get_bytes_batch(&items);
    assert_eq!(results.len(), 7);
    for (i, r) in results.iter().enumerate() {
        if i < 5 {
            assert_eq!(r, &TierLookup::Hit(framed[i].clone()), "index {i}");
        } else {
            assert_eq!(r, &TierLookup::Miss, "index {i}");
        }
    }
    // An empty batch never touches the wire.
    assert!(remote.get_bytes_batch(&[]).is_empty());

    // Store-level: prefetch stages the batch; the following gets are
    // remote (batched) hits that also warm the local disk tier.
    let local = ScratchDir::new("batch-local");
    let mut store = Store::on_disk(&local.0);
    store.push_tier(Arc::new(RemoteTier::new(&addr)));
    let flags = store.prefetch(&items[..6]);
    assert_eq!(flags, vec![true, true, true, true, true, false]);
    for i in 0..5u64 {
        let got = store
            .get::<Vec<u8>>("featurize", key(&format!("k{i}")))
            .expect("staged payload");
        assert_eq!(*got, vec![i as u8; 64]);
    }
    let s = store.stats().namespace("featurize");
    assert_eq!((s.remote_hits, s.batched_hits), (5, 5));
    // Read-through: the staged hits populated the local disk.
    let store2 = Store::on_disk(&local.0);
    assert!(store2.get::<Vec<u8>>("featurize", key("k0")).is_some());
    assert_eq!(store2.stats().namespace("featurize").disk_hits, 1);
}

#[test]
fn batched_get_against_a_dead_server_degrades_to_all_misses() {
    let addr = dead_addr();
    let remote = RemoteTier::with_timeout(&addr, Duration::from_millis(300));
    let items: Vec<(String, ContentHash)> = (0..3u64)
        .map(|i| ("ns".to_owned(), key(&format!("d{i}"))))
        .collect();
    assert_eq!(
        remote.get_bytes_batch(&items),
        vec![TierLookup::Miss, TierLookup::Miss, TierLookup::Miss]
    );
}

#[test]
fn remote_stat_and_gc_round_trip() {
    let server_dir = ScratchDir::new("statgc");
    let addr = start_server(&server_dir);
    let remote = RemoteTier::new(&addr);
    remote.put_bytes("ns", key("a"), &[9; 50]);
    remote.put_bytes("ns", key("b"), &[8; 50]);
    assert!(matches!(
        remote.get_bytes("ns", key("a")),
        TierLookup::Hit(_)
    ));

    let stats = remote.stats();
    assert_eq!(stats.kind, TierKind::Remote);
    assert!(stats.reachable);
    // mem tier + disk tier both hold the two entries.
    let tiers = remote.server_load().expect("reachable").tiers;
    assert_eq!(tiers.len(), 2);
    assert!(tiers.iter().all(|t| t.entries == 2));

    // Remote gc empties the server; local Store::gc must NOT have that
    // side effect (it skips remote tiers).
    let mut local = Store::in_memory();
    local.push_tier(Arc::new(RemoteTier::new(&addr)));
    let local_report = local.gc(0);
    assert_eq!(local_report.evicted_files, 0);
    assert!(matches!(
        remote.get_bytes("ns", key("a")),
        TierLookup::Hit(_)
    ));

    let report = remote.gc_remote(0).expect("reachable");
    assert!(report.evicted_files >= 2, "both tiers evicted");
    assert_eq!(remote.get_bytes("ns", key("a")), TierLookup::Miss);
}

#[test]
fn unreachable_server_degrades_to_cold_behavior() {
    let addr = dead_addr();
    let remote = Arc::new(RemoteTier::with_timeout(&addr, Duration::from_millis(300)));
    let mut store = Store::in_memory();
    store.push_tier(remote.clone());

    // Every operation behaves exactly like a cold store: computes, keeps
    // the decoded artifact locally, never errors.
    let mut calls = 0;
    let v = store.get_or_compute("ns", key("x"), || {
        calls += 1;
        42u64
    });
    assert_eq!((*v, calls), (42, 1));
    // Second lookup: decoded front cache, remote never consulted again
    // for this key.
    let v2 = store.get::<u64>("ns", key("x")).expect("front cache");
    assert!(Arc::ptr_eq(&v, &v2));

    // The tier trips open after a bounded number of failures and stays
    // a cheap no-op afterwards.
    for i in 0..10 {
        assert_eq!(
            remote.get_bytes("ns", key(&format!("probe{i}"))),
            TierLookup::Miss
        );
    }
    assert!(remote.is_down());
    assert!(!remote.stats().reachable);
    assert_eq!(remote.server_load(), None);
    assert_eq!(remote.gc_remote(0), None);
}

#[test]
fn garbage_speaking_server_degrades_to_misses() {
    // A "server" that answers every connection with bytes that are not a
    // wire frame: the client must read that as a protocol failure and
    // degrade to misses.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        use std::io::{Read, Write};
        for stream in listener.incoming().flatten() {
            let mut stream = stream;
            let mut buf = [0u8; 1024];
            let _ = stream.read(&mut buf);
            let _ = stream.write_all(b"HTTP/1.1 200 OK\r\n\r\nnot a frame");
        }
    });
    let remote = RemoteTier::with_timeout(&addr, Duration::from_millis(500));
    assert_eq!(remote.get_bytes("ns", key("y")), TierLookup::Miss);
    // And through a Store: the computation still runs and succeeds.
    let mut store = Store::in_memory();
    store.push_tier(Arc::new(RemoteTier::with_timeout(
        &addr,
        Duration::from_millis(500),
    )));
    let v = store.get_or_compute("ns", key("y"), || 7u64);
    assert_eq!(*v, 7);
}

#[test]
fn server_mem_tier_serves_without_touching_disk_layout() {
    // A memory-only "server stack" (what --mem-budget serves when the
    // disk is cold): parity between the byte MemTier and the remote path.
    let server_dir = ScratchDir::new("memparity");
    let addr = start_server(&server_dir);
    let remote = RemoteTier::new(&addr);
    let local = MemTier::new(1 << 20);
    let payload = vec![3u8; 128];
    remote.put_bytes("ns", key("p"), &payload);
    local.put_bytes("ns", key("p"), &payload);
    assert_eq!(
        remote.get_bytes("ns", key("p")),
        local.get_bytes("ns", key("p")),
        "remote and local tiers agree byte-for-byte"
    );
}
