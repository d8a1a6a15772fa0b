//! Machines share preparation work only through the artifact store. Two
//! properties make that safe, and both are checked here end to end:
//!
//! * **Batch independence.** Preparing a design list in several batches
//!   into one on-disk store leaves a cache **byte-identical** to one cold
//!   prepare of the whole list — file set and file contents, not just
//!   equivalent results.
//! * **Remote = local under concurrent writers.** Two stores preparing the
//!   same list at the same moment through one `rtlt-stored` both digest
//!   like a storeless cold prepare, and leave the server holding every
//!   artifact a third machine needs.

use rtl_timer::cache::stage;
use rtl_timer::pipeline::{DesignSet, TimerConfig};
use rtlt_store::server::{spawn, ServerConfig};
use rtlt_store::{RemoteTier, Store};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rtlt-shared-store-test-{tag}-{}-{}",
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

fn tiny_sources() -> Vec<(String, String)> {
    let mk = |name: &str, w: u32, extra: &str| {
        (
            name.to_owned(),
            format!(
                "module {name}(input clk, input [{x}:0] a, input [{x}:0] b, output [{x}:0] q);
                   reg [{x}:0] r;
                   reg [{x}:0] s;
                   always @(posedge clk) begin
                     r <= a + b;
                     s <= s ^ (r {extra});
                   end
                   assign q = s;
                 endmodule",
                x = w - 1,
            ),
        )
    };
    vec![
        mk("d0", 8, "+ a"),
        mk("d1", 10, "- b"),
        mk("d2", 12, "& a"),
        mk("d3", 9, "| b"),
        mk("d4", 11, "^ a"),
    ]
}

fn cfg() -> TimerConfig {
    TimerConfig {
        threads: 2,
        ..Default::default()
    }
}

/// Relative path → file bytes of every entry under a cache root.
fn tree_bytes(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(root, &p, out);
            } else if p.is_file() {
                let rel = p
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, std::fs::read(&p).expect("readable entry"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

#[test]
fn two_batches_into_one_store_are_byte_identical_to_one_cold_prepare() {
    let sources = tiny_sources();
    let (first, second) = sources.split_at(2);

    let cold_dir = ScratchDir::new("cold");
    let cold = DesignSet::prepare_named_with(&sources, &cfg(), &Store::on_disk(&cold_dir.0))
        .expect("cold prepare");

    // Two disjoint halves, one after the other, each through its own
    // handle on one cache dir — as two runs (or machines sharing a disk)
    // would fill it.
    let batched_dir = ScratchDir::new("batched");
    let mut designs = Vec::new();
    for half in [first, second] {
        let store = Store::on_disk(&batched_dir.0);
        let set = DesignSet::prepare_named_with(half, &cfg(), &store).expect("batch prepare");
        designs.extend(set.designs().iter().cloned());
    }
    assert_eq!(
        DesignSet::from_shared(designs).content_digest(),
        cold.content_digest()
    );

    let cold_tree = tree_bytes(&cold_dir.0);
    let batched_tree = tree_bytes(&batched_dir.0);
    assert_eq!(
        cold_tree.keys().collect::<Vec<_>>(),
        batched_tree.keys().collect::<Vec<_>>(),
        "the batched cache holds exactly the cold cache's entries"
    );
    assert_eq!(cold_tree, batched_tree, "entry bytes are identical");

    // And the batched cache answers the whole list warm.
    let warm_store = Store::on_disk(&batched_dir.0);
    let warm = DesignSet::prepare_named_with(&sources, &cfg(), &warm_store).expect("warm");
    assert_eq!(warm_store.stats().aggregate(stage::PREPARE).misses, 0);
    assert_eq!(warm.content_digest(), cold.content_digest());
}

#[test]
fn concurrent_writers_through_one_server_match_a_storeless_prepare() {
    let sources = Arc::new(tiny_sources());
    let cold = DesignSet::prepare_named_with(&sources, &cfg(), &Store::disabled())
        .expect("storeless prepare")
        .content_digest();

    let server_dir = ScratchDir::new("server");
    let addr = spawn(
        "127.0.0.1:0",
        &ServerConfig {
            dir: server_dir.0.clone(),
            mem_budget: 16 << 20,
        },
    )
    .expect("bind")
    .to_string();

    // Two machines: each its own disk dir plus the shared remote tier,
    // released onto the same design list at the same moment.
    let dirs = [ScratchDir::new("w0"), ScratchDir::new("w1")];
    let start = Arc::new(Barrier::new(dirs.len()));
    let workers: Vec<_> = dirs
        .iter()
        .map(|dir| {
            let (dir, addr) = (dir.0.clone(), addr.clone());
            let (sources, start) = (Arc::clone(&sources), Arc::clone(&start));
            std::thread::spawn(move || {
                let mut store = Store::on_disk(dir);
                store.push_tier(Arc::new(RemoteTier::new(addr)));
                start.wait();
                DesignSet::prepare_named_with(&sources, &cfg(), &store)
                    .expect("prepare")
                    .content_digest()
            })
        })
        .collect();
    for worker in workers {
        assert_eq!(worker.join().expect("worker thread"), cold);
    }

    // A third machine with nothing but the remote tier draws every
    // featurize artifact from the server.
    let mut third = Store::in_memory();
    third.push_tier(Arc::new(RemoteTier::new(addr)));
    let set = DesignSet::prepare_named_with(&sources, &cfg(), &third).expect("remote prepare");
    assert_eq!(set.content_digest(), cold);
    let featurize = third.stats().namespace(stage::FEATURIZE);
    assert_eq!(
        (featurize.remote_hits, featurize.misses),
        (sources.len() as u64, 0),
        "every featurize key served remotely"
    );
}
