//! Work-stealing fleet preparation end to end, against a real
//! `rtlt-stored` server on an ephemeral port: dynamic leases cover the
//! design list, a worker killed mid-lease has its design stolen by the
//! survivor after the lease deadline, a server lost mid-run degrades to
//! the static path — and in every case the prepared artifacts are
//! **byte-identical** to a cold unsharded prepare (same content digest,
//! zero warm misses), because the planner only decides *who* computes,
//! never *what*.

use rtl_timer::pipeline::{prepare_stolen, steal_plan_epoch, DesignSet, StealConfig, TimerConfig};
use rtlt_store::server::{spawn, ArtifactServer, ServerConfig};
use rtlt_store::wire::{tag_response, untag, Frame, Request, Response};
use rtlt_store::{RemoteTier, Store};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> ScratchDir {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rtlt-steal-test-{tag}-{}-{}",
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
        mk("st0", 8, "+ a"),
        mk("st1", 10, "- b"),
        mk("st2", 12, "& a"),
        mk("st3", 9, "| b"),
    ]
}

fn cfg() -> TimerConfig {
    TimerConfig {
        threads: 2,
        ..Default::default()
    }
}

fn start_server(scratch: &ScratchDir, lease_timeout: Duration) -> String {
    let cfg = ServerConfig {
        dir: scratch.0.clone(),
        mem_budget: 1 << 20,
        lease_timeout,
    };
    spawn("127.0.0.1:0", &cfg).expect("bind").to_string()
}

fn dead_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    drop(listener);
    addr
}

/// Steal config with priors that make "st3" the costliest (leased first)
/// and fast polling, suitable for sub-second tests.
fn steal_cfg(worker: &str) -> StealConfig {
    StealConfig {
        poll: Duration::from_millis(20),
        cost_priors: vec![
            ("st3".to_owned(), 9.0),
            ("st2".to_owned(), 3.0),
            ("st1".to_owned(), 2.0),
            ("st0".to_owned(), 1.0),
        ],
        ..StealConfig::new(worker)
    }
}

#[test]
fn killed_worker_mid_lease_design_lands_on_the_survivor_byte_identically() {
    let sources = tiny_sources();
    let cold = DesignSet::prepare_named(&sources, &cfg()).expect("cold reference");

    let server_dir = ScratchDir::new("server");
    // Short lease deadline: the dead worker's design becomes stealable
    // well within the survivor's polling.
    let addr = start_server(&server_dir, Duration::from_millis(200));

    // The doomed worker: plans (with the same content epoch the survivor
    // will derive — both run the same sources and config), leases the
    // costliest design ("st3"), then dies without ever reporting —
    // exactly a worker killed mid-lease.
    let doomed = RemoteTier::new(&addr);
    let plan: Vec<(String, f64)> = steal_cfg("doomed").cost_priors.clone();
    assert!(doomed.plan_remote(steal_plan_epoch(&sources, &cfg()), &plan));
    assert_eq!(
        doomed.lease_remote("doomed"),
        Some(rtlt_store::LeaseGrant::Granted {
            design: "st3".to_owned()
        })
    );
    drop(doomed);

    // The survivor: leases everything else, then polls until the dead
    // lease expires and steals "st3".
    let survivor_dir = ScratchDir::new("survivor");
    let mut store = Store::on_disk(&survivor_dir.0);
    store.push_tier(Arc::new(RemoteTier::new(&addr)));
    let fleet = RemoteTier::new(&addr);
    let out = prepare_stolen(&sources, &cfg(), &store, &fleet, &steal_cfg("survivor"))
        .expect("server reachable");

    assert!(!out.fell_back);
    assert_eq!(out.leases, 4, "survivor leased every design, incl. st3");
    let mut names: Vec<&str> = out.set.designs().iter().map(|d| &*d.name).collect();
    names.sort_unstable();
    assert_eq!(names, ["st0", "st1", "st2", "st3"]);
    assert_eq!(
        out.set.content_digest(),
        cold.content_digest(),
        "stolen preparation is byte-identical to cold"
    );

    let stats = fleet.plan_stats_remote().expect("reachable");
    assert!(stats.requeued >= 1, "st3 was stolen (re-queued)");
    assert_eq!(stats.completed, 4);
    assert_eq!(stats.outstanding(), 0);

    // The survivor's disk tier alone reconstructs the suite warm, still
    // byte-identical (the merged-cache contract of the static shard path,
    // now under dynamic assignment).
    let warm_store = Store::on_disk(&survivor_dir.0);
    let warm = DesignSet::prepare_named_with(&sources, &cfg(), &warm_store).expect("warm");
    assert_eq!(
        warm_store
            .stats()
            .aggregate(rtl_timer::cache::stage::PREPARE)
            .misses,
        0,
        "fully warm from the stolen run's tiers"
    );
    assert_eq!(warm.content_digest(), cold.content_digest());
}

#[test]
fn two_live_workers_partition_the_plan_and_merge_byte_identically() {
    let sources = tiny_sources();
    let cold = DesignSet::prepare_named(&sources, &cfg()).expect("cold reference");

    let server_dir = ScratchDir::new("fleet");
    // Long deadline: no steals, pure dynamic partitioning.
    let addr = start_server(&server_dir, Duration::from_secs(120));

    let dirs = [ScratchDir::new("w1"), ScratchDir::new("w2")];
    let sources_arc = Arc::new(sources.clone());
    let mut handles = Vec::new();
    for (i, dir) in dirs.iter().enumerate() {
        let addr = addr.clone();
        let dir = dir.0.clone();
        let sources = Arc::clone(&sources_arc);
        handles.push(std::thread::spawn(move || {
            let mut store = Store::on_disk(&dir);
            store.push_tier(Arc::new(RemoteTier::new(&addr)));
            let fleet = RemoteTier::new(&addr);
            let out = prepare_stolen(
                &sources,
                &cfg(),
                &store,
                &fleet,
                &steal_cfg(&format!("w{i}")),
            )
            .expect("server reachable");
            (out.leases, out.set.designs().len())
        }));
    }
    let results: Vec<(u64, usize)> = handles
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect();
    let total_leases: u64 = results.iter().map(|(l, _)| l).sum();
    assert_eq!(total_leases, 4, "each design leased exactly once");

    // Merge both workers' disk tiers; the assembled cache must answer a
    // full warm preparation byte-identical to cold.
    let merged_dir = ScratchDir::new("merged");
    let merged_store = Store::on_disk(&merged_dir.0);
    for dir in &dirs {
        merged_store.merge_disk_tier(&dir.0);
    }
    let warm = DesignSet::prepare_named_with(&sources, &cfg(), &merged_store).expect("warm");
    assert_eq!(
        merged_store
            .stats()
            .aggregate(rtl_timer::cache::stage::PREPARE)
            .misses,
        0
    );
    assert_eq!(warm.content_digest(), cold.content_digest());
}

#[test]
fn unreachable_server_yields_none_for_the_static_fallback() {
    let sources = tiny_sources();
    let store = Store::in_memory();
    let fleet = RemoteTier::with_timeout(dead_addr(), Duration::from_millis(200));
    assert!(prepare_stolen(&sources, &cfg(), &store, &fleet, &steal_cfg("w")).is_none());
}

#[test]
fn server_lost_mid_run_falls_back_to_the_static_remainder() {
    let sources = tiny_sources();
    let cold = DesignSet::prepare_named(&sources, &cfg()).expect("cold reference");

    // A scripted server: answers exactly two exchanges (the PLAN and the
    // first LEASE) through a real ArtifactServer, then vanishes — stream
    // dropped, listener closed.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let script_dir = ScratchDir::new("script");
    let server_cfg = ServerConfig {
        dir: script_dir.0.clone(),
        mem_budget: 1 << 20,
        lease_timeout: Duration::from_secs(120),
    };
    let handle = std::thread::spawn(move || {
        let server = ArtifactServer::new(&server_cfg);
        let (mut stream, _) = listener.accept().expect("one connection");
        for _ in 0..2 {
            // Every exchange is tagged, so the script is too: unwrap the
            // envelope, dispatch, tag the answers.
            let frame = Frame::read_from(&mut stream).expect("request frame");
            let (tag, inner) = untag(&frame).expect("the client always tags");
            let responses = match Request::from_frame(&inner) {
                Ok(Request::GetBatch2 { items }) => server.handle_batch(&items),
                Ok(req) => vec![server.handle(req)],
                Err(e) => vec![Response::Failed(e.to_string())],
            };
            for r in responses {
                tag_response(tag, &r.to_frame())
                    .write_to(&mut stream)
                    .expect("response");
            }
        }
        // Dropping both the stream and the listener kills the "fleet".
    });

    let worker_dir = ScratchDir::new("fallback");
    let store = Store::on_disk(&worker_dir.0);
    let fleet = RemoteTier::with_timeout(&addr, Duration::from_millis(500));
    let out = prepare_stolen(&sources, &cfg(), &store, &fleet, &steal_cfg("w"))
        .expect("server was reachable at plan time");
    handle.join().expect("script thread");

    assert!(out.fell_back, "server loss degraded to the static path");
    assert_eq!(out.leases, 1, "one granted lease before the loss");
    let mut names: Vec<&str> = out.set.designs().iter().map(|d| &*d.name).collect();
    names.sort_unstable();
    assert_eq!(names, ["st0", "st1", "st2", "st3"], "remainder covered");
    assert_eq!(out.design_seconds.len(), 4);
    assert_eq!(out.set.content_digest(), cold.content_digest());
}
