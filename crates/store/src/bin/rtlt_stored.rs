//! `rtlt-stored` — the shared artifact service.
//!
//! Serves the content-addressed store over TCP so CI fleets and developer
//! machines share one warm cache (see `rtlt_store::server`). Std-only; no
//! flags are required:
//!
//! ```text
//! rtlt-stored [--addr HOST:PORT] [--dir DIR] [--mem-budget BYTES]
//!             [--gc-budget BYTES] [--lease-timeout SECONDS]
//! ```
//!
//! * `--addr` — listen address (default `127.0.0.1:7878`),
//! * `--dir`  — disk-tier root (default `rtlt-stored-cache`),
//! * `--mem-budget` — in-memory tier budget in bytes (default 512 MiB,
//!   `0` disables the memory tier),
//! * `--gc-budget` — if set, evict the disk tier down to this many bytes
//!   once at startup (steady-state eviction is driven by clients or
//!   operators via the protocol's GC request),
//! * `--lease-timeout` — seconds after which a silent fleet worker's
//!   design lease is re-queued for work stealing (default 120).

use rtlt_store::plan::DEFAULT_LEASE_TIMEOUT;
use rtlt_store::server::{self, ArtifactServer, ServerConfig, DEFAULT_ADDR};
use rtlt_store::wire::Request;
use std::net::TcpListener;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: rtlt-stored [--addr HOST:PORT] [--dir DIR] [--mem-budget BYTES] \
         [--gc-budget BYTES] [--lease-timeout SECONDS]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = DEFAULT_ADDR.to_owned();
    let mut dir = std::path::PathBuf::from("rtlt-stored-cache");
    let mut mem_budget = server::DEFAULT_SERVER_MEM_BUDGET;
    let mut gc_budget: Option<u64> = None;
    let mut lease_timeout = DEFAULT_LEASE_TIMEOUT;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("error: {flag} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr"),
            "--dir" => dir = value("--dir").into(),
            "--mem-budget" => {
                mem_budget = value("--mem-budget").parse().unwrap_or_else(|_| usage())
            }
            "--gc-budget" => {
                gc_budget = Some(value("--gc-budget").parse().unwrap_or_else(|_| usage()))
            }
            "--lease-timeout" => {
                lease_timeout = Duration::from_secs_f64(
                    value("--lease-timeout")
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage()),
                )
            }
            _ => usage(),
        }
    }

    let cfg = ServerConfig {
        dir,
        mem_budget,
        lease_timeout,
    };
    let server = ArtifactServer::new(&cfg);
    if let Some(budget) = gc_budget {
        if let rtlt_store::wire::Response::Done(r) = server.handle(Request::Gc {
            budget_bytes: budget,
        }) {
            eprintln!(
                "[rtlt-stored] startup gc: {} files scanned, {} evicted, {} KiB remain",
                r.scanned_files,
                r.evicted_files,
                r.remaining_bytes / 1024
            );
        }
    }

    let listener = TcpListener::bind(&addr).unwrap_or_else(|e| {
        eprintln!("[rtlt-stored] cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    let bound = listener.local_addr().expect("bound address");
    eprintln!(
        "[rtlt-stored] serving {} (wire v{}, tagged event loop; dir {}, mem budget {} KiB, lease timeout {:.1}s)",
        bound,
        rtlt_store::wire::WIRE_VERSION,
        cfg.dir.display(),
        cfg.mem_budget / 1024,
        cfg.lease_timeout.as_secs_f64()
    );
    server::serve(listener, server)
}
