//! `rtlt-stored` — the shared artifact service.
//!
//! Serves the content-addressed store over TCP so CI runners and developer
//! machines share one warm cache (see `rtlt_store::server`). Std-only; no
//! flags are required:
//!
//! ```text
//! rtlt-stored [--addr HOST:PORT] [--dir DIR] [--mem-budget BYTES]
//!             [--gc-budget BYTES]
//! ```
//!
//! * `--addr` — listen address (default `127.0.0.1:7878`),
//! * `--dir`  — disk-tier root (default `rtlt-stored-cache`),
//! * `--mem-budget` — in-memory tier budget in bytes (default 512 MiB,
//!   `0` disables the memory tier),
//! * `--gc-budget` — if set, evict the disk tier down to this many bytes
//!   once at startup (steady-state eviction is driven by clients or
//!   operators via the protocol's GC request).

use rtlt_store::server::{self, ArtifactServer, ServerConfig, DEFAULT_ADDR};
use rtlt_store::wire::Request;
use std::net::TcpListener;

fn usage() -> ! {
    eprintln!(
        "usage: rtlt-stored [--addr HOST:PORT] [--dir DIR] [--mem-budget BYTES] \
         [--gc-budget BYTES]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = DEFAULT_ADDR.to_owned();
    let mut dir = std::path::PathBuf::from("rtlt-stored-cache");
    let mut mem_budget = server::DEFAULT_SERVER_MEM_BUDGET;
    let mut gc_budget: Option<u64> = None;

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
            _ => usage(),
        }
    }

    let cfg = ServerConfig { dir, mem_budget };
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
        "[rtlt-stored] serving {} (wire v{}, tagged event loop; dir {}, mem budget {} KiB)",
        bound,
        rtlt_store::wire::WIRE_VERSION,
        cfg.dir.display(),
        cfg.mem_budget / 1024
    );
    server::serve(listener, server)
}
