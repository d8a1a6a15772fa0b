//! The `rtlt-stored` artifact service: a warm cache shared by machines.
//!
//! The server is nothing but a [`StoreTier`] stack behind the [`wire`]
//! protocol — a byte-LRU [`MemTier`] fronting a checksummed [`DiskTier`],
//! the exact impls the local `Store` composes. GETs walk the stack (disk
//! hits promote into memory), PUTs land in every tier, STAT snapshots tier
//! sizes and server load, GC evicts down to a budget.
//!
//! Transport is the shared nonblocking [`event_loop`]: [`ArtifactServer`]
//! is its [`Handler`] and answers every request inline, so a client can
//! keep a window of tagged requests in flight on one connection and match
//! the answers by tag, batch streams included.
//!
//! Payload *content* is never inspected: the server moves opaque
//! [`crate::compress`] frames whose integrity the entry checksums and
//! content keys already pin down, so it needs no knowledge of the
//! pipeline's artifact types.
//!
//! GETM answers a whole key batch as a stream of bounded
//! [`Response::BatchPart`] chunks.
//!
//! [`wire`]: crate::wire
//! [`event_loop`]: crate::event_loop

use crate::event_loop::{self, Gauges, Handler, Outbox};
use crate::tier::{DiskTier, MemTier, StoreTier, TierLookup};
use crate::wire::{
    Request, Response, ServerLoad, MAX_BATCH_CHUNK, MAX_BATCH_KEYS, MAX_CONN_INFLIGHT, WIRE_VERSION,
};
use crate::ContentHash;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Default listen address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7878";

/// Default in-memory tier budget: 512 MiB of payload bytes.
pub const DEFAULT_SERVER_MEM_BUDGET: usize = 512 << 20;

/// Configuration of one [`ArtifactServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Root of the server's disk tier.
    pub dir: PathBuf,
    /// Byte budget of the in-memory tier (0 disables it).
    pub mem_budget: usize,
}

/// The shared artifact service: a tier stack and the request handler.
///
/// Transport-independent — [`ArtifactServer::handle`] maps one
/// single-response request to its response and
/// [`ArtifactServer::stream_batch`] maps a GETM to its chunk stream, so
/// tests can drive both without sockets and [`serve`] runs them on the
/// event loop.
#[derive(Debug)]
pub struct ArtifactServer {
    tiers: Vec<Arc<dyn StoreTier>>,
    gauges: Gauges,
}

impl ArtifactServer {
    /// Builds the mem-over-disk tier stack from `cfg`.
    pub fn new(cfg: &ServerConfig) -> ArtifactServer {
        let mut tiers: Vec<Arc<dyn StoreTier>> = Vec::new();
        if cfg.mem_budget > 0 {
            tiers.push(Arc::new(MemTier::new(cfg.mem_budget)));
        }
        tiers.push(Arc::new(DiskTier::new(cfg.dir.clone())));
        ArtifactServer::with_tiers(tiers)
    }

    /// Server over an explicit tier stack (fallback order).
    pub fn with_tiers(tiers: Vec<Arc<dyn StoreTier>>) -> ArtifactServer {
        ArtifactServer {
            tiers,
            gauges: Gauges::default(),
        }
    }

    /// One tier-stack lookup with promotion into earlier (faster) tiers,
    /// as the local store does. Corrupt entries were already dropped by
    /// the tier; they fall through like a miss.
    fn lookup(&self, ns: &str, key: ContentHash) -> Option<Vec<u8>> {
        for (i, tier) in self.tiers.iter().enumerate() {
            if let TierLookup::Hit(payload) = tier.get_bytes(ns, key) {
                for earlier in &self.tiers[..i] {
                    earlier.put_bytes(ns, key, &payload);
                }
                return Some(payload);
            }
        }
        None
    }

    /// Answers one single-response request ([`Request::GetBatch2`] streams
    /// instead — see [`ArtifactServer::stream_batch`]).
    pub fn handle(&self, req: Request) -> Response {
        match req {
            Request::Get2 { ns, key } => match self.lookup(&ns, key) {
                Some(frame) => Response::Hit(frame),
                None => Response::Miss,
            },
            Request::GetBatch2 { .. } => {
                Response::Failed("GETM is a streaming request; use stream_batch".to_owned())
            }
            Request::Put2 { ns, key, payload } => {
                for tier in &self.tiers {
                    tier.put_bytes(&ns, key, &payload);
                }
                Response::Done(Default::default())
            }
            Request::Stat2 => Response::ServerStats(ServerLoad {
                tiers: self.tiers.iter().map(|t| t.stats()).collect(),
                connections: self.gauges.connections(),
                inflight: self.gauges.inflight(),
                wire_version: WIRE_VERSION,
            }),
            Request::Gc { budget_bytes } => {
                let mut report = crate::GcReport::default();
                for tier in &self.tiers {
                    report.absorb(tier.gc(budget_bytes));
                }
                Response::Done(report)
            }
            // Session verbs belong to the live annotation service. The
            // artifact store refuses them on the live connection, and the
            // session client degrades to local annotation, byte-identically.
            Request::Open { .. }
            | Request::Edit { .. }
            | Request::Annotate { .. }
            | Request::Close { .. } => {
                Response::Failed("session verbs are served by rtlt-annotated".to_owned())
            }
        }
    }

    /// Answers a [`Request::GetBatch2`] as a stream of
    /// [`Response::BatchPart`] chunks, handing each chunk to `emit` as
    /// soon as it is full — the server never materializes more than one
    /// chunk (plus the payload being looked up), so a near-budget batch
    /// costs ~`chunk_bytes` of server memory, not the whole answer.
    ///
    /// Two byte bounds apply: each part flushes around `chunk_bytes`
    /// ([`MAX_BATCH_CHUNK`] in production), and the *cumulative* frame-body
    /// bytes of the whole answer are capped at [`MAX_CONN_INFLIGHT`] — hits
    /// past the cap degrade to misses (the client recomputes them), so a
    /// batch of maximum-size payloads can never balloon either side of the
    /// connection.
    pub fn stream_batch(
        &self,
        items: &[(String, ContentHash)],
        chunk_bytes: u64,
        mut emit: impl FnMut(Response),
    ) {
        if items.len() > MAX_BATCH_KEYS {
            return emit(Response::Failed(format!(
                "batch of {} keys exceeds the {MAX_BATCH_KEYS} cap",
                items.len()
            )));
        }
        // The client reads the response stream under a cumulative
        // MAX_CONN_INFLIGHT budget charged on full frame-body bytes, so
        // the server must budget the same way: every item is charged a
        // conservative framing overhead (index, flags, length prefixes,
        // amortized part headers — actually ~20 bytes) on top of its
        // payload, guaranteeing a stream the server emits always fits the
        // client's budget.
        const ITEM_OVERHEAD: u64 = 64;
        let mut cur: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
        let mut cur_bytes = 0u64;
        let mut budget = MAX_CONN_INFLIGHT;
        for (i, (ns, key)) in items.iter().enumerate() {
            // Miss markers occupy body bytes too; with at most
            // MAX_BATCH_KEYS items this charge alone can never exhaust
            // the budget.
            budget = budget.saturating_sub(ITEM_OVERHEAD);
            let payload = match self.lookup(ns, *key) {
                Some(p) if (p.len() as u64) <= budget => {
                    budget -= p.len() as u64;
                    Some(p)
                }
                // Over-budget hits degrade to misses: the client
                // recomputes them, byte-identically.
                _ => None,
            };
            let len = payload.as_ref().map_or(0, |p| p.len() as u64);
            if cur_bytes + len > chunk_bytes && !cur.is_empty() {
                emit(Response::BatchPart {
                    items: std::mem::take(&mut cur),
                    last: false,
                });
                cur_bytes = 0;
            }
            cur_bytes += len;
            cur.push((i as u64, payload));
        }
        emit(Response::BatchPart {
            items: cur,
            last: true,
        })
    }

    /// Collecting form of [`ArtifactServer::stream_batch`] with the
    /// production [`MAX_BATCH_CHUNK`] threshold — for scripted servers and
    /// tests that want the parts as a `Vec`.
    pub fn handle_batch(&self, items: &[(String, ContentHash)]) -> Vec<Response> {
        let mut parts = Vec::new();
        self.stream_batch(items, MAX_BATCH_CHUNK, |part| parts.push(part));
        parts
    }
}

impl Handler for ArtifactServer {
    type Conn = ();
    const NAME: &'static str = "rtlt-stored";

    fn gauges(&self) -> &Gauges {
        &self.gauges
    }

    /// Answers inline. A batch streams its parts under the request's tag,
    /// so it can interleave with other in-flight exchanges.
    fn request(&mut self, _: &mut (), tag: u64, req: Request, out: &mut Outbox) {
        match req {
            Request::GetBatch2 { items } => {
                self.stream_batch(&items, MAX_BATCH_CHUNK, |part| out.send(tag, &part))
            }
            req => out.send(tag, &self.handle(req)),
        }
    }
}

/// Serves `listener` forever on the calling thread (see
/// [`crate::event_loop`]).
///
/// # Panics
///
/// If the listener cannot be switched to nonblocking mode.
pub fn serve(listener: TcpListener, mut server: ArtifactServer) -> ! {
    event_loop::run(listener, &mut server, &AtomicBool::new(false));
    unreachable!("the loop only returns once its stop flag is set")
}

/// Binds `addr` and serves an [`ArtifactServer`] on a background thread —
/// the in-process form the integration tests use. Returns the bound
/// address (useful with port 0).
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn(addr: &str, cfg: &ServerConfig) -> std::io::Result<std::net::SocketAddr> {
    event_loop::spawn(addr, ArtifactServer::new(cfg)).map(|handle| handle.addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::KeyBuilder;
    use crate::ContentHash;

    fn key(n: u64) -> ContentHash {
        KeyBuilder::new("server-test").u64(n).finish()
    }

    #[test]
    fn handle_round_trips_get_put_stat_gc() {
        let server = ArtifactServer::with_tiers(vec![Arc::new(MemTier::new(1 << 20))]);
        let get = || Request::Get2 {
            ns: "ns".into(),
            key: key(1),
        };
        assert_eq!(server.handle(get()), Response::Miss);
        let put = Request::Put2 {
            ns: "ns".into(),
            key: key(1),
            payload: vec![1, 2, 3],
        };
        assert!(matches!(server.handle(put), Response::Done(_)));
        assert_eq!(server.handle(get()), Response::Hit(vec![1, 2, 3]));
        match server.handle(Request::Stat2) {
            Response::ServerStats(load) => {
                assert_eq!(load.tiers.len(), 1);
                assert_eq!(load.tiers[0].entries, 1);
                assert_eq!(load.wire_version, WIRE_VERSION);
                // Off the event loop there are no connections to count.
                assert_eq!((load.connections, load.inflight), (0, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
        match server.handle(Request::Gc { budget_bytes: 0 }) {
            Response::Done(r) => assert_eq!(r.evicted_files, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(server.handle(get()), Response::Miss);
    }

    #[test]
    fn batched_get_streams_in_bounded_chunks() {
        let server = ArtifactServer::with_tiers(vec![Arc::new(MemTier::new(1 << 20))]);
        for i in 0..4u64 {
            server.handle(Request::Put2 {
                ns: "ns".into(),
                key: key(i),
                payload: vec![i as u8; 100],
            });
        }
        let items: Vec<(String, ContentHash)> = (0..6u64).map(|i| ("ns".into(), key(i))).collect();
        // Chunk threshold of 150 bytes: 100-byte payloads flush after
        // every hit-pair boundary, so the stream has several parts.
        let mut parts = Vec::new();
        server.stream_batch(&items, 150, |part| parts.push(part));
        assert!(parts.len() > 1, "chunked into {} part(s)", parts.len());
        let mut got: Vec<(u64, Option<Vec<u8>>)> = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            match part {
                Response::BatchPart { items, last } => {
                    assert_eq!(*last, i == parts.len() - 1, "only the final part is last");
                    got.extend(items.iter().cloned());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        got.sort_by_key(|(i, _)| *i);
        assert_eq!(got.len(), 6);
        for (i, payload) in &got {
            if *i < 4 {
                assert_eq!(payload.as_deref(), Some(&vec![*i as u8; 100][..]));
            } else {
                assert!(payload.is_none(), "missing keys report as misses");
            }
        }
        // An over-long batch is refused outright.
        let huge: Vec<(String, ContentHash)> = (0..=MAX_BATCH_KEYS as u64)
            .map(|i| ("ns".into(), key(i)))
            .collect();
        assert!(matches!(
            server.handle_batch(&huge).as_slice(),
            [Response::Failed(_)]
        ));
        // And GETM through the single-response path is a typed failure.
        assert!(matches!(
            server.handle(Request::GetBatch2 { items }),
            Response::Failed(_)
        ));
    }
    #[test]
    fn disk_hits_promote_into_the_mem_tier() {
        let scratch = std::env::temp_dir().join(format!("rtlt-stored-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        let mem = Arc::new(MemTier::new(1 << 20));
        let disk = Arc::new(DiskTier::new(&scratch));
        let frame = crate::compress::raw_frame(&[7; 10]);
        disk.put_bytes("ns", key(2), &frame);
        let server = ArtifactServer::with_tiers(vec![mem.clone(), disk]);
        assert_eq!(
            server.handle(Request::Get2 {
                ns: "ns".into(),
                key: key(2)
            }),
            Response::Hit(frame)
        );
        assert_eq!(mem.stats().entries, 1, "promoted");
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
