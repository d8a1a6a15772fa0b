//! [`RemoteTier`] — the client side of the `rtlt-stored` artifact service.
//!
//! A [`StoreTier`] over one [`ClientConn`] (lazily established, reused
//! across requests, re-established after failures). The governing rule is
//! **graceful degradation**: a server that is down, unreachable, slow, or
//! speaking another protocol turns every operation into a miss or a no-op
//! — the pipeline recomputes exactly what it would have computed cold,
//! byte-identically, and never sees an error. After
//! [`MAX_CONSECUTIVE_FAILURES`](crate::client::MAX_CONSECUTIVE_FAILURES)
//! the tier trips open and stops trying for the rest of the process.
//!
//! The client is **pipelined**: every request travels tagged, so
//! write-back PUTs are fire-and-forget — up to [`PIPELINE_WINDOW`]
//! unacknowledged puts ride the wire while the pipeline keeps computing,
//! and their acks are absorbed lazily (while awaiting some later
//! response, or in [`RemoteTier::flush`]). Payloads travel as the
//! [`crate::compress`] frames the tiers hold.
//!
//! The tier also counts **round trips** — write→read turnarounds on the
//! wire. [`RemoteTier::round_trips`] is cumulative and monotonic; the
//! store samples it around remote calls to attribute turnarounds per
//! namespace.

use crate::client::{ClientConn, Timeouts};
use crate::hash::ContentHash;
use crate::tier::{GcReport, StoreTier, TierKind, TierLookup, TierStats};
use crate::wire::{FrameBudget, Request, Response, ServerLoad, WireError, MAX_CONN_INFLIGHT};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Default connect/read/write timeout.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(5);

/// In-flight window of fire-and-forget PUTs: how many unacknowledged
/// writes may ride the wire before the client absorbs an ack. Small on
/// purpose — the point is overlapping latency, not buffering unbounded
/// bytes on either side.
pub const PIPELINE_WINDOW: usize = 8;

/// Client tier speaking to a shared `rtlt-stored` server.
#[derive(Debug)]
pub struct RemoteTier {
    addr: String,
    /// Mirror of the connection's turnaround count, readable without
    /// waiting for an exchange in progress.
    turns: AtomicU64,
    conn: Mutex<ClientConn>,
}

impl RemoteTier {
    /// Client of the server at `addr` (`host:port`), with the
    /// [`DEFAULT_TIMEOUT`].
    pub fn new(addr: impl Into<String>) -> RemoteTier {
        RemoteTier::with_timeout(addr, DEFAULT_TIMEOUT)
    }

    /// Client with an explicit per-operation timeout.
    pub fn with_timeout(addr: impl Into<String>, timeout: Duration) -> RemoteTier {
        let addr = addr.into();
        RemoteTier {
            conn: Mutex::new(ClientConn::new(addr.clone(), Timeouts::uniform(timeout))),
            addr,
            turns: AtomicU64::new(0),
        }
    }

    /// Whether the tier has tripped open (too many consecutive failures).
    pub fn is_down(&self) -> bool {
        self.lock().is_down()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ClientConn> {
        self.conn.lock().expect("remote connection lock")
    }

    /// Runs one interaction on the connection under its breaker.
    fn guarded<T>(
        &self,
        f: impl FnOnce(&mut ClientConn) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let mut conn = self.lock();
        let result = conn.guarded(f);
        self.turns.store(conn.round_trips(), Ordering::Relaxed);
        result
    }

    /// One request/response round trip under the breaker.
    fn round_trip(&self, req: &Request) -> Result<Response, WireError> {
        self.guarded(|conn| conn.exchange(req))
    }

    /// Size snapshot of the server's tiers plus its live load, if
    /// reachable.
    pub fn server_load(&self) -> Option<ServerLoad> {
        match self.round_trip(&Request::Stat2) {
            Ok(Response::ServerStats(load)) => Some(load),
            _ => None,
        }
    }

    /// Asks the server to evict down to `budget_bytes`. Deliberately *not*
    /// part of [`Store::gc`](crate::Store::gc) — evicting a fleet's shared
    /// cache is an explicit operator action, never a local side effect.
    pub fn gc_remote(&self, budget_bytes: u64) -> Option<GcReport> {
        match self.round_trip(&Request::Gc { budget_bytes }) {
            Ok(Response::Done(report)) => Some(report),
            _ => None,
        }
    }
}

impl StoreTier for RemoteTier {
    fn kind(&self) -> TierKind {
        TierKind::Remote
    }

    fn get_bytes(&self, ns: &str, key: ContentHash) -> TierLookup {
        match self.round_trip(&Request::Get2 {
            ns: ns.to_owned(),
            key,
        }) {
            Ok(Response::Hit(frame)) => TierLookup::Hit(frame),
            // Miss, refusal, protocol error, dead server: all misses.
            _ => TierLookup::Miss,
        }
    }

    fn get_bytes_batch(&self, items: &[(String, ContentHash)]) -> Vec<TierLookup> {
        let mut out = vec![TierLookup::Miss; items.len()];
        if items.is_empty() {
            return out;
        }
        let req = Request::GetBatch2 {
            items: items.to_vec(),
        };
        // Parts already received survive a mid-stream failure; the rest
        // stay misses, which the store recomputes byte-identically.
        let _ = self.guarded(|conn| {
            let tag = conn.send(std::slice::from_ref(&req))?;
            let mut budget = FrameBudget::new(MAX_CONN_INFLIGHT);
            loop {
                match conn.recv(&mut budget)? {
                    (t, Response::BatchPart { items: part, last }) if t == tag => {
                        for (idx, payload) in part {
                            if let (Some(slot), Some(p)) = (out.get_mut(idx as usize), payload) {
                                *slot = TierLookup::Hit(p);
                            }
                        }
                        if last {
                            return Ok(());
                        }
                    }
                    // A refusal is a healthy all-miss answer.
                    (t, Response::Failed(_)) if t == tag => return Ok(()),
                    _ => return Err(WireError::Malformed("unexpected batch response")),
                }
            }
        });
        out
    }

    /// Fire-and-forget within the [`PIPELINE_WINDOW`]: the ack is absorbed
    /// lazily. A lost write is never an error upstream.
    fn put_bytes(&self, ns: &str, key: ContentHash, payload: &[u8]) {
        let req = Request::Put2 {
            ns: ns.to_owned(),
            key,
            payload: payload.to_vec(),
        };
        let _ = self.guarded(|conn| {
            while conn.posted() >= PIPELINE_WINDOW {
                conn.absorb_posted()?;
            }
            conn.post(&req)
        });
    }

    /// Blocks until every fire-and-forgotten PUT has been acknowledged (or
    /// the connection fails, losing the best-effort writes). Callers that
    /// care about writes being durable-on-the-server before they exit or
    /// measure call this; nobody else pays for it.
    fn flush(&self) {
        if self.lock().posted() == 0 {
            return;
        }
        let _ = self.guarded(|conn| {
            while conn.posted() > 0 {
                conn.absorb_posted()?;
            }
            Ok(())
        });
    }

    fn round_trips(&self) -> u64 {
        self.turns.load(Ordering::Relaxed)
    }

    fn stats(&self) -> TierStats {
        let tiers = self.server_load().map(|load| load.tiers);
        TierStats {
            kind: TierKind::Remote,
            detail: self.addr.clone(),
            entries: tiers.iter().flatten().map(|t| t.entries).sum(),
            bytes: tiers.iter().flatten().map(|t| t.bytes).sum(),
            reachable: tiers.is_some(),
        }
    }

    /// No local bytes to evict; remote eviction is explicit via
    /// [`RemoteTier::gc_remote`].
    fn gc(&self, _budget_bytes: u64) -> GcReport {
        GcReport::default()
    }
}
