//! `rtlt-annotated` — the live annotation service and its session client.
//!
//! The paper's early-optimization loop, served over the wire: a designer's
//! editor OPENs a design, streams EDITs as line splices, and receives the
//! re-annotated source from ANNOTATE in one round trip. The service is a
//! [`Handler`] on the same nonblocking event loop as `rtlt-stored`
//! ([`rtlt_store::event_loop`]), with one addition: **deferred replies**. An
//! ANNOTATE does not compute inline (a cold pass on a large design would
//! starve every other session's tick); it enqueues a resumable
//! [`ReannotateJob`](crate::incremental::ReannotateJob) and the loop
//! advances every pending job by a bounded shard slice per tick,
//! round-robin. Every reply carries its request's tag, so a warm ANNOTATE
//! may overtake a cold one on the same connection.
//!
//! Every failure mode degrades exactly like the artifact store: a dead
//! server, a peer that does not serve sessions (which answers `Failed`),
//! or a refused edit all cause the [`LiveAnnotator`] to fall back to its
//! local [`IncrementalAnnotator`] — and because the service runs the
//! *same* resumable job pipeline over the *same* store keys, the fallback
//! is byte-identical, not merely equivalent.

use crate::incremental::{IncrementalAnnotator, ReannotateJob, ReannotateOutcome};
use crate::pipeline::{DesignData, RtlTimer, TimerConfig};
use rtlt_store::client::{ClientConn, Timeouts};
use rtlt_store::entry::fnv1a;
use rtlt_store::event_loop::{self, Gauges, Handler, LoopHandle, Outbox};
use rtlt_store::wire::{
    AnnotationReply, EditSplice, FrameBudget, Request, Response, WireError, MAX_CONN_INFLIGHT,
};
use rtlt_store::Store;
use rtlt_verilog::VerilogError;
use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Store-stats namespace the session client charges its wire round trips
/// to — `print_store_stats`-style tables then show EDIT→ANNOTATE
/// turnarounds alongside the artifact namespaces' traffic.
pub const SESSION_NS: &str = "session";

/// Default shard slice one pending re-annotation advances per event-loop
/// tick. Small enough that a cold 600-shard session cannot freeze a warm
/// 4-shard one behind it; large enough that slicing overhead (a map walk
/// per tick) stays invisible.
pub const DEFAULT_STEP_SHARDS: usize = 64;

/// Session-client socket timeouts. The read timeout is generous: a cold
/// first ANNOTATE legitimately computes for a while before its deferred
/// reply flushes.
const CLIENT_TIMEOUTS: Timeouts = Timeouts {
    connect: Duration::from_secs(2),
    read: Duration::from_secs(120),
    write: Duration::from_secs(10),
};

/// FNV-1a over the full source text — the cheap end-to-end check both
/// sides of an EDIT exchange use to prove their mirrors agree.
pub fn source_check(source: &str) -> u64 {
    fnv1a(source.as_bytes())
}

/// Splits `source` into lines *including* their terminators, so a splice
/// concatenation reproduces the original byte-for-byte (CRLF, missing
/// trailing newline and all).
fn split_lines(source: &str) -> Vec<&str> {
    source.split_inclusive('\n').collect()
}

/// Applies ordered, non-overlapping line splices to `source`. Returns
/// `None` when a splice is out of bounds, overlapping, or out of order —
/// the server refuses such an edit and keeps its mirror untouched.
pub fn apply_splices(source: &str, splices: &[EditSplice]) -> Option<String> {
    let lines = split_lines(source);
    let mut out = String::with_capacity(source.len());
    let mut cursor = 0usize;
    for s in splices {
        let at = usize::try_from(s.at).ok()?;
        let delete = usize::try_from(s.delete).ok()?;
        if at < cursor || at.checked_add(delete)? > lines.len() {
            return None;
        }
        for line in &lines[cursor..at] {
            out.push_str(line);
        }
        out.push_str(&s.insert);
        cursor = at + delete;
    }
    for line in &lines[cursor..] {
        out.push_str(line);
    }
    Some(out)
}

/// Computes the minimal single-hunk line diff from `old` to `new`: the
/// common prefix and suffix are kept, everything between travels as one
/// splice. Returns an empty vec when the texts are identical.
pub fn diff_splices(old: &str, new: &str) -> Vec<EditSplice> {
    if old == new {
        return Vec::new();
    }
    let a = split_lines(old);
    let b = split_lines(new);
    let mut prefix = 0;
    while prefix < a.len() && prefix < b.len() && a[prefix] == b[prefix] {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < a.len() - prefix
        && suffix < b.len() - prefix
        && a[a.len() - 1 - suffix] == b[b.len() - 1 - suffix]
    {
        suffix += 1;
    }
    vec![EditSplice {
        at: prefix as u64,
        delete: (a.len() - prefix - suffix) as u64,
        insert: b[prefix..b.len() - suffix].concat(),
    }]
}

/// The live annotation service's shared state: the trained model, the
/// artifact store every session reads its revisions' `blast` entries and
/// its first pass's prepared rows from, and a prototype annotator per
/// prepared design (OPEN clones it, so sessions start from the same
/// pinned clock and diff base as a local loop would).
pub struct LiveService {
    model: Arc<RtlTimer>,
    store: Store,
    bases: HashMap<String, (IncrementalAnnotator, String)>,
    step_shards: usize,
    next_session: u64,
    gauges: Gauges,
}

impl LiveService {
    /// Builds the service over prepared designs. `step_shards` bounds the
    /// per-tick slice of each pending re-annotation
    /// ([`DEFAULT_STEP_SHARDS`] is the production value).
    pub fn new(
        model: Arc<RtlTimer>,
        store: Store,
        bases: &[&DesignData],
        cfg: &TimerConfig,
        step_shards: usize,
    ) -> LiveService {
        let bases = bases
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    (IncrementalAnnotator::new(d, cfg), d.source.clone()),
                )
            })
            .collect();
        LiveService {
            model,
            store,
            bases,
            step_shards: step_shards.max(1),
            next_session: 1,
            gauges: Gauges::default(),
        }
    }

    /// Designs this service can OPEN.
    pub fn designs(&self) -> Vec<String> {
        let mut names: Vec<String> = self.bases.keys().cloned().collect();
        names.sort();
        names
    }

    fn open(&mut self, conn: &mut Sessions, design: String, source: String) -> Response {
        let Some((proto, base_source)) = self.bases.get(&design) else {
            return Response::Failed(format!("unknown design {design}"));
        };
        let id = self.next_session;
        self.next_session += 1;
        let source = if source.is_empty() {
            base_source.clone()
        } else {
            source
        };
        let check = source_check(&source);
        conn.open.insert(
            id,
            LiveSession {
                annotator: proto.clone(),
                source,
                revision: 0,
            },
        );
        Response::Session {
            session: id,
            revision: 0,
            check,
        }
    }
}

/// One server-side session: the per-design incremental annotator plus the
/// source mirror EDITs splice into.
struct LiveSession {
    annotator: IncrementalAnnotator,
    source: String,
    revision: u64,
}

/// The sessions and pending re-annotations of one connection: a dropped
/// editor drops its server-side state with it.
#[derive(Default)]
pub struct Sessions {
    open: HashMap<u64, LiveSession>,
    /// Pending ANNOTATEs in arrival order, each with the tag its reply
    /// goes out under.
    jobs: Vec<(u64, ReannotateJob)>,
}

impl Sessions {
    fn edit(&mut self, session: u64, splices: &[EditSplice], check: u64) -> Response {
        let Some(s) = self.open.get_mut(&session) else {
            return Response::Failed(format!("no session {session}"));
        };
        match apply_splices(&s.source, splices) {
            Some(next) if source_check(&next) == check => {
                s.source = next;
                s.revision += 1;
                Response::Session {
                    session,
                    revision: s.revision,
                    check,
                }
            }
            Some(_) => Response::Failed("edit check mismatch".to_owned()),
            None => Response::Failed("edit splices out of bounds".to_owned()),
        }
    }
}

impl Handler for LiveService {
    type Conn = Sessions;
    const NAME: &'static str = "rtlt-annotated";

    fn gauges(&self) -> &Gauges {
        &self.gauges
    }

    /// Never kills the connection: unknown designs, stale sessions and
    /// broken edits all answer `Failed` — the client's cue to degrade to
    /// its local annotator. ANNOTATE answers later, from `advance`.
    fn request(&mut self, conn: &mut Sessions, tag: u64, req: Request, out: &mut Outbox) {
        let resp = match req {
            Request::Open { design, source } => self.open(conn, design, source),
            Request::Edit {
                session,
                splices,
                check,
            } => conn.edit(session, &splices, check),
            Request::Annotate { session } => match conn.open.get_mut(&session) {
                Some(s) => match s.annotator.begin(&s.source, &self.store) {
                    Ok(job) => return conn.jobs.push((tag, job)),
                    Err(e) => Response::Failed(format!("edit error: {e}")),
                },
                None => Response::Failed(format!("no session {session}")),
            },
            Request::Close { session } => match conn.open.remove(&session) {
                Some(s) => Response::Session {
                    session,
                    revision: s.revision,
                    check: source_check(&s.source),
                },
                None => Response::Failed(format!("no session {session}")),
            },
            // A store request reaching the annotation service: refuse it
            // the way a store refuses session verbs — the remote tier
            // treats `Failed` as a miss and recomputes.
            _ => Response::Failed("rtlt-annotated serves sessions, not artifacts".into()),
        };
        out.send(tag, &resp);
    }

    /// Steps every pending job by one bounded slice, then finishes (and
    /// answers, under its tag) each job that completed.
    fn advance(&mut self, conn: &mut Sessions, out: &mut Outbox) -> bool {
        if conn.jobs.is_empty() {
            return false;
        }
        let mut finished = Vec::new();
        for (tag, mut job) in std::mem::take(&mut conn.jobs) {
            if job.step(&self.store, self.step_shards) {
                finished.push((tag, job));
            } else {
                conn.jobs.push((tag, job));
            }
        }
        for (tag, job) in finished {
            let out_pass = job.finish(&self.model, &self.store);
            let reply = Response::Annotation(AnnotationReply {
                annotated: out_pass.annotated,
                dirty_modules: out_pass.dirty_modules,
                dirty_cone_bound: out_pass.dirty_cone_bound.len() as u64,
                dirty_shards: out_pass.dirty_shards,
                reused_shards: out_pass.reused_shards,
                total_shards: out_pass.total_shards,
            });
            out.send(tag, &reply);
        }
        true
    }
}

/// Runs the live annotation service on the calling thread until `stop` is
/// set (see [`rtlt_store::event_loop::run`]).
///
/// # Panics
///
/// If the listener cannot be switched to nonblocking mode.
pub fn serve_until(listener: TcpListener, mut svc: LiveService, stop: &AtomicBool) {
    event_loop::run(listener, &mut svc, stop);
}

/// Handle to a [`spawn`]ed live service: the bound address plus a stop
/// flag that shuts the loop down within a tick; open connections drop and
/// clients degrade to local annotation.
pub type LiveHandle = LoopHandle;

/// Binds `addr` and serves the live annotation service on a background
/// thread.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn(addr: &str, svc: LiveService) -> std::io::Result<LiveHandle> {
    event_loop::spawn(addr, svc)
}

/// Session client on a [`ClientConn`]: lazy connect, the shared breaker,
/// and a source mirror kept in lockstep with the server through per-edit
/// FNV checks. An EDIT and its ANNOTATE are written in one write and both
/// replies read afterwards — one wire turnaround per edit.
pub struct SessionClient {
    design: String,
    conn: ClientConn,
    /// The open session and the source both sides agree on.
    session: Option<(u64, String)>,
}

impl SessionClient {
    /// A client for `design` on the service at `addr` (`host:port`). No
    /// connection is attempted until the first [`SessionClient::annotate`].
    pub fn new(addr: &str, design: &str) -> SessionClient {
        SessionClient {
            design: design.to_owned(),
            conn: ClientConn::new(addr, CLIENT_TIMEOUTS),
            session: None,
        }
    }

    /// Wire turnarounds paid so far (write→read transitions).
    pub fn round_trips(&self) -> u64 {
        self.conn.round_trips()
    }

    /// Annotates `source` remotely: reconnect + OPEN if needed, then
    /// EDIT + ANNOTATE in one write. `None` on any failure (dead server, a
    /// peer answering `Failed`, mirror divergence) — the caller falls back
    /// to its local annotator.
    pub fn annotate(&mut self, source: &str) -> Option<AnnotationReply> {
        let (design, session) = (&self.design, &mut self.session);
        // A session only survives successful exchanges, so one is open
        // exactly while its connection is.
        let result = self.conn.guarded(|conn| {
            let (id, mirror) = match session.take() {
                Some(open) => open,
                None => (open_session(conn, design, source)?, source.to_owned()),
            };
            let reply = edit_and_annotate(conn, id, &mirror, source)?;
            *session = Some((id, source.to_owned()));
            Ok(reply)
        });
        result.ok()
    }
}

/// OPENs a session seeded with the full current source, so both mirrors
/// provably agree.
fn open_session(conn: &mut ClientConn, design: &str, source: &str) -> Result<u64, WireError> {
    let open = Request::Open {
        design: design.to_owned(),
        source: source.to_owned(),
    };
    match conn.exchange(&open)? {
        Response::Session { session, check, .. } if check == source_check(source) => Ok(session),
        // `Failed` here is a peer that does not serve sessions (e.g. a
        // plain store) — same degrade as a dead server.
        _ => Err(WireError::Malformed("open refused")),
    }
}

/// Sends the mirror→source diff and an ANNOTATE in one write, then reads
/// both replies, matched by tag.
fn edit_and_annotate(
    conn: &mut ClientConn,
    session: u64,
    mirror: &str,
    source: &str,
) -> Result<AnnotationReply, WireError> {
    let check = source_check(source);
    let edit = conn.send(&[
        Request::Edit {
            session,
            splices: diff_splices(mirror, source),
            check,
        },
        Request::Annotate { session },
    ])?;
    let mut budget = FrameBudget::new(MAX_CONN_INFLIGHT);
    let (mut edited, mut annotation) = (false, None);
    for _ in 0..2 {
        match conn.recv(&mut budget)? {
            (t, Response::Session { check: c, .. }) if t == edit && c == check => edited = true,
            (t, Response::Annotation(reply)) if t == edit + 1 => annotation = Some(reply),
            _ => return Err(WireError::Malformed("edit or annotate refused")),
        }
    }
    annotation
        .filter(|_| edited)
        .ok_or(WireError::Malformed("edit or annotate refused"))
}

/// Result of one [`LiveAnnotator::reannotate`] pass, remote or degraded.
#[derive(Debug)]
pub struct LiveOutcome {
    /// The annotated source (byte-identical remote vs local).
    pub annotated: String,
    /// Modules whose text changed since the previous pass.
    pub dirty_modules: Vec<String>,
    /// Signals whose cone provenance may overlap the dirty modules.
    pub dirty_cone_bound: u64,
    /// Shards recomputed for this pass.
    pub dirty_shards: u64,
    /// Shards served from cache.
    pub reused_shards: u64,
    /// Total shard lookups (signals × variants).
    pub total_shards: u64,
    /// Whether the remote service produced this pass.
    pub remote: bool,
    /// Wire turnarounds paid for this pass (0 when local).
    pub round_trips: u64,
}

impl LiveOutcome {
    fn from_local(out: ReannotateOutcome) -> LiveOutcome {
        LiveOutcome {
            annotated: out.annotated,
            dirty_modules: out.dirty_modules,
            dirty_cone_bound: out.dirty_cone_bound.len() as u64,
            dirty_shards: out.dirty_shards,
            reused_shards: out.reused_shards,
            total_shards: out.total_shards,
            remote: false,
            round_trips: 0,
        }
    }
}

/// The designer-facing edit loop: a remote session when one is reachable,
/// the local [`IncrementalAnnotator`] otherwise — with the degrade being
/// byte-identical because both run the same resumable job pipeline. On a
/// remote success the local diff base is advanced
/// ([`IncrementalAnnotator::note_revision`]) so a later fallback diffs
/// against the revision the designer actually sees, and the turnarounds
/// paid are charged to the store's `session` namespace
/// ([`Store::charge_round_trips`]).
pub struct LiveAnnotator {
    local: IncrementalAnnotator,
    client: Option<SessionClient>,
}

impl LiveAnnotator {
    /// Local-only loop (no service configured).
    pub fn new(base: &DesignData, cfg: &TimerConfig) -> LiveAnnotator {
        LiveAnnotator {
            local: IncrementalAnnotator::new(base, cfg),
            client: None,
        }
    }

    /// Loop with a remote session against the service at `addr`.
    pub fn with_remote(base: &DesignData, cfg: &TimerConfig, addr: &str) -> LiveAnnotator {
        LiveAnnotator {
            local: IncrementalAnnotator::new(base, cfg),
            client: Some(SessionClient::new(addr, &base.name)),
        }
    }

    /// Re-annotates `source` — remotely in one EDIT→ANNOTATE round trip
    /// when the session is up, locally otherwise.
    ///
    /// # Errors
    ///
    /// Frontend errors from the local fallback (a broken edit the server
    /// refused fails locally with the real parse error).
    pub fn reannotate(
        &mut self,
        source: &str,
        model: &RtlTimer,
        store: &Store,
    ) -> Result<LiveOutcome, VerilogError> {
        if let Some(client) = self.client.as_mut() {
            let before = client.round_trips();
            if let Some(reply) = client.annotate(source) {
                let turns = client.round_trips() - before;
                store.charge_round_trips(SESSION_NS, turns);
                self.local.note_revision(source);
                return Ok(LiveOutcome {
                    annotated: reply.annotated,
                    dirty_modules: reply.dirty_modules,
                    dirty_cone_bound: reply.dirty_cone_bound,
                    dirty_shards: reply.dirty_shards,
                    reused_shards: reply.reused_shards,
                    total_shards: reply.total_shards,
                    remote: true,
                    round_trips: turns,
                });
            }
            store.charge_round_trips(SESSION_NS, client.round_trips() - before);
        }
        Ok(LiveOutcome::from_local(
            self.local.reannotate(source, model, store)?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_then_apply_reproduces_the_edit() {
        let cases = [
            ("a\nb\nc\n", "a\nB\nc\n"),
            ("a\nb\nc\n", "a\nb\nc\nd\n"),
            ("a\nb\nc\n", "b\nc\n"),
            ("a\nb\nc\n", ""),
            ("", "x\ny\n"),
            ("one\r\ntwo\r\n", "one\r\nTWO\r\n"),
            ("no trailing newline", "still no trailing newline"),
            ("a\nb", "a\nb\nc"),
            ("same\n", "same\n"),
            (
                "module m;\n  wire a;\n  wire b;\nendmodule\n",
                "module m;\n  wire a;\n  wire b2;\n  wire c;\nendmodule\n",
            ),
        ];
        for (old, new) in cases {
            let splices = diff_splices(old, new);
            if old == new {
                assert!(splices.is_empty(), "identical texts need no splice");
            }
            let applied = apply_splices(old, &splices).expect("apply");
            assert_eq!(applied, new, "diff({old:?} -> {new:?})");
            assert_eq!(source_check(&applied), source_check(new));
        }
    }

    #[test]
    fn bad_splices_are_refused_not_misapplied() {
        let src = "a\nb\nc\n";
        // Out of bounds.
        assert_eq!(
            apply_splices(
                src,
                &[EditSplice {
                    at: 2,
                    delete: 5,
                    insert: String::new(),
                }]
            ),
            None
        );
        // Out of order / overlapping.
        assert_eq!(
            apply_splices(
                src,
                &[
                    EditSplice {
                        at: 2,
                        delete: 1,
                        insert: String::new(),
                    },
                    EditSplice {
                        at: 0,
                        delete: 1,
                        insert: String::new(),
                    },
                ]
            ),
            None
        );
    }

    #[test]
    fn multi_splice_sequences_apply_in_order() {
        let src = "l0\nl1\nl2\nl3\nl4\n";
        let out = apply_splices(
            src,
            &[
                EditSplice {
                    at: 1,
                    delete: 1,
                    insert: "L1\n".into(),
                },
                EditSplice {
                    at: 3,
                    delete: 0,
                    insert: "inserted\n".into(),
                },
                EditSplice {
                    at: 4,
                    delete: 1,
                    insert: String::new(),
                },
            ],
        )
        .expect("apply");
        assert_eq!(out, "l0\nL1\nl2\ninserted\nl3\n");
    }
}
