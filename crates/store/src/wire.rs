//! Wire protocol of the `rtlt-stored` artifact service and the
//! `rtlt-annotated` session service.
//!
//! Length-prefixed binary frames over TCP, reusing the [`Enc`]/[`Dec`]
//! codec for frame bodies and stamping every frame with the pinned
//! [`FRAME_VERSION`]. Every exchange travels in a tagged envelope: a
//! request is an [`op::TAGGED`] frame wrapping the inner request, and each
//! response frame is an [`op::TAGGED_RESP`] frame carrying the same tag
//! (see [`tag_request`]/[`untag`]). One connection therefore carries many
//! in-flight exchanges, and responses are matched by tag, not by order.
//! Payloads are always [`crate::compress`] frames, moved opaquely.
//!
//! ```text
//! frame := magic "RTLW" (4) | version u32 | op u8 | body_len u64
//!          | body [body_len] | checksum u64 (FNV-1a of body)
//! tagged body := tag u64 | inner op u8 | inner body
//! ```
//!
//! Refusal rule for future verbs: a peer answers a bare (untagged) frame,
//! a retired inner opcode or an unknown one with [`Response::Failed`] on
//! the still-alive connection — bare for a bare frame, under the request's
//! tag otherwise. A client reads that as "this peer does not serve the
//! verb" and degrades (recompute, or annotate locally); nothing else is
//! negotiated, and the frame header never moves.
//!
//! Requests: [`Request::Get2`], [`Request::Put2`], [`Request::GetBatch2`],
//! [`Request::Stat2`], [`Request::Gc`], and the session verbs
//! [`Request::Open`], [`Request::Edit`], [`Request::Annotate`] and
//! [`Request::Close`].
//!
//! One request maps to one response frame — except [`Request::GetBatch2`],
//! which the server answers with a short stream of [`Response::BatchPart`]
//! frames (bounded chunks, the final one flagged `last`, every one under
//! the request's tag), so a whole prepare-key set pipelines through one
//! round trip without ever materializing an unbounded response body.
//!
//! Every defense the on-disk entry format has, the wire has too: bad
//! magic, version mismatch, oversized length headers (bounded by
//! [`MAX_FRAME_BODY`] *before* any allocation), truncation, and checksum
//! failures all surface as a typed [`WireError`]. On top of the per-frame
//! cap, multi-frame exchanges are bounded by a **cumulative** in-flight
//! byte budget ([`FrameBudget`]): a batch of individually-legal frames
//! cannot balloon past [`MAX_CONN_INFLIGHT`] on one connection.

use crate::codec::{Dec, Enc};
use crate::entry::fnv1a;
use crate::hash::ContentHash;
use crate::tier::{GcReport, TierKind, TierStats};
use crate::Codec;
use std::io::{Read, Write};

/// Magic bytes opening every wire frame (distinct from the disk entry
/// magic so a file can never be replayed as a frame by accident).
pub const WIRE_MAGIC: [u8; 4] = *b"RTLW";

/// Frame-header version stamped into every frame. Pinned at 2: the
/// header layout has not changed since, and bumping it would sever every
/// peer at the frame level (they error without answering) instead of
/// letting them refuse unknown verbs with `Failed`. It only moves when
/// the frame *byte layout* changes.
pub const FRAME_VERSION: u32 = 2;

/// Protocol generation of this build, reported in [`ServerLoad`]. Purely
/// informational — never stamped into frame headers. Generation 4 is the
/// single always-tagged protocol; the bare and encoding-tagged opcodes of
/// generations 1–3 are retired and refused.
pub const WIRE_VERSION: u32 = 4;

/// Upper bound on one frame's body, enforced before allocating: a corrupt
/// or hostile length header degrades to a protocol error, not an OOM.
pub const MAX_FRAME_BODY: u64 = 1 << 30;

/// Cumulative in-flight byte budget of one connection: bounds the *sum*
/// of frame bodies a reader accepts for one exchange (a
/// [`Request::GetBatch2`] response stream), where the per-frame
/// [`MAX_FRAME_BODY`] cap alone would still let a batch of maximum-size
/// frames balloon unboundedly. The event loop also stops reading a
/// connection whose unflushed replies exceed it.
pub const MAX_CONN_INFLIGHT: u64 = 1 << 30;

/// Upper bound on the number of keys in one [`Request::GetBatch2`].
pub const MAX_BATCH_KEYS: usize = 4096;

/// Soft flush threshold of one [`Response::BatchPart`]: the server packs
/// hits into a part until its payload bytes reach this, then starts the
/// next frame — large featurize payloads stream in bounded chunks instead
/// of one giant frame. (A single payload larger than the threshold still
/// travels whole; the per-frame and cumulative caps bound it.)
pub const MAX_BATCH_CHUNK: u64 = 4 << 20;

/// Upper bound on the number of line splices in one [`Request::Edit`].
/// An editor diff never needs more than one splice per changed hunk; a
/// frame above this is hostile or corrupt, not a big edit.
pub const MAX_EDIT_SPLICES: usize = 4096;

/// Fixed frame header size: magic + version + op + body length.
pub const FRAME_HEADER: usize = 4 + 4 + 1 + 8;

/// Opcodes. Request opcodes 1, 2, 3 and 5 and response opcode 0x84
/// belonged to retired generations, and request opcodes 6–9 and response
/// opcodes 0x86–0x88 to the retired fleet planner; they stay unassigned
/// and are refused like any unknown opcode.
pub mod op {
    /// Evict the server's tiers down to a budget.
    pub const GC: u8 = 4;
    /// Fetch a payload (a compress frame).
    pub const GET2: u8 = 10;
    /// Store a payload (a compress frame).
    pub const PUT2: u8 = 11;
    /// Fetch a batch of payloads in one round trip.
    pub const GETM2: u8 = 12;
    /// Envelope of every request: `tag u64 | inner op u8 | inner body`.
    /// The response(s) to the inner request come back wrapped in
    /// [`TAGGED_RESP`] envelopes carrying the same tag, so one connection
    /// holds many exchanges in flight at once.
    pub const TAGGED: u8 = 13;
    /// Server-load snapshot: tier stats plus connection and in-flight
    /// exchange gauges ([`super::Response::ServerStats`]).
    pub const STAT2: u8 = 14;
    /// Open a live annotation session on a design the service knows. An
    /// artifact store answers `FAILED`, which the session client takes as
    /// its cue to annotate locally.
    pub const OPEN: u8 = 15;
    /// Apply a line-splice diff to an open session's source mirror.
    pub const EDIT: u8 = 16;
    /// Re-annotate an open session's current source and return the
    /// annotated text in one round trip.
    pub const ANNOTATE: u8 = 17;
    /// Close a live annotation session.
    pub const CLOSE: u8 = 18;
    /// Response: payload attached.
    pub const HIT: u8 = 0x81;
    /// Response: key not held.
    pub const MISS: u8 = 0x82;
    /// Response: write/gc acknowledged.
    pub const DONE: u8 = 0x83;
    /// Response: one chunk of a batched fetch.
    pub const BATCH: u8 = 0x85;
    /// Response envelope matching a [`TAGGED`] request: `tag u64 | inner
    /// op u8 | inner body`.
    pub const TAGGED_RESP: u8 = 0x89;
    /// Response: server-load snapshot attached.
    pub const SERVERSTATS: u8 = 0x8A;
    /// Response: session acknowledged (OPEN / EDIT / CLOSE).
    pub const SESSION: u8 = 0x8B;
    /// Response: annotated source attached (ANNOTATE).
    pub const ANNOTATION: u8 = 0x8C;
    /// Response: request failed server-side.
    pub const FAILED: u8 = 0xFF;
}

/// Remaining cumulative byte allowance of one connection's in-flight
/// exchange. Each budgeted frame read charges its body length *before*
/// allocating; a sequence of individually-legal frames that would sum past
/// the budget is rejected at the first offending frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameBudget {
    remaining: u64,
}

impl FrameBudget {
    /// A fresh budget of `total` cumulative body bytes.
    pub fn new(total: u64) -> FrameBudget {
        FrameBudget { remaining: total }
    }

    /// Bytes still spendable.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    fn charge(&mut self, len: u64) -> Result<(), WireError> {
        if len > self.remaining {
            return Err(WireError::BudgetExceeded {
                asked: len,
                remaining: self.remaining,
            });
        }
        self.remaining -= len;
        Ok(())
    }
}

/// A protocol failure. The [`crate::RemoteTier`] client maps every variant
/// to a cache miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Underlying transport failure (connect/read/write), including
    /// truncated frames.
    Io(std::io::ErrorKind),
    /// The stream did not start with [`WIRE_MAGIC`].
    BadMagic,
    /// Peer stamps a different [`FRAME_VERSION`].
    Version(u32),
    /// Length header exceeds [`MAX_FRAME_BODY`].
    Oversized(u64),
    /// A frame's body would push the exchange past its cumulative
    /// [`FrameBudget`] — individually legal, collectively ballooning.
    BudgetExceeded {
        /// Body length the frame asked for.
        asked: u64,
        /// Budget that was left.
        remaining: u64,
    },
    /// Body checksum mismatch.
    Checksum,
    /// Body did not decode as the expected request/response shape.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(kind) => write!(f, "wire i/o error: {kind:?}"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::Version(v) => {
                write!(f, "peer frame version {v} != ours {FRAME_VERSION}")
            }
            WireError::Oversized(n) => {
                write!(
                    f,
                    "frame body of {n} bytes exceeds the {MAX_FRAME_BODY} cap"
                )
            }
            WireError::BudgetExceeded { asked, remaining } => {
                write!(
                    f,
                    "frame body of {asked} bytes exceeds the exchange's remaining \
                     in-flight budget of {remaining} bytes"
                )
            }
            WireError::Checksum => write!(f, "frame checksum mismatch"),
            WireError::Malformed(what) => write!(f, "malformed frame body: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e.kind())
    }
}

/// One raw frame: opcode plus body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Opcode (see [`op`]).
    pub op: u8,
    /// Body bytes (request/response specific).
    pub body: Vec<u8>,
}

impl Frame {
    /// Serializes the frame (header, body, checksum).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(FRAME_HEADER + self.body.len() + 8);
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        bytes.push(self.op);
        bytes.extend_from_slice(&(self.body.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&self.body);
        bytes.extend_from_slice(&fnv1a(&self.body).to_le_bytes());
        bytes
    }

    /// Writes the frame to a stream.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), WireError> {
        w.write_all(&self.to_bytes())?;
        w.flush()?;
        Ok(())
    }

    /// Reads one frame, validating magic, version, length bound and
    /// checksum.
    ///
    /// # Errors
    ///
    /// Any [`WireError`]; truncation surfaces as
    /// [`WireError::Io`]`(UnexpectedEof)`.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Frame, WireError> {
        Self::read_budgeted(r, &mut FrameBudget::new(u64::MAX))
    }

    /// Like [`Frame::read_from`], but charges the body length against the
    /// exchange's cumulative [`FrameBudget`] before allocating.
    ///
    /// # Errors
    ///
    /// Any [`WireError`], including [`WireError::BudgetExceeded`].
    pub fn read_budgeted<R: Read>(r: &mut R, budget: &mut FrameBudget) -> Result<Frame, WireError> {
        let mut header = [0u8; FRAME_HEADER];
        r.read_exact(&mut header)?;
        let (op, len) = parse_header(&header)?;
        // Charged before the allocation below, for the same reason the
        // per-frame cap is: the budget defends the reader's memory.
        budget.charge(len)?;
        let mut body = vec![0u8; len as usize];
        r.read_exact(&mut body)?;
        let mut trailer = [0u8; 8];
        r.read_exact(&mut trailer)?;
        if fnv1a(&body) != u64::from_le_bytes(trailer) {
            return Err(WireError::Checksum);
        }
        Ok(Frame { op, body })
    }
}

/// Validates a frame header — magic, version, and the length bound, before
/// any body is allocated or buffered — and returns its opcode and body
/// length.
fn parse_header(header: &[u8]) -> Result<(u8, u64), WireError> {
    if header[..4] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != FRAME_VERSION {
        return Err(WireError::Version(version));
    }
    let len = u64::from_le_bytes(header[9..17].try_into().expect("8 bytes"));
    if len > MAX_FRAME_BODY {
        return Err(WireError::Oversized(len));
    }
    Ok((header[8], len))
}

/// Wraps a request frame in the multiplexing envelope: the
/// returned [`op::TAGGED`] frame carries `tag`, the inner opcode and the
/// inner body. The server answers with one or more [`op::TAGGED_RESP`]
/// frames carrying the same tag.
pub fn tag_request(tag: u64, inner: &Frame) -> Frame {
    tag_with(op::TAGGED, tag, inner)
}

/// Wraps a response frame in a [`op::TAGGED_RESP`] envelope carrying
/// `tag` — the server side of [`tag_request`].
pub fn tag_response(tag: u64, inner: &Frame) -> Frame {
    tag_with(op::TAGGED_RESP, tag, inner)
}

fn tag_with(envelope_op: u8, tag: u64, inner: &Frame) -> Frame {
    let mut body = Vec::with_capacity(8 + 1 + inner.body.len());
    body.extend_from_slice(&tag.to_le_bytes());
    body.push(inner.op);
    body.extend_from_slice(&inner.body);
    Frame {
        op: envelope_op,
        body,
    }
}

/// Unwraps a [`op::TAGGED`]/[`op::TAGGED_RESP`] envelope into its tag and
/// inner frame.
///
/// # Errors
///
/// [`WireError::Malformed`] when `frame` is not an envelope or its body is
/// too short to carry a tag and an inner opcode.
pub fn untag(frame: &Frame) -> Result<(u64, Frame), WireError> {
    if frame.op != op::TAGGED && frame.op != op::TAGGED_RESP {
        return Err(WireError::Malformed("not a tagged envelope"));
    }
    if frame.body.len() < 9 {
        return Err(WireError::Malformed("tagged envelope too short"));
    }
    let tag = u64::from_le_bytes(frame.body[..8].try_into().expect("8 bytes"));
    Ok((
        tag,
        Frame {
            op: frame.body[8],
            body: frame.body[9..].to_vec(),
        },
    ))
}

/// Incremental frame parser over a growing byte buffer — the nonblocking
/// event loop's (and any buffer-driven transport's) replacement for the
/// blocking [`Frame::read_from`]. Bytes arrive in arbitrary chunks via
/// [`FrameReassembler::ingest`]; [`FrameReassembler::next_frame`] yields
/// each complete frame and `Ok(None)` while a frame is still partial,
/// applying exactly the header checks the blocking reader does (magic,
/// version, length bound *before* the body is even buffered, checksum).
#[derive(Debug, Default)]
pub struct FrameReassembler {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameReassembler {
    /// An empty reassembler.
    pub fn new() -> FrameReassembler {
        FrameReassembler::default()
    }

    /// Appends freshly-read bytes to the buffer.
    pub fn ingest(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `pos` was already
        // consumed by returned frames.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > (64 << 10)) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Parses the next complete frame out of the buffer. `Ok(None)` means
    /// "need more bytes" — a partial header or partial body is not an
    /// error until the connection itself ends.
    ///
    /// # Errors
    ///
    /// The same header/checksum failures as [`Frame::read_from`]; the
    /// connection that produced them should be dropped, since the stream
    /// can no longer be framed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < FRAME_HEADER {
            return Ok(None);
        }
        // Validate the header before waiting for (or buffering) a body:
        // a corrupt length field must fail now, not after a gigabyte of
        // "body" accumulates.
        let (op, len) = parse_header(&avail[..FRAME_HEADER])?;
        let total = FRAME_HEADER + len as usize + 8;
        if avail.len() < total {
            return Ok(None);
        }
        let body = &avail[FRAME_HEADER..FRAME_HEADER + len as usize];
        let trailer = &avail[FRAME_HEADER + len as usize..total];
        if fnv1a(body) != u64::from_le_bytes(trailer.try_into().expect("8 bytes")) {
            return Err(WireError::Checksum);
        }
        let frame = Frame {
            op,
            body: body.to_vec(),
        };
        self.pos += total;
        Ok(Some(frame))
    }
}

fn enc_payload(e: &mut Enc, payload: &[u8]) {
    e.usize(payload.len());
    e.raw(payload);
}

fn dec_payload(d: &mut Dec<'_>) -> Result<Vec<u8>, WireError> {
    let n = d.usize().map_err(|_| WireError::Malformed("payload len"))?;
    if n > d.remaining() {
        return Err(WireError::Malformed("payload len"));
    }
    Ok(d.raw(n)
        .map_err(|_| WireError::Malformed("payload"))?
        .to_vec())
}

/// Load snapshot of an `rtlt-stored` server, answered to
/// [`Request::Stat2`]: its tier sizes plus the event loop's connection and
/// in-flight gauges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerLoad {
    /// Size snapshots of the server's tiers, in fallback order.
    pub tiers: Vec<TierStats>,
    /// Connections currently open on the event loop.
    pub connections: u64,
    /// Exchanges accepted but not yet fully flushed back to their peers.
    pub inflight: u64,
    /// Protocol generation of the server build ([`WIRE_VERSION`]).
    pub wire_version: u32,
}

/// One contiguous line replacement of a [`Request::Edit`]: delete
/// `delete` lines starting at line index `at` (0-based, lines including
/// their terminators) and insert `insert` verbatim in their place.
/// Splices in one edit are ordered by `at` and non-overlapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditSplice {
    /// 0-based index of the first replaced line.
    pub at: u64,
    /// Number of lines deleted at `at`.
    pub delete: u64,
    /// Replacement text, inserted verbatim (may span many lines).
    pub insert: String,
}

/// Body of a [`Response::Annotation`]: the re-annotated source plus the
/// same invalidation accounting a local
/// `IncrementalAnnotator::reannotate` reports, so remote and local passes
/// are comparable field by field.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationReply {
    /// The fully annotated source text.
    pub annotated: String,
    /// Modules whose text changed since the previous revision.
    pub dirty_modules: Vec<String>,
    /// Signals whose cones may overlap the dirty modules.
    pub dirty_cone_bound: u64,
    /// Cone shards recomputed for this pass.
    pub dirty_shards: u64,
    /// Cone shards served from cache.
    pub reused_shards: u64,
    /// Total shards the design evaluates (signals × variants).
    pub total_shards: u64,
}

/// A client→server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Server-load snapshot ([`ServerLoad`]): tier sizes plus connection
    /// and in-flight gauges.
    Stat2,
    /// Evict the server's tiers down to `budget_bytes`.
    Gc {
        /// Target size in bytes.
        budget_bytes: u64,
    },
    /// Fetch the compress frame under `(ns, key)`.
    Get2 {
        /// Stage namespace.
        ns: String,
        /// Content key.
        key: ContentHash,
    },
    /// Store the compress frame `payload` under `(ns, key)`.
    Put2 {
        /// Stage namespace.
        ns: String,
        /// Content key.
        key: ContentHash,
        /// Payload bytes (a compress frame).
        payload: Vec<u8>,
    },
    /// Fetch the compress frames under a whole `(ns, key)` set in one
    /// round trip. Answered by a stream of [`Response::BatchPart`] frames.
    GetBatch2 {
        /// `(namespace, key)` pairs, at most [`MAX_BATCH_KEYS`].
        items: Vec<(String, ContentHash)>,
    },
    /// Open a live annotation session on `design`. The service must
    /// already hold a prepared base for the design; `source` seeds the
    /// session's source mirror (empty = use the service's base source).
    /// Answered by [`Response::Session`]. Peers without session support
    /// answer `Failed` and the client annotates locally.
    Open {
        /// Design name, as prepared on the service.
        design: String,
        /// Initial source text ("" = service's base source).
        source: String,
    },
    /// Apply `splices` to session `session`'s source mirror. `check` is
    /// the FNV-1a hash of the full post-edit source; a mismatch (client
    /// and server mirrors diverged) refuses the edit and leaves the
    /// session's source untouched. Answered by [`Response::Session`].
    Edit {
        /// Session id from [`Response::Session`].
        session: u64,
        /// Ordered, non-overlapping line splices.
        splices: Vec<EditSplice>,
        /// FNV-1a of the expected post-edit source.
        check: u64,
    },
    /// Re-annotate session `session`'s current source. Answered by
    /// [`Response::Annotation`] once the (chunked, fair-scheduled)
    /// re-annotation completes.
    Annotate {
        /// Session id from [`Response::Session`].
        session: u64,
    },
    /// Close session `session`, dropping its server-side state.
    /// Answered by [`Response::Session`] (final revision).
    Close {
        /// Session id from [`Response::Session`].
        session: u64,
    },
}

impl Request {
    /// Serializes into a frame.
    pub fn to_frame(&self) -> Frame {
        let mut e = Enc::new();
        let op = match self {
            Request::Stat2 => op::STAT2,
            Request::Gc { budget_bytes } => {
                e.u64(*budget_bytes);
                op::GC
            }
            Request::Get2 { ns, key } => {
                e.str(ns);
                key.encode(&mut e);
                op::GET2
            }
            Request::Put2 { ns, key, payload } => {
                e.str(ns);
                key.encode(&mut e);
                enc_payload(&mut e, payload);
                op::PUT2
            }
            Request::GetBatch2 { items } => {
                e.seq_len(items.len());
                for (ns, key) in items {
                    e.str(ns);
                    key.encode(&mut e);
                }
                op::GETM2
            }
            Request::Open { design, source } => {
                e.str(design);
                e.str(source);
                op::OPEN
            }
            Request::Edit {
                session,
                splices,
                check,
            } => {
                e.u64(*session);
                e.u64(*check);
                e.seq_len(splices.len());
                for s in splices {
                    e.u64(s.at);
                    e.u64(s.delete);
                    e.str(&s.insert);
                }
                op::EDIT
            }
            Request::Annotate { session } => {
                e.u64(*session);
                op::ANNOTATE
            }
            Request::Close { session } => {
                e.u64(*session);
                op::CLOSE
            }
        };
        Frame {
            op,
            body: e.into_bytes(),
        }
    }

    /// Parses a request frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for unknown opcodes or bodies that do not
    /// decode as the opcode's shape.
    pub fn from_frame(frame: &Frame) -> Result<Request, WireError> {
        let mut d = Dec::new(&frame.body);
        let req = match frame.op {
            op::STAT2 => Request::Stat2,
            op::GC => Request::Gc {
                budget_bytes: d.u64().map_err(|_| WireError::Malformed("gc budget"))?,
            },
            op::GET2 => Request::Get2 {
                ns: d.str().map_err(|_| WireError::Malformed("get ns"))?,
                key: ContentHash::decode(&mut d).map_err(|_| WireError::Malformed("get key"))?,
            },
            op::PUT2 => Request::Put2 {
                ns: d.str().map_err(|_| WireError::Malformed("put ns"))?,
                key: ContentHash::decode(&mut d).map_err(|_| WireError::Malformed("put key"))?,
                payload: dec_payload(&mut d)?,
            },
            op::GETM2 => {
                let n = d
                    .seq_len(1 + 32)
                    .map_err(|_| WireError::Malformed("batch len"))?;
                if n > MAX_BATCH_KEYS {
                    return Err(WireError::Malformed("batch key count"));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let ns = d.str().map_err(|_| WireError::Malformed("batch ns"))?;
                    let key = ContentHash::decode(&mut d)
                        .map_err(|_| WireError::Malformed("batch key"))?;
                    items.push((ns, key));
                }
                Request::GetBatch2 { items }
            }
            op::OPEN => Request::Open {
                design: d.str().map_err(|_| WireError::Malformed("open design"))?,
                source: d.str().map_err(|_| WireError::Malformed("open source"))?,
            },
            op::EDIT => {
                let session = d.u64().map_err(|_| WireError::Malformed("edit session"))?;
                let check = d.u64().map_err(|_| WireError::Malformed("edit check"))?;
                let n = d
                    .seq_len(8 + 8 + 4)
                    .map_err(|_| WireError::Malformed("edit len"))?;
                if n > MAX_EDIT_SPLICES {
                    return Err(WireError::Malformed("edit splice count"));
                }
                let mut splices = Vec::with_capacity(n);
                for _ in 0..n {
                    let at = d.u64().map_err(|_| WireError::Malformed("splice at"))?;
                    let delete = d.u64().map_err(|_| WireError::Malformed("splice delete"))?;
                    let insert = d.str().map_err(|_| WireError::Malformed("splice insert"))?;
                    splices.push(EditSplice { at, delete, insert });
                }
                Request::Edit {
                    session,
                    splices,
                    check,
                }
            }
            op::ANNOTATE => Request::Annotate {
                session: d
                    .u64()
                    .map_err(|_| WireError::Malformed("annotate session"))?,
            },
            op::CLOSE => Request::Close {
                session: d.u64().map_err(|_| WireError::Malformed("close session"))?,
            },
            _ => return Err(WireError::Malformed("request opcode")),
        };
        if !d.is_finished() {
            return Err(WireError::Malformed("trailing request bytes"));
        }
        Ok(req)
    }
}

/// A server→client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The key was held; payload attached.
    Hit(Vec<u8>),
    /// The key was not held.
    Miss,
    /// One chunk of a [`Request::GetBatch2`] answer: `(index, payload)`
    /// pairs by request position (`None` = that key missed). The final
    /// chunk of the stream is flagged `last`.
    BatchPart {
        /// `(request index, payload-or-miss)` pairs of this chunk.
        items: Vec<(u64, Option<Vec<u8>>)>,
        /// Whether this is the stream's final chunk.
        last: bool,
    },
    /// Write/gc acknowledged; gc responses carry the eviction report.
    Done(GcReport),
    /// Server-load snapshot ([`Request::Stat2`]).
    ServerStats(ServerLoad),
    /// A session verb was acknowledged (OPEN / EDIT / CLOSE).
    Session {
        /// Session id (allocated by OPEN, echoed afterwards).
        session: u64,
        /// Edit revision of the session's source mirror (0 after OPEN,
        /// bumped by every accepted EDIT).
        revision: u64,
        /// FNV-1a of the server's current session source — lets the
        /// client verify both mirrors agree without re-sending the text.
        check: u64,
    },
    /// The annotated source for a completed ANNOTATE.
    Annotation(AnnotationReply),
    /// The request failed or was refused server-side (the client treats
    /// this as a miss, or annotates locally).
    Failed(String),
}

fn enc_tier_kind(e: &mut Enc, kind: TierKind) {
    e.u8(match kind {
        TierKind::Memory => 0,
        TierKind::Disk => 1,
        TierKind::Remote => 2,
    });
}

fn dec_tier_kind(d: &mut Dec<'_>) -> Result<TierKind, WireError> {
    match d.u8().map_err(|_| WireError::Malformed("tier kind"))? {
        0 => Ok(TierKind::Memory),
        1 => Ok(TierKind::Disk),
        2 => Ok(TierKind::Remote),
        _ => Err(WireError::Malformed("tier kind tag")),
    }
}

fn enc_tier_stats(e: &mut Enc, tiers: &[TierStats]) {
    e.seq_len(tiers.len());
    for t in tiers {
        enc_tier_kind(e, t.kind);
        e.str(&t.detail);
        e.u64(t.entries);
        e.u64(t.bytes);
        e.bool(t.reachable);
    }
}

fn dec_tier_stats(d: &mut Dec<'_>) -> Result<Vec<TierStats>, WireError> {
    let n = d
        .seq_len(2)
        .map_err(|_| WireError::Malformed("stats len"))?;
    let mut tiers = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = dec_tier_kind(d)?;
        let detail = d.str().map_err(|_| WireError::Malformed("tier detail"))?;
        let entries = d.u64().map_err(|_| WireError::Malformed("tier entries"))?;
        let bytes = d.u64().map_err(|_| WireError::Malformed("tier bytes"))?;
        let reachable = d.bool().map_err(|_| WireError::Malformed("tier flag"))?;
        tiers.push(TierStats {
            kind,
            detail,
            entries,
            bytes,
            reachable,
        });
    }
    Ok(tiers)
}

impl Response {
    /// Serializes into a frame.
    pub fn to_frame(&self) -> Frame {
        let mut e = Enc::new();
        let op = match self {
            Response::Hit(payload) => {
                enc_payload(&mut e, payload);
                op::HIT
            }
            Response::Miss => op::MISS,
            Response::BatchPart { items, last } => {
                e.bool(*last);
                e.seq_len(items.len());
                for (idx, payload) in items {
                    e.u64(*idx);
                    match payload {
                        Some(p) => {
                            e.bool(true);
                            enc_payload(&mut e, p);
                        }
                        None => e.bool(false),
                    }
                }
                op::BATCH
            }
            Response::Done(r) => {
                e.u64(r.scanned_files);
                e.u64(r.scanned_bytes);
                e.u64(r.evicted_files);
                e.u64(r.evicted_bytes);
                e.u64(r.remaining_bytes);
                op::DONE
            }
            Response::ServerStats(load) => {
                enc_tier_stats(&mut e, &load.tiers);
                e.u64(load.connections);
                e.u64(load.inflight);
                e.u32(load.wire_version);
                op::SERVERSTATS
            }
            Response::Session {
                session,
                revision,
                check,
            } => {
                e.u64(*session);
                e.u64(*revision);
                e.u64(*check);
                op::SESSION
            }
            Response::Annotation(a) => {
                e.str(&a.annotated);
                e.seq_len(a.dirty_modules.len());
                for m in &a.dirty_modules {
                    e.str(m);
                }
                e.u64(a.dirty_cone_bound);
                e.u64(a.dirty_shards);
                e.u64(a.reused_shards);
                e.u64(a.total_shards);
                op::ANNOTATION
            }
            Response::Failed(msg) => {
                e.str(msg);
                op::FAILED
            }
        };
        Frame {
            op,
            body: e.into_bytes(),
        }
    }

    /// Parses a response frame.
    ///
    /// # Errors
    ///
    /// [`WireError::Malformed`] for unknown opcodes or mis-shaped bodies.
    pub fn from_frame(frame: &Frame) -> Result<Response, WireError> {
        let mut d = Dec::new(&frame.body);
        let resp = match frame.op {
            op::HIT => Response::Hit(dec_payload(&mut d)?),
            op::MISS => Response::Miss,
            op::BATCH => {
                let last = d.bool().map_err(|_| WireError::Malformed("batch last"))?;
                let n = d
                    .seq_len(8 + 1)
                    .map_err(|_| WireError::Malformed("batch part len"))?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    let idx = d.u64().map_err(|_| WireError::Malformed("batch idx"))?;
                    let hit = d.bool().map_err(|_| WireError::Malformed("batch flag"))?;
                    let payload = if hit {
                        Some(dec_payload(&mut d)?)
                    } else {
                        None
                    };
                    items.push((idx, payload));
                }
                Response::BatchPart { items, last }
            }
            op::DONE => {
                let mut next = || d.u64().map_err(|_| WireError::Malformed("gc report"));
                Response::Done(GcReport {
                    scanned_files: next()?,
                    scanned_bytes: next()?,
                    evicted_files: next()?,
                    evicted_bytes: next()?,
                    remaining_bytes: next()?,
                })
            }
            op::SERVERSTATS => Response::ServerStats(ServerLoad {
                tiers: dec_tier_stats(&mut d)?,
                connections: d.u64().map_err(|_| WireError::Malformed("connections"))?,
                inflight: d.u64().map_err(|_| WireError::Malformed("inflight"))?,
                wire_version: d.u32().map_err(|_| WireError::Malformed("wire version"))?,
            }),
            op::SESSION => Response::Session {
                session: d.u64().map_err(|_| WireError::Malformed("session id"))?,
                revision: d
                    .u64()
                    .map_err(|_| WireError::Malformed("session revision"))?,
                check: d.u64().map_err(|_| WireError::Malformed("session check"))?,
            },
            op::ANNOTATION => {
                let annotated = d
                    .str()
                    .map_err(|_| WireError::Malformed("annotation text"))?;
                let n = d
                    .seq_len(8)
                    .map_err(|_| WireError::Malformed("annotation modules len"))?;
                let mut dirty_modules = Vec::with_capacity(n);
                for _ in 0..n {
                    dirty_modules.push(
                        d.str()
                            .map_err(|_| WireError::Malformed("annotation module"))?,
                    );
                }
                let mut next = || {
                    d.u64()
                        .map_err(|_| WireError::Malformed("annotation counters"))
                };
                Response::Annotation(AnnotationReply {
                    annotated,
                    dirty_modules,
                    dirty_cone_bound: next()?,
                    dirty_shards: next()?,
                    reused_shards: next()?,
                    total_shards: next()?,
                })
            }
            op::FAILED => {
                Response::Failed(d.str().map_err(|_| WireError::Malformed("error message"))?)
            }
            _ => return Err(WireError::Malformed("response opcode")),
        };
        if !d.is_finished() {
            return Err(WireError::Malformed("trailing response bytes"));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::KeyBuilder;

    fn frame_round_trip(frame: &Frame) -> Frame {
        let bytes = frame.to_bytes();
        Frame::read_from(&mut bytes.as_slice()).expect("round trip")
    }

    #[test]
    fn request_frames_round_trip() {
        let key = KeyBuilder::new("wire").u64(1).finish();
        for req in [
            Request::Stat2,
            Request::Gc { budget_bytes: 42 },
            Request::Get2 {
                ns: "featurize".into(),
                key,
            },
            Request::Put2 {
                ns: "blast".into(),
                key,
                payload: vec![0, 99, 1, 255],
            },
            Request::Put2 {
                ns: "empty".into(),
                key,
                payload: Vec::new(),
            },
            Request::GetBatch2 {
                items: vec![("featurize".into(), key), ("blast".into(), key)],
            },
            Request::GetBatch2 { items: Vec::new() },
            Request::Open {
                design: "hier_soc".into(),
                source: "module top; endmodule\n".into(),
            },
            Request::Open {
                design: "hier_soc".into(),
                source: String::new(),
            },
            Request::Edit {
                session: 7,
                splices: vec![
                    EditSplice {
                        at: 0,
                        delete: 2,
                        insert: "wire x;\n".into(),
                    },
                    EditSplice {
                        at: 5,
                        delete: 0,
                        insert: String::new(),
                    },
                ],
                check: 0xFEED_FACE,
            },
            Request::Edit {
                session: 0,
                splices: Vec::new(),
                check: 0,
            },
            Request::Annotate { session: 9 },
            Request::Close { session: u64::MAX },
        ] {
            let frame = req.to_frame();
            let back = Request::from_frame(&frame_round_trip(&frame)).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn retired_and_unknown_opcodes_are_malformed() {
        // The retired bare-payload opcodes (GET, PUT, STAT, GETM), the
        // retired planner verbs (LEASE, REPORT, PLAN, PLANSTAT), a nested
        // envelope and a future verb all fail to decode as a request; the
        // event loop answers each with `Failed` under its tag.
        for opcode in [1u8, 2, 3, 5, 6, 7, 8, 9, op::TAGGED, 19, 0x7F] {
            let frame = Frame {
                op: opcode,
                body: Vec::new(),
            };
            assert_eq!(
                Request::from_frame(&frame),
                Err(WireError::Malformed("request opcode")),
                "op {opcode}"
            );
        }
        // Nor are the retired STATS and planner (LEASED, DRAINED,
        // PLANSTATS) response opcodes responses.
        for opcode in [0x84u8, 0x86, 0x87, 0x88] {
            let frame = Frame {
                op: opcode,
                body: Vec::new(),
            };
            assert_eq!(
                Response::from_frame(&frame),
                Err(WireError::Malformed("response opcode")),
                "op {opcode:#x}"
            );
        }
    }

    #[test]
    fn response_frames_round_trip() {
        for resp in [
            Response::Hit(vec![9; 100]),
            Response::Miss,
            Response::Done(GcReport {
                scanned_files: 1,
                scanned_bytes: 2,
                evicted_files: 3,
                evicted_bytes: 4,
                remaining_bytes: 5,
            }),
            Response::ServerStats(ServerLoad {
                tiers: vec![TierStats {
                    kind: TierKind::Memory,
                    detail: "mem".into(),
                    entries: 3,
                    bytes: 4096,
                    reachable: true,
                }],
                connections: 5,
                inflight: 2,
                wire_version: WIRE_VERSION,
            }),
            Response::BatchPart {
                items: vec![(0, Some(vec![1, 2, 3])), (1, None), (7, Some(Vec::new()))],
                last: false,
            },
            Response::BatchPart {
                items: Vec::new(),
                last: true,
            },
            Response::Session {
                session: 3,
                revision: 12,
                check: 0xABCD,
            },
            Response::Annotation(AnnotationReply {
                annotated: "// slack -0.1\nmodule top; endmodule\n".into(),
                dirty_modules: vec!["lane3".into(), "lane4".into()],
                dirty_cone_bound: 9,
                dirty_shards: 4,
                reused_shards: 144,
                total_shards: 148,
            }),
            Response::Annotation(AnnotationReply {
                annotated: String::new(),
                dirty_modules: Vec::new(),
                dirty_cone_bound: 0,
                dirty_shards: 0,
                reused_shards: 0,
                total_shards: 0,
            }),
            Response::Failed("nope".into()),
        ] {
            let frame = resp.to_frame();
            let back = Response::from_frame(&frame_round_trip(&frame)).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn session_frames_reject_truncation_and_splice_floods() {
        // Every strict prefix of an EDIT body fails to decode — a cut
        // anywhere in the splice list is a malformed frame, never a
        // shorter edit.
        let edit = Request::Edit {
            session: 1,
            splices: vec![EditSplice {
                at: 3,
                delete: 1,
                insert: "assign y = x ^ (x >> 3);\n".into(),
            }],
            check: 42,
        }
        .to_frame();
        for cut in 0..edit.body.len() {
            let trimmed = Frame {
                op: op::EDIT,
                body: edit.body[..cut].to_vec(),
            };
            assert!(Request::from_frame(&trimmed).is_err(), "cut {cut}");
        }
        // Trailing bytes after a well-formed body are rejected too.
        let mut padded = edit.body.clone();
        padded.push(0);
        assert_eq!(
            Request::from_frame(&Frame {
                op: op::EDIT,
                body: padded,
            }),
            Err(WireError::Malformed("trailing request bytes"))
        );
        // A splice count above the cap is refused before any allocation,
        // whether the body backs it or not.
        let mut e = Enc::new();
        e.u64(1);
        e.u64(0);
        e.seq_len(MAX_EDIT_SPLICES + 1);
        assert!(matches!(
            Request::from_frame(&Frame {
                op: op::EDIT,
                body: e.into_bytes(),
            }),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn session_opcodes_sit_in_the_negotiable_range() {
        // Peers without session support answer unknown opcodes with
        // `Failed` on a live connection; the session verbs rely on that.
        // A header version bump would instead kill the connection.
        for req in [
            Request::Open {
                design: "d".into(),
                source: String::new(),
            },
            Request::Annotate { session: 0 },
        ] {
            let frame = req.to_frame();
            assert!(frame.op > op::STAT2, "session verbs extend the range");
            // The frame itself reads fine under the pinned header version.
            assert_eq!(frame_round_trip(&frame), frame);
        }
    }

    #[test]
    fn oversized_batch_request_is_malformed() {
        // A well-formed GETM with one key too many is rejected at decode,
        // before any per-key work.
        let key = KeyBuilder::new("wire").u64(9).finish();
        let frame = Request::GetBatch2 {
            items: (0..=MAX_BATCH_KEYS).map(|_| (String::new(), key)).collect(),
        }
        .to_frame();
        assert_eq!(
            Request::from_frame(&frame),
            Err(WireError::Malformed("batch key count"))
        );
        // A lying length header with no body behind it fails even earlier,
        // at the sequence-length sanity check.
        let mut e = Enc::new();
        e.seq_len(MAX_BATCH_KEYS + 1);
        let lying = Frame {
            op: op::GETM2,
            body: e.into_bytes(),
        };
        assert!(matches!(
            Request::from_frame(&lying),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn frame_budget_bounds_cumulative_bodies() {
        // Three frames of 100 bytes each against a 250-byte budget: the
        // third is rejected even though each frame is individually legal.
        let frame = Frame {
            op: op::HIT,
            body: vec![7; 100],
        };
        let mut stream = Vec::new();
        for _ in 0..3 {
            stream.extend_from_slice(&frame.to_bytes());
        }
        let mut budget = FrameBudget::new(250);
        let mut r = stream.as_slice();
        assert!(Frame::read_budgeted(&mut r, &mut budget).is_ok());
        assert!(Frame::read_budgeted(&mut r, &mut budget).is_ok());
        assert_eq!(budget.remaining(), 50);
        assert_eq!(
            Frame::read_budgeted(&mut r, &mut budget),
            Err(WireError::BudgetExceeded {
                asked: 100,
                remaining: 50,
            })
        );
        // Unbudgeted reads of the same stream are unaffected.
        let mut r2 = stream.as_slice();
        for _ in 0..3 {
            assert!(Frame::read_from(&mut r2).is_ok());
        }
    }

    #[test]
    fn oversized_length_header_is_rejected_before_allocating() {
        let mut bytes = Frame {
            op: op::GET2,
            body: Vec::new(),
        }
        .to_bytes();
        bytes[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Frame::read_from(&mut bytes.as_slice()),
            Err(WireError::Oversized(u64::MAX))
        );
    }

    #[test]
    fn version_mismatch_and_bad_magic_are_rejected() {
        let good = Frame {
            op: op::MISS,
            body: Vec::new(),
        }
        .to_bytes();
        let mut stale = good.clone();
        stale[4] ^= 0xFF;
        assert!(matches!(
            Frame::read_from(&mut stale.as_slice()),
            Err(WireError::Version(_))
        ));
        let mut magicless = good;
        magicless[0] = b'X';
        assert_eq!(
            Frame::read_from(&mut magicless.as_slice()),
            Err(WireError::BadMagic)
        );
    }

    #[test]
    fn truncated_and_corrupt_frames_are_rejected() {
        let bytes = Request::Put2 {
            ns: "ns".into(),
            key: KeyBuilder::new("wire").u64(2).finish(),
            payload: vec![1; 64],
        }
        .to_frame()
        .to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Frame::read_from(&mut bytes[..cut].as_ref()).is_err(),
                "cut {cut}"
            );
        }
        let mut corrupt = bytes;
        let mid = FRAME_HEADER + 10;
        corrupt[mid] ^= 0x40;
        assert_eq!(
            Frame::read_from(&mut corrupt.as_slice()),
            Err(WireError::Checksum)
        );
    }

    #[test]
    fn tagged_envelopes_round_trip_and_validate() {
        let key = KeyBuilder::new("wire").u64(5).finish();
        let inner = Request::Get2 {
            ns: "featurize".into(),
            key,
        }
        .to_frame();
        let tagged = tag_request(0xABCD_EF01_2345_6789, &inner);
        assert_eq!(tagged.op, op::TAGGED);
        let (tag, back) = untag(&frame_round_trip(&tagged)).expect("untag");
        assert_eq!(tag, 0xABCD_EF01_2345_6789);
        assert_eq!(back, inner);
        assert_eq!(
            Request::from_frame(&back).unwrap(),
            Request::from_frame(&inner).unwrap()
        );

        // Responses wrap the same way, including empty-body inner frames.
        let resp = Response::Miss.to_frame();
        let wrapped = tag_response(7, &resp);
        assert_eq!(wrapped.op, op::TAGGED_RESP);
        let (tag, back) = untag(&wrapped).expect("untag response");
        assert_eq!((tag, back), (7, resp));

        // Non-envelope and truncated envelopes are typed failures.
        assert!(untag(&inner).is_err());
        assert!(untag(&Frame {
            op: op::TAGGED,
            body: vec![0; 8],
        })
        .is_err());
    }

    #[test]
    fn reassembler_yields_frames_across_arbitrary_chunk_splits() {
        let key = KeyBuilder::new("wire").u64(6).finish();
        let frames = [
            Request::Stat2.to_frame(),
            tag_request(
                3,
                &Request::Put2 {
                    ns: "blast".into(),
                    key,
                    payload: vec![9; 300],
                }
                .to_frame(),
            ),
            Response::Hit(vec![1; 50]).to_frame(),
        ];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&f.to_bytes());
        }
        // Feed one byte at a time: every frame must come out whole, in
        // order, with Ok(None) at every partial point.
        let mut r = FrameReassembler::new();
        let mut got = Vec::new();
        for b in &stream {
            r.ingest(std::slice::from_ref(b));
            while let Some(f) = r.next_frame().expect("clean stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn reassembler_rejects_corrupt_streams_early() {
        // A lying length header fails at the header, before any body bytes
        // accumulate.
        let mut bytes = Frame {
            op: op::GET2,
            body: Vec::new(),
        }
        .to_bytes();
        bytes[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut r = FrameReassembler::new();
        r.ingest(&bytes[..FRAME_HEADER]);
        assert_eq!(r.next_frame(), Err(WireError::Oversized(u64::MAX)));

        // Bad magic, stale version, flipped body byte: all typed.
        for (mutate, want_checksum) in [(0usize, false), (4usize, false), (FRAME_HEADER, true)] {
            let mut b = Response::Hit(vec![5; 40]).to_frame().to_bytes();
            b[mutate] ^= 0xFF;
            let mut r = FrameReassembler::new();
            r.ingest(&b);
            let err = r.next_frame().unwrap_err();
            if want_checksum {
                assert_eq!(err, WireError::Checksum);
            }
        }
    }

    #[test]
    fn payload_length_lying_past_body_is_malformed() {
        // Body claims a longer payload than the frame carries.
        let mut e = Enc::new();
        e.usize(1000);
        e.raw(&[1, 2, 3]);
        let frame = Frame {
            op: op::HIT,
            body: e.into_bytes(),
        };
        assert!(matches!(
            Response::from_frame(&frame),
            Err(WireError::Malformed(_))
        ));
    }
}
