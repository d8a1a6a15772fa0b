//! The nonblocking event loop both network services run on: `rtlt-stored`
//! ([`crate::server`]) and `rtlt-annotated` (`rtl_timer::live`).
//!
//! One thread owns the listener and every connection, all in nonblocking
//! mode. Each tick accepts pending peers, then for every connection, in
//! this order: flushes its write buffer, reads into its
//! [`FrameReassembler`] until the socket reports `WouldBlock`, dispatches
//! every complete request, and lets the [`Handler`] advance deferred work.
//! A connection whose unflushed replies exceed [`MAX_CONN_INFLIGHT`] is not
//! read until the peer drains them (backpressure), a connection silent
//! past [`IDLE_TIMEOUT`] is reaped, and a tick that made no progress
//! anywhere sleeps [`POLL_INTERVAL`].
//!
//! The loop owns the tag envelope. It unwraps every [`op::TAGGED`] request,
//! decodes the inner [`Request`] and hands it to the handler with its tag;
//! the handler answers through [`Outbox::send`], which wraps each response
//! under that tag. Replies are matched by tag, so a handler may answer
//! inline or ticks later, in any order. A bare frame, a malformed envelope
//! or an undecodable inner request is answered `Failed` by the loop itself
//! (bare when there is no tag to echo), and the connection stays open.

use crate::wire::{
    op, tag_response, untag, Frame, FrameReassembler, Request, Response, MAX_CONN_INFLIGHT,
};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-connection idle timeout: a client that disappears without closing
/// (sleep, network drop) releases its connection state and socket after
/// this long instead of leaking them for the service's lifetime.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// How long the loop sleeps when a full tick made no progress — nothing
/// accepted, read, written, parsed or advanced. Short enough that a lone
/// client pays sub-millisecond turnaround; long enough that an idle
/// server burns no meaningful CPU.
const POLL_INTERVAL: Duration = Duration::from_micros(200);

/// Read scratch size per tick; bigger reads just take more ticks.
const READ_CHUNK: usize = 64 << 10;

/// Live gauges of one event loop, kept by the loop and read by handlers
/// that report server load.
#[derive(Debug, Default)]
pub struct Gauges {
    connections: AtomicU64,
    inflight: AtomicU64,
}

impl Gauges {
    /// Connections currently open on the loop.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Exchanges accepted but not yet fully flushed back to their peers.
    pub fn inflight(&self) -> u64 {
        self.inflight.load(Ordering::Relaxed)
    }
}

/// What a service plugs into the loop.
pub trait Handler {
    /// Per-connection state, created on accept and dropped with the
    /// connection.
    type Conn: Default;

    /// Service name for log lines.
    const NAME: &'static str;

    /// The gauges the loop keeps for this service.
    fn gauges(&self) -> &Gauges;

    /// Answers one request that arrived under `tag`, now through `out` or
    /// later from [`Handler::advance`].
    fn request(&mut self, conn: &mut Self::Conn, tag: u64, req: Request, out: &mut Outbox);

    /// Advances the connection's deferred work by one bounded slice.
    /// Returns whether anything progressed.
    fn advance(&mut self, _conn: &mut Self::Conn, _out: &mut Outbox) -> bool {
        false
    }
}

/// The write side of one connection: reply bytes queued for flushing, and
/// the bookkeeping that maps them back to in-flight exchanges.
#[derive(Debug, Default)]
pub struct Outbox {
    buf: Vec<u8>,
    pos: usize,
    /// Total bytes flushed to the socket over the connection's lifetime.
    flushed: u64,
    /// Exchanges dispatched whose final reply frame is not queued yet.
    open: u64,
    /// Per exchange answered but not yet flushed: the absolute `flushed`
    /// offset at which its final frame ends.
    settles: VecDeque<u64>,
}

impl Outbox {
    /// Queues one response frame under `tag`. Every response except a
    /// non-final [`Response::BatchPart`] completes its exchange.
    pub fn send(&mut self, tag: u64, resp: &Response) {
        let last = !matches!(resp, Response::BatchPart { last: false, .. });
        self.push(&tag_response(tag, &resp.to_frame()), last);
    }

    fn push(&mut self, frame: &Frame, last: bool) {
        self.buf.extend_from_slice(&frame.to_bytes());
        if last {
            self.open = self.open.saturating_sub(1);
            self.settles.push_back(self.flushed + self.backlog());
        }
    }

    /// Reply bytes queued but not yet flushed.
    fn backlog(&self) -> u64 {
        (self.buf.len() - self.pos) as u64
    }

    /// Exchanges the in-flight gauge still counts.
    fn inflight(&self) -> u64 {
        self.open + self.settles.len() as u64
    }
}

/// One nonblocking connection: the socket, its incremental frame
/// reassembler, its outbox and the handler's per-connection state.
struct Conn<S> {
    stream: TcpStream,
    peer: SocketAddr,
    rx: FrameReassembler,
    out: Outbox,
    state: S,
    last_activity: Instant,
    /// The peer half-closed its write side; finish answering, then drop.
    read_closed: bool,
}

impl<S: Default> Conn<S> {
    fn new(stream: TcpStream, peer: SocketAddr) -> Conn<S> {
        Conn {
            stream,
            peer,
            rx: FrameReassembler::new(),
            out: Outbox::default(),
            state: S::default(),
            last_activity: Instant::now(),
            read_closed: false,
        }
    }

    /// Flushes queued bytes until the socket would block. Returns
    /// `(alive, progressed)`.
    fn flush(&mut self, gauges: &Gauges) -> (bool, bool) {
        let mut progressed = false;
        let out = &mut self.out;
        while out.pos < out.buf.len() {
            match self.stream.write(&out.buf[out.pos..]) {
                Ok(0) => return (false, progressed),
                Ok(n) => {
                    out.pos += n;
                    out.flushed += n as u64;
                    progressed = true;
                    self.last_activity = Instant::now();
                    while out.settles.front().is_some_and(|end| *end <= out.flushed) {
                        out.settles.pop_front();
                        gauges.inflight.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return (false, progressed),
            }
        }
        if out.pos == out.buf.len() && out.pos > 0 {
            out.buf.clear();
            out.pos = 0;
        }
        (true, progressed)
    }

    /// Reads until the socket would block or the backlog bound is hit.
    /// Returns `(alive, progressed)`.
    fn read(&mut self, scratch: &mut [u8]) -> (bool, bool) {
        let mut progressed = false;
        // Backpressure: a peer that stops reading while pumping requests
        // cannot balloon the reply backlog past the cumulative bound the
        // wire's FrameBudget enforces per exchange.
        if self.read_closed || self.out.backlog() > MAX_CONN_INFLIGHT {
            return (true, false);
        }
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.read_closed = true;
                    return (true, progressed);
                }
                Ok(n) => {
                    self.rx.ingest(&scratch[..n]);
                    self.last_activity = Instant::now();
                    progressed = true;
                    if self.out.backlog() + self.rx.buffered() as u64 > MAX_CONN_INFLIGHT {
                        return (true, progressed);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return (true, progressed),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return (false, progressed),
            }
        }
    }

    /// Unwraps one request frame and hands it to the handler, or refuses
    /// it with `Failed`.
    fn dispatch<H: Handler<Conn = S>>(&mut self, handler: &mut H, frame: Frame) {
        handler.gauges().inflight.fetch_add(1, Ordering::Relaxed);
        self.out.open += 1;
        let refuse = |msg: String| Response::Failed(msg).to_frame();
        if frame.op != op::TAGGED {
            let msg = format!("bare op {}: requests travel in a TAGGED envelope", frame.op);
            return self.out.push(&refuse(msg), true);
        }
        match untag(&frame) {
            Ok((tag, inner)) => match Request::from_frame(&inner) {
                Ok(req) => handler.request(&mut self.state, tag, req, &mut self.out),
                Err(e) => self.out.send(tag, &Response::Failed(e.to_string())),
            },
            // No tag to echo: answer bare.
            Err(e) => self.out.push(&refuse(e.to_string()), true),
        }
    }

    /// One scheduler tick: flush, read, dispatch, advance. Returns
    /// `(alive, progressed)`.
    fn tick<H: Handler<Conn = S>>(&mut self, handler: &mut H, scratch: &mut [u8]) -> (bool, bool) {
        let (alive, mut progressed) = self.flush(handler.gauges());
        if !alive {
            return (false, progressed);
        }
        let (alive, read) = self.read(scratch);
        progressed |= read;
        if !alive {
            return (false, progressed);
        }
        loop {
            match self.rx.next_frame() {
                Ok(Some(frame)) => {
                    progressed = true;
                    self.dispatch(handler, frame);
                }
                Ok(None) => break,
                Err(e) => {
                    // The stream can no longer be framed: drop the
                    // connection. Clients treat it as a dead server.
                    eprintln!("[{}] connection {}: {e}", H::NAME, self.peer);
                    return (false, progressed);
                }
            }
        }
        progressed |= handler.advance(&mut self.state, &mut self.out);
        let answered = self.out.backlog() == 0 && self.out.open == 0;
        if (self.read_closed && answered) || self.last_activity.elapsed() > IDLE_TIMEOUT {
            return (false, progressed);
        }
        (true, progressed)
    }
}

/// Serves `listener` with `handler` on the calling thread until `stop` is
/// set (checked once per tick). See the module docs for the tick.
///
/// # Panics
///
/// If the listener cannot be switched to nonblocking mode (a broken
/// socket at startup — nothing can be served).
pub fn run<H: Handler>(listener: TcpListener, handler: &mut H, stop: &AtomicBool) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let mut conns: Vec<Conn<H::Conn>> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    while !stop.load(Ordering::Relaxed) {
        let mut progressed = false;
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    // Nagle would delay every small exchange; the protocol
                    // writes whole frames, so there is nothing to coalesce.
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    handler.gauges().connections.fetch_add(1, Ordering::Relaxed);
                    conns.push(Conn::new(stream, peer));
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => {
                    eprintln!("[{}] accept failed: {e}", H::NAME);
                    break;
                }
            }
        }
        conns.retain_mut(|conn| {
            let (alive, p) = conn.tick(handler, &mut scratch);
            progressed |= p;
            if !alive {
                let gauges = handler.gauges();
                gauges.connections.fetch_sub(1, Ordering::Relaxed);
                gauges
                    .inflight
                    .fetch_sub(conn.out.inflight(), Ordering::Relaxed);
            }
            alive
        });
        if !progressed {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

/// Handle to a [`spawn`]ed loop: the bound address plus a stop flag that
/// shuts the loop down within a tick (open connections drop with it).
#[derive(Debug)]
pub struct LoopHandle {
    /// The bound listen address (useful with port 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl LoopHandle {
    /// Stops the loop.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

/// Binds `addr` and runs `handler` on a background thread.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn<H: Handler + Send + 'static>(
    addr: &str,
    mut handler: H,
) -> std::io::Result<LoopHandle> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    std::thread::spawn(move || run(listener, &mut handler, &flag));
    Ok(LoopHandle { addr: bound, stop })
}
