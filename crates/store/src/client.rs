//! [`ClientConn`] — the client side of one tagged wire connection, shared
//! by the artifact store's [`crate::RemoteTier`] and the live annotation
//! service's session client.
//!
//! It connects lazily, trying every address the configured `host:port`
//! resolves to, under the caller's timeouts. It allocates a fresh tag per
//! request and demultiplexes the tagged responses, absorbing the answers
//! of fire-and-forget requests ([`ClientConn::post`]) wherever they turn
//! up. It counts write→read turnarounds — the thing pipelining removes
//! (request counts stay the same; waiting does not). And it runs the
//! breaker: after [`MAX_CONSECUTIVE_FAILURES`] failed interactions in a
//! row ([`ClientConn::guarded`]) it trips open for the rest of the
//! process, so a dead or foreign peer costs a bounded number of timeouts
//! rather than one per call.

use crate::wire::{
    op, tag_request, untag, Frame, FrameBudget, Request, Response, WireError, MAX_CONN_INFLIGHT,
};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Consecutive failed interactions after which a connection stops trying.
pub const MAX_CONSECUTIVE_FAILURES: u32 = 3;

/// Per-caller socket timeouts.
#[derive(Debug, Clone, Copy)]
pub struct Timeouts {
    /// Connect timeout, per resolved address.
    pub connect: Duration,
    /// Read timeout.
    pub read: Duration,
    /// Write timeout.
    pub write: Duration,
}

impl Timeouts {
    /// The same timeout for connect, read and write.
    pub fn uniform(t: Duration) -> Timeouts {
        Timeouts {
            connect: t,
            read: t,
            write: t,
        }
    }
}

/// One lazily (re)connected, tagged, breaker-guarded client connection.
#[derive(Debug)]
pub struct ClientConn {
    addr: String,
    timeouts: Timeouts,
    stream: Option<TcpStream>,
    next_tag: u64,
    /// Tags of posted requests whose answers have not been read yet.
    posted: VecDeque<u64>,
    /// A request was written since the last read — the next read is a
    /// wire turnaround.
    wrote_since_read: bool,
    turns: u64,
    failures: u32,
}

impl ClientConn {
    /// A connection to `addr` (`host:port`); nothing is dialed until the
    /// first send.
    pub fn new(addr: impl Into<String>, timeouts: Timeouts) -> ClientConn {
        ClientConn {
            addr: addr.into(),
            timeouts,
            stream: None,
            next_tag: 0,
            posted: VecDeque::new(),
            wrote_since_read: false,
            turns: 0,
            failures: 0,
        }
    }

    /// Whether the breaker has tripped open.
    pub fn is_down(&self) -> bool {
        self.failures >= MAX_CONSECUTIVE_FAILURES
    }

    /// Cumulative write→read turnarounds on the wire (monotonic).
    pub fn round_trips(&self) -> u64 {
        self.turns
    }

    /// Posted requests whose answers are still unread.
    pub fn posted(&self) -> usize {
        self.posted.len()
    }

    /// Runs one interaction under the breaker: refused outright once
    /// tripped; a failure drops the connection (and the answers of posted
    /// requests with it — lost best-effort writes, never corrupt ones) and
    /// counts toward the trip; a success resets the count.
    ///
    /// # Errors
    ///
    /// `f`'s error, or `ConnectionRefused` once tripped.
    pub fn guarded<T>(
        &mut self,
        f: impl FnOnce(&mut ClientConn) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        if self.is_down() {
            return Err(WireError::Io(ErrorKind::ConnectionRefused));
        }
        let result = f(self);
        match result {
            Ok(_) => self.failures = 0,
            Err(_) => {
                self.stream = None;
                self.posted.clear();
                self.wrote_since_read = false;
                self.failures += 1;
            }
        }
        result
    }

    /// Writes `reqs` in one write, each in a fresh tagged envelope,
    /// connecting first if needed. Returns the first request's tag; the
    /// rest follow consecutively.
    ///
    /// # Errors
    ///
    /// Connect and write failures.
    pub fn send(&mut self, reqs: &[Request]) -> Result<u64, WireError> {
        if self.stream.is_none() {
            let addrs = self.addr.to_socket_addrs()?;
            self.stream = Some(connect_first(addrs, self.timeouts)?);
        }
        let first = self.next_tag;
        let mut bytes = Vec::new();
        for req in reqs {
            bytes.extend(tag_request(self.next_tag, &req.to_frame()).to_bytes());
            self.next_tag += 1;
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(&bytes)?;
        self.wrote_since_read = true;
        Ok(first)
    }

    /// Sends `req` without awaiting its answer; a later read absorbs it.
    ///
    /// # Errors
    ///
    /// Connect and write failures.
    pub fn post(&mut self, req: &Request) -> Result<(), WireError> {
        let tag = self.send(std::slice::from_ref(req))?;
        self.posted.push_back(tag);
        Ok(())
    }

    /// Reads the next answer to a request that was not posted, absorbing
    /// posted answers met on the way. Every frame read is charged to
    /// `budget`.
    ///
    /// # Errors
    ///
    /// Transport and framing failures; an untagged frame (a peer that
    /// refuses the envelope) is [`WireError::Malformed`].
    pub fn recv(&mut self, budget: &mut FrameBudget) -> Result<(u64, Response), WireError> {
        loop {
            let (tag, resp) = self.read_tagged(budget)?;
            if !self.absorb(tag) {
                return Ok((tag, resp));
            }
        }
    }

    /// Reads one answer, which must belong to a posted request.
    ///
    /// # Errors
    ///
    /// As [`ClientConn::recv`], plus [`WireError::Malformed`] for an
    /// answer to anything else.
    pub fn absorb_posted(&mut self) -> Result<(), WireError> {
        let (tag, _) = self.read_tagged(&mut FrameBudget::new(MAX_CONN_INFLIGHT))?;
        match self.absorb(tag) {
            true => Ok(()),
            false => Err(WireError::Malformed("response for unknown tag")),
        }
    }

    /// One request/response exchange.
    ///
    /// # Errors
    ///
    /// As [`ClientConn::send`] and [`ClientConn::recv`], plus
    /// [`WireError::Malformed`] when the answer carries another tag.
    pub fn exchange(&mut self, req: &Request) -> Result<Response, WireError> {
        let tag = self.send(std::slice::from_ref(req))?;
        match self.recv(&mut FrameBudget::new(MAX_CONN_INFLIGHT))? {
            (t, resp) if t == tag => Ok(resp),
            _ => Err(WireError::Malformed("response for unknown tag")),
        }
    }

    fn absorb(&mut self, tag: u64) -> bool {
        match self.posted.iter().position(|&t| t == tag) {
            Some(i) => {
                self.posted.remove(i);
                true
            }
            None => false,
        }
    }

    fn read_tagged(&mut self, budget: &mut FrameBudget) -> Result<(u64, Response), WireError> {
        if self.wrote_since_read {
            self.wrote_since_read = false;
            self.turns += 1;
        }
        let stream = self
            .stream
            .as_mut()
            .ok_or(WireError::Io(ErrorKind::NotConnected))?;
        let frame = Frame::read_budgeted(stream, budget)?;
        if frame.op != op::TAGGED_RESP {
            return Err(WireError::Malformed("untagged response"));
        }
        let (tag, inner) = untag(&frame)?;
        Ok((tag, Response::from_frame(&inner)?))
    }
}

/// Connects to the first of `addrs` that accepts, with the socket options
/// every client uses.
fn connect_first(
    addrs: impl IntoIterator<Item = SocketAddr>,
    t: Timeouts,
) -> Result<TcpStream, WireError> {
    let mut last = WireError::Io(ErrorKind::NotFound);
    for addr in addrs {
        match TcpStream::connect_timeout(&addr, t.connect) {
            Ok(stream) => {
                stream.set_read_timeout(Some(t.read))?;
                stream.set_write_timeout(Some(t.write))?;
                stream.set_nodelay(true)?;
                return Ok(stream);
            }
            Err(e) => last = e.into(),
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_tries_every_resolved_address() {
        // The first address refuses (its listener is gone), the second
        // serves: the connection lands on the second.
        let refusing = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("bind");
        let serving = TcpListener::bind("127.0.0.1:0").expect("bind");
        let serving_addr = serving.local_addr().expect("addr");
        let t = Timeouts::uniform(Duration::from_secs(2));
        let stream = connect_first([refusing, serving_addr], t).expect("second address serves");
        assert_eq!(stream.peer_addr().expect("peer"), serving_addr);
        assert_eq!(
            connect_first([refusing], t).err(),
            Some(WireError::Io(ErrorKind::ConnectionRefused))
        );
    }
}
