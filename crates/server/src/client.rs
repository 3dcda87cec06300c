//! A blocking, connection-reusing client for `cc-server`.
//!
//! One [`Client`] owns one TCP connection, a send buffer and one
//! receive buffer ([`RecvBuf`], sized for a window of 16 page replies);
//! every call is a single request/response round-trip on that
//! connection, so a loop of operations allocates nothing in steady
//! state. The client is deliberately synchronous — it is the building
//! block of the load generator and the integration tests, and N
//! concurrent clients are N `Client` values on N threads.
//!
//! Replies are read through the receive buffer: the client calls `read`
//! only when no whole reply is buffered, and that one `read` takes
//! every reply the socket holds, so the rest of a pipelined window is
//! reaped without a syscall. Bytes already read survive a failed read:
//! a read timeout in the middle of a reply leaves the partial frame
//! buffered, and the next receive completes it.
//!
//! Requests are encoded into the send buffer, and a pipelined request
//! stays there until the client must wait or has enough to keep the
//! server busy: everything held goes out in one `write` when a receive
//! finds no whole reply buffered, when at least as many requests are
//! held as were written and not yet reaped, when the held bytes reach
//! the receive buffer's size, ahead of a simple call's own request (so
//! the wire keeps the order the calls were made in), on
//! [`Client::pipeline_flush`], and on drop. With nothing outstanding a
//! window is one write; once replies are owed, a window of 16 settles
//! into two halves of 8, and the server executes one half while the
//! client reaps the other half's replies and refills it, so neither
//! side idles while the other works. A transport error on a held
//! request surfaces from the call that writes it.
//!
//! Every request frame carries a `seq` tag the server echoes on the
//! response; the simple call API verifies the echo, and the **pipelined
//! mode** ([`Client::pipeline_send`] / [`Client::pipeline_recv`], with
//! [`Pipeline`] doing the exactly-once window bookkeeping) issues a
//! window of tagged requests before reaping any responses — one
//! connection, many requests in flight, no per-request round-trip
//! stall. Pipelined I/O bypasses the retry policy: a failure mid-window
//! leaves in-flight requests in an unknown state that only the caller
//! can reconcile.
//!
//! A server answering `BUSY` closes the connection, and a saturated or
//! briefly unreachable server surfaces as a connect/read failure. Both
//! are *transient*: [`Client::with_retry`] arms a bounded
//! retry-with-exponential-backoff loop (reconnecting between attempts)
//! so a caller rides out short saturation windows with a hard bound on
//! total wait. The default policy is a single attempt — errors surface
//! immediately, exactly as before.

use crate::frame::{self, FrameError, RecvBuf};
use crate::proto::{ProtoError, Request, Response, Status};
use cc_util::backoff;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Receive buffer size: a window of 16 GET replies of a 4 KiB page
/// (header, status byte, page each), so a full window queued in the
/// socket comes back in one `read`. Larger replies (STATS, DUMP) grow
/// the buffer for as long as they take. Pipelined requests are held
/// no longer than until this many bytes of them wait to be written.
pub(crate) const RECV_BUF: usize = 16 * (frame::HEADER_LEN + 1 + 4096);

/// Bounded retry policy for transient failures (`BUSY` answers,
/// connect/read timeouts, connection resets).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per call (first try + retries); clamped ≥ 1.
    pub attempts: u32,
    /// Backoff before retry `n` is `base_delay << (n - 1)`.
    pub base_delay: Duration,
}

impl Default for RetryPolicy {
    /// One attempt: no retry, errors surface immediately.
    fn default() -> Self {
        RetryPolicy {
            attempts: 1,
            base_delay: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// The worst-case total time spent sleeping between attempts (the
    /// hard bound a caller of a saturated server is promised, excluding the
    /// per-attempt I/O time itself).
    pub fn max_backoff_total(&self) -> Duration {
        let mut total = Duration::ZERO;
        for attempt in 1..self.attempts.max(1) {
            total += backoff(self.base_delay, attempt);
        }
        total
    }
}

/// Transient transport failures worth a reconnect-and-retry: the server
/// closing a rejected connection, a connect refused while the accept
/// loop is wedged, or a read/connect timeout.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::UnexpectedEof
    )
}

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (includes the server closing mid-response).
    Io(io::Error),
    /// The server answered `BUSY`: it is at its connection cap and the
    /// request was not executed. Retry later, ideally with backoff.
    Busy,
    /// The server answered `ERR` with this message.
    Server(String),
    /// The response violated the protocol (bad frame, unknown status,
    /// unexpected payload shape).
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "client I/O error: {e}"),
            ClientError::Busy => write!(f, "server busy: connection cap reached"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// A blocking connection to a `cc-server`.
pub struct Client {
    stream: TcpStream,
    /// Resolved peer address, kept for retry reconnects (the server
    /// closes a connection it answered `BUSY`).
    addr: SocketAddr,
    /// Request frames encoded and not yet written (reused).
    send: Vec<u8>,
    /// Frames in `send`.
    held: usize,
    /// Frames written whose reply has not been reaped.
    unreaped: usize,
    /// Replies read from the socket and not yet reaped.
    rbuf: RecvBuf,
    /// The last [`Client::call`]'s response body (reused).
    recv: Vec<u8>,
    timeout: Option<Duration>,
    retry: RetryPolicy,
    /// Next request tag; `0` is reserved for unsolicited server frames.
    next_seq: u32,
}

impl Client {
    /// Connect. `TCP_NODELAY` is set — every call is a full round-trip.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            addr,
            send: Vec::new(),
            held: 0,
            unreaped: 0,
            rbuf: RecvBuf::with_len(RECV_BUF),
            recv: Vec::new(),
            timeout: None,
            retry: RetryPolicy::default(),
            next_seq: 1,
        })
    }

    /// Allocate the next request tag, skipping the reserved `0`.
    fn alloc_seq(&mut self) -> u32 {
        let seq = self.next_seq;
        self.next_seq = match self.next_seq.wrapping_add(1) {
            frame::SEQ_UNSOLICITED => 1,
            n => n,
        };
        seq
    }

    /// Arm bounded retry-with-backoff on `BUSY` answers and transient
    /// transport failures: up to `attempts` total tries per call, with
    /// exponential backoff starting at `base_delay` and a reconnect
    /// before each retry. Total sleep is bounded by
    /// [`RetryPolicy::max_backoff_total`].
    pub fn with_retry(mut self, attempts: u32, base_delay: Duration) -> Client {
        self.retry = RetryPolicy {
            attempts: attempts.max(1),
            base_delay,
        };
        self
    }

    /// The retry policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Bound how long a call may wait on the server before erroring
    /// with a timeout (`None` = wait forever, the default). Survives
    /// retry reconnects.
    pub fn set_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        self.timeout = t;
        self.stream.set_read_timeout(t)?;
        self.stream.set_write_timeout(t)
    }

    /// Replace the connection ahead of a retry (the server closes
    /// `BUSY` connections, and a torn stream can't be reused). Requests
    /// held for the old connection and bytes read from it are dropped.
    fn reconnect(&mut self) -> io::Result<()> {
        let stream = match self.timeout {
            Some(t) => TcpStream::connect_timeout(&self.addr, t)?,
            None => TcpStream::connect(self.addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        self.stream = stream;
        self.send.clear();
        self.rbuf.clear();
        self.held = 0;
        self.unreaped = 0;
        Ok(())
    }

    /// Encode `req` as the next frame of the send buffer, returning its
    /// tag.
    fn hold(&mut self, req: &Request<'_>) -> u32 {
        let seq = self.alloc_seq();
        frame::append_frame(&mut self.send, seq, 0, |out| req.encode(out));
        self.held += 1;
        seq
    }

    /// Write every held request in one `write`; once written they are
    /// owed replies. Whatever the outcome, nothing stays held: after a
    /// failed write the connection's state is unknown, as after a failed
    /// pipelined send.
    fn write_held(&mut self) -> io::Result<()> {
        if self.send.is_empty() {
            return Ok(());
        }
        let written = self.stream.write_all(&self.send);
        if written.is_ok() {
            self.unreaped += self.held;
        }
        self.send.clear();
        self.held = 0;
        written
    }

    /// Block until a whole reply is buffered, writing what is held
    /// first if it must read. Its body sits at
    /// `self.rbuf.unparsed()[frame.body]` until [`Client::reaped`].
    fn next_reply(&mut self) -> Result<frame::ParsedFrame, ClientError> {
        if let Some(reply) = self.rbuf.parse(frame::DEFAULT_MAX_FRAME)? {
            return Ok(reply);
        }
        self.write_held()?;
        Ok(self
            .rbuf
            .next_frame(&mut self.stream, frame::DEFAULT_MAX_FRAME)?)
    }

    /// Drop a reply [`Client::next_reply`] returned, and any growth a
    /// large one left behind once nothing else is buffered.
    fn reaped(&mut self, reply: frame::ParsedFrame) {
        // An unsolicited frame answers no request, so saturate.
        self.unreaped = self.unreaped.saturating_sub(1);
        self.rbuf.consume(reply.consumed);
        self.rbuf.shrink_when_drained(RECV_BUF);
    }

    /// One wire round-trip; the response body lands in `self.recv`.
    /// The response must echo the request's tag — the only unsolicited
    /// frames (tag 0) a server sends are `BUSY`/`ERR` ahead of a close,
    /// which map to their own outcomes.
    fn call_once(&mut self, req: &Request<'_>) -> Result<Status, ClientError> {
        let seq = self.hold(req);
        self.write_held()?;
        let reply = self.next_reply()?;
        let resp_seq = reply.seq;
        self.recv.clear();
        self.recv
            .extend_from_slice(&self.rbuf.unparsed()[reply.body.clone()]);
        self.reaped(reply);
        let status = Response::decode(&self.recv)?.status;
        if resp_seq != seq
            && !(resp_seq == frame::SEQ_UNSOLICITED && matches!(status, Status::Busy | Status::Err))
        {
            return Err(ClientError::Protocol(format!(
                "response tag mismatch: sent {seq}, got {resp_seq}"
            )));
        }
        Ok(status)
    }

    /// Pipelined send: encode one tagged request *without* waiting for
    /// its response, returning the tag to reap later with
    /// [`Client::pipeline_recv`]. The request is held until the client
    /// must wait for a reply, until as many are held as are owed replies
    /// (so the server works on those while the client reaps), or until a
    /// window of bytes has gathered (see the module docs); a transport
    /// error surfaces from whichever call writes it. No retry is applied.
    pub fn pipeline_send(&mut self, req: &Request<'_>) -> Result<u32, ClientError> {
        let seq = self.hold(req);
        if self.send.len() >= RECV_BUF || (self.unreaped > 0 && self.held >= self.unreaped) {
            self.write_held()?;
        }
        Ok(seq)
    }

    /// Write every held pipelined request now, for a caller that sends
    /// without receiving. A receive or a simple call does this itself.
    pub fn pipeline_flush(&mut self) -> Result<(), ClientError> {
        Ok(self.write_held()?)
    }

    /// Pipelined receive: read the next tagged response, leaving its
    /// payload in `out` (cleared first); when none is buffered, the held
    /// requests are written first. Returns `(seq, status)`; the caller
    /// matches `seq` against its outstanding window (see [`Pipeline`]).
    /// An unsolicited `BUSY` (tag 0) surfaces as [`ClientError::Busy`].
    pub fn pipeline_recv(&mut self, out: &mut Vec<u8>) -> Result<(u32, Status), ClientError> {
        let reply = self.next_reply()?;
        let reaped = reap(reply.seq, &self.rbuf.unparsed()[reply.body.clone()], out);
        self.reaped(reply);
        reaped
    }

    /// Round-trip with the retry policy applied: `BUSY` answers and
    /// transient transport errors reconnect and try again (with
    /// backoff) until the attempts run out; the last outcome is then
    /// returned as-is. The response body is left in `self.recv`.
    fn call(&mut self, req: &Request<'_>) -> Result<Status, ClientError> {
        let attempts = self.retry.attempts.max(1);
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let outcome = self.call_once(req);
            let retryable = match &outcome {
                Ok(Status::Busy) => true,
                Err(ClientError::Io(e)) => is_transient(e),
                _ => false,
            };
            if !retryable || attempt >= attempts {
                return outcome;
            }
            std::thread::sleep(backoff(self.retry.base_delay, attempt));
            if let Err(e) = self.reconnect() {
                if !is_transient(&e) {
                    return Err(ClientError::Io(e));
                }
                // A transient reconnect failure consumes the next
                // attempt too; keep the loop bounded.
                if attempt + 1 >= attempts {
                    return Err(ClientError::Io(e));
                }
                attempt += 1;
            }
        }
    }

    /// The response payload from the last [`Client::call`].
    fn payload(&self) -> Result<&[u8], ClientError> {
        Ok(Response::decode(&self.recv)?.payload)
    }

    /// Common tail: map `BUSY`/`ERR` to errors, pass anything else on.
    fn expect_plain(&self, status: Status) -> Result<Status, ClientError> {
        match status {
            Status::Busy => Err(ClientError::Busy),
            Status::Err => Err(ClientError::Server(
                String::from_utf8_lossy(self.payload()?).into_owned(),
            )),
            other => Ok(other),
        }
    }

    /// Store `page` under `key`.
    pub fn put(&mut self, key: u64, page: &[u8]) -> Result<(), ClientError> {
        let status = self.call(&Request::Put { key, page })?;
        match self.expect_plain(status)? {
            Status::Ok => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected PUT status {other:?}"
            ))),
        }
    }

    /// Fetch `key` into `out` (resized to the page). Returns `false` on
    /// a miss.
    pub fn get(&mut self, key: u64, out: &mut Vec<u8>) -> Result<bool, ClientError> {
        let status = self.call(&Request::Get { key })?;
        match self.expect_plain(status)? {
            Status::Ok => {
                out.clear();
                out.extend_from_slice(self.payload()?);
                Ok(true)
            }
            Status::NotFound => Ok(false),
            other => Err(ClientError::Protocol(format!(
                "unexpected GET status {other:?}"
            ))),
        }
    }

    /// Remove `key`. Returns whether it existed.
    pub fn del(&mut self, key: u64) -> Result<bool, ClientError> {
        let status = self.call(&Request::Del { key })?;
        match self.expect_plain(status)? {
            Status::Ok => Ok(true),
            Status::NotFound => Ok(false),
            other => Err(ClientError::Protocol(format!(
                "unexpected DEL status {other:?}"
            ))),
        }
    }

    /// Block until the server's store has drained its spill writer.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        let status = self.call(&Request::Flush)?;
        match self.expect_plain(status)? {
            Status::Ok => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected FLUSH status {other:?}"
            ))),
        }
    }

    /// Round-trip probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let status = self.call(&Request::Ping)?;
        match self.expect_plain(status)? {
            Status::Ok => Ok(()),
            other => Err(ClientError::Protocol(format!(
                "unexpected PING status {other:?}"
            ))),
        }
    }

    /// The server's telemetry snapshot in Prometheus text format
    /// (store metrics under `cc_store_*`, wire metrics under
    /// `cc_server_*`).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let status = self.call(&Request::Stats)?;
        match self.expect_plain(status)? {
            Status::Ok => String::from_utf8(self.payload()?.to_vec())
                .map_err(|_| ClientError::Protocol("STATS payload is not UTF-8".into())),
            other => Err(ClientError::Protocol(format!(
                "unexpected STATS status {other:?}"
            ))),
        }
    }

    /// An on-demand flight-recorder dump: recent spans and anomaly
    /// events as a JSON document. An untraced server answers `{}`.
    pub fn dump(&mut self) -> Result<String, ClientError> {
        let status = self.call(&Request::Dump)?;
        match self.expect_plain(status)? {
            Status::Ok => String::from_utf8(self.payload()?.to_vec())
                .map_err(|_| ClientError::Protocol("DUMP payload is not UTF-8".into())),
            other => Err(ClientError::Protocol(format!(
                "unexpected DUMP status {other:?}"
            ))),
        }
    }
}

impl Drop for Client {
    /// Write what is still held: a caller may pipeline requests it
    /// never reaps. An error is dropped here; [`Client::pipeline_flush`]
    /// returns it.
    fn drop(&mut self) {
        let _ = self.write_held();
    }
}

/// Decode one pipelined reply tagged `seq`, copying its payload into
/// `out`. An unsolicited frame (tag 0) is the server's `BUSY` or `ERR`.
fn reap(seq: u32, body: &[u8], out: &mut Vec<u8>) -> Result<(u32, Status), ClientError> {
    let resp = Response::decode(body)?;
    if seq == frame::SEQ_UNSOLICITED {
        return match resp.status {
            Status::Busy => Err(ClientError::Busy),
            Status::Err => Err(ClientError::Server(
                String::from_utf8_lossy(resp.payload).into_owned(),
            )),
            other => Err(ClientError::Protocol(format!(
                "unsolicited response with status {other:?}"
            ))),
        };
    }
    out.clear();
    out.extend_from_slice(resp.payload);
    Ok((seq, resp.status))
}

/// Window bookkeeping for pipelined calls on one [`Client`]: tracks the
/// outstanding tags and enforces that every response reaps exactly one
/// of them — a duplicate, unknown, or already-reaped tag is a protocol
/// violation. Responses may complete in any order.
#[derive(Debug, Default)]
pub struct Pipeline {
    outstanding: std::collections::HashSet<u32>,
}

impl Pipeline {
    /// An empty window.
    pub fn new() -> Pipeline {
        Pipeline::default()
    }

    /// Requests sent and not yet reaped.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// Send one tagged request into the window.
    pub fn send(&mut self, client: &mut Client, req: &Request<'_>) -> Result<u32, ClientError> {
        let seq = client.pipeline_send(req)?;
        if !self.outstanding.insert(seq) {
            return Err(ClientError::Protocol(format!(
                "tag {seq} reused while still in flight"
            )));
        }
        Ok(seq)
    }

    /// Reap one response from the window (any completion order). The
    /// payload lands in `out`; the returned tag identifies which
    /// request completed.
    pub fn recv(
        &mut self,
        client: &mut Client,
        out: &mut Vec<u8>,
    ) -> Result<(u32, Status), ClientError> {
        let (seq, status) = client.pipeline_recv(out)?;
        if !self.outstanding.remove(&seq) {
            return Err(ClientError::Protocol(format!(
                "response tag {seq} was not in flight (duplicate or unknown)"
            )));
        }
        Ok((seq, status))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use std::io::Read as _;
    use std::net::TcpListener;

    /// A reply frame as the server writes it.
    fn reply(seq: u32, status: Status, payload: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        Response { status, payload }.encode(&mut body);
        let mut wire = Vec::new();
        frame::write_frame(&mut wire, seq, &body).unwrap();
        wire
    }

    /// A client on a raw listener, its read timeout short, and the
    /// accepted server end of the connection.
    fn pair() -> (Client, TcpListener, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = Client::connect(listener.local_addr().unwrap()).unwrap();
        client.set_timeout(Some(Duration::from_millis(50))).unwrap();
        let (peer, _) = listener.accept().unwrap();
        (client, listener, peer)
    }

    #[test]
    fn a_read_timeout_mid_frame_keeps_the_partial_reply() {
        let (mut client, _listener, mut peer) = pair();
        let wire = reply(7, Status::Ok, b"a payload that straddles the cut");
        let half = wire.len() / 2;
        peer.write_all(&wire[..half]).unwrap();
        let mut out = Vec::new();
        assert!(matches!(
            client.pipeline_recv(&mut out),
            Err(ClientError::Io(_))
        ));
        peer.write_all(&wire[half..]).unwrap();
        assert_eq!(client.pipeline_recv(&mut out).unwrap(), (7, Status::Ok));
        assert_eq!(out, b"a payload that straddles the cut");
    }

    #[test]
    fn reconnect_discards_stale_bytes() {
        let (mut client, listener, mut first) = pair();
        let stale = reply(3, Status::Ok, b"stale");
        first.write_all(&stale[..stale.len() - 2]).unwrap();
        let mut out = Vec::new();
        assert!(matches!(
            client.pipeline_recv(&mut out),
            Err(ClientError::Io(_))
        ));
        client.reconnect().unwrap();
        let (mut second, _) = listener.accept().unwrap();
        second.write_all(&reply(4, Status::Ok, b"fresh")).unwrap();
        assert_eq!(client.pipeline_recv(&mut out).unwrap(), (4, Status::Ok));
        assert_eq!(out, b"fresh");
    }

    /// The frames in `wire`, which must hold whole frames only, as
    /// `(tag, request)`.
    fn requests(wire: &[u8]) -> Vec<(u32, Request<'_>)> {
        let mut found = Vec::new();
        let mut at = 0;
        while at < wire.len() {
            let f = frame::parse_frame(&wire[at..], frame::DEFAULT_MAX_FRAME)
                .unwrap()
                .expect("a whole frame");
            let body = &wire[at..][f.body];
            found.push((f.seq, Request::decode(body).unwrap()));
            at += f.consumed;
        }
        found
    }

    /// Whether `peer` gets any byte within 20 ms.
    fn peer_hears_anything(peer: &mut TcpStream) -> bool {
        peer.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        peer.read(&mut [0u8; 64]).is_ok()
    }

    #[test]
    fn held_requests_reach_the_peer_in_one_burst_once_the_client_waits() {
        let (mut client, _listener, mut peer) = pair();
        for key in 0..4u64 {
            assert_eq!(
                client.pipeline_send(&Request::Get { key }).unwrap(),
                key as u32 + 1
            );
        }
        assert!(!peer_hears_anything(&mut peer), "sent before the wait");
        // No reply is buffered, so the receive writes what is held, then
        // times out waiting on the silent peer.
        let mut out = Vec::new();
        assert!(matches!(
            client.pipeline_recv(&mut out),
            Err(ClientError::Io(_))
        ));
        let mut wire = [0u8; 4096];
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let n = peer.read(&mut wire).unwrap();
        let sent: Vec<_> = (0..4u64)
            .map(|key| (key as u32 + 1, Request::Get { key }))
            .collect();
        assert_eq!(requests(&wire[..n]), sent, "one read, in send order");
    }

    /// A peer that serves `n` requests as a store would, in the order
    /// they arrive, and then answers them last first: the protocol lets
    /// replies complete in any order, and this way a simple call's reply
    /// comes ahead of the pipelined ones it was issued after.
    fn serve_last_first(mut peer: TcpStream, n: usize) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let mut rbuf = RecvBuf::new();
            let mut pages: HashMap<u64, Vec<u8>> = HashMap::new();
            let mut replies = Vec::new();
            for _ in 0..n {
                let f = rbuf
                    .next_frame(&mut peer, frame::DEFAULT_MAX_FRAME)
                    .unwrap();
                let answer = match Request::decode(&rbuf.unparsed()[f.body.clone()]).unwrap() {
                    Request::Put { key, page } => {
                        pages.insert(key, page.to_vec());
                        reply(f.seq, Status::Ok, b"")
                    }
                    Request::Get { key } => match pages.get(&key) {
                        Some(page) => reply(f.seq, Status::Ok, page),
                        None => reply(f.seq, Status::NotFound, b""),
                    },
                    other => panic!("unexpected request {other:?}"),
                };
                replies.push(answer);
                rbuf.consume(f.consumed);
            }
            replies.reverse();
            peer.write_all(&replies.concat()).unwrap();
        })
    }

    #[test]
    fn a_get_after_a_held_put_of_its_key_sees_that_put() {
        let (mut client, _listener, peer) = pair();
        client.set_timeout(Some(Duration::from_secs(5))).unwrap();
        let peer = serve_last_first(peer, 2);
        let put = client
            .pipeline_send(&Request::Put {
                key: 7,
                page: b"version 1",
            })
            .unwrap();
        let mut out = Vec::new();
        assert!(client.get(7, &mut out).unwrap(), "the GET overtook the PUT");
        assert_eq!(out, b"version 1");
        assert_eq!(client.pipeline_recv(&mut out).unwrap(), (put, Status::Ok));
        peer.join().unwrap();
    }

    #[test]
    fn held_bytes_past_one_window_are_written_without_a_wait() {
        let (mut client, _listener, mut peer) = pair();
        let page = [0x5A; 4096];
        let put = |key| Request::Put { key, page: &page };
        let mut one = Vec::new();
        put(0).encode(&mut one);
        let frame_len = frame::HEADER_LEN + one.len();
        let window = RECV_BUF.div_ceil(frame_len) as u64;
        for key in 0..window - 1 {
            client.pipeline_send(&put(key)).unwrap();
        }
        assert!(!peer_hears_anything(&mut peer), "sent under one window");
        client.pipeline_send(&put(window - 1)).unwrap();
        let mut wire = vec![0u8; window as usize * frame_len];
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        peer.read_exact(&mut wire).unwrap();
        let keys: Vec<_> = requests(&wire).into_iter().map(|(_, r)| r).collect();
        assert_eq!(keys, (0..window).map(put).collect::<Vec<_>>());
        // The window starts over: the next request is held until a
        // flush asks for it.
        client.pipeline_send(&Request::Ping).unwrap();
        assert!(!peer_hears_anything(&mut peer), "sent under one window");
        client.pipeline_flush().unwrap();
        let mut ping = [0u8; frame::HEADER_LEN + 1];
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        peer.read_exact(&mut ping).unwrap();
        assert_eq!(requests(&ping), [(window as u32 + 1, Request::Ping)]);
    }

    #[test]
    fn with_replies_owed_the_client_writes_once_it_holds_as_many() {
        let (mut client, _listener, mut peer) = pair();
        for key in 0..16u64 {
            client.pipeline_send(&Request::Get { key }).unwrap();
        }
        // Nothing is buffered, so the receive writes all 16, then times
        // out on the silent peer.
        let mut out = Vec::new();
        assert!(matches!(
            client.pipeline_recv(&mut out),
            Err(ClientError::Io(_))
        ));
        let mut rbuf = RecvBuf::new();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut read_requests = |peer: &mut TcpStream, n: u64| {
            (0..n)
                .map(|_| {
                    let f = rbuf.next_frame(peer, frame::DEFAULT_MAX_FRAME).unwrap();
                    let req = Request::decode(&rbuf.unparsed()[f.body.clone()]).unwrap();
                    let Request::Get { key } = req else {
                        panic!("unexpected request {req:?}")
                    };
                    rbuf.consume(f.consumed);
                    (f.seq, key)
                })
                .collect::<Vec<_>>()
        };
        let first = read_requests(&mut peer, 16);
        assert_eq!(
            first,
            (0..16).map(|k| (k as u32 + 1, k)).collect::<Vec<_>>()
        );
        let half: Vec<u8> = (1..=8)
            .flat_map(|seq| reply(seq, Status::NotFound, b""))
            .collect();
        peer.write_all(&half).unwrap();
        // Reap one, send one: with 16 - k replies owed and k held, the
        // client writes at k = 8 without waiting on the 8 still owed.
        for k in 1..=8u64 {
            let (seq, _) = client.pipeline_recv(&mut out).unwrap();
            assert_eq!(seq, k as u32);
            client
                .pipeline_send(&Request::Get { key: 100 + k })
                .unwrap();
            if k == 7 {
                assert!(!peer_hears_anything(&mut peer), "sent under half a window");
                peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            }
        }
        assert_eq!(
            read_requests(&mut peer, 8),
            (1..=8)
                .map(|k| (16 + k as u32, 100 + k))
                .collect::<Vec<_>>()
        );
        assert_eq!((client.held, client.unreaped), (0, 16), "8 + 8 owed");
    }

    #[test]
    fn dropping_the_client_writes_what_it_holds() {
        let (mut client, _listener, mut peer) = pair();
        for _ in 0..3 {
            client.pipeline_send(&Request::Ping).unwrap();
        }
        drop(client);
        let mut wire = Vec::new();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        peer.read_to_end(&mut wire).unwrap();
        let sent: Vec<_> = (1..=3).map(|seq| (seq, Request::Ping)).collect();
        assert_eq!(requests(&wire), sent);
    }
}
