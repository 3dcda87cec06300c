//! The server core: one thread, a readiness loop, and a
//! per-connection state machine.
//!
//! The reactor multiplexes *every* connection over a single nonblocking
//! readiness loop ([`crate::event::EventBackend`]): sockets are only
//! touched when the kernel says they are ready, so ten thousand idle
//! connections cost ten thousand fds and some buffer bytes — not ten
//! thousand threads.
//!
//! Each connection walks the classic state machine
//!
//! ```text
//!   ReadHeader → ReadBody → Execute → WriteResponse
//!        ^                               |
//!        +------------- next frame ------+
//! ```
//!
//! driven by the total decoders of [`crate::frame`] and
//! [`crate::proto`]. Because input is parsed out of
//! an accumulation buffer, the protocol is naturally **pipelined**: a
//! burst of `W` tagged request frames is executed back-to-back and the
//! `W` tagged responses are staged into one write buffer — no
//! per-request round-trip, no reordering hazard (each response carries
//! its request's `seq`).
//!
//! Operational behaviour, pinned by the integration suite on both
//! pollers:
//!
//! - **Counted admission** — at most [`crate::ServerConfig::max_conns`]
//!   connections; the next accept is answered `BUSY` (tag 0) and
//!   closed.
//! - **Idle timeout** — wall-clock, enforced by a sweep over every
//!   connection once a tick ([`Reactor::sweep`]); an idle connection is
//!   closed and counted once.
//! - **Malformed input** — counts, best-effort `ERR`, close. Nothing on
//!   the wire can panic the reactor.
//! - **Backpressure** — a peer that writes requests but never reads
//!   responses stops being parsed (and read) once
//!   [`WRITE_BACKPRESSURE`] bytes of responses are queued; parsing
//!   resumes as its buffer drains.
//! - **Buffer hygiene** — after a burst, read/write buffers above
//!   [`crate::ServerConfig::buffer_high_water`] are shrunk back, so one
//!   max-size frame does not pin its worst-case allocation per
//!   connection forever.
//! - **Graceful shutdown** — stop accepting, finish every started
//!   frame, flush every staged response, then close; bounded by a drain
//!   deadline.

use crate::event::{new_backend, Event, EventBackend, Interest, Waker};
use crate::frame::{self, FrameError, RecvBuf, HEADER_LEN, SEQ_UNSOLICITED};
use crate::proto::{Request, Status};
use crate::service::{wstat, Service, STRIPE};
use crate::ServerConfig;
use cc_telemetry::trace::{sop, tier as trace_tier, AnomalyKind, TraceCtx};
use cc_util::Slab;
use std::io::{ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registration token of the accept listener.
const TOKEN_LISTENER: usize = usize::MAX;
/// Registration token of the shutdown waker.
const TOKEN_WAKER: usize = usize::MAX - 1;
/// Accepts drained per listener wake-up, so one accept storm cannot
/// starve connection I/O.
const ACCEPT_BATCH: usize = 64;
/// Staged-response bytes beyond which a connection stops being read
/// and parsed until the peer drains its responses.
pub(crate) const WRITE_BACKPRESSURE: usize = 1 << 20;
/// Hard cap on how long a drain-shutdown waits for started frames.
const DRAIN_CAP: Duration = Duration::from_secs(5);

/// Where a connection is in its request cycle: the documented state
/// machine, read off the buffers in tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Waiting for (the rest of) an 8-byte frame header.
    ReadHeader,
    /// Header complete; waiting for the declared body bytes.
    ReadBody,
    /// Responses staged and not yet fully written.
    WriteResponse,
}

/// Why a connection is being torn down (close-side accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// Peer closed cleanly between frames.
    Peer,
    /// Idle deadline expired.
    Idle,
    /// Server shutting down.
    Shutdown,
    /// Framing or protocol violation.
    Malformed,
    /// Transport error.
    Error,
}

/// The reactor's one clock read on the request path. Requests drained
/// together chain their stamps: request i's end is request i+1's start,
/// so a burst of n reads the clock n + 1 times.
fn stamp() -> Instant {
    #[cfg(test)]
    tests::STAMPS.with(|n| n.set(n.get() + 1));
    Instant::now()
}

/// The socket-independent half of a connection: buffers and the parse
/// cursor. Split out so the frame-walking logic is unit-testable
/// without a live socket.
pub(crate) struct Wire {
    /// Input read from the socket and not yet parsed.
    rbuf: RecvBuf,
    /// Staged responses; `wpos..len` is unsent.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests executed on this connection.
    requests: u64,
    /// The end stamp of the last request executed.
    last_stamp: Option<Instant>,
}

impl Wire {
    pub(crate) fn new() -> Wire {
        Wire {
            rbuf: RecvBuf::new(),
            wbuf: Vec::new(),
            wpos: 0,
            requests: 0,
            last_stamp: None,
        }
    }

    /// Where the connection is in its request cycle, from what its
    /// buffers hold.
    #[cfg(test)]
    pub(crate) fn state(&self) -> ConnState {
        let unparsed = self.rbuf.unparsed().len();
        if unparsed >= HEADER_LEN {
            // A complete header is buffered: we are mid-body (either
            // waiting for bytes or parked behind backpressure).
            ConnState::ReadBody
        } else if unparsed == 0 && self.pending_out() > 0 {
            ConnState::WriteResponse
        } else {
            ConnState::ReadHeader
        }
    }

    pub(crate) fn requests(&self) -> u64 {
        self.requests
    }

    /// Response bytes staged and not yet written to the socket.
    pub(crate) fn pending_out(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether unparsed input remains (after [`Wire::drain_requests`],
    /// anything left is a partial frame — or frames parked behind
    /// backpressure).
    pub(crate) fn has_unparsed(&self) -> bool {
        !self.rbuf.unparsed().is_empty()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn read_buf_capacity(&self) -> usize {
        self.rbuf.capacity()
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn write_buf_capacity(&self) -> usize {
        self.wbuf.capacity()
    }

    /// Read `bytes` as if from the socket, through the same buffer
    /// reads the socket path makes.
    #[cfg(test)]
    pub(crate) fn ingest(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            self.rbuf
                .fill_from(&mut bytes)
                .expect("a slice read cannot fail");
        }
    }

    /// Parse and execute every complete frame currently buffered,
    /// staging tagged responses. Stops early under write backpressure.
    /// Returns the close reason when the stream is unrecoverable
    /// (malformed input) — the staged `ERR` still flushes first.
    ///
    /// Each request is timed from the previous one's end stamp to the
    /// staging of its reply, its parse included — the first from a
    /// stamp read once its frame decodes, so a call that finds no
    /// complete frame reads no clock: every request on its opcode's
    /// histogram, and a sampled one as its `request` span.
    pub(crate) fn drain_requests(
        &mut self,
        service: &Service,
        cfg: &ServerConfig,
        conn_id: u64,
        scratch: &mut Vec<u8>,
    ) -> Option<CloseReason> {
        let mut start = None;
        loop {
            if self.pending_out() > WRITE_BACKPRESSURE {
                break None;
            }
            let parsed = match self.rbuf.parse(cfg.max_frame_bytes) {
                Ok(Some(p)) => p,
                Ok(None) => break None,
                Err(FrameError::Oversized { .. }) => {
                    // The header (and so the tag) is visible whenever
                    // at least 8 bytes arrived; echo it if we can.
                    let avail = self.rbuf.unparsed();
                    let seq = if avail.len() >= HEADER_LEN {
                        u32::from_le_bytes(avail[4..8].try_into().expect("checked length"))
                    } else {
                        SEQ_UNSOLICITED
                    };
                    service.malformed();
                    self.stage_err(seq, "frame exceeds size limit");
                    break Some(CloseReason::Malformed);
                }
                Err(_) => unreachable!("parse_frame only fails Oversized"),
            };
            let body = &self.rbuf.unparsed()[parsed.body];
            match Request::decode(body) {
                Ok(req) => {
                    let opcode = req.opcode();
                    let op = service.begin(*start.get_or_insert_with(stamp));
                    let status = service.handle(&req, scratch, &op);
                    // Reply flush on this backend is the staging of the
                    // tagged frame; the socket write happens when the
                    // peer is writable.
                    let reply = op.traced().then(|| op.step());
                    frame::append_frame(&mut self.wbuf, parsed.seq, 1 + scratch.len(), |b| {
                        b.push(status as u8);
                        b.extend_from_slice(scratch);
                    });
                    let end = stamp();
                    let (codec, status) = (opcode as u8, status as u8);
                    if let Some(reply) = reply {
                        let len = (1 + scratch.len()) as u64;
                        reply.note(trace_tier::NONE, codec);
                        reply.finish_at(end, None, STRIPE, sop::REPLY_FLUSH, status, len);
                    }
                    op.note(trace_tier::NONE, codec);
                    let hist = Some(opcode as usize - 1); // `wop`'s index
                    op.finish_at(end, hist, STRIPE, sop::REQUEST, status, conn_id);
                    (start, self.last_stamp) = (Some(end), Some(end));
                    self.requests += 1;
                    self.rbuf.consume(parsed.consumed);
                }
                Err(e) => {
                    service.malformed();
                    self.stage_err(parsed.seq, &e.to_string());
                    self.rbuf.consume(parsed.consumed);
                    break Some(CloseReason::Malformed);
                }
            }
        }
    }

    /// The peer half-closed its stream. A partial frame left behind is
    /// a truncation (counted, answered `ERR`); complete silence between
    /// frames is a clean close.
    pub(crate) fn note_eof(&mut self, service: &Service) -> CloseReason {
        if self.has_unparsed() {
            service.malformed();
            self.stage_err(SEQ_UNSOLICITED, "truncated frame");
            CloseReason::Malformed
        } else {
            CloseReason::Peer
        }
    }

    fn stage_err(&mut self, seq: u32, msg: &str) {
        frame::append_frame(&mut self.wbuf, seq, 1 + msg.len(), |b| {
            b.push(Status::Err as u8);
            b.extend_from_slice(msg.as_bytes());
        });
    }

    /// Shrink over-grown buffers back to the configured high-water mark
    /// once they empty.
    pub(crate) fn housekeeping(&mut self, high_water: usize) {
        self.rbuf.shrink_when_drained(high_water);
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
            frame::shrink_to_high_water(&mut self.wbuf, high_water);
        }
    }

    /// Flush staged responses to `w` until done or `WouldBlock`,
    /// adding each `write` call to `writes`. `Ok(true)` means
    /// everything staged has been written.
    fn flush_to(&mut self, w: &mut impl Write, writes: &mut u64) -> std::io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            *writes += 1;
            match w.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }
}

/// One live connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    conn_id: u64,
    wire: Wire,
    interest: Interest,
    last_active: Instant,
    /// Set when the connection must close as soon as its staged output
    /// flushes.
    close_after_flush: Option<CloseReason>,
    /// When this connection was parked behind write backpressure
    /// (parsing paused); reset on any flush progress. Tracing only.
    parked_since: Option<Instant>,
    /// Pending output observed when the park episode started (or last
    /// made progress) — [`Reactor::sweep`] compares against it.
    parked_pending: usize,
    /// A backpressure-stall anomaly already fired for this episode.
    stall_reported: bool,
}

/// The readiness loop. Owns the listener and the registered
/// connections; runs on one dedicated thread. Besides the request stamps
/// ([`stamp`]) it reads the clock once a loop turn, and once a tick it
/// [`Reactor::sweep`]s every connection.
pub(crate) struct Reactor {
    backend: Box<dyn EventBackend>,
    listener: Option<TcpListener>,
    waker: Waker,
    service: Arc<Service>,
    cfg: Arc<ServerConfig>,
    shutdown: Arc<AtomicBool>,
    conns: Slab<Conn>,
    /// When the next [`Reactor::sweep`] is due.
    next_sweep: Instant,
    scratch: Vec<u8>,
    events: Vec<Event>,
    draining: bool,
    drain_deadline: Instant,
}

impl Reactor {
    /// Build the reactor: nonblocking listener + waker registered with
    /// the readiness backend `cfg.backend` names. Returns the waker handle the
    /// server uses to interrupt [`Reactor::run`] at shutdown.
    pub(crate) fn new(
        listener: TcpListener,
        service: Arc<Service>,
        cfg: Arc<ServerConfig>,
        shutdown: Arc<AtomicBool>,
    ) -> std::io::Result<(Reactor, crate::event::WakeHandle)> {
        listener.set_nonblocking(true)?;
        let mut backend = new_backend(cfg.backend)?;
        backend.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        let waker = Waker::new()?;
        backend.register(waker.reader_fd(), TOKEN_WAKER, Interest::READ)?;
        let handle = waker.handle()?;
        let now = Instant::now();
        Ok((
            Reactor {
                backend,
                listener: Some(listener),
                waker,
                service,
                cfg,
                shutdown,
                conns: Slab::new(),
                next_sweep: now,
                scratch: Vec::new(),
                events: Vec::with_capacity(256),
                draining: false,
                drain_deadline: now,
            },
            handle,
        ))
    }

    /// Drive the loop until shutdown completes its drain.
    pub(crate) fn run(mut self) {
        // The sweep's period and the longest poll: a sixteenth of the
        // idle span, within 1–100 ms.
        let tick = (self.cfg.idle_timeout / 16)
            .clamp(Duration::from_millis(1), Duration::from_millis(100));
        let mut timeout = tick;
        loop {
            let mut events = std::mem::take(&mut self.events);
            self.service.count(wstat::POLLS, 1);
            if let Err(e) = self.backend.poll(&mut events, Some(timeout)) {
                // A failing poll leaves no readiness source at all;
                // treat it as fatal and drain out.
                debug_assert!(false, "event backend poll failed: {e}");
                self.shutdown.store(true, Ordering::Relaxed);
            }
            // The turn's one clock read: it stamps every event's
            // activity, every accept and every park start.
            let now = Instant::now();
            let mut accept_ready = false;
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => accept_ready = true,
                    TOKEN_WAKER => self.waker.drain(),
                    token => self.conn_ready(token, ev, now),
                }
            }
            events.clear();
            self.events = events;
            // Accept after serving existing connections: a token freed
            // and reused this batch must not see the old fd's events.
            if accept_ready && !self.draining {
                self.accept_ready(now);
            }

            if !self.draining && self.shutdown.load(Ordering::Relaxed) {
                self.begin_drain(now);
            }
            if now >= self.next_sweep {
                self.sweep(now);
                self.next_sweep = now + tick;
            }
            // Wake for the next sweep when nothing else arrives.
            timeout = self.next_sweep - now;
            if self.draining {
                if self.conns.is_empty() {
                    break;
                }
                if now >= self.drain_deadline {
                    let tokens: Vec<usize> = self.conns.iter().map(|(t, _)| t).collect();
                    for t in tokens {
                        self.close(t, CloseReason::Shutdown);
                    }
                    break;
                }
            }
        }
    }

    /// Accept every pending connection (bounded per wake-up), applying
    /// counted admission.
    fn accept_ready(&mut self, now: Instant) {
        for _ in 0..ACCEPT_BATCH {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.conns.len() >= self.cfg.max_conns {
                        self.reject_busy(stream);
                        continue;
                    }
                    self.admit(stream, now);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Over-admission answer: `BUSY` (tag 0), then close. The socket
    /// was just accepted, so the best-effort write into an empty send
    /// buffer does not block the loop.
    fn reject_busy(&mut self, mut stream: TcpStream) {
        self.service.count(wstat::BUSY_REJECTED, 1);
        let _ = stream.set_nonblocking(true);
        self.service.count(wstat::SOCK_WRITES, 1);
        let _ = frame::write_frame(&mut stream, SEQ_UNSOLICITED, &[Status::Busy as u8]);
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }

    fn admit(&mut self, stream: TcpStream, now: Instant) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let conn_id = self.service.next_conn_id();
        let token = self.conns.insert(Conn {
            stream,
            conn_id,
            wire: Wire::new(),
            interest: Interest::READ,
            last_active: now,
            close_after_flush: None,
            parked_since: None,
            parked_pending: 0,
            stall_reported: false,
        });
        let fd = self.conns[token].stream.as_raw_fd();
        if self.backend.register(fd, token, Interest::READ).is_err() {
            // Registration failure: the connection was never served.
            self.conns.remove(token);
            return;
        }
        self.service.conn_opened();
    }

    /// Dispatch readiness on a connection token. Stale tokens (closed
    /// earlier in this batch) are skipped.
    fn conn_ready(&mut self, token: usize, ev: Event, now: Instant) {
        if !self.conns.contains(token) {
            return;
        }
        if ev.error {
            self.close(token, CloseReason::Error);
            return;
        }
        let mut eof = false;
        if ev.readable {
            let conn = &mut self.conns[token];
            // Don't grow the buffer for a peer we've stopped serving.
            if conn.close_after_flush.is_none() {
                conn.last_active = now;
                // Read until a read leaves the free tail unfilled: the
                // socket held less than the buffer offered, so it is
                // empty. Both pollers are level-triggered, so bytes that
                // arrive after that read show up at the next poll; a
                // socket drained by a full read answers `WouldBlock`.
                let mut reads = 0;
                let mut failed = false;
                loop {
                    reads += 1;
                    match conn.wire.rbuf.fill_from(&mut conn.stream) {
                        Ok(0) => {
                            eof = true;
                            break;
                        }
                        Ok(_) => {
                            if !conn.wire.rbuf.is_full()
                                || conn.wire.pending_out() > WRITE_BACKPRESSURE
                            {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                }
                self.service.count(wstat::SOCK_READS, reads);
                if failed {
                    self.close(token, CloseReason::Error);
                    return;
                }
            }
        }
        self.advance(token, eof, now);
    }

    /// Execute buffered frames, flush staged responses, settle interest
    /// and close state. The one place every connection event funnels
    /// through.
    fn advance(&mut self, token: usize, eof: bool, now: Instant) {
        let Reactor {
            conns,
            service,
            cfg,
            scratch,
            ..
        } = self;
        let Some(conn) = conns.get_mut(token) else {
            return;
        };

        if conn.close_after_flush.is_none() {
            if let Some(reason) = conn
                .wire
                .drain_requests(service, cfg, conn.conn_id, scratch)
            {
                conn.close_after_flush = Some(reason);
            } else if eof {
                conn.close_after_flush = Some(conn.wire.note_eof(service));
            } else if self.draining && !conn.wire.has_unparsed() {
                // Between frames during a drain: nothing started, done.
                conn.close_after_flush = Some(CloseReason::Shutdown);
            }
        }

        // Flush, then re-drain: flushing can drop pending output back
        // below the backpressure cap while complete frames sit parked
        // in the read buffer. The peer may have nothing left to send,
        // so no further readable event will arrive — parsing must
        // resume here or the connection stalls. Loop until parsing
        // makes no progress (partial frame) or the cap is hit again.
        let mut flushed;
        loop {
            let mut writes = 0;
            let flush = conn.wire.flush_to(&mut conn.stream, &mut writes);
            service.count(wstat::SOCK_WRITES, writes);
            flushed = match flush {
                Ok(done) => done,
                Err(_) => {
                    self.close(token, CloseReason::Error);
                    return;
                }
            };
            if conn.close_after_flush.is_some()
                || !conn.wire.has_unparsed()
                || conn.wire.pending_out() > WRITE_BACKPRESSURE
            {
                break;
            }
            let before = conn.wire.requests();
            if let Some(reason) = conn
                .wire
                .drain_requests(service, cfg, conn.conn_id, scratch)
            {
                conn.close_after_flush = Some(reason);
            } else if conn.wire.requests() == before {
                break;
            }
        }
        conn.wire.housekeeping(cfg.buffer_high_water);

        if flushed {
            if let Some(reason) = conn.close_after_flush {
                self.close(token, reason);
                return;
            }
        }

        // Park/unpark bookkeeping (tracing only): a connection is parked
        // while backpressure pauses its parsing. The park itself becomes
        // a span when it ends; a park that stops making progress is
        // `sweep`'s business.
        if let Some(tr) = service.tracer() {
            let parked =
                conn.close_after_flush.is_none() && conn.wire.pending_out() > WRITE_BACKPRESSURE;
            match (parked, conn.parked_since) {
                // Parked since the request whose reply crossed the cap.
                (true, None) => {
                    conn.parked_since = Some(conn.wire.last_stamp.unwrap_or(now));
                    conn.parked_pending = conn.wire.pending_out();
                    conn.stall_reported = false;
                }
                (false, Some(since)) => {
                    let park = service
                        .telemetry()
                        .op_since(since, Some(tr), TraceCtx::NONE);
                    park.finish(None, STRIPE, sop::PARK, 0, conn.conn_id);
                    conn.parked_since = None;
                    conn.stall_reported = false;
                }
                _ => {}
            }
        }

        // Interest: writable while output is pending; readable unless
        // the peer is parked behind backpressure or being closed.
        let want = Interest {
            readable: conn.close_after_flush.is_none()
                && conn.wire.pending_out() <= WRITE_BACKPRESSURE,
            writable: !flushed,
        };
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            conn.interest = want;
            if self.backend.reregister(fd, token, want).is_err() {
                self.close(token, CloseReason::Error);
            }
        }
    }

    fn close(&mut self, token: usize, reason: CloseReason) {
        let conn = self.conns.remove(token);
        let _ = self.backend.deregister(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        self.service.conn_closed(reason == CloseReason::Idle);
    }

    /// The tick's one pass over the connections. Closes each one idle
    /// for `idle_timeout` (never early; at most a tick and a loop turn
    /// late), and fires a backpressure-stall anomaly for each parked one
    /// whose staged output has made no flush progress for the tracer's
    /// stall window — a peer that pipelines requests but stopped reading
    /// responses — once per park episode. O(connections) per tick.
    fn sweep(&mut self, now: Instant) {
        let tracer = self.service.tracer();
        let mut idle = Vec::new();
        for (token, conn) in self.conns.iter_mut() {
            if now.saturating_duration_since(conn.last_active) >= self.cfg.idle_timeout {
                idle.push(token);
                continue;
            }
            let (Some(tr), Some(since)) = (tracer, conn.parked_since) else {
                continue;
            };
            let pending = conn.wire.pending_out();
            if pending < conn.parked_pending {
                // The peer drained something: restart the window.
                conn.parked_since = Some(now);
                conn.parked_pending = pending;
                conn.stall_reported = false;
            } else if !conn.stall_reported
                && now.saturating_duration_since(since) >= tr.stall_after()
            {
                tr.anomaly(
                    AnomalyKind::BackpressureStall,
                    0,
                    conn.conn_id,
                    pending as u64,
                );
                conn.stall_reported = true;
            }
        }
        for token in idle {
            self.close(token, CloseReason::Idle);
        }
    }

    /// Stop accepting and put every quiescent connection on the way
    /// out; started frames get until the drain deadline.
    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline = now + self.cfg.idle_timeout.min(DRAIN_CAP);
        if let Some(listener) = self.listener.take() {
            let _ = self.backend.deregister(listener.as_raw_fd());
        }
        let tokens: Vec<usize> = self.conns.iter().map(|(t, _)| t).collect();
        for token in tokens {
            self.advance(token, false, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::store::{CompressedStore, StoreConfig};
    use cc_server_test_helpers::*;
    use std::cell::Cell;

    thread_local! {
        /// Clock reads at [`stamp`] on this thread.
        pub(super) static STAMPS: Cell<u64> = const { Cell::new(0) };
    }

    /// In-crate test helpers (kept in a module so unit tests read
    /// cleanly).
    mod cc_server_test_helpers {
        use super::*;

        pub fn service() -> Service {
            let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(8 << 20)));
            Service::new(store)
        }

        pub fn put_frame(seq: u32, key: u64, page: &[u8]) -> Vec<u8> {
            let mut body = Vec::new();
            Request::Put { key, page }.encode(&mut body);
            let mut wire = Vec::new();
            frame::write_frame(&mut wire, seq, &body).unwrap();
            wire
        }

        pub fn get_frame(seq: u32, key: u64) -> Vec<u8> {
            let mut body = Vec::new();
            Request::Get { key }.encode(&mut body);
            let mut wire = Vec::new();
            frame::write_frame(&mut wire, seq, &body).unwrap();
            wire
        }

        /// Parse every staged response out of a wire's write buffer.
        pub fn staged_responses(wire_bytes: &[u8]) -> Vec<(u32, Status, Vec<u8>)> {
            let mut out = Vec::new();
            let mut pos = 0;
            while let Some(p) = frame::parse_frame(&wire_bytes[pos..], 1 << 20).unwrap() {
                let body = &wire_bytes[pos + p.body.start..pos + p.body.end];
                let resp = crate::proto::Response::decode(body).unwrap();
                out.push((p.seq, resp.status, resp.payload.to_vec()));
                pos += p.consumed;
            }
            assert_eq!(pos, wire_bytes.len(), "trailing junk in write buffer");
            out
        }
    }

    fn test_cfg() -> ServerConfig {
        ServerConfig::default()
    }

    /// The per-connection state machine walks
    /// ReadHeader → ReadBody → Execute → WriteResponse as bytes arrive,
    /// at every byte-boundary split.
    #[test]
    fn state_machine_transitions_byte_by_byte() {
        let service = service();
        let cfg = test_cfg();
        let mut scratch = Vec::new();
        let page = vec![0xAB; 512];
        let burst = put_frame(1, 7, &page);

        let mut w = Wire::new();
        assert_eq!(w.state(), ConnState::ReadHeader);
        for (i, &b) in burst.iter().enumerate() {
            w.ingest(&[b]);
            assert!(w.drain_requests(&service, &cfg, 0, &mut scratch).is_none());
            let expect = if i + 1 < HEADER_LEN {
                ConnState::ReadHeader
            } else if i + 1 < burst.len() {
                ConnState::ReadBody
            } else {
                ConnState::WriteResponse
            };
            assert_eq!(w.state(), expect, "after byte {i}");
        }
        assert_eq!(w.requests(), 1);
        let resps = staged_responses(&w.wbuf);
        assert_eq!(resps, vec![(1, Status::Ok, Vec::new())]);
    }

    /// A pipelined burst executes back-to-back with tags echoed in
    /// order, one staged write buffer for the whole window.
    #[test]
    fn pipelined_burst_executes_all_tags() {
        let service = service();
        let cfg = test_cfg();
        let mut scratch = Vec::new();
        let page = vec![0x5A; 256];

        let mut burst = Vec::new();
        for seq in 1..=8u32 {
            burst.extend_from_slice(&put_frame(seq, seq as u64, &page));
        }
        for seq in 9..=16u32 {
            burst.extend_from_slice(&get_frame(seq, (seq - 8) as u64));
        }
        let mut w = Wire::new();
        w.ingest(&burst);
        assert!(w.drain_requests(&service, &cfg, 0, &mut scratch).is_none());
        assert_eq!(w.requests(), 16);
        let resps = staged_responses(&w.wbuf);
        assert_eq!(resps.len(), 16);
        for (i, (seq, status, payload)) in resps.iter().enumerate() {
            assert_eq!(*seq, i as u32 + 1);
            assert_eq!(*status, Status::Ok);
            if i >= 8 {
                assert_eq!(payload, &page, "GET seq {seq} returned wrong bytes");
            }
        }
    }

    /// A drained burst of n requests reads the clock n + 1 times — each
    /// request's end stamp is the next one's start — and still records
    /// every request: each opcode histogram counts exactly its requests.
    /// A drain that finds only part of a frame reads no clock.
    #[test]
    fn a_burst_of_n_requests_takes_n_plus_one_stamps() {
        let service = service();
        let cfg = test_cfg();
        let mut scratch = Vec::new();
        let page = vec![0x3C; 512];
        let mut burst = Vec::new();
        for seq in 1..=12u32 {
            burst.extend_from_slice(&put_frame(seq, seq as u64 % 5, &page));
        }
        for seq in 13..=20u32 {
            burst.extend_from_slice(&get_frame(seq, seq as u64 % 7));
        }
        let mut w = Wire::new();
        w.ingest(&burst[..5]);
        STAMPS.with(|n| n.set(0));
        assert!(w.drain_requests(&service, &cfg, 0, &mut scratch).is_none());
        assert_eq!((w.requests(), STAMPS.with(Cell::get)), (0, 0));
        w.ingest(&burst[5..]);
        assert!(w.drain_requests(&service, &cfg, 0, &mut scratch).is_none());
        assert_eq!(w.requests(), 20);
        assert_eq!(STAMPS.with(Cell::get), 20 + 1);
        let snap = service.snapshot();
        for (hist, counter, n) in [("put", "req_put", 12), ("get", "req_get", 8)] {
            assert_eq!(snap.counter(counter), Some(n), "{counter}");
            assert_eq!(snap.op(hist).map(|h| h.count), Some(n), "{hist} histogram");
        }
    }

    /// Satellite regression: after a max-size frame passes through, the
    /// retained buffers shrink back to the high-water mark — a burst of
    /// large PUTs must not pin worst-case memory per connection.
    #[test]
    fn buffers_shrink_to_high_water_after_large_frame() {
        let service = service();
        let cfg = test_cfg();
        let hw = 16 << 10;
        let mut scratch = Vec::new();
        // A page well above the high-water mark (and its GET response).
        let page = vec![0xCD; 256 << 10];

        let mut w = Wire::new();
        w.ingest(&put_frame(1, 1, &page));
        w.ingest(&get_frame(2, 1));
        assert!(w.drain_requests(&service, &cfg, 0, &mut scratch).is_none());
        assert!(
            w.read_buf_capacity() > hw,
            "test needs the burst to out-grow the mark"
        );
        // Responses drain (as if the socket accepted everything)...
        let mut sink = Vec::new();
        assert!(w.flush_to(&mut sink, &mut 0).unwrap());
        let resps = staged_responses(&sink);
        assert_eq!(resps[1].2, page, "GET must round-trip before shrink");
        // ...and housekeeping returns both buffers to the mark.
        w.housekeeping(hw);
        assert!(
            w.read_buf_capacity() <= hw,
            "read buffer capacity {} stuck above high-water {hw}",
            w.read_buf_capacity()
        );
        assert!(
            w.write_buf_capacity() <= hw,
            "write buffer capacity {} stuck above high-water {hw}",
            w.write_buf_capacity()
        );
        // And the connection still serves afterwards.
        w.ingest(&get_frame(3, 1));
        assert!(w.drain_requests(&service, &cfg, 0, &mut scratch).is_none());
        assert_eq!(w.requests(), 3);
    }

    /// Backpressure: a peer that pipelines requests but never reads
    /// stops being parsed once the staged output crosses the cap, and
    /// resumes (exactly once per frame) after draining.
    #[test]
    fn write_backpressure_pauses_parsing() {
        let service = service();
        let cfg = test_cfg();
        let mut scratch = Vec::new();
        let page = vec![0x11; 128 << 10];
        let mut w = Wire::new();
        w.ingest(&put_frame(1, 1, &page));
        assert!(w.drain_requests(&service, &cfg, 0, &mut scratch).is_none());
        // Stage GET responses until the cap trips.
        let mut seq = 2u32;
        while w.pending_out() <= WRITE_BACKPRESSURE {
            w.ingest(&get_frame(seq, 1));
            assert!(w.drain_requests(&service, &cfg, 0, &mut scratch).is_none());
            seq += 1;
        }
        let executed = w.requests();
        // More arrivals are buffered, not executed.
        w.ingest(&get_frame(seq, 1));
        w.ingest(&get_frame(seq + 1, 1));
        assert!(w.drain_requests(&service, &cfg, 0, &mut scratch).is_none());
        assert_eq!(w.requests(), executed, "parsed past the backpressure cap");
        assert!(w.has_unparsed());
        // Drain the socket side; parsing resumes and catches up.
        let mut sink = Vec::new();
        assert!(w.flush_to(&mut sink, &mut 0).unwrap());
        w.housekeeping(cfg.buffer_high_water);
        assert!(w.drain_requests(&service, &cfg, 0, &mut scratch).is_none());
        assert_eq!(w.requests(), executed + 2);
        assert!(!w.has_unparsed());
    }

    /// Malformed frames stage a tagged ERR and report an unrecoverable
    /// close; EOF mid-frame is a truncation, between frames a clean
    /// close.
    #[test]
    fn malformed_and_eof_classification() {
        let service = service();
        let cfg = test_cfg();
        let mut scratch = Vec::new();

        // Undecodable body: tag echoed on the ERR.
        let mut w = Wire::new();
        let mut junk = Vec::new();
        frame::write_frame(&mut junk, 42, &[99]).unwrap();
        w.ingest(&junk);
        assert_eq!(
            w.drain_requests(&service, &cfg, 0, &mut scratch),
            Some(CloseReason::Malformed)
        );
        let resps = staged_responses(&w.wbuf);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].0, 42);
        assert_eq!(resps[0].1, Status::Err);

        // Oversized prefix.
        let mut w = Wire::new();
        w.ingest(&(u32::MAX).to_le_bytes());
        w.ingest(&7u32.to_le_bytes());
        assert_eq!(
            w.drain_requests(&service, &cfg, 0, &mut scratch),
            Some(CloseReason::Malformed)
        );

        // EOF with half a header: truncation.
        let mut w = Wire::new();
        w.ingest(&[1, 2, 3]);
        assert!(w.drain_requests(&service, &cfg, 0, &mut scratch).is_none());
        assert_eq!(w.note_eof(&service), CloseReason::Malformed);

        // EOF between frames: clean close.
        let mut w = Wire::new();
        w.ingest(&get_frame(1, 5));
        assert!(w.drain_requests(&service, &cfg, 0, &mut scratch).is_none());
        assert_eq!(w.note_eof(&service), CloseReason::Peer);

        let snap = service.snapshot();
        assert_eq!(snap.counter("malformed_frames"), Some(3));
    }

    /// `sweep` closes a connection idle for `idle_timeout` at the
    /// deadline and not before, counted once; a connection then admitted
    /// into the freed slot keeps its own deadline.
    #[test]
    fn sweep_closes_idle_connections_at_the_deadline_never_early() {
        const IDLE: Duration = Duration::from_secs(1);
        let ms = Duration::from_millis;
        let service = Arc::new(service());
        let cfg = Arc::new(test_cfg().with_idle_timeout(IDLE));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let (mut reactor, _wake) =
            Reactor::new(listener, Arc::clone(&service), cfg, shutdown).unwrap();
        // The client ends stay open, so only a deadline closes anything.
        let peer = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut clients = Vec::new();
        let mut accept = || {
            clients.push(TcpStream::connect(peer.local_addr().unwrap()).unwrap());
            peer.accept().unwrap().0
        };
        let counted = |name| service.snapshot().counter(name);

        let t0 = Instant::now();
        reactor.admit(accept(), t0);
        let (slot, _) = reactor.conns.iter().next().expect("admitted");
        reactor.sweep(t0 + ms(999));
        assert_eq!(service.open_connections(), 1, "closed before its deadline");
        reactor.sweep(t0 + IDLE);
        assert_eq!(service.open_connections(), 0, "open past its deadline");
        assert_eq!(counted("idle_timeouts"), Some(1));

        let t1 = t0 + IDLE;
        reactor.admit(accept(), t1);
        let reused = reactor.conns.iter().next().map(|(token, _)| token);
        assert_eq!(reused, Some(slot), "the freed slot is reused");
        reactor.sweep(t1 + ms(999));
        assert_eq!(
            service.open_connections(),
            1,
            "closed on a deadline not its own"
        );
        reactor.sweep(t1 + IDLE);
        assert_eq!(service.open_connections(), 0);
        assert_eq!(counted("idle_timeouts"), Some(2));
        assert_eq!(counted("conns_closed"), Some(2));
    }
}
