//! End-to-end tests against a live `cc-server` on loopback.
//!
//! Covers the service-layer contract the unit tests cannot: concurrent
//! integrity under a mixed workload (every GET verified against a
//! shadow model, the store budget watched throughout), saturation
//! answering `BUSY` with the rejection visible in the wire counters,
//! each malformed-input class closing the connection with `ERR` without
//! panicking the reactor, wall-clock idle-timeout reaping, pipelined
//! windows round-tripping tagged responses, a pipelined client costing
//! the reactor under half a socket syscall per request, STATS being a
//! parseable Prometheus payload, graceful shutdown leaving the store
//! flushed and readable — and the `open_connections` gauge returning to
//! zero on every path.
//!
//! Every scenario runs on both pollers: the platform one (epoll) and
//! the poll(2) fallback. Pages and the integrity model are the store
//! suites' (`crates/core/tests/support`, included by path).

#[path = "../../core/tests/support/mod.rs"]
mod support;

use cc_core::store::{CompressedStore, StoreConfig};
use cc_server::frame::{self, FrameError, RecvBuf};
use cc_server::proto::Request;
use cc_server::service::wstat;
use cc_server::{
    Client, ClientError, Pipeline, Response, Server, ServerBackend, ServerConfig, Status,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use support::model::{self, Arm, Class::*, Mix, Mode, Model, Op, Replies, Reply, Target};
use support::TempPath;

const PAGE: usize = 1024;

/// Every poller the integration contract must hold on.
const ALL_BACKENDS: [ServerBackend; 2] = [ServerBackend::Evented, ServerBackend::EventedPoll];

/// A server over a fresh spill store; the spill file goes with the
/// returned path.
fn spill_server(
    budget: usize,
    cfg: ServerConfig,
    tag: &str,
) -> (Server, Arc<CompressedStore>, TempPath) {
    let path = TempPath::new(&format!("server-{tag}"));
    let store = Arc::new(CompressedStore::new(StoreConfig::with_spill(
        budget, &*path,
    )));
    let server = Server::spawn(Arc::clone(&store), "127.0.0.1:0", cfg).expect("spawn server");
    (server, store, path)
}

/// Shut the server down and assert the satellite invariant: every
/// opened connection was closed — the gauge is zero and the counters
/// balance.
fn shutdown_and_check_gauge(server: Server, what: &str) {
    let service = Arc::clone(server.service());
    server.shutdown();
    assert_eq!(
        service.open_connections(),
        0,
        "{what}: open_connections gauge leaked"
    );
    let snap = service.snapshot();
    assert_eq!(
        snap.counter("conns_opened"),
        snap.counter("conns_closed"),
        "{what}: open/close counters unbalanced"
    );
}

/// A client as a script target: op by op when `window` is 0, else with
/// up to `window` tagged requests in flight through a [`Pipeline`],
/// every tag reaped exactly once. The server runs each connection's
/// requests in order, so the model's pin at send time is exact. Demote
/// is a no-op over the wire, and there is no checker.
struct Wire {
    client: Client,
    window: usize,
    pipe: Pipeline,
    /// Tag → the op's index and the op.
    tags: HashMap<u32, (usize, Op)>,
}

impl Wire {
    fn connect(addr: SocketAddr, window: usize) -> Wire {
        let mut client = Client::connect(addr).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        let (pipe, tags) = (Pipeline::new(), HashMap::new());
        Wire {
            client,
            window,
            pipe,
            tags,
        }
    }

    /// The arm a script over `backend` with `window` in flight runs on.
    fn arm(backend: ServerBackend, medium: &'static str, window: usize) -> Arm {
        let target = if backend == ServerBackend::Evented {
            "wire/epoll"
        } else {
            "wire/poll"
        };
        Arm {
            target,
            window,
            ..Arm::store("recency", "adaptive", medium)
        }
    }

    fn reap(&mut self, buf: &mut Vec<u8>, reply: Replies) -> model::Res {
        // `recv` fails on a duplicate or unknown tag.
        let recv = self.pipe.recv(&mut self.client, buf);
        let (seq, status) = recv.map_err(|e| e.to_string())?;
        let (i, op) = self.tags.remove(&seq).ok_or("a reply to no request")?;
        let found = match status {
            Status::Ok => Ok(true),
            Status::NotFound if matches!(op, Op::Get { .. } | Op::Remove { .. }) => Ok(false),
            other => Err(format!("{other:?}")),
        };
        let r = match op {
            Op::Get { .. } => Reply::Get(found.map(|hit| hit.then_some(&buf[..]))),
            Op::Remove { .. } => Reply::Remove(found),
            Op::Put { .. } => Reply::Put(found.map(drop)),
            _ => Reply::Flush(found.map(drop)),
        };
        reply(i, r)
    }
}

impl Target for Wire {
    fn call(&mut self, i: usize, op: &Op, buf: &mut Vec<u8>, reply: Replies) -> model::Res {
        let err = |e: ClientError| e.to_string();
        if self.window == 0 || *op == Op::Demote {
            let r = match *op {
                Op::Put { key, .. } => Reply::Put(self.client.put(key, buf).map_err(err)),
                Op::Get { key } => match self.client.get(key, buf) {
                    Ok(hit) => return reply(i, Reply::Get(Ok(hit.then_some(&buf[..])))),
                    Err(e) => Reply::Get(Err(err(e))),
                },
                Op::Remove { key } => Reply::Remove(self.client.del(key).map_err(err)),
                Op::Flush => Reply::Flush(self.client.flush().map_err(err)),
                Op::Demote => Reply::Demote,
            };
            return reply(i, r);
        }
        let req = match *op {
            Op::Put { key, .. } => Request::Put { key, page: buf },
            Op::Get { key } => Request::Get { key },
            Op::Remove { key } => Request::Del { key },
            _ => Request::Flush,
        };
        let seq = self.pipe.send(&mut self.client, &req).map_err(err)?;
        self.tags.insert(seq, (i, *op));
        while self.pipe.in_flight() >= self.window {
            self.reap(buf, reply)?;
        }
        Ok(())
    }

    fn drain(&mut self, buf: &mut Vec<u8>, reply: Replies) -> model::Res {
        while self.pipe.in_flight() > 0 {
            self.reap(buf, reply)?;
        }
        Ok(())
    }
}

/// 4 client threads × `ops` mixed ops on their own keys, every reply
/// held to the thread's model (exact mode), and the store's resident
/// bytes never exceed the budget. With `window > 0` the clients keep
/// that many tagged requests in flight. Each client also PINGs, FLUSHes
/// and fetches STATS, so every opcode's wire histogram must have
/// samples.
fn mixed_load(backend: ServerBackend, ops: usize, tag: &str, window: usize) {
    const THREADS: u64 = 4;
    const KEYS_PER_THREAD: u64 = 256;
    const BUDGET: usize = 256 << 10; // well under the working set: spill exercised

    let cfg = ServerConfig::default().with_backend(backend);
    let (server, store, _path) = spill_server(BUDGET, cfg, tag);
    let addr = server.local_addr();

    let watch = support::ResidentWatch::start(&store);
    let arm = Wire::arm(backend, "spill-file", window);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut wire = Wire::connect(addr, window);
                wire.client.ping().expect("ping");
                let mix = Mix {
                    keys: t * KEYS_PER_THREAD..(t + 1) * KEYS_PER_THREAD,
                    weights: [5, 4, 1, 0, 0],
                    classes: &[Text, Noise],
                    shared: false,
                };
                let mut model = Model::new(Mode::Exact, PAGE);
                let seed = format!("thread {t}, script seed {}", t + 1);
                let ran = model.run(&mut wire, &model::script(t + 1, ops, &mix), &arm, &seed);
                ran.unwrap_or_else(|e| panic!("{e}"));
                assert!(model.hits > 0, "thread {t}: no GET ever hit");
                wire.client.flush().expect("flush");
                wire.client.stats().expect("stats");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread panicked");
    }
    let max_resident = watch.stop();
    assert!(
        max_resident <= BUDGET as u64,
        "store budget exceeded under load: saw {max_resident} resident bytes, budget {BUDGET}"
    );

    let snap = server.service().snapshot();
    let wire = |n: &str| snap.counter(n).unwrap_or(0);
    assert_eq!(wire("malformed_frames"), 0);
    assert_eq!(wire("busy_rejected"), 0);
    assert_eq!(wire("idle_timeouts"), 0);
    assert_eq!(wire("conns_opened"), THREADS);
    assert_eq!(
        wire("req_put") + wire("req_get") + wire("req_del"),
        THREADS * ops as u64
    );
    for op in ["put", "get", "del", "flush", "stats", "ping"] {
        let count = snap.op(op).map_or(0, |h| h.count);
        assert!(count > 0, "{tag}: wire histogram {op} recorded nothing");
    }
    shutdown_and_check_gauge(server, tag);
}

#[test]
fn concurrent_integrity_under_mixed_load() {
    mixed_load(ServerBackend::Evented, 10_000, "integrity", 0);
}

/// The same load through the poll(2) fallback of the evented backend.
#[test]
fn concurrent_integrity_evented_backend() {
    mixed_load(ServerBackend::EventedPoll, 5_000, "integrity-poll", 0);
}

/// The same load with a window of 8 tagged requests in flight per
/// connection.
#[test]
fn concurrent_integrity_pipelined() {
    mixed_load(ServerBackend::Evented, 5_000, "integrity-pipelined", 8);
}

/// The pipelined load through the poll(2) fallback.
#[test]
fn concurrent_integrity_pipelined_poll() {
    mixed_load(
        ServerBackend::EventedPoll,
        5_000,
        "integrity-pipelined-poll",
        8,
    );
}

/// One client with a window of 16 costs the reactor under half a
/// socket syscall per request. The client writes half a window at a
/// time once replies are owed, so eight requests reach the reactor in
/// one write, and one read, one write and one poll answer them: ~0.36
/// per request. The reactor stops reading after a short read, so no
/// read per poll finds the socket empty: reads per request stay at or
/// under polls per request (a reactor that reads until `WouldBlock`
/// reads ~0.23 against ~0.12 polls). A client that writes each frame
/// at once costs ~2.05. Prints the three counts per request
/// (`--nocapture`).
#[test]
fn a_pipelined_client_costs_under_half_a_syscall_per_request() {
    const WINDOW: usize = 16;
    const OPS: u64 = 4096;
    let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(16 << 20)));
    let server = Server::spawn(store, "127.0.0.1:0", ServerConfig::default()).expect("spawn");
    let mut wire = Wire::connect(server.local_addr(), WINDOW);
    let script: Vec<Op> = (0..OPS)
        .map(|i| match i % 10 {
            0..=2 => Op::put(i % 256, i),
            _ => Op::Get { key: i % 256 },
        })
        .collect();
    let arm = Wire::arm(ServerBackend::Evented, "memory", WINDOW);
    let ran = Model::new(Mode::Exact, PAGE).run(&mut wire, &script, &arm, "30 % puts");
    ran.unwrap_or_else(|e| panic!("{e}"));
    let snap = server.service().snapshot();
    let requests: u64 = (wstat::NAMES.iter())
        .filter(|n| n.starts_with("req_"))
        .map(|n| snap.counter(n).unwrap_or(0))
        .sum();
    assert_eq!(requests, OPS);
    let per_request = |n: &str| snap.counter(n).unwrap_or(0) as f64 / requests as f64;
    let counts = ["sock_reads", "sock_writes", "polls"].map(per_request);
    println!(
        "per request: {:.3} reads, {:.3} writes, {:.3} polls",
        counts[0], counts[1], counts[2]
    );
    assert!(
        counts.iter().all(|&c| c > 0.0),
        "a syscall counter is not wired: {counts:?}"
    );
    assert!(
        counts[0] <= counts[2],
        "more reads than polls: a read after a short read found the socket empty: {counts:?}"
    );
    let sum: f64 = counts.iter().sum();
    assert!(
        sum <= 0.5,
        "{sum:.3} reactor syscalls per request (limit 0.5): {counts:?}"
    );
    drop(wire);
    shutdown_and_check_gauge(server, "syscalls per request");
}

/// Reads one response frame (with its tag) off a raw connection
/// through `rb`, the connection's one receive buffer.
fn read_response(
    stream: &mut TcpStream,
    rb: &mut RecvBuf,
) -> Result<(u32, Status, Vec<u8>), FrameError> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let p = rb.next_frame(stream, frame::DEFAULT_MAX_FRAME)?;
    let resp = Response::decode(&rb.unparsed()[p.body]).expect("response decodes");
    let got = (p.seq, resp.status, resp.payload.to_vec());
    rb.consume(p.consumed);
    Ok(got)
}

/// Counted admission is bounded and observable: with `max_conns = 1`
/// and one connection registered, the next accept is answered `BUSY`
/// (unsolicited tag 0) and closed, each rejection shows up in both the
/// counter and the event ring — and admitted traffic is untouched.
#[test]
fn evented_admission_answers_busy() {
    for backend in ALL_BACKENDS {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(4 << 20)));
        let server = Server::spawn(
            store,
            "127.0.0.1:0",
            ServerConfig::default()
                .with_backend(backend)
                .with_max_conns(1),
        )
        .expect("spawn server");
        let addr = server.local_addr();

        let mut holder = Client::connect(addr).expect("connect holder");
        holder.ping().expect("ping");

        let mut extra = TcpStream::connect(addr).expect("connect extra");
        let mut rb = RecvBuf::new();
        let (seq, status, payload) = read_response(&mut extra, &mut rb).expect("read BUSY frame");
        assert_eq!(seq, frame::SEQ_UNSOLICITED, "BUSY must carry tag 0");
        assert_eq!(status, Status::Busy, "{backend:?}");
        assert!(payload.is_empty());
        assert!(
            matches!(
                rb.next_frame(&mut extra, frame::DEFAULT_MAX_FRAME),
                Err(FrameError::Closed)
            ),
            "{backend:?}: rejected connection should be closed after BUSY"
        );

        // A Client sees the same thing as ClientError::Busy.
        match Client::connect(addr).expect("connect second extra").ping() {
            Err(ClientError::Busy) => {}
            // The unsolicited BUSY + close can race the client's write
            // into an I/O error on some kernels; the counters below
            // still pin that both rejections happened server-side.
            Err(ClientError::Io(_)) => {}
            other => panic!("{backend:?}: expected BUSY, got {other:?}"),
        }

        let snap = server.service().snapshot();
        assert_eq!(snap.counter("busy_rejected"), Some(2), "{backend:?}");
        assert_eq!(snap.counter("malformed_frames"), Some(0), "{backend:?}");

        // Releasing the held slot frees admission for the next client.
        holder.ping().expect("holder still served");
        drop(holder);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match Client::connect(addr).and_then_ping() {
                Ok(()) => break,
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => panic!("{backend:?}: slot never freed after close: {e}"),
            }
        }
        shutdown_and_check_gauge(server, "evented admission");
    }
}

/// Small helper so the retry loop above reads cleanly.
trait AndThenPing {
    fn and_then_ping(self) -> Result<(), ClientError>;
}
impl AndThenPing for std::io::Result<Client> {
    fn and_then_ping(self) -> Result<(), ClientError> {
        let mut c = self.map_err(ClientError::Io)?;
        c.ping()
    }
}

/// The client's bounded retry-with-backoff rides out a saturation
/// window. With the only admission slot held, a no-retry client gets
/// `BUSY` immediately; a retrying client keeps reconnecting with backoff
/// and succeeds once the holder releases the slot — within the policy's
/// `max_backoff_total` bound (plus I/O slack). A retrying client
/// against a *permanently* saturated server still fails, in bounded time.
#[test]
fn client_retry_rides_out_saturation() {
    for backend in ALL_BACKENDS {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(4 << 20)));
        let server = Server::spawn(
            store,
            "127.0.0.1:0",
            ServerConfig::default()
                .with_backend(backend)
                .with_max_conns(1),
        )
        .expect("spawn server");
        let addr = server.local_addr();

        // Occupy the only slot (the completed PING proves admission).
        let holder = {
            let mut c = Client::connect(addr).expect("connect holder");
            c.ping().expect("ping");
            c
        };

        // Default policy (one attempt): BUSY surfaces immediately.
        match Client::connect(addr).expect("connect no-retry").ping() {
            Err(ClientError::Busy) | Err(ClientError::Io(_)) => {}
            other => panic!("{backend:?}: expected immediate BUSY without retry, got {other:?}"),
        }

        // Exhausted retries against a server that never frees up: the
        // failure is still BUSY and the total wait respects the backoff
        // bound.
        let mut capped = Client::connect(addr)
            .expect("connect capped")
            .with_retry(4, Duration::from_millis(2));
        let bound = capped.retry_policy().max_backoff_total();
        assert_eq!(bound, Duration::from_millis(2 + 4 + 8));
        let start = std::time::Instant::now();
        match capped.ping() {
            Err(ClientError::Busy) | Err(ClientError::Io(_)) => {}
            other => panic!("{backend:?}: expected BUSY after exhausting retries, got {other:?}"),
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < bound + Duration::from_secs(5),
            "retry loop unbounded: {elapsed:?} for bound {bound:?}"
        );

        // Release the slot mid-retry: the retrying client must succeed.
        let release = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            drop(holder);
        });
        let mut retrier = Client::connect(addr)
            .expect("connect retrier")
            .with_retry(10, Duration::from_millis(10));
        let start = std::time::Instant::now();
        retrier
            .ping()
            .expect("retrying client should succeed once the slot frees up");
        let elapsed = start.elapsed();
        let bound = retrier.retry_policy().max_backoff_total() + Duration::from_secs(10);
        assert!(elapsed < bound, "retry took {elapsed:?}, bound {bound:?}");
        release.join().expect("release thread");

        // The retried connection is a normal, reusable connection.
        retrier.put(9, &vec![0x5A; PAGE]).expect("put after retry");
        let mut out = Vec::new();
        assert!(retrier.get(9, &mut out).expect("get after retry"));
        assert_eq!(out, vec![0x5A; PAGE]);
        drop(retrier);
        shutdown_and_check_gauge(server, "client retry");
    }
}

/// Every malformed-input class on every backend: the server answers
/// `ERR`, closes the connection, bumps `malformed_frames`, and keeps
/// serving new connections (the reactor never panics).
#[test]
fn malformed_frames_close_with_err_and_count() {
    for backend in ALL_BACKENDS {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(4 << 20)));
        let server = Server::spawn(
            store,
            "127.0.0.1:0",
            ServerConfig::default().with_backend(backend),
        )
        .expect("spawn server");
        let addr = server.local_addr();
        let service = Arc::clone(server.service());
        let malformed = || service.snapshot().counter("malformed_frames").unwrap_or(0);

        let expect_err_then_close = |stream: &mut TcpStream, what: &str| {
            let mut rb = RecvBuf::new();
            let (_seq, status, payload) = read_response(stream, &mut rb)
                .unwrap_or_else(|e| panic!("{backend:?} {what}: expected ERR frame, got {e}"));
            assert_eq!(status, Status::Err, "{backend:?} {what}: wrong status");
            assert!(
                !payload.is_empty(),
                "{backend:?} {what}: ERR should carry a message"
            );
            assert!(
                matches!(
                    rb.next_frame(stream, frame::DEFAULT_MAX_FRAME),
                    Err(FrameError::Closed)
                ),
                "{backend:?} {what}: connection should be closed after ERR"
            );
        };

        // Malformed frames are answered with ERR and counted, once per
        // class.
        {
            use std::io::Write as _;

            // 1. Truncated header: half a header, then EOF.
            let before = malformed();
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&[7, 0]).expect("write partial header");
            s.shutdown(std::net::Shutdown::Write).expect("half-close");
            expect_err_then_close(&mut s, "truncated header");
            assert_eq!(malformed(), before + 1, "truncated header not counted");

            // 2. Oversized length prefix: rejected before any body
            // allocation, as soon as the header is visible.
            let before = malformed();
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&u32::MAX.to_le_bytes()).expect("write length");
            s.write_all(&1u32.to_le_bytes()).expect("write seq");
            expect_err_then_close(&mut s, "oversized prefix");
            assert_eq!(malformed(), before + 1, "oversized prefix not counted");

            // 3. Unknown opcode: a whole, well-framed body that fails
            // decoding; the ERR echoes the frame's tag.
            let before = malformed();
            let mut s = TcpStream::connect(addr).expect("connect");
            let mut wire = Vec::new();
            frame::write_frame(&mut wire, 99, &[42]).expect("encode frame");
            s.write_all(&wire).expect("write frame");
            let mut rb = RecvBuf::new();
            let (seq, status, payload) = read_response(&mut s, &mut rb)
                .unwrap_or_else(|e| panic!("{backend:?} unknown opcode: expected ERR, got {e}"));
            assert_eq!(seq, 99, "{backend:?}: ERR must echo the request tag");
            assert_eq!(status, Status::Err);
            assert!(!payload.is_empty());
            assert!(matches!(
                rb.next_frame(&mut s, frame::DEFAULT_MAX_FRAME),
                Err(FrameError::Closed)
            ));
            assert_eq!(malformed(), before + 1, "unknown opcode not counted");

            // 4. Truncated body: header promises more bytes than arrive.
            let before = malformed();
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&16u32.to_le_bytes()).expect("write length");
            s.write_all(&2u32.to_le_bytes()).expect("write seq");
            s.write_all(&[1, 2, 3]).expect("write partial body");
            s.shutdown(std::net::Shutdown::Write).expect("half-close");
            expect_err_then_close(&mut s, "truncated body");
            assert_eq!(malformed(), before + 1, "truncated body not counted");
        }

        // The four classes add up, and the server still serves.
        assert_eq!(service.snapshot().counter("malformed_frames"), Some(4));
        let mut client = Client::connect(addr).expect("connect after abuse");
        client.ping().expect("server survived malformed input");
        client.put(1, &vec![3u8; PAGE]).expect("put works");
        let mut out = Vec::new();
        assert!(client.get(1, &mut out).expect("get works"));
        assert_eq!(out, vec![3u8; PAGE]);
        drop(client);
        shutdown_and_check_gauge(server, "malformed frames");
    }
}

/// The idle timeout is wall-clock on every backend. A connection idle
/// for exactly `timeout + ε` is closed — the close lands near the
/// deadline — and is counted exactly once.
#[test]
fn idle_timeout_is_wall_clock_and_counted_once() {
    const TIMEOUT: Duration = Duration::from_millis(250);
    for backend in ALL_BACKENDS {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(4 << 20)));
        let server = Server::spawn(
            store,
            "127.0.0.1:0",
            ServerConfig::default()
                .with_backend(backend)
                .with_idle_timeout(TIMEOUT),
        )
        .expect("spawn server");
        let addr = server.local_addr();
        let service = Arc::clone(server.service());

        // Raw connection: one PING round-trip (activity), then silence.
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut body = Vec::new();
        Request::Ping.encode(&mut body);
        frame::write_frame(&mut s, 1, &body).expect("write ping");
        let pong = RecvBuf::new()
            .next_frame(&mut s, frame::DEFAULT_MAX_FRAME)
            .expect("pong");
        assert_eq!(pong.seq, 1);
        let idle_from = std::time::Instant::now();

        // The server closes from its side at timeout + ε: the blocking
        // read observes EOF. `ε` tolerances: the server's idle clock
        // started marginally before ours (it saw the frame before we
        // read the response), and CI schedulers add delay on top.
        use std::io::Read as _;
        let mut junk = [0u8; 16];
        let n = s.read(&mut junk).expect("EOF, not an error");
        let elapsed = idle_from.elapsed();
        assert_eq!(n, 0, "{backend:?}: expected server-side close");
        assert!(
            elapsed >= TIMEOUT.saturating_sub(Duration::from_millis(60)),
            "{backend:?}: closed {elapsed:?} into an idle period of {TIMEOUT:?} — too early"
        );
        assert!(
            elapsed <= TIMEOUT + Duration::from_millis(500),
            "{backend:?}: idle close took {elapsed:?}, deadline {TIMEOUT:?} — not wall-clock"
        );

        // Counted exactly once, and it stays that way.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let snap = service.snapshot();
            if snap.counter("idle_timeouts") == Some(1) && snap.counter("conns_closed") == Some(1) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{backend:?}: idle timeout never counted: {:?}",
                snap.counters
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(120));
        let snap = service.snapshot();
        assert_eq!(
            snap.counter("idle_timeouts"),
            Some(1),
            "{backend:?}: idle timeout double-counted"
        );
        assert_eq!(
            snap.counter("conns_closed"),
            Some(1),
            "{backend:?}: close double-counted"
        );
        shutdown_and_check_gauge(server, "idle timeout");
    }
}

/// A pipelined window over a live server: W tagged requests issued
/// before any response is reaped, every response matched to its tag
/// exactly once, GET payloads byte-for-byte — on every backend.
#[test]
fn pipelined_window_roundtrips_tagged_responses() {
    const WINDOW: usize = 32;
    let keys = 0..WINDOW as u64;
    let puts = (keys.clone()).map(|key| Op::Put {
        key,
        version: key + 1,
        class: Text,
    });
    let script: Vec<Op> = puts.chain(keys.map(|key| Op::Get { key })).collect();
    for backend in ALL_BACKENDS {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(16 << 20)));
        let cfg = ServerConfig::default().with_backend(backend);
        let server = Server::spawn(store, "127.0.0.1:0", cfg).expect("spawn server");
        let mut wire = Wire::connect(server.local_addr(), WINDOW);
        let arm = Wire::arm(backend, "memory", WINDOW);
        let ran = Model::new(Mode::Exact, PAGE).run(&mut wire, &script, &arm, "puts, then gets");
        ran.unwrap_or_else(|e| panic!("{e}"));
        // The connection is still a normal connection afterwards.
        wire.client.ping().expect("ping after pipelined windows");
        drop(wire);
        shutdown_and_check_gauge(server, "pipelined window");
    }
}

/// A window whose replies out-run the reactor's write backpressure:
/// 400 GETs of a 4 KiB page stage ≈ 1.6 MiB of responses before the
/// client reaps one, past the 1 MiB cap at which the reactor stops
/// parsing a connection — so parsing must park and then resume as the
/// client drains, with no further readable event to prompt it. A
/// smaller window never reaches the cap and would not test that.
#[test]
fn pipelined_window_survives_write_backpressure() {
    const BIG_PAGE: usize = 4096;
    const WINDOW: usize = 400;
    for backend in ALL_BACKENDS {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(64 << 20)));
        let server = Server::spawn(
            store,
            "127.0.0.1:0",
            ServerConfig::default().with_backend(backend),
        )
        .expect("spawn server");

        let mut client = Client::connect(server.local_addr()).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let page = vec![0xA5u8; BIG_PAGE];
        for key in 0..WINDOW as u64 {
            client.put(key, &page).expect("put");
        }

        let mut pipe = Pipeline::new();
        for key in 0..WINDOW as u64 {
            pipe.send(&mut client, &Request::Get { key }).expect("send");
        }
        let mut out = Vec::new();
        for i in 0..WINDOW {
            let (seq, status) = pipe
                .recv(&mut client, &mut out)
                .unwrap_or_else(|e| panic!("{backend:?}: reap {i} failed: {e:?}"));
            assert_eq!(status, Status::Ok, "{backend:?}: tag {seq}");
            assert_eq!(out.len(), BIG_PAGE, "{backend:?}: tag {seq}");
        }
        drop(client);
        shutdown_and_check_gauge(server, "backpressure window");
    }
}

/// The default configuration is the reactor: it admits 64 connections
/// that are open and idle — each answered a PING — while a 65th runs
/// verified PUT/GET traffic, and rejects none of them.
#[test]
fn default_config_holds_idle_connections() {
    const IDLE: usize = 64;
    assert_eq!(ServerBackend::default(), ServerBackend::Evented);
    let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(4 << 20)));
    let server = Server::spawn(store, "127.0.0.1:0", ServerConfig::default()).expect("spawn");
    let addr = server.local_addr();

    let idle: Vec<Client> = (0..IDLE)
        .map(|i| {
            let mut c = Client::connect(addr).expect("connect idle");
            c.ping()
                .unwrap_or_else(|e| panic!("idle connection {i} not admitted: {e}"));
            c
        })
        .collect();
    assert_eq!(server.service().open_connections(), IDLE as u64);

    let mut hot = Wire::connect(addr, 0);
    let round = |v| {
        (0..32)
            .map(move |key| Op::put(key, v))
            .chain((0..32).map(|key| Op::Get { key }))
    };
    let script: Vec<Op> = (1..=4).flat_map(round).collect();
    let arm = Wire::arm(ServerBackend::Evented, "memory", 0);
    let ran = Model::new(Mode::Exact, PAGE).run(&mut hot, &script, &arm, "4 rounds");
    ran.unwrap_or_else(|e| panic!("{e}"));

    let snap = server.service().snapshot();
    assert_eq!(snap.counter("busy_rejected"), Some(0));
    assert_eq!(snap.counter("conns_opened"), Some(IDLE as u64 + 1));
    drop(hot);
    drop(idle);
    shutdown_and_check_gauge(server, "default config");
}

/// STATS over the wire is a parseable Prometheus payload carrying both
/// the store's and the server's metric families, schema-identical to
/// the in-process snapshot renderers.
#[test]
fn stats_is_scrapeable_prometheus() {
    ALL_BACKENDS.into_iter().for_each(stats_scrape_on);
}

fn stats_scrape_on(backend: ServerBackend) {
    let (server, store, _path) = spill_server(
        64 << 10,
        ServerConfig::default().with_backend(backend),
        &format!("stats-{backend:?}"),
    );
    let mut wire = Wire::connect(server.local_addr(), 0);
    // One word-patterned page routes through the BDI codec under the
    // default adaptive policy, so the per-codec counters are live.
    let bdi = Op::Put {
        key: 64,
        version: 1,
        class: Words,
    };
    let puts = (0..64).map(|key| Op::put(key, key + 1)).chain([bdi]);
    let script: Vec<Op> = puts
        .chain([Op::Get { key: 3 }, Op::Get { key: 64 }])
        .collect();
    let arm = Wire::arm(backend, "spill-file", 0);
    let ran = Model::new(Mode::Exact, PAGE).run(&mut wire, &script, &arm, "65 puts, 2 gets");
    ran.unwrap_or_else(|e| panic!("{e}"));
    let text = wire.client.stats().expect("stats");

    assert!(text.contains("cc_store_compressed_total"), "{text}");
    assert!(text.contains("cc_server_req_put_total 65"), "{text}");
    assert!(text.contains("cc_server_req_get_total 2"), "{text}");
    // Per-codec routing counters and latency histograms are part of the
    // STATS surface, and the sweep above exercised both codecs.
    assert!(text.contains("cc_store_puts_bdi_total 1"), "{text}");
    assert!(text.contains("cc_store_codec_fallbacks_total"), "{text}");
    assert!(
        text.contains("cc_store_compress_lzrw1_latency_ns"),
        "{text}"
    );
    assert!(text.contains("cc_store_compress_bdi_latency_ns"), "{text}");
    assert!(
        text.contains("cc_store_decompress_bdi_latency_ns"),
        "{text}"
    );
    let puts_lzrw1 = text
        .lines()
        .find_map(|l| l.strip_prefix("cc_store_puts_lzrw1_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("cc_store_puts_lzrw1_total missing");
    assert!(puts_lzrw1 > 0, "no puts routed to lzrw1: {text}");
    // The recovery telemetry surface is part of the schema even on a
    // freshly opened store (all zero here, live after a warm restart).
    for series in [
        "cc_store_extents_recovered_total",
        "cc_store_summary_records_replayed_total",
        "cc_store_torn_tail_discarded_total",
        "cc_store_stale_generation_dropped_total",
        "cc_store_clean_recoveries_total",
        "cc_store_recovery_duration_latency_ns",
    ] {
        assert!(
            text.contains(series),
            "missing recovery series {series}: {text}"
        );
    }
    // So is the memory the budget counter does not count: what is in
    // flight to the spill writer (a gauge: no `_total`), the puts that
    // waited on its bound, and the invariant checker's verdicts. And the
    // classifier's predicted rejects (the odd-version pages above are
    // noise) with the audit's mispredictions.
    for series in [
        "cc_store_spill_inflight_bytes ",
        "cc_store_put_backpressure_waits_total ",
        "cc_store_invariant_violations_total 0",
        "cc_store_reject_predicted_total ",
        "cc_store_reject_mispredicted_total 0",
    ] {
        assert!(
            text.lines().any(|l| l.starts_with(series)),
            "missing series {series}: {text}"
        );
    }
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut parts = line.split_whitespace();
        let (name, value, extra) = (parts.next(), parts.next(), parts.next());
        assert!(
            name.is_some() && value.is_some() && extra.is_none(),
            "unparseable line: {line:?}"
        );
        assert!(
            value.unwrap().parse::<f64>().is_ok(),
            "non-numeric value: {line:?}"
        );
    }
    // Same metric names, same order as the in-process renderers.
    let names = |t: &str| {
        t.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .filter_map(|l| l.split_whitespace().next().map(str::to_owned))
            .collect::<Vec<_>>()
    };
    let mut local = store.telemetry_snapshot().to_prometheus("cc_store");
    local.push_str(&server.service().snapshot().to_prometheus("cc_server"));
    assert_eq!(names(&text), names(&local), "STATS schema drifted");
    drop(wire);
    shutdown_and_check_gauge(server, "stats");
}

/// Warm restart over the wire: a spilling store is filled through
/// one server, sealed by an orderly shutdown, reopened with
/// [`CompressedStore::open_existing`], and a *fresh* server over the
/// recovered store answers GETs for every spilled key byte-for-byte —
/// zero PUTs issued to the second server, and the clean fast path
/// (no extent re-scan) taken on open. The recovery counters are live
/// in the warm server's STATS payload.
#[test]
fn warm_restarted_server_serves_gets_without_reput() {
    ALL_BACKENDS.into_iter().for_each(warm_restart_on);
}

fn warm_restart_on(backend: ServerBackend) {
    use cc_core::store::HitTier;
    const BUDGET: usize = 16 << 10; // tiny: most of the working set spills
    const KEYS: u64 = 96;
    let path = TempPath::new(&format!("server-warm-{backend:?}"));

    // Cold run: fill through the wire, flush, snapshot the spill set.
    let store = Arc::new(CompressedStore::new(StoreConfig::with_spill(
        BUDGET, &*path,
    )));
    let server = Server::spawn(
        Arc::clone(&store),
        "127.0.0.1:0",
        ServerConfig::default().with_backend(backend),
    )
    .expect("spawn cold server");
    let puts = (0..KEYS).map(|key| Op::put(key, key + 7));
    let script: Vec<Op> = puts.chain([Op::Flush]).collect();
    let arm = Wire::arm(backend, "spill-file", 0);
    let mut model = Model::new(Mode::Exact, PAGE);
    let ran = model.run(
        &mut Wire::connect(server.local_addr(), 0),
        &script,
        &arm,
        "cold puts",
    );
    ran.unwrap_or_else(|e| panic!("{e}"));
    // The spill set: what the warm server must serve.
    model
        .held
        .retain(|&k, _| store.peek_tier(k) == Some(HitTier::Spill));
    let durable = model.held.len();
    assert!(
        durable > KEYS as usize / 2,
        "budget too generous — only {durable} of {KEYS} keys spilled"
    );
    shutdown_and_check_gauge(server, "warm-restart cold phase");
    drop(store); // last reference: the spill writer drains and seals clean

    // Warm run: recover from the spill file alone and serve immediately.
    let reopened = Arc::new(
        CompressedStore::open_existing(StoreConfig::with_spill(BUDGET, &*path)).expect("warm open"),
    );
    let stats = reopened.stats();
    assert_eq!(
        stats.clean_recoveries, 1,
        "orderly shutdown did not seal clean"
    );
    assert_eq!(
        stats.recovery_extents_verified, 0,
        "clean start took the slow extent scan"
    );
    assert!(
        stats.extents_recovered >= durable as u64,
        "recovered {} extents, expected at least {durable}",
        stats.extents_recovered,
    );
    let server = Server::spawn(
        Arc::clone(&reopened),
        "127.0.0.1:0",
        ServerConfig::default().with_backend(backend),
    )
    .expect("spawn warm server");
    let mut wire = Wire::connect(server.local_addr(), 0);
    let verified = model.verify_all(&mut wire, &arm, "warm restart");
    verified.unwrap_or_else(|e| panic!("{e}"));
    let text = wire.client.stats().expect("warm stats");
    let recovered = text
        .lines()
        .find_map(|l| l.strip_prefix("cc_store_extents_recovered_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("cc_store_extents_recovered_total missing");
    assert!(recovered >= durable as u64, "{text}");
    assert!(text.contains("cc_store_clean_recoveries_total 1"), "{text}");
    let snap = server.service().snapshot();
    assert_eq!(snap.counter("req_put"), Some(0), "warm server saw a re-PUT");
    assert_eq!(
        snap.counter("req_get"),
        Some(durable as u64),
        "GET count drifted"
    );
    drop(wire);
    shutdown_and_check_gauge(server, "warm-restart warm phase");
}

/// Graceful shutdown drains the spill writer on both pollers: every
/// acknowledged PUT is readable from the store afterwards, and the
/// listener is gone.
#[test]
fn shutdown_flushes_store_and_stops_listening() {
    const BUDGET: usize = 32 << 10; // force most pages through the spill writer
    for backend in ALL_BACKENDS {
        let (server, store, _path) = spill_server(
            BUDGET,
            ServerConfig::default().with_backend(backend),
            &format!("shutdown-{backend:?}"),
        );
        let addr = server.local_addr();
        let script: Vec<Op> = (0..128).map(|key| Op::put(key, key + 7)).collect();
        let arm = Wire::arm(backend, "spill-file", 0);
        let mut model = Model::new(Mode::Exact, PAGE);
        let ran = model.run(&mut Wire::connect(addr, 0), &script, &arm, "128 puts");
        ran.unwrap_or_else(|e| panic!("{e}"));
        shutdown_and_check_gauge(server, "shutdown flush");

        // Acknowledged data survives: the writer was flushed on the way
        // out.
        let verified = model.verify_all(&mut &*store, &arm, "after shutdown");
        verified.unwrap_or_else(|e| panic!("{e}"));
        // The listener is gone: connects are refused (or at best reset
        // without service).
        match Client::connect(addr) {
            Err(_) => {}
            Ok(mut c) => assert!(
                c.ping().is_err(),
                "{backend:?}: server still serving after shutdown"
            ),
        }
    }
}

/// Satellite: connection churn over every close path — clean closes,
/// mid-frame aborts, malformed frames — leaves the `open_connections`
/// gauge at zero while the server is still running, on every backend.
#[test]
fn gauge_survives_connection_churn() {
    for backend in ALL_BACKENDS {
        let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(4 << 20)));
        let server = Server::spawn(
            store,
            "127.0.0.1:0",
            ServerConfig::default()
                .with_backend(backend)
                .with_idle_timeout(Duration::from_secs(30)),
        )
        .expect("spawn server");
        let addr = server.local_addr();
        let service = Arc::clone(server.service());

        for round in 0..10 {
            match round % 3 {
                // Clean: one request, orderly close.
                0 => {
                    let mut c = Client::connect(addr).expect("connect");
                    c.ping().expect("ping");
                }
                // Abort mid-frame: half a header, then drop.
                1 => {
                    use std::io::Write as _;
                    let mut s = TcpStream::connect(addr).expect("connect");
                    s.write_all(&[9, 0, 0]).expect("partial header");
                    // Dropped here: FIN mid-frame on the server side.
                }
                // Malformed: well-framed junk body.
                _ => {
                    use std::io::Write as _;
                    let mut s = TcpStream::connect(addr).expect("connect");
                    let mut wire = Vec::new();
                    frame::write_frame(&mut wire, 5, &[77]).expect("frame");
                    s.write_all(&wire).expect("write");
                    let _ = read_response(&mut s, &mut RecvBuf::new());
                }
            }
        }

        // All churned connections settle closed while the server runs.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            if service.open_connections() == 0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "{backend:?}: gauge stuck at {} after churn",
                service.open_connections()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let snap = service.snapshot();
        assert_eq!(snap.counter("conns_opened"), snap.counter("conns_closed"));
        shutdown_and_check_gauge(server, "gauge churn");
    }
}
