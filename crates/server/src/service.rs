//! Request dispatch over the store, plus the server's wire telemetry.
//!
//! One [`Service`] belongs to a server and is driven by its reactor
//! thread. It owns a [`cc_telemetry::Telemetry`] instance built from the
//! same striped-counter / latency-histogram / event-ring types the store
//! uses. STATS
//! responses concatenate the store's Prometheus snapshot (prefix
//! `cc_store`) with the server's own (prefix `cc_server`), both rendered
//! by [`cc_telemetry::Snapshot::to_prometheus`] — the exact schema the
//! [`cc_telemetry::Exporter`] emits, so a scraper cannot tell the
//! difference.

use crate::proto::{Opcode, Request, Status};
use cc_core::store::{CompressedStore, StoreError};
use cc_telemetry::trace::{sop, tier, Span, TraceCtx, Tracer};
use cc_telemetry::{Snapshot, Telemetry, TelemetrySpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Wire-level counter indices.
pub mod wstat {
    /// PUT requests executed.
    pub const REQ_PUT: usize = 0;
    /// GET requests executed.
    pub const REQ_GET: usize = 1;
    /// DEL requests executed.
    pub const REQ_DEL: usize = 2;
    /// FLUSH requests executed.
    pub const REQ_FLUSH: usize = 3;
    /// STATS requests executed.
    pub const REQ_STATS: usize = 4;
    /// PING requests executed.
    pub const REQ_PING: usize = 5;
    /// Connections rejected with BUSY at the admission cap.
    pub const BUSY_REJECTED: usize = 6;
    /// Frames that failed framing or protocol decoding.
    pub const MALFORMED_FRAMES: usize = 7;
    /// Connections admitted and served.
    pub const CONNS_OPENED: usize = 8;
    /// Connections closed (any reason).
    pub const CONNS_CLOSED: usize = 9;
    /// Connections closed by the idle timeout.
    pub const IDLE_TIMEOUTS: usize = 10;
    /// DUMP requests executed.
    pub const REQ_DUMP: usize = 11;
    /// Socket `read` calls the reactor made, including each one that
    /// found the socket empty.
    pub const SOCK_READS: usize = 12;
    /// Socket `write` calls the reactor made.
    pub const SOCK_WRITES: usize = 13;
    /// Readiness polls (`epoll_wait` / `poll`) the reactor made.
    pub const POLLS: usize = 14;
    /// Counter name table, index-aligned with the constants above.
    pub const NAMES: &[&str] = &[
        "req_put",
        "req_get",
        "req_del",
        "req_flush",
        "req_stats",
        "req_ping",
        "busy_rejected",
        "malformed_frames",
        "conns_opened",
        "conns_closed",
        "idle_timeouts",
        "req_dump",
        "sock_reads",
        "sock_writes",
        "polls",
    ];
}

/// Per-opcode latency histogram indices: `Opcode as usize - 1`.
pub mod wop {
    /// Operation name table, index-aligned with [`crate::proto::Opcode`].
    pub const NAMES: &[&str] = &["put", "get", "del", "flush", "stats", "ping", "dump"];
}

/// Wire event kinds pushed into the server's event ring.
pub mod wevent {
    /// `a` = connection id.
    pub const CONN_OPEN: usize = 0;
    /// `a` = connection id, `b` = requests served on it.
    pub const CONN_CLOSE: usize = 1;
    /// `a` = connection id rejected at admission.
    pub const BUSY: usize = 2;
    /// `a` = connection id, `b` = malformed-frame class (see the
    /// crate-private `malformed_class` table).
    pub const MALFORMED: usize = 3;
    /// Event name table.
    pub const NAMES: &[&str] = &["conn_open", "conn_close", "busy", "malformed"];
}

/// Malformed-frame classes (the `b` value of a `malformed` wire event).
pub(crate) mod malformed_class {
    /// EOF inside a frame (truncated header or body).
    pub const TRUNCATED: u64 = 1;
    /// Length prefix above the configured frame ceiling.
    pub const OVERSIZED: u64 = 2;
    /// Frame arrived whole but the body failed protocol decoding.
    pub const UNDECODABLE: u64 = 3;
}

const SERVER_TELEMETRY: TelemetrySpec = TelemetrySpec {
    counters: wstat::NAMES,
    ops: wop::NAMES,
    events: wevent::NAMES,
};

/// Shared per-server state: the store handle, wire telemetry, and the
/// open-connection gauge.
pub struct Service {
    store: Arc<CompressedStore>,
    tel: Telemetry,
    /// Shared with the store (see [`cc_core::store::StoreConfig::with_tracer`]):
    /// wire-level spans and store spans land in the same rings, so a
    /// sampled request yields one tree from accept to spill.
    tracer: Option<Arc<Tracer>>,
    open_conns: AtomicU64,
    next_conn_id: AtomicU64,
}

impl Service {
    /// Build a service over `store`.
    pub fn new(store: Arc<CompressedStore>) -> Service {
        let tracer = store.tracer().cloned();
        Service {
            store,
            // One counter stripe: the reactor thread is the only writer.
            tel: Telemetry::new(SERVER_TELEMETRY, 1),
            tracer,
            open_conns: AtomicU64::new(0),
            next_conn_id: AtomicU64::new(0),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<CompressedStore> {
        &self.store
    }

    /// The request tracer inherited from the store, if tracing is on.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    /// The server's wire telemetry (request counters, per-opcode latency
    /// histograms, connection events).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Connections currently being served.
    pub fn open_connections(&self) -> u64 {
        self.open_conns.load(Ordering::Relaxed)
    }

    /// A snapshot of the wire telemetry with the open-connection gauge
    /// attached.
    pub fn snapshot(&self) -> Snapshot {
        self.tel
            .snapshot()
            .gauge("open_connections", self.open_connections())
    }

    /// The STATS payload: the store's Prometheus snapshot followed by
    /// the server's, schema-identical to what an
    /// [`cc_telemetry::Exporter`] in Prometheus mode writes.
    pub fn stats_text(&self) -> String {
        let mut text = self.store.telemetry_snapshot().to_prometheus("cc_store");
        text.push_str(&self.snapshot().to_prometheus("cc_server"));
        text
    }

    pub(crate) fn next_conn_id(&self) -> u64 {
        self.next_conn_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn conn_opened(&self, stripe: usize, conn_id: u64) {
        self.open_conns.fetch_add(1, Ordering::Relaxed);
        self.tel.count(stripe, wstat::CONNS_OPENED, 1);
        self.tel.event(wevent::CONN_OPEN, conn_id, 0);
    }

    pub(crate) fn conn_closed(&self, stripe: usize, conn_id: u64, requests: u64, idle: bool) {
        self.open_conns.fetch_sub(1, Ordering::Relaxed);
        self.tel.count(stripe, wstat::CONNS_CLOSED, 1);
        if idle {
            self.tel.count(stripe, wstat::IDLE_TIMEOUTS, 1);
        }
        self.tel.event(wevent::CONN_CLOSE, conn_id, requests);
    }

    pub(crate) fn busy_rejected(&self, stripe: usize, conn_id: u64) {
        self.tel.count(stripe, wstat::BUSY_REJECTED, 1);
        self.tel.event(wevent::BUSY, conn_id, 0);
    }

    /// Add `n` to the wire counter `counter` (a [`wstat`] index).
    pub(crate) fn count(&self, stripe: usize, counter: usize, n: u64) {
        self.tel.count(stripe, counter, n);
    }

    pub(crate) fn malformed(&self, stripe: usize, conn_id: u64, class: u64) {
        self.tel.count(stripe, wstat::MALFORMED_FRAMES, 1);
        self.tel.event(wevent::MALFORMED, conn_id, class);
    }

    pub(crate) fn record_latency(&self, op: Opcode, ns: u64, trace: u64) {
        self.tel.record_traced(op as usize - 1, ns, trace);
    }

    /// Execute one request. The response payload is written into `out`
    /// (cleared first); the returned status plus `out` form the response
    /// body. Never panics on store errors — they become [`Status::Err`]
    /// with the error text as payload.
    ///
    /// Sampling happens here, at the wire: a sampled request gets a root
    /// `request` span (with the opcode and connection id) and its store
    /// work records child spans under it. The returned [`TraceCtx`] is
    /// that root's child context ([`TraceCtx::NONE`] when unsampled) —
    /// callers tag reply-flush spans and latency exemplars with it.
    pub(crate) fn handle(
        &self,
        stripe: usize,
        conn_id: u64,
        req: &Request<'_>,
        out: &mut Vec<u8>,
    ) -> (Status, TraceCtx) {
        out.clear();
        let tr = self.tracer.as_deref();
        let rctx = tr.map_or(TraceCtx::NONE, |t| t.sample());
        let t0 = rctx.sampled().then(Instant::now);
        let root = tr.map_or(0, |t| t.new_span(rctx));
        let ctx = rctx.child(root);
        let (counter, status) = match req {
            Request::Put { key, page } => {
                let status = match self.store.put_traced(*key, page, ctx) {
                    Ok(()) => Status::Ok,
                    Err(e) => err_status(e, out),
                };
                (wstat::REQ_PUT, status)
            }
            Request::Get { key } => {
                let status = match self.store.page_size() {
                    // Nothing has ever been stored: every key misses.
                    None => Status::NotFound,
                    Some(ps) => {
                        out.resize(ps, 0);
                        match self.store.get_traced(*key, out, ctx) {
                            Ok(true) => Status::Ok,
                            Ok(false) => {
                                out.clear();
                                Status::NotFound
                            }
                            Err(e) => err_status(e, out),
                        }
                    }
                };
                (wstat::REQ_GET, status)
            }
            Request::Del { key } => {
                let status = if self.store.remove(*key) {
                    Status::Ok
                } else {
                    Status::NotFound
                };
                (wstat::REQ_DEL, status)
            }
            Request::Flush => {
                let status = match self.store.flush() {
                    Ok(()) => Status::Ok,
                    Err(e) => err_status(e, out),
                };
                (wstat::REQ_FLUSH, status)
            }
            Request::Stats => {
                out.extend_from_slice(self.stats_text().as_bytes());
                (wstat::REQ_STATS, Status::Ok)
            }
            Request::Ping => (wstat::REQ_PING, Status::Ok),
            Request::Dump => {
                match tr {
                    Some(t) => out.extend_from_slice(t.dump_json("on-demand").as_bytes()),
                    // Untraced server: an empty-but-valid document, so
                    // clients need not special-case the response.
                    None => out.extend_from_slice(b"{}"),
                }
                (wstat::REQ_DUMP, Status::Ok)
            }
        };
        self.tel.count(stripe, counter, 1);
        if let (Some(t), Some(t0)) = (tr, t0) {
            t.record(
                stripe,
                &Span {
                    trace_id: rctx.trace_id,
                    span_id: root,
                    parent: 0,
                    op: sop::REQUEST,
                    tier: tier::NONE,
                    codec: req.opcode() as u8,
                    status: status as u8,
                    start_ns: t.now_ns(t0),
                    queue_ns: 0,
                    service_ns: t0.elapsed().as_nanos() as u64,
                    arg: conn_id,
                },
            );
        }
        (status, ctx)
    }
}

fn err_status(e: StoreError, out: &mut Vec<u8>) -> Status {
    out.clear();
    use std::fmt::Write as _;
    let mut msg = String::new();
    let _ = write!(msg, "{e}");
    out.extend_from_slice(msg.as_bytes());
    Status::Err
}
