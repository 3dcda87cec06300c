//! Request dispatch over the store, plus the server's wire telemetry.
//!
//! One [`Service`] belongs to a server and is driven by its reactor
//! thread. It owns a [`cc_telemetry::Telemetry`] instance built from the
//! same striped-counter / latency-histogram types the store uses. STATS
//! responses concatenate the store's Prometheus snapshot (prefix
//! `cc_store`) with the server's own (prefix `cc_server`), both rendered
//! by [`cc_telemetry::Snapshot::to_prometheus`].

use crate::proto::{Request, Status};
use cc_core::store::{CompressedStore, StoreError};
use cc_telemetry::trace::{TraceCtx, Tracer};
use cc_telemetry::{OpTimer, Snapshot, Telemetry, TelemetrySpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Wire-level counter indices.
pub mod wstat {
    cc_telemetry::names! {
        /// PUT requests executed.
        req_put => REQ_PUT,
        /// GET requests executed.
        req_get => REQ_GET,
        /// DEL requests executed.
        req_del => REQ_DEL,
        /// FLUSH requests executed.
        req_flush => REQ_FLUSH,
        /// STATS requests executed.
        req_stats => REQ_STATS,
        /// PING requests executed.
        req_ping => REQ_PING,
        /// Connections rejected with BUSY at the admission cap.
        busy_rejected => BUSY_REJECTED,
        /// Frames that failed framing or protocol decoding.
        malformed_frames => MALFORMED_FRAMES,
        /// Connections admitted and served.
        conns_opened => CONNS_OPENED,
        /// Connections closed (any reason).
        conns_closed => CONNS_CLOSED,
        /// Connections closed by the idle timeout.
        idle_timeouts => IDLE_TIMEOUTS,
        /// DUMP requests executed.
        req_dump => REQ_DUMP,
        /// Socket `read` calls the reactor made, including each one that
        /// found the socket empty.
        sock_reads => SOCK_READS,
        /// Socket `write` calls the reactor made.
        sock_writes => SOCK_WRITES,
        /// Readiness polls (`epoll_wait` / `poll`) the reactor made.
        polls => POLLS,
    }
}

/// Per-opcode latency histogram indices: `Opcode as usize - 1`.
pub mod wop {
    /// Operation name table, index-aligned with [`crate::proto::Opcode`].
    pub const NAMES: &[&str] = &["put", "get", "del", "flush", "stats", "ping", "dump"];
}

/// The counter stripe and tracer stripe every server counter add and span
/// goes to: the reactor thread is the only writer.
pub(crate) const STRIPE: usize = 0;

const SERVER_TELEMETRY: TelemetrySpec = TelemetrySpec {
    counters: wstat::NAMES,
    ops: wop::NAMES,
};

/// Shared per-server state: the store handle and the wire telemetry.
pub struct Service {
    store: Arc<CompressedStore>,
    tel: Telemetry,
    /// Shared with the store (see [`cc_core::store::StoreConfig::with_tracer`]):
    /// wire-level spans and store spans land in the same rings, so a
    /// sampled request yields one tree from accept to spill.
    tracer: Option<Arc<Tracer>>,
    next_conn_id: AtomicU64,
}

impl Service {
    /// Build a service over `store`.
    pub fn new(store: Arc<CompressedStore>) -> Service {
        let tracer = store.tracer().cloned();
        Service {
            store,
            // One counter stripe: the reactor thread is the only writer.
            tel: Telemetry::new(SERVER_TELEMETRY, 1, true),
            tracer,
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

    /// The server's wire telemetry (request and connection counters,
    /// per-opcode latency histograms).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Connections currently being served: those opened less those
    /// closed. The reactor counts each open before its close, so with
    /// the closes read first the difference is never negative; the
    /// saturation covers the relaxed loads, which order nothing across
    /// counters.
    pub fn open_connections(&self) -> u64 {
        let closed = self.tel.counter_sum(wstat::CONNS_CLOSED);
        let opened = self.tel.counter_sum(wstat::CONNS_OPENED);
        opened.saturating_sub(closed)
    }

    /// A snapshot of the wire telemetry with the open-connection gauge
    /// attached.
    pub fn snapshot(&self) -> Snapshot {
        self.tel
            .snapshot()
            .gauge("open_connections", self.open_connections())
    }

    /// The STATS payload: the store's Prometheus snapshot followed by
    /// the server's.
    pub fn stats_text(&self) -> String {
        let mut text = self.store.telemetry_snapshot().to_prometheus("cc_store");
        text.push_str(&self.snapshot().to_prometheus("cc_server"));
        text
    }

    pub(crate) fn next_conn_id(&self) -> u64 {
        self.next_conn_id.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn conn_opened(&self) {
        self.tel.count(STRIPE, wstat::CONNS_OPENED, 1);
    }

    pub(crate) fn conn_closed(&self, idle: bool) {
        self.tel.count(STRIPE, wstat::CONNS_CLOSED, 1);
        if idle {
            self.tel.count(STRIPE, wstat::IDLE_TIMEOUTS, 1);
        }
    }

    /// Add `n` to the wire counter `counter` (a [`wstat`] index).
    pub(crate) fn count(&self, counter: usize, n: u64) {
        self.tel.count(STRIPE, counter, n);
    }

    pub(crate) fn malformed(&self) {
        self.tel.count(STRIPE, wstat::MALFORMED_FRAMES, 1);
    }

    /// Open the op of a request that started at `start`. Sampling
    /// happens here, at the wire: every request is timed on its opcode's
    /// histogram, and a sampled one also records a root `request` span
    /// that its store work and its reply hang off.
    pub(crate) fn begin(&self, start: Instant) -> OpTimer<'_> {
        let tr = self.tracer.as_deref();
        let ctx = tr.map_or(TraceCtx::NONE, |t| t.sample());
        self.tel.op_since(start, tr.filter(|_| ctx.sampled()), ctx)
    }

    /// Execute one request under its `op` ([`Service::begin`]); the
    /// caller ends it. The response payload is written into `out`
    /// (cleared first); the returned status plus `out` form the response
    /// body. Never panics on store errors — they become [`Status::Err`]
    /// with the error text as payload.
    pub(crate) fn handle(&self, req: &Request<'_>, out: &mut Vec<u8>, op: &OpTimer) -> Status {
        out.clear();
        let ctx = op.ctx();
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
                match self.tracer.as_deref() {
                    Some(t) => out.extend_from_slice(t.dump_json("on-demand").as_bytes()),
                    // Untraced server: an empty-but-valid document, so
                    // clients need not special-case the response.
                    None => out.extend_from_slice(b"{}"),
                }
                (wstat::REQ_DUMP, Status::Ok)
            }
        };
        self.tel.count(STRIPE, counter, 1);
        status
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
