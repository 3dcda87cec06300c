//! `cc-server` — a concurrent TCP cache service over the
//! [`CompressedStore`].
//!
//! The compression cache grew up: Douglis's in-kernel compressed tier is
//! today deployed as a *networked* cache service (ZipCache's DRAM/SSD
//! tiers, TMTS's software-defined far memory), and this crate is that
//! serving surface for the workspace. A [`Server`] is one thread running
//! a readiness loop (the private `reactor` module) over nonblocking sockets ([`event`]:
//! epoll on Linux, poll(2) elsewhere or when [`ServerBackend::EventedPoll`]
//! asks for it). Connections cost buffers, not threads, so thousands of
//! mostly-idle connections are cheap, and the seq-tagged framing lets one
//! connection pipeline a window of requests.
//!
//! Around the loop: the protocol ([`proto`], [`frame`]: PUT / GET /
//! DEL / FLUSH / STATS / PING in tagged, length-prefixed frames), the
//! request dispatcher and wire telemetry ([`service`]), counted
//! admission with `BUSY` rejection, wall-clock idle timeouts, and
//! graceful drain shutdown — the integration suite runs all of it on
//! both pollers. STATS returns the store's and server's Prometheus
//! snapshots verbatim, so the service is scrapeable from day one. A
//! blocking, connection-reusing [`Client`] (with a pipelined mode) lives
//! in [`client`].
//!
//! ```no_run
//! use cc_core::store::{CompressedStore, StoreConfig};
//! use cc_server::{Client, Server, ServerConfig};
//! use std::sync::Arc;
//!
//! let store = Arc::new(CompressedStore::new(StoreConfig::in_memory(64 << 20)));
//! let server = Server::spawn(store, "127.0.0.1:0", ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.put(7, &[0xAB; 4096]).unwrap();
//! let mut page = Vec::new();
//! assert!(client.get(7, &mut page).unwrap());
//! assert_eq!(page, vec![0xAB; 4096]);
//! println!("{}", client.stats().unwrap()); // Prometheus text
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod client;
pub mod event;
pub mod frame;
pub mod proto;
pub(crate) mod reactor;
pub mod service;

pub use client::{Client, ClientError, Pipeline, RetryPolicy};
pub use proto::{Opcode, ProtoError, Request, Response, Status};
pub use service::Service;

use cc_core::store::CompressedStore;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Which readiness poller the [`Server`]'s event loop runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerBackend {
    /// The platform poller (epoll on Linux).
    #[default]
    Evented,
    /// The portable poll(2) poller, forced — what platforms without
    /// epoll get anyway; the test suite runs on it so that path stays
    /// exercised on Linux.
    EventedPoll,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Which poller the event loop runs on.
    pub backend: ServerBackend,
    /// Admission cap: connections registered with the reactor at once.
    /// The next accept beyond it is answered `BUSY`.
    pub max_conns: usize,
    /// Ceiling on a request frame body; a length prefix above this is
    /// malformed and closes the connection.
    pub max_frame_bytes: usize,
    /// A connection with no new frame for this long is closed.
    pub idle_timeout: Duration,
    /// Per-connection buffers above this capacity are shrunk back once
    /// they empty, so a burst of max-size frames doesn't pin worst-case
    /// memory per connection. `0` disables shrinking.
    pub buffer_high_water: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            backend: ServerBackend::default(),
            max_conns: 1024,
            max_frame_bytes: frame::DEFAULT_MAX_FRAME,
            idle_timeout: Duration::from_secs(30),
            buffer_high_water: 64 << 10,
        }
    }
}

impl ServerConfig {
    /// Choose the poller.
    pub fn with_backend(mut self, backend: ServerBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Override the connection cap (clamped to at least 1).
    pub fn with_max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns.max(1);
        self
    }

    /// Override the frame-size ceiling.
    pub fn with_max_frame_bytes(mut self, bytes: usize) -> Self {
        self.max_frame_bytes = bytes.max(frame::LEN_PREFIX);
        self
    }

    /// Override the idle-connection timeout.
    pub fn with_idle_timeout(mut self, t: Duration) -> Self {
        self.idle_timeout = t;
        self
    }

    /// Override the per-connection buffer high-water mark (`0`
    /// disables shrinking).
    pub fn with_buffer_high_water(mut self, bytes: usize) -> Self {
        self.buffer_high_water = bytes;
        self
    }
}

/// A running cache server. Dropping it (or calling
/// [`Server::shutdown`]) stops accepting, drains in-flight requests,
/// joins the reactor thread, and flushes the store's spill writer.
pub struct Server {
    service: Arc<Service>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    reactor: Option<JoinHandle<()>>,
    waker: event::WakeHandle,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start the
    /// reactor thread.
    pub fn spawn(
        store: Arc<CompressedStore>,
        addr: impl ToSocketAddrs,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        let cfg = Arc::new(ServerConfig {
            max_conns: cfg.max_conns.max(1),
            ..cfg
        });
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let service = Arc::new(Service::new(store));
        let (reactor, waker) =
            reactor::Reactor::new(listener, Arc::clone(&service), cfg, Arc::clone(&shutdown))?;
        let reactor = std::thread::Builder::new()
            .name("cc-server-reactor".into())
            .spawn(move || reactor.run())
            .expect("spawn reactor");
        Ok(Server {
            service,
            local_addr,
            shutdown,
            reactor: Some(reactor),
            waker,
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared service state: wire telemetry, open-connection gauge,
    /// the store handle, and the STATS renderer.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Graceful shutdown: stop accepting, let every in-flight request
    /// complete and its response flush, join the reactor thread, then
    /// drain the store's spill writer. Idempotent via [`Drop`].
    pub fn shutdown(self) {
        // Drop runs the teardown.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        // The paper's cleaner must not be left with queued work: an
        // orderly server exit leaves every accepted PUT durable. A dead
        // writer (degraded store) already reverted the pending entries
        // to memory; nothing more a teardown can do about it.
        let _ = self.service.store().flush();
    }
}
