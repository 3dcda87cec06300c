//! A standalone, thread-safe compressed page store — the paper's idea as
//! a modern library API.
//!
//! The simulator in this workspace reproduces the 1993 system; this
//! module is the same mechanism packaged the way its descendants (zram,
//! zswap, the macOS/Windows compressed memory managers) expose it: a
//! bounded in-memory store that keeps pages compressed, with spill of the
//! coldest entries to a backing file handled by a background writer
//! thread — the §4.2 cleaner, for real this time.
//!
//! # Concurrency
//!
//! The store is **lock-striped**: keys hash onto a power-of-two number of
//! shards (default: one per hardware thread), each with its own entry
//! map, LRU spill ordering, and buffer pool behind its own mutex. The
//! global memory budget is enforced through a single atomic byte counter
//! using compare-and-swap reservation, so `stats().resident_bytes` never
//! exceeds the configured budget, while puts and gets on different shards
//! proceed fully in parallel. Compression and decompression always run
//! outside any shard lock, on thread-local reusable buffers, so the
//! steady-state hot path performs no heap allocation.
//!
//! # Spill pipeline
//!
//! Evicted entries travel through a batched write pipeline that mirrors
//! the paper's §4.3 backing-store interface: the writer thread coalesces
//! queued entries into [`StoreConfig::spill_batch_bytes`]-sized batches
//! (32 KB by default, the paper's batch size) and issues one seek + one
//! write per batch. Once the batch (and, on a persistent store, its
//! journal records) is durable the writer itself takes each member's
//! shard lock, publishes its `{offset, len}` and drops the in-memory
//! payload there and then — a page's memory is returned when its write
//! lands, whatever the foreground is doing. Payload bytes handed to the
//! writer and not yet published are counted
//! ([`StoreStats::spill_inflight_bytes`]) and bounded by
//! [`StoreConfig::memory_budget`]: payload in RAM is at most twice the
//! budget, and a put that would push the in-flight half past it
//! releases its shard lock and waits for the writer. Removed or
//! replaced spilled entries leave dead bytes behind; when the dead
//! fraction of the file crosses [`StoreConfig::gc_dead_ratio`] the
//! writer compacts live extents toward the file head and truncates —
//! the paper's fragment garbage collection.
//! Pages that are a single repeated machine word (zswap's "same-filled"
//! pages) bypass the compressor entirely and are stored as an 8-byte
//! pattern with zero residency cost.
//!
//! # Tiering
//!
//! Placement across the three tiers — **hot** (uncompressed-resident,
//! a get is a memcpy), **warm** (compressed-in-memory), **cold**
//! (spilled) — is decided per entry by a pluggable
//! [`crate::tier::TierPolicy`]. Every put and get bumps a global
//! operation clock and stamps the entry, giving each page a cheap
//! generation-counter age; the put path's sampled compressibility probe
//! is recorded per entry so later demotion reuses it instead of
//! re-probing. The default policy
//! ([`crate::tier::RecencyCompressibility`]) admits incompressible
//! pages hot, promotes warm/cold pages back to hot on rapid re-access
//! (never evicting to do so — promotion only proceeds when the extra
//! bytes fit the budget outright), and relies on a background demoter
//! thread that, under budget pressure, compresses aged hot pages down
//! to warm and spills aged warm pages cold.
//! [`crate::tier::CompressAll`] reproduces the flat pre-tiering store
//! exactly (no hot tier, no demoter thread), and
//! [`crate::tier::PaperThreshold`] reproduces the paper's 4:3 rule as
//! a pure admission-time split.
//!
//! # Fault model
//!
//! The spill path assumes the medium *lies* (see [`crate::medium`]):
//! every extent on the file carries a self-verifying header (magic,
//! payload length, generation, codec id, and a CRC-32 covering both the
//! header fields and the compressed payload) written at batch-commit
//! time, so a corrupted or misdirected read is detected and surfaced as
//! [`StoreError::Corrupt`] — never decompressed into a user page, and
//! never decoded with a codec other than the one that sealed it.
//!
//! # Codec selection
//!
//! Each put selects a codec under [`StoreConfig::codec_policy`]
//! (default adaptive): a cheap sampled probe classifies the page and
//! routes word-regular pages to the single-pass BDI codec, everything
//! else to LZRW1, with automatic fallback when the probe mispredicts.
//! The chosen [`cc_compress::CodecId`] is recorded in the entry and
//! sealed into any spill extent; per-codec put counts, achieved bytes,
//! and compress/decompress latency histograms flow through telemetry. Transient read/write failures get bounded retry with
//! exponential backoff ([`StoreConfig::with_spill_retry`]); after
//! [`StoreConfig::degrade_after`] consecutive hard batch failures the
//! store enters **degraded mode**: spill is disabled, eviction becomes
//! clean-page *shedding* (dropping the coldest entries — cache-miss
//! semantics — to stay under budget), and a probation loop re-probes the
//! medium every [`StoreConfig::probe_interval`], re-enabling spill once
//! a canary write/read round-trips. The transitions are counted and
//! ring-logged, and [`CompressedStore::is_degraded`] exposes the gauge.
//!
//! # Telemetry
//!
//! Every store carries a [`cc_telemetry::Telemetry`] instance:
//! [`StoreStats`] is assembled from its shard-striped counter bank (so a
//! stats read takes no shard lock and no field can tear), put/get/spill
//! I/O and GC pauses feed lock-free latency histograms, and structural
//! events (batch commits, GC passes, evictions, threshold rejects,
//! same-filled elisions) flow through a bounded lossy event ring.
//! Counters and events are exact. Latency is *sampled* on the data
//! path: each put or get makes one timing decision from its operation
//! stamp — 1 in [`cc_telemetry::LATENCY_SAMPLE_PERIOD`], traced
//! requests always — and an unsampled operation reads no clock and
//! writes no histogram; the writer, GC and demoter threads time every
//! call. Get a [`cc_telemetry::Snapshot`] via
//! [`CompressedStore::telemetry_snapshot`]; disable the timing and the
//! events (never the counters) with [`StoreConfig::with_telemetry`].
//!
//! ```
//! use cc_core::store::{CompressedStore, StoreConfig};
//!
//! let store = CompressedStore::new(StoreConfig::in_memory(16 * 1024 * 1024));
//! let page = vec![7u8; 4096];
//! store.put(42, &page).unwrap();
//! let mut out = vec![0u8; 4096];
//! assert!(store.get(42, &mut out).unwrap());
//! assert_eq!(out, page);
//! ```

// One file per job; each says what it holds in its own module doc.
mod check;
mod config;
mod core;
pub(crate) mod extent;
mod gc;
mod open;
mod shard;
mod stats;
#[cfg(test)]
pub(crate) mod tests;
mod tiering;
mod writer;

pub use config::{HitTier, StoreConfig, StoreError};
pub use stats::StoreStats;

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use self::core::StoreCore;
use cc_telemetry::trace::{TraceCtx, Tracer};
use cc_telemetry::Telemetry;
use shard::Residence;
use stats::tstat;

/// The thread-safe compressed page store. Cloneable handles are not
/// provided; share it behind an `Arc`.
pub struct CompressedStore {
    core: Arc<StoreCore>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
    demoter: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl CompressedStore {
    /// Number of lock stripes in use.
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    /// The page size this store serves, fixed by the first successful
    /// put; `None` while the store has never stored anything. Callers
    /// that must size an output buffer before a [`CompressedStore::get`]
    /// (e.g. a network service) read it from here.
    pub fn page_size(&self) -> Option<usize> {
        match self.core.page_size.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }

    /// Store (or replace) `key`'s page.
    pub fn put(&self, key: u64, page: &[u8]) -> Result<(), StoreError> {
        self.core.put(key, page, TraceCtx::NONE)
    }

    /// Like [`CompressedStore::put`], recording causal spans under `ctx`
    /// when the request is sampled (and a tracer is configured).
    pub fn put_traced(&self, key: u64, page: &[u8], ctx: TraceCtx) -> Result<(), StoreError> {
        self.core.put(key, page, ctx)
    }

    /// Fetch `key`'s page into `out` (must be page-sized). Returns false
    /// if the key is unknown.
    pub fn get(&self, key: u64, out: &mut [u8]) -> Result<bool, StoreError> {
        Ok(self.core.get(key, out, TraceCtx::NONE)?.is_some())
    }

    /// Like [`CompressedStore::get`], recording causal spans under `ctx`
    /// when the request is sampled (and a tracer is configured).
    pub fn get_traced(&self, key: u64, out: &mut [u8], ctx: TraceCtx) -> Result<bool, StoreError> {
        Ok(self.core.get(key, out, ctx)?.is_some())
    }

    /// Like [`CompressedStore::get`], but reports which tier served the
    /// hit — the uncompressed hot tier, compressed memory, the
    /// same-filled fast path, or the spill file.
    pub fn get_tier(&self, key: u64, out: &mut [u8]) -> Result<Option<HitTier>, StoreError> {
        self.core.get(key, out, TraceCtx::NONE)
    }

    /// Which tier `key` currently resides in, without reading the page
    /// or touching any recency state. `None` if the key is unknown.
    /// Recovery tests use this to prove a warm restart serves from the
    /// spill tier (no re-PUT happened); `Spilling` reports as
    /// [`HitTier::Memory`] since that is where a read would be served.
    pub fn peek_tier(&self, key: u64) -> Option<HitTier> {
        let shard = self.core.shard(key);
        shard.entries.get(&key).map(|e| match e.residence {
            Residence::Hot { .. } => HitTier::Hot,
            Residence::Memory { .. } | Residence::Spilling { .. } => HitTier::Memory,
            Residence::SameFilled { .. } => HitTier::SameFilled,
            Residence::Spilled { .. } => HitTier::Spill,
        })
    }

    /// The configured request tracer, if any (see
    /// [`StoreConfig::with_tracer`]). The server's service shares this
    /// instance so wire spans and store spans join into one trace.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.core.cfg.tracer.as_ref()
    }

    /// Remove a key (e.g. the page was freed). Returns whether it existed.
    pub fn remove(&self, key: u64) -> bool {
        let mut shard = self.core.shard(key);
        self.core.remove_locked(&mut shard, key)
    }

    /// Whether the store currently knows `key`.
    pub fn contains(&self, key: u64) -> bool {
        self.core.shard(key).entries.contains_key(&key)
    }

    /// Number of stored pages (memory + spill).
    pub fn len(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|s| s.0.lock().expect("shard poisoned").entries.len())
            .sum()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the counters, aggregated across shards.
    pub fn stats(&self) -> StoreStats {
        self.core.stats()
    }

    /// Whether the store is currently in degraded mode: spill disabled
    /// after consecutive hard medium failures (or a writer death),
    /// eviction shedding the coldest entries instead. Clears itself
    /// when the probation probe finds the medium healthy again.
    pub fn is_degraded(&self) -> bool {
        self.core.degraded.load(Ordering::Relaxed)
    }

    /// The store's telemetry instance: striped counters, per-operation
    /// latency histograms (`put`, `get_hot`, `get_memory`,
    /// `get_same_filled`, `get_spill`, `spill_read`, `spill_verify`,
    /// `compress_lzrw1`, `compress_bdi`, `decompress_lzrw1`,
    /// `decompress_bdi`, `promote`, and the background `spill_write`,
    /// `gc_pause`, `demote_pause`, `recovery_duration`), and the
    /// structured event ring.
    pub fn telemetry(&self) -> &Telemetry {
        &self.core.tel
    }

    /// A full telemetry snapshot — counter sums, latency summaries,
    /// event counts, the ring window since the last snapshot — with the
    /// store's byte gauges and the `latency_sample_period` its
    /// foreground histograms were sampled at attached. Feed it to
    /// [`cc_telemetry::Snapshot::to_json`], `to_prometheus`, or
    /// `render_text`, or hand a closure over it to
    /// [`cc_telemetry::Exporter::spawn`].
    pub fn telemetry_snapshot(&self) -> cc_telemetry::Snapshot {
        self.core.telemetry_snapshot()
    }

    /// Block until the spill writer has published everything handed to
    /// it — [`StoreStats::spill_inflight_bytes`] reads zero — then make
    /// any queued journal tombstones durable (tests and orderly
    /// shutdown). Entries sitting in a partially-filled batch are
    /// committed by the writer's bounded linger, so this terminates even
    /// mid-batch. If the writer thread has died (panicked medium), the
    /// orphaned in-flight entries are reverted to memory residence, the
    /// budget is restored by shedding, and [`StoreError::ShuttingDown`]
    /// is returned — a flush never hangs on a dead writer.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.core.flush()
    }

    /// Drain pending spills, stop the cleaner thread, and join it. The
    /// store remains readable; further puts that need to spill fail
    /// with [`StoreError::ShuttingDown`].
    pub fn shutdown(&self) {
        let _ = self.core.flush();
        self.close();
    }

    /// Stop the background threads (idempotent): signal the demoter to
    /// exit and join it, then close every shard's sender — which stops
    /// the writer once it has drained the queue — and join the writer.
    /// The demoter goes first so a mid-sweep demotion never races the
    /// channel closing.
    fn close(&self) {
        *self.core.demote_stop.lock().expect("demoter flag poisoned") = true;
        self.core.demote_cv.notify_all();
        if let Some(handle) = self.demoter.lock().expect("demoter handle poisoned").take() {
            let _ = handle.join();
        }
        for s in &self.core.shards {
            s.0.lock().expect("shard poisoned").tx = None;
        }
        if let Some(handle) = self.writer.lock().expect("writer handle poisoned").take() {
            let _ = handle.join();
        }
    }

    /// Check the in-memory bookkeeping against the entries themselves,
    /// with every shard lock held (taken in index order) so the picture
    /// is one instant's:
    ///
    /// - `resident == Σ len(Hot) + Σ len(Memory)`, and the `hot` and
    ///   `warm` gauges partition it exactly;
    /// - a key is on the hot LRU ⇔ its residence is `Hot`, on the warm
    ///   LRU ⇔ `Memory`, on neither otherwise (and both lists pass
    ///   [`cc_util::LruList::check_invariants`], which panics);
    /// - `spill_inflight_bytes == Σ len(Spilling payloads)` plus the
    ///   payloads of jobs whose entry was removed or replaced while they
    ///   were queued (still held by the job, still counted);
    /// - no two `Spilled` extents overlap and none reaches past
    ///   `bytes_on_spill`;
    /// - `resident <= memory_budget`, unless a failed write's memory
    ///   fallback is being shed at this moment;
    /// - no entry is journaled on a non-persistent store.
    ///
    /// Safe to call at any time, from any thread, with the background
    /// threads running. A failure bumps the `invariant_violations`
    /// counter and returns the first broken identity. The on-file
    /// identities — every journaled key resolves to a CRC-valid extent,
    /// and `spill_dead_bytes == file extent − Σ live extents`, which is
    /// only approximate under churn today — are not checked here; they
    /// stay with ROADMAP item 2(a).
    pub fn check_invariants(&self) -> Result<(), String> {
        let res = self.core.check_invariants();
        if res.is_err() {
            self.core.tel.count(0, tstat::INVARIANT_VIOLATIONS, 1);
        }
        res
    }

    /// Run one demotion sweep inline on the calling thread, exactly as
    /// the background demoter would (same policy age and pressure
    /// gates). Returns `(hot pages demoted, warm pages spilled)`.
    /// Deterministic tests and benches use this instead of sleeping for
    /// the thread.
    pub fn demote_now(&self) -> (u64, u64) {
        self.core.demote_pass()
    }
}

impl Drop for CompressedStore {
    fn drop(&mut self) {
        self.close();
    }
}
