//! A standalone, thread-safe compressed page store — the paper's idea as
//! a modern library API.
//!
//! The simulator in this workspace reproduces the 1993 system; this
//! module is the same mechanism packaged the way its descendants (zram,
//! zswap, the macOS/Windows compressed memory managers) expose it: a
//! bounded in-memory store that keeps pages compressed, with spill of the
//! coldest entries to a backing file handled by one background thread
//! — the §4.2 cleaner, for real this time.
//!
//! The writer, its cleaner, the deferred seals, the demote passes and
//! the probation probe are steps of one loop on one `cc-store-bg` thread
//! per store, which a `COMPRESS_ALL` store without a spill file does not
//! run.
//!
//! # Concurrency
//!
//! The store is **lock-striped**: keys hash onto a power-of-two number of
//! shards (default: one per hardware thread), each behind its own mutex
//! with its entries in a [`cc_util::Slab`] (slots that never move, behind
//! a key index) and the hot and warm sets of slab indices its eviction
//! victims are sampled from. The global memory budget is enforced
//! through a single atomic byte counter using compare-and-swap
//! reservation, so `stats().resident_bytes` never
//! exceeds the configured budget, while puts and gets on different shards
//! proceed fully in parallel. A put classifies and compresses its page
//! before it takes the shard lock (or leaves an LZRW1 seal to the
//! background thread), and a cold get reads its extent with no lock held;
//! but a get decodes a warm or spilled page into the caller's buffer in
//! the same hold of the shard lock that found its entry, and demoting a
//! hot page seals it under the lock. Every codec runs on thread-local
//! reusable buffers, so the steady-state hot path performs no heap
//! allocation.
//!
//! # Spill pipeline
//!
//! Evicted entries travel through a batched write pipeline that mirrors
//! the paper's §4.3 backing-store interface: the writer coalesces
//! queued entries into [`StoreConfig::spill_batch_bytes`]-sized batches
//! (32 KB by default, the paper's batch size) and issues one positioned
//! write per batch, behind the batch's summary.
//! Once the batch is durable the writer itself takes each member's
//! shard lock, publishes its `{offset, len}` and drops the in-memory
//! payload there and then — a page's memory is returned when its write
//! lands, whatever the foreground is doing. Payload bytes handed to the
//! writer and not yet published are counted
//! ([`StoreStats::spill_inflight_bytes`]) and bounded by
//! [`StoreConfig::spill_inflight_limit`], a quarter of a budget of many
//! batches: payload in RAM is then at most 1¼ × the budget, each page in one
//! allocation of exactly its stored length, and a put that would push
//! the in-flight part past its limit releases its shard lock and waits
//! for the writer. The file is cut into fixed-size segments. Removed or
//! replaced spilled entries leave dead bytes in theirs; while the dead
//! fraction of the file is at least [`StoreConfig::gc_dead_ratio`], the
//! writer cleans the segment with the most dead bytes, one batch of its
//! live extents between each two spill batches, re-appending them and
//! then reusing the segment: the paper's fragment garbage collection, a
//! batch at a time.
//! Pages that are a single repeated machine word (zswap's "same-filled"
//! pages) bypass the compressor entirely and are stored as an 8-byte
//! pattern with zero residency cost.
//!
//! # Tiering
//!
//! Placement across the three tiers — **hot** (uncompressed-resident,
//! a get is a memcpy), **warm** (compressed-in-memory), **cold**
//! (spilled) — is decided per entry by one parameter struct,
//! [`crate::tier::TierPolicy`]. Every put and get bumps a global
//! operation clock and stamps the entry, giving each page a cheap
//! generation-counter age; the put path's sampled compressibility probe
//! is recorded per entry so later demotion reuses it instead of
//! re-probing. The default,
//! [`TierPolicy::RECENCY`](crate::tier::TierPolicy::RECENCY), admits
//! incompressible pages hot, promotes warm/cold pages back to hot on
//! rapid re-access (never evicting to do so — promotion only proceeds
//! when the extra bytes fit the budget outright), and relies on the
//! background thread's demote passes that, under budget pressure,
//! compress aged hot pages down to warm and spill aged warm pages cold.
//! [`TierPolicy::COMPRESS_ALL`](crate::tier::TierPolicy::COMPRESS_ALL)
//! reproduces the flat pre-tiering store exactly (no hot tier, no
//! demote passes), and
//! [`TierPolicy::PAPER_THRESHOLD`](crate::tier::TierPolicy::PAPER_THRESHOLD)
//! reproduces the paper's 4:3 rule as a pure admission-time split.
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
//! (default adaptive): a cheap sampled classifier routes word-regular
//! pages to the single-pass BDI codec (with automatic fallback to LZRW1
//! when its probe mispredicts), pages without local redundancy straight
//! to the stored block the 4:3 threshold would leave (1 in 64 audited
//! through LZRW1, counted in `reject_predicted` and
//! `reject_mispredicted`), everything else to LZRW1.
//! The chosen [`cc_compress::CodecId`] is recorded in the entry and
//! sealed into any spill extent; per-codec put counts, achieved bytes,
//! and compress/decompress latency histograms flow through telemetry. Transient read/write failures get bounded retry with
//! exponential backoff ([`StoreConfig::with_spill_retry`]); after
//! [`StoreConfig::degrade_after`] consecutive hard batch failures the
//! store enters **degraded mode**: spill is disabled, eviction becomes
//! clean-page *shedding* (dropping the coldest entries — cache-miss
//! semantics — to stay under budget), and a probation loop re-probes the
//! medium every [`StoreConfig::probe_interval`], re-enabling spill once
//! a canary write/read round-trips. The transitions are counted, entry
//! also raises a flight-recorder anomaly when a tracer is attached, and
//! [`CompressedStore::is_degraded`] exposes the gauge.
//!
//! # Telemetry
//!
//! Every store carries a [`cc_telemetry::Telemetry`] instance:
//! [`StoreStats`] is assembled from its shard-striped counter bank (so a
//! stats read takes no shard lock and no field can tear), put/get/spill
//! I/O and GC pauses feed lock-free latency histograms, and every
//! structural fact (batch commits, GC passes, evictions, threshold
//! rejects, same-filled elisions) is a counter. Counters are exact.
//! Latency is *sampled* on the data path: each put or get makes one
//! timing decision from its operation stamp — 1 in
//! [`cc_telemetry::LATENCY_SAMPLE_PERIOD`], traced requests always —
//! and an unsampled operation reads no clock and writes no histogram;
//! the background thread's batch writes, cleaning steps and demote
//! passes are timed every call. Get a [`cc_telemetry::Snapshot`] via
//! [`CompressedStore::telemetry_snapshot`]; disable the timing (never
//! the counters) with [`StoreConfig::with_telemetry`].
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
    /// The `cc-store-bg` thread, if the store runs one.
    bg: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl CompressedStore {
    /// Number of lock stripes in use.
    pub fn shard_count(&self) -> usize {
        self.core.shards.len()
    }

    /// Bytes per spill-file segment — the most one cleaning step copies —
    /// or `None` for a store without a spill file. Derived from
    /// [`StoreConfig::spill_batch_bytes`] when the file is created; a
    /// reopened file keeps its own.
    pub fn spill_segment_bytes(&self) -> Option<u64> {
        self.core
            .has_spill()
            .then(|| self.core.segments().seg_bytes())
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
    /// spill tier (no re-PUT happened); `Spilling`, like a page waiting
    /// for its deferred seal, reports as [`HitTier::Memory`] since that
    /// is where a read would be served.
    pub fn peek_tier(&self, key: u64) -> Option<HitTier> {
        let shard = self.core.shard(key);
        shard.get(key).map(|e| match e.residence {
            Residence::Hot { .. } => HitTier::Hot,
            Residence::Memory { .. } | Residence::Sealing { .. } | Residence::Spilling { .. } => {
                HitTier::Memory
            }
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
        self.core.shard(key).find(key).is_some()
    }

    /// Number of stored pages (memory + spill).
    pub fn len(&self) -> usize {
        self.core
            .shards
            .iter()
            .map(|s| s.0.lock().expect("shard poisoned").len())
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
    /// `gc_pause`, `demote_pause`, `recovery_duration`).
    pub fn telemetry(&self) -> &Telemetry {
        &self.core.tel
    }

    /// A full telemetry snapshot — counter sums and latency summaries —
    /// with the store's byte gauges and the `latency_sample_period` its
    /// foreground histograms were sampled at attached. Feed it to
    /// [`cc_telemetry::Snapshot::to_prometheus`] or `render_text`.
    pub fn telemetry_snapshot(&self) -> cc_telemetry::Snapshot {
        self.core.telemetry_snapshot()
    }

    /// Publish every deferred seal — a put whose route is LZRW1 may leave
    /// its page raw for the background thread to seal; any such job
    /// still queued is sealed on the calling thread — so every page sits
    /// where an inline put would have put it and the codec counters
    /// count every put so far. Then block until the spill writer has
    /// published everything handed to it —
    /// [`StoreStats::spill_inflight_bytes`] reads zero — then have it
    /// write any queued tombstones (tests and orderly shutdown). Entries
    /// sitting in a partially-filled batch are
    /// committed by the writer's bounded linger, so this terminates even
    /// mid-batch. If the background thread has died (a panic), the
    /// orphaned in-flight entries are reverted to memory residence, the
    /// budget is restored by shedding, and [`StoreError::ShuttingDown`]
    /// is returned — a flush never hangs on a dead writer.
    pub fn flush(&self) -> Result<(), StoreError> {
        self.core.flush()
    }

    /// Drain pending spills, stop the background thread, and join it. The
    /// store remains readable; further puts that need to spill fail
    /// with [`StoreError::ShuttingDown`].
    pub fn shutdown(&self) {
        let _ = self.core.flush();
        self.close();
    }

    /// Stop the background thread (idempotent): stop deferring seals,
    /// close its inbox — it writes every spill job queued, seals the
    /// file and exits — and join it, then publish every deferred seal,
    /// so no entry is left `Sealing`.
    fn close(&self) {
        self.core.inbox().closed = true;
        self.core.wake.notify_all();
        if let Some(handle) = self.bg.lock().expect("background handle poisoned").take() {
            let _ = handle.join();
        }
        self.core.publish_seals(true);
    }

    /// Check the in-memory bookkeeping against the entries themselves,
    /// with every shard lock held (taken in index order) so the picture
    /// is one instant's:
    ///
    /// - `resident == Σ len(Hot) + Σ len(Sealing) + Σ len(Memory)`, and
    ///   the `hot` gauge (raw pages: `Hot` and `Sealing`) and the `warm`
    ///   gauge (`Memory`) partition it exactly;
    /// - the deferred seal jobs outstanding (queued, being sealed, or
    ///   sealed and not yet published) are exactly the `Sealing` entries
    ///   plus the jobs whose entry was removed, replaced or promoted
    ///   since (they drop at publish), and the `Sealing` bytes stay
    ///   within the smaller of 64 pages and a quarter of the budget;
    /// - each shard's index names, for every key, a live arena slot
    ///   holding that key, and the arena holds no other live entry;
    ///   its free list links exactly the vacated slots;
    /// - an entry is in its shard's hot set ⇔ its residence is `Hot`,
    ///   in the warm set ⇔ `Memory`, in neither otherwise, `Sealing`
    ///   included: each set position names a live entry of that set
    ///   whose residence records that position, and each set holds
    ///   exactly as many entries as those residences;
    /// - `spill_inflight_bytes == Σ len(Spilling payloads)` plus the
    ///   payloads of jobs whose entry was removed or replaced while they
    ///   were queued (still held by the job, still counted);
    /// - no two `Spilled` extents overlap and none reaches past the
    ///   spill file's last segment;
    /// - when no entry is `Spilling` and no job is orphaned: every
    ///   segment's live bytes are exactly the live extents inside it,
    ///   `bytes_on_spill − spill_dead_bytes == Σ live extents`, no live
    ///   extent sits in a free segment, and none crosses a segment
    ///   boundary unless it is one of a run holding an extent larger
    ///   than a segment;
    /// - at the same moments: every `Spilled` extent reads back and
    ///   verifies against its generation and codec, and a summary in its
    ///   segment names it there (each read is retried a few times before
    ///   an error starting "on the file" is returned, so a medium that
    ///   fails or damages the odd read does not fail the check; one that
    ///   lost writes, a simulated power cut say, does);
    /// - `resident <= memory_budget`, unless a failed write's memory
    ///   fallback is being shed at this moment.
    ///
    /// Safe to call at any time, from any thread, with the background
    /// threads running: the cleaner keeps the on-file identities at
    /// every step. A failure bumps the `invariant_violations` counter and
    /// returns the first broken identity.
    pub fn check_invariants(&self) -> Result<(), String> {
        let res = self.core.check_invariants();
        if res.is_err() {
            self.core.tel.count(0, tstat::INVARIANT_VIOLATIONS, 1);
        }
        res
    }

    /// Run one demotion sweep inline on the calling thread, exactly as
    /// the background thread's demote step does (same policy age and
    /// pressure gates). Returns `(hot pages demoted, warm pages spilled)`.
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
