//! What a store is configured with, what its operations can fail with,
//! and which tier served a get.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

#[cfg(doc)]
use super::{CompressedStore, StoreStats};
use crate::tier::TierPolicy;
use cc_compress::CodecPolicy;
use cc_telemetry::trace::Tracer;

/// Configuration of a [`CompressedStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Maximum bytes of compressed data held in memory. Beyond this, the
    /// coldest entries are spilled (if a spill file is configured) or
    /// puts fail with [`StoreError::OutOfMemory`].
    pub memory_budget: usize,
    /// Optional spill file path; created/truncated by
    /// [`CompressedStore::new`], reopened by
    /// [`CompressedStore::open_existing`]. The file is crash-safe: a
    /// checksummed superblock heads it and every batch is written behind
    /// a summary of what it holds, so the cold tier can be rebuilt from
    /// the file alone after a crash or restart.
    pub spill_path: Option<PathBuf>,
    /// Which codec(s) the put path may use. The default,
    /// [`CodecPolicy::Adaptive`], probes each page and runs the BDI
    /// word-pattern codec when it predicts a win, LZRW1 otherwise;
    /// `Lzrw1Only` reproduces the paper's single-codec behavior. The
    /// chosen codec's id is recorded in the entry and sealed into any
    /// spill extent, so a policy change between runs never misdecodes
    /// existing data.
    pub codec_policy: CodecPolicy,
    /// Number of lock-striped shards, rounded up to a power of two.
    /// `0` (the default) sizes the striping to the hardware parallelism.
    pub shards: usize,
    /// Target bytes per coalesced spill batch. The spill writer packs
    /// queued entries until a batch reaches this size (or the queue goes
    /// briefly idle) and writes it with a single positioned write.
    /// Default is the paper's §4.3 batch size, 32 KB. The spill file's
    /// segments are 32 batches (at least 16 KiB).
    pub spill_batch_bytes: usize,
    /// Dead fraction of the spill file (`spill_dead_bytes /
    /// bytes_on_spill`) at which the writer cleans: while it holds, the
    /// writer takes the sealed segment with the most dead bytes, if at
    /// least this fraction of it is dead, and frees it by re-appending
    /// its live extents, one batch of them between each two spill
    /// batches. Default `0.5`; 1.0 or more disables cleaning.
    pub gc_dead_ratio: f64,
    /// Whether latency sampling is enabled (default `true`). Counters
    /// stay live either way — [`StoreStats`] is always exact — and the
    /// background thread's batch/GC timings are always recorded since
    /// they are off the data path.
    pub telemetry: bool,
    /// Total attempts (first try + retries) for a spill read or batch
    /// write before the failure is treated as hard. Default 3; clamped
    /// to at least 1.
    pub spill_retry_attempts: u32,
    /// Backoff before retry `n` is `spill_retry_base << (n - 1)`
    /// (exponential). Default 500 µs.
    pub spill_retry_base: Duration,
    /// Consecutive *hard* batch-write failures (each already having
    /// exhausted its retries) after which the store enters degraded
    /// mode. Default 3.
    pub degrade_after: u32,
    /// While degraded, the background thread probes the medium with a
    /// canary write/read round-trip this often — a deadline no flush or
    /// other work postpones — re-enabling spill on success. Default 50 ms.
    pub probe_interval: Duration,
    /// Optional request tracer / flight recorder. When set, sampled
    /// requests record causal spans (put/get, compress, spill queue +
    /// write, spill read, GC) and store anomalies (corruption,
    /// degraded-mode entry, long GC pauses) trigger automatic dumps.
    /// Share the same instance with the server (the service picks it up
    /// from the store) so one trace covers wire and store.
    pub tracer: Option<Arc<Tracer>>,
    /// Hot/warm/cold placement policy (see [`crate::tier`]). The
    /// default, [`TierPolicy::RECENCY`], keeps incompressible and
    /// rapidly re-accessed pages uncompressed in the hot tier and ages
    /// them back down under pressure; [`TierPolicy::COMPRESS_ALL`]
    /// reproduces the flat pre-tiering store exactly.
    pub tier_policy: TierPolicy,
    /// How often a demote pass — a sweep for aged hot and warm pages —
    /// falls due on the background thread, if the policy ages pages. A
    /// due pass repeats while it demotes something, draining the aged
    /// backlog; no put brings one forward. Default 5 ms.
    pub demote_interval: Duration,
}

/// The paper's §4.3 write-back batch size.
const DEFAULT_SPILL_BATCH: usize = 32 * 1024;

/// Default total attempts for a spill read or batch write.
const DEFAULT_RETRY_ATTEMPTS: u32 = 3;

/// Default base backoff between spill I/O retries.
const DEFAULT_RETRY_BASE: Duration = Duration::from_micros(500);

/// Default consecutive hard batch failures before degrading.
const DEFAULT_DEGRADE_AFTER: u32 = 3;

/// Default medium re-probe interval while degraded.
const DEFAULT_PROBE_INTERVAL: Duration = Duration::from_millis(50);

/// Default interval between demote passes.
const DEFAULT_DEMOTE_INTERVAL: Duration = Duration::from_millis(5);

/// The spill writer's in-flight payload is bounded by the budget over
/// this ([`StoreConfig::spill_inflight_limit`]). A writer that keeps up
/// holds one or two batches; the rest of the bound absorbs the writer
/// losing the CPU for a few milliseconds without a put waiting. The
/// raw pages waiting for deferred seals take the same share.
pub(super) const INFLIGHT_SHARE: usize = 4;

impl StoreConfig {
    /// Memory-only store with the paper's 4:3 threshold.
    pub fn in_memory(memory_budget: usize) -> Self {
        StoreConfig {
            memory_budget,
            spill_path: None,
            codec_policy: CodecPolicy::default(),
            shards: 0,
            spill_batch_bytes: DEFAULT_SPILL_BATCH,
            gc_dead_ratio: 0.5,
            telemetry: true,
            spill_retry_attempts: DEFAULT_RETRY_ATTEMPTS,
            spill_retry_base: DEFAULT_RETRY_BASE,
            degrade_after: DEFAULT_DEGRADE_AFTER,
            probe_interval: DEFAULT_PROBE_INTERVAL,
            tracer: None,
            tier_policy: TierPolicy::RECENCY,
            demote_interval: DEFAULT_DEMOTE_INTERVAL,
        }
    }

    /// Store with a spill file for overflow.
    pub fn with_spill(memory_budget: usize, path: impl Into<PathBuf>) -> Self {
        StoreConfig {
            spill_path: Some(path.into()),
            ..StoreConfig::in_memory(memory_budget)
        }
    }

    /// Override the codec-selection policy (see
    /// [`StoreConfig::codec_policy`]). The codec-sweep gate test sweeps
    /// `lzrw1-only` / `adaptive` through this.
    pub fn with_codec_policy(mut self, policy: CodecPolicy) -> Self {
        self.codec_policy = policy;
        self
    }

    /// Override the shard count (rounded up to a power of two; `1` gives
    /// the pre-striping behavior of one global lock, useful as a
    /// scaling baseline).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Override the spill batch target (clamped to at least one byte, so
    /// `1` degenerates to one-entry-per-write, useful as a baseline).
    pub fn with_spill_batch_bytes(mut self, bytes: usize) -> Self {
        self.spill_batch_bytes = bytes.max(1);
        self
    }

    /// Override the dead fraction at which the writer cleans the spill
    /// file ([`StoreConfig::gc_dead_ratio`]). Values ≥ 1.0 disable
    /// cleaning.
    pub fn with_gc_dead_ratio(mut self, ratio: f64) -> Self {
        self.gc_dead_ratio = ratio.max(0.0);
        self
    }

    /// Enable or disable latency sampling (counters are unaffected).
    /// `false` is the baseline the bench harness compares against to
    /// measure telemetry overhead.
    pub fn with_telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Override the spill I/O retry policy: `attempts` total tries
    /// (clamped to at least 1) with exponential backoff starting at
    /// `base`.
    pub fn with_spill_retry(mut self, attempts: u32, base: Duration) -> Self {
        self.spill_retry_attempts = attempts.max(1);
        self.spill_retry_base = base;
        self
    }

    /// Override how many consecutive hard batch failures trigger
    /// degraded mode (clamped to at least 1).
    pub fn with_degrade_after(mut self, n: u32) -> Self {
        self.degrade_after = n.max(1);
        self
    }

    /// Override the degraded-mode medium re-probe interval.
    pub fn with_probe_interval(mut self, t: Duration) -> Self {
        self.probe_interval = t;
        self
    }

    /// Attach a request tracer / flight recorder (see
    /// [`StoreConfig::tracer`]).
    pub fn with_tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Override the tier placement policy (see
    /// [`StoreConfig::tier_policy`]). The bench harness sweeps
    /// [`TierPolicy::COMPRESS_ALL`], [`TierPolicy::PAPER_THRESHOLD`] and
    /// [`TierPolicy::RECENCY`] through this.
    pub fn with_tier_policy(mut self, policy: TierPolicy) -> Self {
        self.tier_policy = policy;
        self
    }

    /// Override the interval between demote passes (see
    /// [`StoreConfig::demote_interval`]).
    pub fn with_demote_interval(mut self, t: Duration) -> Self {
        self.demote_interval = t;
        self
    }

    /// The most payload bytes the spill writer holds in flight — handed
    /// off, not yet on the file — before a put that must evict waits for
    /// it: a quarter of [`StoreConfig::memory_budget`], but at least one
    /// spill batch (so the writer can still fill one) unless that is
    /// more than the whole budget. The budget stops counting a page's
    /// bytes at the hand-off, so this is how far the payload the process
    /// holds can exceed the budget. A lone payload larger than the limit
    /// still goes.
    pub fn spill_inflight_limit(&self) -> usize {
        let budget = self.memory_budget;
        (budget / INFLIGHT_SHARE).max(self.spill_batch_bytes.min(budget))
    }

    /// The shard count this config will actually build: the requested
    /// count (or available parallelism when unset), rounded up to a
    /// power of two and clamped to `1..=256`.
    pub fn resolved_shards(&self) -> usize {
        let n = if self.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(8)
        } else {
            self.shards
        };
        n.next_power_of_two().clamp(1, 256)
    }
}

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// The memory budget is exhausted and no spill file is configured.
    OutOfMemory,
    /// Page size differs from the store's page size (fixed at first put).
    BadPageSize {
        /// Size the store was created with.
        expected: usize,
        /// Size offered.
        got: usize,
    },
    /// The store has been shut down ([`CompressedStore::shutdown`]) — or
    /// its spill writer died — and this operation needed it. Reads and
    /// puts that fit in memory still succeed.
    ShuttingDown,
    /// A spilled extent failed self-verification (bad magic, length or
    /// generation mismatch, or CRC-32 failure) on every retry. The
    /// entry has been dropped — a subsequent get misses instead of
    /// returning garbage.
    Corrupt,
    /// Spill-file I/O failed.
    Io(std::io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::OutOfMemory => write!(f, "compressed store memory budget exhausted"),
            StoreError::BadPageSize { expected, got } => {
                write!(f, "page size mismatch: store uses {expected}, got {got}")
            }
            StoreError::ShuttingDown => {
                write!(f, "store is shutting down; spill writer stopped")
            }
            StoreError::Corrupt => {
                write!(f, "spilled extent failed verification; entry dropped")
            }
            StoreError::Io(e) => write!(f, "spill I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Which tier served a successful [`CompressedStore::get_tier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitTier {
    /// Served by memcpy from the uncompressed-resident hot tier; no
    /// decompression at all.
    Hot,
    /// Served from compressed bytes resident in memory (including entries
    /// still queued for the spill writer).
    Memory,
    /// Reconstructed from an 8-byte same-filled pattern; no decompression.
    SameFilled,
    /// Read back from the spill file.
    Spill,
}
