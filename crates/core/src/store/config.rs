//! What a store is configured with, what its operations can fail with,
//! and which tier served a get.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

#[cfg(doc)]
use super::{CompressedStore, StoreStats};
use crate::tier::TierPolicy;
use cc_compress::{CodecPolicy, ThresholdPolicy};
use cc_telemetry::trace::Tracer;

/// Configuration of a [`CompressedStore`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Maximum bytes of compressed data held in memory. Beyond this, the
    /// coldest entries are spilled (if a spill file is configured) or
    /// puts fail with [`StoreError::OutOfMemory`].
    pub memory_budget: usize,
    /// Optional spill file path; created/truncated on open.
    pub spill_path: Option<PathBuf>,
    /// Keep-compressed threshold; pages failing it are stored raw (they
    /// still count against the budget — exactly the paper's accounting).
    pub threshold: ThresholdPolicy,
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
    /// Target bytes per coalesced spill batch. The writer thread packs
    /// queued entries until a batch reaches this size (or the queue goes
    /// briefly idle) and writes it with a single seek + write. Default is
    /// the paper's §4.3 batch size, 32 KB.
    pub spill_batch_bytes: usize,
    /// Dead-space fraction of the spill file (`spill_dead_bytes /
    /// bytes_on_spill`) beyond which the writer compacts live extents
    /// toward the file head and truncates. Default `0.5`.
    pub gc_dead_ratio: f64,
    /// Whether latency sampling and hot-path event capture are enabled
    /// (default `true`). Counters stay live either way — [`StoreStats`]
    /// is always exact — and the writer thread's batch/GC timings are
    /// always recorded since they are off the data path.
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
    /// While degraded, the writer probes the medium with a canary
    /// write/read round-trip at this interval, re-enabling spill on
    /// success. Default 50 ms.
    pub probe_interval: Duration,
    /// Optional request tracer / flight recorder. When set, sampled
    /// requests record causal spans (put/get, compress, spill queue +
    /// write, spill read, GC) and store anomalies (corruption,
    /// degraded-mode entry, long GC pauses) trigger automatic dumps.
    /// Share the same instance with the server (the service picks it up
    /// from the store) so one trace covers wire and store.
    pub tracer: Option<Arc<Tracer>>,
    /// Hot/warm/cold placement policy (see [`crate::tier`]). The
    /// default, [`crate::tier::RecencyCompressibility`], keeps
    /// incompressible and rapidly re-accessed pages uncompressed in the
    /// hot tier and ages them back down under pressure;
    /// [`crate::tier::CompressAll`] reproduces the flat pre-tiering
    /// store exactly.
    pub tier_policy: Arc<dyn TierPolicy>,
    /// How often the background demoter wakes to sweep for aged hot and
    /// warm pages (only spawned when the policy wants aging at all).
    /// Nothing else wakes it; each wake drains the aged backlog. Default
    /// 5 ms.
    pub demote_interval: Duration,
    /// Make the spill tier crash-safe and warm-restartable: a
    /// checksummed superblock heads the spill file and every durable
    /// spill batch group-commits its locations to a sibling
    /// `<spill_path>.map` journal, so [`CompressedStore::open_existing`]
    /// can rebuild the cold tier after a crash or restart. Default
    /// `false` (the spill file is scratch space that dies with the
    /// process).
    pub persistent: bool,
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

/// Default background demoter wake interval.
const DEFAULT_DEMOTE_INTERVAL: Duration = Duration::from_millis(5);

impl StoreConfig {
    /// Memory-only store with the paper's 4:3 threshold.
    pub fn in_memory(memory_budget: usize) -> Self {
        StoreConfig {
            memory_budget,
            spill_path: None,
            threshold: ThresholdPolicy::default(),
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
            tier_policy: crate::tier::default_policy(),
            demote_interval: DEFAULT_DEMOTE_INTERVAL,
            persistent: false,
        }
    }

    /// Store with a spill file for overflow.
    pub fn with_spill(memory_budget: usize, path: impl Into<PathBuf>) -> Self {
        StoreConfig {
            spill_path: Some(path.into()),
            ..StoreConfig::in_memory(memory_budget)
        }
    }

    /// Make the spill tier crash-safe (see [`StoreConfig::persistent`]).
    /// Open a fresh store with [`CompressedStore::new`] and a restart
    /// survivor with [`CompressedStore::open_existing`].
    pub fn with_persistent(mut self, on: bool) -> Self {
        self.persistent = on;
        self
    }

    /// Override the codec-selection policy (see
    /// [`StoreConfig::codec_policy`]). `storebench --smoke` sweeps
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

    /// Override the dead-space ratio that triggers spill-file compaction.
    /// Values ≥ 1.0 effectively disable GC.
    pub fn with_gc_dead_ratio(mut self, ratio: f64) -> Self {
        self.gc_dead_ratio = ratio.max(0.0);
        self
    }

    /// Enable or disable latency sampling and hot-path event capture
    /// (counters are unaffected). `false` is the baseline the bench
    /// harness compares against to measure telemetry overhead.
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
    /// `compress-all` / `paper-threshold` / `recency` through this.
    pub fn with_tier_policy(mut self, policy: Arc<dyn TierPolicy>) -> Self {
        self.tier_policy = policy;
        self
    }

    /// Override the background demoter wake interval (see
    /// [`StoreConfig::demote_interval`]).
    pub fn with_demote_interval(mut self, t: Duration) -> Self {
        self.demote_interval = t;
        self
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
    /// still queued for the writer thread).
    Memory,
    /// Reconstructed from an 8-byte same-filled pattern; no decompression.
    SameFilled,
    /// Read back from the spill file.
    Spill,
}
