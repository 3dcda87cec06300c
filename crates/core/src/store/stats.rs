//! The store's telemetry schema — counter, timed-op and event names —
//! and the two views over it: [`StoreStats`] and the snapshot's gauges.

use std::sync::atomic::{AtomicUsize, Ordering};

use super::core::StoreCore;
use cc_telemetry::TelemetrySpec;
#[cfg(doc)]
use {
    super::{CompressedStore, StoreConfig},
    cc_telemetry::Telemetry,
};

/// Counter indices into the store's [`TelemetrySpec`] (one striped,
/// cache-padded atomic per shard per counter — the statistics of record,
/// live even when latency sampling is disabled).
pub(super) mod tstat {
    pub const COMPRESSED: usize = 0;
    pub const STORED_RAW: usize = 1;
    pub const SAME_FILLED: usize = 2;
    pub const HITS_MEMORY: usize = 3;
    pub const HITS_SPILL: usize = 4;
    pub const MISSES: usize = 5;
    pub const SPILLED: usize = 6;
    pub const SPILL_BATCHES: usize = 7;
    pub const GC_RUNS: usize = 8;
    pub const GC_BYTES_RELOCATED: usize = 9;
    pub const SPILL_FALLBACK_RESIDENT: usize = 10;
    pub const SHED_PAGES: usize = 11;
    pub const CORRUPT_DETECTED: usize = 12;
    pub const IO_RETRIES: usize = 13;
    pub const DEGRADED_ENTERED: usize = 14;
    pub const DEGRADED_RECOVERED: usize = 15;
    pub const MEDIUM_PROBES: usize = 16;
    pub const PUTS_LZRW1: usize = 17;
    pub const PUTS_BDI: usize = 18;
    pub const CODEC_FALLBACKS: usize = 19;
    pub const LZRW1_IN_BYTES: usize = 20;
    pub const LZRW1_OUT_BYTES: usize = 21;
    pub const BDI_IN_BYTES: usize = 22;
    pub const BDI_OUT_BYTES: usize = 23;
    pub const HITS_HOT: usize = 24;
    pub const PUTS_HOT: usize = 25;
    pub const PROMOTIONS: usize = 26;
    pub const PROMOTIONS_REJECTED: usize = 27;
    pub const DEMOTED_HOT: usize = 28;
    pub const DEMOTED_WARM: usize = 29;
    pub const DEMOTER_PASSES: usize = 30;
    pub const EXTENTS_RECOVERED: usize = 31;
    pub const JOURNAL_RECORDS_REPLAYED: usize = 32;
    pub const TORN_TAIL_DISCARDED: usize = 33;
    pub const STALE_GENERATION_DROPPED: usize = 34;
    pub const RECOVERY_EXTENTS_VERIFIED: usize = 35;
    pub const JOURNAL_RECORDS_WRITTEN: usize = 36;
    pub const JOURNAL_COMPACTIONS: usize = 37;
    pub const CLEAN_RECOVERIES: usize = 38;
    pub const PUT_BACKPRESSURE_WAITS: usize = 39;
    pub const INVARIANT_VIOLATIONS: usize = 40;
    pub const REJECT_PREDICTED: usize = 41;
    pub const REJECT_MISPREDICTED: usize = 42;
    pub const NAMES: &[&str] = &[
        "compressed",
        "stored_raw",
        "same_filled",
        "hits_memory",
        "hits_spill",
        "misses",
        "spilled",
        "spill_batches",
        "gc_runs",
        "gc_bytes_relocated",
        "spill_fallback_resident",
        "shed_pages",
        "corrupt_detected",
        "io_retries",
        "degraded_entered",
        "degraded_recovered",
        "medium_probes",
        "puts_lzrw1",
        "puts_bdi",
        "codec_fallbacks",
        "lzrw1_in_bytes",
        "lzrw1_out_bytes",
        "bdi_in_bytes",
        "bdi_out_bytes",
        "hits_hot",
        "puts_hot",
        "promotions",
        "promotions_rejected",
        "demoted_hot",
        "demoted_warm",
        "demoter_passes",
        "extents_recovered",
        "journal_records_replayed",
        "torn_tail_discarded",
        "stale_generation_dropped",
        "recovery_extents_verified",
        "journal_records_written",
        "journal_compactions",
        "clean_recoveries",
        "put_backpressure_waits",
        "invariant_violations",
        "reject_predicted",
        "reject_mispredicted",
    ];
}

/// Timed-operation indices (one lock-free latency histogram each).
///
/// Foreground ops (everything a put or get times) are fed by
/// [`Telemetry::op_timer`]: 1 operation in
/// [`cc_telemetry::LATENCY_SAMPLE_PERIOD`], traced requests always, so
/// their `count` is a number of *samples* — the op totals are the
/// `hits_*`/`puts_*` counters — and their `max` the largest sampled or
/// traced latency. The [`top::BACKGROUND`] ops are recorded on every
/// call by the thread that owns them.
pub(super) mod top {
    pub const PUT: usize = 0;
    pub const GET_MEMORY: usize = 1;
    pub const GET_SAME_FILLED: usize = 2;
    pub const GET_SPILL: usize = 3;
    pub const SPILL_WRITE: usize = 4;
    pub const SPILL_READ: usize = 5;
    pub const GC_PAUSE: usize = 6;
    pub const COMPRESS_LZRW1: usize = 7;
    pub const COMPRESS_BDI: usize = 8;
    pub const DECOMPRESS_LZRW1: usize = 9;
    pub const DECOMPRESS_BDI: usize = 10;
    pub const GET_HOT: usize = 11;
    pub const PROMOTE: usize = 12;
    pub const DEMOTE_PAUSE: usize = 13;
    pub const RECOVERY: usize = 14;
    /// The header check and CRC pass over an extent [`SPILL_READ`]
    /// brought back, a sub-step of the same sampled get.
    pub const SPILL_VERIFY: usize = 15;
    /// Off the data path (spill writer, GC, demoter, open): every call
    /// is timed.
    pub const BACKGROUND: &[usize] = &[SPILL_WRITE, GC_PAUSE, DEMOTE_PAUSE, RECOVERY];
    pub const NAMES: &[&str] = &[
        "put",
        "get_memory",
        "get_same_filled",
        "get_spill",
        "spill_write",
        "spill_read",
        "gc_pause",
        "compress_lzrw1",
        "compress_bdi",
        "decompress_lzrw1",
        "decompress_bdi",
        "get_hot",
        "promote",
        "demote_pause",
        "recovery_duration",
        "spill_verify",
    ];
}

/// Structured event kinds pushed into the telemetry ring.
pub(super) mod tevent {
    /// `a` = entries in the batch, `b` = batch bytes.
    pub const BATCH_COMMIT: usize = 0;
    /// `a` = bytes relocated, `b` = pause nanoseconds.
    pub const GC_RUN: usize = 1;
    /// `a` = victim key, `b` = compressed bytes spilled.
    pub const EVICT: usize = 2;
    /// `a` = key, `b` = bytes stored raw after the threshold rejected
    /// the compressed form.
    pub const THRESHOLD_REJECT: usize = 3;
    /// `a` = key, `b` = the repeated 8-byte pattern.
    pub const SAME_FILLED: usize = 4;
    /// `a` = consecutive hard batch failures at the transition, `b` = 0.
    pub const DEGRADE: usize = 5;
    /// `a` = probes issued while degraded, `b` = 0.
    pub const RECOVER: usize = 6;
    /// `a` = key shed, `b` = compressed bytes dropped.
    pub const SHED: usize = 7;
    /// `a` = key, `b` = file offset of the extent that failed
    /// verification.
    pub const CORRUPT: usize = 8;
    /// `a` = key promoted to hot, `b` = source tier
    /// ([`cc_telemetry::trace::tier`] code).
    pub const PROMOTE: usize = 9;
    /// `a` = pages demoted by one demoter pass, `b` = pass nanoseconds.
    pub const DEMOTE: usize = 10;
    /// Warm restart: `a` = extents recovered from the spill file,
    /// `b` = recovery duration in nanoseconds.
    pub const RECOVERY: usize = 11;
    pub const NAMES: &[&str] = &[
        "batch_commit",
        "gc_run",
        "evict",
        "threshold_reject",
        "same_filled",
        "degrade",
        "recover",
        "shed",
        "corrupt",
        "promote",
        "demote",
        "recovery",
    ];
}

/// The store's telemetry layout: shard-striped counters, per-operation
/// latency histograms, and the structured event kinds above.
pub(super) const STORE_TELEMETRY: TelemetrySpec = TelemetrySpec {
    counters: tstat::NAMES,
    ops: top::NAMES,
    events: tevent::NAMES,
};

/// Counters (all monotonic except the byte gauges).
///
/// Assembled from the store's telemetry counter bank: every field is an
/// independent per-shard-striped atomic summed at read time, so a
/// snapshot is per-field exact — no shard locks are taken and no field
/// can tear, even while every shard is being hammered.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreStats {
    /// Pages stored compressed.
    pub compressed: u64,
    /// Pages stored raw (failed the threshold, or predicted to).
    pub stored_raw: u64,
    /// Admitted pages whose stored form was sealed by LZRW1.
    pub puts_lzrw1: u64,
    /// Admitted pages whose stored form was sealed by the BDI codec.
    pub puts_bdi: u64,
    /// Adaptive-policy probe mispredictions: the probe chose BDI but its
    /// real output missed the admit bound, so LZRW1 ran as well.
    pub codec_fallbacks: u64,
    /// Adaptive-policy puts the classifier routed straight to the stored
    /// block ([`cc_compress::Route::Raw`]), audited or not: no codec ran
    /// on all but the audited 1 in [`cc_compress::codec::AUDIT_PERIOD`].
    pub reject_predicted: u64,
    /// Audited predicted rejects that LZRW1 compressed under the admit
    /// bound after all: each is a page that unaudited would have been
    /// stored raw although it compresses.
    pub reject_mispredicted: u64,
    /// Original bytes of pages admitted under LZRW1 (with
    /// [`StoreStats::lzrw1_out_bytes`], the codec's achieved ratio).
    pub lzrw1_in_bytes: u64,
    /// Sealed bytes produced by LZRW1 for admitted pages.
    pub lzrw1_out_bytes: u64,
    /// Original bytes of pages admitted under BDI.
    pub bdi_in_bytes: u64,
    /// Sealed bytes produced by BDI for admitted pages.
    pub bdi_out_bytes: u64,
    /// Pages detected as a single repeated word and stored as an 8-byte
    /// pattern, bypassing the compressor and the memory budget.
    pub same_filled: u64,
    /// Puts placed (or kept) uncompressed in the hot tier by the tier
    /// policy — re-puts of fresh hot pages skip the compressor entirely.
    pub puts_hot: u64,
    /// Gets served by memcpy from the hot tier.
    pub hits_hot: u64,
    /// Warm or cold pages decompressed back into the hot tier on
    /// re-access.
    pub promotions: u64,
    /// Promotions the policy asked for that the store declined — the
    /// uncompressed bytes did not fit the budget without eviction, or
    /// the entry changed while the budget was being reserved.
    pub promotions_rejected: u64,
    /// Hot pages the demoter (or budget-pressure eviction) compressed
    /// down to warm or shipped cold.
    pub demoted_hot: u64,
    /// Warm pages the background demoter spilled cold by age (pressure
    /// evictions on the put path are counted in
    /// [`StoreStats::spilled`], not here).
    pub demoted_warm: u64,
    /// Background demoter sweeps that ran (pressure gates open).
    pub demoter_passes: u64,
    /// Gets served from memory.
    pub hits_memory: u64,
    /// Gets served from the spill file.
    pub hits_spill: u64,
    /// Gets for unknown keys.
    pub misses: u64,
    /// Entries spilled to disk.
    pub spilled: u64,
    /// Coalesced batches the spill writer has committed
    /// (`spilled / spill_batches` is the achieved batching factor).
    pub spill_batches: u64,
    /// Spill-file compaction passes completed.
    pub gc_runs: u64,
    /// Bytes of live extents physically copied by compaction passes
    /// (extents already at their compacted position are not counted).
    pub gc_bytes_relocated: u64,
    /// Longest single compaction pass observed, in nanoseconds.
    pub gc_pause_max_ns: u64,
    /// Entries reverted to memory residence because their batch write
    /// hard-failed (or the writer died with their job in flight).
    pub spill_fallback_resident: u64,
    /// Entries dropped outright (cache-miss semantics) to restore the
    /// budget — degraded-mode eviction and post-fallback shedding.
    pub shed_pages: u64,
    /// Spilled-extent verification failures detected (each one is a
    /// read that would have returned garbage without the header).
    pub corrupt_detected: u64,
    /// Spill I/O retries issued after transient read/write failures.
    pub io_retries: u64,
    /// Transitions into degraded mode.
    pub degraded_entered: u64,
    /// Recoveries out of degraded mode (successful probation probes).
    pub degraded_recovered: u64,
    /// Canary probes issued against the medium while degraded.
    pub medium_probes: u64,
    /// Whether the store is currently degraded (spill disabled,
    /// memory-only with shedding).
    pub degraded: bool,
    /// Current spill-file size in bytes (gauge).
    pub bytes_on_spill: u64,
    /// Bytes in the spill file belonging to removed or replaced entries,
    /// reclaimable by the next compaction (gauge).
    pub spill_dead_bytes: u64,
    /// Payload bytes handed to the spill writer and not yet published
    /// or failed by it (gauge): memory the budget counter has stopped
    /// counting and the process still holds. Never above
    /// [`StoreConfig::memory_budget`] (a single payload larger than the
    /// whole budget travels alone).
    pub spill_inflight_bytes: u64,
    /// Times a put found the in-flight bound reached, released its
    /// shard lock and blocked until the writer published.
    pub put_backpressure_waits: u64,
    /// Failed [`CompressedStore::check_invariants`] calls.
    pub invariant_violations: u64,
    /// Current bytes resident in memory across the hot and warm tiers,
    /// never above the configured budget.
    pub resident_bytes: u64,
    /// Uncompressed bytes currently resident in the hot tier (gauge;
    /// included in [`StoreStats::resident_bytes`]).
    pub hot_bytes: u64,
    /// Sealed bytes currently resident in the warm tier (gauge;
    /// included in [`StoreStats::resident_bytes`]).
    pub warm_bytes: u64,
    /// Cold extents recovered from the spill file at open
    /// ([`CompressedStore::open_existing`]) and served without re-PUT.
    pub extents_recovered: u64,
    /// Location-map journal records replayed during recovery.
    pub journal_records_replayed: u64,
    /// Torn journal tails and unverifiable extents discarded by
    /// recovery (each one would have been garbage if served).
    pub torn_tail_discarded: u64,
    /// Journal records dropped by generation arbitration during replay
    /// (superseded puts, out-of-date relocations).
    pub stale_generation_dropped: u64,
    /// Extents re-read and CRC-verified during recovery. Zero after a
    /// clean shutdown — the fast warm start skipped the scan.
    pub recovery_extents_verified: u64,
    /// Location records group-committed to the journal since open.
    pub journal_records_written: u64,
    /// Journal compaction passes (epoch flips) since open.
    pub journal_compactions: u64,
    /// Opens that took the clean-shutdown fast path (0 or 1 for this
    /// store; summable across restarts by an aggregator).
    pub clean_recoveries: u64,
    /// Wall-clock nanoseconds the recovery replay + verification took
    /// at open (0 when this store was not opened from existing media).
    pub recovery_ns: u64,
}

impl StoreCore {
    pub(super) fn stats(&self) -> StoreStats {
        StoreStats {
            compressed: self.tel.counter_sum(tstat::COMPRESSED),
            stored_raw: self.tel.counter_sum(tstat::STORED_RAW),
            puts_lzrw1: self.tel.counter_sum(tstat::PUTS_LZRW1),
            puts_bdi: self.tel.counter_sum(tstat::PUTS_BDI),
            codec_fallbacks: self.tel.counter_sum(tstat::CODEC_FALLBACKS),
            reject_predicted: self.tel.counter_sum(tstat::REJECT_PREDICTED),
            reject_mispredicted: self.tel.counter_sum(tstat::REJECT_MISPREDICTED),
            lzrw1_in_bytes: self.tel.counter_sum(tstat::LZRW1_IN_BYTES),
            lzrw1_out_bytes: self.tel.counter_sum(tstat::LZRW1_OUT_BYTES),
            bdi_in_bytes: self.tel.counter_sum(tstat::BDI_IN_BYTES),
            bdi_out_bytes: self.tel.counter_sum(tstat::BDI_OUT_BYTES),
            same_filled: self.tel.counter_sum(tstat::SAME_FILLED),
            puts_hot: self.tel.counter_sum(tstat::PUTS_HOT),
            hits_hot: self.tel.counter_sum(tstat::HITS_HOT),
            promotions: self.tel.counter_sum(tstat::PROMOTIONS),
            promotions_rejected: self.tel.counter_sum(tstat::PROMOTIONS_REJECTED),
            demoted_hot: self.tel.counter_sum(tstat::DEMOTED_HOT),
            demoted_warm: self.tel.counter_sum(tstat::DEMOTED_WARM),
            demoter_passes: self.tel.counter_sum(tstat::DEMOTER_PASSES),
            hits_memory: self.tel.counter_sum(tstat::HITS_MEMORY),
            hits_spill: self.tel.counter_sum(tstat::HITS_SPILL),
            misses: self.tel.counter_sum(tstat::MISSES),
            spilled: self.tel.counter_sum(tstat::SPILLED),
            spill_batches: self.tel.counter_sum(tstat::SPILL_BATCHES),
            gc_runs: self.tel.counter_sum(tstat::GC_RUNS),
            gc_bytes_relocated: self.tel.counter_sum(tstat::GC_BYTES_RELOCATED),
            gc_pause_max_ns: self.tel.op_summary(top::GC_PAUSE).max,
            spill_fallback_resident: self.tel.counter_sum(tstat::SPILL_FALLBACK_RESIDENT),
            shed_pages: self.tel.counter_sum(tstat::SHED_PAGES),
            corrupt_detected: self.tel.counter_sum(tstat::CORRUPT_DETECTED),
            io_retries: self.tel.counter_sum(tstat::IO_RETRIES),
            degraded_entered: self.tel.counter_sum(tstat::DEGRADED_ENTERED),
            degraded_recovered: self.tel.counter_sum(tstat::DEGRADED_RECOVERED),
            medium_probes: self.tel.counter_sum(tstat::MEDIUM_PROBES),
            degraded: self.degraded.load(Ordering::Relaxed),
            bytes_on_spill: self.spill_file_bytes.load(Ordering::Relaxed),
            spill_dead_bytes: self.spill_dead_bytes.load(Ordering::Relaxed),
            spill_inflight_bytes: self.spill_inflight.load(Ordering::Relaxed) as u64,
            put_backpressure_waits: self.tel.counter_sum(tstat::PUT_BACKPRESSURE_WAITS),
            invariant_violations: self.tel.counter_sum(tstat::INVARIANT_VIOLATIONS),
            resident_bytes: self.resident.load(Ordering::Relaxed) as u64,
            hot_bytes: self.hot_resident.load(Ordering::Relaxed) as u64,
            warm_bytes: self.warm_resident.load(Ordering::Relaxed) as u64,
            extents_recovered: self.tel.counter_sum(tstat::EXTENTS_RECOVERED),
            journal_records_replayed: self.tel.counter_sum(tstat::JOURNAL_RECORDS_REPLAYED),
            torn_tail_discarded: self.tel.counter_sum(tstat::TORN_TAIL_DISCARDED),
            stale_generation_dropped: self.tel.counter_sum(tstat::STALE_GENERATION_DROPPED),
            recovery_extents_verified: self.tel.counter_sum(tstat::RECOVERY_EXTENTS_VERIFIED),
            journal_records_written: self.tel.counter_sum(tstat::JOURNAL_RECORDS_WRITTEN),
            journal_compactions: self.tel.counter_sum(tstat::JOURNAL_COMPACTIONS),
            clean_recoveries: self.tel.counter_sum(tstat::CLEAN_RECOVERIES),
            recovery_ns: self.tel.op_summary(top::RECOVERY).max,
        }
    }

    /// The telemetry snapshot with the store's byte gauges attached (see
    /// [`CompressedStore::telemetry_snapshot`]).
    pub(super) fn telemetry_snapshot(&self) -> cc_telemetry::Snapshot {
        let sampled: Vec<&'static str> = (0..top::NAMES.len())
            .filter(|op| !top::BACKGROUND.contains(op))
            .map(|op| top::NAMES[op])
            .collect();
        let gauge = |a: &AtomicUsize| a.load(Ordering::Relaxed) as u64;
        self.tel
            .snapshot()
            .sampled(&sampled)
            .gauge("resident_bytes", gauge(&self.resident))
            .gauge("hot_resident_bytes", gauge(&self.hot_resident))
            .gauge("warm_resident_bytes", gauge(&self.warm_resident))
            .gauge(
                "bytes_on_spill",
                self.spill_file_bytes.load(Ordering::Relaxed),
            )
            .gauge(
                "spill_dead_bytes",
                self.spill_dead_bytes.load(Ordering::Relaxed),
            )
            .gauge("spill_inflight_bytes", gauge(&self.spill_inflight))
            .gauge("degraded", self.degraded.load(Ordering::Relaxed) as u64)
    }
}
