//! The store's telemetry schema — counter and timed-op names —
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
/// live even when latency sampling is disabled). Each is named as the
/// [`StoreStats`] field it fills.
pub(super) mod tstat {
    cc_telemetry::names! {
        compressed => COMPRESSED,
        stored_raw => STORED_RAW,
        same_filled => SAME_FILLED,
        hits_memory => HITS_MEMORY,
        hits_spill => HITS_SPILL,
        misses => MISSES,
        spilled => SPILLED,
        spill_batches => SPILL_BATCHES,
        gc_runs => GC_RUNS,
        gc_bytes_relocated => GC_BYTES_RELOCATED,
        spill_fallback_resident => SPILL_FALLBACK_RESIDENT,
        shed_pages => SHED_PAGES,
        corrupt_detected => CORRUPT_DETECTED,
        io_retries => IO_RETRIES,
        degraded_entered => DEGRADED_ENTERED,
        degraded_recovered => DEGRADED_RECOVERED,
        medium_probes => MEDIUM_PROBES,
        puts_lzrw1 => PUTS_LZRW1,
        puts_bdi => PUTS_BDI,
        codec_fallbacks => CODEC_FALLBACKS,
        lzrw1_in_bytes => LZRW1_IN_BYTES,
        lzrw1_out_bytes => LZRW1_OUT_BYTES,
        bdi_in_bytes => BDI_IN_BYTES,
        bdi_out_bytes => BDI_OUT_BYTES,
        hits_hot => HITS_HOT,
        puts_hot => PUTS_HOT,
        promotions => PROMOTIONS,
        promotions_rejected => PROMOTIONS_REJECTED,
        demoted_hot => DEMOTED_HOT,
        demoted_warm => DEMOTED_WARM,
        demoter_passes => DEMOTER_PASSES,
        extents_recovered => EXTENTS_RECOVERED,
        summary_records_replayed => SUMMARY_RECORDS_REPLAYED,
        torn_tail_discarded => TORN_TAIL_DISCARDED,
        stale_generation_dropped => STALE_GENERATION_DROPPED,
        recovery_extents_verified => RECOVERY_EXTENTS_VERIFIED,
        clean_recoveries => CLEAN_RECOVERIES,
        put_backpressure_waits => PUT_BACKPRESSURE_WAITS,
        invariant_violations => INVARIANT_VIOLATIONS,
        reject_predicted => REJECT_PREDICTED,
        reject_mispredicted => REJECT_MISPREDICTED,
        seals_deferred => SEALS_DEFERRED,
    }
}

/// Timed-operation indices (one lock-free latency histogram each).
///
/// Foreground ops (everything a put or get times) are fed by the op's
/// [`cc_telemetry::OpTimer`], timed by [`Telemetry::op_timer`]'s rule: 1 operation in
/// [`cc_telemetry::LATENCY_SAMPLE_PERIOD`], traced requests always, so
/// their `count` is a number of *samples* — the op totals are the
/// `hits_*`/`puts_*` counters — and their `max` the largest sampled or
/// traced latency. The [`top::BACKGROUND`] ops are recorded on every
/// call by the thread that owns them.
pub(super) mod top {
    cc_telemetry::names! {
        put => PUT,
        get_memory => GET_MEMORY,
        get_same_filled => GET_SAME_FILLED,
        get_spill => GET_SPILL,
        spill_write => SPILL_WRITE,
        spill_read => SPILL_READ,
        gc_pause => GC_PAUSE,
        compress_lzrw1 => COMPRESS_LZRW1,
        compress_bdi => COMPRESS_BDI,
        decompress_lzrw1 => DECOMPRESS_LZRW1,
        decompress_bdi => DECOMPRESS_BDI,
        get_hot => GET_HOT,
        promote => PROMOTE,
        demote_pause => DEMOTE_PAUSE,
        recovery_duration => RECOVERY,
        /// The header check and CRC pass over an extent [`SPILL_READ`]
        /// brought back, a sub-step of the same sampled get.
        spill_verify => SPILL_VERIFY,
    }
    /// Off the data path (spill writer, GC, demoter, open): every call
    /// is timed.
    pub const BACKGROUND: &[usize] = &[SPILL_WRITE, GC_PAUSE, DEMOTE_PAUSE, RECOVERY];
}

/// The store's telemetry layout: shard-striped counters and
/// per-operation latency histograms.
pub(super) const STORE_TELEMETRY: TelemetrySpec = TelemetrySpec {
    counters: tstat::NAMES,
    ops: top::NAMES,
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
    /// Puts whose LZRW1 seal was handed to the background thread: the
    /// raw page waited in memory (a get is a memcpy) and the sealed form
    /// was placed by a later put or `flush()`. Their codec counters
    /// count when the seal is published, and never for a job whose entry
    /// was re-put, removed or promoted before its seal ran: that seal is
    /// skipped.
    pub seals_deferred: u64,
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
    /// Promotions the policy asked for that the store declined: the
    /// uncompressed bytes did not fit the budget without eviction.
    pub promotions_rejected: u64,
    /// Hot pages the demote passes (or budget-pressure eviction) compressed
    /// down to warm or shipped cold.
    pub demoted_hot: u64,
    /// Warm pages the demote passes spilled cold by age (pressure
    /// evictions on the put path are counted in
    /// [`StoreStats::spilled`], not here).
    pub demoted_warm: u64,
    /// Demote passes that ran (pressure gates open), on the background
    /// thread or by [`CompressedStore::demote_now`].
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
    /// Cleaning steps completed; each frees one spill-file segment.
    pub gc_runs: u64,
    /// Bytes of live extents the cleaning steps copied out of the
    /// segments they freed.
    pub gc_bytes_relocated: u64,
    /// Longest single cleaning step observed, in nanoseconds.
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
    /// Bytes in the spill file's non-free segments (gauge).
    pub bytes_on_spill: u64,
    /// The part of [`StoreStats::bytes_on_spill`] no entry names —
    /// removed, replaced or promoted extents and sealed segments' unused
    /// tails — reclaimable by cleaning (gauge). Once nothing is in
    /// flight, `bytes_on_spill − spill_dead_bytes` is exactly the bytes
    /// of the live spilled extents.
    pub spill_dead_bytes: u64,
    /// Payload bytes handed to the spill writer and not yet published
    /// or failed by it (gauge): memory the budget counter has stopped
    /// counting and the process still holds. Never above
    /// [`StoreConfig::spill_inflight_limit`] (a single payload larger
    /// than the limit travels alone).
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
    /// Batch summary records (extents and tombstones) replayed during
    /// recovery.
    pub summary_records_replayed: u64,
    /// Torn summaries and unverifiable extents discarded by recovery
    /// (each one would have been garbage if served).
    pub torn_tail_discarded: u64,
    /// Summary records that lost the fold to a newer record of the same
    /// key (superseded puts and tombstones).
    pub stale_generation_dropped: u64,
    /// Extents re-read and CRC-verified during recovery. Zero after a
    /// clean shutdown — the fast warm start skipped the scan.
    pub recovery_extents_verified: u64,
    /// Opens that took the clean-shutdown fast path (0 or 1 for this
    /// store; summable across restarts by an aggregator).
    pub clean_recoveries: u64,
    /// Wall-clock nanoseconds the recovery replay + verification took
    /// at open (0 when this store was not opened from existing media).
    pub recovery_ns: u64,
}

impl StoreCore {
    pub(super) fn stats(&self) -> StoreStats {
        // Two loads of gauges that change together: a change between
        // them must not show more dead bytes than bytes.
        let bytes_on_spill = self.spill_file_bytes.load(Ordering::Relaxed);
        let spill_dead_bytes = self
            .spill_dead_bytes
            .load(Ordering::Relaxed)
            .min(bytes_on_spill);
        StoreStats {
            compressed: self.tel.counter_sum(tstat::COMPRESSED),
            stored_raw: self.tel.counter_sum(tstat::STORED_RAW),
            puts_lzrw1: self.tel.counter_sum(tstat::PUTS_LZRW1),
            puts_bdi: self.tel.counter_sum(tstat::PUTS_BDI),
            codec_fallbacks: self.tel.counter_sum(tstat::CODEC_FALLBACKS),
            reject_predicted: self.tel.counter_sum(tstat::REJECT_PREDICTED),
            reject_mispredicted: self.tel.counter_sum(tstat::REJECT_MISPREDICTED),
            seals_deferred: self.tel.counter_sum(tstat::SEALS_DEFERRED),
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
            bytes_on_spill,
            spill_dead_bytes,
            spill_inflight_bytes: self.spill_inflight.load(Ordering::Relaxed) as u64,
            put_backpressure_waits: self.tel.counter_sum(tstat::PUT_BACKPRESSURE_WAITS),
            invariant_violations: self.tel.counter_sum(tstat::INVARIANT_VIOLATIONS),
            resident_bytes: self.resident.load(Ordering::Relaxed) as u64,
            hot_bytes: self.hot_resident.load(Ordering::Relaxed) as u64,
            warm_bytes: self.warm_resident.load(Ordering::Relaxed) as u64,
            extents_recovered: self.tel.counter_sum(tstat::EXTENTS_RECOVERED),
            summary_records_replayed: self.tel.counter_sum(tstat::SUMMARY_RECORDS_REPLAYED),
            torn_tail_discarded: self.tel.counter_sum(tstat::TORN_TAIL_DISCARDED),
            stale_generation_dropped: self.tel.counter_sum(tstat::STALE_GENERATION_DROPPED),
            recovery_extents_verified: self.tel.counter_sum(tstat::RECOVERY_EXTENTS_VERIFIED),
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
