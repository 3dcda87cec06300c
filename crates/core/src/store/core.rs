//! [`StoreCore`], the state the public handle and the background threads
//! share, and the whole foreground data path on it: put, get, the cold
//! read, remove, eviction and shedding, and `flush`. A hit or a resident
//! put calls nothing outside this module; promotion (`tiering`) and the
//! spill hand-off and its waits (`writer`) are the only calls out.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use super::extent::verify_extent;
use super::shard::{
    probe_code, stage_slot, Entry, Padded, Residence, Shard, PROBE_REJECTED, SCRATCH,
};
use super::stats::{tevent, top, tstat};
use super::tiering::DemoteOutcome;
#[cfg(doc)]
use super::{CompressedStore, StoreStats};
use super::{HitTier, StoreConfig, StoreError};
use crate::medium::SpillMedium;
use crate::persist::Persist;
use crate::tier::{PlacementQuery, TierDecision};
use cc_compress::{
    decode_into, expand_same_filled, probe_bdi, same_filled_pattern, CodecId, CodecPolicy,
};
use cc_telemetry::trace::{sop, tier as strier, AnomalyKind, Span, TraceCtx};
use cc_telemetry::Telemetry;

/// Everything shared between the public handle and the writer thread:
/// the shards, the budget gauge, and the spill-file bookkeeping.
pub(super) struct StoreCore {
    pub(super) cfg: StoreConfig,
    pub(super) shards: Vec<Padded<Mutex<Shard>>>,
    pub(super) shard_mask: u64,
    /// Bytes with `Hot` or `Memory` residence across all shards. Budget
    /// is enforced by CAS reservation on this counter, so it never
    /// exceeds `cfg.memory_budget` (outside the spill-failure recovery
    /// path).
    pub(super) resident: AtomicUsize,
    /// Uncompressed bytes with `Hot` residence (gauge; a subset of
    /// `resident`, which stays the reservation authority).
    pub(super) hot_resident: AtomicUsize,
    /// Sealed bytes with `Memory` residence (gauge; the other subset).
    pub(super) warm_resident: AtomicUsize,
    /// Global operation clock: every put and get bumps it, and entries
    /// stamp `last_touch` with the value — the tier policies'
    /// generation-counter aging. Each op's value is unique, which is
    /// what lets promotion revalidate "the entry I served is still the
    /// entry I'm swapping" by comparing stamps.
    pub(super) touch_clock: AtomicU64,
    /// Demoter shutdown flag, under the condvar's mutex.
    pub(super) demote_stop: Mutex<bool>,
    /// Wakes the demoter for shutdown, and for nothing else: it sleeps
    /// `cfg.demote_interval` between wakes and drains its backlog per
    /// wake, so no put ever makes a syscall on its behalf.
    pub(super) demote_cv: Condvar,
    /// Fixed at first put; 0 = not yet fixed.
    pub(super) page_size: AtomicUsize,
    /// Generation stamp for spill jobs.
    pub(super) next_gen: AtomicU64,
    /// The spill medium, shared by the writer thread and all readers
    /// (positioned I/O — no seek cursor to contend on).
    pub(super) medium: Option<Arc<dyn SpillMedium>>,
    /// Set when spill is disabled after consecutive hard medium
    /// failures (or a writer death). Eviction sheds instead of
    /// spilling until the probation probe clears it.
    pub(super) degraded: AtomicBool,
    /// Set when the writer thread has exited — normally (shutdown /
    /// drop) or by panic. With this set, `Spilling` entries the writer
    /// has not published yet never will be.
    pub(super) writer_dead: AtomicBool,
    /// Payload bytes handed to the writer and not yet published or
    /// failed by it: up (by CAS, bounded by the budget — see
    /// [`StoreCore::reserve_inflight`]) at every hand-off, down exactly
    /// once per job, both under the job key's shard lock. Relaxed: the
    /// entries it describes are published by the shard locks, and
    /// waiters re-read it under `spill_waiters`.
    pub(super) spill_inflight: AtomicUsize,
    /// The part of `spill_inflight` whose entry was removed or replaced
    /// while the job was queued: the job still holds its payload until
    /// the writer reaches it, so the gauge (and the bound) keep counting
    /// it. Kept so [`CompressedStore::check_invariants`] can state the
    /// gauge as an identity instead of an inequality.
    pub(super) spill_orphaned: AtomicUsize,
    /// Threads blocked in [`StoreCore::wait_for_writer`]. The writer
    /// takes this lock after every batch it publishes (and when it
    /// exits) and signals `spill_cv` only if somebody waits.
    pub(super) spill_waiters: Mutex<usize>,
    /// Signalled on writer progress: in-flight bytes went down, or the
    /// writer exited.
    pub(super) spill_cv: Condvar,
    /// Non-zero while a thread is between pushing `resident` over the
    /// budget (a failed write's memory fallback) and shedding it back —
    /// the one window in which `resident > memory_budget` is legal.
    pub(super) shedding: AtomicUsize,
    /// Counters, latency histograms, and the event ring. Counters are
    /// striped by shard index and are the statistics of record behind
    /// [`StoreStats`]; sampling obeys [`StoreConfig::telemetry`].
    pub(super) tel: Telemetry,
    /// Current spill-file length (the writer's allocation cursor).
    pub(super) spill_file_bytes: AtomicU64,
    /// Bytes on the spill file belonging to removed/replaced entries.
    /// Approximate under concurrent churn (it can momentarily lag removes
    /// racing a compaction) but self-correcting: GC subtracts exactly
    /// what it physically reclaimed.
    pub(super) spill_dead_bytes: AtomicU64,
    /// Persistence state (`Some` iff [`StoreConfig::persistent`]): the
    /// location-map journal and its append position. The superblock
    /// lives at the head of the spill medium itself.
    pub(super) persist: Option<Persist>,
}

/// Span bookkeeping for one traced store operation: its span id and
/// start instant (see [`StoreCore::op_trace`]).
struct OpTrace {
    span: u32,
    t0: Instant,
}

/// What a store operation reports back for its span: the tier it
/// resolved to and the codec involved.
#[derive(Default)]
struct TraceOut {
    tier: u8,
    codec: u8,
}

/// How one attempt at a cold get ended ([`StoreCore::read_cold`]).
enum ColdRead {
    /// The page is in the caller's buffer.
    Served,
    /// The entry stopped naming the extent while it was being read.
    Moved,
    /// The medium failed the read ([`StoreError::Io`]), or the extent
    /// came back and failed verification ([`StoreError::Corrupt`]).
    Failed(StoreError),
}

/// Whether `key`'s entry is spilled at exactly `at` = `(offset, len,
/// generation)`.
fn names_extent(shard: &Shard, key: u64, at: (u64, u32, u64)) -> bool {
    matches!(
        shard.entries.get(&key).map(|e| &e.residence),
        Some(&Residence::Spilled { offset, len, gen }) if (offset, len, gen) == at
    )
}

/// Backoff before retry `attempt` (1-based): `base << (attempt - 1)`,
/// capped to keep a misconfigured attempt count from sleeping forever.
pub(super) fn backoff(base: Duration, attempt: u32) -> Duration {
    base.saturating_mul(1u32 << (attempt - 1).min(10))
}

impl StoreCore {
    #[inline]
    pub(super) fn shard_index(&self, key: u64) -> usize {
        // splitmix64 finalizer: decorrelates the shard choice from any
        // key-assignment pattern (sequential keys, strided keys, ...).
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) & self.shard_mask) as usize
    }

    #[inline]
    pub(super) fn shard(&self, key: u64) -> MutexGuard<'_, Shard> {
        self.shards[self.shard_index(key)]
            .0
            .lock()
            .expect("shard poisoned")
    }

    pub(super) fn has_spill(&self) -> bool {
        self.medium.is_some()
    }

    /// Flip into degraded mode (idempotent); `failures` is the
    /// consecutive hard-failure count at the transition, for the event.
    pub(super) fn enter_degraded(&self, failures: u64) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            self.tel.count(0, tstat::DEGRADED_ENTERED, 1);
            self.tel.event(tevent::DEGRADE, failures, 0);
            if let Some(tr) = self.cfg.tracer.as_deref() {
                tr.anomaly(AnomalyKind::Degraded, 0, failures, 0);
            }
        }
    }

    /// Leave degraded mode (idempotent); `probes` is how many canary
    /// probes it took, for the event.
    pub(super) fn exit_degraded(&self, probes: u64) {
        if self.degraded.swap(false, Ordering::Relaxed) {
            self.tel.count(0, tstat::DEGRADED_RECOVERED, 1);
            self.tel.event(tevent::RECOVER, probes, 0);
        }
    }

    /// Clock read for one step inside an operation (compress, spill
    /// read, promotion). The operation's one timing decision
    /// ([`Telemetry::op_timer`], passed down as `timed`) governs it; a
    /// traced request also reads the clock for its child span when
    /// telemetry is off.
    #[inline]
    pub(super) fn step_start(timed: bool, ctx: TraceCtx) -> Option<Instant> {
        (timed || ctx.sampled()).then(Instant::now)
    }

    /// Record a step started by [`StoreCore::step_start`] on `op`'s
    /// histogram if the operation is timed.
    #[inline]
    pub(super) fn step_end(&self, op: usize, timed: bool, t0: Option<Instant>) {
        self.tel.record_since(op, t0.filter(|_| timed), 0);
    }

    /// Start tracing one store operation under a sampled request:
    /// allocates the operation's span id and stamps its start. `None`
    /// when the request is unsampled or no tracer is configured —
    /// callers skip all span work in that case.
    #[inline]
    fn op_trace(&self, ctx: TraceCtx) -> Option<OpTrace> {
        if !ctx.sampled() {
            return None;
        }
        let tr = self.cfg.tracer.as_deref()?;
        Some(OpTrace {
            span: tr.alloc_span(),
            t0: Instant::now(),
        })
    }

    /// Record the span opened by [`StoreCore::op_trace`].
    fn finish_op(&self, ot: OpTrace, ctx: TraceCtx, op: u8, tout: &TraceOut, status: u8, key: u64) {
        let Some(tr) = self.cfg.tracer.as_deref() else {
            return;
        };
        tr.record(
            self.shard_index(key),
            &Span {
                trace_id: ctx.trace_id,
                span_id: ot.span,
                parent: ctx.parent_span,
                op,
                tier: tout.tier,
                codec: tout.codec,
                status,
                start_ns: tr.now_ns(ot.t0),
                queue_ns: 0,
                service_ns: ot.t0.elapsed().as_nanos() as u64,
                arg: key,
            },
        );
    }

    /// Record a leaf child span under `ctx` spanning `t0 → now` (no-op
    /// when unsampled, untimed, or untraced).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn child_span(
        &self,
        ctx: TraceCtx,
        t0: Option<Instant>,
        op: u8,
        tier: u8,
        codec: u8,
        status: u8,
        arg: u64,
        stripe: usize,
    ) {
        let (Some(t0), true) = (t0, ctx.sampled()) else {
            return;
        };
        let Some(tr) = self.cfg.tracer.as_deref() else {
            return;
        };
        tr.record(
            stripe,
            &Span {
                trace_id: ctx.trace_id,
                span_id: tr.alloc_span(),
                parent: ctx.parent_span,
                op,
                tier,
                codec,
                status,
                start_ns: tr.now_ns(t0),
                queue_ns: 0,
                service_ns: t0.elapsed().as_nanos() as u64,
                arg,
            },
        );
    }

    /// Store or replace `key`'s page, recording a `store_put` span (and
    /// children) when `ctx` is sampled.
    pub(super) fn put(&self, key: u64, page: &[u8], ctx: TraceCtx) -> Result<(), StoreError> {
        match self.op_trace(ctx) {
            None => self.put_inner(key, page, TraceCtx::NONE, &mut TraceOut::default()),
            Some(ot) => {
                let mut tout = TraceOut::default();
                let res = self.put_inner(key, page, ctx.child(ot.span), &mut tout);
                self.finish_op(ot, ctx, sop::STORE_PUT, &tout, res.is_err() as u8, key);
                res
            }
        }
    }

    fn put_inner(
        &self,
        key: u64,
        page: &[u8],
        ctx: TraceCtx,
        tout: &mut TraceOut,
    ) -> Result<(), StoreError> {
        // The op's unique stamp decides, once, whether it is timed; the
        // answer is passed down to every clock read below.
        let stamp = self.touch_clock.fetch_add(1, Ordering::Relaxed);
        let t0 = self.tel.op_timer(stamp, ctx.sampled());
        let timed = t0.is_some();
        let now = stamp as u32;
        // Fix the page size (or reject a mismatch) before compressing.
        match self
            .page_size
            .compare_exchange(0, page.len(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => {}
            Err(ps) if ps == page.len() => {}
            Err(ps) => {
                return Err(StoreError::BadPageSize {
                    expected: ps,
                    got: page.len(),
                })
            }
        }

        // Same-filled fast path: a repeated-word page never touches the
        // compressor, the budget, or the buffer pool — the pattern *is*
        // the stored form.
        if let Some(pattern) = same_filled_pattern(page) {
            tout.tier = strier::SAME_FILLED;
            tout.codec = CodecId::SameFilled.as_u8();
            let shard_idx = self.shard_index(key);
            let mut shard = self.shards[shard_idx].0.lock().expect("shard poisoned");
            self.remove_locked(&mut shard, key);
            shard.entries.insert(
                key,
                Entry {
                    residence: Residence::SameFilled { pattern },
                    orig_len: page.len() as u32,
                    codec: CodecId::SameFilled.as_u8(),
                    probe: 0,
                    gets: 0,
                    last_touch: now,
                    journaled: false,
                },
            );
            drop(shard);
            self.tel.count(shard_idx, tstat::SAME_FILLED, 1);
            if self.tel.timing_enabled() {
                self.tel.event(tevent::SAME_FILLED, key, pattern);
            }
            self.tel.record_since(top::PUT, t0, ctx.trace_id);
            return Ok(());
        }

        // Keep-hot fast path: a re-put of a still-fresh hot page can
        // stay hot, replacing the raw bytes in place and skipping the
        // probe and the compressor entirely — the entry records "not
        // probed", and the demoter probes once when it seals the page,
        // if it ever goes cold. Gated on the policy's capability flag so
        // flat policies pay no extra lock acquisition.
        if self.cfg.tier_policy.may_keep_hot() {
            let shard_idx = self.shard_index(key);
            let mut shard = self.shards[shard_idx].0.lock().expect("shard poisoned");
            if let Some(e) = shard.entries.get_mut(&key) {
                if let Residence::Hot { data, handle } = &mut e.residence {
                    if data.len() == page.len() {
                        let q = PlacementQuery {
                            key,
                            page_len: page.len(),
                            sealed_len: page.len(),
                            admitted: false,
                            age: now.wrapping_sub(e.last_touch) as u64,
                            gets: e.gets as u32,
                            was_hot: true,
                            pressure_pct: self.pressure_pct(),
                        };
                        if self.cfg.tier_policy.keep_hot(&q) {
                            data.copy_from_slice(page);
                            let handle = *handle;
                            e.probe = probe_code(None);
                            e.gets = 0;
                            e.last_touch = now;
                            shard.lru_hot.touch(handle);
                            drop(shard);
                            tout.tier = strier::HOT;
                            tout.codec = CodecId::Raw.as_u8();
                            self.tel.count(shard_idx, tstat::PUTS_HOT, 1);
                            self.tel.record_since(top::PUT, t0, ctx.trace_id);
                            return Ok(());
                        }
                    }
                }
            }
        }

        // Probe compressibility once, here, for both the tier decision
        // and codec selection — the entry records the verdict so a later
        // demotion of this page never probes again. The probe is a pure
        // function of the bytes and the threshold, so running it after
        // the keep-hot check changes no routing decision.
        let hint = (self.cfg.codec_policy == CodecPolicy::Adaptive)
            .then(|| probe_bdi(page, self.cfg.threshold.max_compressed_len(page.len())));

        // Compress outside any lock, into this thread's reusable buffer.
        // The policy picks the codec (probe → BDI or LZRW1), the
        // threshold then admits or rewrites the buffer as a stored block;
        // either way the selection names exactly the codec that sealed
        // what sits in `comp`.
        let (sel, comp_ns) = SCRATCH.with(|c| {
            let s = &mut *c.borrow_mut();
            let ct0 = Self::step_start(timed, ctx);
            let sel = s.codecs.compress_with_hint(
                self.cfg.codec_policy,
                self.cfg.threshold,
                page,
                &mut s.comp,
                hint,
            );
            (sel, ct0.map(|t| t.elapsed().as_nanos() as u64))
        });
        let len = sel.len;
        tout.codec = sel.codec.as_u8();
        if let (Some(ns), true) = (comp_ns, ctx.sampled()) {
            if let Some(tr) = self.cfg.tracer.as_deref() {
                tr.record(
                    self.shard_index(key),
                    &Span {
                        trace_id: ctx.trace_id,
                        span_id: tr.alloc_span(),
                        parent: ctx.parent_span,
                        op: sop::COMPRESS,
                        tier: strier::NONE,
                        codec: sel.codec.as_u8(),
                        status: sel.fell_back as u8,
                        start_ns: tr.elapsed_ns().saturating_sub(ns),
                        queue_ns: 0,
                        service_ns: ns,
                        arg: key,
                    },
                );
            }
        }

        let shard_idx = self.shard_index(key);
        let mut shard = self.shard(key);
        // Capture the outgoing entry's recency metadata before replacing
        // it — the placement query describes the key's history, not just
        // this put.
        let (prev_age, prev_gets, was_hot) = match shard.entries.get(&key) {
            Some(e) => (
                now.wrapping_sub(e.last_touch) as u64,
                e.gets as u32,
                matches!(e.residence, Residence::Hot { .. }),
            ),
            None => (u64::MAX, 0, false),
        };
        self.remove_locked(&mut shard, key);
        if sel.fell_back {
            self.tel.count(shard_idx, tstat::CODEC_FALLBACKS, 1);
        }
        match sel.codec {
            CodecId::Lzrw1 => {
                self.tel.count(shard_idx, tstat::COMPRESSED, 1);
                self.tel.count(shard_idx, tstat::PUTS_LZRW1, 1);
                self.tel
                    .count(shard_idx, tstat::LZRW1_IN_BYTES, page.len() as u64);
                self.tel
                    .count(shard_idx, tstat::LZRW1_OUT_BYTES, len as u64);
                if let Some(ns) = comp_ns.filter(|_| timed) {
                    self.tel.record(top::COMPRESS_LZRW1, ns);
                }
            }
            CodecId::Bdi => {
                self.tel.count(shard_idx, tstat::COMPRESSED, 1);
                self.tel.count(shard_idx, tstat::PUTS_BDI, 1);
                self.tel
                    .count(shard_idx, tstat::BDI_IN_BYTES, page.len() as u64);
                self.tel.count(shard_idx, tstat::BDI_OUT_BYTES, len as u64);
                if let Some(ns) = comp_ns.filter(|_| timed) {
                    self.tel.record(top::COMPRESS_BDI, ns);
                }
            }
            _ => {
                debug_assert_eq!(sel.codec, CodecId::Raw, "unexpected put codec");
                self.tel.count(shard_idx, tstat::STORED_RAW, 1);
                if self.tel.timing_enabled() {
                    self.tel.event(tevent::THRESHOLD_REJECT, key, len as u64);
                }
            }
        }

        // Ask the tier policy where the sealed page should live. Hot
        // placement stores the raw page bytes, so it reserves the full
        // page size; the sealed bytes in `comp` are kept around either
        // way (they are what spills if reservation fails outright).
        let place_hot = matches!(
            self.cfg.tier_policy.admit(&PlacementQuery {
                key,
                page_len: page.len(),
                sealed_len: len,
                admitted: sel.admitted,
                age: prev_age,
                gets: prev_gets,
                was_hot,
                pressure_pct: self.pressure_pct(),
            }),
            TierDecision::Hot
        );
        let need = if place_hot { page.len() } else { len };

        // Reserve budget for the new entry before publishing it. The CAS
        // keeps `resident` at or below the budget at every instant.
        let mut reserved = true;
        'reserve: loop {
            let mut cur = self.resident.load(Ordering::Relaxed);
            while cur + need <= self.cfg.memory_budget {
                match self.resident.compare_exchange_weak(
                    cur,
                    cur + need,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break 'reserve,
                    Err(actual) => cur = actual,
                }
            }
            // `Some(bytes)`: the writer must publish before `bytes` more
            // payload may be handed to it; `None`: another putter is in
            // the way.
            let wait = match self.make_room(shard_idx, &mut shard)? {
                Progress::Evicted => continue,
                Progress::NoVictim => {
                    // Nothing left to evict (everything is already
                    // spilling, or the page alone exceeds the budget):
                    // bypass residence and spill this entry directly.
                    if shard.tx.is_none() {
                        // The writer is gone (the store was shut down):
                        // fail the put instead of panicking. The old
                        // entry was already removed above — acceptable
                        // for a store that is being torn down.
                        drop(shard);
                        return Err(StoreError::ShuttingDown);
                    }
                    if self.degraded.load(Ordering::Relaxed) {
                        // Spill is disabled and nothing was evictable:
                        // the memory-only store is genuinely full.
                        drop(shard);
                        return Err(StoreError::OutOfMemory);
                    }
                    if self.reserve_inflight(len) {
                        reserved = false;
                        break;
                    }
                    Some(len)
                }
                Progress::WriterFull(bytes) => Some(bytes),
                // Victims may exist on shards other putters hold.
                Progress::Blocked => None,
            };
            // Release our shard so the system can make progress — the
            // writer publishes under it — then retry from scratch.
            drop(shard);
            match wait {
                Some(bytes) => self.wait_for_writer(bytes, shard_idx),
                None => std::thread::yield_now(),
            }
            shard = self.shard(key);
            // The key was unlocked meanwhile: a concurrent put of it may
            // have landed, and this one supersedes it.
            self.remove_locked(&mut shard, key);
        }
        tout.tier = match (reserved, place_hot) {
            (true, true) => strier::HOT,
            (true, false) => strier::MEMORY,
            (false, _) => strier::SPILL,
        };
        let hot = reserved && place_hot;
        let mut entry = Entry {
            // Placeholder: each arm below sets where the page lives.
            residence: Residence::SameFilled { pattern: 0 },
            orig_len: page.len() as u32,
            // A hot entry holds raw page bytes, not the sealed form
            // the selection describes.
            codec: if hot {
                CodecId::Raw.as_u8()
            } else {
                sel.codec.as_u8()
            },
            probe: if sel.admitted {
                probe_code(hint)
            } else {
                PROBE_REJECTED
            },
            gets: 0,
            last_touch: now,
            journaled: false,
        };
        let placed = SCRATCH.with(|c| {
            let compressed = &c.borrow().comp[..len];
            if hot {
                // Hot tier: keep the raw page; the sealed bytes are
                // discarded (the demoter re-seals from the recorded
                // probe hint if this page ever ages out).
                let data = shard.acquire_buf(page);
                let handle = shard.lru_hot.push_mru(key);
                self.hot_resident.fetch_add(page.len(), Ordering::Relaxed);
                self.tel.count(shard_idx, tstat::PUTS_HOT, 1);
                entry.residence = Residence::Hot { data, handle };
            } else if reserved {
                self.warm_resident.fetch_add(len, Ordering::Relaxed);
                let data = shard.acquire_buf(compressed);
                let handle = shard.lru.push_mru(key);
                entry.residence = Residence::Memory { data, handle };
            } else {
                // Straight-to-spill path (see above): never resident,
                // its `len` bytes already counted in flight.
                let tx = shard.tx.as_ref().expect("checked above");
                return self.hand_off(tx, key, &mut entry, compressed.to_vec(), ctx);
            }
            true
        });
        if !placed {
            // The writer panicked: fail this put (nothing to shed).
            return Err(StoreError::ShuttingDown);
        }
        shard.entries.insert(key, entry);
        drop(shard);
        self.tel.record_since(top::PUT, t0, ctx.trace_id);
        Ok(())
    }

    /// Fetch `key`'s page, recording a `store_get` span (and a
    /// `spill_read` child for disk hits) when `ctx` is sampled.
    pub(super) fn get(
        &self,
        key: u64,
        out: &mut [u8],
        ctx: TraceCtx,
    ) -> Result<Option<HitTier>, StoreError> {
        match self.op_trace(ctx) {
            None => self.get_inner(key, out, TraceCtx::NONE, &mut TraceOut::default()),
            Some(ot) => {
                let mut tout = TraceOut::default();
                let res = self.get_inner(key, out, ctx.child(ot.span), &mut tout);
                self.finish_op(ot, ctx, sop::STORE_GET, &tout, res.is_err() as u8, key);
                res
            }
        }
    }

    fn get_inner(
        &self,
        key: u64,
        out: &mut [u8],
        ctx: TraceCtx,
        tout: &mut TraceOut,
    ) -> Result<Option<HitTier>, StoreError> {
        // One timing decision per op, as in `put_inner`.
        let stamp = self.touch_clock.fetch_add(1, Ordering::Relaxed);
        let t0 = self.tel.op_timer(stamp, ctx.sampled());
        let timed = t0.is_some();
        let now = stamp as u32;
        let shard_idx = self.shard_index(key);
        // Transient spill-read failures (I/O errors, corrupt extents)
        // consumed so far by this get; bounded by the retry policy.
        let mut io_attempts: u32 = 0;
        // The loop retries a disk hit whose extent was replaced or
        // relocated by GC while the read was in flight (unbounded: each
        // pass observes real progress by another thread) and transient
        // I/O failures (bounded by `spill_retry_attempts`); every other
        // arm returns on the first pass.
        loop {
            let mut shard = self.shards[shard_idx].0.lock().expect("shard poisoned");
            let Some(entry) = shard.entries.get_mut(&key) else {
                drop(shard);
                self.tel.count(shard_idx, tstat::MISSES, 1);
                return Ok(None);
            };
            let orig_len = entry.orig_len as usize;
            let codec = entry.codec;
            if out.len() != orig_len {
                return Err(StoreError::BadPageSize {
                    expected: orig_len,
                    got: out.len(),
                });
            }
            // Stamp the access for the tier policies: the age the
            // promotion decision sees is the gap this get closed, and
            // the unique clock stamp doubles as the promotion
            // revalidation token.
            let age = now.wrapping_sub(entry.last_touch) as u64;
            entry.last_touch = now;
            entry.gets = entry.gets.saturating_add(1);
            let gets = entry.gets as u32;
            tout.codec = codec;
            match &entry.residence {
                Residence::Hot { data, handle } => {
                    tout.tier = strier::HOT;
                    out.copy_from_slice(data);
                    let handle = *handle;
                    shard.lru_hot.touch(handle);
                    drop(shard);
                    self.tel.count(shard_idx, tstat::HITS_HOT, 1);
                    self.tel.record_since(top::GET_HOT, t0, ctx.trace_id);
                    return Ok(Some(HitTier::Hot));
                }
                Residence::SameFilled { pattern } => {
                    tout.tier = strier::SAME_FILLED;
                    let pattern = *pattern;
                    drop(shard);
                    expand_same_filled(out, pattern);
                    self.tel.count(shard_idx, tstat::HITS_MEMORY, 1);
                    self.tel
                        .record_since(top::GET_SAME_FILLED, t0, ctx.trace_id);
                    return Ok(Some(HitTier::SameFilled));
                }
                Residence::Memory { data, handle } => {
                    tout.tier = strier::MEMORY;
                    // Copy the (small) compressed bytes out under the lock
                    // so decompression runs without it.
                    let handle = *handle;
                    let sealed_len = data.len();
                    SCRATCH.with(|c| {
                        stage_slot(&mut c.borrow_mut().stage, sealed_len).copy_from_slice(data)
                    });
                    shard.lru.touch(handle);
                    drop(shard);
                    SCRATCH.with(|c| {
                        self.decompress_into(codec, &c.borrow().stage[..sealed_len], out, timed)
                    });
                    self.tel.count(shard_idx, tstat::HITS_MEMORY, 1);
                    self.tel.record_since(top::GET_MEMORY, t0, ctx.trace_id);
                    let q = PlacementQuery {
                        key,
                        page_len: orig_len,
                        sealed_len,
                        admitted: codec != CodecId::Raw.as_u8(),
                        age,
                        gets,
                        was_hot: false,
                        pressure_pct: self.pressure_pct(),
                    };
                    if self.cfg.tier_policy.promote(&q) {
                        self.try_promote(key, shard_idx, now, strier::MEMORY, out, ctx, timed);
                    }
                    return Ok(Some(HitTier::Memory));
                }
                Residence::Spilling { data, .. } => {
                    tout.tier = strier::MEMORY;
                    let data = Arc::clone(data);
                    drop(shard);
                    self.decompress_into(codec, &data, out, timed);
                    self.tel.count(shard_idx, tstat::HITS_MEMORY, 1);
                    self.tel.record_since(top::GET_MEMORY, t0, ctx.trace_id);
                    return Ok(Some(HitTier::Memory));
                }
                Residence::Spilled { offset, len, gen } => {
                    tout.tier = strier::SPILL;
                    let (offset, len, gen) = (*offset, *len, *gen);
                    drop(shard);
                    let at = (offset, len, gen);
                    let failed = match self.read_cold(key, at, codec, out, ctx, timed) {
                        ColdRead::Served => None,
                        // The entry no longer names this extent (replaced,
                        // or relocated by GC mid-read): look again.
                        ColdRead::Moved => continue,
                        ColdRead::Failed(e) => Some(e),
                    };
                    // Transient I/O failure or corrupt extent: bounded
                    // retry with backoff.
                    if let Some(e) = failed {
                        io_attempts += 1;
                        if io_attempts >= self.cfg.spill_retry_attempts.max(1) {
                            if matches!(e, StoreError::Corrupt) {
                                // Persistent corruption: drop the entry (if
                                // it still names this extent) so later gets
                                // miss and can refill, instead of serving
                                // the same garbage forever.
                                let mut shard =
                                    self.shards[shard_idx].0.lock().expect("shard poisoned");
                                if names_extent(&shard, key, at) {
                                    self.remove_locked(&mut shard, key);
                                }
                            }
                            return Err(e);
                        }
                        self.tel.count(shard_idx, tstat::IO_RETRIES, 1);
                        std::thread::sleep(backoff(self.cfg.spill_retry_base, io_attempts));
                        continue;
                    }
                    self.tel.record_since(top::GET_SPILL, t0, ctx.trace_id);
                    let q = PlacementQuery {
                        key,
                        page_len: orig_len,
                        sealed_len: len as usize,
                        admitted: codec != CodecId::Raw.as_u8(),
                        age,
                        gets,
                        was_hot: false,
                        pressure_pct: self.pressure_pct(),
                    };
                    if self.cfg.tier_policy.promote(&q) {
                        self.try_promote(key, shard_idx, now, strier::SPILL, out, ctx, timed);
                    }
                    return Ok(Some(HitTier::Spill));
                }
            }
        }
    }

    /// One attempt at serving `key` from the extent `at` = `(offset, len,
    /// generation)` its entry named a moment ago, in one borrow of this
    /// thread's staging buffer: read, revalidate, verify, decode into
    /// `out`. The caller holds no lock and owns the retry policy.
    fn read_cold(
        &self,
        key: u64,
        at: (u64, u32, u64),
        codec: u8,
        out: &mut [u8],
        ctx: TraceCtx,
        timed: bool,
    ) -> ColdRead {
        let (offset, len, gen) = at;
        let shard_idx = self.shard_index(key);
        let spill_read_span = |rt0, status| {
            self.child_span(
                ctx,
                rt0,
                sop::SPILL_READ,
                strier::SPILL,
                codec,
                status,
                offset,
                shard_idx,
            )
        };
        SCRATCH.with(|c| {
            let mut scratch = c.borrow_mut();
            let ext = stage_slot(&mut scratch.stage, len as usize);
            let rt0 = Self::step_start(timed, ctx);
            let io = self
                .medium
                .as_ref()
                .expect("spilled entry without spill medium")
                .read_at(ext, offset);
            self.step_end(top::SPILL_READ, timed, rt0);
            // Validate after the read: if the entry still names this
            // exact extent, GC cannot have clobbered it (it republishes
            // an extent, under this shard's lock, before any byte of its
            // old home is overwritten).
            if !names_extent(
                &self.shards[shard_idx].0.lock().expect("shard poisoned"),
                key,
                at,
            ) {
                return ColdRead::Moved;
            }
            if let Err(e) = io {
                spill_read_span(rt0, 1);
                return ColdRead::Failed(e.into());
            }
            // Verify AFTER revalidation: a torn read caused by a
            // legitimate GC relocation returned `Moved` above and never
            // reaches here, so a failure now is real corruption — count
            // it, never decompress it.
            let vt0 = Self::step_start(timed, ctx);
            let payload = verify_extent(ext, gen, codec);
            self.step_end(top::SPILL_VERIFY, timed, vt0);
            let Some(payload) = payload else {
                self.tel.count(shard_idx, tstat::CORRUPT_DETECTED, 1);
                if self.tel.timing_enabled() {
                    self.tel.event(tevent::CORRUPT, key, offset);
                }
                spill_read_span(rt0, 2);
                if let Some(tr) = self.cfg.tracer.as_deref() {
                    tr.anomaly(AnomalyKind::Corrupt, ctx.trace_id, key, offset);
                }
                return ColdRead::Failed(StoreError::Corrupt);
            };
            spill_read_span(rt0, 0);
            self.tel.count(shard_idx, tstat::HITS_SPILL, 1);
            self.decompress_into(codec, payload, out, timed);
            ColdRead::Served
        })
    }

    /// Decode `data`, sealed by the entry's recorded codec id, straight
    /// into `out`; a `timed` get records the decode on the per-codec
    /// histogram.
    fn decompress_into(&self, codec: u8, data: &[u8], out: &mut [u8], timed: bool) {
        let id = CodecId::from_u8(codec).expect("unknown codec id in entry");
        let t0 = timed.then(Instant::now);
        decode_into(id, data, out).expect("corrupt page in store");
        // Raw blocks are a memcpy, not a codec — they are excluded so the
        // per-codec histograms measure real decode work.
        let op = match id {
            CodecId::Bdi => top::DECOMPRESS_BDI,
            CodecId::Lzrw1 => top::DECOMPRESS_LZRW1,
            _ => return,
        };
        self.tel.record_since(op, t0, 0);
    }

    /// Persistence hook for every path that removes (or supersedes) an
    /// entry: if the key has a location record in the journal, queue a
    /// tombstone with a fresh LSN so recovery cannot resurrect it. The
    /// LSN is allocated while the caller still holds the key's shard
    /// lock, which is what makes the per-key LSN order exact even when
    /// the tombstone reaches the journal before the PUT it supersedes.
    pub(super) fn tombstone_if_journaled(&self, journaled: bool, key: u64) {
        if !journaled {
            return;
        }
        if let Some(p) = &self.persist {
            let lsn = self.next_gen.fetch_add(1, Ordering::Relaxed);
            p.enqueue_tombstone(key, lsn);
        }
    }

    pub(super) fn remove_locked(&self, shard: &mut Shard, key: u64) -> bool {
        match shard.entries.remove(&key) {
            Some(e) => {
                self.tombstone_if_journaled(e.journaled, key);
                match e.residence {
                    Residence::Hot { data, handle } => {
                        self.resident.fetch_sub(data.len(), Ordering::Relaxed);
                        self.hot_resident.fetch_sub(data.len(), Ordering::Relaxed);
                        shard.lru_hot.remove(handle);
                        shard.release_buf(data);
                    }
                    Residence::Memory { data, handle } => {
                        self.resident.fetch_sub(data.len(), Ordering::Relaxed);
                        self.warm_resident.fetch_sub(data.len(), Ordering::Relaxed);
                        shard.lru.remove(handle);
                        shard.release_buf(data);
                    }
                    Residence::Spilled { len, .. } => {
                        // The extent's bytes stay behind on the file as
                        // dead space; the gauge feeds the GC trigger.
                        self.spill_dead_bytes
                            .fetch_add(len as u64, Ordering::Relaxed);
                    }
                    // The job is still in flight and still holds the
                    // payload: it stays counted until the writer reaches
                    // it, finds no entry waiting on its generation, and
                    // counts the extent it wrote as dead bytes.
                    Residence::Spilling { data, .. } => {
                        self.spill_orphaned.fetch_add(data.len(), Ordering::Relaxed);
                    }
                    // Same-filled entries occupy nothing anywhere.
                    Residence::SameFilled { .. } => {}
                }
                true
            }
            None => false,
        }
    }

    /// Evict one cold entry to free budget: spill it if a spill file is
    /// configured, otherwise fail. Prefers the local (already locked)
    /// shard; falls back to try-locking the others so two concurrent
    /// putters can never deadlock.
    fn make_room(&self, local_idx: usize, local: &mut Shard) -> Result<Progress, StoreError> {
        match self.evict_one(local) {
            Progress::NoVictim => {}
            progress => return Ok(progress),
        }
        let mut blocked = false;
        for (i, other) in self.shards.iter().enumerate() {
            if i == local_idx {
                continue;
            }
            match other.0.try_lock() {
                Ok(mut guard) => match self.evict_one(&mut guard) {
                    Progress::NoVictim => {}
                    progress => return Ok(progress),
                },
                Err(_) => blocked = true,
            }
        }
        if self.has_spill() {
            // No victim reachable right now; the caller spills directly.
            Ok(Progress::NoVictim)
        } else if blocked {
            // Couldn't inspect every shard; the caller must release its
            // lock and retry rather than conclude out-of-memory.
            Ok(Progress::Blocked)
        } else {
            Err(StoreError::OutOfMemory)
        }
    }

    /// Free budget from `shard`: spill its coldest warm entry (already
    /// sealed — the cheapest victim), else compress-and-demote its
    /// coldest hot entry. When degraded, shed instead. `NoVictim` if
    /// nothing on this shard can make progress; `WriterFull` (shard
    /// untouched) if the victim's payload does not fit in flight — the
    /// caller holds this shard's lock, so it is the caller's to release
    /// before anyone waits.
    pub(super) fn evict_one(&self, shard: &mut Shard) -> Progress {
        let freed = |freed: bool| {
            if freed {
                Progress::Evicted
            } else {
                Progress::NoVictim
            }
        };
        let warm_victim = shard.lru.peek_lru().map(|(_, &k)| k);
        if shard.tx.is_none() {
            // No writer (memory-only store, or shut down): warm pages
            // have nowhere to go, but a hot page whose compressed form
            // is smaller can still be squeezed down to warm in place.
            if self.degraded.load(Ordering::Relaxed) {
                return Progress::NoVictim;
            }
            if let Some((_, &victim)) = shard.lru_hot.peek_lru() {
                return freed(matches!(
                    self.demote_hot_locked(shard, victim),
                    DemoteOutcome::Warm
                ));
            }
            return Progress::NoVictim;
        }
        if self.degraded.load(Ordering::Relaxed) {
            // Degraded: the medium can't be trusted with this page, but
            // the budget still must be honored. Shedding drops the
            // coldest entry entirely — cache-miss semantics.
            return freed(self.shed_one(shard));
        }
        let Some(victim) = warm_victim else {
            // Only hot entries left: compress the coldest and demote it
            // (to warm when compression frees memory, straight to the
            // spill channel otherwise — guaranteed progress either way).
            if let Some((_, &victim)) = shard.lru_hot.peek_lru() {
                return match self.demote_hot_locked(shard, victim) {
                    DemoteOutcome::Warm | DemoteOutcome::Spilled => Progress::Evicted,
                    DemoteOutcome::Kept => Progress::NoVictim,
                    DemoteOutcome::WriterFull(bytes) => Progress::WriterFull(bytes),
                };
            }
            return Progress::NoVictim;
        };
        let entry = shard.entries.get_mut(&victim).expect("lru/map sync");
        let Residence::Memory { data, handle } = &mut entry.residence else {
            unreachable!("LRU entry not in memory")
        };
        let len = data.len();
        if !self.reserve_inflight(len) {
            return Progress::WriterFull(len);
        }
        let (data, handle) = (std::mem::take(data), *handle);
        shard.lru.remove(handle);
        self.resident.fetch_sub(len, Ordering::Relaxed);
        self.warm_resident.fetch_sub(len, Ordering::Relaxed);
        if self.spill_victim(shard, victim, data) && self.tel.timing_enabled() {
            self.tel.event(tevent::EVICT, victim, len as u64);
        }
        Progress::Evicted
    }

    /// Drop `shard`'s coldest memory entry entirely (degraded-mode
    /// eviction and post-fallback budget repair) — the coldest warm
    /// entry first (already compressed, cheapest to refill), then the
    /// coldest hot one. Returns false if the shard has no in-memory
    /// entries.
    fn shed_one(&self, shard: &mut Shard) -> bool {
        let victim = match shard.lru.peek_lru() {
            Some((_, &k)) => k,
            None => match shard.lru_hot.peek_lru() {
                Some((_, &k)) => k,
                None => return false,
            },
        };
        let entry = shard.entries.remove(&victim).expect("lru/map sync");
        self.tombstone_if_journaled(entry.journaled, victim);
        let data = match entry.residence {
            Residence::Memory { data, handle } => {
                self.warm_resident.fetch_sub(data.len(), Ordering::Relaxed);
                shard.lru.remove(handle);
                data
            }
            Residence::Hot { data, handle } => {
                self.hot_resident.fetch_sub(data.len(), Ordering::Relaxed);
                shard.lru_hot.remove(handle);
                data
            }
            _ => unreachable!("LRU entry not in memory"),
        };
        self.resident.fetch_sub(data.len(), Ordering::Relaxed);
        let idx = self.shard_index(victim);
        self.tel.count(idx, tstat::SHED_PAGES, 1);
        if self.tel.timing_enabled() {
            self.tel.event(tevent::SHED, victim, data.len() as u64);
        }
        shard.release_buf(data);
        true
    }

    /// Resident bytes as a percentage of the budget, saturated to 100 —
    /// the pressure signal the tier policies and the demoter gates read.
    pub(super) fn pressure_pct(&self) -> u8 {
        let budget = self.cfg.memory_budget.max(1);
        ((self.resident.load(Ordering::Relaxed).min(budget) * 100) / budget) as u8
    }

    /// Shed coldest entries across shards until `resident` is back at or
    /// under the budget — the repair step after the spill-failure
    /// fallback path pushed it over. Takes one shard lock at a time.
    pub(super) fn shed_to_budget(&self) {
        loop {
            if self.resident.load(Ordering::Relaxed) <= self.cfg.memory_budget {
                return;
            }
            let mut progress = false;
            for s in &self.shards {
                if self.resident.load(Ordering::Relaxed) <= self.cfg.memory_budget {
                    return;
                }
                let mut guard = s.0.lock().expect("shard poisoned");
                if self.shed_one(&mut guard) {
                    progress = true;
                }
            }
            if !progress {
                // Nothing left to shed: every byte `resident` counts is
                // on an LRU list, so it is back under the budget.
                return;
            }
        }
    }

    /// Put `key`'s `Spilling` payload back into memory residence on the
    /// warm LRU — the medium let it down (failed batch, degraded mode,
    /// dead writer). The one path that may push `resident` past the
    /// budget: the alternative is losing the page. Returns whether it
    /// did; the caller sheds once it has let go of the shard, with
    /// `shedding` raised from before this call until after the shed.
    pub(super) fn revert_to_memory(&self, shard: &mut Shard, key: u64) -> bool {
        let e = shard.entries.get_mut(&key).expect("caller looked it up");
        let old = std::mem::replace(&mut e.residence, Residence::SameFilled { pattern: 0 });
        let Residence::Spilling { data, .. } = old else {
            unreachable!("caller checked the residence")
        };
        let bytes = data.len();
        // A reader may still be decoding from its clone of the payload.
        let data = Arc::try_unwrap(data).unwrap_or_else(|a| (*a).clone());
        let handle = shard.lru.push_mru(key);
        e.residence = Residence::Memory { data, handle };
        self.tel
            .count(self.shard_index(key), tstat::SPILL_FALLBACK_RESIDENT, 1);
        self.warm_resident.fetch_add(bytes, Ordering::Relaxed);
        self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes > self.cfg.memory_budget
    }

    pub(super) fn flush(&self) -> Result<(), StoreError> {
        if self.has_spill() {
            self.wait_on_writer(|inflight| inflight == 0, || {});
            if self.spill_inflight.load(Ordering::Relaxed) != 0 {
                // The writer is gone with jobs still in flight: nobody
                // will publish them. Revert them to memory residence
                // (the data is still held by the `Spilling` Arc),
                // restore the budget by shedding, and report the truth
                // instead of waiting forever.
                self.reclaim_orphaned_spilling();
                return Err(StoreError::ShuttingDown);
            }
        }
        // Durability barrier for the journal too: any tombstones queued
        // by removes ride out with the flush, so a crash after a
        // successful flush can never resurrect a key the caller saw
        // removed before the barrier.
        if let Some(p) = &self.persist {
            let n = p.commit_pending().map_err(StoreError::Io)?;
            if n > 0 {
                self.tel.count(0, tstat::JOURNAL_RECORDS_WRITTEN, n);
            }
        }
        Ok(())
    }
}

/// How far one attempt to free budget got ([`StoreCore::make_room`],
/// [`StoreCore::evict_one`]).
pub(super) enum Progress {
    Evicted,
    NoVictim,
    /// Shards held by other putters could not be inspected.
    Blocked,
    /// A victim of this many payload bytes exists, but the spill writer
    /// already holds [`StoreConfig::memory_budget`] bytes in flight.
    WriterFull(usize),
}
