//! [`StoreCore`], the state the public handle and the background thread
//! share, and the whole foreground data path on it: put, get, the cold
//! read, remove, eviction and shedding, and `flush`. A hit or a resident
//! put calls nothing outside this module; promotion (`tiering`) and the
//! spill hand-off and its waits (`writer`) are the only calls out.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use super::extent::verify_extent;
use super::gc::Segments;
use super::shard::{stage_slot, Entry, Residence, Set, Shard, SCRATCH};
use super::stats::{top, tstat};
use super::tiering::DemoteOutcome;
use super::writer::Inbox;
#[cfg(doc)]
use super::{CompressedStore, StoreStats};
use super::{HitTier, StoreConfig, StoreError};
use crate::medium::SpillMedium;
use crate::persist::Persist;
use cc_compress::{
    classify, decode_into, expand_same_filled, same_filled_pattern, CodecId, CodecPolicy, Route,
    Selection, ThresholdPolicy,
};
use cc_telemetry::trace::{sop, tier as strier, AnomalyKind, TraceCtx};
use cc_telemetry::{OpTimer, Telemetry};
use cc_util::{backoff, mix64, Padded};

/// Everything the public handle and the background thread share: the
/// shards, the budget gauge, the inbox, and the spill-file bookkeeping.
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
    /// stamp `last_touch` with the value — the tier policy's
    /// generation-counter aging. Each op's value is unique, and it makes
    /// the op's one timing decision.
    pub(super) touch_clock: AtomicU64,
    /// What the foreground hands the background thread — spill jobs,
    /// flush barriers, deferred seals, shutdown — and whether it sleeps.
    pub(super) inbox: Mutex<Inbox>,
    /// Wakes the parked background thread ([`StoreCore::park`]), never
    /// per put, and on its progress whoever [`StoreCore::wait_on_writer`].
    pub(super) wake: Condvar,
    /// Whether a sealed job waits to be published: the one load a put
    /// pays for the deferred seals when none is ready.
    pub(super) seals_ready: AtomicBool,
    /// Outstanding seal jobs whose `Sealing` entry was removed, replaced
    /// or promoted: they drop at publish. Kept, under the shard locks,
    /// so the checker can state the jobs as an identity.
    pub(super) seal_orphaned: AtomicUsize,
    /// Fixed at first put; 0 = not yet fixed.
    pub(super) page_size: AtomicUsize,
    /// Generation stamp for spill jobs.
    pub(super) next_gen: AtomicU64,
    /// The spill medium, shared by the background thread and all readers
    /// (positioned I/O — no seek cursor to contend on).
    pub(super) medium: Option<Arc<dyn SpillMedium>>,
    /// Set when spill is disabled after consecutive hard medium
    /// failures (or a background thread's death). Eviction sheds instead of
    /// spilling until the probation probe clears it.
    pub(super) degraded: AtomicBool,
    /// Set, under the inbox lock, when the background thread has exited
    /// or is about to — normally (shutdown / drop) or by panic. From then
    /// on no barrier is taken, and `Spilling` entries the writer has not
    /// published never will be.
    pub(super) writer_dead: AtomicBool,
    /// Payload bytes handed to the writer and not yet published or
    /// failed by it: up (by CAS, bounded by the in-flight limit — see
    /// [`StoreCore::reserve_inflight`]) at every hand-off, down exactly
    /// once per job, both under the job key's shard lock. Relaxed: the
    /// entries it describes are published by the shard locks, and
    /// waiters re-read it under the inbox lock.
    pub(super) spill_inflight: AtomicUsize,
    /// The part of `spill_inflight` whose entry was removed or replaced
    /// while the job was queued: the job still holds its payload until
    /// the writer reaches it, so the gauge (and the bound) keep counting
    /// it. Kept so [`CompressedStore::check_invariants`] can state the
    /// gauge as an identity instead of an inequality.
    pub(super) spill_orphaned: AtomicUsize,
    /// Non-zero while a thread is between pushing `resident` over the
    /// budget (a failed write's memory fallback) and shedding it back —
    /// the one window in which `resident > memory_budget` is legal.
    pub(super) shedding: AtomicUsize,
    /// Counters and latency histograms. Counters are striped by shard
    /// index and are the statistics of record behind [`StoreStats`];
    /// sampling obeys [`StoreConfig::telemetry`].
    pub(super) tel: Telemetry,
    /// Bytes in the spill file's non-free segments (`bytes_on_spill`),
    /// mirrored from `segments` under its lock.
    pub(super) spill_file_bytes: AtomicU64,
    /// The part of `spill_file_bytes` no entry names: removed, replaced
    /// or promoted extents, stale publishes and sealed segments' unused
    /// tails. Mirrored from `segments`, so at quiescence
    /// `spill_file_bytes − spill_dead_bytes` is exactly Σ live extents.
    pub(super) spill_dead_bytes: AtomicU64,
    /// The spill file's segments: fill, dead bytes and key list each.
    /// A leaf lock below the shard locks (see `gc`).
    pub(super) segments: Mutex<Segments>,
    /// The spill file's persistence state: the tombstones waiting for a
    /// batch and the superblock's sequence and lease. Superblock and
    /// summaries live in the spill medium itself; a store without one
    /// journals no key, so it never queues a tombstone.
    pub(super) persist: Persist,
}

/// How one attempt at a cold get ended ([`StoreCore::read_cold`]).
enum ColdRead<'a> {
    /// The page is in the caller's buffer, decoded in this hold of its
    /// shard, where the entry at this arena index still names the extent.
    Served(MutexGuard<'a, Shard>, u32),
    /// The entry stopped naming the extent while it was being read.
    Moved,
    /// The medium failed the read ([`StoreError::Io`]), or the extent
    /// came back and failed verification ([`StoreError::Corrupt`]), in
    /// this hold of its shard, where the entry still names the extent.
    Failed(MutexGuard<'a, Shard>, StoreError),
}

/// The histogram of a put's seal by `codec`: none for a stored block,
/// which is a memcpy, not a codec.
fn seal_hist(codec: CodecId) -> Option<usize> {
    match codec {
        CodecId::Lzrw1 => Some(top::COMPRESS_LZRW1),
        CodecId::Bdi => Some(top::COMPRESS_BDI),
        _ => None,
    }
}

/// The arena index of `key`'s entry, if it is spilled at exactly `at` =
/// `(offset, len, generation)`.
fn extent_at(shard: &Shard, key: u64, at: (u64, u32, u64)) -> Option<u32> {
    shard.find(key).filter(|&i| {
        matches!(
            shard[i].residence,
            Residence::Spilled { offset, len, gen } if (offset, len, gen) == at
        )
    })
}

impl StoreCore {
    /// `key`'s shard: bits 32 and up of [`mix64`], clear of the entry
    /// maps' bucket index (the low bits) and of hashbrown's tag (the top
    /// 7) at every shard count the store resolves to (≤ 256).
    #[inline]
    pub(super) fn shard_index(&self, key: u64) -> usize {
        ((mix64(key) >> 32) & self.shard_mask) as usize
    }

    #[inline]
    pub(super) fn shard(&self, key: u64) -> MutexGuard<'_, Shard> {
        self.shards[self.shard_index(key)]
            .0
            .lock()
            .expect("shard poisoned")
    }

    /// The arena index of `shard`'s eviction victim from `set`
    /// ([`Shard::victim`]), if it has idled at least `idle` operations.
    /// The clock is read under the shard's lock: every stamp in the
    /// shard was drawn before the hold that wrote it, so none is ahead
    /// of this read.
    pub(super) fn victim(&self, shard: &mut Shard, set: Set, idle: u64) -> Option<u32> {
        let (at, age) = shard.victim(set, self.touch_clock.load(Ordering::Relaxed) as u32)?;
        (age >= idle).then_some(at)
    }

    pub(super) fn has_spill(&self) -> bool {
        self.medium.is_some()
    }

    /// Whether an evicted page can go to the spill writer: the store has
    /// a spill file and its background thread has not exited.
    pub(super) fn spill_open(&self) -> bool {
        self.has_spill() && !self.writer_dead.load(Ordering::Relaxed)
    }

    /// Flip into degraded mode (idempotent); `failures` is the
    /// consecutive hard-failure count at the transition, for the anomaly.
    pub(super) fn enter_degraded(&self, failures: u64) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            self.tel.count(0, tstat::DEGRADED_ENTERED, 1);
            if let Some(tr) = self.cfg.tracer.as_deref() {
                tr.anomaly(AnomalyKind::Degraded, 0, failures, 0);
            }
        }
    }

    /// Leave degraded mode (idempotent).
    pub(super) fn exit_degraded(&self) {
        if self.degraded.swap(false, Ordering::Relaxed) {
            self.tel.count(0, tstat::DEGRADED_RECOVERED, 1);
        }
    }

    /// Store or replace `key`'s page, recording a `store_put` span (and
    /// children) when `ctx` is sampled, then publish the seals the
    /// demoter has finished.
    pub(super) fn put(&self, key: u64, page: &[u8], ctx: TraceCtx) -> Result<(), StoreError> {
        // The op's unique stamp makes its one timing decision.
        let stamp = self.touch_clock.fetch_add(1, Ordering::Relaxed);
        let op = self.tel.start_op(stamp, self.cfg.tracer.as_deref(), ctx);
        let res = self.put_inner(key, page, stamp as u32, &op);
        let (stripe, hist) = (self.shard_index(key), res.is_ok().then_some(top::PUT));
        op.finish(hist, stripe, sop::STORE_PUT, res.is_err() as u8, key);
        if self.seals_ready.load(Ordering::Relaxed) {
            self.publish_seals(false);
        }
        res
    }

    /// The put itself: `now` is its operation stamp, and `op` carries
    /// its timing down to every step and reports where the page went.
    fn put_inner(&self, key: u64, page: &[u8], now: u32, op: &OpTimer) -> Result<(), StoreError> {
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
        // compressor, the budget, or the allocator — the pattern *is* the
        // stored form.
        if let Some(pattern) = same_filled_pattern(page) {
            op.note(strier::SAME_FILLED, CodecId::SameFilled.as_u8());
            let shard_idx = self.shard_index(key);
            let mut shard = self.shards[shard_idx].0.lock().expect("shard poisoned");
            self.remove_locked(&mut shard, key);
            shard.insert(Entry {
                key,
                residence: Residence::SameFilled { pattern },
                orig_len: page.len() as u32,
                codec: CodecId::SameFilled.as_u8(),
                probe: None,
                gets: 0,
                last_touch: now,
                journaled: false,
            });
            drop(shard);
            self.tel.count(shard_idx, tstat::SAME_FILLED, 1);
            return Ok(());
        }

        // Keep-hot fast path: a re-put of a still-fresh hot page can
        // stay hot, replacing the raw bytes in place and skipping the
        // classifier and the compressor entirely — the entry records
        // "not classified", and the demoter classifies once when it
        // seals the page, if it ever goes cold. Gated on the policy's
        // hot idle window so policies without one pay no extra lock
        // acquisition.
        if self.cfg.tier_policy.may_keep_hot() {
            let shard_idx = self.shard_index(key);
            let mut shard = self.shards[shard_idx].0.lock().expect("shard poisoned");
            if let Some(e) = shard.get_mut(key) {
                if let Residence::Hot { data, .. } = &mut e.residence {
                    if data.len() == page.len()
                        && self
                            .cfg
                            .tier_policy
                            .keep_hot(now.wrapping_sub(e.last_touch) as u64)
                    {
                        data.copy_from_slice(page);
                        e.probe = None;
                        e.gets = 0;
                        e.last_touch = now;
                        drop(shard);
                        op.note(strier::HOT, CodecId::Raw.as_u8());
                        self.tel.count(shard_idx, tstat::PUTS_HOT, 1);
                        return Ok(());
                    }
                }
            }
        }

        // Classify once, here, so the put can count a predicted reject;
        // the entry records the route the put took, so a later demotion
        // of this page never classifies it again. The route is a pure
        // function of the bytes and the threshold, so classifying after
        // the keep-hot check changes no routing decision.
        let admit = ThresholdPolicy::default().max_compressed_len(page.len());
        let route = (self.cfg.codec_policy == CodecPolicy::Adaptive).then(|| classify(page, admit));

        // LZRW1 is the one codec pass worth handing to the background
        // thread, if the store runs its demote step; BDI costs less than
        // the hand-off. `None` until the put seals inline.
        let defer = route.is_none_or(|r| r == Route::Lz) && self.cfg.tier_policy.wants_demoter();
        let mut sel = (!defer).then(|| self.seal_inline(key, page, route, op));
        let shard_idx = self.shard_index(key);
        let mut shard = self.shard(key);
        self.remove_locked(&mut shard, key);
        let mut entry = Entry {
            key,
            // Placeholder: the arms below set where the page lives.
            residence: Residence::SameFilled { pattern: 0 },
            orig_len: page.len() as u32,
            codec: CodecId::Raw.as_u8(),
            probe: Some(Route::Lz),
            gets: 0,
            last_touch: now,
            journaled: false,
        };

        // Reserve budget for the new entry before publishing it: the raw
        // page for a deferred seal or a hot placement, the sealed bytes
        // (which are what spills if reservation fails outright) otherwise.
        let mut reserved = true;
        loop {
            let need = match &sel {
                Some(s) if !self.cfg.tier_policy.admit_hot(s.admitted) => s.len,
                _ => page.len(),
            };
            // `Some(bytes)`: the writer must publish before `bytes` more
            // payload may be handed to it; `None`: another putter is in
            // the way, or the raw page has no room or no job — a deferring
            // put then seals inline, any other yields.
            let wait = if self.reserve_resident(need) {
                if sel.is_some() || self.defer_seal(&mut entry, key, page, op) {
                    break;
                }
                self.resident.fetch_sub(need, Ordering::Relaxed);
                None
            } else {
                match (self.make_room(shard_idx, &mut shard), &sel) {
                    (Ok(Progress::Evicted), _) => continue,
                    // No room for the raw page: the sealed bytes may fit,
                    // and only they can go straight to spill.
                    (Err(_) | Ok(Progress::NoVictim), None) => None,
                    (Err(e), _) => return Err(e),
                    (Ok(Progress::NoVictim), Some(s)) => {
                        // Nothing left to evict (everything is already
                        // spilling, or the page alone exceeds the budget):
                        // bypass residence and spill this entry directly.
                        if !self.spill_open() {
                            // The writer is gone (the store was shut down):
                            // fail the put instead of panicking. The old
                            // entry was already removed above — acceptable
                            // for a store that is being torn down.
                            return Err(StoreError::ShuttingDown);
                        }
                        if self.degraded.load(Ordering::Relaxed) {
                            // Spill is disabled and nothing was evictable:
                            // the memory-only store is genuinely full.
                            return Err(StoreError::OutOfMemory);
                        }
                        if self.reserve_inflight(s.len) {
                            reserved = false;
                            break;
                        }
                        Some(s.len)
                    }
                    (Ok(Progress::WriterFull(bytes)), _) => Some(bytes),
                    // Victims may exist on shards other putters hold.
                    (Ok(Progress::Blocked), _) => None,
                }
            };
            // Release our shard so the system can make progress — the
            // writer publishes under it — then retry from scratch.
            drop(shard);
            match (wait, &sel) {
                (Some(bytes), _) => self.wait_for_writer(bytes, shard_idx),
                (None, None) => sel = Some(self.seal_inline(key, page, route, op)),
                (None, Some(_)) => std::thread::yield_now(),
            }
            shard = self.shard(key);
            // The key was unlocked meanwhile: a concurrent put of it may
            // have landed, and this one supersedes it.
            self.remove_locked(&mut shard, key);
        }
        // No reader sees the placeholder residence: the arms below set
        // where the page lives before this lock hold ends.
        let at = shard.insert(entry);
        match sel {
            // Deferred: the raw page waits `Sealing` for the seal's publish.
            None => {
                op.note(strier::MEMORY, CodecId::Raw.as_u8());
            }
            // One allocation of exactly the stored length, whichever tier.
            Some(sel) => SCRATCH.with(|c| {
                let compressed = &c.borrow().comp[..sel.len];
                shard[at].probe = Some(sel.route());
                if reserved && self.cfg.tier_policy.admit_hot(sel.admitted) {
                    // Hot tier: keep the raw page (a hot entry holds raw
                    // bytes, not the sealed form); the sealed bytes are
                    // discarded (the demoter re-seals along the recorded
                    // route if this page ever ages out).
                    op.note(strier::HOT, sel.codec.as_u8());
                    self.hot_resident.fetch_add(page.len(), Ordering::Relaxed);
                    self.tel.count(shard_idx, tstat::PUTS_HOT, 1);
                    let slot = shard.enlist(Set::Hot, at);
                    shard[at].residence = Residence::Hot {
                        data: page.into(),
                        slot,
                    };
                } else if reserved {
                    op.note(strier::MEMORY, sel.codec.as_u8());
                    self.warm_resident.fetch_add(sel.len, Ordering::Relaxed);
                    let slot = shard.enlist(Set::Warm, at);
                    let entry = &mut shard[at];
                    entry.codec = sel.codec.as_u8();
                    entry.residence = Residence::Memory {
                        data: compressed.into(),
                        slot,
                    };
                } else {
                    // Straight-to-spill path (see above): never resident,
                    // its `len` bytes already counted in flight.
                    op.note(strier::SPILL, sel.codec.as_u8());
                    let entry = &mut shard[at];
                    entry.codec = sel.codec.as_u8();
                    self.hand_off(key, entry, compressed.into(), op.ctx());
                }
            }),
        }
        drop(shard);
        Ok(())
    }

    /// Seal `page` on this thread, into its reusable buffer, and count
    /// the seal. The route picks the codec (BDI, LZRW1, or none for a
    /// predicted reject), the threshold then admits or rewrites the
    /// buffer as a stored block; either way the selection names exactly
    /// the codec that sealed what sits in `comp`.
    fn seal_inline(&self, key: u64, page: &[u8], route: Option<Route>, op: &OpTimer) -> Selection {
        let step = op.step();
        let sel = SCRATCH.with(|c| {
            let s = &mut *c.borrow_mut();
            let (policy, threshold) = (self.cfg.codec_policy, ThresholdPolicy::default());
            s.codecs
                .compress_with_hint(policy, threshold, page, &mut s.comp, route)
        });
        let (shard_idx, codec) = (self.shard_index(key), sel.codec.as_u8());
        op.note(strier::NONE, codec);
        step.note(strier::NONE, codec);
        step.finish(
            seal_hist(sel.codec),
            shard_idx,
            sop::COMPRESS,
            sel.fell_back as u8,
            key,
        );
        if sel.fell_back {
            self.tel.count(shard_idx, tstat::CODEC_FALLBACKS, 1);
        }
        if route == Some(Route::Raw) {
            self.tel.count(shard_idx, tstat::REJECT_PREDICTED, 1);
            // Only an audited prediction can be admitted.
            if sel.admitted {
                self.tel.count(shard_idx, tstat::REJECT_MISPREDICTED, 1);
            }
        }
        self.count_seal(shard_idx, &sel, page.len(), None);
        sel
    }

    /// Count one put's seal `sel` of a `page_len`-byte page on its
    /// codec's counters — inline, or when a deferred seal is published —
    /// and a deferred seal's `ns` on its histogram when the put is timed.
    pub(super) fn count_seal(
        &self,
        shard_idx: usize,
        sel: &Selection,
        page_len: usize,
        ns: Option<u64>,
    ) {
        let (inb, outb) = match sel.codec {
            CodecId::Lzrw1 => {
                self.tel.count(shard_idx, tstat::PUTS_LZRW1, 1);
                (tstat::LZRW1_IN_BYTES, tstat::LZRW1_OUT_BYTES)
            }
            CodecId::Bdi => {
                self.tel.count(shard_idx, tstat::PUTS_BDI, 1);
                (tstat::BDI_IN_BYTES, tstat::BDI_OUT_BYTES)
            }
            _ => {
                debug_assert_eq!(sel.codec, CodecId::Raw, "unexpected put codec");
                self.tel.count(shard_idx, tstat::STORED_RAW, 1);
                return;
            }
        };
        self.tel.count(shard_idx, tstat::COMPRESSED, 1);
        self.tel.count(shard_idx, inb, page_len as u64);
        self.tel.count(shard_idx, outb, sel.len as u64);
        if let (Some(ns), Some(hist)) = (ns, seal_hist(sel.codec)) {
            self.tel.record(hist, ns);
        }
    }

    /// Reserve `bytes` of budget outright, evicting nothing. The CAS
    /// keeps `resident` at or below the budget at every instant.
    pub(super) fn reserve_resident(&self, bytes: usize) -> bool {
        self.resident
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (cur + bytes <= self.cfg.memory_budget).then_some(cur + bytes)
            })
            .is_ok()
    }

    /// Fetch `key`'s page, recording a `store_get` span (and a
    /// `spill_read` child for disk hits) when `ctx` is sampled.
    pub(super) fn get(
        &self,
        key: u64,
        out: &mut [u8],
        ctx: TraceCtx,
    ) -> Result<Option<HitTier>, StoreError> {
        let stamp = self.touch_clock.fetch_add(1, Ordering::Relaxed);
        let op = self.tel.start_op(stamp, self.cfg.tracer.as_deref(), ctx);
        let res = self.get_inner(key, out, stamp as u32, &op);
        let stripe = self.shard_index(key);
        op.finish(None, stripe, sop::STORE_GET, res.is_err() as u8, key);
        res
    }

    /// The get itself, as [`StoreCore::put_inner`] is the put. A hit in
    /// memory is served, and promoted if the policy asks, in the one
    /// hold of the shard lock that found it; a cold hit reads the medium
    /// between two holds, the second of which serves and promotes it.
    fn get_inner(
        &self,
        key: u64,
        out: &mut [u8],
        now: u32,
        op: &OpTimer,
    ) -> Result<Option<HitTier>, StoreError> {
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
            let Some(mut at) = shard.find(key) else {
                drop(shard);
                self.tel.count(shard_idx, tstat::MISSES, 1);
                return Ok(None);
            };
            let entry = &mut shard[at];
            let orig_len = entry.orig_len as usize;
            let codec = entry.codec;
            if out.len() != orig_len {
                return Err(StoreError::BadPageSize {
                    expected: orig_len,
                    got: out.len(),
                });
            }
            // Stamp the access for the tier policy: the age the
            // promotion decision sees is the gap this get closed.
            let age = now.wrapping_sub(entry.last_touch) as u64;
            entry.last_touch = now;
            entry.gets = entry.gets.saturating_add(1);
            let gets = entry.gets as u32;
            let tier = match &entry.residence {
                Residence::Hot { data, .. } => {
                    op.note(strier::HOT, codec);
                    out.copy_from_slice(data);
                    drop(shard);
                    self.tel.count(shard_idx, tstat::HITS_HOT, 1);
                    op.record(top::GET_HOT);
                    return Ok(Some(HitTier::Hot));
                }
                Residence::SameFilled { pattern } => {
                    op.note(strier::SAME_FILLED, codec);
                    let pattern = *pattern;
                    drop(shard);
                    expand_same_filled(out, pattern);
                    self.tel.count(shard_idx, tstat::HITS_MEMORY, 1);
                    op.record(top::GET_SAME_FILLED);
                    return Ok(Some(HitTier::SameFilled));
                }
                // Sealed bytes in memory, warm or in flight to the file.
                Residence::Memory { data, .. } | Residence::Spilling { data } => {
                    self.decompress_into(codec, data, out, op);
                    HitTier::Memory
                }
                // A page waiting for its seal is served as a warm hit is,
                // by a memcpy.
                Residence::Sealing { data } => {
                    out.copy_from_slice(data);
                    HitTier::Memory
                }
                Residence::Spilled { offset, len, gen } => {
                    op.note(strier::SPILL, codec);
                    let extent = (*offset, *len, *gen);
                    drop(shard);
                    match self.read_cold(key, extent, codec, out, op) {
                        ColdRead::Served(held, found) => {
                            (shard, at) = (held, found);
                            HitTier::Spill
                        }
                        // The entry no longer names this extent (replaced,
                        // or relocated by GC mid-read): look again.
                        ColdRead::Moved => continue,
                        // Transient I/O failure or corrupt extent: bounded
                        // retry with backoff.
                        ColdRead::Failed(mut held, e) => {
                            io_attempts += 1;
                            if io_attempts >= self.cfg.spill_retry_attempts.max(1) {
                                if matches!(e, StoreError::Corrupt) {
                                    // Persistent corruption: drop the entry,
                                    // which still names this extent, so later
                                    // gets miss and can refill, instead of
                                    // serving the same garbage forever.
                                    self.remove_locked(&mut held, key);
                                }
                                return Err(e);
                            }
                            drop(held);
                            self.tel.count(shard_idx, tstat::IO_RETRIES, 1);
                            std::thread::sleep(backoff(self.cfg.spill_retry_base, io_attempts));
                            continue;
                        }
                    }
                }
            };
            // A warm or cold hit, its page in `out`, still in the hold
            // that served it.
            let (src, hist, hits) = match tier {
                HitTier::Spill => (strier::SPILL, top::GET_SPILL, tstat::HITS_SPILL),
                _ => (strier::MEMORY, top::GET_MEMORY, tstat::HITS_MEMORY),
            };
            op.note(src, codec);
            op.record(hist);
            if self
                .cfg
                .tier_policy
                .promote(gets, age, || self.pressure_pct())
            {
                self.try_promote(&mut shard, at, src, out, op);
            }
            drop(shard);
            self.tel.count(shard_idx, hits, 1);
            return Ok(Some(tier));
        }
    }

    /// One attempt at serving `key` from the extent `at` = `(offset, len,
    /// generation)` its entry named a moment ago, in one borrow of this
    /// thread's staging buffer: read it with no lock held, then, in one
    /// hold of the shard, revalidate, verify and decode it into `out`.
    /// The caller owns the retry policy, and gets the hold back to
    /// promote the page or drop a corrupt extent in it.
    fn read_cold(
        &self,
        key: u64,
        at: (u64, u32, u64),
        codec: u8,
        out: &mut [u8],
        op: &OpTimer,
    ) -> ColdRead<'_> {
        let (offset, len, gen) = at;
        let shard_idx = self.shard_index(key);
        SCRATCH.with(|c| {
            let mut scratch = c.borrow_mut();
            let ext = stage_slot(&mut scratch.stage, len as usize);
            let read = op.step();
            read.note(strier::SPILL, codec);
            let spill_read_span =
                |status| read.finish(None, shard_idx, sop::SPILL_READ, status, offset);
            let io = self
                .medium
                .as_ref()
                .expect("spilled entry without spill medium")
                .read_at(ext, offset);
            read.record(top::SPILL_READ);
            // Validate after the read: if the entry still names this
            // exact extent, the cleaner cannot have clobbered it (it
            // republishes an extent, under this shard's lock, before any
            // byte of its old segment is reused).
            let shard = self.shards[shard_idx].0.lock().expect("shard poisoned");
            let Some(found) = extent_at(&shard, key, at) else {
                return ColdRead::Moved;
            };
            if let Err(e) = io {
                spill_read_span(1);
                return ColdRead::Failed(shard, e.into());
            }
            // Verify AFTER revalidation: a torn read caused by a
            // legitimate GC relocation returned `Moved` above and never
            // reaches here, so a failure now is real corruption — count
            // it, never decompress it.
            let verify = op.step();
            let payload = verify_extent(ext, gen, codec);
            verify.record(top::SPILL_VERIFY);
            let Some(payload) = payload else {
                self.tel.count(shard_idx, tstat::CORRUPT_DETECTED, 1);
                spill_read_span(2);
                if let Some(tr) = self.cfg.tracer.as_deref() {
                    tr.anomaly(AnomalyKind::Corrupt, op.ctx().trace_id, key, offset);
                }
                return ColdRead::Failed(shard, StoreError::Corrupt);
            };
            spill_read_span(0);
            self.decompress_into(codec, payload, out, op);
            ColdRead::Served(shard, found)
        })
    }

    /// Decode `data`, sealed by the entry's recorded codec id, straight
    /// into `out`; a timed get records the decode on the per-codec
    /// histogram.
    fn decompress_into(&self, codec: u8, data: &[u8], out: &mut [u8], op: &OpTimer) {
        let id = CodecId::from_u8(codec).expect("unknown codec id in entry");
        let step = op.step();
        decode_into(id, data, out).expect("corrupt page in store");
        // Raw blocks are a memcpy, not a codec — they are excluded so the
        // per-codec histograms measure real decode work.
        let hist = match id {
            CodecId::Bdi => top::DECOMPRESS_BDI,
            CodecId::Lzrw1 => top::DECOMPRESS_LZRW1,
            _ => return,
        };
        step.record(hist);
    }

    /// Persistence hook for every path that removes (or supersedes) an
    /// entry: if the key has a record in a batch summary, queue a
    /// tombstone with a fresh LSN so recovery cannot resurrect it. The
    /// LSN is allocated while the caller still holds the key's shard
    /// lock, which is what makes the per-key LSN order exact even when
    /// the tombstone reaches the file before the extent it supersedes.
    pub(super) fn tombstone_if_journaled(&self, journaled: bool, key: u64) {
        if journaled {
            let lsn = self.next_gen.fetch_add(1, Ordering::Relaxed);
            self.persist.enqueue_tombstone(key, lsn);
        }
    }

    pub(super) fn remove_locked(&self, shard: &mut Shard, key: u64) -> bool {
        match shard.remove(key) {
            Some(e) => {
                self.tombstone_if_journaled(e.journaled, key);
                match e.residence {
                    Residence::Hot { data, slot } => {
                        self.resident.fetch_sub(data.len(), Ordering::Relaxed);
                        self.hot_resident.fetch_sub(data.len(), Ordering::Relaxed);
                        shard.delist(Set::Hot, slot);
                    }
                    Residence::Memory { data, slot } => {
                        self.resident.fetch_sub(data.len(), Ordering::Relaxed);
                        self.warm_resident.fetch_sub(data.len(), Ordering::Relaxed);
                        shard.delist(Set::Warm, slot);
                    }
                    // Its job drops when it is published.
                    Residence::Sealing { data } => {
                        self.resident.fetch_sub(data.len(), Ordering::Relaxed);
                        self.hot_resident.fetch_sub(data.len(), Ordering::Relaxed);
                        self.seal_orphaned.fetch_add(1, Ordering::Relaxed);
                    }
                    Residence::Spilled { offset, len, .. } => {
                        // The extent's bytes stay behind on the file as
                        // dead space, charged to its segment.
                        self.extent_died(offset, len);
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
    /// coldest hot entry, each the oldest of a sample. When degraded,
    /// shed instead. `NoVictim` if nothing on this shard can make
    /// progress; `WriterFull` (shard untouched) if the victim's payload
    /// does not fit in flight — the caller holds this shard's lock, so
    /// it is the caller's to release before anyone waits.
    pub(super) fn evict_one(&self, shard: &mut Shard) -> Progress {
        let freed = |freed: bool| {
            if freed {
                Progress::Evicted
            } else {
                Progress::NoVictim
            }
        };
        let degraded = self.degraded.load(Ordering::Relaxed);
        if self.has_spill() && degraded {
            // Degraded: the medium can't be trusted with this page, but
            // the budget still must be honored. Shedding drops the
            // coldest entry entirely — cache-miss semantics.
            return freed(self.shed_one(shard));
        }
        if !self.spill_open() {
            // No writer (memory-only store, or shut down): warm pages
            // have nowhere to go, but a hot page whose compressed form
            // is smaller can still be squeezed down to warm in place.
            if degraded {
                return Progress::NoVictim;
            }
            return match self.victim(shard, Set::Hot, 0) {
                Some(victim) => freed(matches!(
                    self.demote_hot_locked(shard, victim),
                    DemoteOutcome::Warm
                )),
                None => Progress::NoVictim,
            };
        }
        if let Some(victim) = self.victim(shard, Set::Warm, 0) {
            return self.spill_warm(shard, victim);
        }
        // Only hot entries left: compress the coldest and demote it (to
        // warm when compression frees memory, straight to the spill
        // writer otherwise — guaranteed progress either way).
        let Some(victim) = self.victim(shard, Set::Hot, 0) else {
            return Progress::NoVictim;
        };
        match self.demote_hot_locked(shard, victim) {
            DemoteOutcome::Warm | DemoteOutcome::Spilled => Progress::Evicted,
            DemoteOutcome::Kept => Progress::NoVictim,
            DemoteOutcome::WriterFull(bytes) => Progress::WriterFull(bytes),
        }
    }

    /// Hand the warm entry at `shard`'s arena index `at` to the spill
    /// writer, or report `WriterFull` (the entry untouched) if its
    /// payload does not fit in flight.
    pub(super) fn spill_warm(&self, shard: &mut Shard, at: u32) -> Progress {
        let Residence::Memory { data, slot } = &shard[at].residence else {
            unreachable!("a warm victim is in memory")
        };
        let (data, slot) = (Arc::clone(data), *slot);
        let len = data.len();
        if !self.reserve_inflight(len) {
            return Progress::WriterFull(len);
        }
        shard.delist(Set::Warm, slot);
        self.resident.fetch_sub(len, Ordering::Relaxed);
        self.warm_resident.fetch_sub(len, Ordering::Relaxed);
        // The hand-off replaces the residence; the allocation moves on.
        let entry = &mut shard[at];
        self.hand_off(entry.key, entry, data, TraceCtx::NONE);
        Progress::Evicted
    }

    /// Drop `shard`'s coldest memory entry entirely (degraded-mode
    /// eviction and post-fallback budget repair) — a warm victim first
    /// (already compressed, cheapest to refill), then a hot one. Returns
    /// false if the shard has no in-memory entries.
    fn shed_one(&self, shard: &mut Shard) -> bool {
        let victim = self.victim(shard, Set::Warm, 0);
        let Some(victim) = victim.or_else(|| self.victim(shard, Set::Hot, 0)) else {
            return false;
        };
        let key = shard[victim].key;
        self.remove_locked(shard, key);
        let idx = self.shard_index(key);
        self.tel.count(idx, tstat::SHED_PAGES, 1);
        true
    }

    /// Resident bytes as a percentage of the budget, saturated to 100 —
    /// the pressure signal the tier policy and the demoter gates read.
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
                // in a shard's hot or warm set or waiting for its seal,
                // and the sealing pages stay within a quarter of the
                // budget (`seal_bound`).
                return;
            }
        }
    }

    /// Put `key`'s `Spilling` payload back into memory residence in the
    /// warm set — the medium let it down (failed batch, degraded mode,
    /// dead writer). The one path that may push `resident` past the
    /// budget: the alternative is losing the page. Returns whether it
    /// did; the caller sheds once it has let go of the shard, with
    /// `shedding` raised from before this call until after the shed.
    pub(super) fn revert_to_memory(&self, shard: &mut Shard, key: u64) -> bool {
        let at = shard.find(key).expect("caller looked it up");
        let slot = shard.enlist(Set::Warm, at);
        let e = &mut shard[at];
        let old = std::mem::replace(&mut e.residence, Residence::SameFilled { pattern: 0 });
        let Residence::Spilling { data } = old else {
            unreachable!("caller checked the residence")
        };
        let bytes = data.len();
        e.residence = Residence::Memory { data, slot };
        self.tel
            .count(self.shard_index(key), tstat::SPILL_FALLBACK_RESIDENT, 1);
        self.warm_resident.fetch_add(bytes, Ordering::Relaxed);
        self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes > self.cfg.memory_budget
    }

    pub(super) fn flush(&self) -> Result<(), StoreError> {
        self.publish_seals(true);
        if self.has_spill() {
            self.wait_on_writer(|inflight| inflight == 0, || {});
            // Test the writer, not the gauge: another thread's put may
            // have handed off a job since the wait saw zero, and a live
            // writer will publish it.
            if self.writer_dead.load(Ordering::Relaxed)
                && self.spill_inflight.load(Ordering::Relaxed) != 0
            {
                // The writer is gone with jobs still in flight: nobody
                // will publish them. Revert them to memory residence
                // (the data is still held by the `Spilling` Arc),
                // restore the budget by shedding, and report the truth
                // instead of waiting forever.
                self.reclaim_orphaned_spilling();
                return Err(StoreError::ShuttingDown);
            }
        }
        // Durability barrier for removes too: tombstones still queued
        // go out in a batch of their own, which only the writer — the
        // one allocator of file space — may write, so a crash after a
        // successful flush can never resurrect a key the caller saw
        // removed before the barrier. The writer answers between two
        // batches, so a tombstone in a batch being written — a spill,
        // relocation or another caller's barrier batch — is on the file
        // by then. A writer that is gone answers nothing.
        if self.persist.has_pending() {
            let (reply, done) = channel();
            match (self.send_barrier(reply), done.recv()) {
                (true, Ok(true)) => {}
                (true, Ok(false)) => {
                    let e = std::io::Error::other("the queued tombstones were not written");
                    return Err(StoreError::Io(e));
                }
                _ => return Err(StoreError::ShuttingDown),
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
    /// already holds [`StoreConfig::spill_inflight_limit`] bytes in
    /// flight.
    WriterFull(usize),
}
