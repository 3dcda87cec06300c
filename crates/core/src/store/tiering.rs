//! Moving pages between the tiers: promotion of a re-accessed warm or
//! cold page back to hot, and demotion — hot pages sealed down to warm
//! (or straight to spill), aged warm pages spilled — by the background
//! demoter or [`CompressedStore::demote_now`]. The placement policy
//! itself lives in [`crate::tier`].

use std::sync::atomic::Ordering;
use std::time::Instant;

use super::core::{Progress, StoreCore};
use super::shard::{probe_hint, Residence, Scratch, Shard, SCRATCH};
use super::stats::{top, tstat};
#[cfg(doc)]
use super::CompressedStore;
use cc_compress::CodecId;
use cc_telemetry::trace::{sop, tier as strier, Span, TraceCtx};
use cc_util::LruList;

impl StoreCore {
    /// Decompress-back-to-hot promotion of `key`, whose just-served
    /// page bytes are in `page`. Promotion never evicts: the budget
    /// delta is CAS-reserved outright and the promotion is abandoned
    /// (counted) when it doesn't fit. The entry must still carry this
    /// get's unique `now` stamp — any interleaved put or get stamps its
    /// own clock value, so a stale swap is impossible. `timed` is the
    /// get's timing decision.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn try_promote(
        &self,
        key: u64,
        shard_idx: usize,
        now: u32,
        src_tier: u8,
        page: &[u8],
        ctx: TraceCtx,
        timed: bool,
    ) {
        let t0 = Self::step_start(timed, ctx);
        let mut shard = self.shards[shard_idx].0.lock().expect("shard poisoned");
        let Some(e) = shard.entries.get(&key) else {
            return;
        };
        if e.last_touch != now {
            self.tel.count(shard_idx, tstat::PROMOTIONS_REJECTED, 1);
            return;
        }
        // Net budget delta: the raw page comes in, the warm sealed
        // bytes (if that's where it lives) go out. A spilled source
        // frees nothing in memory.
        let freed = match &e.residence {
            Residence::Memory { data, .. } => data.len() as i64,
            Residence::Spilled { .. } => 0,
            // Already hot, in flight to disk, or same-filled (which is
            // strictly cheaper than hot): nothing to do.
            _ => return,
        };
        let delta = page.len() as i64 - freed;
        if delta > 0 {
            let delta = delta as usize;
            let mut cur = self.resident.load(Ordering::Relaxed);
            loop {
                if cur + delta > self.cfg.memory_budget {
                    drop(shard);
                    self.tel.count(shard_idx, tstat::PROMOTIONS_REJECTED, 1);
                    return;
                }
                match self.resident.compare_exchange_weak(
                    cur,
                    cur + delta,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(actual) => cur = actual,
                }
            }
        } else {
            self.resident
                .fetch_sub((-delta) as usize, Ordering::Relaxed);
        }
        let mut e = shard.entries.remove(&key).expect("checked above");
        match e.residence {
            Residence::Memory { data, handle } => {
                self.warm_resident.fetch_sub(data.len(), Ordering::Relaxed);
                shard.lru.remove(handle);
            }
            Residence::Spilled { offset, len, .. } => {
                // The extent stays behind as dead bytes for the cleaner.
                self.extent_died(offset, len);
            }
            _ => unreachable!("checked above"),
        }
        let handle = shard.lru_hot.push_mru(key);
        e.residence = Residence::Hot {
            data: page.into(),
            handle,
        };
        e.codec = CodecId::Raw.as_u8();
        shard.entries.insert(key, e);
        drop(shard);
        self.hot_resident.fetch_add(page.len(), Ordering::Relaxed);
        self.tel.count(shard_idx, tstat::PROMOTIONS, 1);
        self.step_end(top::PROMOTE, timed, t0);
        self.child_span(
            ctx,
            t0,
            sop::PROMOTE,
            src_tier,
            CodecId::Raw.as_u8(),
            0,
            key,
            shard_idx,
        );
    }

    /// Compress `shard`'s hot entry `key` (along the route its put took —
    /// no re-classification) and demote it: to warm residence when the
    /// sealed form is smaller, else to the spill channel when one is
    /// available. `Kept` means neither helped; the entry is cycled to
    /// the hot MRU end so a bounded sweep doesn't re-grind it.
    /// `WriterFull` means the spill writer has no room in flight for it.
    pub(super) fn demote_hot_locked(&self, shard: &mut Shard, key: u64) -> DemoteOutcome {
        let shard_idx = self.shard_index(key);
        let Some(e) = shard.entries.get(&key) else {
            return DemoteOutcome::Kept;
        };
        let route = probe_hint(e.probe);
        let Residence::Hot { data, .. } = &e.residence else {
            return DemoteOutcome::Kept;
        };
        let orig_len = data.len();
        // Seal under the shard lock: the demoter touches one entry per
        // lock hold, and compressing outside the lock would need a page
        // copy plus revalidation — more overhead than it saves on a
        // background path.
        let sel = SCRATCH.with(|c| {
            let Scratch { codecs, demote, .. } = &mut *c.borrow_mut();
            let (policy, threshold) = (self.cfg.codec_policy, self.cfg.threshold);
            let mut compress =
                |hint| codecs.compress_with_hint(policy, threshold, data, demote, hint);
            // The route the put took is a pure function of bytes, policy
            // and threshold, none of which changed. Debug builds re-derive
            // it, so every suite that demotes a page proves the remembered
            // route; a rejected page is sealed raw without a codec pass.
            let derived = route
                .filter(|_| cfg!(debug_assertions))
                .map(|_| compress(None));
            let sel = compress(route);
            if let Some(derived) = derived {
                let remembered = (sel.route(), sel.len);
                assert_eq!(
                    (derived.route(), derived.len),
                    remembered,
                    "stale route on key {key}"
                );
            }
            sel
        });
        if sel.len < orig_len {
            // Hot → warm: swap the raw page for its sealed form at the
            // *cold* end of the warm LRU (an aged page stays first in
            // line for the next spill).
            let sealed = SCRATCH.with(|c| c.borrow().demote[..sel.len].into());
            let handle = shard.lru.push_lru(key);
            let e = shard.entries.get_mut(&key).expect("checked above");
            e.codec = sel.codec.as_u8();
            let hot = std::mem::replace(
                &mut e.residence,
                Residence::Memory {
                    data: sealed,
                    handle,
                },
            );
            let Residence::Hot { handle, .. } = hot else {
                unreachable!("checked above")
            };
            shard.lru_hot.remove(handle);
            self.resident
                .fetch_sub(orig_len - sel.len, Ordering::Relaxed);
            self.hot_resident.fetch_sub(orig_len, Ordering::Relaxed);
            self.warm_resident.fetch_add(sel.len, Ordering::Relaxed);
            self.tel.count(shard_idx, tstat::DEMOTED_HOT, 1);
            DemoteOutcome::Warm
        } else if shard.tx.is_some() {
            // Incompressible (that's usually why it was hot): hand the
            // sealed bytes straight to the spill writer, if they fit in
            // flight (the entry is untouched if they do not).
            if !self.reserve_inflight(sel.len) {
                return DemoteOutcome::WriterFull(sel.len);
            }
            let sealed = SCRATCH.with(|c| c.borrow().demote[..sel.len].into());
            let e = shard.entries.get_mut(&key).expect("checked above");
            let Residence::Hot { handle, .. } = e.residence else {
                unreachable!("checked above")
            };
            e.codec = sel.codec.as_u8();
            shard.lru_hot.remove(handle);
            // The raw page is freed when the hand-off replaces the
            // residence.
            self.resident.fetch_sub(orig_len, Ordering::Relaxed);
            self.hot_resident.fetch_sub(orig_len, Ordering::Relaxed);
            if self.spill_victim(shard, key, sealed) {
                self.tel.count(shard_idx, tstat::DEMOTED_HOT, 1);
            }
            DemoteOutcome::Spilled
        } else {
            // Nothing to gain and nowhere to spill: cycle it so the
            // caller's bounded walk moves on.
            if let Some(e) = shard.entries.get(&key) {
                if let Residence::Hot { handle, .. } = &e.residence {
                    let handle = *handle;
                    shard.lru_hot.touch(handle);
                }
            }
            DemoteOutcome::Kept
        }
    }

    /// `list`'s coldest key, if it has idled at least `idle` operations.
    /// The clock is read under `shard`'s lock: every stamp in the shard
    /// was drawn before the hold that wrote it, so none is ahead of this
    /// read and the wrapping age cannot come out as a huge one.
    fn aged_victim(&self, shard: &Shard, list: &LruList<u64>, idle: u64) -> Option<u64> {
        let now = self.touch_clock.load(Ordering::Relaxed) as u32;
        let (_, &victim) = list.peek_lru()?;
        let age = now.wrapping_sub(shard.entries.get(&victim)?.last_touch) as u64;
        (age >= idle).then_some(victim)
    }

    /// One bounded demotion sweep across every shard. Hot entries idle
    /// past the policy's `hot_idle` window are compressed down to warm
    /// (or straight to spill if incompressible); warm entries idle past
    /// `warm_idle` are handed to the spill writer. Each list is gated
    /// on its own pressure threshold so an under-budget store does no
    /// work at all. Returns `(hot_demoted, warm_demoted)`.
    pub(super) fn demote_pass(&self) -> (u64, u64) {
        let policy = &self.cfg.tier_policy;
        let pressure = self.pressure_pct();
        let hot_idle = policy.hot_idle;
        let warm_idle = policy.warm_idle;
        let do_hot = hot_idle != u64::MAX && pressure >= policy.hot_demote_pressure_pct;
        let do_warm = warm_idle != u64::MAX
            && pressure >= policy.warm_demote_pressure_pct
            && self.has_spill()
            && !self.degraded.load(Ordering::Relaxed);
        if !do_hot && !do_warm {
            return (0, 0);
        }
        let t0 = Instant::now();
        let (mut hot_n, mut warm_n) = (0u64, 0u64);
        // One entry per lock hold: the shard lock is re-taken (and the
        // LRU re-peeked) for every victim, so a foreground op on the
        // shard waits for at most one seal, never for a batch of them.
        for (shard_idx, slot) in self.shards.iter().enumerate() {
            if do_hot {
                for _ in 0..DEMOTE_SHARD_BATCH {
                    let mut shard = slot.0.lock().expect("shard poisoned");
                    let Some(victim) = self.aged_victim(&shard, &shard.lru_hot, hot_idle) else {
                        break;
                    };
                    match self.demote_hot_locked(&mut shard, victim) {
                        DemoteOutcome::Warm | DemoteOutcome::Spilled => hot_n += 1,
                        DemoteOutcome::Kept => {}
                        // The demoter never waits on the writer: skip.
                        DemoteOutcome::WriterFull(_) => break,
                    }
                }
            }
            if do_warm {
                for _ in 0..DEMOTE_SHARD_BATCH {
                    let mut shard = slot.0.lock().expect("shard poisoned");
                    if self.aged_victim(&shard, &shard.lru, warm_idle).is_none() {
                        break;
                    }
                    // `WriterFull` included: the demoter skips, it
                    // never waits on the writer.
                    if !matches!(self.evict_one(&mut shard), Progress::Evicted) {
                        break;
                    }
                    self.tel.count(shard_idx, tstat::DEMOTED_WARM, 1);
                    warm_n += 1;
                }
            }
        }
        self.tel.count(0, tstat::DEMOTER_PASSES, 1);
        let pause = t0.elapsed().as_nanos() as u64;
        self.tel.record(top::DEMOTE_PAUSE, pause);
        if let Some(tr) = self.cfg.tracer.as_deref() {
            // Background span, same idiom as the GC pause: trace 0, no
            // parent, `arg` = pages demoted this pass.
            tr.record(
                0,
                &Span {
                    trace_id: 0,
                    span_id: tr.alloc_span(),
                    parent: 0,
                    op: sop::DEMOTE,
                    tier: strier::NONE,
                    codec: 0,
                    status: 0,
                    start_ns: tr.now_ns(t0),
                    queue_ns: 0,
                    service_ns: pause,
                    arg: hot_n + warm_n,
                },
            );
        }
        (hot_n, warm_n)
    }

    /// Body of the `cc-store-demoter` thread: sleep `demote_interval`,
    /// then repeat [`Self::demote_pass`] until a pass demotes nothing —
    /// the aged backlog is drained per wake, and nobody kicks the
    /// condvar but `shutdown()`/`Drop`, which set `demote_stop` and end
    /// the loop (between two passes at the latest).
    pub(super) fn demoter_loop(&self) {
        let stopped = || *self.demote_stop.lock().expect("demoter stop poisoned");
        loop {
            let guard = self.demote_stop.lock().expect("demoter stop poisoned");
            if *guard {
                return;
            }
            let (guard, _) = self
                .demote_cv
                .wait_timeout(guard, self.cfg.demote_interval)
                .expect("demoter stop poisoned");
            if *guard {
                return;
            }
            drop(guard);
            while self.demote_pass() != (0, 0) {
                if stopped() {
                    return;
                }
            }
        }
    }
}

/// What [`StoreCore::demote_hot_locked`] did with its victim.
pub(super) enum DemoteOutcome {
    /// Compressed in place to warm residence (freed `orig - sealed`).
    Warm,
    /// Handed to the spill writer (freed the whole raw page).
    Spilled,
    /// Nothing freed and nowhere to spill; cycled to the hot MRU end.
    Kept,
    /// The sealed form (this many bytes) must spill and does not fit in
    /// flight; the entry is untouched.
    WriterFull(usize),
}

/// Per-LRU-list cap on entries each demoter pass inspects per shard —
/// bounds the time a pass holds any one shard lock, so foreground puts
/// and gets never stall behind a long sweep.
const DEMOTE_SHARD_BATCH: usize = 8;
