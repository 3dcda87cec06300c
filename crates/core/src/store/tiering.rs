//! Moving pages between the tiers: promotion of a re-accessed warm or
//! cold page back to hot, and demotion — hot pages sealed down to warm
//! (or straight to spill), aged warm pages spilled — by demote passes on
//! the background thread or [`CompressedStore::demote_now`]; and the
//! deferred seals, the LZRW1 passes puts hand to that thread and later
//! publish. The placement policy itself lives in [`crate::tier`].

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use super::config::INFLIGHT_SHARE;
use super::core::{Progress, StoreCore};
use super::shard::{Entry, Residence, Scratch, Set, Shard, SCRATCH};
use super::stats::{top, tstat};
#[cfg(doc)]
use super::CompressedStore;
use cc_compress::{CodecId, Route, Selection, ThresholdPolicy};
use cc_telemetry::trace::{sop, tier as strier, TraceCtx};
use cc_telemetry::OpTimer;

impl StoreCore {
    /// Promote the entry at `shard`'s arena index `at`, whose page a get
    /// has just served into `page`, back to hot, in the caller's hold of
    /// the shard lock. Promotion never evicts: the budget delta is
    /// CAS-reserved outright and the promotion is abandoned (counted)
    /// when it doesn't fit. It is a step of the get's `op`.
    pub(super) fn try_promote(
        &self,
        shard: &mut Shard,
        at: u32,
        src_tier: u8,
        page: &[u8],
        op: &OpTimer,
    ) {
        let step = op.step();
        let key = shard[at].key;
        let shard_idx = self.shard_index(key);
        // Net budget delta: the raw page comes in, the warm sealed
        // bytes (if that's where it lives) go out. A spilled source
        // frees nothing in memory.
        let freed = match &shard[at].residence {
            Residence::Memory { data, .. } | Residence::Sealing { data } => data.len() as i64,
            Residence::Spilled { .. } => 0,
            // In flight to disk: nothing to do.
            _ => return,
        };
        let delta = page.len() as i64 - freed;
        if delta > 0 {
            if !self.reserve_resident(delta as usize) {
                self.tel.count(shard_idx, tstat::PROMOTIONS_REJECTED, 1);
                return;
            }
        } else {
            self.resident
                .fetch_sub((-delta) as usize, Ordering::Relaxed);
        }
        let slot = shard.enlist(Set::Hot, at);
        let e = &mut shard[at];
        e.codec = CodecId::Raw.as_u8();
        let old = std::mem::replace(
            &mut e.residence,
            Residence::Hot {
                data: page.into(),
                slot,
            },
        );
        match old {
            Residence::Memory { data, slot } => {
                self.warm_resident.fetch_sub(data.len(), Ordering::Relaxed);
                shard.delist(Set::Warm, slot);
            }
            Residence::Spilled { offset, len, .. } => {
                // The extent stays behind as dead bytes for the cleaner.
                self.extent_died(offset, len);
            }
            // Already counted hot at full size; its job drops at publish.
            Residence::Sealing { data } => {
                self.hot_resident.fetch_sub(data.len(), Ordering::Relaxed);
                self.seal_orphaned.fetch_add(1, Ordering::Relaxed);
            }
            _ => unreachable!("checked above"),
        }
        self.hot_resident.fetch_add(page.len(), Ordering::Relaxed);
        self.tel.count(shard_idx, tstat::PROMOTIONS, 1);
        step.note(src_tier, CodecId::Raw.as_u8());
        step.finish(Some(top::PROMOTE), shard_idx, sop::PROMOTE, 0, key);
    }

    /// Compress the hot entry at `shard`'s arena index `at` (along the
    /// route its put took — no re-classification) and demote it: to warm
    /// residence when the sealed form is smaller, else to the spill
    /// writer when one is available. `Kept` means neither helped; the
    /// entry is stamped as touched now, so the next sample passes it
    /// over and a bounded sweep doesn't re-grind it.
    /// `WriterFull` means the spill writer has no room in flight for it.
    pub(super) fn demote_hot_locked(&self, shard: &mut Shard, at: u32) -> DemoteOutcome {
        let e = &shard[at];
        let (key, route) = (e.key, e.probe);
        let shard_idx = self.shard_index(key);
        let Residence::Hot { data, slot } = &e.residence else {
            return DemoteOutcome::Kept;
        };
        let (orig_len, slot) = (data.len(), *slot);
        // Seal under the shard lock: the demoter touches one entry per
        // lock hold, and compressing outside the lock would need a page
        // copy plus revalidation — more overhead than it saves on a
        // background path.
        let sel = SCRATCH.with(|c| {
            let Scratch { codecs, demote, .. } = &mut *c.borrow_mut();
            let (policy, threshold) = (self.cfg.codec_policy, ThresholdPolicy::default());
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
            // Hot → warm: swap the raw page for its sealed form. It keeps
            // its age, so an aged page stays first in line for the next
            // spill.
            let sealed = SCRATCH.with(|c| c.borrow().demote[..sel.len].into());
            shard.delist(Set::Hot, slot);
            let slot = shard.enlist(Set::Warm, at);
            let e = &mut shard[at];
            e.codec = sel.codec.as_u8();
            e.residence = Residence::Memory { data: sealed, slot };
            self.resident
                .fetch_sub(orig_len - sel.len, Ordering::Relaxed);
            self.hot_resident.fetch_sub(orig_len, Ordering::Relaxed);
            self.warm_resident.fetch_add(sel.len, Ordering::Relaxed);
            self.tel.count(shard_idx, tstat::DEMOTED_HOT, 1);
            DemoteOutcome::Warm
        } else if self.spill_open() {
            // Incompressible (that's usually why it was hot): hand the
            // sealed bytes straight to the spill writer, if they fit in
            // flight (the entry is untouched if they do not).
            if !self.reserve_inflight(sel.len) {
                return DemoteOutcome::WriterFull(sel.len);
            }
            let sealed = SCRATCH.with(|c| c.borrow().demote[..sel.len].into());
            shard.delist(Set::Hot, slot);
            let e = &mut shard[at];
            e.codec = sel.codec.as_u8();
            // The raw page is freed when the hand-off replaces the
            // residence.
            self.resident.fetch_sub(orig_len, Ordering::Relaxed);
            self.hot_resident.fetch_sub(orig_len, Ordering::Relaxed);
            self.hand_off(key, e, sealed, TraceCtx::NONE);
            self.tel.count(shard_idx, tstat::DEMOTED_HOT, 1);
            DemoteOutcome::Spilled
        } else {
            // Nothing to gain and nowhere to spill: stamp it so the
            // caller's bounded walk moves on.
            shard[at].last_touch = self.touch_clock.load(Ordering::Relaxed) as u32;
            DemoteOutcome::Kept
        }
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
            && self.spill_open()
            && !self.degraded.load(Ordering::Relaxed);
        if !do_hot && !do_warm {
            return (0, 0);
        }
        let t0 = Instant::now();
        let (mut hot_n, mut warm_n) = (0u64, 0u64);
        // One entry per lock hold: the shard lock is re-taken (and the
        // set re-sampled) for every victim, so a foreground op on the
        // shard waits for at most one seal, never for a batch of them.
        for (shard_idx, slot) in self.shards.iter().enumerate() {
            if do_hot {
                for _ in 0..DEMOTE_SHARD_BATCH {
                    let mut shard = slot.0.lock().expect("shard poisoned");
                    let Some(victim) = self.victim(&mut shard, Set::Hot, hot_idle) else {
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
                    let Some(victim) = self.victim(&mut shard, Set::Warm, warm_idle) else {
                        break;
                    };
                    // `WriterFull` included: the demoter skips, it
                    // never waits on the writer.
                    if !matches!(self.spill_warm(&mut shard, victim), Progress::Evicted) {
                        break;
                    }
                    self.tel.count(shard_idx, tstat::DEMOTED_WARM, 1);
                    warm_n += 1;
                }
            }
        }
        self.tel.count(0, tstat::DEMOTER_PASSES, 1);
        let demoted = hot_n + warm_n;
        self.record_pause(top::DEMOTE_PAUSE, sop::DEMOTE, strier::NONE, t0, demoted);
        (hot_n, warm_n)
    }

    /// Defer the seal of a put of `page`, its raw bytes reserved and
    /// `key`'s shard lock held, in one hold of the inbox lock: claim a
    /// job, push it, and wake the thread if that completes a batch; `e`
    /// then waits `Sealing`, counted hot, in neither set. `false`, with
    /// nothing changed, after shutdown or at [`StoreCore::seal_bound`]
    /// jobs.
    pub(super) fn defer_seal(&self, e: &mut Entry, key: u64, page: &[u8], op: &OpTimer) -> bool {
        let timed = op.timed();
        let mut inbox = self.inbox();
        if inbox.closed || inbox.seals.outstanding >= self.seal_bound() {
            return false;
        }
        let q = &mut inbox.seals;
        let job = match q.free.pop() {
            Some(mut job) => {
                Arc::get_mut(&mut job.raw)
                    .expect("a free job's page is its own")
                    .copy_from_slice(page);
                job.key = key;
                job.timed = timed;
                job
            }
            None => SealJob::new(self, key, page, timed),
        };
        let data = Arc::clone(&job.raw);
        q.queued.push_back(job);
        q.outstanding += 1;
        // The background thread is woken for a batch, never for one job.
        if q.queued.len() >= self.seal_wake_batch() {
            self.unpark(&mut inbox);
        }
        drop(inbox);
        e.residence = Residence::Sealing { data };
        self.hot_resident.fetch_add(page.len(), Ordering::Relaxed);
        self.tel
            .count(self.shard_index(key), tstat::SEALS_DEFERRED, 1);
        true
    }

    /// Seal jobs outstanding at once: [`SEAL_QUEUE_CAP`], or fewer, so
    /// the raw pages `Sealing` entries hold outside both sets stay within
    /// the budget's in-flight share and a failed batch can always shed
    /// back under the budget.
    pub(super) fn seal_bound(&self) -> usize {
        let page = self.page_size.load(Ordering::Relaxed).max(1);
        SEAL_QUEUE_CAP.min(self.cfg.memory_budget / INFLIGHT_SHARE / page)
    }

    /// Queued jobs at which a put wakes the parked background thread, and
    /// it does not park: [`SEAL_WAKE_BATCH`], or the bound if smaller.
    pub(super) fn seal_wake_batch(&self) -> usize {
        SEAL_WAKE_BATCH.min(self.seal_bound()).max(1)
    }

    /// The background thread's seal step: seal every queued job, one at
    /// a time, into its own output buffer. Takes no shard lock and
    /// allocates and frees nothing: the job's buffers were reserved on
    /// the foreground, and the lists' capacity covers [`SEAL_QUEUE_CAP`].
    pub(super) fn seal_queued(&self) {
        let mut done: Option<SealJob> = None;
        loop {
            let mut inbox = self.inbox();
            let q = &mut inbox.seals;
            if let Some(job) = done.take() {
                q.sealed.push_back(job);
                self.seals_ready.store(true, Ordering::Relaxed);
            }
            q.sealing = false;
            let Some(mut job) = q.queued.pop_front() else {
                return;
            };
            q.sealing = true;
            drop(inbox);
            self.seal(&mut job);
            done = Some(job);
        }
    }

    /// Run `job`'s LZRW1 pass on this thread's codec set, unless its
    /// entry has let go of the page: the job then holds the only clone,
    /// and the re-put, remove or promotion that let go counted it
    /// orphaned, so it publishes unsealed.
    fn seal(&self, job: &mut SealJob) {
        if Arc::strong_count(&job.raw) == 1 {
            return;
        }
        let t0 = job.timed.then(Instant::now);
        let sel = SCRATCH.with(|c| {
            c.borrow_mut().codecs.compress_with_hint(
                self.cfg.codec_policy,
                ThresholdPolicy::default(),
                &job.raw,
                &mut job.out,
                Some(Route::Lz),
            )
        });
        job.sel = Some((sel, t0.map(|t| t.elapsed().as_nanos() as u64)));
    }

    /// Publish every sealed job (the tail of each put, once the
    /// background thread has sealed something). With `all`, also seal
    /// each queued job on this thread and wait out the one the
    /// background thread holds — one codec pass, so yielding to it is
    /// enough — leaving no job outstanding that was queued before the
    /// call.
    pub(super) fn publish_seals(&self, all: bool) {
        loop {
            let mut inbox = self.inbox();
            let q = &mut inbox.seals;
            let job = if let Some(job) = q.sealed.pop_front() {
                self.seals_ready
                    .store(!q.sealed.is_empty(), Ordering::Relaxed);
                drop(inbox);
                job
            } else if !all {
                return;
            } else if let Some(mut job) = q.queued.pop_front() {
                drop(inbox);
                self.seal(&mut job);
                job
            } else if q.sealing {
                drop(inbox);
                std::thread::yield_now();
                continue;
            } else {
                return;
            };
            self.publish_seal(job);
        }
    }

    /// Place a sealed job's page where the inline put would have — warm
    /// when the policy does not admit it hot, hot otherwise — if its
    /// entry is still the `Sealing` one it was queued for
    /// ([`Arc::ptr_eq`]); a re-put, remove or promotion since has
    /// orphaned it, and it drops. The put's codec counters count only a
    /// seal that ran, orphaned or not. The job goes back to the free list
    /// under the shard lock, so the checker sees it outstanding exactly
    /// while its entry or an orphan count says so.
    fn publish_seal(&self, mut job: SealJob) {
        let (key, raw) = (job.key, job.raw.len());
        let shard_idx = self.shard_index(key);
        let sealed = job.sel.take();
        if let Some((sel, ns)) = &sealed {
            self.count_seal(shard_idx, sel, raw, *ns);
        }
        let hot = sealed
            .as_ref()
            .is_some_and(|(sel, _)| self.cfg.tier_policy.admit_hot(sel.admitted));
        if hot {
            self.tel.count(shard_idx, tstat::PUTS_HOT, 1);
        }
        let mut shard = self.shards[shard_idx].0.lock().expect("shard poisoned");
        let waiting = shard.find(key).filter(|&at| {
            matches!(&shard[at].residence, Residence::Sealing { data } if Arc::ptr_eq(data, &job.raw))
        });
        match sealed.zip(waiting) {
            None => {
                debug_assert!(
                    waiting.is_none(),
                    "skipped the seal of a page still waiting on it"
                );
                self.seal_orphaned.fetch_sub(1, Ordering::Relaxed);
            }
            Some(((sel, _), at)) if hot => {
                let slot = shard.enlist(Set::Hot, at);
                let e = &mut shard[at];
                e.probe = Some(sel.route());
                e.residence = Residence::Hot {
                    data: job.raw[..].into(),
                    slot,
                };
            }
            Some(((sel, _), at)) => {
                let slot = shard.enlist(Set::Warm, at);
                let e = &mut shard[at];
                e.probe = Some(sel.route());
                e.codec = sel.codec.as_u8();
                e.residence = Residence::Memory {
                    data: job.out[..sel.len].into(),
                    slot,
                };
                self.resident.fetch_sub(raw - sel.len, Ordering::Relaxed);
                self.hot_resident.fetch_sub(raw, Ordering::Relaxed);
                self.warm_resident.fetch_add(sel.len, Ordering::Relaxed);
            }
        }
        let q = &mut self.inbox().seals;
        q.outstanding -= 1;
        q.free.push(job);
    }
}

/// Seal jobs outstanding at most — queued, being sealed, or sealed and
/// not yet published — whatever the budget ([`StoreCore::seal_bound`]).
pub(super) const SEAL_QUEUE_CAP: usize = 64;

/// Queued jobs at which a put wakes the parked background thread (and
/// it does not park); fewer wait for its next wake.
const SEAL_WAKE_BATCH: usize = 4;

/// One deferred LZRW1 seal. Its buffers are recycled through
/// [`SealQueue::free`], so a deferred put costs a page copy, not an
/// allocation.
pub(super) struct SealJob {
    key: u64,
    /// The put's raw page; the `Sealing` entry holds the other clone.
    raw: Arc<[u8]>,
    /// The sealed bytes, in a buffer reserved up front to everything a
    /// codec writes, so the seal never reallocates it.
    out: Vec<u8>,
    /// The put's timing decision.
    timed: bool,
    /// What the seal produced, and its nanoseconds when timed; `None`
    /// until it runs, and after it was skipped for an orphan.
    sel: Option<(Selection, Option<u64>)>,
}

impl SealJob {
    /// A new job for `page`, on the foreground.
    fn new(core: &StoreCore, key: u64, page: &[u8], timed: bool) -> SealJob {
        let mut out = Vec::new();
        // The codec layer reserves what any codec writes before it reads
        // the hint; a stored block is the cheap way to have it do so
        // here rather than on the background thread.
        SCRATCH.with(|c| {
            c.borrow_mut().codecs.compress_with_hint(
                core.cfg.codec_policy,
                ThresholdPolicy::default(),
                page,
                &mut out,
                Some(Route::Raw),
            )
        });
        SealJob {
            key,
            raw: page.into(),
            out,
            timed,
            sel: None,
        }
    }
}

/// The deferred seals, in the background thread's inbox.
pub(super) struct SealQueue {
    /// Jobs waiting for the background thread (or a flush), oldest
    /// first.
    pub(super) queued: VecDeque<SealJob>,
    /// Sealed jobs waiting for the foreground to publish them.
    sealed: VecDeque<SealJob>,
    /// Published jobs, buffers kept for the next deferral.
    free: Vec<SealJob>,
    /// Jobs out of `free`: queued, being sealed, or sealed.
    pub(super) outstanding: usize,
    /// The background thread holds a job outside the lists.
    sealing: bool,
}

impl Default for SealQueue {
    /// Lists sized for [`SEAL_QUEUE_CAP`] jobs, so the background
    /// thread's pushes never grow them.
    fn default() -> SealQueue {
        SealQueue {
            queued: VecDeque::with_capacity(SEAL_QUEUE_CAP),
            sealed: VecDeque::with_capacity(SEAL_QUEUE_CAP),
            free: Vec::with_capacity(SEAL_QUEUE_CAP),
            outstanding: 0,
            sealing: false,
        }
    }
}

/// What [`StoreCore::demote_hot_locked`] did with its victim.
pub(super) enum DemoteOutcome {
    /// Compressed in place to warm residence (freed `orig - sealed`).
    Warm,
    /// Handed to the spill writer (freed the whole raw page).
    Spilled,
    /// Nothing freed and nowhere to spill; stamped as touched now.
    Kept,
    /// The sealed form (this many bytes) must spill and does not fit in
    /// flight; the entry is untouched.
    WriterFull(usize),
}

/// Per-set cap on entries each demoter pass inspects per shard —
/// bounds the time a pass holds any one shard lock, so foreground puts
/// and gets never stall behind a long sweep.
const DEMOTE_SHARD_BATCH: usize = 8;
