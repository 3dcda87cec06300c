//! The store's one background thread, `cc-store-bg` ([`Background`]),
//! whose step runs the spill writer ([`SpillWriter`]: batch, write and
//! publish, each batch behind its summary), the deferred seals, the
//! demote passes and the probation probe; the [`Inbox`] the foreground
//! hands it work through; and the bound on payload in flight and the
//! waits on it. The cleaner is in `gc`, the seals and passes in `tiering`.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

use super::core::StoreCore;
use super::extent::encode_extent;
use super::gc::Cleaning;
use super::shard::{Entry, Residence, Shard};
use super::stats::{top, tstat};
use super::tiering::SealQueue;
#[cfg(doc)]
use super::StoreConfig;
use crate::medium::SpillMedium;
use crate::persist::{encode_summary, summary_len, SummaryRecord, Tombstone};
use cc_telemetry::trace::{sop, tier as strier, Span, SpanTag, TraceCtx};
use cc_util::backoff;

/// An entry handed to the writer. The file offset is chosen by the
/// writer at batch-commit time, not by the producer — that is what lets
/// the writer pack many entries into one contiguous write, in whichever
/// segment has room.
pub(super) struct SpillJob {
    key: u64,
    gen: u64,
    /// Codec id byte, sealed into the extent header alongside the data.
    codec: u8,
    /// The entry's own payload allocation (see [`Residence::Spilling`]).
    data: Arc<[u8]>,
    /// Trace context of the sampled put that queued this job
    /// ([`TraceCtx::NONE`] for background eviction / unsampled puts):
    /// the writer records a `spill_write` span under it.
    ctx: TraceCtx,
    /// When the job was queued — the writer splits queue-wait from
    /// service time in the span. Set iff `ctx` is sampled.
    queued: Option<Instant>,
}

/// Everything the foreground hands the background thread, behind one
/// leaf lock (taken under a shard lock, never the reverse) and one
/// condvar, [`StoreCore::wake`], notified only while the thread parks.
#[derive(Default)]
pub(super) struct Inbox {
    /// Spill jobs, oldest first (the thread swaps the list for its own
    /// empty one, so both keep their capacity), and their payload bytes.
    jobs: VecDeque<SpillJob>,
    bytes: usize,
    /// `flush()`'s barriers, answered at the thread's next step with
    /// whether every queued tombstone is on the file.
    barriers: Vec<Sender<bool>>,
    /// The deferred seals ([`StoreCore::defer_seal`]).
    pub(super) seals: SealQueue,
    /// The thread sleeps; whoever clears this notifies it.
    pub(super) parked: bool,
    /// Threads in [`StoreCore::wait_on_writer`].
    waiters: usize,
    /// Bytes in `jobs` that wake the parked thread: what its open batch
    /// lacks, or any with none open — a wake per batch, not per job.
    wake_bytes: usize,
    /// Set by `close()`: no put defers a seal, and the thread exits once
    /// it has drained what it holds.
    pub(super) closed: bool,
}

impl StoreCore {
    pub(super) fn inbox(&self) -> MutexGuard<'_, Inbox> {
        self.inbox.lock().expect("inbox poisoned")
    }

    /// Wake the background thread if it is parked (and any waiter on it,
    /// which finds nothing changed and waits again).
    pub(super) fn unpark(&self, inbox: &mut Inbox) {
        if inbox.parked {
            inbox.parked = false;
            self.wake.notify_all();
        }
    }

    /// Queue `reply` for the writer's next barrier; `false` (and `reply`
    /// dropped) if the background thread is gone.
    pub(super) fn send_barrier(&self, reply: Sender<bool>) -> bool {
        let mut inbox = self.inbox();
        if self.writer_dead.load(Ordering::Relaxed) {
            return false;
        }
        inbox.barriers.push(reply);
        self.unpark(&mut inbox);
        true
    }

    /// Sleep until `next` (`None`: no deadline) or work: a barrier, a
    /// batch's worth of spill payload — what the thread's open batch
    /// `lacks`, or any with none open — a batch of deferred seals, or
    /// `close()`. Returns `false` once the store is closed and neither
    /// the inbox nor the thread holds work, having marked the thread gone
    /// under the inbox lock, so no barrier lands after it.
    pub(super) fn park(&self, next: Option<Instant>, lacks: Option<usize>) -> bool {
        if next.is_some_and(|t| t <= Instant::now()) {
            return true;
        }
        let mut inbox = self.inbox();
        if inbox.closed && lacks.is_none() && inbox.jobs.is_empty() && inbox.barriers.is_empty() {
            self.writer_dead.store(true, Ordering::Relaxed);
            return false;
        }
        (inbox.parked, inbox.wake_bytes) = (true, lacks.unwrap_or(1));
        while inbox.parked
            && !(inbox.closed && lacks.is_none())
            && inbox.barriers.is_empty()
            && inbox.bytes < inbox.wake_bytes
            && inbox.seals.queued.len() < self.seal_wake_batch()
        {
            let left = next.map_or(Duration::MAX, |t| {
                t.saturating_duration_since(Instant::now())
            });
            if left.is_zero() {
                break;
            }
            inbox = self
                .wake
                .wait_timeout(inbox, left)
                .expect("inbox poisoned")
                .0;
        }
        inbox.parked = false;
        true
    }

    /// Count `bytes` of payload as handed to the spill writer, unless
    /// that would take the in-flight total past
    /// [`StoreConfig::spill_inflight_limit`] — payload in RAM, resident
    /// plus in flight, stays within 1¼ × a budget of many batches, and
    /// within twice any budget. A lone job is always admitted, so a
    /// payload larger than the limit can still leave. Called with the
    /// job key's shard lock held, in the same hold that hands the job
    /// off ([`StoreCore::hand_off`]); whoever ends the hand-off — the
    /// writer's publish, or a reclaim by `flush()` — takes the bytes out again,
    /// exactly once.
    pub(super) fn reserve_inflight(&self, bytes: usize) -> bool {
        let limit = self.cfg.spill_inflight_limit();
        self.spill_inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (cur == 0 || cur.saturating_add(bytes) <= limit).then(|| cur + bytes)
            })
            .is_ok()
    }

    /// Block until `ready(in-flight bytes)` holds or the background
    /// thread has exited; `on_block` runs once, before the first wait,
    /// if there is one.
    ///
    /// This is the one place a thread waits on the spill writer, and it
    /// must be entered with **no shard lock held**: the writer publishes
    /// under the shard locks, so a waiter that kept one could be waiting
    /// on a writer that is waiting on it. Puts release theirs first (the
    /// `Progress::WriterFull` arm of `put_inner`), `flush` holds none,
    /// and the background thread never comes here: its demotions skip.
    pub(super) fn wait_on_writer(&self, ready: impl Fn(usize) -> bool, on_block: impl FnOnce()) {
        let mut inbox = self.inbox();
        let mut on_block = Some(on_block);
        // The writer changes what is read here and *then* takes the inbox
        // lock to signal, so a change made after these loads finds this
        // thread already counted and wakes it.
        while !ready(self.spill_inflight.load(Ordering::Relaxed))
            && !self.writer_dead.load(Ordering::Relaxed)
        {
            if let Some(f) = on_block.take() {
                f();
            }
            inbox.waiters += 1;
            inbox = self.wake.wait(inbox).expect("inbox poisoned");
            inbox.waiters -= 1;
        }
    }

    /// Put-side back-pressure: wait until `bytes` more payload fits in
    /// flight, or until the writer can make no more room — it exited, or
    /// the store degraded and evicts by shedding. See
    /// [`StoreCore::wait_on_writer`] for the locking rule.
    pub(super) fn wait_for_writer(&self, bytes: usize, shard_idx: usize) {
        let limit = self.cfg.spill_inflight_limit();
        self.wait_on_writer(
            |inflight| {
                inflight == 0
                    || inflight.saturating_add(bytes) <= limit
                    || self.degraded.load(Ordering::Relaxed)
            },
            || self.tel.count(shard_idx, tstat::PUT_BACKPRESSURE_WAITS, 1),
        );
    }

    /// Wake the threads in [`StoreCore::wait_on_writer`]. Called by the
    /// writer after it published a batch (in-flight bytes went down, or
    /// the store went degraded) and when its thread exits.
    fn notify_writer_progress(&self) {
        if self.inbox().waiters > 0 {
            self.wake.notify_all();
        }
    }

    /// The background thread is gone: nothing queued or in flight will
    /// ever be published. Refuse barriers from now on, drop those queued
    /// (a flush waiting on one learns it), and release whoever waits on
    /// the writer.
    pub(super) fn writer_exited(&self) {
        let mut inbox = self.inbox();
        self.writer_dead.store(true, Ordering::Relaxed);
        inbox.barriers.clear();
        drop(inbox);
        self.notify_writer_progress();
    }

    /// Hand `key`'s sealed `data` to the spill writer — the one place a
    /// [`SpillJob`] is built. The caller holds the key's shard lock, has
    /// reserved `data.len()` in flight ([`StoreCore::reserve_inflight`])
    /// and has already taken the payload off the residence gauges, and
    /// `e` carries the codec the job is sealed with. `e` becomes
    /// `Spilling` (the job, under a fresh generation, shares its payload)
    /// and is counted as spilled. Callers check [`StoreCore::spill_open`]
    /// first; a job that races the thread's exit is never published, and
    /// `flush()` takes its page back ([`StoreCore::reclaim_orphaned_spilling`]).
    pub(super) fn hand_off(&self, key: u64, e: &mut Entry, data: Arc<[u8]>, ctx: TraceCtx) {
        let len = data.len();
        let mut inbox = self.inbox();
        inbox.jobs.push_back(SpillJob {
            key,
            gen: self.next_gen.fetch_add(1, Ordering::Relaxed),
            codec: e.codec,
            data: Arc::clone(&data),
            ctx,
            queued: ctx.sampled().then(Instant::now),
        });
        inbox.bytes += len;
        if inbox.bytes >= inbox.wake_bytes {
            self.unpark(&mut inbox);
        }
        drop(inbox);
        e.residence = Residence::Spilling { data };
        self.tel.count(self.shard_index(key), tstat::SPILLED, 1);
    }

    /// Convert every `Spilling` entry — the writer is dead, none will be
    /// published — back to memory residence, return the in-flight gauge
    /// to zero, and shed back to the budget. Counted on the same
    /// fallback counter as failed-batch reverts — either way the entry
    /// went back to memory because the medium let it down.
    pub(super) fn reclaim_orphaned_spilling(&self) {
        self.shedding.fetch_add(1, Ordering::SeqCst);
        {
            // Every shard at once, in index order (no other thread blocks
            // on a second shard): with all of them held no hand-off is
            // between its reservation and its push, so what the gauge
            // still counts is exactly the jobs that died with the
            // writer, and zeroing it cannot race a late release.
            let mut shards: Vec<MutexGuard<'_, Shard>> = self
                .shards
                .iter()
                .map(|s| s.0.lock().expect("shard poisoned"))
                .collect();
            for shard in &mut shards {
                let orphaned: Vec<u64> = shard
                    .iter()
                    .filter(|e| matches!(e.residence, Residence::Spilling { .. }))
                    .map(|e| e.key)
                    .collect();
                for key in orphaned {
                    self.revert_to_memory(shard, key);
                }
            }
            self.spill_inflight.store(0, Ordering::Relaxed);
            self.spill_orphaned.store(0, Ordering::Relaxed);
        }
        self.shed_to_budget();
        self.shedding.fetch_sub(1, Ordering::SeqCst);
    }

    /// Record one background step that started at `t0` — a cleaning
    /// step, a demote pass — on histogram `hist`, and as a span `op` of
    /// no request (trace 0, no parent) carrying `arg` when traced.
    /// Returns its nanoseconds.
    pub(super) fn record_pause(&self, hist: usize, op: u8, tier: u8, t0: Instant, arg: u64) -> u64 {
        let tr = self.cfg.tracer.as_deref();
        let step = self.tel.op_since(t0, tr, TraceCtx::NONE);
        let pause = step.note(tier, 0).finish(Some(hist), 0, op, 0, arg);
        pause.expect("a background step is always timed")
    }
}

/// How long the writer holds a partially-filled batch open waiting for
/// more jobs. Bounds both the batching opportunity and the extra latency
/// `flush()` can observe for an entry caught mid-batch.
const BATCH_LINGER: Duration = Duration::from_micros(200);

/// The `cc-store-bg` thread: the spill writer if the store has a spill
/// file, and when the next demote pass is due if its policy ages pages.
/// A store with neither runs no thread.
pub(super) struct Background {
    pub(super) core: Arc<StoreCore>,
    pub(super) writer: Option<SpillWriter>,
    pub(super) next_demote: Option<Instant>,
}

impl Background {
    /// The thread's body: step, and park until there is work or the
    /// step's deadline, until the store closes with nothing left. A
    /// fresh file first gets its first superblock (if that write fails
    /// the lease stays at 0, so the first batch stamps again); the last
    /// act is sealing the file.
    pub(super) fn run(mut self, fresh: bool) {
        if let (Some(w), true) = (&self.writer, fresh) {
            let _ = w.core.persist.stamp(&*w.medium, 0, false, 0);
        }
        loop {
            let next = self.step(Instant::now());
            // What the open batch, if any, lacks: the only writer work
            // left once a step has found nothing to do.
            let lacks = self.writer.as_ref().and_then(|w| {
                let target = w.core.cfg.spill_batch_bytes.max(1);
                w.linger.map(|_| target.saturating_sub(w.buf.len()).max(1))
            });
            if !self.core.park(next, lacks) {
                break;
            }
        }
        if let Some(w) = &self.writer {
            w.seal();
        }
    }

    /// One step of background work, without blocking, in this order:
    /// 1. a spill batch that is full or has lingered out, written, then
    ///    one cleaning step — or jobs failed while degraded — ends it;
    /// 2. the queued deferred seals are sealed ([`StoreCore::seal_queued`]);
    /// 3. a due [`StoreCore::demote_pass`] — one bounded sweep, due again
    ///    at once while sweeps demote something — ends it;
    /// 4. a due probation probe.
    ///
    /// Returns `now` if a step ended early, else the earliest deadline of
    /// the open batch's linger, the next pass and the next probe, if any.
    pub(super) fn step(&mut self, now: Instant) -> Option<Instant> {
        let linger = self.writer.as_mut().and_then(|w| w.spill(now));
        if linger.is_some_and(|t| t <= now) {
            return linger;
        }
        self.core.seal_queued();
        if self.next_demote.is_some_and(|t| t <= now) {
            if self.core.demote_pass() == (0, 0) {
                self.next_demote = Some(now + self.core.cfg.demote_interval);
            }
            return Some(now);
        }
        let probe = self.writer.as_mut().and_then(|w| w.probe_step(now));
        let deadlines = [linger, self.next_demote, probe];
        deadlines.into_iter().flatten().min()
    }
}

/// The spill writer: packs spill jobs into
/// [`StoreConfig::spill_batch_bytes`] batches, one positioned write
/// each, with one cleaning step — at most one batch of copying — after
/// each. It is the only writer of the spill file and the sole allocator
/// of its space (the segment table's open segment), which makes batch
/// packing and segment reuse race-free, and the only publisher of its
/// results: once a batch is durable it flips each member `Spilling` →
/// `Spilled` under the member's shard lock ([`SpillWriter::publish`]),
/// so a page's memory is returned when its write lands. It also owns
/// degraded mode: consecutive hard batch failures degrade the store;
/// while degraded it fails queued jobs at once and probes the medium
/// with a canary round-trip every [`StoreConfig::probe_interval`],
/// re-enabling spill on success.
pub(super) struct SpillWriter {
    pub(super) core: Arc<StoreCore>,
    pub(super) medium: Arc<dyn SpillMedium>,
    /// The segment being cleaned, if a step has started one and not yet
    /// freed it.
    pub(super) cleaning: Option<Cleaning>,
    /// The cleaner's buffer: the relocation batch being packed, with
    /// the window of the victim just read behind it — two batches.
    pub(super) clean_buf: Vec<u8>,
    /// Hard batch failures (each already retried) since the last
    /// success; crossing `degrade_after` degrades the store.
    consecutive_failures: u32,
    /// Jobs taken from the inbox and not yet staged, oldest first.
    queue: VecDeque<SpillJob>,
    /// The open batch: its framed extents, their identities, the
    /// nanoseconds framing them took, and when it is written however
    /// full it is (`None`: no batch open).
    buf: Vec<u8>,
    staged: Vec<StagedJob>,
    stage_ns: u64,
    linger: Option<Instant>,
    /// When the next probe is due, while degraded.
    next_probe: Option<Instant>,
}

/// A job staged into the current batch (or a survivor staged into a
/// relocation batch): its place in the batch buffer plus the identity it
/// is published under. `len` is the full extent length (header +
/// payload) as it lives on the file.
pub(super) struct StagedJob {
    pub(super) key: u64,
    pub(super) gen: u64,
    pub(super) rel: usize,
    pub(super) len: usize,
    pub(super) codec: u8,
    /// A spill job's payload, held until it is published: the entry is
    /// matched against it. `None` for a survivor being relocated.
    pub(super) data: Option<Arc<[u8]>>,
    /// Trace context carried over from the [`SpillJob`] (sampled
    /// straight-to-spill puts only).
    pub(super) ctx: TraceCtx,
    pub(super) queued: Option<Instant>,
}

impl SpillWriter {
    pub(super) fn new(core: Arc<StoreCore>, medium: Arc<dyn SpillMedium>) -> SpillWriter {
        SpillWriter {
            buf: Vec::with_capacity(core.cfg.spill_batch_bytes.max(1) * 2),
            core,
            medium,
            cleaning: None,
            clean_buf: Vec::new(),
            consecutive_failures: 0,
            queue: VecDeque::new(),
            staged: Vec::new(),
            stage_ns: 0,
            linger: None,
            next_probe: None,
        }
    }

    /// Orderly-exit seal: write any pending tombstones, then the
    /// superblock with the clean bit, so the next open can trust the
    /// summaries without re-verifying extents. Best-effort — any failure
    /// leaves the file unclean, which is always safe (recovery just
    /// takes the verifying path).
    fn seal(&self) {
        if self.write_tombstones() {
            let page_size = self.core.page_size.load(Ordering::Relaxed) as u32;
            let _ = self.core.persist.stamp(&*self.medium, page_size, true, 0);
        }
    }

    /// Write every queued tombstone in a batch of its own, if there are
    /// any. Returns whether none is left waiting.
    fn write_tombstones(&self) -> bool {
        !self.core.persist.has_pending() || self.write_batch(&[], &[], &[], false).is_some()
    }

    /// The writer's step. Answer the barriers the inbox holds — write
    /// every queued tombstone — and take its jobs. With no batch open,
    /// fail them while degraded (their pages go back to memory), else
    /// open a batch, to linger [`BATCH_LINGER`]. Stage jobs into the open
    /// batch, and write it once it is full or has lingered out, then run
    /// one cleaning step. Returns `now` if it failed or wrote anything,
    /// else the open batch's deadline.
    fn spill(&mut self, now: Instant) -> Option<Instant> {
        let barriers = {
            let mut inbox = self.core.inbox();
            if self.queue.is_empty() {
                std::mem::swap(&mut self.queue, &mut inbox.jobs);
                inbox.bytes = 0;
            }
            std::mem::take(&mut inbox.barriers)
        };
        for reply in barriers {
            let _ = reply.send(self.write_tombstones());
        }
        if self.linger.is_none() {
            if self.queue.is_empty() {
                return None;
            }
            if self.core.degraded.load(Ordering::Relaxed) {
                // Jobs queued before the store degraded fail the way a
                // failed batch fails its members.
                self.publish_failed(self.queue.iter().map(|j| (j.key, &j.data)));
                self.queue.clear();
                self.core.notify_writer_progress();
                return Some(now);
            }
            self.buf.clear();
            self.stage_ns = 0;
            self.linger = Some(now + BATCH_LINGER);
        }
        let target = self.core.cfg.spill_batch_bytes.max(1);
        while self.buf.len() < target {
            let Some(job) = self.queue.pop_front() else {
                break;
            };
            self.stage_ns += Self::stage(&mut self.buf, &mut self.staged, job);
        }
        let due = self.linger.expect("a batch is open");
        if self.buf.len() < target && now < due {
            return Some(due);
        }
        self.commit_batch();
        // The batch's payloads are freed here, not when the next batch
        // starts.
        self.staged.clear();
        self.linger = None;
        if !self.core.degraded.load(Ordering::Relaxed) {
            self.clean_step();
        }
        Some(now)
    }

    /// While degraded, probe every [`StoreConfig::probe_interval`] from
    /// the step that found the store degraded, however much other work
    /// comes between. Returns when the next probe is due, if one is.
    fn probe_step(&mut self, now: Instant) -> Option<Instant> {
        if !self.core.degraded.load(Ordering::Relaxed) {
            self.next_probe = None;
            return None;
        }
        let interval = self.core.cfg.probe_interval;
        if *self.next_probe.get_or_insert(now + interval) <= now {
            self.probe();
            self.next_probe = Some(now + interval);
        }
        self.next_probe
    }

    /// Frame `job` into the batch as a self-verifying extent: header
    /// (with the payload CRC, computed here at commit time) + payload.
    /// Returns the nanoseconds that took — the checksum is most of it —
    /// for the batch's `spill_write` sample.
    fn stage(buf: &mut Vec<u8>, staged: &mut Vec<StagedJob>, job: SpillJob) -> u64 {
        let t0 = Instant::now();
        let rel = buf.len();
        encode_extent(buf, job.gen, job.codec, &job.data);
        staged.push(StagedJob {
            key: job.key,
            gen: job.gen,
            rel,
            len: buf.len() - rel,
            codec: job.codec,
            data: Some(job.data),
            ctx: job.ctx,
            queued: job.queued,
        });
        t0.elapsed().as_nanos() as u64
    }

    /// Publish one job's outcome under its key's shard lock — the only
    /// way an entry leaves `Spilling` while the writer lives — and take
    /// its payload bytes out of flight in the same hold. `data` is the
    /// job's payload; `landed` is the `Spilled` residence it was written
    /// to — `(offset, len, generation)` — or `None` if its write failed.
    /// An entry still holding this very payload becomes `Spilled` and
    /// journaled (its location is in a batch summary now, so removing it
    /// must leave a tombstone), or reverts to memory; a missing key or
    /// another payload means the entry was removed or replaced while the
    /// job was queued, and whatever was written for it is dead bytes,
    /// followed by a tombstone one above its generation, since the
    /// removal's own tombstone may have reached the file, and been
    /// dropped by the cleaner, before this batch named the key. Returns
    /// whether a revert took `resident` past the budget.
    fn publish(&self, key: u64, data: &Arc<[u8]>, landed: Option<(u64, u32, u64)>) -> bool {
        let core = &self.core;
        let payload = data.len();
        let mut shard = core.shard(key);
        let mut over_budget = false;
        let waiting = match shard.get_mut(key) {
            Some(e) if matches!(&e.residence, Residence::Spilling { data: d } if Arc::ptr_eq(d, data)) =>
            {
                if let Some((offset, len, gen)) = landed {
                    e.residence = Residence::Spilled { offset, len, gen };
                    e.journaled = true;
                }
                true
            }
            _ => false,
        };
        if !waiting {
            core.spill_orphaned.fetch_sub(payload, Ordering::Relaxed);
            if let Some((offset, len, gen)) = landed {
                core.extent_died(offset, len);
                core.persist.enqueue_tombstone(key, gen + 1);
            }
        } else if landed.is_none() {
            over_budget = core.revert_to_memory(&mut shard, key);
        }
        core.spill_inflight.fetch_sub(payload, Ordering::Relaxed);
        over_budget
    }

    /// Publish `(key, payload)` jobs whose write did not happen, then
    /// repair the budget: reverts may overshoot it, and `shedding` is
    /// raised across the overshoot.
    fn publish_failed<'a>(&self, jobs: impl Iterator<Item = (u64, &'a Arc<[u8]>)>) {
        self.core.shedding.fetch_add(1, Ordering::SeqCst);
        let mut over_budget = false;
        for (key, data) in jobs {
            over_budget |= self.publish(key, data, None);
        }
        if over_budget {
            // Shedding only needs shard locks, one at a time; the
            // overshoot window is this one batch.
            self.core.shed_to_budget();
        }
        self.core.shedding.fetch_sub(1, Ordering::SeqCst);
    }

    /// One canary write/read round-trip where the next batch would go
    /// (unallocated space: that batch overwrites it). Success ends
    /// probation.
    fn probe(&mut self) {
        self.core.tel.count(0, tstat::MEDIUM_PROBES, 1);
        let canary = *b"cc-medium-probe!";
        let mut back = [0u8; 16];
        let at = self.core.segments().place(canary.len() as u64).offset;
        let ok = self.medium.write_at(&canary, at).is_ok()
            && self.medium.flush().is_ok()
            && self.medium.read_at(&mut back, at).is_ok()
            && back == canary;
        if ok {
            self.consecutive_failures = 0;
            self.core.exit_degraded();
        }
    }

    /// Write the batch at `base` with bounded retry and exponential
    /// backoff; transient failures are counted as retries.
    pub(super) fn write_with_retry(&self, buf: &[u8], base: u64) -> bool {
        let attempts = self.core.cfg.spill_retry_attempts.max(1);
        for attempt in 0..attempts {
            if attempt > 0 {
                self.core.tel.count(0, tstat::IO_RETRIES, 1);
                std::thread::sleep(backoff(self.core.cfg.spill_retry_base, attempt));
            }
            if self.medium.write_at(buf, base).is_ok() && self.medium.flush().is_ok() {
                return true;
            }
        }
        false
    }

    /// Write the batch of `staged` extents framed in `buf` where the
    /// segment table places it, with retry. The batch goes out behind its
    /// summary, in the same write: a record per staged extent, every
    /// queued tombstone, and the tombstones `carried` by the cleaner.
    /// Only once the write is durable is the space accounted (a
    /// `relocation` batch all dead, until its members are republished),
    /// and the queued tombstones it wrote leave the queue — until then
    /// `flush` sees them waiting. Returns the file
    /// offset of the first extent, or `None` if the write failed; the
    /// table and the queue are untouched then, and the next batch
    /// overwrites whatever landed.
    pub(super) fn write_batch(
        &self,
        buf: &[u8],
        staged: &[StagedJob],
        carried: &[Tombstone],
        relocation: bool,
    ) -> Option<u64> {
        let p = &self.core.persist;
        let mut tombs = p.pending();
        let queued = tombs.len();
        tombs.extend_from_slice(carried);
        let extents = staged.iter().map(|j| SummaryRecord {
            key: j.key,
            gen: j.gen,
            rel: j.rel as u32,
            len: j.len as u32,
            codec: j.codec,
        });
        let tombstones = tombs
            .iter()
            .map(|&(key, lsn)| SummaryRecord::tombstone(key, lsn));
        let records: Vec<SummaryRecord> = extents.chain(tombstones).collect();
        let seq = self.core.next_gen.fetch_add(1, Ordering::Relaxed);
        let page_size = self.core.page_size.load(Ordering::Relaxed) as u32;
        let sb = p.superblock();
        let leased = seq < sb.seq_limit || p.stamp(&*self.medium, page_size, false, seq).is_ok();
        let head = summary_len(records.len());
        let mut out = Vec::with_capacity(head + buf.len());
        encode_summary(sb.salt, seq, page_size, &records, buf.len(), &mut out);
        out.extend_from_slice(buf);
        let place = self.core.segments().place(out.len() as u64);
        if !leased || !self.write_with_retry(&out, place.offset) {
            return None;
        }
        p.written(queued);
        let (len, head) = (out.len() as u64, head as u64);
        let keys = staged.iter().map(|j| (j.key, j.gen));
        let mut t = self.core.segments();
        t.commit(
            place,
            len,
            keys,
            &tombs,
            if relocation { len } else { head },
        );
        self.core.mirror(&t);
        Some(place.offset + head)
    }

    /// Write one coalesced batch ([`SpillWriter::write_batch`]) and
    /// publish every member ([`SpillWriter::publish`]). Entries become
    /// visible as `Spilled` only after the whole batch, summary included,
    /// is on the file. A hard failure (retries exhausted) reverts every member
    /// to memory residence — rather than losing data or leaving `flush`
    /// waiting on bytes that never leave flight — and advances the
    /// degraded-mode countdown.
    fn commit_batch(&mut self) {
        let (buf, staged) = (&self.buf, &self.staged);
        // Always timed: this thread is off the data path, and the write
        // histogram is what the bench gates sanity-check. A sample is the
        // batch's staging (`stage_ns`: framing and checksums, spread over
        // the linger) plus its summary and write.
        let t0 = Instant::now();
        let landed = self.write_batch(buf, staged, &[], false);
        let ok = landed.is_some();
        let base = landed.unwrap_or(0);
        if ok {
            self.consecutive_failures = 0;
            self.core.tel.record(
                top::SPILL_WRITE,
                self.stage_ns + t0.elapsed().as_nanos() as u64,
            );
            self.core.tel.count(0, tstat::SPILL_BATCHES, 1);
        } else {
            self.consecutive_failures += 1;
            if self.consecutive_failures >= self.core.cfg.degrade_after.max(1) {
                self.core.enter_degraded(self.consecutive_failures as u64);
            }
        }
        // Spans for sampled members: queue wait (enqueue to batch start)
        // split from service time (the shared batch write).
        if let Some(tr) = self.core.cfg.tracer.as_deref() {
            let write_ns = t0.elapsed().as_nanos() as u64;
            for j in staged.iter().filter(|j| j.ctx.sampled()) {
                let queue_ns = j
                    .queued
                    .map_or(0, |q| t0.saturating_duration_since(q).as_nanos() as u64);
                let tag = SpanTag {
                    op: sop::SPILL_WRITE,
                    tier: strier::SPILL,
                    codec: j.codec,
                    status: !ok as u8,
                    arg: if ok { base + j.rel as u64 } else { j.key },
                };
                let mut span = Span::new(j.ctx, tr.alloc_span(), tag, tr.now_ns(t0), write_ns);
                span.queue_ns = queue_ns;
                tr.record(0, &span);
            }
        }
        let jobs = staged
            .iter()
            .map(|j| (j, j.data.as_ref().expect("a spill job holds its payload")));
        if ok {
            for (j, data) in jobs {
                self.publish(
                    j.key,
                    data,
                    Some((base + j.rel as u64, j.len as u32, j.gen)),
                );
            }
        } else {
            self.publish_failed(jobs.map(|(j, data)| (j.key, data)));
        }
        self.core.notify_writer_progress();
    }
}
