//! The spill path after eviction: the hand-off of a page to the writer
//! ([`StoreCore::hand_off`]), the bound on payload in flight and the
//! waits on it, and the writer thread ([`SpillWriter`]) that batches,
//! writes, journals and publishes. The cleaner it runs between batches
//! is in `gc`.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, MutexGuard};
use std::time::{Duration, Instant};

use super::core::{backoff, StoreCore};
use super::extent::{encode_extent, EXTENT_HEADER};
use super::shard::{Entry, Residence, Shard};
use super::stats::{tevent, top, tstat};
#[cfg(doc)]
use super::StoreConfig;
use crate::medium::SpillMedium;
use crate::persist::{jkind, JournalRecord};
use cc_telemetry::trace::{sop, tier as strier, Span, TraceCtx};

/// An entry handed to the writer thread. The file offset is chosen by the
/// writer at batch-commit time, not by the producer — that is what lets
/// the writer pack many entries into one contiguous write and lets GC
/// reset the allocation cursor.
pub(super) struct SpillJob {
    key: u64,
    gen: u64,
    /// Codec id byte, sealed into the extent header alongside the data.
    codec: u8,
    /// Uncompressed page length, journaled so recovery can restore the
    /// entry (and re-learn the store's page size) without decoding.
    orig_len: u32,
    data: Arc<Vec<u8>>,
    /// Trace context of the sampled put that queued this job
    /// ([`TraceCtx::NONE`] for background eviction / unsampled puts):
    /// the writer records a `spill_write` span under it.
    ctx: TraceCtx,
    /// When the job was queued — the writer splits queue-wait from
    /// service time in the span. Set iff `ctx` is sampled.
    queued: Option<Instant>,
}

impl StoreCore {
    /// Count `bytes` of payload as handed to the spill writer, unless
    /// that would take the in-flight total past the memory budget —
    /// payload in RAM, resident plus in flight, stays within twice the
    /// budget. A lone job is always admitted, so a payload larger than
    /// the whole budget can still leave. Called with the job key's
    /// shard lock held, in the same hold that hands the job off
    /// ([`StoreCore::hand_off`]); whoever ends the hand-off — the
    /// writer's publish, or a failed `send` — takes the bytes out again,
    /// exactly once.
    pub(super) fn reserve_inflight(&self, bytes: usize) -> bool {
        let budget = self.cfg.memory_budget;
        self.spill_inflight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                (cur == 0 || cur.saturating_add(bytes) <= budget).then_some(cur + bytes)
            })
            .is_ok()
    }

    /// Block until `ready(in-flight bytes)` holds or the writer thread
    /// has exited; `on_block` runs once, before the first wait, if there
    /// is one.
    ///
    /// This is the one place a thread waits on the spill writer, and it
    /// must be entered with **no shard lock held**: the writer publishes
    /// under the shard locks, so a waiter that kept one could be waiting
    /// on a writer that is waiting on it. Puts release theirs first (the
    /// `Progress::WriterFull` arm of `put_inner`), `flush` holds none,
    /// and the demoter skips instead of coming here.
    pub(super) fn wait_on_writer(&self, ready: impl Fn(usize) -> bool, on_block: impl FnOnce()) {
        let mut waiters = self.spill_waiters.lock().expect("spill waiters poisoned");
        let mut on_block = Some(on_block);
        // The writer changes what is read here and *then* takes
        // `spill_waiters` to signal, so a change made after these loads
        // finds this thread already counted and wakes it.
        while !ready(self.spill_inflight.load(Ordering::Relaxed))
            && !self.writer_dead.load(Ordering::Relaxed)
        {
            if let Some(f) = on_block.take() {
                f();
            }
            *waiters += 1;
            waiters = self.spill_cv.wait(waiters).expect("spill waiters poisoned");
            *waiters -= 1;
        }
    }

    /// Put-side back-pressure: wait until `bytes` more payload fits in
    /// flight, or until the writer can make no more room — it exited, or
    /// the store degraded and evicts by shedding. See
    /// [`StoreCore::wait_on_writer`] for the locking rule.
    pub(super) fn wait_for_writer(&self, bytes: usize, shard_idx: usize) {
        let budget = self.cfg.memory_budget;
        self.wait_on_writer(
            |inflight| {
                inflight == 0
                    || inflight.saturating_add(bytes) <= budget
                    || self.degraded.load(Ordering::Relaxed)
            },
            || self.tel.count(shard_idx, tstat::PUT_BACKPRESSURE_WAITS, 1),
        );
    }

    /// Wake the threads in [`StoreCore::wait_on_writer`]. Called by the
    /// writer after it published a batch (in-flight bytes went down, or
    /// the store went degraded) and when it exits.
    fn notify_writer_progress(&self) {
        if *self.spill_waiters.lock().expect("spill waiters poisoned") > 0 {
            self.spill_cv.notify_all();
        }
    }

    /// The writer thread is gone: nothing still in flight will ever be
    /// published. Release whoever waits on it.
    pub(super) fn writer_exited(&self) {
        self.writer_dead.store(true, Ordering::Relaxed);
        self.notify_writer_progress();
    }

    /// Hand `key`'s sealed `data` to the spill writer — the one place a
    /// [`SpillJob`] is built. The caller holds the key's shard lock, has
    /// reserved `data.len()` in flight ([`StoreCore::reserve_inflight`])
    /// and has already taken the payload off the residence gauges, and
    /// `e` carries the codec and page length the job is sealed with. On
    /// success `e` is `Spilling` under a fresh generation, journaled iff
    /// the store is persistent (its location is about to reach the
    /// journal, so removing it must leave a tombstone), and counted as
    /// spilled. `false` means the writer died without a shutdown() (a
    /// panic): the reservation is refunded, the store degraded, and `e`,
    /// `journaled` untouched, is the caller's to drop.
    pub(super) fn hand_off(
        &self,
        tx: &Sender<SpillJob>,
        key: u64,
        e: &mut Entry,
        data: Vec<u8>,
        ctx: TraceCtx,
    ) -> bool {
        let len = data.len();
        let data = Arc::new(data);
        let gen = self.next_gen.fetch_add(1, Ordering::Relaxed);
        if tx
            .send(SpillJob {
                key,
                gen,
                codec: e.codec,
                orig_len: e.orig_len,
                data: Arc::clone(&data),
                ctx,
                queued: ctx.sampled().then(Instant::now),
            })
            .is_err()
        {
            self.spill_inflight.fetch_sub(len, Ordering::Relaxed);
            self.writer_dead.store(true, Ordering::Relaxed);
            self.enter_degraded(0);
            return false;
        }
        e.residence = Residence::Spilling { data, gen };
        e.journaled = self.persist.is_some();
        self.tel.count(self.shard_index(key), tstat::SPILLED, 1);
        true
    }

    /// [`StoreCore::hand_off`] for a victim of eviction or demotion:
    /// `key` is in `shard`'s map and off its LRU lists, and `data` is its
    /// payload. If the writer is dead the victim is shed instead — its
    /// job will never be received, let alone published. Returns whether
    /// it was handed off.
    pub(super) fn spill_victim(&self, shard: &mut Shard, key: u64, data: Vec<u8>) -> bool {
        let len = data.len();
        let tx = shard.tx.as_ref().expect("caller checked for a writer");
        let e = shard.entries.get_mut(&key).expect("victim is in the map");
        if self.hand_off(tx, key, e, data, TraceCtx::NONE) {
            return true;
        }
        let e = shard.entries.remove(&key).expect("victim is in the map");
        // The job never reached the journal, but an older location
        // record for this key may still be live there.
        self.tombstone_if_journaled(e.journaled, key);
        self.tel.count(self.shard_index(key), tstat::SHED_PAGES, 1);
        if self.tel.timing_enabled() {
            self.tel.event(tevent::SHED, key, len as u64);
        }
        false
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
            // between its reservation and its failed `send`, so what the
            // gauge still counts is exactly the jobs that died with the
            // writer, and zeroing it cannot race a late release.
            let mut shards: Vec<MutexGuard<'_, Shard>> = self
                .shards
                .iter()
                .map(|s| s.0.lock().expect("shard poisoned"))
                .collect();
            for shard in &mut shards {
                let orphaned: Vec<u64> = shard
                    .entries
                    .iter()
                    .filter(|(_, e)| matches!(e.residence, Residence::Spilling { .. }))
                    .map(|(&k, _)| k)
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
}

/// How long the writer holds a partially-filled batch open waiting for
/// more jobs. Bounds both the batching opportunity and the extra latency
/// `flush()` can observe for an entry caught mid-batch.
const BATCH_LINGER: Duration = Duration::from_micros(200);

/// The background spill thread: drains the job channel, packs entries
/// into [`StoreConfig::spill_batch_bytes`] batches written with a single
/// positioned write each, and runs spill-file compaction between
/// batches. It is the sole allocator of file space (`cursor`), which is
/// what makes both contiguous batch packing and post-GC cursor reset
/// race-free, and the only publisher of its own results: after a batch
/// is durable it flips each member `Spilling` → `Spilled` under the
/// member's shard lock ([`SpillWriter::publish`]), so no foreground call
/// has anything to fold in and a page's memory is returned when its
/// write lands. It also owns the degraded-mode state machine: consecutive
/// hard batch failures flip the store degraded; while degraded it fails
/// queued jobs immediately (no medium traffic) and probes the medium
/// with a canary round-trip every [`StoreConfig::probe_interval`],
/// re-enabling spill on success.
pub(super) struct SpillWriter {
    pub(super) core: Arc<StoreCore>,
    pub(super) medium: Arc<dyn SpillMedium>,
    pub(super) cursor: u64,
    /// Hard batch failures (each already retried) since the last
    /// success; crossing `degrade_after` degrades the store.
    pub(super) consecutive_failures: u32,
    /// Canary probes issued during the current degraded episode.
    pub(super) probes: u64,
}

/// A job staged into the current batch: its place in the batch buffer
/// plus the identity it is published under. `len` is the full
/// extent length (header + payload) as it will live on the file.
struct StagedJob {
    key: u64,
    gen: u64,
    rel: usize,
    len: usize,
    codec: u8,
    /// Uncompressed page length, carried into the journal PUT record.
    orig_len: u32,
    /// Trace context carried over from the [`SpillJob`] (sampled
    /// straight-to-spill puts only).
    ctx: TraceCtx,
    queued: Option<Instant>,
}

impl SpillWriter {
    pub(super) fn run(mut self, rx: Receiver<SpillJob>) {
        self.run_loop(rx);
        // Channel closed: every queued job has been committed (mpsc
        // drains before disconnecting). Seal the clean-shutdown bit —
        // after the final batch and its journal records are durable,
        // never before.
        self.seal();
    }

    /// Orderly-exit seal: commit any pending tombstones, then write the
    /// superblock with the clean bit, final cursor, and journal tail so
    /// the next open can trust the journal without re-scanning extents.
    /// Best-effort — any failure leaves the file unclean, which is
    /// always safe (recovery just takes the verifying path).
    fn seal(&mut self) {
        let Some(p) = &self.core.persist else { return };
        match p.commit_pending() {
            Ok(n) => {
                if n > 0 {
                    self.core.tel.count(0, tstat::JOURNAL_RECORDS_WRITTEN, n);
                }
            }
            Err(_) => return,
        }
        let page_size = self.core.page_size.load(Ordering::Relaxed) as u32;
        let _ = p.seal_clean(&*self.medium, self.cursor, page_size);
    }

    fn run_loop(&mut self, rx: Receiver<SpillJob>) {
        let target = self.core.cfg.spill_batch_bytes.max(1);
        let mut buf: Vec<u8> = Vec::with_capacity(target * 2);
        let mut staged: Vec<StagedJob> = Vec::new();
        loop {
            if self.core.degraded.load(Ordering::Relaxed) {
                // Probation: producers shed instead of spilling, but
                // jobs queued before the transition (or raced onto it)
                // still arrive — fail them immediately so their pages
                // revert to memory rather than waiting on a medium we
                // don't trust. Between arrivals, probe.
                match rx.recv_timeout(self.core.cfg.probe_interval) {
                    Ok(job) => self.fail_job(job),
                    Err(RecvTimeoutError::Timeout) => self.probe(),
                    Err(RecvTimeoutError::Disconnected) => return,
                }
                continue;
            }
            // Block for the first job of each batch, then coalesce
            // whatever else is queued (lingering briefly for stragglers)
            // into one write.
            let Ok(first) = rx.recv() else { return };
            buf.clear();
            staged.clear();
            let mut stage_ns = Self::stage(&mut buf, &mut staged, first);
            let deadline = Instant::now() + BATCH_LINGER;
            let mut disconnected = false;
            while buf.len() < target {
                match rx.try_recv() {
                    Ok(j) => stage_ns += Self::stage(&mut buf, &mut staged, j),
                    Err(TryRecvError::Disconnected) => {
                        disconnected = true;
                        break;
                    }
                    Err(TryRecvError::Empty) => {
                        let now = Instant::now();
                        if now >= deadline {
                            break;
                        }
                        match rx.recv_timeout(deadline - now) {
                            Ok(j) => stage_ns += Self::stage(&mut buf, &mut staged, j),
                            Err(RecvTimeoutError::Timeout) => break,
                            Err(RecvTimeoutError::Disconnected) => {
                                disconnected = true;
                                break;
                            }
                        }
                    }
                }
            }
            self.commit_batch(&buf, &staged, stage_ns);
            self.maybe_gc();
            if disconnected {
                return;
            }
        }
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
            orig_len: job.orig_len,
            ctx: job.ctx,
            queued: job.queued,
        });
        t0.elapsed().as_nanos() as u64
    }

    /// Fail a job received while degraded, the way a failed batch fails
    /// its members: the page goes back to memory residence.
    fn fail_job(&self, job: SpillJob) {
        let SpillJob { key, gen, data, .. } = job;
        let payload = data.len();
        // The entry's copy of the payload is the one that goes back.
        drop(data);
        self.publish_failed(std::iter::once((key, gen, payload)));
        self.core.notify_writer_progress();
    }

    /// Publish one job's outcome under its key's shard lock — the only
    /// way an entry leaves `Spilling` while the writer lives — and take
    /// its `payload` bytes out of flight in the same hold. `landed` is
    /// the extent's `(offset, len)` on the file, `None` if its write
    /// failed. An entry still waiting on this generation becomes
    /// `Spilled` (its payload freed here and now) or reverts to memory;
    /// a missing key or a stale generation means the entry was removed
    /// or replaced while the job was queued, and whatever was written
    /// for it is dead bytes. Returns whether a revert took `resident`
    /// past the budget.
    fn publish(&self, key: u64, gen: u64, payload: usize, landed: Option<(u64, u32)>) -> bool {
        let core = &self.core;
        let mut shard = core.shard(key);
        // The payload is freed after the lock is released.
        let (mut freed, mut over_budget) = (None, false);
        let waiting = match shard.entries.get_mut(&key) {
            Some(e) if matches!(e.residence, Residence::Spilling { gen: g, .. } if g == gen) => {
                if let Some((offset, len)) = landed {
                    freed = Some(std::mem::replace(
                        &mut e.residence,
                        Residence::Spilled { offset, len, gen },
                    ));
                }
                true
            }
            _ => false,
        };
        if !waiting {
            core.spill_orphaned.fetch_sub(payload, Ordering::Relaxed);
            if let Some((_, len)) = landed {
                core.spill_dead_bytes
                    .fetch_add(len as u64, Ordering::Relaxed);
            }
        } else if landed.is_none() {
            over_budget = core.revert_to_memory(&mut shard, key);
        }
        core.spill_inflight.fetch_sub(payload, Ordering::Relaxed);
        drop(shard);
        drop(freed);
        over_budget
    }

    /// Publish `(key, generation, payload bytes)` jobs whose write did
    /// not happen, then repair the budget: reverts may overshoot it, and
    /// `shedding` is raised across the overshoot.
    fn publish_failed(&self, jobs: impl Iterator<Item = (u64, u64, usize)>) {
        self.core.shedding.fetch_add(1, Ordering::SeqCst);
        let mut over_budget = false;
        for (key, gen, payload) in jobs {
            over_budget |= self.publish(key, gen, payload, None);
        }
        if over_budget {
            // Shedding only needs shard locks, one at a time; the
            // overshoot window is this one batch.
            self.core.shed_to_budget();
        }
        self.core.shedding.fetch_sub(1, Ordering::SeqCst);
    }

    /// One canary write/read round-trip at the cursor (unallocated
    /// space: the next batch overwrites it). Success ends probation.
    fn probe(&mut self) {
        self.probes += 1;
        self.core.tel.count(0, tstat::MEDIUM_PROBES, 1);
        let canary = *b"cc-medium-probe!";
        let mut back = [0u8; 16];
        let ok = self.medium.write_at(&canary, self.cursor).is_ok()
            && self.medium.flush().is_ok()
            && self.medium.read_at(&mut back, self.cursor).is_ok()
            && back == canary;
        if ok {
            self.consecutive_failures = 0;
            self.core.exit_degraded(self.probes);
            self.probes = 0;
        }
    }

    /// Write the batch at `base` with bounded retry and exponential
    /// backoff; transient failures are counted as retries.
    fn write_with_retry(&self, buf: &[u8], base: u64) -> bool {
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

    /// Write one coalesced batch at the cursor and publish every member
    /// ([`SpillWriter::publish`]). Entries become visible as `Spilled`
    /// only after the whole batch is on the file and journaled. A hard
    /// failure (retries exhausted) reverts every member to memory
    /// residence — rather than losing data or leaving `flush` waiting on
    /// bytes that never leave flight — and advances the degraded-mode
    /// countdown.
    fn commit_batch(&mut self, buf: &[u8], staged: &[StagedJob], stage_ns: u64) {
        let base = self.cursor;
        // Always timed: this thread is off the data path, and the write
        // histogram is what the bench gates sanity-check. A sample is the
        // batch's staging (`stage_ns`: framing and checksums, spread over
        // the linger) plus its write and journal commit.
        let t0 = Instant::now();
        let mut ok = self.write_with_retry(buf, base);
        if ok {
            // Group-commit the location records *after* the data is
            // durable: a journal record must never point at bytes that
            // were not written. If the journal append fails the whole
            // batch fails — the data bytes are orphaned at an
            // unadvanced cursor and the next batch overwrites them.
            ok = self.journal_batch(base, staged);
        }
        if ok {
            self.consecutive_failures = 0;
            self.cursor += buf.len() as u64;
            self.core
                .spill_file_bytes
                .store(self.cursor, Ordering::Relaxed);
            self.core
                .tel
                .record(top::SPILL_WRITE, stage_ns + t0.elapsed().as_nanos() as u64);
            self.core.tel.count(0, tstat::SPILL_BATCHES, 1);
            self.core
                .tel
                .event(tevent::BATCH_COMMIT, staged.len() as u64, buf.len() as u64);
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
                tr.record(
                    0,
                    &Span {
                        trace_id: j.ctx.trace_id,
                        span_id: tr.alloc_span(),
                        parent: j.ctx.parent_span,
                        op: sop::SPILL_WRITE,
                        tier: strier::SPILL,
                        codec: j.codec,
                        status: !ok as u8,
                        start_ns: tr.now_ns(t0),
                        queue_ns,
                        service_ns: write_ns,
                        arg: if ok { base + j.rel as u64 } else { j.key },
                    },
                );
            }
        }
        let payload = |j: &StagedJob| j.len - EXTENT_HEADER;
        if ok {
            for j in staged {
                self.publish(
                    j.key,
                    j.gen,
                    payload(j),
                    Some((base + j.rel as u64, j.len as u32)),
                );
            }
        } else {
            self.publish_failed(staged.iter().map(|j| (j.key, j.gen, payload(j))));
        }
        self.core.notify_writer_progress();
    }

    /// Append one journal PUT record per staged job, plus any tombstones
    /// queued by foreground removes, in a single group-committed write.
    /// Returns `true` on success (or when the store is not persistent).
    fn journal_batch(&self, base: u64, staged: &[StagedJob]) -> bool {
        let Some(p) = &self.core.persist else {
            return true;
        };
        let puts: Vec<JournalRecord> = staged
            .iter()
            .map(|j| JournalRecord {
                kind: jkind::PUT,
                lsn: j.gen,
                key: j.key,
                offset: base + j.rel as u64,
                len: j.len as u32,
                orig_len: j.orig_len,
                codec: j.codec,
            })
            .collect();
        match p.append_commit(&puts) {
            Ok(n) => {
                self.core.tel.count(0, tstat::JOURNAL_RECORDS_WRITTEN, n);
                true
            }
            Err(_) => false,
        }
    }
}
