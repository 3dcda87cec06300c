//! The cleaner: spill-file compaction, run by the writer thread between
//! batches once enough of the file is dead — the paper's fragment
//! garbage collection.

use std::sync::atomic::Ordering;
use std::time::Instant;

use super::shard::Residence;
use super::stats::{tevent, top, tstat};
use super::writer::SpillWriter;
use crate::persist::{jkind, JournalRecord, SUPERBLOCK_RESERVED};
use cc_telemetry::trace::{sop, tier as strier, AnomalyKind, Span};

impl SpillWriter {
    /// Compact the spill file if enough of it is dead. Runs between
    /// batches on this thread — the only one that turns an entry into
    /// `Spilled` and the sole writer of the file — which is what makes
    /// the live-extent snapshot complete and the cursor reset safe.
    ///
    /// Persistent stores add a crash discipline on top: each move
    /// journals a relocation record *before* the copy that might clobber
    /// an earlier extent's old home, a destination is never allowed to
    /// overlap its own source (the old copy stays the fallback until the
    /// new one is provably complete), and the file is truncated only
    /// after every relocation is journaled. A crash at any byte of the
    /// sweep therefore resolves every extent to exactly one valid copy.
    pub(super) fn maybe_gc(&mut self) {
        let dead = self.core.spill_dead_bytes.load(Ordering::Relaxed);
        let min_dead = self.core.cfg.spill_batch_bytes.max(1) as u64;
        // Persistent files reserve the superblock region below the data;
        // compaction packs down to that floor, never into it.
        let floor = if self.core.persist.is_some() {
            SUPERBLOCK_RESERVED
        } else {
            0
        };
        if self.cursor <= floor || dead < min_dead {
            return;
        }
        if (dead as f64) < self.core.cfg.gc_dead_ratio * (self.cursor - floor) as f64 {
            return;
        }
        // The snapshot below sees every live extent: an entry only
        // becomes `Spilled` in `publish`, on this thread, and every batch
        // committed so far was published before this call — the thread
        // that sweeps is the thread that published, and it publishes
        // nothing while it sweeps.
        // Pause clock + relocation meter: the paper's cleaner cost, the
        // modern system's GC stall. Always timed (writer thread).
        let t0 = Instant::now();
        let mut moved = 0u64;
        let mut extents: Vec<(u64, u64, u32, u64, u8, u32)> = Vec::new();
        for s in &self.core.shards {
            let guard = s.0.lock().expect("shard poisoned");
            for (&k, e) in &guard.entries {
                if let Residence::Spilled { offset, len, gen } = e.residence {
                    extents.push((k, offset, len, gen, e.codec, e.orig_len));
                }
            }
        }
        extents.sort_unstable_by_key(|&(_, off, ..)| off);
        let old_len = self.cursor;
        let mut new_cursor = floor;
        let mut buf = Vec::new();
        // Post-sweep location of every surviving extent — the snapshot a
        // journal compaction rewrites the map file from.
        let mut live: Vec<JournalRecord> = Vec::new();
        for (key, old_off, len, gen, codec, orig_len) in extents {
            let record = |offset: u64| JournalRecord {
                kind: jkind::PUT,
                lsn: gen,
                key,
                offset,
                len,
                orig_len,
                codec,
            };
            if old_off == new_cursor {
                // Already compact; nothing to move.
                new_cursor += len as u64;
                live.push(record(old_off));
                continue;
            }
            if floor != 0 && new_cursor + len as u64 > old_off {
                // Persistent non-overlap rule: the destination would
                // reach into the source, destroying the only valid copy
                // before the new one is complete. Leave it in place and
                // accept the gap — a later pass, with more dead space
                // ahead of it, will move it cleanly.
                new_cursor = old_off + len as u64;
                live.push(record(old_off));
                continue;
            }
            buf.resize(len as usize, 0);
            if self.medium.read_at(&mut buf, old_off).is_err() {
                // Abort mid-GC: extents moved so far are already
                // republished and valid; the rest stay where they were.
                return;
            }
            // Copy + republish under the owning shard's lock. A reader
            // validates its (offset, len, gen) snapshot under this same
            // lock *after* its file read, so it can never accept bytes a
            // compaction write clobbered: any clobber of a region implies
            // the extent that lived there was republished first.
            let mut shard = self.core.shard(key);
            let Some(e) = shard.entries.get_mut(&key) else {
                continue; // removed since the snapshot: now dead, skip
            };
            match &mut e.residence {
                Residence::Spilled {
                    offset,
                    len: l,
                    gen: g,
                } if *offset == old_off && *l == len && *g == gen => {
                    // Relocate verbatim, corrupt or not: a live extent
                    // must keep a unique home (skipping it would let a
                    // later relocation clobber it), and the reader's
                    // verification is the integrity authority.
                    //
                    // Persistent: journal the relocation *before* the
                    // copy. Writes hit the platter in issue order under
                    // the power-loss model, so by the time this copy can
                    // clobber an earlier extent's old home, that earlier
                    // extent's own copy and RELOC record are both ahead
                    // of it in the stream — recovery always finds one
                    // valid copy (new if the copy landed, old otherwise,
                    // via the record's previous-offset fallback).
                    if let Some(p) = &self.core.persist {
                        let reloc = JournalRecord {
                            kind: jkind::RELOC,
                            lsn: gen,
                            key,
                            offset: new_cursor,
                            len,
                            orig_len,
                            codec,
                        };
                        match p.append_commit(&[reloc]) {
                            Ok(n) => {
                                self.core.tel.count(0, tstat::JOURNAL_RECORDS_WRITTEN, n);
                            }
                            // Journal down: stop relocating. Everything
                            // moved so far is journaled and republished;
                            // the rest stays put. No truncation.
                            Err(_) => return,
                        }
                    }
                    if self.medium.write_at(&buf, new_cursor).is_err() {
                        return;
                    }
                    *offset = new_cursor;
                    live.push(record(new_cursor));
                    new_cursor += len as u64;
                    moved += len as u64;
                }
                // Replaced since the snapshot: its bytes are dead, skip.
                _ => {}
            }
        }
        let _ = self.medium.flush();
        let _ = self.medium.set_len(new_cursor);
        self.cursor = new_cursor;
        let reclaimed = old_len - new_cursor;
        // Saturating: removes racing the sweep may have counted bytes this
        // pass already reclaimed.
        let _ =
            self.core
                .spill_dead_bytes
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                    Some(d.saturating_sub(reclaimed))
                });
        self.core
            .spill_file_bytes
            .store(new_cursor, Ordering::Relaxed);
        let pause = t0.elapsed().as_nanos() as u64;
        self.core.tel.record(top::GC_PAUSE, pause);
        self.core.tel.count(0, tstat::GC_RUNS, 1);
        self.core.tel.count(0, tstat::GC_BYTES_RELOCATED, moved);
        self.core.tel.event(tevent::GC_RUN, moved, pause);
        if let Some(tr) = self.core.cfg.tracer.as_deref() {
            // Background span: no request trace owns a GC run.
            tr.record(
                0,
                &Span {
                    trace_id: 0,
                    span_id: tr.alloc_span(),
                    parent: 0,
                    op: sop::GC,
                    tier: strier::SPILL,
                    codec: 0,
                    status: 0,
                    start_ns: tr.now_ns(t0),
                    queue_ns: 0,
                    service_ns: pause,
                    arg: moved,
                },
            );
            if pause > tr.gc_pause_threshold().as_nanos() as u64 {
                tr.anomaly(AnomalyKind::GcPause, 0, moved, pause);
            }
        }
        // The sweep shrank the data file and `live` is a complete
        // post-sweep location snapshot — the one moment a journal
        // compaction (rewriting the map file from the snapshot instead
        // of its full history) is both cheap and obviously correct.
        if let Some(p) = &self.core.persist {
            let page_size = self.core.page_size.load(Ordering::Relaxed) as u32;
            if let Ok(true) = p.maybe_compact(&*self.medium, new_cursor, page_size, &live) {
                self.core.tel.count(0, tstat::JOURNAL_COMPACTIONS, 1);
            }
        }
    }
}
