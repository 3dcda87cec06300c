//! The segment table and the cleaner that works on it — the paper's
//! fragment garbage collection, one segment at a time, a batch of it per
//! step.
//!
//! The spill file is cut into fixed-size segments ([`segment_bytes`]).
//! The writer appends batches into one open segment at a time; a batch
//! that does not fit seals it (the unused tail is dead bytes) and starts
//! the next free one. Every death of a spilled extent is charged to the
//! segment it lives in ([`StoreCore::extent_died`]). The writer cleans one
//! sealed segment at a time — the one with the most dead bytes — by
//! re-appending its survivors through the normal batch commit, one batch
//! of them between each two spill batches, and then freeing it for reuse
//! ([`SpillWriter::clean_step`]): the segment cleaner of LFS (Rosenblum &
//! Ousterhout, SOSP '91), working at the paper's §4.3 batch size.
//!
//! Every batch carries a summary ([`crate::persist`]), and the table keeps,
//! per segment, the `(key, generation)` of each extent and the tombstones
//! its summaries hold. Cleaning carries a tombstone forward only while an
//! older copy of its key may still be on the file
//! ([`SpillWriter::carried`]), and freeing a segment first invalidates its
//! first summary on the file: otherwise recovery would walk a freed but
//! not yet rewritten segment and resurrect keys whose tombstones were
//! dropped.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::Ordering;
use std::sync::MutexGuard;
use std::time::Instant;

use super::core::StoreCore;
use super::extent::verify_extent;
use super::shard::{KeyHasher, Residence};
use super::stats::{top, tstat};
use super::writer::{SpillWriter, StagedJob};
#[cfg(doc)]
use super::StoreConfig;
use crate::persist::{RecoveredSegment, Tombstone, SUMMARY_HEAD, SUPERBLOCK_RESERVED};
use cc_telemetry::trace::{sop, tier as strier, AnomalyKind, TraceCtx};

/// A segment holds this many [`StoreConfig::spill_batch_bytes`] batches:
/// 1 MiB at the 32 KB default.
const SEGMENT_BATCHES: u64 = 32;

/// The smallest segment, so a store with tiny batches (down to one byte)
/// still seals segments the cleaner can take.
const SEGMENT_FLOOR: u64 = 16 * 1024;

/// Bytes per segment for a store that writes `batch_bytes` batches.
pub(super) fn segment_bytes(batch_bytes: usize) -> u64 {
    (SEGMENT_BATCHES * batch_bytes.max(1) as u64).max(SEGMENT_FLOOR)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SegState {
    /// Holds nothing anyone names; reused before the file grows.
    Free,
    /// The one segment batches are appended to.
    Open,
    /// Full, or cut short by a batch that did not fit: only deaths and
    /// the cleaner change it.
    Sealed,
}

pub(super) struct Segment {
    state: SegState,
    /// Bytes written from the segment's start; a sealed segment counts
    /// whole, its unused tail as dead.
    used: u64,
    /// Bytes of `used` no entry names.
    dead: u64,
    /// Part of a run of segments holding a batch larger than one: an
    /// extent may cross its boundaries, so it is freed only once empty.
    run: bool,
    /// `(key, generation)` of the extents written into it, dead ones
    /// included: the cleaner looks each key up to find the survivors,
    /// and a generation below a tombstone's LSN keeps that tombstone on
    /// the file.
    pub(super) keys: Vec<(u64, u64)>,
    /// Tombstones its summaries hold.
    pub(super) tombs: Vec<Tombstone>,
}

impl Segment {
    fn free() -> Segment {
        Segment {
            state: SegState::Free,
            used: 0,
            dead: 0,
            run: false,
            keys: Vec::new(),
            tombs: Vec::new(),
        }
    }
}

/// Where the next batch goes ([`Segments::place`]). The writer is the
/// only thread that changes placement, so a placement stays valid until
/// it commits it.
#[derive(Clone, Copy)]
pub(super) struct Placement {
    pub(super) offset: u64,
    seg: usize,
    /// Segments the batch takes: 1, or a run for a batch larger than one.
    count: usize,
    /// Whether the batch starts a segment instead of appending to the
    /// open one.
    fresh: bool,
}

/// The spill file's segments, behind [`StoreCore::segments`]: a leaf
/// lock, taken after a shard lock, never before one.
pub(super) struct Segments {
    seg_bytes: u64,
    pub(super) segs: Vec<Segment>,
    open: Option<usize>,
    /// Σ `used` over non-free segments: `bytes_on_spill`.
    on_spill: u64,
    /// Σ `dead`: `spill_dead_bytes`.
    dead: u64,
}

impl Segments {
    pub(super) fn new(seg_bytes: u64) -> Segments {
        Segments {
            seg_bytes,
            segs: Vec::new(),
            open: None,
            on_spill: 0,
            dead: 0,
        }
    }

    /// The table of a recovered file: `written` is what the walk found
    /// in each segment up to the end of the file, `extents` (offset, len)
    /// the live ones. A segment holding a summary or a live byte is
    /// sealed, the rest are free.
    pub(super) fn recovered(
        seg_bytes: u64,
        written: Vec<RecoveredSegment>,
        extents: impl Iterator<Item = (u64, u32)>,
    ) -> Segments {
        let mut t = Segments::new(seg_bytes);
        t.segs = (written.into_iter())
            .map(|w| Segment {
                keys: w.keys,
                tombs: w.tombs,
                ..Segment::free()
            })
            .collect();
        let mut live = vec![0u64; t.segs.len()];
        for (offset, len) in extents {
            let (first, last) = t.span(offset, len as u64);
            if last >= t.segs.len() {
                t.segs.resize_with(last + 1, Segment::free);
                live.resize(last + 1, 0);
            }
            for (i, l) in (first..=last).zip(&mut live[first..=last]) {
                *l += t.overlap(i, offset, len as u64);
                t.segs[i].run |= first != last;
            }
        }
        for (s, live) in t.segs.iter_mut().zip(live) {
            if live > 0 || !s.keys.is_empty() || !s.tombs.is_empty() {
                s.state = SegState::Sealed;
                s.used = seg_bytes;
                s.dead = seg_bytes - live;
                t.on_spill += s.used;
                t.dead += s.dead;
            }
        }
        t
    }

    pub(super) fn seg_bytes(&self) -> u64 {
        self.seg_bytes
    }

    /// Where the segments end: no extent lies past it.
    pub(super) fn high_water(&self) -> u64 {
        self.start(self.segs.len())
    }

    /// File offset of segment `seg`'s first byte.
    fn start(&self, seg: usize) -> u64 {
        SUPERBLOCK_RESERVED + seg as u64 * self.seg_bytes
    }

    /// First and last segment `[offset, offset + len)` touches (an
    /// offset inside the superblock region, which only a damaged summary
    /// can name, counts as segment 0; `check` reports it).
    fn span(&self, offset: u64, len: u64) -> (usize, usize) {
        let at = |o: u64| (o.saturating_sub(SUPERBLOCK_RESERVED) / self.seg_bytes) as usize;
        (at(offset), at(offset + len.max(1) - 1))
    }

    /// Bytes of `[offset, offset + len)` inside segment `seg`.
    fn overlap(&self, seg: usize, offset: u64, len: u64) -> u64 {
        let start = self.start(seg);
        (offset + len)
            .min(start + self.seg_bytes)
            .saturating_sub(offset.max(start))
    }

    /// Count `[offset, offset + len)` dead (`true`) or live again.
    fn charge(&mut self, offset: u64, len: u64, dead: bool) {
        if len == 0 {
            return;
        }
        let (first, last) = self.span(offset, len);
        for i in first..=last {
            let bytes = self.overlap(i, offset, len);
            let s = &mut self.segs[i];
            if dead {
                s.dead += bytes;
                self.dead += bytes;
            } else {
                s.dead -= bytes;
                self.dead -= bytes;
            }
        }
    }

    /// Where a batch of `len` bytes goes: the open segment if it fits,
    /// else the lowest free segment — for a batch larger than a segment,
    /// the lowest run of enough contiguous free ones — or new ones past
    /// the high-water mark.
    pub(super) fn place(&self, len: u64) -> Placement {
        if let Some(o) = self.open {
            if self.segs[o].used + len <= self.seg_bytes {
                return Placement {
                    offset: self.start(o) + self.segs[o].used,
                    seg: o,
                    count: 1,
                    fresh: false,
                };
            }
        }
        let count = len.div_ceil(self.seg_bytes).max(1) as usize;
        let free = |run: &[Segment]| run.iter().all(|s| s.state == SegState::Free);
        let seg = (0..self.segs.len())
            .find(|&i| self.segs.get(i..i + count).is_some_and(free))
            .unwrap_or(self.segs.len());
        Placement {
            offset: self.start(seg),
            seg,
            count,
            fresh: true,
        }
    }

    /// Account a batch of `len` bytes written at `p`, holding the extents
    /// `keys` — `(key, generation)` each — and the tombstones `tombs`.
    /// Its first `dead` bytes no entry names: its summary, or — for a
    /// relocation batch, whose survivors are republished one by one —
    /// all of it.
    pub(super) fn commit(
        &mut self,
        p: Placement,
        len: u64,
        keys: impl Iterator<Item = (u64, u64)>,
        tombs: &[Tombstone],
        dead: u64,
    ) {
        let seg = self.seg_bytes;
        if p.count > 1 {
            // A run is sealed at once; its last segment's tail is a gap.
            for i in p.seg..p.seg + p.count {
                if i == self.segs.len() {
                    self.segs.push(Segment::free());
                }
                let s = &mut self.segs[i];
                s.state = SegState::Sealed;
                s.used = seg;
                s.run = true;
            }
            self.on_spill += p.count as u64 * seg;
            self.charge(p.offset + len, p.count as u64 * seg - len, true);
        } else {
            if p.fresh {
                if let Some(o) = self.open.take() {
                    // Sealed short: nobody will ever name its tail. Its
                    // lists are final, so they keep no spare capacity.
                    let s = &mut self.segs[o];
                    let gap = seg - s.used;
                    s.used = seg;
                    s.dead += gap;
                    s.state = SegState::Sealed;
                    s.keys.shrink_to_fit();
                    s.tombs.shrink_to_fit();
                    self.on_spill += gap;
                    self.dead += gap;
                }
                if p.seg == self.segs.len() {
                    self.segs.push(Segment::free());
                }
                self.segs[p.seg].state = SegState::Open;
                self.open = Some(p.seg);
            }
            self.segs[p.seg].used += len;
            self.on_spill += len;
        }
        self.segs[p.seg].keys.extend(keys);
        self.segs[p.seg].tombs.extend_from_slice(tombs);
        self.charge(p.offset, dead, true);
    }

    /// The segment to clean next, if the file is dead enough: while
    /// `dead ≥ ratio × bytes_on_spill` (never for a ratio of 1.0 or
    /// more), the sealed segment with the most dead bytes, provided it
    /// is itself at least `ratio` dead and has at least `min_dead`. The
    /// second rule keeps a small live set from being copied round and
    /// round: a segment is not moved to reclaim a sliver of it. A run
    /// segment qualifies only once empty.
    fn victim(&self, ratio: f64, min_dead: u64) -> Option<usize> {
        if ratio >= 1.0 || self.dead < min_dead || (self.dead as f64) < ratio * self.on_spill as f64
        {
            return None;
        }
        let floor = min_dead.max((ratio * self.seg_bytes as f64) as u64);
        self.segs
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.state == SegState::Sealed && s.dead >= floor && (!s.run || s.dead == s.used)
            })
            .max_by_key(|(_, s)| s.dead)
            .map(|(i, _)| i)
    }

    /// Return a cleaned segment to the free set. Every extent in it was
    /// republished elsewhere or died first, so all of it is dead.
    fn free(&mut self, seg: usize) {
        let s = &mut self.segs[seg];
        debug_assert_eq!(s.dead, s.used, "freeing segment {seg} with live bytes");
        self.on_spill -= s.used;
        self.dead -= s.dead;
        s.state = SegState::Free;
        s.used = 0;
        s.dead = 0;
        s.run = false;
        s.keys.clear();
        s.tombs.clear();
    }

    /// Whether no entry names a byte of sealed segment `i`: freeing it
    /// needs nothing read or copied.
    fn is_empty(&self, i: usize) -> bool {
        let s = &self.segs[i];
        s.state == SegState::Sealed && s.dead == s.used
    }

    /// The on-file identities, for [`StoreCore::check_invariants`] at a
    /// moment when no entry is `Spilling` and no job is orphaned, given
    /// every live extent as `[start, end)`: each segment's live bytes are
    /// exactly the live extents inside it, `bytes_on_spill −
    /// spill_dead_bytes` is their sum, no extent sits in a free segment,
    /// and only an extent inside a run crosses a segment boundary. It
    /// does not bound the tombstones held by the extent records listed:
    /// removes break that bound until the cleaner reaches their segment
    /// (`held_tombstones_may_outnumber_listed_extents_after_removes`).
    pub(super) fn check(&self, extents: &[(u64, u64)]) -> Result<(), String> {
        let mut live = vec![0u64; self.segs.len()];
        for &(a, b) in extents {
            let (first, last) = self.span(a, b - a);
            if a < SUPERBLOCK_RESERVED || last >= self.segs.len() {
                return Err(format!("spilled extent {:?} outside the segments", (a, b)));
            }
            if first != last && !(first..=last).all(|i| self.segs[i].run) {
                return Err(format!(
                    "spilled extent {:?} crosses a segment boundary outside a run",
                    (a, b)
                ));
            }
            for (i, l) in (first..=last).zip(&mut live[first..=last]) {
                if self.segs[i].state == SegState::Free {
                    return Err(format!("spilled extent {:?} in free segment {i}", (a, b)));
                }
                *l += self.overlap(i, a, b - a);
            }
        }
        let (mut used, mut dead) = (0, 0);
        for (i, (s, &live)) in self.segs.iter().zip(&live).enumerate() {
            if s.used.checked_sub(s.dead) != Some(live) {
                return Err(format!(
                    "segment {i} ({:?}): {} used − {} dead but live extents hold {live}",
                    s.state, s.used, s.dead
                ));
            }
            used += s.used;
            dead += s.dead;
        }
        let total: u64 = live.iter().sum();
        if (used, dead) != (self.on_spill, self.dead) || self.on_spill - self.dead != total {
            return Err(format!(
                "bytes_on_spill {} − spill_dead_bytes {} but live extents hold {total} (segments: {used} used, {dead} dead)",
                self.on_spill, self.dead
            ));
        }
        Ok(())
    }
}

impl StoreCore {
    pub(super) fn segments(&self) -> MutexGuard<'_, Segments> {
        self.segments.lock().expect("segment table poisoned")
    }

    /// Publish the table's totals to the `bytes_on_spill` and
    /// `spill_dead_bytes` gauges; called under the table lock after
    /// every change, so the gauges only ever show a whole change.
    pub(super) fn mirror(&self, t: &Segments) {
        self.spill_file_bytes.store(t.on_spill, Ordering::Relaxed);
        self.spill_dead_bytes.store(t.dead, Ordering::Relaxed);
    }

    /// The one way a spilled extent dies: its entry was removed, replaced
    /// or promoted, or its job's publish found the entry gone. Charges
    /// its bytes to its segment and to the gauge together. Called under
    /// the key's shard lock, in the hold that stopped naming the extent.
    pub(super) fn extent_died(&self, offset: u64, len: u32) {
        let mut t = self.segments();
        t.charge(offset, len as u64, true);
        self.mirror(&t);
    }

    /// A survivor's entry now names its copy at `to` instead of `from`
    /// (under its shard lock, like [`StoreCore::extent_died`]).
    fn extent_moved(&self, from: u64, to: u64, len: u32) {
        let mut t = self.segments();
        t.charge(from, len as u64, true);
        t.charge(to, len as u64, false);
        self.mirror(&t);
    }
}

/// A segment being cleaned: the survivors found when it was chosen, in
/// file order, and how far the steps so far have copied them. Held by
/// the writer between its turns; the segment stays sealed throughout.
pub(super) struct Cleaning {
    /// The victim, first, and — when no entry names a byte of it —
    /// every other sealed segment no entry names a byte of (the rest of
    /// a dead run, say): all of them are freed together.
    segs: Vec<usize>,
    /// File offset of the victim's first byte.
    start: u64,
    /// `rel` is each survivor's offset in the segment.
    survivors: Vec<StagedJob>,
    /// Survivors before this one are copied.
    next: usize,
    /// Tombstones to carry forward ([`SpillWriter::carried`]); they ride
    /// with the first batch the cleaning writes.
    tombs: Vec<Tombstone>,
}

impl SpillWriter {
    /// One cleaning step, run between batches on this thread: copy the
    /// next batch of survivors out of the segment being cleaned —
    /// choosing one first, if the file is dead enough, the sealed segment
    /// with the most dead bytes — and free the segment once the last of
    /// them is copied. A batch is as many survivors, in file order, as
    /// fit one [`StoreConfig::spill_batch_bytes`] batch (at least one,
    /// whatever its length), re-appended verbatim through the normal
    /// batch commit and republished ([`SpillWriter::copy_batch`]). One
    /// step is one `gc_runs` and copies at most one batch, so the
    /// writer's pause behind the cleaner is one relocation batch, and the
    /// cleaner's buffer two batches, not a segment.
    ///
    /// A survivor is an extent its entry named when the segment was
    /// chosen, checked under the entry's shard lock; republishing follows
    /// `publish`'s rule — the entry moves only if it still names the old
    /// copy, otherwise the new copy is dead bytes. The victim is freed
    /// only after every survivor's copy, and every tombstone it carries,
    /// is written and flushed — the copy's summary names the same `(key,
    /// generation)` again — and every survivor is republished; then its
    /// first summary is invalidated
    /// ([`SpillWriter::release`]). A reader that read the old copy
    /// therefore finds its entry moved before any byte of the victim can
    /// be reused, and a crash at any byte resolves every extent to one
    /// valid copy: the old one until the victim is invalidated, either
    /// one while both are on the file. The copy never overlaps its
    /// source, which stays sealed until freed.
    pub(super) fn clean_step(&mut self) {
        let t0 = Instant::now();
        let Some(mut c) = self.cleaning.take().or_else(|| self.choose_victim()) else {
            return;
        };
        let Some(moved) = self.copy_batch(&mut c) else {
            // Aborted: the survivors not yet copied stay where they are,
            // and a later step starts over on whichever segment is then
            // the emptiest. A relocation batch that failed left nothing
            // any entry names.
            return;
        };
        if c.next < c.survivors.len() {
            self.cleaning = Some(c);
        } else {
            if !self.release(&c.segs) {
                // Everything is copied; a later step retries the free.
                self.cleaning = Some(c);
            }
        }
        self.record_step(t0, moved);
    }

    /// Return cleaned segments to the free set. Their starts are
    /// overwritten first, so no walk of the file finds their summaries
    /// again; if that write fails, nothing is freed.
    fn release(&self, segs: &[usize]) -> bool {
        let t = self.core.segments();
        let starts: Vec<u64> = segs.iter().map(|&s| t.start(s)).collect();
        drop(t);
        let blank = [0u8; SUMMARY_HEAD];
        if !starts.iter().all(|&at| self.write_with_retry(&blank, at)) {
            return false;
        }
        let mut t = self.core.segments();
        for &s in segs {
            t.free(s);
        }
        self.core.mirror(&t);
        true
    }

    /// The segment to clean next, if the file is dead enough, with its
    /// survivors looked up and the tombstones it must carry. An empty
    /// victim had the most dead bytes a segment can: every other empty
    /// one goes with it. Only this thread makes a byte live, so an empty
    /// segment stays empty until it is freed.
    fn choose_victim(&self) -> Option<Cleaning> {
        let cfg = &self.core.cfg;
        let (segs, start, end, keys) = {
            let t = self.core.segments();
            let v = t.victim(cfg.gc_dead_ratio, cfg.spill_batch_bytes.max(1) as u64)?;
            let mut segs = vec![v];
            if t.is_empty(v) {
                segs.extend((0..t.segs.len()).filter(|&i| i != v && t.is_empty(i)));
            }
            let start = t.start(v);
            (segs, start, start + t.seg_bytes, t.segs[v].keys.clone())
        };
        let tombs = self.carried(&segs);
        let mut survivors: Vec<StagedJob> = Vec::new();
        for (key, _) in keys {
            let shard = self.core.shard(key);
            let Some(e) = shard.get(key) else {
                continue;
            };
            if let Residence::Spilled { offset, len, gen } = e.residence {
                if (start..end).contains(&offset) {
                    survivors.push(StagedJob {
                        key,
                        gen,
                        rel: (offset - start) as usize,
                        len: len as usize,
                        codec: e.codec,
                        data: None,
                        ctx: TraceCtx::NONE,
                        queued: None,
                    });
                }
            }
        }
        survivors.sort_unstable_by_key(|j| j.rel);
        survivors.dedup_by_key(|j| j.rel);
        Some(Cleaning {
            segs,
            start,
            survivors,
            next: 0,
            tombs,
        })
    }

    /// The tombstones of the segments `gone` that must outlive them. Of
    /// a key's, only the newest `(k, L)` counts: it kills all that the
    /// older ones do. It is carried only if a segment that stays
    /// allocated lists an extent `(k, g)` with `g < L` — a copy it still
    /// kills — and none holds a newer tombstone of `k`, which kills that
    /// copy too and is carried by the same rule when its own segment is
    /// cleaned. The rule reads the file's lists, not the entries: a
    /// promotion kills a spilled extent without a tombstone, so an
    /// entry's residence says nothing about which of its older copies
    /// are still on the file.
    ///
    /// One pass over the other segments' lists, against a map of the
    /// tombstones in `gone`. Each segment's lists are copied out in one
    /// hold of the table's lock and read after it: only this thread
    /// changes the lists and the free set, so they hold still between
    /// the holds, and a foreground death, which takes the lock to charge
    /// its bytes, waits for one copy at most.
    fn carried(&self, gone: &[usize]) -> Vec<Tombstone> {
        // Key → (newest LSN, an older copy is listed).
        let mut newest: HashMap<u64, (u64, bool), BuildHasherDefault<KeyHasher>> =
            HashMap::default();
        let (mut keys, mut tombs) = (Vec::new(), Vec::new());
        let segs = {
            let t = self.core.segments();
            for &(key, lsn) in gone.iter().flat_map(|&v| &t.segs[v].tombs) {
                let n = newest.entry(key).or_insert((lsn, false));
                n.0 = n.0.max(lsn);
            }
            t.segs.len()
        };
        for i in (0..segs).filter(|i| !gone.contains(i)) {
            if newest.is_empty() {
                break;
            }
            {
                let t = self.core.segments();
                let s = &t.segs[i];
                if s.state == SegState::Free {
                    continue;
                }
                keys.clone_from(&s.keys);
                tombs.clone_from(&s.tombs);
            }
            for (key, gen) in &keys {
                if let Some(n) = newest.get_mut(key) {
                    n.1 |= *gen < n.0;
                }
            }
            for (key, lsn) in &tombs {
                if newest.get(key).is_some_and(|n| *lsn > n.0) {
                    newest.remove(key);
                }
            }
        }
        (newest.into_iter())
            .filter(|(_, (_, older))| *older)
            .map(|(key, (lsn, _))| (key, lsn))
            .collect()
    }

    /// Copy `c`'s next batch of survivors, with the tombstones it still
    /// carries, and republish them. The batch is packed from windows of
    /// the segment, each one `read_at` of at most a batch of file
    /// starting at the next survivor, until the next survivor would
    /// overflow it (the first always goes, whatever its length). Each
    /// survivor is verified as read, so a damaged read is never copied
    /// onto the file. Returns the bytes copied (0 once nothing is left),
    /// or `None` if a read failed or came back damaged, or the write
    /// failed.
    fn copy_batch(&mut self, c: &mut Cleaning) -> Option<u64> {
        if c.next == c.survivors.len() && c.tombs.is_empty() {
            return Some(0);
        }
        let batch = self.core.cfg.spill_batch_bytes.max(1);
        let mut buf = std::mem::take(&mut self.clean_buf);
        buf.clear();
        let mut old = Vec::new();
        let mut i = c.next;
        while i < c.survivors.len() {
            // The window: survivors within a batch of file of the first,
            // as many as the batch being packed still holds.
            let (w, from) = (buf.len(), c.survivors[i].rel);
            let mut j = i;
            let mut packed = w;
            for s in &c.survivors[i..] {
                let spans = s.rel + s.len - from <= batch;
                let fits = packed == 0 || packed + s.len <= batch;
                if !fits || (j > i && !spans) {
                    break;
                }
                packed += s.len;
                j += 1;
            }
            if j == i {
                break;
            }
            let end = c.survivors[j - 1].rel + c.survivors[j - 1].len;
            buf.resize(w + end - from, 0);
            // A read can fail, or come back damaged: either way nothing
            // is copied, and a later step reads the window again.
            let read = self.medium.read_at(&mut buf[w..], c.start + from as u64);
            let sound = read.is_ok()
                && c.survivors[i..j].iter().all(|s| {
                    let at = w + s.rel - from;
                    verify_extent(&buf[at..at + s.len], s.gen, s.codec).is_some()
                });
            if !sound {
                self.clean_buf = buf;
                return None;
            }
            // Pack the window's survivors behind the batch so far, in
            // place: none moves past its own bytes.
            let mut p = w;
            for s in &mut c.survivors[i..j] {
                let at = w + s.rel - from;
                buf.copy_within(at..at + s.len, p);
                old.push(c.start + s.rel as u64);
                s.rel = p;
                p += s.len;
            }
            buf.truncate(p);
            i = j;
        }
        let staged = &c.survivors[c.next..i];
        let base = self.write_batch(&buf, staged, &c.tombs, true);
        let moved = buf.len() as u64;
        // A survivor longer than a batch grew the buffer: keep two
        // batches' worth, the most a batch and a window take.
        buf.clear();
        buf.shrink_to(2 * batch);
        self.clean_buf = buf;
        let base = base?;
        c.tombs.clear();
        for (j, &old) in staged.iter().zip(&old) {
            let mut shard = self.core.shard(j.key);
            let Some(e) = shard.get_mut(j.key) else {
                continue;
            };
            match &mut e.residence {
                Residence::Spilled { offset, len, gen }
                    if (*offset, *len as usize, *gen) == (old, j.len, j.gen) =>
                {
                    *offset = base + j.rel as u64;
                    self.core.extent_moved(old, *offset, *len);
                }
                // Removed or replaced since it was found: its new copy
                // stays dead, its old one was charged when it died.
                _ => {}
            }
        }
        c.next = i;
        Some(moved)
    }

    /// Telemetry for one cleaning step: one `gc_runs`, one pause sample
    /// and one background span.
    fn record_step(&self, t0: Instant, moved: u64) {
        let core = &self.core;
        let pause = core.record_pause(top::GC_PAUSE, sop::GC, strier::SPILL, t0, moved);
        core.tel.count(0, tstat::GC_RUNS, 1);
        core.tel.count(0, tstat::GC_BYTES_RELOCATED, moved);
        if let Some(tr) = core.cfg.tracer.as_deref() {
            if pause > tr.gc_pause_threshold().as_nanos() as u64 {
                tr.anomaly(AnomalyKind::GcPause, 0, moved, pause);
            }
        }
    }
}
