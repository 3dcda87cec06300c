//! The circular buffer of physical frames holding compressed pages.
//!
//! §4.2: *"memory for the compression cache is now treated as a
//! variable-sized circular buffer. Physical pages are mapped into the
//! kernel's virtual address space, one after another, eventually wrapping
//! around to the start of the range of addresses for the compression
//! cache... When VM pages are compressed, they are compressed directly
//! into the first unused region within the compression cache, following
//! the last page that had been added to the cache."*
//!
//! The model is byte-accurate: the VA range is `max_slots` page-sized
//! slots; a monotonically increasing byte cursor maps to `(cursor /
//! page_bytes) % max_slots`. Compressed entries (header + data) are
//! appended at the cursor and may span slot boundaries. Each slot tracks
//! the number of *live* entry bytes it holds; a mapped slot with zero live
//! bytes is reclaimable (the paper's `free`/`clean` frame states), whether
//! it is at the oldest end or in the middle ("They may be removed from the
//! middle if no clean pages are available at the oldest end").
//!
//! Entry contents are physically scattered into the frames' bytes via
//! [`CircBuf::write_bytes`]; faults read them back with
//! [`CircBuf::read_bytes`], so any layout bug corrupts page data and is
//! caught by the end-to-end integrity tests.

use crate::mem::{FrameId, FramePool};

/// Per-slot state of the cache's VA range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// No frame mapped at this VA slot.
    Unmapped,
    /// A frame is mapped; `live_bytes` of it belong to live entries.
    Mapped {
        /// The physical frame.
        frame: FrameId,
        /// Bytes of live compressed entries overlapping this slot.
        live_bytes: u32,
    },
}

/// Result of probing whether an append of a given size can proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendProbe {
    /// Space is available; `append` will succeed.
    Ready,
    /// The VA slot `slot` needs a frame mapped first.
    NeedFrame {
        /// Slot index requiring a frame.
        slot: usize,
    },
    /// Slot `slot` still holds live data from the previous lap; the caller
    /// must drop or clean the oldest entries first.
    Blocked {
        /// Slot index blocked by live data.
        slot: usize,
    },
}

/// The circular buffer.
#[derive(Debug, Clone)]
pub struct CircBuf {
    page_bytes: usize,
    slots: Vec<SlotState>,
    /// Absolute (non-wrapped) byte offset of the next append.
    cursor: u64,
    mapped: usize,
}

impl CircBuf {
    /// A buffer over `max_slots` VA slots of `page_bytes` each.
    pub fn new(max_slots: usize, page_bytes: usize) -> Self {
        assert!(max_slots > 0 && page_bytes > 0);
        CircBuf {
            page_bytes,
            slots: vec![SlotState::Unmapped; max_slots],
            cursor: 0,
            mapped: 0,
        }
    }

    /// Number of VA slots.
    pub fn max_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently mapped frames.
    pub fn mapped_frames(&self) -> usize {
        self.mapped
    }

    /// Bytes per slot/frame.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    /// The absolute append cursor (diagnostics).
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// Slot index of an absolute byte offset.
    pub fn slot_of(&self, off: u64) -> usize {
        ((off / self.page_bytes as u64) % self.slots.len() as u64) as usize
    }

    /// State of a slot.
    pub fn slot(&self, idx: usize) -> SlotState {
        self.slots[idx]
    }

    /// Slots (ordered) covered by `len` bytes starting at `off`.
    fn covering(&self, off: u64, len: usize) -> impl Iterator<Item = usize> + '_ {
        let pb = self.page_bytes as u64;
        let first = off / pb;
        let last = (off + len as u64 - 1) / pb;
        let n = self.slots.len() as u64;
        (first..=last).map(move |s| (s % n) as usize)
    }

    /// Probe whether `len` bytes can be appended at the cursor.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or cannot fit in the buffer at all.
    pub fn probe(&self, len: usize) -> AppendProbe {
        assert!(len > 0, "zero-length append");
        assert!(
            len <= (self.slots.len() - 1) * self.page_bytes,
            "entry of {len} bytes can never fit"
        );
        // The cursor's own slot may hold live bytes of entries appended
        // earlier this lap — but only if the cursor is strictly inside the
        // slot (something was already written there this lap). At an exact
        // slot boundary, any live bytes are previous-lap data and block.
        let mut exempt_first = !self.cursor.is_multiple_of(self.page_bytes as u64);
        for slot in self.covering(self.cursor, len) {
            match self.slots[slot] {
                SlotState::Unmapped => return AppendProbe::NeedFrame { slot },
                SlotState::Mapped { live_bytes, .. } => {
                    if !exempt_first && live_bytes > 0 {
                        return AppendProbe::Blocked { slot };
                    }
                }
            }
            exempt_first = false;
        }
        AppendProbe::Ready
    }

    /// Append `len` bytes, returning their absolute start offset. The
    /// bytes are *reserved* (and should then be written via
    /// [`CircBuf::write_bytes`] and made live via [`CircBuf::add_live`]).
    ///
    /// # Panics
    ///
    /// Panics if [`CircBuf::probe`] would not return `Ready`.
    pub fn append(&mut self, len: usize) -> u64 {
        match self.probe(len) {
            AppendProbe::Ready => {}
            other => panic!("append of {len} not ready: {other:?}"),
        }
        let start = self.cursor;
        self.cursor += len as u64;
        start
    }

    /// Map `frame` at `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already mapped.
    pub fn map_slot(&mut self, slot: usize, frame: FrameId) {
        assert!(
            matches!(self.slots[slot], SlotState::Unmapped),
            "slot {slot} already mapped"
        );
        self.slots[slot] = SlotState::Mapped {
            frame,
            live_bytes: 0,
        };
        self.mapped += 1;
    }

    /// Unmap `slot`, returning its frame. Only legal when the slot has no
    /// live bytes and is not the cursor's slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is unmapped, has live data, or holds the cursor.
    pub fn unmap_slot(&mut self, slot: usize) -> FrameId {
        assert_ne!(
            slot,
            self.slot_of(self.cursor),
            "cannot unmap the cursor slot"
        );
        match self.slots[slot] {
            SlotState::Mapped { frame, live_bytes } => {
                assert_eq!(live_bytes, 0, "unmap of slot {slot} with live data");
                self.slots[slot] = SlotState::Unmapped;
                self.mapped -= 1;
                frame
            }
            SlotState::Unmapped => panic!("unmap of unmapped slot {slot}"),
        }
    }

    /// Unmap the cursor's own slot. Only legal when the buffer holds no
    /// live bytes at all — used when the cache shrinks to nothing.
    ///
    /// # Panics
    ///
    /// Panics if any live bytes remain or the slot is unmapped.
    pub fn unmap_cursor_slot_when_empty(&mut self) -> FrameId {
        assert_eq!(self.total_live_bytes(), 0, "buffer not empty");
        let slot = self.slot_of(self.cursor);
        match self.slots[slot] {
            SlotState::Mapped { frame, live_bytes } => {
                assert_eq!(live_bytes, 0);
                self.slots[slot] = SlotState::Unmapped;
                self.mapped -= 1;
                frame
            }
            SlotState::Unmapped => panic!("cursor slot not mapped"),
        }
    }

    /// A mapped slot with no live bytes that is not the cursor slot —
    /// a donor for remapping or release. Prefers the slot furthest behind
    /// the cursor (the "oldest end").
    pub fn reclaimable_slot(&self) -> Option<usize> {
        let cursor_slot = self.slot_of(self.cursor);
        let n = self.slots.len();
        // Walk forward from just past the cursor slot: in circular order
        // that is the oldest region first.
        (1..n)
            .map(|d| (cursor_slot + d) % n)
            .find(|&s| matches!(self.slots[s], SlotState::Mapped { live_bytes: 0, .. }))
    }

    /// Account `len` bytes at `start` as live.
    pub fn add_live(&mut self, start: u64, len: usize) {
        self.adjust_live(start, len, true);
    }

    /// Account `len` bytes at `start` as dead (entry dropped/superseded).
    pub fn sub_live(&mut self, start: u64, len: usize) {
        self.adjust_live(start, len, false);
    }

    fn adjust_live(&mut self, start: u64, len: usize, add: bool) {
        let pb = self.page_bytes as u64;
        let mut off = start;
        let end = start + len as u64;
        while off < end {
            let slot = self.slot_of(off);
            let in_slot = (pb - off % pb).min(end - off) as u32;
            match &mut self.slots[slot] {
                SlotState::Mapped { live_bytes, .. } => {
                    if add {
                        *live_bytes += in_slot;
                        assert!(*live_bytes <= pb as u32, "slot {slot} over-committed");
                    } else {
                        *live_bytes = live_bytes
                            .checked_sub(in_slot)
                            .unwrap_or_else(|| panic!("slot {slot} live underflow"));
                    }
                }
                SlotState::Unmapped => panic!("live accounting on unmapped slot {slot}"),
            }
            off += in_slot as u64;
        }
    }

    /// Scatter `data` into the mapped frames at absolute offset `start`.
    ///
    /// # Panics
    ///
    /// Panics if any covered slot is unmapped.
    pub fn write_bytes(&self, pool: &mut FramePool, start: u64, data: &[u8]) {
        let pb = self.page_bytes as u64;
        let mut off = start;
        let mut written = 0usize;
        while written < data.len() {
            let slot = self.slot_of(off);
            let frame = match self.slots[slot] {
                SlotState::Mapped { frame, .. } => frame,
                SlotState::Unmapped => panic!("write through unmapped slot {slot}"),
            };
            let in_frame_off = (off % pb) as usize;
            let chunk = (pb as usize - in_frame_off).min(data.len() - written);
            pool.data_mut(frame)[in_frame_off..in_frame_off + chunk]
                .copy_from_slice(&data[written..written + chunk]);
            written += chunk;
            off += chunk as u64;
        }
    }

    /// Gather `out.len()` bytes from the mapped frames at `start`.
    ///
    /// # Panics
    ///
    /// Panics if any covered slot is unmapped.
    pub fn read_bytes(&self, pool: &FramePool, start: u64, out: &mut [u8]) {
        let pb = self.page_bytes as u64;
        let mut off = start;
        let mut read = 0usize;
        while read < out.len() {
            let slot = self.slot_of(off);
            let frame = match self.slots[slot] {
                SlotState::Mapped { frame, .. } => frame,
                SlotState::Unmapped => panic!("read through unmapped slot {slot}"),
            };
            let in_frame_off = (off % pb) as usize;
            let chunk = (pb as usize - in_frame_off).min(out.len() - read);
            out[read..read + chunk]
                .copy_from_slice(&pool.data(frame)[in_frame_off..in_frame_off + chunk]);
            read += chunk;
            off += chunk as u64;
        }
    }

    /// Total live bytes across all slots (diagnostics/invariants).
    pub fn total_live_bytes(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| match s {
                SlotState::Mapped { live_bytes, .. } => *live_bytes as u64,
                SlotState::Unmapped => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::FrameOwner;

    fn pool(n: usize) -> FramePool {
        FramePool::new(n, 64)
    }

    fn buf(slots: usize) -> CircBuf {
        CircBuf::new(slots, 64)
    }

    fn map_next(b: &mut CircBuf, p: &mut FramePool, slot: usize) -> FrameId {
        let f = p
            .alloc(FrameOwner::CompressionCache { tag: slot as u64 })
            .unwrap();
        b.map_slot(slot, f);
        f
    }

    #[test]
    fn probe_demands_frames_lazily() {
        let mut b = buf(4);
        let mut p = pool(4);
        assert_eq!(b.probe(10), AppendProbe::NeedFrame { slot: 0 });
        map_next(&mut b, &mut p, 0);
        assert_eq!(b.probe(10), AppendProbe::Ready);
        let s = b.append(10);
        assert_eq!(s, 0);
        // An append spanning into slot 1 needs slot 1 mapped.
        assert_eq!(b.probe(60), AppendProbe::NeedFrame { slot: 1 });
        map_next(&mut b, &mut p, 1);
        assert_eq!(b.probe(60), AppendProbe::Ready);
    }

    #[test]
    fn spanning_append_and_io_roundtrip() {
        let mut b = buf(4);
        let mut p = pool(4);
        map_next(&mut b, &mut p, 0);
        map_next(&mut b, &mut p, 1);
        let start = b.append(100); // spans slots 0 and 1
        let data: Vec<u8> = (0..100u8).collect();
        b.write_bytes(&mut p, start, &data);
        b.add_live(start, 100);
        let mut out = vec![0u8; 100];
        b.read_bytes(&p, start, &mut out);
        assert_eq!(out, data);
        match (b.slot(0), b.slot(1)) {
            (SlotState::Mapped { live_bytes: a, .. }, SlotState::Mapped { live_bytes: c, .. }) => {
                assert_eq!(a, 64);
                assert_eq!(c, 36);
            }
            _ => panic!("slots should be mapped"),
        }
    }

    #[test]
    fn wrap_blocks_on_previous_lap_live_data() {
        let mut b = buf(3);
        let mut p = pool(3);
        for s in 0..3 {
            map_next(&mut b, &mut p, s);
        }
        // Fill slots 0..3 with one live entry each.
        let e0 = b.append(64);
        b.add_live(e0, 64);
        let e1 = b.append(64);
        b.add_live(e1, 64);
        let e2 = b.append(64);
        b.add_live(e2, 64);
        // Cursor is back at slot 0 (wrapped); previous-lap data blocks.
        assert_eq!(b.slot_of(b.cursor()), 0);
        assert_eq!(b.probe(10), AppendProbe::Blocked { slot: 0 });
        // Dropping the oldest entry unblocks slot 0 but slot 1 still
        // blocks a spanning append.
        b.sub_live(e0, 64);
        assert_eq!(b.probe(10), AppendProbe::Ready);
        assert_eq!(b.probe(65), AppendProbe::Blocked { slot: 1 });
    }

    #[test]
    fn cursor_slot_live_bytes_do_not_block() {
        let mut b = buf(2);
        let mut p = pool(2);
        map_next(&mut b, &mut p, 0);
        let e = b.append(10);
        b.add_live(e, 10);
        // Cursor is mid-slot-0 with live bytes before it — still Ready.
        assert_eq!(b.probe(10), AppendProbe::Ready);
    }

    #[test]
    fn reclaimable_prefers_oldest() {
        let mut b = buf(4);
        let mut p = pool(4);
        for s in 0..3 {
            map_next(&mut b, &mut p, s);
        }
        let e0 = b.append(64);
        b.add_live(e0, 64);
        let e1 = b.append(64);
        b.add_live(e1, 64);
        // Cursor now at slot 2. Kill entry 0 and 1.
        b.sub_live(e0, 64);
        b.sub_live(e1, 64);
        // Oldest-first: from cursor slot 2, scanning 3, 0, 1 — slot 3 is
        // unmapped, so slot 0 is the first reclaimable.
        assert_eq!(b.reclaimable_slot(), Some(0));
        let f = b.unmap_slot(0);
        p.free(f);
        assert_eq!(b.reclaimable_slot(), Some(1));
        assert_eq!(b.mapped_frames(), 2);
    }

    #[test]
    fn unmap_refuses_cursor_slot() {
        let mut b = buf(2);
        let mut p = pool(2);
        map_next(&mut b, &mut p, 0);
        // Cursor sits in slot 0 with zero live bytes; still not unmappable.
        assert_eq!(b.reclaimable_slot(), None);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut b2 = b.clone();
            b2.unmap_slot(0)
        }));
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "live underflow")]
    fn double_sub_live_panics() {
        let mut b = buf(2);
        let mut p = pool(2);
        map_next(&mut b, &mut p, 0);
        let e = b.append(10);
        b.add_live(e, 10);
        b.sub_live(e, 10);
        b.sub_live(e, 10);
    }

    #[test]
    fn total_live_tracks_adds_and_subs() {
        let mut b = buf(4);
        let mut p = pool(4);
        map_next(&mut b, &mut p, 0);
        map_next(&mut b, &mut p, 1);
        let a = b.append(50);
        b.add_live(a, 50);
        let c = b.append(30);
        b.add_live(c, 30);
        assert_eq!(b.total_live_bytes(), 80);
        b.sub_live(a, 50);
        assert_eq!(b.total_live_bytes(), 30);
    }
}
