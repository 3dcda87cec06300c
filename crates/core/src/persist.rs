//! On-disk persistence for the spill tier: superblock, location-map
//! journal, and crash recovery.
//!
//! The spill *data* file holds self-verifying extents (see
//! [`crate::store`]); without a persisted location map it is write-only
//! memory across a restart. This module adds the two structures that make
//! the spill tier warm-restartable:
//!
//! - A **superblock** at the head of the data file: two 128-byte slots,
//!   each CRC-checksummed and carrying a monotonically increasing
//!   sequence number. Writers alternate slots by sequence parity, so a
//!   torn superblock write can only destroy the slot being written — the
//!   other slot still decodes and recovery proceeds from it. The
//!   superblock records the format version, page size, a fingerprint of
//!   the codec set, the clean-shutdown bit, and the journal's epoch /
//!   start / tail.
//! - A **location-map journal** in a sibling file: an append-only stream
//!   of fixed-size records (`key → offset, len, generation, codec`),
//!   group-committed after each durable spill batch, plus tombstones for
//!   removed keys and relocation records for GC moves. Every record is
//!   individually CRC'd and epoch-stamped, so replay stops exactly at a
//!   torn tail or a stale epoch left behind by journal compaction.
//!
//! Recovery (`recover`) replays the journal into a per-key latest-wins
//! fold ordered by LSN (the store's spill generation counter, so the
//! on-disk order and the in-memory causal order agree), then — unless the
//! clean bit was set — re-reads and re-verifies every referenced extent's
//! header CRC, falling back to an extent's pre-GC location when the
//! relocated copy is torn. The result is exactly the set of
//! durably-committed entries: torn tails and stale generations are
//! discarded and counted, never served.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};

use crate::medium::SpillMedium;
use crate::store::extent::{verify_extent, EXTENT_HEADER};
use cc_util::{crc32, Crc32};

/// Bytes reserved at the head of the spill data file for the superblock
/// region (two slots plus headroom). Extent space starts here; a
/// non-persistent store keeps its historical base of 0.
pub const SUPERBLOCK_RESERVED: u64 = 256;

/// One superblock slot. Two of them fit the reserved region with room to
/// spare for future format growth.
const SB_SLOT: usize = 128;

/// Superblock magic; the low byte is the superblock format version.
const SB_MAGIC: u32 = 0xCC5B_0001;

/// On-disk format version sealed into the superblock (covers the extent
/// header layout and the journal record layout together).
const SB_VERSION: u32 = 1;

/// CRC'd prefix of a slot; the CRC itself sits at `SB_SLOT - 4`.
const SB_CRC_OFFSET: usize = SB_SLOT - 4;

/// Size of one journal record on the file.
pub const JOURNAL_RECORD: usize = 48;

/// CRC'd prefix of a record; the CRC occupies the last 4 bytes.
const JREC_CRC_OFFSET: usize = JOURNAL_RECORD - 4;

/// Journal record kinds. Zero is deliberately invalid so a zero-filled
/// (never-written) region reads as a torn tail, not as a record.
pub(crate) mod jkind {
    /// `key` now lives at `offset` (`len`, `gen`, `codec`, `orig_len`).
    pub const PUT: u8 = 1;
    /// `key` was removed (or its journaled version superseded in
    /// memory); `lsn` orders it against PUTs of the same key.
    pub const TOMB: u8 = 2;
    /// GC moved `key`'s extent (same generation) to a new `offset`.
    pub const RELOC: u8 = 3;
}

/// Fingerprint of the codec set and on-disk format constants. A spill
/// file written under a different codec numbering or extent layout must
/// not be decoded — the fingerprint mismatch rejects it at open.
pub fn codec_fingerprint() -> u32 {
    let mut buf = Vec::with_capacity(64);
    for id in 0u8..=5 {
        let codec = cc_compress::CodecId::from_u8(id).expect("stable codec id list");
        buf.push(id);
        buf.extend_from_slice(codec.name().as_bytes());
    }
    buf.extend_from_slice(&(EXTENT_HEADER as u32).to_le_bytes());
    buf.extend_from_slice(&(JOURNAL_RECORD as u32).to_le_bytes());
    buf.extend_from_slice(&SB_VERSION.to_le_bytes());
    crc32(&buf)
}

/// The decoded superblock: everything recovery needs to find the journal
/// and trust (or scan) the data file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// Monotonic write sequence; the slot written is `seq % 2`, and the
    /// reader believes the valid slot with the highest sequence.
    pub seq: u64,
    /// The store's fixed page size (0 while nothing has been stored).
    pub page_size: u32,
    /// [`codec_fingerprint`] at write time.
    pub codec_fpr: u32,
    /// Set by an orderly seal after the final batch and its journal
    /// records are durable; recovery on a clean file trusts the journal
    /// outright and skips the extent re-scan.
    pub clean: bool,
    /// Journal epoch; records stamped with any other epoch are dead
    /// (left behind by journal compaction).
    pub epoch: u32,
    /// Byte offset in the journal file where the current epoch's records
    /// begin.
    pub journal_start: u64,
    /// Extent allocation cursor at seal time (authoritative only when
    /// `clean`).
    pub data_cursor: u64,
    /// Journal append position at seal time (authoritative only when
    /// `clean`).
    pub journal_tail: u64,
}

fn encode_superblock(sb: &Superblock) -> [u8; SB_SLOT] {
    let mut buf = [0u8; SB_SLOT];
    buf[0..4].copy_from_slice(&SB_MAGIC.to_le_bytes());
    buf[4..8].copy_from_slice(&SB_VERSION.to_le_bytes());
    buf[8..16].copy_from_slice(&sb.seq.to_le_bytes());
    buf[16..20].copy_from_slice(&sb.page_size.to_le_bytes());
    buf[20..24].copy_from_slice(&sb.codec_fpr.to_le_bytes());
    buf[24..28].copy_from_slice(&(sb.clean as u32).to_le_bytes());
    buf[28..32].copy_from_slice(&sb.epoch.to_le_bytes());
    buf[32..40].copy_from_slice(&sb.journal_start.to_le_bytes());
    buf[40..48].copy_from_slice(&sb.data_cursor.to_le_bytes());
    buf[48..56].copy_from_slice(&sb.journal_tail.to_le_bytes());
    let crc = crc32(&buf[..SB_CRC_OFFSET]);
    buf[SB_CRC_OFFSET..].copy_from_slice(&crc.to_le_bytes());
    buf
}

fn decode_superblock(buf: &[u8]) -> Option<Superblock> {
    if buf.len() < SB_SLOT {
        return None;
    }
    let word = |r: std::ops::Range<usize>| u32::from_le_bytes(buf[r].try_into().expect("4 bytes"));
    let wide = |r: std::ops::Range<usize>| u64::from_le_bytes(buf[r].try_into().expect("8 bytes"));
    if word(0..4) != SB_MAGIC || word(4..8) != SB_VERSION {
        return None;
    }
    if word(SB_CRC_OFFSET..SB_SLOT) != crc32(&buf[..SB_CRC_OFFSET]) {
        return None;
    }
    Some(Superblock {
        seq: wide(8..16),
        page_size: word(16..20),
        codec_fpr: word(20..24),
        clean: word(24..28) & 1 != 0,
        epoch: word(28..32),
        journal_start: wide(32..40),
        data_cursor: wide(40..48),
        journal_tail: wide(48..56),
    })
}

/// Write `sb` to the slot its sequence selects, then flush. Alternating
/// slots by parity means the previous superblock survives a torn write
/// of this one.
pub fn write_superblock(data: &dyn SpillMedium, sb: &Superblock) -> io::Result<()> {
    let slot = (sb.seq % 2) * SB_SLOT as u64;
    data.write_at(&encode_superblock(sb), slot)?;
    data.flush()
}

/// Read both slots and return the valid one with the highest sequence.
pub fn read_superblock(data: &dyn SpillMedium) -> Option<Superblock> {
    let mut buf = [0u8; SB_SLOT * 2];
    // A file shorter than both slots can still hold slot 0.
    if data.read_at(&mut buf, 0).is_err() {
        let mut one = [0u8; SB_SLOT];
        data.read_at(&mut one, 0).ok()?;
        return decode_superblock(&one);
    }
    let a = decode_superblock(&buf[..SB_SLOT]);
    let b = decode_superblock(&buf[SB_SLOT..]);
    match (a, b) {
        (Some(a), Some(b)) => Some(if a.seq >= b.seq { a } else { b }),
        (Some(a), None) => Some(a),
        (None, Some(b)) => Some(b),
        (None, None) => None,
    }
}

/// One location-map journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct JournalRecord {
    pub kind: u8,
    pub lsn: u64,
    pub key: u64,
    pub offset: u64,
    pub len: u32,
    pub orig_len: u32,
    pub codec: u8,
}

impl JournalRecord {
    pub fn tombstone(key: u64, lsn: u64) -> JournalRecord {
        JournalRecord {
            kind: jkind::TOMB,
            lsn,
            key,
            offset: 0,
            len: 0,
            orig_len: 0,
            codec: 0,
        }
    }
}

fn encode_record(rec: &JournalRecord, epoch: u32, out: &mut Vec<u8>) {
    let start = out.len();
    out.push(rec.kind);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&rec.lsn.to_le_bytes());
    out.extend_from_slice(&rec.key.to_le_bytes());
    out.extend_from_slice(&rec.offset.to_le_bytes());
    out.extend_from_slice(&rec.len.to_le_bytes());
    out.extend_from_slice(&rec.orig_len.to_le_bytes());
    out.push(rec.codec);
    out.extend_from_slice(&[0u8; 3]);
    let mut h = Crc32::new();
    h.update(&out[start..start + JREC_CRC_OFFSET]);
    out.extend_from_slice(&h.finish().to_le_bytes());
    debug_assert_eq!(out.len() - start, JOURNAL_RECORD);
}

/// `None` means the bytes are not a record (torn tail, zero fill, or a
/// flipped bit); the returned epoch lets replay detect a stale region.
fn decode_record(buf: &[u8]) -> Option<(JournalRecord, u32)> {
    if buf.len() < JOURNAL_RECORD {
        return None;
    }
    let kind = buf[0];
    if !(jkind::PUT..=jkind::RELOC).contains(&kind) {
        return None;
    }
    let crc = u32::from_le_bytes(buf[JREC_CRC_OFFSET..JOURNAL_RECORD].try_into().expect("4"));
    if crc != crc32(&buf[..JREC_CRC_OFFSET]) {
        return None;
    }
    let epoch = u32::from_le_bytes(buf[4..8].try_into().expect("4"));
    Some((
        JournalRecord {
            kind,
            lsn: u64::from_le_bytes(buf[8..16].try_into().expect("8")),
            key: u64::from_le_bytes(buf[16..24].try_into().expect("8")),
            offset: u64::from_le_bytes(buf[24..32].try_into().expect("8")),
            len: u32::from_le_bytes(buf[32..36].try_into().expect("4")),
            orig_len: u32::from_le_bytes(buf[36..40].try_into().expect("4")),
            codec: buf[40],
        },
        epoch,
    ))
}

/// Mutable journal position shared by every appender, behind
/// [`Persist::state`]. A leaf lock: callers may hold a shard lock, and
/// nothing is acquired while this is held.
pub(crate) struct PersistState {
    /// Next append offset in the journal file.
    pub tail: u64,
    /// Epoch stamped into appended records.
    pub epoch: u32,
    /// Where the current epoch's records begin.
    pub start: u64,
    /// Last superblock sequence written.
    pub sb_seq: u64,
    /// Tombstones waiting for the next group commit (or an explicit
    /// flush barrier).
    pub pending: Vec<JournalRecord>,
}

/// The store's handle on its persistence state: the journal medium plus
/// the append position. Superblock writes go through the *data* medium,
/// which callers pass in (the writer thread owns it).
pub(crate) struct Persist {
    pub journal: Arc<dyn SpillMedium>,
    pub state: Mutex<PersistState>,
}

impl Persist {
    pub fn new(journal: Arc<dyn SpillMedium>, state: PersistState) -> Persist {
        Persist {
            journal,
            state: Mutex::new(state),
        }
    }

    /// Queue a tombstone for the next group commit. Called under the
    /// owning shard's lock so the LSN ordering against the key's spill
    /// generations is exact.
    pub fn enqueue_tombstone(&self, key: u64, lsn: u64) {
        self.state
            .lock()
            .expect("persist state poisoned")
            .pending
            .push(JournalRecord::tombstone(key, lsn));
    }

    /// Group-commit `puts` (a durable batch's location records) together
    /// with every pending tombstone, sorted by LSN, and flush. Returns
    /// the number of records appended. On error the pending tombstones
    /// are retained for the next attempt.
    pub fn append_commit(&self, puts: &[JournalRecord]) -> io::Result<u64> {
        let mut st = self.state.lock().expect("persist state poisoned");
        if puts.is_empty() && st.pending.is_empty() {
            return Ok(0);
        }
        let mut records: Vec<JournalRecord> = Vec::with_capacity(puts.len() + st.pending.len());
        records.extend_from_slice(puts);
        records.extend_from_slice(&st.pending);
        records.sort_by_key(|r| r.lsn);
        let mut buf = Vec::with_capacity(records.len() * JOURNAL_RECORD);
        for rec in &records {
            encode_record(rec, st.epoch, &mut buf);
        }
        self.journal.write_at(&buf, st.tail)?;
        self.journal.flush()?;
        st.tail += buf.len() as u64;
        st.pending.clear();
        Ok(records.len() as u64)
    }

    /// Commit pending tombstones alone — the `flush()` durability
    /// barrier for removes.
    pub fn commit_pending(&self) -> io::Result<u64> {
        self.append_commit(&[])
    }

    /// Seal a clean shutdown: superblock gains the clean bit, the final
    /// cursor, and the journal tail, so the next open can trust the
    /// journal without re-verifying extents. The caller must have
    /// committed every pending record first.
    pub fn seal_clean(
        &self,
        data: &dyn SpillMedium,
        data_cursor: u64,
        page_size: u32,
    ) -> io::Result<()> {
        let mut st = self.state.lock().expect("persist state poisoned");
        debug_assert!(st.pending.is_empty(), "seal with uncommitted tombstones");
        st.sb_seq += 1;
        let sb = Superblock {
            seq: st.sb_seq,
            page_size,
            codec_fpr: codec_fingerprint(),
            clean: true,
            epoch: st.epoch,
            journal_start: st.start,
            data_cursor,
            journal_tail: st.tail,
        };
        write_superblock(data, &sb)
    }

    /// Compact the journal when the current epoch's record span has
    /// grown well past the live set: write `live` (plus pending
    /// tombstones) as a fresh snapshot under `epoch + 1`, then flip the
    /// superblock to it. When the snapshot fits below `start` it is
    /// written at the head of the file (which is then truncated);
    /// otherwise it is appended. Either way a crash at any byte leaves
    /// exactly one decodable epoch: the flip is a single superblock
    /// write, and replay of the *old* epoch stops at the first
    /// new-epoch record.
    ///
    /// Returns whether a compaction ran.
    pub fn maybe_compact(
        &self,
        data: &dyn SpillMedium,
        data_cursor: u64,
        page_size: u32,
        live: &[JournalRecord],
    ) -> io::Result<bool> {
        let mut st = self.state.lock().expect("persist state poisoned");
        let span = st.tail.saturating_sub(st.start);
        let live_bytes = ((live.len() + st.pending.len()) * JOURNAL_RECORD) as u64;
        if span < 64 * 1024 || span < live_bytes.saturating_mul(4) {
            return Ok(false);
        }
        let epoch = st.epoch.wrapping_add(1);
        let mut buf = Vec::with_capacity((live.len() + st.pending.len()) * JOURNAL_RECORD);
        for rec in live {
            encode_record(rec, epoch, &mut buf);
        }
        for rec in &st.pending {
            encode_record(rec, epoch, &mut buf);
        }
        let snap_bytes = buf.len() as u64;
        let head_rewrite = st.start >= snap_bytes;
        let snap_at = if head_rewrite { 0 } else { st.tail };
        if !buf.is_empty() {
            self.journal.write_at(&buf, snap_at)?;
        }
        self.journal.flush()?;
        // The flip: one superblock write moves replay to the new epoch.
        st.sb_seq += 1;
        let sb = Superblock {
            seq: st.sb_seq,
            page_size,
            codec_fpr: codec_fingerprint(),
            clean: false,
            epoch,
            journal_start: snap_at,
            data_cursor,
            journal_tail: snap_at + snap_bytes,
        };
        write_superblock(data, &sb)?;
        st.epoch = epoch;
        st.start = snap_at;
        st.tail = snap_at + snap_bytes;
        st.pending.clear();
        if head_rewrite {
            // Old-epoch records beyond the snapshot are dead; reclaim
            // the file space (best-effort — replay stops on the epoch
            // stamp even if this fails).
            let _ = self.journal.set_len(snap_bytes);
        }
        Ok(true)
    }
}

/// A live entry reconstructed from the journal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecoveredEntry {
    pub key: u64,
    pub offset: u64,
    pub len: u32,
    pub gen: u64,
    pub codec: u8,
    pub orig_len: u32,
}

/// Recovery tallies, mirrored into the store's telemetry counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryCounts {
    /// Journal records decoded and folded.
    pub journal_records_replayed: u64,
    /// Torn journal tails plus extents that failed re-verification and
    /// were discarded.
    pub torn_tail_discarded: u64,
    /// Records dropped by LSN arbitration: a PUT superseded by a newer
    /// PUT or tombstone, or a relocation for a generation that no
    /// longer matches.
    pub stale_generation_dropped: u64,
    /// Extents re-read and CRC-verified (0 on a clean fast start — the
    /// gate for "clean open skipped the scan").
    pub extents_verified: u64,
    /// Entries recovered and served (clean or verified).
    pub extents_recovered: u64,
}

/// The outcome of [`recover`]: the live entry set plus the state the
/// store needs to resume appending.
pub(crate) struct Recovery {
    pub entries: Vec<RecoveredEntry>,
    pub data_cursor: u64,
    pub page_size: u32,
    /// Highest LSN seen; the store resumes its generation counter above
    /// it.
    pub max_lsn: u64,
    /// Whether the clean fast path was taken.
    pub clean: bool,
    pub epoch: u32,
    pub journal_start: u64,
    /// Where appends resume (a torn tail is logically truncated here).
    pub journal_tail: u64,
    pub sb_seq: u64,
    pub counts: RecoveryCounts,
}

/// Why an open-existing failed before the store could even be built.
#[derive(Debug)]
pub enum RecoverError {
    /// Neither superblock slot decoded — not a spill file this format
    /// understands (or its head was destroyed).
    NoSuperblock,
    /// The file was written under a different codec set or on-disk
    /// format; decoding it would be guesswork.
    FingerprintMismatch {
        /// Fingerprint recorded in the superblock.
        on_disk: u32,
        /// This build's fingerprint.
        ours: u32,
    },
    /// I/O failure while reading the superblock region.
    Io(io::Error),
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::NoSuperblock => write!(f, "no valid superblock slot"),
            RecoverError::FingerprintMismatch { on_disk, ours } => write!(
                f,
                "codec/format fingerprint mismatch: file {on_disk:#010x}, build {ours:#010x}"
            ),
            RecoverError::Io(e) => write!(f, "recovery I/O error: {e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

/// Per-key fold state during replay. Tombstones are kept (not dropped)
/// so a PUT that appears *later in the journal* with an *older* LSN —
/// possible when a remove overtakes a queued batch — still loses.
enum KeyState {
    Live {
        entry: RecoveredEntry,
        lsn: u64,
        /// The extent's pre-relocation offset, kept as a fallback: if a
        /// mid-GC crash tore the relocated copy, the original is still
        /// intact (GC never truncates before journaling its moves).
        prev_offset: Option<u64>,
    },
    Dead(u64),
}

/// Replay the journal against the data file and rebuild the live entry
/// set. Never serves unverified bytes: on an unclean open every
/// referenced extent is re-read and its header CRC re-checked (with the
/// pre-GC fallback), and anything torn or stale is discarded and
/// counted.
pub(crate) fn recover(
    data: &dyn SpillMedium,
    journal: &dyn SpillMedium,
) -> Result<Recovery, RecoverError> {
    let sb = read_superblock(data).ok_or(RecoverError::NoSuperblock)?;
    let ours = codec_fingerprint();
    if sb.codec_fpr != ours {
        return Err(RecoverError::FingerprintMismatch {
            on_disk: sb.codec_fpr,
            ours,
        });
    }
    let mut counts = RecoveryCounts::default();
    let mut clean = sb.clean;
    let mut map: HashMap<u64, KeyState> = HashMap::new();
    let mut max_lsn = 0u64;
    let mut page_size = sb.page_size;
    let mut pos = sb.journal_start;
    let mut rec_buf = [0u8; JOURNAL_RECORD];
    loop {
        if sb.clean && pos >= sb.journal_tail {
            break;
        }
        if journal.read_at(&mut rec_buf, pos).is_err() {
            // End of file. Leftover bytes short of a whole record mean a
            // write was cut mid-record.
            let mut probe = [0u8; 1];
            if journal.read_at(&mut probe, pos).is_ok() {
                counts.torn_tail_discarded += 1;
                clean = false;
            } else if sb.clean {
                // The sealed tail claims more records than the file
                // holds: distrust the seal.
                clean = false;
            }
            break;
        }
        let Some((rec, epoch)) = decode_record(&rec_buf) else {
            counts.torn_tail_discarded += 1;
            clean = false;
            break;
        };
        if epoch != sb.epoch {
            // A stale region left behind by compaction: the current
            // epoch's stream ends here.
            break;
        }
        counts.journal_records_replayed += 1;
        max_lsn = max_lsn.max(rec.lsn);
        if rec.orig_len != 0 {
            page_size = rec.orig_len;
        }
        match rec.kind {
            jkind::PUT => {
                let supersedes = match map.get(&rec.key) {
                    None => true,
                    Some(KeyState::Live { lsn, .. }) | Some(KeyState::Dead(lsn)) => rec.lsn >= *lsn,
                };
                if supersedes {
                    // Either way one generation of this key loses: the
                    // arriving record when it is stale, the superseded
                    // live one when it is not.
                    if matches!(map.get(&rec.key), Some(KeyState::Live { .. })) {
                        counts.stale_generation_dropped += 1;
                    }
                    map.insert(
                        rec.key,
                        KeyState::Live {
                            entry: RecoveredEntry {
                                key: rec.key,
                                offset: rec.offset,
                                len: rec.len,
                                gen: rec.lsn,
                                codec: rec.codec,
                                orig_len: rec.orig_len,
                            },
                            lsn: rec.lsn,
                            prev_offset: None,
                        },
                    );
                } else {
                    counts.stale_generation_dropped += 1;
                }
            }
            jkind::TOMB => {
                let supersedes = match map.get(&rec.key) {
                    None => true,
                    Some(KeyState::Live { lsn, .. }) | Some(KeyState::Dead(lsn)) => rec.lsn >= *lsn,
                };
                if supersedes {
                    if matches!(map.get(&rec.key), Some(KeyState::Live { .. })) {
                        counts.stale_generation_dropped += 1;
                    }
                    map.insert(rec.key, KeyState::Dead(rec.lsn));
                } else {
                    counts.stale_generation_dropped += 1;
                }
            }
            jkind::RELOC => match map.get_mut(&rec.key) {
                Some(KeyState::Live {
                    entry, prev_offset, ..
                }) if entry.gen == rec.lsn => {
                    *prev_offset = Some(entry.offset);
                    entry.offset = rec.offset;
                }
                _ => counts.stale_generation_dropped += 1,
            },
            _ => unreachable!("decode_record rejects unknown kinds"),
        }
        pos += JOURNAL_RECORD as u64;
    }
    let journal_tail = pos;
    let mut entries = Vec::new();
    let mut ext_buf = Vec::new();
    for state in map.into_values() {
        let KeyState::Live {
            mut entry,
            prev_offset,
            ..
        } = state
        else {
            continue;
        };
        if !clean {
            counts.extents_verified += 1;
            ext_buf.clear();
            ext_buf.resize(entry.len as usize, 0);
            let ok = data.read_at(&mut ext_buf, entry.offset).is_ok()
                && verify_extent(&ext_buf, entry.gen, entry.codec).is_some();
            if !ok {
                // Fall back to the pre-relocation copy: same generation,
                // same bytes, still in place if the move was torn.
                let fallback = prev_offset.is_some_and(|off| {
                    ext_buf.clear();
                    ext_buf.resize(entry.len as usize, 0);
                    data.read_at(&mut ext_buf, off).is_ok()
                        && verify_extent(&ext_buf, entry.gen, entry.codec).is_some()
                });
                match (fallback, prev_offset) {
                    (true, Some(off)) => entry.offset = off,
                    _ => {
                        counts.torn_tail_discarded += 1;
                        continue;
                    }
                }
            }
        }
        counts.extents_recovered += 1;
        entries.push(entry);
    }
    let data_cursor = if clean {
        sb.data_cursor.max(SUPERBLOCK_RESERVED)
    } else {
        entries
            .iter()
            .map(|e| e.offset + e.len as u64)
            .max()
            .unwrap_or(0)
            .max(SUPERBLOCK_RESERVED)
    };
    Ok(Recovery {
        entries,
        data_cursor,
        page_size,
        max_lsn,
        clean,
        epoch: sb.epoch,
        journal_start: sb.journal_start,
        journal_tail,
        sb_seq: sb.seq,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MemMedium;
    use crate::store::tests::unhex;

    fn sb(seq: u64, clean: bool) -> Superblock {
        Superblock {
            seq,
            page_size: 4096,
            codec_fpr: codec_fingerprint(),
            clean,
            epoch: 3,
            journal_start: 96,
            data_cursor: 1024,
            journal_tail: 480,
        }
    }

    #[test]
    fn superblock_roundtrips_and_rejects_tampering() {
        let b = encode_superblock(&sb(7, true));
        assert_eq!(decode_superblock(&b), Some(sb(7, true)));
        for i in [0, 9, 25, 50, SB_CRC_OFFSET + 1] {
            let mut t = b;
            t[i] ^= 0x10;
            assert_eq!(decode_superblock(&t), None, "byte {i} flip accepted");
        }
    }

    #[test]
    fn superblock_slots_arbitrate_by_sequence_and_survive_a_torn_slot() {
        let m = MemMedium::new();
        write_superblock(&m, &sb(4, false)).unwrap(); // slot 0
        write_superblock(&m, &sb(5, true)).unwrap(); // slot 1
        assert_eq!(read_superblock(&m), Some(sb(5, true)));
        // Tear the newer slot: the reader falls back to the older one.
        m.write_at(&[0xFFu8; 16], SB_SLOT as u64 + 8).unwrap();
        assert_eq!(read_superblock(&m), Some(sb(4, false)));
    }

    #[test]
    fn records_roundtrip_and_any_bit_flip_rejects() {
        let rec = JournalRecord {
            kind: jkind::PUT,
            lsn: 9000,
            key: 0xDEAD_BEEF,
            offset: 4096,
            len: 812,
            orig_len: 4096,
            codec: 1,
        };
        let mut buf = Vec::new();
        encode_record(&rec, 42, &mut buf);
        assert_eq!(buf.len(), JOURNAL_RECORD);
        assert_eq!(decode_record(&buf), Some((rec, 42)));
        for byte in 0..JOURNAL_RECORD {
            for bit in 0..8 {
                let mut t = buf.clone();
                t[byte] ^= 1 << bit;
                // Pad bytes are CRC-covered too, so every flip rejects.
                assert_eq!(decode_record(&t), None, "byte {byte} bit {bit} accepted");
            }
        }
        // A zero-filled region is not a record.
        assert_eq!(decode_record(&[0u8; JOURNAL_RECORD]), None);
    }

    /// A superblock slot and a journal PUT record as the build before the
    /// 16-byte-stride CRC kernel wrote them (`sb(7, true)`; the record of
    /// `records_roundtrip_and_any_bit_flip_rejects` at epoch 42): both
    /// must still decode, and encoding must reproduce them byte for byte.
    #[test]
    fn golden_superblock_and_record_from_the_bytewise_crc_build() {
        let mut slot = unhex(
            "01005bcc010000000700000000000000001000003258815001000000030000006000000000000000\
             0004000000000000e001000000000000",
        );
        slot.resize(SB_CRC_OFFSET, 0);
        slot.extend_from_slice(&unhex("abd80a09"));
        assert_eq!(decode_superblock(&slot), Some(sb(7, true)));
        assert_eq!(encode_superblock(&sb(7, true))[..], slot[..]);

        let golden = unhex(
            "010000002a0000002823000000000000efbeadde0000000000100000000000002c03000000100000\
             0100000006492d97",
        );
        let rec = JournalRecord {
            kind: jkind::PUT,
            lsn: 9000,
            key: 0xDEAD_BEEF,
            offset: 4096,
            len: 812,
            orig_len: 4096,
            codec: 1,
        };
        assert_eq!(decode_record(&golden), Some((rec, 42)));
        let mut buf = Vec::new();
        encode_record(&rec, 42, &mut buf);
        assert_eq!(buf, golden);
    }

    fn put_rec(key: u64, lsn: u64, offset: u64) -> JournalRecord {
        JournalRecord {
            kind: jkind::PUT,
            lsn,
            key,
            offset,
            len: (EXTENT_HEADER + 8) as u32,
            orig_len: 64,
            codec: 0,
        }
    }

    /// Write a valid extent for `rec` at its offset so verification
    /// passes on unclean recovery.
    fn back_extent(data: &MemMedium, rec: &JournalRecord) {
        let mut buf = Vec::new();
        crate::store::extent::encode_extent(&mut buf, rec.lsn, rec.codec, &[0xABu8; 8]);
        assert_eq!(buf.len(), rec.len as usize);
        data.write_at(&buf, rec.offset).unwrap();
    }

    fn fresh_media() -> (MemMedium, MemMedium, Persist) {
        let data = MemMedium::new();
        let journal = MemMedium::new();
        write_superblock(
            &data,
            &Superblock {
                seq: 1,
                page_size: 0,
                codec_fpr: codec_fingerprint(),
                clean: false,
                epoch: 0,
                journal_start: 0,
                data_cursor: SUPERBLOCK_RESERVED,
                journal_tail: 0,
            },
        )
        .unwrap();
        let persist = Persist::new(
            Arc::new(journal.share()),
            PersistState {
                tail: 0,
                epoch: 0,
                start: 0,
                sb_seq: 1,
                pending: Vec::new(),
            },
        );
        (data, journal, persist)
    }

    #[test]
    fn replay_folds_latest_wins_and_respects_tombstone_order() {
        let (data, journal, persist) = fresh_media();
        let a1 = put_rec(1, 10, SUPERBLOCK_RESERVED);
        let a2 = put_rec(1, 30, SUPERBLOCK_RESERVED + 100);
        let b = put_rec(2, 20, SUPERBLOCK_RESERVED + 200);
        back_extent(&data, &a1);
        back_extent(&data, &a2);
        back_extent(&data, &b);
        persist.append_commit(&[a1, b]).unwrap();
        // Key 2 removed (lsn 40), then its *old* PUT re-appears later in
        // the journal (a remove that overtook a queued batch): the
        // tombstone must still win.
        persist.enqueue_tombstone(2, 40);
        persist.append_commit(&[a2]).unwrap();
        persist
            .append_commit(&[put_rec(2, 20, SUPERBLOCK_RESERVED + 200)])
            .unwrap();
        let rec = recover(&data, &journal).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0].key, 1);
        assert_eq!(rec.entries[0].gen, 30);
        assert_eq!(rec.max_lsn, 40);
        assert!(!rec.clean);
        assert_eq!(rec.counts.journal_records_replayed, 5);
        // The stale PUT of key 1 (lsn 10 superseded by 30 in fold order
        // after sort) and the resurrected PUT of key 2 both dropped.
        assert!(rec.counts.stale_generation_dropped >= 1);
        assert_eq!(rec.page_size, 64);
    }

    #[test]
    fn torn_journal_tail_is_discarded_and_counted() {
        let (data, journal, persist) = fresh_media();
        let a = put_rec(1, 1, SUPERBLOCK_RESERVED);
        back_extent(&data, &a);
        persist.append_commit(&[a]).unwrap();
        // A partial record at the tail: 20 of 48 bytes landed.
        let mut buf = Vec::new();
        encode_record(&put_rec(2, 2, SUPERBLOCK_RESERVED + 100), 0, &mut buf);
        journal.write_at(&buf[..20], JOURNAL_RECORD as u64).unwrap();
        let rec = recover(&data, &journal).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.counts.torn_tail_discarded, 1);
        assert_eq!(rec.journal_tail, JOURNAL_RECORD as u64);
    }

    #[test]
    fn unclean_recovery_verifies_extents_and_drops_torn_ones() {
        let (data, journal, persist) = fresh_media();
        let good = put_rec(1, 1, SUPERBLOCK_RESERVED);
        let torn = put_rec(2, 2, SUPERBLOCK_RESERVED + 100);
        back_extent(&data, &good);
        // Key 2's extent write was cut: only garbage at its offset.
        data.write_at(&[0x11u8; 8], torn.offset).unwrap();
        persist.append_commit(&[good, torn]).unwrap();
        let rec = recover(&data, &journal).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0].key, 1);
        assert_eq!(rec.counts.extents_verified, 2);
        assert_eq!(rec.counts.extents_recovered, 1);
        assert_eq!(rec.counts.torn_tail_discarded, 1);
    }

    #[test]
    fn clean_seal_skips_verification_entirely() {
        let (data, journal, persist) = fresh_media();
        let a = put_rec(1, 1, SUPERBLOCK_RESERVED);
        // Deliberately do NOT back the extent: a clean open must not
        // read it at all.
        persist.append_commit(&[a]).unwrap();
        persist
            .seal_clean(&data, SUPERBLOCK_RESERVED + 100, 64)
            .unwrap();
        let rec = recover(&data, &journal).unwrap();
        assert!(rec.clean);
        assert_eq!(rec.counts.extents_verified, 0);
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.data_cursor, SUPERBLOCK_RESERVED + 100);
    }

    #[test]
    fn reloc_updates_offset_and_falls_back_to_previous_copy_when_torn() {
        let (data, journal, persist) = fresh_media();
        let a = put_rec(1, 5, SUPERBLOCK_RESERVED + 500);
        back_extent(&data, &a);
        persist.append_commit(&[a]).unwrap();
        // GC claims to have moved it to the head, but the new copy is
        // garbage (the move write was cut): recovery must fall back to
        // the intact original.
        let reloc = JournalRecord {
            kind: jkind::RELOC,
            lsn: 5,
            key: 1,
            offset: SUPERBLOCK_RESERVED,
            len: a.len,
            orig_len: 0,
            codec: 0,
        };
        persist.append_commit(&[reloc]).unwrap();
        let rec = recover(&data, &journal).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0].offset, SUPERBLOCK_RESERVED + 500);
        // Now land the copy for real: recovery should prefer the new home.
        let mut moved = a;
        moved.offset = SUPERBLOCK_RESERVED;
        back_extent(&data, &moved);
        let rec = recover(&data, &journal).unwrap();
        assert_eq!(rec.entries[0].offset, SUPERBLOCK_RESERVED);
    }

    #[test]
    fn compaction_flips_epoch_and_old_records_go_stale() {
        let (data, journal, persist) = fresh_media();
        // Grow the journal past the compaction threshold with churn on
        // one key.
        let mut recs = Vec::new();
        for i in 0..2000u64 {
            let r = put_rec(1, i, SUPERBLOCK_RESERVED);
            recs.push(r);
        }
        back_extent(&data, &put_rec(1, 1999, SUPERBLOCK_RESERVED));
        persist.append_commit(&recs).unwrap();
        let live = [put_rec(1, 1999, SUPERBLOCK_RESERVED)];
        assert!(persist
            .maybe_compact(&data, SUPERBLOCK_RESERVED + 100, 64, &live)
            .unwrap());
        let rec = recover(&data, &journal).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.counts.journal_records_replayed, 1, "snapshot only");
        // Appends continue in the new epoch and replay after it.
        persist.enqueue_tombstone(1, 3000);
        persist.commit_pending().unwrap();
        let rec = recover(&data, &journal).unwrap();
        assert_eq!(rec.entries.len(), 0);
    }

    #[test]
    fn fingerprint_mismatch_refuses_to_open() {
        let data = MemMedium::new();
        let mut s = sb(1, true);
        s.codec_fpr ^= 1;
        write_superblock(&data, &s).unwrap();
        assert!(matches!(
            recover(&data, &MemMedium::new()),
            Err(RecoverError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn missing_superblock_refuses_to_open() {
        assert!(matches!(
            recover(&MemMedium::new(), &MemMedium::new()),
            Err(RecoverError::NoSuperblock)
        ));
    }
}
