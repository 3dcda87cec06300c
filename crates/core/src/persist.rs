//! On-disk persistence for the spill tier: the superblock, the batch
//! summaries that make the spill file its own location map, and crash
//! recovery.
//!
//! The spill file holds self-verifying extents (see [`crate::store`]);
//! without a persisted location map it is write-only memory across a
//! restart. Every store with a spill medium therefore writes two more
//! structures into the same file, and no other file:
//!
//! - A **superblock** at the head of the file: two 128-byte slots, each
//!   CRC-checksummed and carrying a monotonically increasing sequence
//!   number. Writers alternate slots by sequence parity, so a torn
//!   superblock write can only destroy the slot being written — the
//!   other slot still decodes and recovery proceeds from it. The
//!   superblock records the format version, page size, segment size, a
//!   fingerprint of the codec set, the clean-shutdown bit, the batch
//!   sequence lease (see [`Superblock::seq_limit`]) and the file's salt.
//! - A **summary block** in front of every batch, written in the same
//!   `write_at` as the batch's extents: the batch's sequence number and
//!   length, one `(key, generation, offset, length, codec)` record per
//!   extent, and one `(key, lsn)` tombstone per removed key, all under
//!   one CRC seeded with the file's salt. This is the segment summary of
//!   LFS (Rosenblum & Ousterhout, SOSP '91): the log is the journal.
//!
//! Recovery (`recover`) walks the summaries segment by segment and folds
//! them latest-generation-wins into exactly the set of durably-written
//! entries: torn batches and stale generations are discarded and
//! counted, never served.

use std::io;
use std::sync::Mutex;

use crate::medium::SpillMedium;
use crate::store::extent::{verify_extent, EXTENT_HEADER};
use cc_util::{crc32, Crc32};

/// Bytes reserved at the head of the spill file for the superblock
/// region (two slots). Segment 0 starts here.
pub const SUPERBLOCK_RESERVED: u64 = 256;

/// One superblock slot. Two of them fit the reserved region with room to
/// spare for future format growth.
const SB_SLOT: usize = 128;

/// Superblock magic; the low byte is the superblock format version.
const SB_MAGIC: u32 = 0xCC5B_0001;

/// On-disk format version sealed into the superblock (covers the extent
/// header and the summary block layout together). Version 3 keeps the
/// location map in batch summaries inside the spill file; versions 1 and
/// 2 kept it in a sibling journal file. An older file is refused
/// ([`RecoverError::UnsupportedVersion`]), not migrated.
pub(crate) const SB_VERSION: u32 = 3;

/// CRC'd prefix of a slot; the CRC itself sits at `SB_CRC_OFFSET`.
const SB_CRC_OFFSET: usize = SB_SLOT - 4;

/// How far past the next batch sequence a superblock's
/// [`Superblock::seq_limit`] reaches. The writer stamps a new superblock
/// only when a batch sequence reaches the limit — once per 2³² spilled
/// pages — and every open burns what is left of it. Unit tests lease
/// 1 024 at a time, so they cross the limit.
const SEQ_LEASE: u64 = if cfg!(test) { 1 << 10 } else { 1 << 32 };

/// Summary block magic.
const SUMMARY_MAGIC: u32 = 0xCC5A_0003;

/// Bytes of a summary block before its records: `magic: u32 | seq: u64 |
/// page_size: u32 | batch_len: u32 | count: u32`, little-endian.
pub const SUMMARY_HEAD: usize = 24;

/// Bytes of one summary record: `key: u64 | gen: u64 | rel: u32 |
/// len: u32 | codec: u8`.
const SUMMARY_RECORD: usize = 25;

/// Length of a summary block holding `count` records (its CRC included).
pub(crate) fn summary_len(count: usize) -> usize {
    SUMMARY_HEAD + count * SUMMARY_RECORD + 4
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
    buf.extend_from_slice(&(SUMMARY_RECORD as u32).to_le_bytes());
    buf.extend_from_slice(&SB_VERSION.to_le_bytes());
    crc32(&buf)
}

/// The decoded superblock: everything recovery needs to walk the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Superblock {
    /// On-disk format version the slot was written under; this build
    /// writes and opens only its own.
    pub version: u32,
    /// Monotonic write sequence; the slot written is `seq % 2`, and the
    /// reader believes the valid slot with the highest sequence.
    pub seq: u64,
    /// The store's fixed page size (0 while nothing has been stored).
    pub page_size: u32,
    /// [`codec_fingerprint`] at write time.
    pub codec_fpr: u32,
    /// Set by an orderly seal after the final batch is durable; recovery
    /// on a clean file trusts the summaries outright and reads no
    /// extent.
    pub clean: bool,
    /// No batch written under this superblock has a sequence at or
    /// above this, and a reopened store resumes here or higher: a new
    /// batch outnumbers every summary on the file, even a stale one
    /// recovery could not see, so the walk rule stops at it.
    pub seq_limit: u64,
    /// Bytes per spill-file segment, fixed when the file is created.
    pub seg_bytes: u64,
    /// Drawn at random when the file is created and mixed into every
    /// summary's CRC: bytes the store did not write as a summary of this
    /// file — a stored page's payload, a summary of an earlier file on
    /// the same medium — do not pass for one.
    pub salt: u64,
}

impl Superblock {
    /// What a fresh file with `seg_bytes` segments stands on before its
    /// first superblock ([`Persist::stamp`]): no sequence, no lease, a
    /// new salt (`RandomState` keys come from the OS's randomness).
    pub(crate) fn fresh(seg_bytes: u64) -> Superblock {
        use std::hash::{BuildHasher, RandomState};
        Superblock {
            version: SB_VERSION,
            seq: 0,
            page_size: 0,
            codec_fpr: codec_fingerprint(),
            clean: false,
            seq_limit: 0,
            seg_bytes,
            salt: RandomState::new().hash_one(std::process::id()),
        }
    }
}

fn encode_superblock(sb: &Superblock) -> [u8; SB_SLOT] {
    let mut buf = [0u8; SB_SLOT];
    buf[0..4].copy_from_slice(&SB_MAGIC.to_le_bytes());
    buf[4..8].copy_from_slice(&sb.version.to_le_bytes());
    buf[8..16].copy_from_slice(&sb.seq.to_le_bytes());
    buf[16..20].copy_from_slice(&sb.page_size.to_le_bytes());
    buf[20..24].copy_from_slice(&sb.codec_fpr.to_le_bytes());
    buf[24..28].copy_from_slice(&(sb.clean as u32).to_le_bytes());
    buf[28..36].copy_from_slice(&sb.seq_limit.to_le_bytes());
    buf[36..44].copy_from_slice(&sb.seg_bytes.to_le_bytes());
    buf[44..52].copy_from_slice(&sb.salt.to_le_bytes());
    let crc = crc32(&buf[..SB_CRC_OFFSET]);
    buf[SB_CRC_OFFSET..].copy_from_slice(&crc.to_le_bytes());
    buf
}

fn u32_at(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
}

/// Decode one superblock slot; `None` unless `buf` holds a whole slot
/// whose magic and CRC check out.
fn decode_superblock(buf: &[u8]) -> Option<Superblock> {
    let buf = buf.get(..SB_SLOT)?;
    if u32_at(buf, 0) != SB_MAGIC || u32_at(buf, SB_CRC_OFFSET) != crc32(&buf[..SB_CRC_OFFSET]) {
        return None;
    }
    // Any version decodes, so an older file is refused by name
    // (`recover`) rather than mistaken for a missing superblock.
    Some(Superblock {
        version: u32_at(buf, 4),
        seq: u64_at(buf, 8),
        page_size: u32_at(buf, 16),
        codec_fpr: u32_at(buf, 20),
        clean: u32_at(buf, 24) & 1 != 0,
        seq_limit: u64_at(buf, 28),
        seg_bytes: u64_at(buf, 36),
        salt: u64_at(buf, 44),
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
/// (The first superblock a store writes, sequence 1, fills slot 1: a
/// file too short for both never held a whole one.)
pub fn read_superblock(data: &dyn SpillMedium) -> Option<Superblock> {
    let mut buf = [0u8; SB_SLOT * 2];
    data.read_at(&mut buf, 0).ok()?;
    let a = decode_superblock(&buf[..SB_SLOT]);
    let b = decode_superblock(&buf[SB_SLOT..]);
    match (a, b) {
        (Some(a), Some(b)) => Some(if a.seq >= b.seq { a } else { b }),
        (a, b) => a.or(b),
    }
}

/// One record of a summary block: an extent of the batch, or — with
/// `len == 0` — a tombstone whose `gen` is the removal's LSN.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SummaryRecord {
    /// The page's key.
    pub key: u64,
    /// The extent's generation, or the tombstone's LSN. Both are drawn
    /// from one counter, so they order the records of one key.
    pub gen: u64,
    /// The extent's offset from the start of the batch (0 for a
    /// tombstone).
    pub rel: u32,
    /// The extent's length, header included; 0 for a tombstone.
    pub len: u32,
    /// The codec id sealed into the extent (0 for a tombstone).
    pub codec: u8,
}

impl SummaryRecord {
    /// A tombstone for `key` at `lsn`.
    pub fn tombstone(key: u64, lsn: u64) -> SummaryRecord {
        SummaryRecord {
            key,
            gen: lsn,
            rel: 0,
            len: 0,
            codec: 0,
        }
    }

    /// Whether this record is a tombstone.
    pub fn is_tombstone(&self) -> bool {
        self.len == 0
    }
}

/// A decoded summary block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Summary {
    /// The batch's sequence number; strictly increasing down a segment.
    pub seq: u64,
    /// The store's page size when the batch was written.
    pub page_size: u32,
    /// Bytes of the whole batch, this summary included.
    pub batch_len: u32,
    /// The batch's extents and tombstones.
    pub records: Vec<SummaryRecord>,
}

/// The CRC of a summary block's bytes, seeded with the file's salt.
fn summary_crc(salt: u64, block: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(&salt.to_le_bytes());
    h.update(block);
    h.finish()
}

/// Append the summary block of a batch whose extents, `extents` bytes of
/// them, follow it, for the file salted `salt`. `records`' offsets are
/// relative to the first extent; they are written relative to the batch
/// start, as the decoder reads them.
pub(crate) fn encode_summary(
    salt: u64,
    seq: u64,
    page_size: u32,
    records: &[SummaryRecord],
    extents: usize,
    out: &mut Vec<u8>,
) {
    let start = out.len();
    let head = summary_len(records.len());
    out.extend_from_slice(&SUMMARY_MAGIC.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&page_size.to_le_bytes());
    out.extend_from_slice(&((head + extents) as u32).to_le_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for r in records {
        let rel = if r.is_tombstone() {
            0
        } else {
            r.rel + head as u32
        };
        out.extend_from_slice(&r.key.to_le_bytes());
        out.extend_from_slice(&r.gen.to_le_bytes());
        out.extend_from_slice(&rel.to_le_bytes());
        out.extend_from_slice(&r.len.to_le_bytes());
        out.push(r.codec);
    }
    let crc = summary_crc(salt, &out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    debug_assert_eq!(out.len() - start, head);
}

/// The length of the summary block `head` begins, from its header alone,
/// if it carries the magic and it, and its batch, fit the `room` bytes
/// left where it sits — checked before anything is sized from the
/// header's fields.
fn summary_block_len(head: &[u8], room: u64) -> Option<usize> {
    if head.len() < SUMMARY_HEAD || u32_at(head, 0) != SUMMARY_MAGIC {
        return None;
    }
    let batch_len = u32_at(head, 16) as u64;
    let count = u32_at(head, 20) as u64;
    let len = SUMMARY_HEAD as u64 + count * SUMMARY_RECORD as u64 + 4;
    (len <= batch_len && batch_len <= room).then_some(len as usize)
}

/// Decode the summary block at the front of `buf`, which sits with
/// `room` bytes of file left to it, in the file whose superblock is
/// `sb`. `None` unless the magic and the CRC under the file's salt check
/// out, the summary, its batch and every extent it names lie inside that
/// room, and neither its sequence nor any record's generation reaches
/// the lease — arbitrary bytes never panic and never size an
/// allocation.
pub fn decode_summary(buf: &[u8], room: u64, sb: &Superblock) -> Option<Summary> {
    let len = summary_block_len(buf, room)?;
    let block = buf.get(..len)?;
    if u32_at(block, len - 4) != summary_crc(sb.salt, &block[..len - 4]) {
        return None;
    }
    let seq = u64_at(block, 4);
    let batch_len = u32_at(block, 16);
    let records = block[SUMMARY_HEAD..len - 4]
        .chunks_exact(SUMMARY_RECORD)
        .map(|r| SummaryRecord {
            key: u64_at(r, 0),
            gen: u64_at(r, 8),
            rel: u32_at(r, 16),
            len: u32_at(r, 20),
            codec: r[24],
        })
        .collect::<Vec<_>>();
    let sound = |r: &SummaryRecord| {
        r.gen < sb.seq_limit
            && (r.is_tombstone()
                || (r.rel as usize >= len && r.rel as u64 + r.len as u64 <= batch_len as u64))
    };
    (seq < sb.seq_limit && records.iter().all(sound)).then_some(Summary {
        seq,
        page_size: u32_at(block, 12),
        batch_len,
        records,
    })
}

/// Walk the segment of the file `sb` describes that begins at `start`,
/// summary to summary: each valid summary ([`decode_summary`]) with its
/// batch's file offset, in file order, and whether the walk stopped at a
/// torn or damaged one (the magic, with a bad CRC or an out-of-bounds
/// field). The first batch may run on past the segment, up to `room`
/// bytes (a batch larger than a segment takes a run of them); every
/// later one ends inside it. The walk stops at the first block that is
/// not a valid summary after `tries` reads of it, or whose sequence is
/// not above the one before it.
pub(crate) fn walk_segment(
    data: &dyn SpillMedium,
    start: u64,
    room: u64,
    sb: &Superblock,
    tries: u32,
) -> (Vec<(u64, Summary)>, bool) {
    let end = start + sb.seg_bytes;
    let mut batches: Vec<(u64, Summary)> = Vec::new();
    let mut pos = start;
    let mut head = [0u8; SUMMARY_HEAD];
    let mut buf = Vec::new();
    while pos + SUMMARY_HEAD as u64 <= end {
        let room = if pos == start { room } else { end - pos };
        let mut magic = false;
        let summary = (0..tries.max(1)).find_map(|_| {
            data.read_at(&mut head, pos).ok()?;
            magic = u32_at(&head, 0) == SUMMARY_MAGIC;
            let len = summary_block_len(&head, room)?;
            buf.resize(len, 0);
            data.read_at(&mut buf, pos).ok()?;
            decode_summary(&buf, room, sb)
        });
        let Some(summary) = summary else {
            return (batches, magic);
        };
        if batches.last().is_some_and(|(_, s)| summary.seq <= s.seq) {
            break;
        }
        let next = pos + summary.batch_len as u64;
        batches.push((pos, summary));
        pos = next;
    }
    (batches, false)
}

/// A tombstone waiting for its batch: `(key, lsn)`.
pub(crate) type Tombstone = (u64, u64);

/// The store's handle on its persistence state, behind a leaf lock:
/// callers may hold a shard lock, and nothing is acquired while this is
/// held. Only the background thread writes the file; foreground removes only
/// queue tombstones here.
pub(crate) struct Persist {
    state: Mutex<PersistState>,
}

struct PersistState {
    /// Tombstones not yet on the file, oldest first: a batch copies
    /// them ([`Persist::pending`]) and drains them once it is durable
    /// ([`Persist::written`]), so one being written still counts.
    pending: Vec<Tombstone>,
    /// The last superblock written.
    sb: Superblock,
}

impl Persist {
    /// The state of a file whose last superblock is `last`; nothing is
    /// written. The opener takes the file over by stamping the next,
    /// dirty superblock ([`Persist::stamp`]) from `last`'s lease on —
    /// before a recovered file serves anything, so that a crash from
    /// there on recovers through the verifying path.
    pub fn new(last: Superblock) -> Persist {
        Persist {
            state: Mutex::new(PersistState {
                pending: Vec::new(),
                sb: last,
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, PersistState> {
        self.state.lock().expect("persist state poisoned")
    }

    /// The last superblock written: the salt and lease every summary of
    /// the file is read under.
    pub fn superblock(&self) -> Superblock {
        self.state().sb
    }

    /// Write the next superblock, leasing sequences up to `seq +
    /// SEQ_LEASE` if that is further: the opener's, the writer's before
    /// a batch whose sequence `seq` reaches the lease, or `clean` to seal
    /// an orderly shutdown once no tombstone is pending. Only the opener,
    /// before the writer starts, and then the writer stamp, so nothing
    /// changes `sb` between the copy and the write.
    pub fn stamp(
        &self,
        data: &dyn SpillMedium,
        page_size: u32,
        clean: bool,
        seq: u64,
    ) -> io::Result<()> {
        let last = self.superblock();
        let sb = Superblock {
            seq: last.seq + 1,
            page_size,
            clean,
            seq_limit: last.seq_limit.max(seq.saturating_add(SEQ_LEASE)),
            ..last
        };
        write_superblock(data, &sb)?;
        self.state().sb = sb;
        Ok(())
    }

    /// Queue a tombstone for the next batch. Called under the owning
    /// shard's lock, so its LSN orders exactly against the key's spill
    /// generations.
    pub fn enqueue_tombstone(&self, key: u64, lsn: u64) {
        self.state().pending.push((key, lsn));
    }

    /// Whether any tombstone is not yet on the file — queued, or in a
    /// batch still being written.
    pub fn has_pending(&self) -> bool {
        !self.state().pending.is_empty()
    }

    /// The tombstones not yet on the file, for the batch being written.
    pub fn pending(&self) -> Vec<Tombstone> {
        self.state().pending.clone()
    }

    /// The batch holding the first `n` [`Persist::pending`] tombstones
    /// is durable: they leave the queue.
    pub fn written(&self, n: usize) {
        self.state().pending.drain(..n);
    }
}

/// A live entry reconstructed from the summaries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecoveredEntry {
    pub key: u64,
    pub offset: u64,
    pub len: u32,
    pub gen: u64,
    pub codec: u8,
}

/// What one segment's summaries list, dead records included: the
/// segment table's extent and tombstone lists for a recovered file.
/// Every summary lists something, so a segment with neither held none.
#[derive(Debug, Default, Clone)]
pub(crate) struct RecoveredSegment {
    /// `(key, generation)` of every extent the summaries name.
    pub keys: Vec<(u64, u64)>,
    /// Every tombstone the summaries hold.
    pub tombs: Vec<Tombstone>,
}

/// Recovery tallies, mirrored into the store's telemetry counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryCounts {
    /// Summary records (extents and tombstones) decoded and folded.
    pub summary_records_replayed: u64,
    /// Torn summaries, plus extents that failed re-verification and
    /// were discarded.
    pub torn_tail_discarded: u64,
    /// Records that lost the fold to a newer record of the same key.
    pub stale_generation_dropped: u64,
    /// Extents re-read and CRC-verified (0 on a clean fast start — the
    /// gate for "clean open skipped the scan").
    pub extents_verified: u64,
    /// Entries recovered and served (clean or verified).
    pub extents_recovered: u64,
}

/// The outcome of [`recover`]: the live entry set plus the state the
/// store needs to resume.
pub(crate) struct Recovery {
    pub entries: Vec<RecoveredEntry>,
    /// One per segment up to the end of the file.
    pub segments: Vec<RecoveredSegment>,
    pub page_size: u32,
    /// Whether the clean fast path was taken.
    pub clean: bool,
    /// The superblock the file was read under. Every sequence,
    /// generation and LSN replayed is below its lease, where the store
    /// resumes its generation counter.
    pub sb: Superblock,
    pub counts: RecoveryCounts,
}

/// Why an open-existing failed before the store could even be built.
#[derive(Debug)]
pub enum RecoverError {
    /// Neither superblock slot decoded — not a spill file this format
    /// understands (or its head was destroyed).
    NoSuperblock,
    /// The file was written under another on-disk format version. This
    /// build refuses it instead of migrating it: versions 1 and 2 kept
    /// their location map in a sibling journal file.
    UnsupportedVersion {
        /// Version recorded in the superblock.
        on_disk: u32,
        /// The version this build writes and opens.
        ours: u32,
    },
    /// The file was written under a different codec set or on-disk
    /// format; decoding it would be guesswork.
    FingerprintMismatch {
        /// Fingerprint recorded in the superblock.
        on_disk: u32,
        /// This build's fingerprint.
        ours: u32,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::NoSuperblock => write!(f, "no valid superblock slot"),
            RecoverError::UnsupportedVersion { on_disk, ours } => write!(
                f,
                "spill file format version {on_disk}, this build opens only version {ours}; the file is refused, not migrated"
            ),
            RecoverError::FingerprintMismatch { on_disk, ours } => write!(
                f,
                "codec/format fingerprint mismatch: file {on_disk:#010x}, build {ours:#010x}"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

/// Walk every segment of the file and rebuild the live entry set. On an
/// unclean open every extent about to be served is re-read and its
/// header CRC re-checked; one that fails is discarded and counted, and
/// the key falls back to its next-newest record — the source of a torn
/// relocation, a tombstone, or an older generation.
pub(crate) fn recover(data: &dyn SpillMedium) -> Result<Recovery, RecoverError> {
    let sb = read_superblock(data).ok_or(RecoverError::NoSuperblock)?;
    if sb.version != SB_VERSION {
        return Err(RecoverError::UnsupportedVersion {
            on_disk: sb.version,
            ours: SB_VERSION,
        });
    }
    let ours = codec_fingerprint();
    if sb.codec_fpr != ours {
        return Err(RecoverError::FingerprintMismatch {
            on_disk: sb.codec_fpr,
            ours,
        });
    }
    let seg = sb.seg_bytes;
    if seg == 0 {
        return Err(RecoverError::NoSuperblock);
    }
    let start = |i: u64| SUPERBLOCK_RESERVED + i * seg;
    // The file ends before the first segment whose first byte is gone.
    let nsegs = (0..)
        .take_while(|&i| data.read_at(&mut [0u8; 1], start(i)).is_ok())
        .count() as u64;
    let mut counts = RecoveryCounts::default();
    let mut clean = sb.clean;
    let mut page_size = sb.page_size;
    let mut segments = vec![RecoveredSegment::default(); nsegs as usize];
    // `(batch sequence, batch offset, record)` of every record walked.
    let mut found: Vec<(u64, u64, SummaryRecord)> = Vec::new();
    let mut i = 0;
    while i < nsegs {
        let (batches, torn) = walk_segment(data, start(i), (nsegs - i) * seg, &sb, 1);
        if torn {
            counts.torn_tail_discarded += 1;
            clean = false;
        }
        let mut span = 1;
        let rs = &mut segments[i as usize];
        for (at, s) in &batches {
            if *at == start(i) {
                // A batch longer than a segment fills a run of them; the
                // rest of the run holds extent bytes, not summaries.
                span = (s.batch_len as u64).div_ceil(seg).max(1);
            }
            if s.page_size != 0 {
                page_size = s.page_size;
            }
            for r in &s.records {
                counts.summary_records_replayed += 1;
                match r.is_tombstone() {
                    true => rs.tombs.push((r.key, r.gen)),
                    false => rs.keys.push((r.key, r.gen)),
                }
                found.push((s.seq, *at, *r));
            }
        }
        i += span;
    }
    // Latest generation first, and of two copies of one generation the
    // later batch's first: per key, the first record that holds decides.
    found.sort_unstable_by(|(x, _, a), (y, _, b)| (a.key, b.gen, y).cmp(&(b.key, a.gen, x)));
    let mut entries = Vec::new();
    let mut ext_buf = Vec::new();
    for group in found.chunk_by(|a, b| a.2.key == b.2.key) {
        let newest = group[0].2.gen;
        counts.stale_generation_dropped +=
            group.iter().filter(|f| f.2.gen != newest).count() as u64;
        for &(_, at, r) in group {
            if r.is_tombstone() {
                break;
            }
            let offset = at + r.rel as u64;
            if !clean {
                counts.extents_verified += 1;
                ext_buf.clear();
                ext_buf.resize(r.len as usize, 0);
                let ok = data.read_at(&mut ext_buf, offset).is_ok()
                    && verify_extent(&ext_buf, r.gen, r.codec).is_some();
                if !ok {
                    counts.torn_tail_discarded += 1;
                    continue;
                }
            }
            counts.extents_recovered += 1;
            entries.push(RecoveredEntry {
                key: r.key,
                offset,
                len: r.len,
                gen: r.gen,
                codec: r.codec,
            });
            break;
        }
    }
    Ok(Recovery {
        entries,
        segments,
        page_size,
        clean,
        sb,
        counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::MemMedium;
    use crate::store::tests::unhex;
    use proptest::prelude::*;
    use std::sync::Arc;

    const SEG: u64 = 1 << 16;

    fn sb(seq: u64, clean: bool) -> Superblock {
        Superblock {
            version: SB_VERSION,
            seq,
            page_size: 4096,
            codec_fpr: codec_fingerprint(),
            clean,
            seq_limit: 1 << 40,
            seg_bytes: SEG,
            salt: 0x5A17_0000_C0FF_EE00,
        }
    }

    /// A slot of format version 1, as the build before the
    /// 16-byte-stride CRC kernel wrote it.
    fn golden_v1_slot() -> Vec<u8> {
        let mut slot = unhex(
            "01005bcc010000000700000000000000001000003258815001000000030000006000000000000000\
             0004000000000000e001000000000000",
        );
        slot.resize(SB_CRC_OFFSET, 0);
        slot.extend_from_slice(&unhex("abd80a09"));
        slot
    }

    #[test]
    fn superblock_roundtrips_and_rejects_tampering() {
        let b = encode_superblock(&sb(7, true));
        assert_eq!(decode_superblock(&b), Some(sb(7, true)));
        for i in [0, 9, 25, 40, SB_CRC_OFFSET + 1] {
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

    fn ext(key: u64, gen: u64, rel: u32) -> SummaryRecord {
        SummaryRecord {
            key,
            gen,
            rel,
            len: (EXTENT_HEADER + 8) as u32,
            codec: 0,
        }
    }

    #[test]
    fn records_roundtrip_and_any_bit_flip_rejects() {
        let recs = [ext(0xDEAD_BEEF, 9000, 0), SummaryRecord::tombstone(7, 9001)];
        let file = sb(1, false);
        let mut buf = Vec::new();
        encode_summary(file.salt, 9002, 4096, &recs, 32, &mut buf);
        assert_eq!(buf.len(), summary_len(2));
        let room = (buf.len() + 32) as u64;
        let s = decode_summary(&buf, room, &file).expect("decodes");
        assert_eq!((s.seq, s.page_size, s.batch_len), (9002, 4096, room as u32));
        // Offsets come back relative to the batch, past the summary.
        assert_eq!(s.records[0], ext(0xDEAD_BEEF, 9000, buf.len() as u32));
        assert_eq!(s.records[1], recs[1]);
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut t = buf.clone();
                t[byte] ^= 1 << bit;
                assert_eq!(
                    decode_summary(&t, room, &file),
                    None,
                    "byte {byte} bit {bit} accepted"
                );
            }
        }
        // A zero-filled (or invalidated) region is not a summary, a
        // batch that does not fit its room is refused, and so is the
        // same summary read under another file's salt, or under a lease
        // its sequence or a generation reaches.
        assert_eq!(decode_summary(&[0u8; 64], 1 << 20, &file), None);
        assert_eq!(decode_summary(&buf, room - 1, &file), None);
        let other = |f: fn(&mut Superblock)| {
            let mut sb = file;
            f(&mut sb);
            decode_summary(&buf, room, &sb)
        };
        assert_eq!(other(|sb| sb.salt ^= 1), None);
        assert_eq!(other(|sb| sb.seq_limit = 9002), None);
        assert_eq!(other(|sb| sb.seq_limit = 9001), None);
        assert!(other(|sb| sb.seq_limit = 9003).is_some());
    }

    /// A superblock slot as the build before the 16-byte-stride CRC
    /// kernel wrote it still passes its CRC and decodes, as version 1
    /// (which no longer opens:
    /// `old_format_version_is_refused_and_never_served`).
    #[test]
    fn golden_superblock_from_the_bytewise_crc_build() {
        let v1 = decode_superblock(&golden_v1_slot()).expect("the v1 slot's CRC still passes");
        assert_eq!((v1.version, v1.seq, v1.page_size), (1, 7, 4096));
        assert_eq!(v1.codec_fpr, 0x5081_5832);
    }

    /// A file laid out the way the writer lays it out: the superblock,
    /// then batches appended to segments. Each batch is a summary of its
    /// records (extents backed by valid bytes unless `torn`) followed by
    /// the extents.
    struct File {
        data: MemMedium,
        seq: u64,
    }

    impl File {
        fn new(clean: bool) -> File {
            let data = MemMedium::new();
            write_superblock(&data, &sb(1, clean)).unwrap();
            File { data, seq: 1 << 20 }
        }

        /// Write a batch at `at`; `torn` extents get garbage bytes.
        /// Returns the extents' offsets and where the batch ends.
        fn batch(&mut self, at: u64, recs: &[(u64, u64, bool)], torn: &[u64]) -> (Vec<u64>, u64) {
            let mut extents = Vec::new();
            let mut records = Vec::new();
            let mut offsets = Vec::new();
            for &(key, gen, live) in recs {
                if !live {
                    records.push(SummaryRecord::tombstone(key, gen));
                    continue;
                }
                let rel = extents.len() as u32;
                crate::store::extent::encode_extent(&mut extents, gen, 0, &[0xABu8; 8]);
                if torn.contains(&key) {
                    extents[rel as usize + 4] ^= 0xFF;
                }
                records.push(ext(key, gen, rel));
                offsets.push(rel as u64);
            }
            let mut buf = Vec::new();
            self.seq += 1;
            let salt = sb(1, false).salt;
            encode_summary(salt, self.seq, 64, &records, extents.len(), &mut buf);
            let base = at + buf.len() as u64;
            buf.extend_from_slice(&extents);
            self.data.write_at(&buf, at).unwrap();
            let end = at + buf.len() as u64;
            (offsets.into_iter().map(|o| base + o).collect(), end)
        }
    }

    const S0: u64 = SUPERBLOCK_RESERVED;
    const S1: u64 = SUPERBLOCK_RESERVED + SEG;

    #[test]
    fn replay_folds_latest_wins_and_respects_tombstone_order() {
        let mut f = File::new(false);
        f.batch(S0, &[(1, 10, true), (2, 20, true)], &[]);
        // Key 2 removed at lsn 40, and key 1 rewritten; then key 2's
        // *old* generation turns up in a later batch (a remove that
        // overtook a queued job): the tombstone still wins.
        let (_, end) = f.batch(S1, &[(1, 30, true), (2, 40, false)], &[]);
        f.batch(end, &[(2, 20, true)], &[]);
        let rec = recover(&f.data).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!((rec.entries[0].key, rec.entries[0].gen), (1, 30));
        // Every sequence and generation on the file is below the lease,
        // which is where the store resumes.
        assert_eq!(rec.sb.seq_limit, sb(1, false).seq_limit);
        assert!(!rec.clean);
        assert_eq!(rec.counts.summary_records_replayed, 5);
        // Key 1's generation 10 and key 2's generation 20, twice.
        assert_eq!(rec.counts.stale_generation_dropped, 3);
        assert_eq!(rec.page_size, 64);
        assert_eq!(rec.segments[1].tombs, vec![(2, 40)]);
        assert_eq!(rec.segments[0].keys, vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn torn_summary_is_discarded_and_counted() {
        let mut f = File::new(false);
        let (_, at) = f.batch(S0, &[(1, 1, true)], &[]);
        // A second batch whose summary was cut after 30 of its bytes.
        let mut buf = Vec::new();
        encode_summary(
            sb(1, false).salt,
            f.seq + 1,
            64,
            &[ext(2, 2, 0)],
            32,
            &mut buf,
        );
        f.data.write_at(&buf[..30], at).unwrap();
        let rec = recover(&f.data).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.counts.torn_tail_discarded, 1);
    }

    #[test]
    fn a_stale_summary_behind_a_reused_segments_batches_is_not_replayed() {
        let mut f = File::new(false);
        // The segment's earlier use: two batches, the second naming key 9.
        let (_, second) = f.batch(S0, &[(1, 1, true)], &[]);
        f.batch(second, &[(9, 2, true)], &[]);
        // Reused: a new first batch of the same length ends exactly where
        // the stale summary begins, and its sequence is higher.
        f.batch(S0, &[(3, 3, true)], &[]);
        let rec = recover(&f.data).unwrap();
        let keys: Vec<u64> = rec.entries.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![3]);
    }

    /// A page stored verbatim is bytes the client chose, and they can be
    /// laid out as a summary naming another key, with a valid CRC. A
    /// reused segment's new chain can end right where such a payload
    /// sits. The walk takes it only under the file's salt and inside the
    /// lease; without the salt it is a torn summary, and a sequence or a
    /// generation at the top of the range is refused, not overflowed.
    #[test]
    fn a_forged_summary_in_a_stored_page_is_not_replayed() {
        let salt = sb(1, false).salt;
        // The forged batch: a summary naming key 77, and its extent.
        let forged = |salt: u64, seq: u64, gen: u64| {
            let mut extent = Vec::new();
            crate::store::extent::encode_extent(&mut extent, gen, 0, &[0xCDu8; 8]);
            let mut out = Vec::new();
            encode_summary(salt, seq, 64, &[ext(77, gen, 0)], extent.len(), &mut out);
            out.extend_from_slice(&extent);
            out
        };
        // The new first batch, three tombstones long, ends `pad` bytes
        // into the old extent's payload.
        let pad = summary_len(3) - summary_len(1) - EXTENT_HEADER;
        let cases = [
            (salt ^ 1, 1 << 30, 5, false),
            (salt, u64::MAX, 5, false),
            (salt, 1 << 30, u64::MAX, false),
            // The control: under the salt and inside the lease the
            // forged bytes do pass, so the layout reaches them.
            (salt, 1 << 30, 5, true),
        ];
        for (salt, seq, gen, replayed) in cases {
            let mut f = File::new(false);
            let mut payload = vec![0xEEu8; pad];
            payload.extend_from_slice(&forged(salt, seq, gen));
            let mut extent = Vec::new();
            crate::store::extent::encode_extent(&mut extent, 1, 0, &payload);
            let mut old = Vec::new();
            f.seq += 1;
            encode_summary(
                sb(1, false).salt,
                f.seq,
                64,
                &[ext(1, 1, 0)],
                extent.len(),
                &mut old,
            );
            old.extend_from_slice(&extent);
            f.data.write_at(&old, S0).unwrap();
            // Reused: key 1 removed, with two more tombstones.
            let (_, end) = f.batch(S0, &[(1, 2, false), (2, 3, false), (3, 4, false)], &[]);
            assert_eq!(end, S0 + (summary_len(1) + EXTENT_HEADER + pad) as u64);
            let rec = recover(&f.data).unwrap();
            let keys: Vec<u64> = rec.entries.iter().map(|e| e.key).collect();
            assert_eq!(
                keys,
                if replayed { vec![77] } else { vec![] },
                "{seq} {gen}"
            );
            assert_eq!(rec.sb.seq_limit, sb(1, false).seq_limit);
            assert_eq!(rec.counts.torn_tail_discarded, !replayed as u64);
        }
    }

    #[test]
    fn unclean_recovery_verifies_extents_and_drops_torn_ones() {
        let mut f = File::new(false);
        f.batch(S0, &[(1, 1, true), (2, 2, true)], &[2]);
        let rec = recover(&f.data).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0].key, 1);
        assert_eq!(rec.counts.extents_verified, 2);
        assert_eq!(rec.counts.extents_recovered, 1);
        assert_eq!(rec.counts.torn_tail_discarded, 1);
    }

    #[test]
    fn clean_seal_skips_verification_entirely() {
        let mut f = File::new(true);
        // Deliberately torn: a clean open must not read it at all.
        f.batch(S0, &[(1, 1, true)], &[1]);
        let rec = recover(&f.data).unwrap();
        assert!(rec.clean);
        assert_eq!(rec.counts.extents_verified, 0);
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.segments.len(), 1);
    }

    /// A relocated extent is the same `(key, generation)` again in a
    /// later batch: recovery serves the copy, and when the copy is torn
    /// it is discarded and the intact source served instead.
    #[test]
    fn reloc_moves_the_extent_and_a_torn_copy_is_discarded() {
        let mut f = File::new(false);
        let old = f.batch(S0, &[(1, 5, true)], &[]).0[0];
        let new = f.batch(S1, &[(1, 5, true)], &[1]).0[0];
        let rec = recover(&f.data).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0].offset, old);
        assert_eq!(rec.counts.torn_tail_discarded, 1);
        // With the copy intact it recovers at its new home.
        f.batch(S1, &[(1, 5, true)], &[]);
        let rec = recover(&f.data).unwrap();
        assert_eq!(rec.entries[0].offset, new);
        assert_eq!(rec.counts.stale_generation_dropped, 0);
    }

    /// Spill files sealed under format versions 1 and 2 decode but are
    /// refused by name: recovery reads nothing past the superblock, and
    /// the store does not open, so none of it is served.
    #[test]
    fn old_format_version_is_refused_and_never_served() {
        let v2 = encode_superblock(&Superblock {
            version: 2,
            ..sb(7, true)
        });
        for (version, slot) in [(1, golden_v1_slot()), (2, v2.to_vec())] {
            let data = MemMedium::new();
            // Sequence 7 lives in slot 1.
            data.write_at(&slot, SB_SLOT as u64).unwrap();
            match recover(&data) {
                Err(RecoverError::UnsupportedVersion { on_disk, ours }) => {
                    assert_eq!((on_disk, ours), (version, SB_VERSION));
                }
                other => panic!(
                    "a version-{version} file was not refused: {:?}",
                    other.err()
                ),
            }
            let open = crate::store::CompressedStore::open_existing_with_media(
                crate::store::StoreConfig::with_spill(1 << 20, "/unused-old-media"),
                Arc::new(data.share()),
            );
            assert!(matches!(open, Err(crate::store::StoreError::Corrupt)));
        }
    }

    #[test]
    fn fingerprint_mismatch_refuses_to_open() {
        let data = MemMedium::new();
        let mut s = sb(1, true);
        s.codec_fpr ^= 1;
        write_superblock(&data, &s).unwrap();
        assert!(matches!(
            recover(&data),
            Err(RecoverError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn missing_superblock_refuses_to_open() {
        assert!(matches!(
            recover(&MemMedium::new()),
            Err(RecoverError::NoSuperblock)
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The two decoders this format owns take any bytes without
        /// panicking. `sealed` stamps a valid magic and CRC over the
        /// arbitrary fields, so a count, a batch length or an extent
        /// that runs past the room, or a sequence or generation past
        /// the lease, is seen by the checks, not stopped by the CRC
        /// first.
        #[test]
        fn decoders_accept_any_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..400),
            room in 0u64..1024,
            sealed in any::<bool>(),
            count in 0u32..20,
            limit in any::<u64>(),
        ) {
            let file = Superblock { seq_limit: limit, ..sb(1, false) };
            let mut bytes = bytes;
            let mut slot = bytes.clone();
            if sealed && slot.len() >= SB_SLOT {
                slot[0..4].copy_from_slice(&SB_MAGIC.to_le_bytes());
                let crc = crc32(&slot[..SB_CRC_OFFSET]);
                slot[SB_CRC_OFFSET..SB_SLOT].copy_from_slice(&crc.to_le_bytes());
                prop_assert!(decode_superblock(&slot).is_some());
            }
            let _ = decode_superblock(&slot);

            let len = summary_len(count as usize);
            if sealed && bytes.len() >= len {
                bytes[0..4].copy_from_slice(&SUMMARY_MAGIC.to_le_bytes());
                bytes[20..24].copy_from_slice(&count.to_le_bytes());
                let crc = summary_crc(file.salt, &bytes[..len - 4]);
                bytes[len - 4..len].copy_from_slice(&crc.to_le_bytes());
            }
            if let Some(s) = decode_summary(&bytes, room, &file) {
                prop_assert_eq!(s.records.len(), count as usize);
                prop_assert!(len as u64 <= s.batch_len as u64 && s.batch_len as u64 <= room);
                prop_assert!(s.seq < limit && s.records.iter().all(|r| r.gen < limit));
                for r in s.records.iter().filter(|r| !r.is_tombstone()) {
                    prop_assert!(r.rel as usize >= len);
                    prop_assert!(r.rel as u64 + r.len as u64 <= s.batch_len as u64);
                }
            }
        }
    }
}
