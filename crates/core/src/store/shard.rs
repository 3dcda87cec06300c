//! One lock stripe: the entries it owns, where each one lives
//! ([`Residence`]), its two LRU lists and buffer pool — plus the
//! per-thread scratch the codecs run in, outside any shard lock.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::mpsc::Sender;
use std::sync::Arc;

use super::writer::SpillJob;
use cc_compress::CodecSet;
use cc_util::LruList;
#[cfg(doc)]
use {super::extent::EXTENT_HEADER, cc_compress::CodecId};

pub(super) enum Residence {
    /// The hot tier: the page's raw uncompressed bytes (not a sealed
    /// block — no method byte), tracked on the shard's hot LRU and
    /// counted against the budget at full page size. A get is a memcpy.
    Hot {
        data: Vec<u8>,
        handle: cc_util::LruHandle,
    },
    /// Compressed (or raw) bytes in memory, LRU-tracked, counted against
    /// the budget.
    Memory {
        data: Vec<u8>,
        handle: cc_util::LruHandle,
    },
    /// The whole page is one repeated 8-byte word; nothing is stored but
    /// the pattern. Never LRU-tracked or spilled: reconstructing it is
    /// cheaper than any I/O, and it occupies no budget.
    SameFilled { pattern: u64 },
    /// Handed to the writer; data still readable until the write lands
    /// and the writer flips this to `Spilled`. The generation ties that
    /// publish to *this* hand-off: a key can be replaced and re-spilled
    /// while an older job is still queued, and the writer must not
    /// publish the stale job's location over the newer entry.
    Spilling { data: Arc<Vec<u8>>, gen: u64 },
    /// On the spill file. `len` is the full extent length — the
    /// [`EXTENT_HEADER`]-byte self-verifying header plus the compressed
    /// payload. The generation survives from the spill job so a reader
    /// can detect (and retry across) a concurrent replacement even if GC
    /// relocates extents while its read is in flight, and is also sealed
    /// into the header so a misdirected read is caught by verification.
    Spilled { offset: u64, len: u32, gen: u64 },
}

pub(super) struct Entry {
    pub(super) residence: Residence,
    pub(super) orig_len: u32,
    /// [`CodecId`] (as its wire byte) that sealed this entry's bytes.
    /// Decode always dispatches on this — never on guessing — and it is
    /// also sealed into the spill extent header so the two can be
    /// cross-checked after a read. Hot entries record [`CodecId::Raw`]
    /// (nothing is sealed while hot).
    pub(super) codec: u8,
    /// What the put path learned about these exact page bytes: 0 = not
    /// probed (non-adaptive policy, a kept-hot re-put, a recovered
    /// entry), 1 = the sampled probe predicted BDI, 2 = it predicted
    /// not-BDI, [`PROBE_REJECTED`] = the codecs ran and the threshold
    /// rejected their output. Demotion hands 1 and 2 back to the codec
    /// layer so aging a hot page never re-probes it, and seals a
    /// rejected page as the stored block it already was — no second
    /// compression of a page that is hot *because* the first one failed.
    /// The code cannot go stale: a hot entry's bytes change only through
    /// the kept-hot re-put, which resets it to 0.
    pub(super) probe: u8,
    /// Gets served since the last put of this key (saturating). The
    /// promotion signal: re-access frequency within the recency window.
    pub(super) gets: u16,
    /// Low 32 bits of the store's operation clock when this entry was
    /// last put or got. Ages are wrapping differences on this — at one
    /// op per clock tick a 32-bit window is ~4 billion operations deep,
    /// far past any policy's idle threshold.
    pub(super) last_touch: u32,
    /// Whether this key has a location record in the persistence
    /// journal (set when a spill job is queued, kept across promotion).
    /// Removing or replacing a journaled key must enqueue a tombstone,
    /// or recovery would resurrect it. Always `false` on
    /// non-persistent stores.
    pub(super) journaled: bool,
}

/// Entry probe-byte encoding of the put path's `Option<bool>` verdict.
pub(super) fn probe_code(hint: Option<bool>) -> u8 {
    match hint {
        None => 0,
        Some(true) => 1,
        Some(false) => 2,
    }
}

/// [`Entry::probe`] code of a page whose compressed form the threshold
/// rejected (`!Selection::admitted`) on the put that stored these bytes.
pub(super) const PROBE_REJECTED: u8 = 3;

/// Decode [`probe_code`] back into the codec layer's hint form.
pub(super) fn probe_hint(code: u8) -> Option<bool> {
    match code {
        1 => Some(true),
        2 => Some(false),
        _ => None,
    }
}

/// Multiplicative hasher for the per-shard entry maps: the keys are
/// already well-mixed page numbers, so SipHash's DoS resistance only
/// costs cycles here.
#[derive(Default)]
pub(super) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, k: u64) {
        // splitmix64 finalizer — full avalanche in three multiplies.
        let mut z = k.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

pub(super) type EntryMap = HashMap<u64, Entry, BuildHasherDefault<KeyHasher>>;

/// Max pooled buffers per shard; beyond this, freed buffers are dropped.
const POOL_CAP: usize = 64;

pub(super) struct Shard {
    pub(super) entries: EntryMap,
    /// Coldest-first spill ordering over the keys with `Memory` residence.
    pub(super) lru: LruList<u64>,
    /// Coldest-first demotion ordering over the keys with `Hot`
    /// residence. Kept separate from `lru` so pressure eviction can
    /// prefer warm victims (already compressed — spilling them is
    /// cheap) and only then start compressing hot ones.
    pub(super) lru_hot: LruList<u64>,
    /// Recycled entry buffers: steady-state puts allocate nothing.
    pub(super) pool: Vec<Vec<u8>>,
    /// Clone of the cleaner channel (kept per shard so no shared `Sender`
    /// needs to be `Sync`); `None` once shut down or without a spill file.
    pub(super) tx: Option<Sender<SpillJob>>,
}

impl Shard {
    pub(super) fn acquire_buf(&mut self, contents: &[u8]) -> Vec<u8> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(contents);
        buf
    }

    pub(super) fn release_buf(&mut self, buf: Vec<u8>) {
        if self.pool.len() < POOL_CAP {
            self.pool.push(buf);
        }
    }
}

/// Pad shards to their own cache lines so hot per-shard state on
/// neighbouring shards does not false-share.
#[repr(align(128))]
pub(super) struct Padded<T>(pub(super) T);

/// Scratch space reused across calls on each thread: the codec set
/// (LZRW1's hash table lives here) plus compression and staging buffers
/// (decompression writes the caller's page directly). `comp` is sized by
/// [`CodecSet::max_compressed_len`] for the active policy on every
/// compress — each codec's own worst case, not LZRW1's.
pub(super) struct Scratch {
    pub(super) codecs: CodecSet,
    pub(super) comp: Vec<u8>,
    pub(super) stage: Vec<u8>,
    /// Demotion's compression output. Separate from `comp` because hot
    /// demotion can run *inside* a put's eviction loop on the same
    /// thread, while the put's own sealed bytes are still parked in
    /// `comp` waiting for budget.
    pub(super) demote: Vec<u8>,
}

/// The first `len` bytes of a staging buffer that only ever grows: the
/// zero fill is paid once, when a longer extent than any before is
/// staged, not on every read that is about to overwrite the bytes.
pub(super) fn stage_slot(stage: &mut Vec<u8>, len: usize) -> &mut [u8] {
    if stage.len() < len {
        stage.resize(len, 0);
    }
    &mut stage[..len]
}

thread_local! {
    pub(super) static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        codecs: CodecSet::new(),
        comp: Vec::new(),
        stage: Vec::new(),
        demote: Vec::new(),
    });
}
