//! One lock stripe: the entries it owns in an arena behind a key index,
//! where each one lives ([`Residence`]) and the two sets its eviction
//! victims are sampled from — plus the per-thread scratch the codecs run
//! in, outside any shard lock.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::{Index, IndexMut};
use std::sync::Arc;

use cc_compress::{CodecSet, Route};
use cc_util::SplitMix64;
#[cfg(doc)]
use {
    super::core::StoreCore, super::extent::EXTENT_HEADER, super::tiering::SealJob,
    cc_compress::CodecId,
};

/// Where an entry's bytes live. Every payload is one allocation of
/// exactly its length — the bytes the budget counts are the bytes the
/// store holds, give or take the allocator's header — and every variant
/// fits in 24 bytes, so an [`Entry`] is 48 with its key. `slot` is the
/// entry's position in its shard's [`Shard::sets`].
pub(super) enum Residence {
    /// The hot tier: the page's raw uncompressed bytes (not a sealed
    /// block — no method byte), in the shard's hot set and counted
    /// against the budget at full page size. A get is a memcpy.
    Hot { data: Box<[u8]>, slot: u32 },
    /// Compressed (or raw) bytes in memory, in the shard's warm set,
    /// counted against the budget. A get decodes them in place, under
    /// the shard lock; eviction hands this same allocation to the
    /// writer, never a copy.
    Memory { data: Arc<[u8]>, slot: u32 },
    /// The raw page of a put whose route is LZRW1, waiting for the
    /// background thread to seal it ([`SealJob`]). Counted at full page size in
    /// the budget and the hot gauge, in neither set; a get is a memcpy.
    /// The job holds the other clone, and its publish revalidates
    /// against this allocation exactly as the writer's does for
    /// `Spilling`.
    Sealing { data: Arc<[u8]> },
    /// The whole page is one repeated 8-byte word; nothing is stored but
    /// the pattern. Never an eviction victim or spilled: reconstructing it is
    /// cheaper than any I/O, and it occupies no budget.
    SameFilled { pattern: u64 },
    /// Handed to the writer; data still readable until the write lands
    /// and the writer flips this to `Spilled`. The allocation itself ties
    /// that publish to *this* hand-off: a key can be replaced and
    /// re-spilled while an older job is still queued, and the writer
    /// publishes a job only over an entry whose payload is the job's own
    /// (`Arc::ptr_eq`), never over a newer one. The job keeps its clone
    /// until it is published, so the address cannot be freed and handed
    /// to a later hand-off in the meantime.
    Spilling { data: Arc<[u8]> },
    /// On the spill file. `len` is the full extent length — the
    /// [`EXTENT_HEADER`]-byte self-verifying header plus the compressed
    /// payload. The generation survives from the spill job so a reader
    /// can detect (and retry across) a concurrent replacement even if GC
    /// relocates extents while its read is in flight, and is also sealed
    /// into the header so a misdirected read is caught by verification.
    Spilled { offset: u64, len: u32, gen: u64 },
}

pub(super) struct Entry {
    /// The key this entry is indexed under: a sample or a set fix-up
    /// reads it here, with no lookup.
    pub(super) key: u64,
    pub(super) residence: Residence,
    pub(super) orig_len: u32,
    /// [`CodecId`] (as its wire byte) that sealed this entry's bytes.
    /// Decode always dispatches on this — never on guessing — and it is
    /// also sealed into the spill extent header so the two can be
    /// cross-checked after a read. Hot entries record [`CodecId::Raw`]
    /// (nothing is sealed while hot).
    pub(super) codec: u8,
    /// The [`Route`] the put that stored these exact bytes took:
    /// [`Route::Raw`] if they were stored raw, predicted or rejected by
    /// the threshold; `None` if not classified (a kept-hot re-put, a
    /// same-filled page, a recovered entry). Demotion hands the route
    /// back to the codec layer, so aging a hot page never classifies it
    /// again and a rejected page is sealed as the stored block it
    /// already was — no second compression of a page that is hot
    /// *because* the first one failed. The route cannot go stale: a hot
    /// entry's bytes change only through the kept-hot re-put, which
    /// resets it to `None`.
    pub(super) probe: Option<Route>,
    /// Gets served since the last put of this key (saturating). The
    /// promotion signal: re-access frequency within the recency window.
    pub(super) gets: u16,
    /// Low 32 bits of the store's operation clock when this entry was
    /// last put or got. Ages are wrapping differences on this — at one
    /// op per clock tick a 32-bit window is ~4 billion operations deep,
    /// far past any policy's idle threshold. The only recency record:
    /// eviction and the demote passes pick the oldest of a sample
    /// ([`Shard::victim`]).
    pub(super) last_touch: u32,
    /// Whether this key may have a record in a batch summary on the
    /// spill file (set when its spill job's batch is published, kept
    /// across promotion, and on every recovered entry). Removing or
    /// replacing a journaled key must enqueue a tombstone, or recovery
    /// would resurrect it. A key whose batch never reached the file has
    /// no record to kill.
    pub(super) journaled: bool,
}

/// The splitmix64 finalizer: full avalanche in three multiplies, so a
/// key's shard and its map bucket do not follow any key-assignment
/// pattern (sequential keys, strided keys, ...). The key indices hash
/// with all of it ([`KeyHasher`]) and the shard is drawn from bits 32
/// and up ([`StoreCore::shard_index`]). Were it the low bits, every key
/// of shard `s` would hash to `s` modulo the shard count, and a shard's
/// index would start its probes in one bucket of every shard count.
#[inline]
pub(super) fn mix64(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hasher for the per-shard key indices: the keys are page numbers, so
/// SipHash's DoS resistance only costs cycles here; [`mix64`] spreads
/// them.
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
        self.0 = mix64(k);
    }
}

/// Entries an arena chunk holds. A chunk is allocated whole, once, and
/// never grows, so no entry moves while it lives and no doubling leaves
/// an old copy of the entries behind in the heap.
pub(super) const CHUNK: usize = 1024;

/// An arena slot: a live entry, or a vacated one that links the next
/// vacated slot (`NIL` ends the list). 48 bytes either way.
pub(super) enum Slot {
    Live(Entry),
    Free(u32),
}

/// The end of the free list.
const NIL: u32 = u32::MAX;

/// A shard's entries, each at a `u32` index that holds still while it
/// lives: chunks of [`CHUNK`] slots, the first `used` of them used, and
/// a free list of vacated slots that the next insert reuses.
struct Arena {
    chunks: Vec<Box<[Slot; CHUNK]>>,
    used: u32,
    free: u32,
}

impl Arena {
    /// The slot at `at`, if the arena has used it.
    fn slot(&self, at: u32) -> Option<&Slot> {
        (at < self.used).then(|| &self.chunks[at as usize / CHUNK][at as usize % CHUNK])
    }

    fn slot_mut(&mut self, at: u32) -> &mut Slot {
        &mut self.chunks[at as usize / CHUNK][at as usize % CHUNK]
    }

    /// The entry at `at`, if that slot is live.
    fn live(&self, at: u32) -> Option<&Entry> {
        match self.slot(at) {
            Some(Slot::Live(e)) => Some(e),
            _ => None,
        }
    }

    /// Every slot the arena has used, in index order.
    fn slots(&self) -> impl Iterator<Item = &Slot> {
        self.chunks
            .iter()
            .flat_map(|c| c.iter())
            .take(self.used as usize)
    }

    /// Place `entry` in the last vacated slot, or else the next unused
    /// one (a new chunk's first, when every chunk is used), and return
    /// its index.
    fn alloc(&mut self, entry: Entry) -> u32 {
        if self.free == NIL {
            if self.used as usize == self.chunks.len() * CHUNK {
                let chunk: Box<[Slot]> = (0..CHUNK).map(|_| Slot::Free(NIL)).collect();
                self.chunks
                    .push(chunk.try_into().ok().expect("CHUNK slots"));
            }
            self.free = self.used;
            self.used += 1;
        }
        let at = self.free;
        let Slot::Free(next) = std::mem::replace(self.slot_mut(at), Slot::Live(entry)) else {
            unreachable!("free slot {at} is live")
        };
        self.free = next;
        at
    }

    /// Take the entry at `at` out and put its slot on the free list.
    fn vacate(&mut self, at: u32) -> Entry {
        let next = std::mem::replace(&mut self.free, at);
        match std::mem::replace(self.slot_mut(at), Slot::Free(next)) {
            Slot::Live(e) => e,
            Slot::Free(_) => unreachable!("slot {at} vacated twice"),
        }
    }
}

impl Index<u32> for Arena {
    type Output = Entry;
    fn index(&self, at: u32) -> &Entry {
        self.live(at)
            .unwrap_or_else(|| panic!("slot {at} is not live"))
    }
}

impl IndexMut<u32> for Arena {
    fn index_mut(&mut self, at: u32) -> &mut Entry {
        match self.slot_mut(at) {
            Slot::Live(e) => e,
            Slot::Free(_) => panic!("slot {at} is not live"),
        }
    }
}

/// Keys an eviction samples from a set ([`Shard::victim`]): the
/// associativity of a set-associative cache.
const SAMPLE: usize = 8;

/// One of a shard's two victim sets, indexing [`Shard::sets`].
#[derive(Clone, Copy)]
pub(super) enum Set {
    Hot,
    Warm,
}

pub(super) struct Shard {
    arena: Arena,
    /// Each key's arena index: 16 bytes a bucket.
    index: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
    /// The arena indices of the entries with `Hot` and with `Memory`
    /// residence, in no order: a residence's `slot` is its position in
    /// its set. Kept apart so pressure eviction can prefer warm victims
    /// (already compressed — spilling them is cheap) and only then
    /// start compressing hot ones.
    pub(super) sets: [Vec<u32>; 2],
    /// Draws the eviction samples.
    rng: SplitMix64,
}

impl Shard {
    /// An empty shard whose samples are drawn from `seed`.
    pub(super) fn new(seed: u64) -> Shard {
        Shard {
            arena: Arena {
                chunks: Vec::new(),
                used: 0,
                free: NIL,
            },
            index: HashMap::default(),
            sets: [Vec::new(), Vec::new()],
            rng: SplitMix64::new(seed),
        }
    }

    /// `key`'s arena index, if the shard holds it.
    pub(super) fn find(&self, key: u64) -> Option<u32> {
        self.index.get(&key).copied()
    }

    pub(super) fn get(&self, key: u64) -> Option<&Entry> {
        self.find(key).map(|at| &self.arena[at])
    }

    pub(super) fn get_mut(&mut self, key: u64) -> Option<&mut Entry> {
        let at = self.find(key)?;
        Some(&mut self.arena[at])
    }

    pub(super) fn len(&self) -> usize {
        self.index.len()
    }

    /// Room in the index for `n` more keys, so that many inserts size
    /// its table once.
    pub(super) fn reserve(&mut self, n: usize) {
        self.index.reserve(n);
    }

    /// Every entry, in arena order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.arena.slots().filter_map(|s| match s {
            Slot::Live(e) => Some(e),
            Slot::Free(_) => None,
        })
    }

    /// Add `entry`, whose key the shard must not hold, and return its
    /// arena index. A `Hot` or `Memory` entry must then be enlisted.
    pub(super) fn insert(&mut self, entry: Entry) -> u32 {
        let key = entry.key;
        let at = self.arena.alloc(entry);
        let old = self.index.insert(key, at);
        debug_assert!(old.is_none(), "key {key} inserted twice");
        at
    }

    /// Take `key`'s entry out; one in a set must then be delisted.
    pub(super) fn remove(&mut self, key: u64) -> Option<Entry> {
        let at = self.index.remove(&key)?;
        Some(self.arena.vacate(at))
    }

    /// Add the entry at arena index `at` to `set`; its residence must
    /// record the slot returned.
    pub(super) fn enlist(&mut self, set: Set, at: u32) -> u32 {
        self.sets[set as usize].push(at);
        (self.sets[set as usize].len() - 1) as u32
    }

    /// Take `slot` off `set`: the set's last entry moves into it, and
    /// its residence is told so.
    pub(super) fn delist(&mut self, set: Set, slot: u32) {
        let ats = &mut self.sets[set as usize];
        ats.swap_remove(slot as usize);
        let Some(&moved) = ats.get(slot as usize) else {
            return;
        };
        match &mut self.arena[moved].residence {
            Residence::Hot { slot: s, .. } | Residence::Memory { slot: s, .. } => *s = slot,
            _ => unreachable!("an entry in a set is in memory"),
        }
    }

    /// The arena index of the least recently touched of [`SAMPLE`]
    /// entries drawn from `set`, or of all of them when it holds that
    /// many or fewer, with its age at `now`. Every stamp in the shard
    /// must have been drawn before `now`, so no wrapping age comes out
    /// huge.
    pub(super) fn victim(&mut self, set: Set, now: u32) -> Option<(u32, u64)> {
        let ats = &self.sets[set as usize];
        let (n, rng) = (ats.len(), &mut self.rng);
        (0..n.min(SAMPLE))
            .map(|i| ats[if n <= SAMPLE { i } else { rng.gen_index(n) }])
            .map(|at| (at, now.wrapping_sub(self.arena[at].last_touch) as u64))
            .max_by_key(|&(_, age)| age)
    }

    /// The arena's own identities: every index entry names a live slot
    /// holding its key, and every live slot is indexed; the free list
    /// links every vacated slot and nothing else; the sets hold as many
    /// entries as there are `Hot` and `Memory` ones, and each position
    /// names a live entry of its set that records that position.
    pub(super) fn check(&self) -> Result<(), String> {
        let arena = &self.arena;
        let stray = self
            .index
            .iter()
            .find(|&(&k, &at)| arena.live(at).is_none_or(|e| e.key != k));
        if let Some((key, at)) = stray {
            return Err(format!(
                "key {key}'s index names slot {at}, which does not hold it"
            ));
        }
        let vacant = arena.slots().filter(|s| matches!(s, Slot::Free(_))).count();
        let (mut linked, mut next) = (0, arena.free);
        while next != NIL && linked <= vacant {
            let Some(Slot::Free(after)) = arena.slot(next) else {
                return Err(format!(
                    "the free list links slot {next}, which is not vacant"
                ));
            };
            (linked, next) = (linked + 1, *after);
        }
        if linked != vacant {
            return Err(format!(
                "{vacant} vacant slots but {linked} or more on the free list"
            ));
        }
        let live = arena.used as usize - vacant;
        if live != self.index.len() {
            return Err(format!(
                "{live} live slots but {} keys indexed",
                self.index.len()
            ));
        }
        let mut listed = [0usize; 2];
        for e in self.iter() {
            match e.residence {
                Residence::Hot { .. } => listed[Set::Hot as usize] += 1,
                Residence::Memory { .. } => listed[Set::Warm as usize] += 1,
                _ => {}
            }
        }
        let lens = self.sets.each_ref().map(Vec::len);
        if lens != listed {
            return Err(format!(
                "sets hold {lens:?} keys but {listed:?} Hot and Memory entries"
            ));
        }
        for (set, ats) in [Set::Hot, Set::Warm].into_iter().zip(&self.sets) {
            for (pos, &at) in (0u32..).zip(ats) {
                let Some(e) = arena.live(at) else {
                    return Err(format!(
                        "set position {pos} names slot {at}, which is not live"
                    ));
                };
                match (set, &e.residence) {
                    (Set::Hot, Residence::Hot { slot, .. })
                    | (Set::Warm, Residence::Memory { slot, .. }) => {
                        if *slot != pos {
                            return Err(format!("key {}'s slot {slot} names another", e.key));
                        }
                    }
                    _ => return Err(format!("key {} is in a set its residence is not", e.key)),
                }
            }
        }
        Ok(())
    }
}

impl Index<u32> for Shard {
    type Output = Entry;
    fn index(&self, at: u32) -> &Entry {
        &self.arena[at]
    }
}

impl IndexMut<u32> for Shard {
    fn index_mut(&mut self, at: u32) -> &mut Entry {
        &mut self.arena[at]
    }
}

/// Pad shards to their own cache lines so hot per-shard state on
/// neighbouring shards does not false-share.
#[repr(align(128))]
pub(super) struct Padded<T>(pub(super) T);

/// Scratch space reused across calls on each thread: the codec set
/// (LZRW1's hash table lives here) plus compression and staging buffers
/// (decompression writes the caller's page directly). `comp` and
/// `demote` are sized by [`CodecSet::compress_with_hint`] on every
/// compress: the larger of [`CodecSet::max_compressed_len`] for the
/// active policy and what LZRW1 writes before it truncates, so no codec
/// reallocates them mid-compress.
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
