//! The Sprite file buffer cache.
//!
//! Sprite's defining VM feature (Nelson, Welch & Ousterhout 1988) is that
//! the file cache and virtual memory *trade* physical pages dynamically by
//! comparing the LRU ages of their oldest pages — §4 of the paper extends
//! that two-way negotiation to three ways. This module provides the file
//! side: an LRU cache of `(file, block)` entries whose frames come from the
//! shared [`mem::FramePool`](crate::mem::FramePool), exposing exactly the hooks the memory
//! arbiter needs (oldest age, eviction, dirty write-back information).
//!
//! The cache stores block *contents* in its frames; the simulator charges
//! copy costs. Paging (swap) traffic bypasses this cache — Sprite's VM
//! reads and writes swap files directly — so in the reproduced experiments
//! it mostly represents the third claimant on memory, and it is exercised
//! directly by file-workload tests and the compressed-file-cache extension
//! example.

use std::collections::HashMap;

use crate::lru::{LruHandle, LruList};
use crate::mem::{FrameId, FrameOwner, FramePool};
use cc_util::Ns;

use super::FileId;

/// Key of a cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheBlockKey {
    /// Owning file.
    pub file: FileId,
    /// Block index within the file.
    pub block: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    frame: FrameId,
    dirty: bool,
    last_access: Ns,
    handle: LruHandle,
}

/// A block evicted from the cache; the caller owns writing it back (if
/// dirty) and freeing the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedBlock {
    /// Which block this was.
    pub key: CacheBlockKey,
    /// The frame holding its contents.
    pub frame: FrameId,
    /// Whether it has unwritten modifications.
    pub dirty: bool,
}

/// LRU file-block cache backed by pool frames.
#[derive(Debug, Default)]
pub struct BufferCache {
    map: HashMap<CacheBlockKey, Entry>,
    lru: LruList<CacheBlockKey>,
    hits: u64,
    misses: u64,
}

impl BufferCache {
    /// Create an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Look up a block, updating recency on hit.
    pub fn lookup(&mut self, key: CacheBlockKey, now: Ns) -> Option<FrameId> {
        match self.map.get_mut(&key) {
            Some(e) => {
                e.last_access = now;
                self.lru.touch(e.handle);
                self.hits += 1;
                Some(e.frame)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a block that now lives in `frame` (caller already filled it).
    ///
    /// # Panics
    ///
    /// Panics if the block is already cached — the caller must `lookup`
    /// first; double-caching a block would alias two frames.
    pub fn insert(&mut self, key: CacheBlockKey, frame: FrameId, now: Ns, dirty: bool) {
        assert!(!self.map.contains_key(&key), "block {key:?} already cached");
        let handle = self.lru.push_mru(key);
        self.map.insert(
            key,
            Entry {
                frame,
                dirty,
                last_access: now,
                handle,
            },
        );
    }

    /// Mark a cached block dirty (after a write into its frame).
    ///
    /// # Panics
    ///
    /// Panics if the block is not cached.
    pub fn mark_dirty(&mut self, key: CacheBlockKey) {
        self.map
            .get_mut(&key)
            .unwrap_or_else(|| panic!("mark_dirty of uncached {key:?}"))
            .dirty = true;
    }

    /// Last-access time of the least recently used block — the cache's
    /// "age" input to the three-way memory arbiter. `None` when empty.
    pub fn oldest_access(&self) -> Option<Ns> {
        self.lru
            .peek_lru()
            .map(|(_, key)| self.map[key].last_access)
    }

    /// Evict the least recently used block. The caller must write it back
    /// if dirty and return the frame to the pool (or reuse it).
    pub fn evict_lru(&mut self) -> Option<EvictedBlock> {
        let key = self.lru.pop_lru()?;
        let e = self.map.remove(&key).expect("lru/map out of sync");
        Some(EvictedBlock {
            key,
            frame: e.frame,
            dirty: e.dirty,
        })
    }

    /// Remove a specific block (e.g. on file truncation), returning its
    /// eviction record if present.
    pub fn remove(&mut self, key: CacheBlockKey) -> Option<EvictedBlock> {
        let e = self.map.remove(&key)?;
        self.lru.remove(e.handle);
        Some(EvictedBlock {
            key,
            frame: e.frame,
            dirty: e.dirty,
        })
    }

    /// Iterate over dirty blocks (for periodic sync).
    pub fn dirty_blocks(&self) -> impl Iterator<Item = (CacheBlockKey, FrameId)> + '_ {
        self.map
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(k, e)| (*k, e.frame))
    }

    /// Clear a block's dirty bit after write-back.
    pub fn mark_clean(&mut self, key: CacheBlockKey) {
        if let Some(e) = self.map.get_mut(&key) {
            e.dirty = false;
        }
    }
}

/// Read a file block through the cache: returns `(frame, time_available)`.
///
/// On a miss this allocates a frame from `pool` (the caller must have
/// ensured one is available — that is the arbiter's job), reads from `fs`,
/// and inserts. This free function keeps the borrow surfaces of the cache,
/// pool, and fs separate.
pub fn read_block_through(
    cache: &mut BufferCache,
    pool: &mut FramePool,
    fs: &mut super::FileSystem,
    now: Ns,
    key: CacheBlockKey,
) -> (FrameId, Ns) {
    if let Some(frame) = cache.lookup(key, now) {
        return (frame, now);
    }
    let frame = pool
        .alloc(FrameOwner::FileCache {
            tag: (key.file.0 as u64) << 32 | key.block,
        })
        .expect("caller must guarantee a free frame before read_block_through");
    let bb = fs.block_bytes() as u64;
    let mut buf = vec![0u8; bb as usize];
    let done = fs.read_bytes(now, key.file, key.block * bb, &mut buf);
    pool.data_mut(frame).copy_from_slice(&buf);
    cache.insert(key, frame, done, false);
    (frame, done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockfs::FileSystem;
    use crate::disk::{Disk, DiskParams};

    fn setup() -> (BufferCache, FramePool, FileSystem, FileId) {
        let mut fs = FileSystem::new(Disk::new(DiskParams::rz57()));
        let f = fs.create("data", 32);
        (BufferCache::new(), FramePool::new(16, 4096), fs, f)
    }

    fn key(file: FileId, block: u64) -> CacheBlockKey {
        CacheBlockKey { file, block }
    }

    #[test]
    fn hit_after_miss() {
        let (mut cache, mut pool, mut fs, f) = setup();
        let (frame1, t1) = read_block_through(&mut cache, &mut pool, &mut fs, Ns::ZERO, key(f, 3));
        assert!(t1 > Ns::ZERO, "miss pays disk time");
        let (frame2, t2) = read_block_through(&mut cache, &mut pool, &mut fs, t1, key(f, 3));
        assert_eq!(frame1, frame2);
        assert_eq!(t2, t1, "hit is free at this layer");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(fs.disk().stats().reads, 1);
    }

    #[test]
    fn cached_data_matches_file() {
        let (mut cache, mut pool, mut fs, f) = setup();
        let page = vec![0x5Au8; 4096];
        let w = fs.write_bytes(Ns::ZERO, f, 5 * 4096, &page);
        let (frame, _) = read_block_through(&mut cache, &mut pool, &mut fs, w.done, key(f, 5));
        assert_eq!(pool.data(frame), &page[..]);
    }

    #[test]
    fn eviction_order_is_lru() {
        let (mut cache, mut pool, mut fs, f) = setup();
        let mut t = Ns::ZERO;
        for b in 0..4 {
            let (_, done) = read_block_through(&mut cache, &mut pool, &mut fs, t, key(f, b));
            t = done;
        }
        // Touch block 0 so block 1 becomes oldest.
        cache.lookup(key(f, 0), t);
        let e = cache.evict_lru().unwrap();
        assert_eq!(e.key, key(f, 1));
        assert!(!e.dirty);
        pool.free(e.frame);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn dirty_tracking() {
        let (mut cache, mut pool, mut fs, f) = setup();
        let (frame, t) = read_block_through(&mut cache, &mut pool, &mut fs, Ns::ZERO, key(f, 7));
        pool.data_mut(frame)[0] = 0xEE;
        cache.mark_dirty(key(f, 7));
        assert_eq!(cache.dirty_blocks().count(), 1);
        cache.mark_clean(key(f, 7));
        assert_eq!(cache.dirty_blocks().count(), 0);
        // Dirty bit survives eviction reporting.
        cache.mark_dirty(key(f, 7));
        let e = cache.evict_lru().unwrap();
        assert!(e.dirty);
        let _ = t;
    }

    #[test]
    fn oldest_access_tracks_lru_tail() {
        let (mut cache, mut pool, mut fs, f) = setup();
        assert_eq!(cache.oldest_access(), None);
        let (_, t0) = read_block_through(&mut cache, &mut pool, &mut fs, Ns::ZERO, key(f, 0));
        let (_, t1) = read_block_through(&mut cache, &mut pool, &mut fs, t0, key(f, 1));
        assert_eq!(cache.oldest_access(), Some(t0));
        // Touching block 0 later makes block 1 the oldest.
        cache.lookup(key(f, 0), t1 + Ns::from_ms(1));
        assert_eq!(cache.oldest_access(), Some(t1));
    }

    #[test]
    fn remove_specific_block() {
        let (mut cache, mut pool, mut fs, f) = setup();
        read_block_through(&mut cache, &mut pool, &mut fs, Ns::ZERO, key(f, 2));
        assert!(cache.remove(key(f, 2)).is_some());
        assert!(cache.remove(key(f, 2)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_panics() {
        let (mut cache, mut pool, mut fs, f) = setup();
        let (frame, _) = read_block_through(&mut cache, &mut pool, &mut fs, Ns::ZERO, key(f, 0));
        cache.insert(key(f, 0), frame, Ns::ZERO, false);
    }
}
