//! The compression cache proper: compression, placement, cleaning,
//! fault service, and backing-store traffic.
//!
//! The flow follows §4.1 of the paper:
//!
//! - *"LRU pages are compressed to make room for new pages. The compressed
//!   pages are retained in memory for a period of time, in the expectation
//!   that they will be accessed again soon."* — [`CompressionCache::insert_evicted`].
//! - *"If not all pages fit in memory, even with some compressed, the LRU
//!   compressed pages are written to backing store."* — [`CompressionCache::clean_batch`]
//!   (the cleaner) plus clean-entry dropping in the space machinery.
//! - *"To service a page fault ... the VM system checks to see whether the
//!   page is compressed in memory or on the backing store. If it is on
//!   backing store, it is first brought into memory and stored in the
//!   compression cache, then it is decompressed..."* — [`CompressionCache::fault`].
//!
//! All CPU work (compression, decompression, copies) advances the caller's
//! clock through [`CpuCosts`]; all I/O goes through the
//! `BackingStore` trait (see [`super::backing`]), whose completions
//! either block (reads) or run ahead asynchronously (writes). Reclaiming
//! memory whose write-back has not finished yet stalls the clock — the
//! cost the paper's clean-page pool exists to hide.

use std::collections::{HashMap, VecDeque};

use crate::mem::{FrameId, FrameOwner, FramePool};
use cc_compress::{CompressDecision, Compressor};
use cc_util::Ns;

use super::backing::BackingStore;
use super::circ::{AppendProbe, CircBuf};
use super::config::CacheConfig;
use super::swap::{SwapNeedsGc, SwapSpace};
use super::PageKey;

/// CPU-side bandwidths used to convert work into virtual time.
///
/// The paper's machine (DECstation 5000/200) runs LZRW1 at roughly
/// 1.5–2 MB/s compressing and about twice that decompressing (Figure 1's
/// caption fixes the 2:1 asymmetry); memcpy on that machine is roughly an
/// order of magnitude faster.
#[derive(Debug, Clone, Copy)]
pub struct CpuCosts {
    /// LZRW1-normalized compression bandwidth, bytes/sec of *input*.
    pub compress_bps: u64,
    /// LZRW1-normalized decompression bandwidth, bytes/sec of *output*.
    pub decompress_bps: u64,
    /// Plain copy bandwidth, bytes/sec.
    pub memcpy_bps: u64,
}

impl CpuCosts {
    /// The DECstation 5000/200 profile used throughout the reproduction.
    pub fn decstation_5000_200() -> Self {
        CpuCosts {
            compress_bps: 1_800_000,
            decompress_bps: 3_600_000,
            memcpy_bps: 12_000_000,
        }
    }

    /// Time to compress `bytes` with a codec of the given profile.
    pub fn compress_time(&self, bytes: usize, scale: f64) -> Ns {
        Ns::for_transfer(bytes as u64, ((self.compress_bps as f64) * scale) as u64)
    }

    /// Time to decompress to `bytes` of output.
    pub fn decompress_time(&self, bytes: usize, scale: f64) -> Ns {
        Ns::for_transfer(bytes as u64, ((self.decompress_bps as f64) * scale) as u64)
    }

    /// Time to copy `bytes`.
    pub fn memcpy_time(&self, bytes: usize) -> Ns {
        Ns::for_transfer(bytes as u64, self.memcpy_bps)
    }
}

/// Result of handing an evicted page to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The page was clean and its compressed copy is still in the cache:
    /// nothing moved, the frame is simply released. Free.
    KeptClean,
    /// The page was clean and a valid copy exists on the backing store:
    /// nothing to do. Free.
    CleanOnSwap,
    /// Compressed and retained in memory (the paper's main path).
    Stored {
        /// Compressed size in bytes.
        compressed_len: u32,
    },
    /// Compressed acceptably, but no memory could be granted; the
    /// compressed bytes were written to the backing store instead (the
    /// degenerate "compression as an I/O buffer" mode of §4.2).
    StoredToSwap {
        /// Compressed size in bytes.
        compressed_len: u32,
    },
    /// Compression failed the 4:3 threshold; the raw page was written to
    /// the backing store. The compression time was wasted (§5.2).
    Rejected {
        /// The unhelpful compressed size, for ratio accounting.
        compressed_len: u32,
    },
}

/// Result of a clean eviction query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanEvictOutcome {
    /// A live compressed copy exists; the page's home is now the cache.
    ToCompressed,
    /// A valid swap copy exists; the page's home is now the backing store.
    ToSwap,
    /// No other copy exists; the caller must do a full insert.
    NeedStore,
}

/// Result of a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Served by decompressing from the in-memory cache. No I/O.
    FromCache {
        /// Compressed size decompressed.
        compressed_len: u32,
    },
    /// Read from backing store (compressed), installed in the cache, and
    /// decompressed.
    FromSwapCompressed {
        /// Bytes of file blocks actually read.
        bytes_read: u64,
        /// Whether the compressed copy could be retained in the cache.
        cached: bool,
    },
    /// Read from backing store where it was stored uncompressed (a page
    /// that failed the threshold).
    FromSwapRaw {
        /// Bytes of file blocks actually read.
        bytes_read: u64,
    },
    /// The cache has never seen this page (caller zero-fills).
    Miss,
}

/// Counters for everything the cache did.
#[derive(Debug, Clone, Default)]
pub struct CoreStats {
    /// Pages offered for compression.
    pub compress_attempts: u64,
    /// Pages kept compressed (passed threshold).
    pub compress_kept: u64,
    /// Pages rejected by the threshold (wasted effort, §5.2).
    pub compress_rejected: u64,
    /// Original bytes of kept pages.
    pub kept_bytes_in: u64,
    /// Compressed bytes of kept pages.
    pub kept_bytes_out: u64,
    /// Clean evictions resolved without any work.
    pub clean_evictions_kept: u64,
    /// Clean evictions resolved to an existing swap copy.
    pub clean_evictions_swap: u64,
    /// Faults served from the in-memory cache.
    pub faults_from_cache: u64,
    /// Faults served from swap (compressed).
    pub faults_from_swap: u64,
    /// Faults served from swap (raw).
    pub faults_from_swap_raw: u64,
    /// Extra compressed pages installed during block-rounded swap reads.
    pub readahead_installs: u64,
    /// Shadow entries dropped (resident copy existed).
    pub dropped_shadow: u64,
    /// Clean entries dropped (moved the page's home to swap).
    pub dropped_clean: u64,
    /// Cleaner batches written.
    pub cleaner_batches: u64,
    /// Pages written by the cleaner.
    pub cleaner_pages: u64,
    /// Compressed bytes written by the cleaner (before padding).
    pub cleaner_bytes: u64,
    /// Pages written straight to swap (rejected or buffer mode).
    pub direct_swapouts: u64,
    /// Swap-space GC passes.
    pub gc_runs: u64,
    /// Live pages relocated by GC.
    pub gc_pages_moved: u64,
    /// Time stalled waiting for in-flight cleaner writes before reuse.
    pub write_stall: Ns,
    /// Peak number of frames mapped into the cache.
    pub peak_mapped_frames: usize,
}

impl CoreStats {
    /// Mean kept compression fraction (compressed/original); 1.0 if none.
    pub fn mean_kept_fraction(&self) -> f64 {
        if self.kept_bytes_in == 0 {
            1.0
        } else {
            self.kept_bytes_out as f64 / self.kept_bytes_in as f64
        }
    }

    /// Fraction of compression attempts that failed the threshold.
    pub fn rejected_fraction(&self) -> f64 {
        if self.compress_attempts == 0 {
            0.0
        } else {
            self.compress_rejected as f64 / self.compress_attempts as f64
        }
    }
}

#[derive(Debug)]
struct Entry {
    key: PageKey,
    /// Absolute buffer offset of the entry header.
    start: u64,
    /// Header + data footprint in the buffer.
    len: u32,
    /// Compressed data length.
    data_len: u32,
    /// Original page length.
    orig_len: u32,
    /// Contains data not yet on the backing store.
    dirty: bool,
    /// An uncompressed resident copy of this page also exists.
    shadow: bool,
    /// Entry is dead (dropped or superseded); space not yet reclaimed.
    dead: bool,
    /// When the cleaner's write of this entry completes (reuse must wait).
    clean_done_at: Ns,
    /// Insertion time (the cache's age input to the memory arbiter).
    stamp: Ns,
}

/// The compression cache.
pub struct CompressionCache {
    cfg: CacheConfig,
    codec: Box<dyn Compressor>,
    costs: CpuCosts,
    circ: CircBuf,
    swap: SwapSpace,
    /// Live and recently-dead entries by id. Ids are never reused, so a
    /// stale id in `order` can only name a dead (removed) entry.
    entries: HashMap<u64, Entry>,
    next_entry_id: u64,
    /// Entry ids in append order (front = oldest).
    order: VecDeque<u64>,
    by_page: HashMap<PageKey, u64>,
    /// Pages whose home moved from cache to swap (PTE updates for the VM).
    moved_to_swap: Vec<PageKey>,
    stats: CoreStats,
    comp_buf: Vec<u8>,
    page_buf: Vec<u8>,
}

impl std::fmt::Debug for CompressionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompressionCache")
            .field("mapped_frames", &self.circ.mapped_frames())
            .field("entries", &self.entries.len())
            .field("codec", &self.codec.name())
            .finish()
    }
}

impl CompressionCache {
    /// Create a cache with the given codec over a swap area of
    /// `swap_bytes` on the backing store.
    pub fn new(
        cfg: CacheConfig,
        codec: Box<dyn Compressor>,
        costs: CpuCosts,
        swap_bytes: u64,
    ) -> Self {
        cfg.validate();
        let circ = CircBuf::new(cfg.max_slots, cfg.page_bytes);
        let swap = SwapSpace::new(swap_bytes, &cfg);
        CompressionCache {
            circ,
            swap,
            codec,
            costs,
            entries: HashMap::new(),
            next_entry_id: 0,
            order: VecDeque::new(),
            by_page: HashMap::new(),
            moved_to_swap: Vec::new(),
            stats: CoreStats::default(),
            comp_buf: Vec::new(),
            page_buf: Vec::new(),
            cfg,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Swap-space layer (fragmentation reports, invariants).
    pub fn swap(&self) -> &SwapSpace {
        &self.swap
    }

    /// Number of frames currently mapped into the cache.
    pub fn mapped_frames(&self) -> usize {
        self.circ.mapped_frames()
    }

    /// Number of live compressed entries.
    pub fn live_entries(&self) -> usize {
        self.by_page.len()
    }

    /// Compressed bytes currently live in memory (headers included).
    pub fn live_bytes(&self) -> u64 {
        self.circ.total_live_bytes()
    }

    /// Insertion time of the oldest live entry — the cache's bid in the
    /// three-way LRU age comparison (§4.2).
    pub fn oldest_stamp(&self) -> Option<Ns> {
        self.order
            .iter()
            .find_map(|&id| self.entries.get(&id).filter(|e| !e.dead).map(|e| e.stamp))
    }

    /// Drain the list of pages whose home moved from the cache to the
    /// backing store; the VM must flip their PTEs Compressed -> Swapped.
    pub fn take_moved_to_swap(&mut self) -> Vec<PageKey> {
        std::mem::take(&mut self.moved_to_swap)
    }

    /// Whether the cache (memory or swap) knows this page.
    pub fn knows(&self, key: PageKey) -> bool {
        self.by_page.contains_key(&key) || self.swap.lookup(key).is_some()
    }

    /// Whether a live in-memory entry exists for `key` (used by the
    /// compressed-file-cache extension to skip recompressing a clean block
    /// whose discardable copy is still present).
    pub fn contains_entry(&self, key: PageKey) -> bool {
        self.by_page.contains_key(&key)
    }

    /// Frames that could be reclaimed without any I/O right now.
    pub fn reclaimable_now(&self) -> usize {
        // A conservative estimate: slots with zero live bytes.
        (0..self.circ.max_slots())
            .filter(|&s| {
                matches!(
                    self.circ.slot(s),
                    super::circ::SlotState::Mapped { live_bytes: 0, .. }
                )
            })
            .count()
    }

    /// Bytes of live entries droppable without I/O (shadowed, or clean
    /// with a completed write) — the supply the cleaner maintains.
    pub fn droppable_bytes(&self, now: Ns) -> u64 {
        self.order
            .iter()
            .filter_map(|&id| self.entries.get(&id))
            .filter(|e| !e.dead && (e.shadow || (!e.dirty && e.clean_done_at <= now)))
            .map(|e| e.len as u64)
            .sum()
    }

    /// Bytes of dirty (unwritten) live entries — the cleaner's backlog.
    pub fn dirty_bytes(&self) -> u64 {
        self.order
            .iter()
            .filter_map(|&id| self.entries.get(&id))
            .filter(|e| !e.dead && e.dirty && !e.shadow)
            .map(|e| e.data_len as u64)
            .sum()
    }

    // ----------------------------------------------------------------
    // Eviction side
    // ----------------------------------------------------------------

    /// Ask what to do with a *clean* page being evicted. Resolves the two
    /// free cases; on `NeedStore` the caller proceeds to
    /// [`CompressionCache::insert_evicted`] with `dirty = true` semantics
    /// (the data exists nowhere else).
    pub fn evict_clean(&mut self, key: PageKey) -> CleanEvictOutcome {
        if let Some(&id) = self.by_page.get(&key) {
            let e = self.entries.get_mut(&id).expect("entry");
            debug_assert!(!e.dead);
            e.shadow = false;
            self.stats.clean_evictions_kept += 1;
            return CleanEvictOutcome::ToCompressed;
        }
        if self.swap.lookup(key).is_some() {
            self.stats.clean_evictions_swap += 1;
            return CleanEvictOutcome::ToSwap;
        }
        CleanEvictOutcome::NeedStore
    }

    /// Insert a purely discardable compressed copy of `key` — used by the
    /// compressed-file-cache extension (§6: "the system could keep part or
    /// all of the file buffer cache in compressed format in order to
    /// improve the cache hit rate"). The data's durable home is elsewhere
    /// (its file), so the entry is never written to the swap area and may
    /// be dropped at any time without notifying anyone. Returns whether it
    /// was cached (and charges compression either way — the effort is
    /// spent before the threshold verdict is known).
    pub fn insert_discardable(
        &mut self,
        pool: &mut FramePool,
        clock: &mut Ns,
        key: PageKey,
        data: &[u8],
        may_grow: bool,
    ) -> bool {
        assert_eq!(data.len(), self.cfg.page_bytes, "partial block insert");
        self.kill_entry_of(key);
        self.stats.compress_attempts += 1;
        let profile = self.codec.cost_profile();
        *clock += self.costs.compress_time(data.len(), profile.compress_scale);
        let mut comp = std::mem::take(&mut self.comp_buf);
        let clen = self.codec.compress(data, &mut comp);
        if self.cfg.threshold.evaluate(data.len(), clen) == CompressDecision::Reject {
            self.stats.compress_rejected += 1;
            self.comp_buf = comp;
            return false;
        }
        self.stats.compress_kept += 1;
        self.stats.kept_bytes_in += data.len() as u64;
        self.stats.kept_bytes_out += clen as u64;
        let need = self.cfg.entry_header_bytes + clen;
        if !self.ensure_space_no_io(pool, clock, need, may_grow) {
            self.comp_buf = comp;
            return false;
        }
        let start = self.circ.append(need);
        *clock += self.costs.memcpy_time(need);
        self.circ.write_bytes(
            pool,
            start + self.cfg.entry_header_bytes as u64,
            &comp[..clen],
        );
        self.circ.add_live(start, need);
        let id = self.next_entry_id;
        self.next_entry_id += 1;
        self.entries.insert(
            id,
            Entry {
                key,
                start,
                len: need as u32,
                data_len: clen as u32,
                orig_len: data.len() as u32,
                dirty: false,
                // Shadow semantics: droppable at any time, skipped by the
                // cleaner, no home-moved notification on drop.
                shadow: true,
                dead: false,
                clean_done_at: Ns::ZERO,
                stamp: *clock,
            },
        );
        self.order.push_back(id);
        self.by_page.insert(key, id);
        self.stats.peak_mapped_frames =
            self.stats.peak_mapped_frames.max(self.circ.mapped_frames());
        self.comp_buf = comp;
        true
    }

    /// Fetch a discardable entry's contents without changing its state.
    /// Returns whether the key was present (and decompressed into `out`).
    pub fn fetch_discardable(
        &mut self,
        pool: &FramePool,
        clock: &mut Ns,
        key: PageKey,
        out: &mut [u8],
    ) -> bool {
        let Some(&id) = self.by_page.get(&key) else {
            return false;
        };
        let (start, data_len, orig_len) = {
            let e = &self.entries[&id];
            debug_assert!(!e.dead);
            (e.start, e.data_len, e.orig_len)
        };
        assert_eq!(out.len(), orig_len as usize);
        self.decompress_entry(pool, clock, start, data_len, orig_len, out);
        self.stats.faults_from_cache += 1;
        true
    }

    /// Hand the cache a page being evicted whose data must be preserved
    /// (dirty, or clean-with-no-other-copy). Compresses, applies the
    /// threshold, and places the result in memory if `may_grow` or
    /// internal reclamation yields space — otherwise sends it to the
    /// backing store.
    ///
    /// The caller's `clock` is advanced by all CPU work and any stall.
    pub fn insert_evicted(
        &mut self,
        pool: &mut FramePool,
        backing: &mut dyn BackingStore,
        clock: &mut Ns,
        key: PageKey,
        page: &[u8],
        may_grow: bool,
    ) -> InsertOutcome {
        assert_eq!(page.len(), self.cfg.page_bytes, "partial page insert");
        // Any existing entry or swap copy is stale now.
        self.kill_entry_of(key);
        self.swap.free_page(key);

        // Compress and apply the 4:3 threshold.
        self.stats.compress_attempts += 1;
        let profile = self.codec.cost_profile();
        *clock += self.costs.compress_time(page.len(), profile.compress_scale);
        let mut comp = std::mem::take(&mut self.comp_buf);
        let clen = self.codec.compress(page, &mut comp);
        let decision = self.cfg.threshold.evaluate(page.len(), clen);
        if decision == CompressDecision::Reject {
            self.stats.compress_rejected += 1;
            self.comp_buf = comp;
            // Store the page raw on the backing store.
            self.swap_out_raw(backing, clock, key, page);
            return InsertOutcome::Rejected {
                compressed_len: clen as u32,
            };
        }
        self.stats.compress_kept += 1;
        self.stats.kept_bytes_in += page.len() as u64;
        self.stats.kept_bytes_out += clen as u64;

        let need = self.cfg.entry_header_bytes + clen;
        if !self.ensure_space(pool, backing, clock, need, may_grow) {
            // Degenerate buffer mode: write the compressed bytes out now.
            self.write_compressed_to_swap(backing, clock, key, &comp[..clen]);
            self.comp_buf = comp;
            return InsertOutcome::StoredToSwap {
                compressed_len: clen as u32,
            };
        }

        let start = self.circ.append(need);
        // Scatter header + data into the mapped frames. The header bytes
        // are modeled as opaque (their fields live in `Entry`); data bytes
        // are the real compressed stream.
        *clock += self.costs.memcpy_time(need);
        self.circ.write_bytes(
            pool,
            start + self.cfg.entry_header_bytes as u64,
            &comp[..clen],
        );
        self.circ.add_live(start, need);
        let id = self.next_entry_id;
        self.next_entry_id += 1;
        self.entries.insert(
            id,
            Entry {
                key,
                start,
                len: need as u32,
                data_len: clen as u32,
                orig_len: page.len() as u32,
                dirty: true,
                shadow: false,
                dead: false,
                clean_done_at: Ns::ZERO,
                stamp: *clock,
            },
        );
        self.order.push_back(id);
        self.by_page.insert(key, id);
        self.stats.peak_mapped_frames =
            self.stats.peak_mapped_frames.max(self.circ.mapped_frames());
        self.comp_buf = comp;
        InsertOutcome::Stored {
            compressed_len: clen as u32,
        }
    }

    // ----------------------------------------------------------------
    // Fault side
    // ----------------------------------------------------------------

    /// Service a fault for `key`, writing the page into `out`.
    pub fn fault(
        &mut self,
        pool: &mut FramePool,
        backing: &mut dyn BackingStore,
        clock: &mut Ns,
        key: PageKey,
        out: &mut [u8],
        may_grow: bool,
    ) -> FaultOutcome {
        assert_eq!(out.len(), self.cfg.page_bytes);
        if let Some(&id) = self.by_page.get(&key) {
            let (start, len, data_len, orig_len) = {
                let e = &self.entries[&id];
                debug_assert!(!e.dead);
                assert!(!e.shadow, "fault on a page that is already resident");
                (e.start, e.len, e.data_len, e.orig_len)
            };
            debug_assert_eq!(
                len as usize,
                self.cfg.entry_header_bytes + data_len as usize
            );
            self.decompress_entry(pool, clock, start, data_len, orig_len, out);
            self.entries.get_mut(&id).expect("entry").shadow = true;
            self.stats.faults_from_cache += 1;
            return FaultOutcome::FromCache {
                compressed_len: data_len,
            };
        }

        let Some(info) = self.swap.lookup(key) else {
            return FaultOutcome::Miss;
        };

        // Block-rounded read of the fragments (§4.3: no way to read less
        // than a whole file-system block).
        let fpb = self.cfg.frags_per_block() as u16;
        let first_block = info.loc.frag / fpb;
        let last_block = (info.loc.frag + info.loc.nfrags - 1) / fpb;
        let nblocks = (last_block - first_block + 1) as usize;
        let read_off = self.swap.byte_offset(super::swap::SwapLoc {
            cluster: info.loc.cluster,
            frag: first_block * fpb,
            nfrags: 0,
        });
        let mut buf = vec![0u8; nblocks * self.cfg.block_bytes];
        let done = backing.read(*clock, read_off, &mut buf);
        *clock = (*clock).max(done);
        let bytes_read = buf.len() as u64;

        let data_off = (info.loc.frag - first_block * fpb) as usize * self.cfg.fragment_bytes;
        let data = &buf[data_off..data_off + info.data_len as usize];

        let raw = info.data_len as usize == self.cfg.page_bytes;
        if raw {
            out.copy_from_slice(data);
            *clock += self.costs.memcpy_time(out.len());
            self.stats.faults_from_swap_raw += 1;
            return FaultOutcome::FromSwapRaw { bytes_read };
        }

        // Install the compressed copy in the cache (clean: the swap copy
        // remains valid), then decompress — §4.1's fault path.
        let data_vec = data.to_vec();
        let cached = self.install_clean_from_swap(pool, clock, key, &data_vec, may_grow);
        let profile = self.codec.cost_profile();
        *clock += self
            .costs
            .decompress_time(self.cfg.page_bytes, profile.decompress_scale);
        let mut page = std::mem::take(&mut self.page_buf);
        page.clear();
        self.codec
            .decompress(&data_vec, &mut page, self.cfg.page_bytes)
            .expect("corrupt compressed page on swap");
        out.copy_from_slice(&page);
        self.page_buf = page;
        if cached {
            if let Some(&id) = self.by_page.get(&key) {
                self.entries.get_mut(&id).expect("entry").shadow = true;
            }
        }
        self.stats.faults_from_swap += 1;

        // Readahead: other live compressed pages in the same blocks came
        // along for free; install them (best effort, no I/O, no eviction).
        if self.cfg.swap_readahead {
            let others = self
                .swap
                .live_pages_in_blocks(info.loc.cluster, first_block..last_block + 1);
            for p in others {
                if p.key == key || self.by_page.contains_key(&p.key) {
                    continue;
                }
                // Only pages whose fragments lie entirely inside the read.
                if p.loc.frag < first_block * fpb
                    || p.loc.frag + p.loc.nfrags > (last_block + 1) * fpb
                {
                    continue;
                }
                if p.data_len as usize == self.cfg.page_bytes {
                    continue; // raw pages are not cached
                }
                let off = (p.loc.frag - first_block * fpb) as usize * self.cfg.fragment_bytes;
                let pdata = buf[off..off + p.data_len as usize].to_vec();
                if self.install_clean_from_swap(pool, clock, p.key, &pdata, false) {
                    self.stats.readahead_installs += 1;
                    self.moved_to_cache_note(p.key);
                }
            }
        }

        FaultOutcome::FromSwapCompressed { bytes_read, cached }
    }

    /// Pages installed by readahead move from Swapped to Compressed; the
    /// VM needs to know. Reuses the `moved_to_swap` channel in reverse is
    /// not possible, so readahead installs are reported separately.
    fn moved_to_cache_note(&mut self, _key: PageKey) {
        // The entry keeps its swap copy (clean), so the page is findable
        // via either path; the VM may keep its PTE as Swapped and still be
        // correct because `fault` checks the in-memory table first.
    }

    // ----------------------------------------------------------------
    // Cleaner and reclamation
    // ----------------------------------------------------------------

    /// Write one batch (up to `cluster_bytes`) of the oldest dirty entries
    /// to the backing store, marking them clean. Returns the number of
    /// pages written (0 = nothing dirty).
    ///
    /// Writes are asynchronous: the clock advances only by the CPU copy
    /// cost. The entries' `clean_done_at` records the write completion;
    /// reclaiming them earlier stalls.
    pub fn clean_batch(
        &mut self,
        pool: &mut FramePool,
        backing: &mut dyn BackingStore,
        clock: &mut Ns,
    ) -> usize {
        // Collect the oldest dirty, non-shadow, live entries.
        let mut victims: Vec<u64> = Vec::new();
        let mut batch_data = 0usize;
        for &id in self.order.iter() {
            let Some(e) = self.entries.get(&id) else {
                continue;
            };
            if e.dead || !e.dirty || e.shadow {
                continue;
            }
            if batch_data + e.data_len as usize > self.cfg.cluster_bytes {
                break;
            }
            batch_data += e.data_len as usize;
            victims.push(id);
        }
        if victims.is_empty() {
            return 0;
        }

        // Allocate fragments; group into contiguous runs per cluster.
        let mut runs: Vec<(u64, Vec<u8>)> = Vec::new(); // (byte offset, data)
        let mut locs: Vec<(u64, super::swap::SwapLoc)> = Vec::new();
        for &id in &victims {
            let (key, data_len) = {
                let e = &self.entries[&id];
                (e.key, e.data_len)
            };
            let loc = loop {
                match self.swap.alloc(key, data_len) {
                    Ok(l) => break l,
                    Err(SwapNeedsGc) => self.run_gc(pool, backing, clock),
                }
            };
            locs.push((id, loc));
        }
        // Build write runs: coalesce fragments that are adjacent on disk.
        let frag_bytes = self.cfg.fragment_bytes;
        for &(id, loc) in &locs {
            let e = &self.entries[&id];
            let mut data = vec![0u8; loc.nfrags as usize * frag_bytes];
            self.circ.read_bytes(
                pool,
                e.start + self.cfg.entry_header_bytes as u64,
                &mut data[..e.data_len as usize],
            );
            let off = self.swap.byte_offset(loc);
            match runs.last_mut() {
                Some((run_off, run_data)) if *run_off + run_data.len() as u64 == off => {
                    run_data.extend_from_slice(&data);
                }
                _ => runs.push((off, data)),
            }
        }
        // Charge the copy cost once (we copied every data byte).
        *clock += self.costs.memcpy_time(batch_data);
        // Align the open cluster so the next batch starts block-aligned,
        // then pad each run to whole blocks to avoid read-modify-write.
        self.swap.align_to_block();
        let bb = self.cfg.block_bytes;
        let mut last_done = Ns::ZERO;
        for (off, mut data) in runs {
            debug_assert_eq!(off % bb as u64, 0, "runs must start block-aligned");
            let padded = data.len().div_ceil(bb) * bb;
            data.resize(padded, 0);
            let c = backing.write(*clock, off, &data);
            last_done = last_done.max(c.done);
        }
        for (id, _) in &locs {
            let e = self.entries.get_mut(id).expect("entry");
            e.dirty = false;
            e.clean_done_at = last_done;
        }
        self.stats.cleaner_batches += 1;
        self.stats.cleaner_pages += victims.len() as u64;
        self.stats.cleaner_bytes += batch_data as u64;
        victims.len()
    }

    /// Release one frame from the cache back to the pool (the memory
    /// arbiter decided the cache should shrink). Returns the freed frame,
    /// or `None` if the cache holds nothing reclaimable even after
    /// cleaning (i.e. it is effectively empty).
    pub fn release_frame(
        &mut self,
        pool: &mut FramePool,
        backing: &mut dyn BackingStore,
        clock: &mut Ns,
    ) -> Option<FrameId> {
        loop {
            if let Some(slot) = self.circ.reclaimable_slot() {
                let frame = self.circ.unmap_slot(slot);
                pool.free(frame);
                return Some(frame);
            }
            // When the cache is completely empty, the only mapped frame
            // left is the cursor's slot; release that too.
            if self.by_page.is_empty()
                && self.circ.total_live_bytes() == 0
                && self.circ.mapped_frames() > 0
            {
                let frame = self.circ.unmap_cursor_slot_when_empty();
                pool.free(frame);
                return Some(frame);
            }
            if !self.make_progress(pool, backing, clock) {
                return None;
            }
        }
    }

    /// Invalidate every copy of a page (segment teardown).
    pub fn drop_page(&mut self, key: PageKey) {
        self.kill_entry_of(key);
        self.swap.free_page(key);
    }

    // ----------------------------------------------------------------
    // Internals
    // ----------------------------------------------------------------

    fn decompress_entry(
        &mut self,
        pool: &FramePool,
        clock: &mut Ns,
        start: u64,
        data_len: u32,
        orig_len: u32,
        out: &mut [u8],
    ) {
        let mut comp = std::mem::take(&mut self.comp_buf);
        comp.resize(data_len as usize, 0);
        self.circ
            .read_bytes(pool, start + self.cfg.entry_header_bytes as u64, &mut comp);
        let profile = self.codec.cost_profile();
        *clock += self
            .costs
            .decompress_time(orig_len as usize, profile.decompress_scale);
        let mut page = std::mem::take(&mut self.page_buf);
        page.clear();
        self.codec
            .decompress(&comp, &mut page, orig_len as usize)
            .expect("corrupt compressed page in cache");
        out.copy_from_slice(&page);
        self.comp_buf = comp;
        self.page_buf = page;
    }

    /// Install a clean compressed copy (arriving from a swap read) into
    /// the buffer. Best effort: no cleaning I/O, no stalls, no growth
    /// unless `may_grow`; returns whether it was cached.
    fn install_clean_from_swap(
        &mut self,
        pool: &mut FramePool,
        clock: &mut Ns,
        key: PageKey,
        data: &[u8],
        may_grow: bool,
    ) -> bool {
        debug_assert!(!self.by_page.contains_key(&key));
        let need = self.cfg.entry_header_bytes + data.len();
        if !self.ensure_space_no_io(pool, clock, need, may_grow) {
            return false;
        }
        let start = self.circ.append(need);
        *clock += self.costs.memcpy_time(need);
        self.circ
            .write_bytes(pool, start + self.cfg.entry_header_bytes as u64, data);
        self.circ.add_live(start, need);
        let id = self.next_entry_id;
        self.next_entry_id += 1;
        self.entries.insert(
            id,
            Entry {
                key,
                start,
                len: need as u32,
                data_len: data.len() as u32,
                orig_len: self.cfg.page_bytes as u32,
                dirty: false,
                shadow: false,
                dead: false,
                clean_done_at: Ns::ZERO,
                stamp: *clock,
            },
        );
        self.order.push_back(id);
        self.by_page.insert(key, id);
        self.stats.peak_mapped_frames =
            self.stats.peak_mapped_frames.max(self.circ.mapped_frames());
        true
    }

    /// Make `need` bytes appendable, with full machinery (dropping,
    /// cleaning with I/O, stalls, growth).
    fn ensure_space(
        &mut self,
        pool: &mut FramePool,
        backing: &mut dyn BackingStore,
        clock: &mut Ns,
        need: usize,
        may_grow: bool,
    ) -> bool {
        loop {
            match self.circ.probe(need) {
                AppendProbe::Ready => return true,
                AppendProbe::NeedFrame { slot } => {
                    if let Some(donor) = self.circ.reclaimable_slot() {
                        let frame = self.circ.unmap_slot(donor);
                        self.circ.map_slot(slot, frame);
                        continue;
                    }
                    if may_grow {
                        if let Some(frame) =
                            pool.alloc(FrameOwner::CompressionCache { tag: slot as u64 })
                        {
                            self.circ.map_slot(slot, frame);
                            continue;
                        }
                    }
                    if !self.make_progress(pool, backing, clock) {
                        return false;
                    }
                }
                AppendProbe::Blocked { .. } => {
                    if !self.make_progress(pool, backing, clock) {
                        return false;
                    }
                }
            }
        }
    }

    /// Space machinery without I/O or stalls (fault-path installs): only
    /// donor slots, droppable entries that are already reusable, and
    /// (optionally) pool growth.
    fn ensure_space_no_io(
        &mut self,
        pool: &mut FramePool,
        clock: &mut Ns,
        need: usize,
        may_grow: bool,
    ) -> bool {
        loop {
            match self.circ.probe(need) {
                AppendProbe::Ready => return true,
                AppendProbe::NeedFrame { slot } => {
                    if let Some(donor) = self.circ.reclaimable_slot() {
                        let frame = self.circ.unmap_slot(donor);
                        self.circ.map_slot(slot, frame);
                        continue;
                    }
                    if may_grow {
                        if let Some(frame) =
                            pool.alloc(FrameOwner::CompressionCache { tag: slot as u64 })
                        {
                            self.circ.map_slot(slot, frame);
                            continue;
                        }
                    }
                    if !self.drop_one(clock, false) {
                        return false;
                    }
                }
                AppendProbe::Blocked { .. } => {
                    if !self.drop_one(clock, false) {
                        return false;
                    }
                }
            }
        }
    }

    /// Free some space: drop the oldest droppable entry, cleaning first if
    /// everything old is dirty. Returns false when nothing can be done.
    fn make_progress(
        &mut self,
        pool: &mut FramePool,
        backing: &mut dyn BackingStore,
        clock: &mut Ns,
    ) -> bool {
        if self.drop_one(clock, true) {
            return true;
        }
        // Everything at the old end is dirty: clean a batch, then retry.
        if self.clean_batch(pool, backing, clock) > 0 {
            return self.drop_one(clock, true);
        }
        false
    }

    /// Drop the oldest droppable entry. Shadowed entries are preferred
    /// over clean ones regardless of position: a shadowed entry's data is
    /// duplicated by the resident copy, so dropping it is free, while
    /// dropping a clean entry moves the page's home to the backing store
    /// and turns its next fault into a disk read. With `allow_stall`, a
    /// clean entry whose write is still in flight stalls the clock until
    /// it completes; without, such entries are skipped.
    fn drop_one(&mut self, clock: &mut Ns, allow_stall: bool) -> bool {
        // Pop dead entries off the front opportunistically.
        while let Some(&front) = self.order.front() {
            match self.entries.get(&front) {
                Some(e) if e.dead => {
                    self.entries.remove(&front);
                    self.order.pop_front();
                }
                None => {
                    self.order.pop_front();
                }
                Some(_) => break,
            }
        }
        let mut chosen: Option<u64> = None;
        // Pass 1: the oldest shadowed entry.
        for &id in self.order.iter() {
            if let Some(e) = self.entries.get(&id) {
                if !e.dead && e.shadow {
                    chosen = Some(id);
                    break;
                }
            }
        }
        // Pass 2: the oldest clean entry.
        if chosen.is_none() {
            for &id in self.order.iter() {
                let Some(e) = self.entries.get(&id) else {
                    continue;
                };
                if e.dead || e.dirty {
                    continue;
                }
                if e.clean_done_at > *clock && !allow_stall {
                    continue;
                }
                chosen = Some(id);
                break;
            }
        }
        let Some(id) = chosen else {
            return false;
        };
        let (key, start, len, shadow, clean_done_at) = {
            let e = &self.entries[&id];
            (e.key, e.start, e.len, e.shadow, e.clean_done_at)
        };
        if !shadow && clean_done_at > *clock {
            let stall = clean_done_at - *clock;
            self.stats.write_stall += stall;
            *clock = clean_done_at;
        }
        self.circ.sub_live(start, len as usize);
        self.by_page.remove(&key);
        let e = self.entries.get_mut(&id).expect("entry");
        e.dead = true;
        if shadow {
            self.stats.dropped_shadow += 1;
        } else {
            self.stats.dropped_clean += 1;
            // The page's only copy is now its swap copy.
            self.moved_to_swap.push(key);
        }
        true
    }

    /// Mark any live entry of `key` dead and release its space accounting.
    fn kill_entry_of(&mut self, key: PageKey) {
        if let Some(id) = self.by_page.remove(&key) {
            let e = self.entries.get_mut(&id).expect("entry");
            debug_assert!(!e.dead);
            e.dead = true;
            let (start, len) = (e.start, e.len);
            self.circ.sub_live(start, len as usize);
        }
    }

    /// Write an uncompressed page straight to the backing store without
    /// attempting compression (the adaptive-disable mode of §5.2 / §6:
    /// "It should be possible to disable compression completely when poor
    /// compression is obtained").
    pub fn store_raw(
        &mut self,
        backing: &mut dyn BackingStore,
        clock: &mut Ns,
        key: PageKey,
        page: &[u8],
    ) {
        assert_eq!(page.len(), self.cfg.page_bytes, "partial page store");
        self.kill_entry_of(key);
        self.swap.free_page(key);
        *clock += self.costs.memcpy_time(page.len());
        self.swap_out_raw(backing, clock, key, page);
    }

    /// Write an uncompressed (threshold-rejected) page to the backing
    /// store, block-aligned so no read-modify-write is triggered.
    fn swap_out_raw(
        &mut self,
        backing: &mut dyn BackingStore,
        clock: &mut Ns,
        key: PageKey,
        page: &[u8],
    ) {
        self.swap.align_to_block();
        let loc = loop {
            match self.swap.alloc(key, page.len() as u32) {
                Ok(l) => break l,
                Err(SwapNeedsGc) => {
                    // GC needs a pool for potential in-memory relocation
                    // reads; raw swap-out happens outside that path, so run
                    // the storage-only GC.
                    self.run_gc_storage_only(backing, clock);
                }
            }
        };
        let off = self.swap.byte_offset(loc);
        backing.write(*clock, off, page);
        // The write covered whole blocks; retire any fragments in the
        // final partial block so the next allocation starts block-aligned.
        self.swap.align_to_block();
        self.stats.direct_swapouts += 1;
    }

    /// Write already-compressed bytes to the backing store without caching
    /// (buffer mode / no-memory fallback). Pads to whole fragments and
    /// aligns to a block to avoid read-modify-write.
    fn write_compressed_to_swap(
        &mut self,
        backing: &mut dyn BackingStore,
        clock: &mut Ns,
        key: PageKey,
        data: &[u8],
    ) {
        self.swap.align_to_block();
        let loc = loop {
            match self.swap.alloc(key, data.len() as u32) {
                Ok(l) => break l,
                Err(SwapNeedsGc) => self.run_gc_storage_only(backing, clock),
            }
        };
        let off = self.swap.byte_offset(loc);
        let padded = (data.len().div_ceil(self.cfg.block_bytes)) * self.cfg.block_bytes;
        let mut buf = vec![0u8; padded];
        buf[..data.len()].copy_from_slice(data);
        *clock += self.costs.memcpy_time(data.len());
        backing.write(*clock, off, &buf);
        // The padded write covered whole blocks; keep the allocator
        // cursor block-aligned so later batches never start mid-block.
        self.swap.align_to_block();
        self.stats.direct_swapouts += 1;
    }

    /// Relocate the live pages of the emptiest closed cluster so it can be
    /// recycled (log-structured cleaning of the swap area, §4.3's
    /// "garbage-collection on the backing store").
    fn run_gc(&mut self, pool: &mut FramePool, backing: &mut dyn BackingStore, clock: &mut Ns) {
        let _ = pool; // In-memory copies are read via circ in clean_batch only.
        self.run_gc_storage_only(backing, clock)
    }

    fn run_gc_storage_only(&mut self, backing: &mut dyn BackingStore, clock: &mut Ns) {
        let (victim, live) = self
            .swap
            .gc_victim()
            .expect("swap space full of live data: size the swap area larger");
        self.stats.gc_runs += 1;
        // Read the whole victim cluster in one request.
        let mut buf = vec![0u8; self.cfg.cluster_bytes];
        let off = victim as u64 * self.cfg.cluster_bytes as u64;
        let done = backing.read(*clock, off, &mut buf);
        *clock = (*clock).max(done);

        // Capture the data, free the victim (making it available), then
        // re-append each live page. Writes are coalesced into contiguous
        // block-padded runs exactly like the cleaner's, so relocation
        // never triggers read-modify-write.
        let mut moves: Vec<(PageKey, Vec<u8>)> = Vec::with_capacity(live.len());
        for p in &live {
            let start = p.loc.frag as usize * self.cfg.fragment_bytes;
            moves.push((p.key, buf[start..start + p.data_len as usize].to_vec()));
        }
        for p in &live {
            self.swap.free_page(p.key);
        }
        self.swap.align_to_block();
        let mut runs: Vec<(u64, Vec<u8>)> = Vec::new();
        for (key, data) in moves {
            let loc = self
                .swap
                .alloc(key, data.len() as u32)
                .expect("GC freed a cluster; allocation must succeed");
            let off = self.swap.byte_offset(loc);
            let padded = data.len().div_ceil(self.cfg.fragment_bytes) * self.cfg.fragment_bytes;
            let mut frag_data = vec![0u8; padded];
            frag_data[..data.len()].copy_from_slice(&data);
            match runs.last_mut() {
                Some((run_off, run_data)) if *run_off + run_data.len() as u64 == off => {
                    run_data.extend_from_slice(&frag_data);
                }
                _ => runs.push((off, frag_data)),
            }
            self.stats.gc_pages_moved += 1;
        }
        let bb = self.cfg.block_bytes;
        for (off, mut data) in runs {
            let padded = data.len().div_ceil(bb) * bb;
            data.resize(padded, 0);
            backing.write(*clock, off, &data);
        }
        self.swap.align_to_block();
    }

    /// Full-structure consistency check for tests.
    pub fn check_invariants(&self) {
        self.swap.check_invariants();
        let mut live_bytes = 0u64;
        for (id, e) in self.entries.iter() {
            if e.dead {
                continue;
            }
            assert_eq!(
                self.by_page.get(&e.key),
                Some(id),
                "live entry {id} not indexed"
            );
            live_bytes += e.len as u64;
        }
        assert_eq!(
            live_bytes,
            self.circ.total_live_bytes(),
            "entry footprints disagree with slot accounting"
        );
        assert_eq!(self.by_page.len(), {
            let mut n = 0;
            for (_, e) in self.entries.iter() {
                if !e.dead {
                    n += 1;
                }
            }
            n
        });
    }
}
