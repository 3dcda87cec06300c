//! Fragmented swap-space management with garbage collection.
//!
//! §4.3: merging compressed pages into a smaller number of file blocks
//! *"loses the one-to-one mapping between offsets in a swap file and pages
//! within a segment. Instead, it is necessary to store the location of
//! each page explicitly. Second, when a page is written out to backing
//! store, faulted back into memory, modified, and written out again
//! sometime later, it may not be written to the same location... Thus it
//! becomes necessary to perform garbage-collection on the backing store."*
//!
//! [`SwapSpace`] is that bookkeeping. The swap area is divided into
//! **clusters** of one write-batch each (32 KB); compressed pages are
//! padded to 1 KB **fragments** and appended to the open cluster.
//! Rewrites supersede the old fragments, which become garbage; a cluster
//! whose fragments are all dead returns to the free pool, and when no free
//! cluster remains the caller runs a log-style cleaning pass over the
//! emptiest cluster ([`SwapSpace::gc_victim`]).
//!
//! With `allow_span = false` a page's fragments never cross a file-block
//! boundary (the §4.3 parameter): page-in reads stay within one 4 KB
//! block at the price of more padding.

use std::collections::{BTreeMap, HashMap};

use super::config::CacheConfig;
use super::PageKey;

/// Location of a page's fragments on the backing store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapLoc {
    /// Cluster index within the swap area.
    pub cluster: u32,
    /// First fragment within the cluster.
    pub frag: u16,
    /// Number of fragments.
    pub nfrags: u16,
}

/// A page's swap residency: where it is and how many of the padded bytes
/// are real compressed data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapInfo {
    /// Fragment location.
    pub loc: SwapLoc,
    /// Exact compressed length in bytes (`<= nfrags * fragment_bytes`).
    pub data_len: u32,
}

/// A live page inside a cluster (GC and readahead both consume these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivePage {
    /// The page.
    pub key: PageKey,
    /// Its location.
    pub loc: SwapLoc,
    /// Exact data length.
    pub data_len: u32,
}

/// Error: every cluster holds live data and the open cluster is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapNeedsGc;

#[derive(Debug, Default, Clone)]
struct Cluster {
    /// Live records keyed by starting fragment.
    live: BTreeMap<u16, (PageKey, u16, u32)>,
    live_frags: u16,
}

/// Counters for the swap layer.
#[derive(Debug, Clone, Default)]
pub struct SwapStats {
    /// Pages currently mapped.
    pub live_pages: u64,
    /// Fragments allocated over all time.
    pub frags_allocated: u64,
    /// Fragments freed (superseded or explicitly freed).
    pub frags_freed: u64,
    /// Fragments wasted as padding (block alignment, batch alignment).
    pub frags_padding: u64,
    /// Clusters recycled through the free list.
    pub clusters_recycled: u64,
}

/// The swap-space allocator and page-location map.
#[derive(Debug, Clone)]
pub struct SwapSpace {
    frags_per_cluster: u16,
    frags_per_block: u16,
    fragment_bytes: u32,
    cluster_bytes: u64,
    allow_span: bool,
    clusters: Vec<Cluster>,
    /// Fully-empty clusters available for opening.
    free: Vec<u32>,
    /// Cluster currently accepting appends.
    open: u32,
    /// Next unallocated fragment in the open cluster.
    open_next: u16,
    map: HashMap<PageKey, SwapInfo>,
    stats: SwapStats,
}

impl SwapSpace {
    /// Create a swap space of `total_bytes`, laid out per `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `total_bytes` holds fewer than two clusters (GC needs one
    /// open cluster plus at least one other).
    pub fn new(total_bytes: u64, cfg: &CacheConfig) -> Self {
        let nclusters = (total_bytes / cfg.cluster_bytes as u64) as u32;
        assert!(nclusters >= 2, "swap space must hold at least two clusters");
        let mut free: Vec<u32> = (1..nclusters).rev().collect();
        let open = 0;
        let _ = &mut free;
        SwapSpace {
            frags_per_cluster: cfg.frags_per_cluster() as u16,
            frags_per_block: cfg.frags_per_block() as u16,
            fragment_bytes: cfg.fragment_bytes as u32,
            cluster_bytes: cfg.cluster_bytes as u64,
            allow_span: cfg.allow_span,
            clusters: vec![Cluster::default(); nclusters as usize],
            free,
            open,
            open_next: 0,
            map: HashMap::new(),
            stats: SwapStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> &SwapStats {
        &self.stats
    }

    /// Number of clusters in the space.
    pub fn clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Clusters on the free list.
    pub fn free_clusters(&self) -> usize {
        self.free.len()
    }

    /// Whether `key` has a valid swap copy.
    pub fn lookup(&self, key: PageKey) -> Option<SwapInfo> {
        self.map.get(&key).copied()
    }

    /// Absolute byte offset of a location within the swap area.
    pub fn byte_offset(&self, loc: SwapLoc) -> u64 {
        loc.cluster as u64 * self.cluster_bytes + loc.frag as u64 * self.fragment_bytes as u64
    }

    /// Fragments needed for `data_len` bytes.
    pub fn frags_for(&self, data_len: u32) -> u16 {
        (data_len.div_ceil(self.fragment_bytes)).max(1) as u16
    }

    /// Drop the swap copy of `key` (page superseded, segment destroyed, or
    /// compressed copy invalidated). No-op if absent.
    pub fn free_page(&mut self, key: PageKey) {
        let Some(info) = self.map.remove(&key) else {
            return;
        };
        let c = &mut self.clusters[info.loc.cluster as usize];
        let removed = c.live.remove(&info.loc.frag);
        debug_assert!(removed.is_some(), "map/cluster inconsistency at {key:?}");
        c.live_frags -= info.loc.nfrags;
        self.stats.frags_freed += info.loc.nfrags as u64;
        self.stats.live_pages -= 1;
        if c.live_frags == 0 && info.loc.cluster != self.open {
            self.free.push(info.loc.cluster);
            self.stats.clusters_recycled += 1;
        }
    }

    /// Allocate fragments for `key` (superseding any previous copy) and
    /// record the mapping. Returns where the caller must write the data.
    ///
    /// Fails with [`SwapNeedsGc`] when the open cluster cannot take the
    /// page and no free cluster exists — the caller must relocate a
    /// victim's live pages (see [`SwapSpace::gc_victim`]) and retry.
    pub fn alloc(&mut self, key: PageKey, data_len: u32) -> Result<SwapLoc, SwapNeedsGc> {
        self.free_page(key);
        let nfrags = self.frags_for(data_len);
        assert!(
            nfrags <= self.frags_per_cluster,
            "page larger than a cluster"
        );
        let mut start = self.place_in_open(nfrags);
        if start.is_none() {
            // Open cluster exhausted: roll to a free cluster.
            self.roll_open()?;
            start = self.place_in_open(nfrags);
        }
        let frag = start.expect("fresh cluster must fit any page");
        let loc = SwapLoc {
            cluster: self.open,
            frag,
            nfrags,
        };
        let c = &mut self.clusters[self.open as usize];
        c.live.insert(frag, (key, nfrags, data_len));
        c.live_frags += nfrags;
        self.map.insert(key, SwapInfo { loc, data_len });
        self.stats.frags_allocated += nfrags as u64;
        self.stats.live_pages += 1;
        Ok(loc)
    }

    /// Find a start fragment for `nfrags` in the open cluster, honoring
    /// the no-span rule; records padding. `None` if it does not fit.
    fn place_in_open(&mut self, nfrags: u16) -> Option<u16> {
        let mut start = self.open_next;
        if !self.allow_span && nfrags <= self.frags_per_block {
            let within = start % self.frags_per_block;
            if within + nfrags > self.frags_per_block {
                // Pad to the next block boundary.
                let pad = self.frags_per_block - within;
                if start + pad + nfrags > self.frags_per_cluster {
                    return None;
                }
                self.stats.frags_padding += pad as u64;
                start += pad;
            }
        }
        if start + nfrags > self.frags_per_cluster {
            return None;
        }
        self.open_next = start + nfrags;
        Some(start)
    }

    /// Retire the open cluster and open a free one.
    fn roll_open(&mut self) -> Result<(), SwapNeedsGc> {
        let retiring = self.open;
        let unused = self.frags_per_cluster - self.open_next;
        self.stats.frags_padding += unused as u64;
        let next = self.free.pop().ok_or(SwapNeedsGc)?;
        // The retiring cluster may have become all-dead while open.
        if self.clusters[retiring as usize].live_frags == 0 {
            self.free.push(retiring);
            self.stats.clusters_recycled += 1;
        }
        self.open = next;
        self.open_next = 0;
        debug_assert!(self.clusters[next as usize].live.is_empty());
        Ok(())
    }

    /// Align the open cluster's next allocation to a file-block boundary.
    ///
    /// The cleaner calls this after each batch write so the next batch
    /// starts on a block edge and never triggers a read-modify-write.
    pub fn align_to_block(&mut self) {
        let within = self.open_next % self.frags_per_block;
        if within != 0 {
            let pad = self.frags_per_block - within;
            if self.open_next + pad <= self.frags_per_cluster {
                self.stats.frags_padding += pad as u64;
                self.open_next += pad;
            } else {
                self.open_next = self.frags_per_cluster;
            }
        }
    }

    /// The closed cluster with the fewest live fragments (the best GC
    /// victim), with its live pages. `None` if no closed cluster has data
    /// (then the space is simply full of live data).
    pub fn gc_victim(&self) -> Option<(u32, Vec<LivePage>)> {
        let victim = self
            .clusters
            .iter()
            .enumerate()
            .filter(|(i, c)| *i as u32 != self.open && c.live_frags > 0)
            .min_by_key(|(_, c)| c.live_frags)
            .map(|(i, _)| i as u32)?;
        let pages = self.live_pages_in(victim);
        Some((victim, pages))
    }

    /// Live pages within a cluster, in fragment order.
    pub fn live_pages_in(&self, cluster: u32) -> Vec<LivePage> {
        self.clusters[cluster as usize]
            .live
            .iter()
            .map(|(&frag, &(key, nfrags, data_len))| LivePage {
                key,
                loc: SwapLoc {
                    cluster,
                    frag,
                    nfrags,
                },
                data_len,
            })
            .collect()
    }

    /// Live pages whose fragments intersect the given file blocks of a
    /// cluster (readahead: these came along for free in a block-rounded
    /// read). `block_range` is in cluster-local block indices.
    pub fn live_pages_in_blocks(
        &self,
        cluster: u32,
        block_range: std::ops::Range<u16>,
    ) -> Vec<LivePage> {
        let lo_frag = block_range.start * self.frags_per_block;
        let hi_frag = block_range.end * self.frags_per_block;
        self.live_pages_in(cluster)
            .into_iter()
            .filter(|p| p.loc.frag < hi_frag && p.loc.frag + p.loc.nfrags > lo_frag)
            .collect()
    }

    /// Fraction of in-use (non-free, non-open) fragments that are dead —
    /// a fragmentation measure for reports.
    pub fn dead_fraction(&self) -> f64 {
        let mut used = 0u64;
        let mut live = 0u64;
        for (i, c) in self.clusters.iter().enumerate() {
            let i = i as u32;
            if i == self.open {
                used += self.open_next as u64;
                live += c.live_frags as u64;
            } else if c.live_frags > 0 || !self.free.contains(&i) {
                // A closed, non-free cluster is fully "used".
                if c.live_frags > 0 {
                    used += self.frags_per_cluster as u64;
                    live += c.live_frags as u64;
                }
            }
        }
        if used == 0 {
            0.0
        } else {
            1.0 - live as f64 / used as f64
        }
    }

    /// Consistency check for tests: the map and cluster records agree.
    pub fn check_invariants(&self) {
        let mut from_clusters = 0usize;
        for (i, c) in self.clusters.iter().enumerate() {
            let sum: u16 = c.live.values().map(|&(_, n, _)| n).sum();
            assert_eq!(sum, c.live_frags, "cluster {i} frag count mismatch");
            for (&frag, &(key, nfrags, data_len)) in &c.live {
                let info = self
                    .map
                    .get(&key)
                    .unwrap_or_else(|| panic!("cluster {i} holds unmapped page {key:?}"));
                assert_eq!(
                    info.loc,
                    SwapLoc {
                        cluster: i as u32,
                        frag,
                        nfrags
                    }
                );
                assert_eq!(info.data_len, data_len);
                from_clusters += 1;
            }
            // No overlapping records.
            let mut prev_end = 0u16;
            for (&frag, &(_, nfrags, _)) in &c.live {
                assert!(frag >= prev_end, "cluster {i} overlapping fragments");
                prev_end = frag + nfrags;
            }
        }
        assert_eq!(from_clusters, self.map.len(), "map/cluster count mismatch");
        assert_eq!(self.stats.live_pages as usize, self.map.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig::paper(64)
    }

    fn key(n: u32) -> PageKey {
        PageKey { seg: 0, page: n }
    }

    fn space(clusters: u64) -> SwapSpace {
        SwapSpace::new(clusters * 32 * 1024, &cfg())
    }

    #[test]
    fn alloc_packs_sequentially() {
        let mut s = space(4);
        let a = s.alloc(key(1), 1000).unwrap(); // 1 frag
        let b = s.alloc(key(2), 2500).unwrap(); // 3 frags
        let c = s.alloc(key(3), 1024).unwrap(); // 1 frag
        assert_eq!((a.frag, a.nfrags), (0, 1));
        assert_eq!((b.frag, b.nfrags), (1, 3));
        assert_eq!((c.frag, c.nfrags), (4, 1));
        assert_eq!(a.cluster, b.cluster);
        s.check_invariants();
        // Byte offsets follow the layout.
        assert_eq!(s.byte_offset(b), a.cluster as u64 * 32768 + 1024);
    }

    #[test]
    fn supersede_frees_old_fragments() {
        let mut s = space(4);
        let a = s.alloc(key(1), 3000).unwrap();
        let b = s.alloc(key(1), 1500).unwrap();
        assert_ne!(a.frag, b.frag, "rewrite must go to a new location (§4.3)");
        assert_eq!(s.lookup(key(1)).unwrap().loc, b);
        assert_eq!(s.stats().frags_freed, 3);
        s.check_invariants();
    }

    #[test]
    fn cluster_roll_and_recycle() {
        let mut s = space(2);
        // Fill cluster 0 with 8 pages of 4 frags each (32 frags).
        for i in 0..8 {
            s.alloc(key(i), 4096).unwrap();
        }
        // Next alloc rolls to cluster 1.
        let l = s.alloc(key(100), 4096).unwrap();
        assert_ne!(l.cluster, 0);
        // Free everything in cluster 0: it returns to the free list.
        for i in 0..8 {
            s.free_page(key(i));
        }
        assert_eq!(s.free_clusters(), 1);
        assert_eq!(s.stats().clusters_recycled, 1);
        s.check_invariants();
    }

    #[test]
    fn full_space_asks_for_gc() {
        let mut s = space(2);
        for i in 0..16 {
            s.alloc(key(i), 4096).unwrap();
        }
        // Both clusters full of live data.
        assert_eq!(s.alloc(key(99), 4096), Err(SwapNeedsGc));
        // Freeing enough of a closed cluster lets GC pick it.
        s.free_page(key(0));
        let (victim, live) = s.gc_victim().expect("victim must exist");
        assert_eq!(live.len(), 7);
        assert!(victim != s.open);
    }

    #[test]
    fn no_span_pads_to_block_boundaries() {
        let mut c = cfg();
        c.allow_span = false;
        let mut s = SwapSpace::new(4 * 32 * 1024, &c);
        // 3 frags, then 3 frags: the second cannot fit in the block's
        // remaining 1 frag, so it starts at frag 4.
        let a = s.alloc(key(1), 3000).unwrap();
        let b = s.alloc(key(2), 3000).unwrap();
        assert_eq!(a.frag, 0);
        assert_eq!(b.frag, 4);
        assert_eq!(s.stats().frags_padding, 1);
        s.check_invariants();
    }

    #[test]
    fn spanning_allowed_by_default() {
        let mut s = space(4);
        s.alloc(key(1), 3000).unwrap(); // frags 0..3
        let b = s.alloc(key(2), 3000).unwrap(); // frags 3..6 spans block 0/1
        assert_eq!(b.frag, 3);
        assert_eq!(s.stats().frags_padding, 0);
    }

    #[test]
    fn align_to_block_pads_open_cluster() {
        let mut s = space(4);
        s.alloc(key(1), 1000).unwrap(); // 1 frag
        s.align_to_block();
        let b = s.alloc(key(2), 1000).unwrap();
        assert_eq!(b.frag, 4, "next batch starts at a block edge");
        assert_eq!(s.stats().frags_padding, 3);
    }

    #[test]
    fn readahead_block_query() {
        let mut s = space(4);
        s.alloc(key(1), 4096).unwrap(); // block 0 (frags 0..4)
        s.alloc(key(2), 1024).unwrap(); // frag 4 (block 1)
        s.alloc(key(3), 1024).unwrap(); // frag 5 (block 1)
        s.alloc(key(4), 4096).unwrap(); // frags 6..10 (blocks 1..3)
        let in_block1 = s.live_pages_in_blocks(0, 1..2);
        let keys: Vec<u32> = in_block1.iter().map(|p| p.key.page).collect();
        assert_eq!(keys, vec![2, 3, 4], "block 1 intersects pages 2,3,4");
    }

    #[test]
    fn dead_fraction_rises_with_supersedes() {
        let mut s = space(8);
        for i in 0..8 {
            s.alloc(key(i), 4096).unwrap();
        }
        assert_eq!(s.dead_fraction(), 0.0);
        for i in 0..4 {
            s.alloc(key(i), 4096).unwrap(); // supersede: old frags dead
        }
        assert!(s.dead_fraction() > 0.2);
        s.check_invariants();
    }

    #[test]
    fn free_page_is_idempotent() {
        let mut s = space(2);
        s.alloc(key(1), 100).unwrap();
        s.free_page(key(1));
        s.free_page(key(1));
        assert_eq!(s.lookup(key(1)), None);
        s.check_invariants();
    }
}
