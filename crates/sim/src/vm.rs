//! Sprite-like virtual memory substrate.
//!
//! This module owns the page tables and the resident-set LRU — the parts of
//! the VM system that are *identical* between the unmodified ("std") and
//! compression-cache ("cc") configurations of the simulator. What happens
//! to a page once it leaves the resident set (straight to a swap file, or
//! into the compression cache) is the policy difference under study, so it
//! lives above this module, in [`crate::system`].
//!
//! A virtual page is always in exactly one of four places, mirroring the
//! paper's hierarchy (§4.1): uncompressed and resident; compressed in the
//! compression cache; on backing store; or never touched (zero-fill). The
//! transitions are driven by the simulator; [`Vm`] enforces their
//! legality (see [`PageState`]) and keeps exact LRU over resident pages
//! with the per-page timestamps that the three-way memory arbiter compares.

use crate::lru::{LruHandle, LruList};
use crate::mem::FrameId;
use cc_util::{Ns, Slab};

/// Identifier of a segment (one per process address space region; the
/// workloads here use one data segment each, as `thrasher` does).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegId(pub u32);

/// Identity of a virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VPage {
    /// Owning segment.
    pub seg: SegId,
    /// Page index within the segment.
    pub page: u32,
}

impl VPage {
    /// Pack into a u64 tag (for [`mem::FrameOwner`](crate::mem::FrameOwner)).
    pub fn tag(self) -> u64 {
        ((self.seg.0 as u64) << 32) | self.page as u64
    }

    /// Unpack from a tag produced by [`VPage::tag`].
    pub fn from_tag(tag: u64) -> Self {
        VPage {
            seg: SegId((tag >> 32) as u32),
            page: tag as u32,
        }
    }
}

/// Where a virtual page currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Never touched; first access zero-fills a frame.
    Untouched,
    /// Uncompressed in a physical frame.
    Resident {
        /// The frame holding the page.
        frame: FrameId,
        /// Modified since it was last made consistent with lower levels.
        dirty: bool,
        /// Last access time (LRU age input).
        last_access: Ns,
    },
    /// In the compression cache (which tracks the compressed location and
    /// dirtiness internally).
    Compressed,
    /// Only on backing store.
    Swapped,
}

/// What `access` found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// The page was resident; its frame is returned and recency updated.
    Hit {
        /// Frame holding the page.
        frame: FrameId,
    },
    /// The page is not resident; the simulator must run its fault path.
    Fault {
        /// Where the page was found.
        kind: FaultKind,
    },
}

/// Why a page fault happened — determines the fault service path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// First touch: allocate and zero a frame.
    ZeroFill,
    /// Decompress from the compression cache.
    Compressed,
    /// Read from backing store.
    Swapped,
}

#[derive(Debug)]
struct Segment {
    pte: Vec<PageState>,
    /// LRU handle for each resident page (parallel to `pte`).
    handles: Vec<Option<LruHandle>>,
}

/// Counters maintained by the VM layer.
#[derive(Debug, Clone, Default)]
pub struct VmStats {
    /// Total page accesses (reads + writes).
    pub accesses: u64,
    /// Accesses that hit a resident page.
    pub hits: u64,
    /// Faults on untouched pages.
    pub zero_fill_faults: u64,
    /// Faults on pages held compressed.
    pub compressed_faults: u64,
    /// Faults on swapped-out pages.
    pub swap_faults: u64,
}

impl VmStats {
    /// All faults.
    pub fn faults(&self) -> u64 {
        self.zero_fill_faults + self.compressed_faults + self.swap_faults
    }
}

/// The virtual memory system: page tables plus the resident LRU.
///
/// # Examples
///
/// ```
/// use cc_sim::mem::FrameId;
/// use cc_util::Ns;
/// use cc_sim::vm::{AccessResult, FaultKind, Vm, VPage};
///
/// let mut vm = Vm::new();
/// let seg = vm.create_segment(16);
/// let vp = VPage { seg, page: 3 };
/// // First touch faults as zero-fill...
/// assert_eq!(
///     vm.access(vp, false, Ns::ZERO),
///     AccessResult::Fault { kind: FaultKind::ZeroFill }
/// );
/// // ...the simulator installs a frame...
/// vm.install(vp, FrameId(0), false, Ns::ZERO);
/// // ...and the next access hits.
/// assert_eq!(vm.access(vp, true, Ns(10)), AccessResult::Hit { frame: FrameId(0) });
/// ```
#[derive(Debug, Default)]
pub struct Vm {
    segments: Slab<Segment>,
    resident: LruList<VPage>,
    stats: VmStats,
}

impl Vm {
    /// Create an empty VM system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a segment of `npages` untouched pages.
    pub fn create_segment(&mut self, npages: u32) -> SegId {
        let key = self.segments.insert(Segment {
            pte: vec![PageState::Untouched; npages as usize],
            handles: vec![None; npages as usize],
        });
        SegId(key as u32)
    }

    /// Number of pages in a segment.
    pub fn segment_pages(&self, seg: SegId) -> u32 {
        self.segments[seg.0 as usize].pte.len() as u32
    }

    /// Counters.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// Number of resident pages.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Current state of a page.
    pub fn state(&self, vp: VPage) -> PageState {
        self.segments[vp.seg.0 as usize].pte[vp.page as usize]
    }

    /// Access a page (the workload-facing entry point). On a hit, recency
    /// and the dirty bit are updated and the frame returned; on a miss the
    /// caller services the fault and calls [`Vm::install`].
    pub fn access(&mut self, vp: VPage, write: bool, now: Ns) -> AccessResult {
        self.stats.accesses += 1;
        let seg = &mut self.segments[vp.seg.0 as usize];
        match &mut seg.pte[vp.page as usize] {
            PageState::Resident {
                frame,
                dirty,
                last_access,
            } => {
                *dirty = *dirty || write;
                *last_access = now;
                let frame = *frame;
                let handle = seg.handles[vp.page as usize].expect("resident page without handle");
                self.resident.touch(handle);
                self.stats.hits += 1;
                AccessResult::Hit { frame }
            }
            PageState::Untouched => {
                self.stats.zero_fill_faults += 1;
                AccessResult::Fault {
                    kind: FaultKind::ZeroFill,
                }
            }
            PageState::Compressed => {
                self.stats.compressed_faults += 1;
                AccessResult::Fault {
                    kind: FaultKind::Compressed,
                }
            }
            PageState::Swapped => {
                self.stats.swap_faults += 1;
                AccessResult::Fault {
                    kind: FaultKind::Swapped,
                }
            }
        }
    }

    /// Make a page resident in `frame` (fault service completion).
    ///
    /// # Panics
    ///
    /// Panics if the page is already resident.
    pub fn install(&mut self, vp: VPage, frame: FrameId, dirty: bool, now: Ns) {
        let seg = &mut self.segments[vp.seg.0 as usize];
        let pte = &mut seg.pte[vp.page as usize];
        assert!(
            !matches!(pte, PageState::Resident { .. }),
            "install over resident page {vp:?}"
        );
        *pte = PageState::Resident {
            frame,
            dirty,
            last_access: now,
        };
        let handle = self.resident.push_mru(vp);
        seg.handles[vp.page as usize] = Some(handle);
    }

    /// The least recently used resident page and its last access time,
    /// without removing it — the VM's bid in the three-way age comparison.
    pub fn oldest_resident(&self) -> Option<(VPage, Ns)> {
        self.resident
            .peek_lru()
            .map(|(_, &vp)| match self.state(vp) {
                PageState::Resident { last_access, .. } => (vp, last_access),
                other => unreachable!("LRU entry {vp:?} not resident: {other:?}"),
            })
    }

    /// Detach the LRU resident page for eviction: removes it from the LRU
    /// and page table, returning `(page, frame, dirty)`. The caller decides
    /// its destination and must then call [`Vm::set_compressed`],
    /// [`Vm::set_swapped`], or [`Vm::install`] (eviction cancelled).
    pub fn take_oldest_resident(&mut self) -> Option<(VPage, FrameId, bool)> {
        let (_, &vp) = self.resident.peek_lru()?;
        Some(self.take_resident(vp))
    }

    /// Detach a specific resident page (see [`Vm::take_oldest_resident`]).
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    pub fn take_resident(&mut self, vp: VPage) -> (VPage, FrameId, bool) {
        let seg = &mut self.segments[vp.seg.0 as usize];
        let (frame, dirty) = match seg.pte[vp.page as usize] {
            PageState::Resident { frame, dirty, .. } => (frame, dirty),
            other => panic!("take_resident on {vp:?} in state {other:?}"),
        };
        let handle = seg.handles[vp.page as usize]
            .take()
            .expect("resident page without handle");
        self.resident.remove(handle);
        // Leave the PTE in a transitional state; callers immediately set
        // the destination. Untouched is never legal for a page that had
        // data, so use Swapped as the conservative placeholder and rely on
        // the setter calls below for the real destination.
        seg.pte[vp.page as usize] = PageState::Swapped;
        (vp, frame, dirty)
    }

    /// Set the dirty bit of a resident page without counting an access
    /// (used when the faulting access was a write: the fault path installs
    /// the page clean and then marks it).
    ///
    /// # Panics
    ///
    /// Panics if the page is not resident.
    pub fn mark_dirty(&mut self, vp: VPage) {
        match &mut self.segments[vp.seg.0 as usize].pte[vp.page as usize] {
            PageState::Resident { dirty, .. } => *dirty = true,
            other => panic!("mark_dirty on non-resident {vp:?}: {other:?}"),
        }
    }

    /// Record that a page now lives in the compression cache.
    pub fn set_compressed(&mut self, vp: VPage) {
        self.set_non_resident(vp, PageState::Compressed);
    }

    /// Record that a page now lives only on backing store.
    pub fn set_swapped(&mut self, vp: VPage) {
        self.set_non_resident(vp, PageState::Swapped);
    }

    fn set_non_resident(&mut self, vp: VPage, state: PageState) {
        let seg = &mut self.segments[vp.seg.0 as usize];
        let pte = &mut seg.pte[vp.page as usize];
        assert!(
            !matches!(pte, PageState::Resident { .. }),
            "page {vp:?} still resident; take_resident first"
        );
        *pte = state;
    }

    /// Iterate over the resident pages from least to most recently used
    /// (diagnostics and invariant checks).
    pub fn resident_lru_iter(&self) -> impl Iterator<Item = VPage> + '_ {
        self.resident.iter_lru().map(|(_, &vp)| vp)
    }

    /// Verify cross-structure invariants (every LRU entry resident, every
    /// resident page in the LRU exactly once). For tests.
    pub fn check_invariants(&self) {
        let mut lru_count = 0;
        for (_, &vp) in self.resident.iter_mru() {
            assert!(
                matches!(self.state(vp), PageState::Resident { .. }),
                "LRU entry {vp:?} not resident"
            );
            lru_count += 1;
        }
        let mut resident = 0;
        for (seg_key, seg) in self.segments.iter() {
            for (i, pte) in seg.pte.iter().enumerate() {
                if let PageState::Resident { .. } = pte {
                    resident += 1;
                    assert!(
                        seg.handles[i].is_some(),
                        "resident page {seg_key}/{i} missing LRU handle"
                    );
                } else {
                    assert!(
                        seg.handles[i].is_none(),
                        "non-resident page {seg_key}/{i} has LRU handle"
                    );
                }
            }
        }
        assert_eq!(lru_count, resident, "LRU and page tables disagree");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vp(seg: SegId, page: u32) -> VPage {
        VPage { seg, page }
    }

    #[test]
    fn tag_roundtrip() {
        let p = VPage {
            seg: SegId(7),
            page: 123_456,
        };
        assert_eq!(VPage::from_tag(p.tag()), p);
    }

    #[test]
    fn first_touch_is_zero_fill() {
        let mut vm = Vm::new();
        let seg = vm.create_segment(4);
        match vm.access(vp(seg, 0), false, Ns::ZERO) {
            AccessResult::Fault {
                kind: FaultKind::ZeroFill,
            } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(vm.stats().zero_fill_faults, 1);
    }

    #[test]
    fn hit_updates_recency_and_dirty() {
        let mut vm = Vm::new();
        let seg = vm.create_segment(4);
        vm.install(vp(seg, 0), FrameId(0), false, Ns(1));
        vm.install(vp(seg, 1), FrameId(1), false, Ns(2));
        // Page 0 is older; touch it read-only.
        assert_eq!(
            vm.access(vp(seg, 0), false, Ns(5)),
            AccessResult::Hit { frame: FrameId(0) }
        );
        // Now page 1 is the LRU victim.
        assert_eq!(vm.oldest_resident(), Some((vp(seg, 1), Ns(2))));
        // A write sets the dirty bit.
        vm.access(vp(seg, 1), true, Ns(6));
        let (_, _, dirty) = vm.take_resident(vp(seg, 1));
        assert!(dirty);
        vm.check_invariants();
    }

    #[test]
    fn clean_page_stays_clean_through_reads() {
        let mut vm = Vm::new();
        let seg = vm.create_segment(1);
        vm.install(vp(seg, 0), FrameId(3), false, Ns::ZERO);
        vm.access(vp(seg, 0), false, Ns(1));
        vm.access(vp(seg, 0), false, Ns(2));
        let (_, _, dirty) = vm.take_resident(vp(seg, 0));
        assert!(!dirty);
    }

    #[test]
    fn eviction_state_transitions() {
        let mut vm = Vm::new();
        let seg = vm.create_segment(2);
        vm.install(vp(seg, 0), FrameId(0), true, Ns(0));
        vm.install(vp(seg, 1), FrameId(1), false, Ns(1));

        let (victim, frame, dirty) = vm.take_oldest_resident().unwrap();
        assert_eq!(victim, vp(seg, 0));
        assert_eq!(frame, FrameId(0));
        assert!(dirty);
        vm.set_compressed(victim);
        assert_eq!(vm.state(victim), PageState::Compressed);
        assert_eq!(
            vm.access(victim, false, Ns(9)),
            AccessResult::Fault {
                kind: FaultKind::Compressed
            }
        );

        let (v2, _, _) = vm.take_oldest_resident().unwrap();
        vm.set_swapped(v2);
        assert_eq!(
            vm.access(v2, false, Ns(10)),
            AccessResult::Fault {
                kind: FaultKind::Swapped
            }
        );
        assert_eq!(vm.resident_count(), 0);
        assert!(vm.take_oldest_resident().is_none());
        vm.check_invariants();
    }

    #[test]
    fn reinstall_after_fault() {
        let mut vm = Vm::new();
        let seg = vm.create_segment(1);
        vm.install(vp(seg, 0), FrameId(0), true, Ns(0));
        let (v, _, _) = vm.take_oldest_resident().unwrap();
        vm.set_compressed(v);
        // Fault back in clean (decompressed copy matches the cache copy).
        vm.install(v, FrameId(5), false, Ns(7));
        assert_eq!(
            vm.access(v, false, Ns(8)),
            AccessResult::Hit { frame: FrameId(5) }
        );
        vm.check_invariants();
    }

    #[test]
    fn lru_order_is_exact() {
        let mut vm = Vm::new();
        let seg = vm.create_segment(8);
        for i in 0..8 {
            vm.install(vp(seg, i), FrameId(i), false, Ns(i as u64));
        }
        // Touch pages 0..4 in reverse order at later times.
        for (t, i) in (0..4).rev().enumerate() {
            vm.access(vp(seg, i), false, Ns(100 + t as u64));
        }
        // Expected LRU order now: 4,5,6,7 (untouched since install), then
        // 3,2,1,0 by touch order.
        let order: Vec<u32> = vm.resident_lru_iter().map(|p| p.page).collect();
        assert_eq!(order, vec![4, 5, 6, 7, 3, 2, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "install over resident page")]
    fn double_install_panics() {
        let mut vm = Vm::new();
        let seg = vm.create_segment(1);
        vm.install(vp(seg, 0), FrameId(0), false, Ns(0));
        vm.install(vp(seg, 0), FrameId(1), false, Ns(1));
    }

    #[test]
    #[should_panic(expected = "take_resident on")]
    fn take_non_resident_panics() {
        let mut vm = Vm::new();
        let seg = vm.create_segment(1);
        vm.take_resident(vp(seg, 0));
    }

    #[test]
    fn stats_count_fault_kinds() {
        let mut vm = Vm::new();
        let seg = vm.create_segment(3);
        vm.access(vp(seg, 0), false, Ns(0)); // zero-fill
        vm.install(vp(seg, 0), FrameId(0), false, Ns(0));
        vm.access(vp(seg, 0), false, Ns(1)); // hit
        let (v, _, _) = vm.take_resident(vp(seg, 0));
        vm.set_compressed(v);
        vm.access(v, false, Ns(2)); // compressed fault
        vm.set_swapped(v);
        vm.access(v, false, Ns(3)); // swap fault
        let s = vm.stats();
        assert_eq!(s.accesses, 4);
        assert_eq!(s.hits, 1);
        assert_eq!(s.zero_fill_faults, 1);
        assert_eq!(s.compressed_faults, 1);
        assert_eq!(s.swap_faults, 1);
        assert_eq!(s.faults(), 3);
    }
}
