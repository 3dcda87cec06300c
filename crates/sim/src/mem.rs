//! Physical memory substrate: a pool of page frames with real contents.
//!
//! Sprite on the DECstation manages physical memory as 4 KB frames handed
//! out to three consumers — uncompressed VM pages, file-cache blocks, and
//! (with the paper's modification) the compression cache. The simulator
//! keeps *real bytes* in every frame so that compression ratios are
//! measured, not assumed; this module owns those bytes and the accounting
//! of who holds each frame.
//!
//! The kernel's own footprint ("about 6 Mbytes are used by the kernel for
//! code, page tables, and some forms of tracing", §4) is modeled by simply
//! constructing the pool with the *user-available* frame count.

/// Index of a physical page frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u32);

/// Which subsystem holds a frame.
///
/// The `tag` is an owner-defined identifier (e.g. a packed segment/page
/// number for VM, a cache-slot index for the compression cache); the pool
/// never interprets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameOwner {
    /// An uncompressed virtual-memory page.
    Vm {
        /// Owner-defined identity of the VM page.
        tag: u64,
    },
    /// A file-system buffer-cache block.
    FileCache {
        /// Owner-defined identity of the cached block.
        tag: u64,
    },
    /// A frame mapped into the compression cache's circular buffer.
    CompressionCache {
        /// Slot index within the cache's virtual address range.
        tag: u64,
    },
}

#[derive(Debug, Clone)]
struct Frame {
    owner: FrameOwner,
    data: Vec<u8>,
}

/// Per-class frame counts, for reports and the memory arbiter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameCounts {
    /// Frames holding uncompressed VM pages.
    pub vm: usize,
    /// Frames holding file-cache blocks.
    pub file_cache: usize,
    /// Frames mapped into the compression cache.
    pub compression_cache: usize,
    /// Unallocated frames.
    pub free: usize,
}

/// The pool of user-available physical page frames.
///
/// # Examples
///
/// ```
/// use cc_sim::mem::{FrameOwner, FramePool};
///
/// let mut pool = FramePool::new(4, 4096); // 16 KB machine
/// let f = pool.alloc(FrameOwner::Vm { tag: 7 }).unwrap();
/// pool.data_mut(f)[0] = 0xAB;
/// assert_eq!(pool.data(f)[0], 0xAB);
/// assert_eq!(pool.counts().vm, 1);
/// pool.free(f);
/// assert_eq!(pool.counts().free, 4);
/// ```
#[derive(Debug, Clone)]
pub struct FramePool {
    /// Every frame, allocated or not: a frame is never removed, so
    /// `FrameId(i)` is `frames[i]`.
    frames: Vec<Frame>,
    free: Vec<FrameId>,
    counts: FrameCounts,
}

impl FramePool {
    /// Create a pool of `frames` frames of `page_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    pub fn new(frames: usize, page_bytes: usize) -> Self {
        assert!(frames > 0 && page_bytes > 0, "empty frame pool");
        FramePool {
            // The sentinel owner is never read: a free frame's owner is
            // set by `alloc` before anything looks at it.
            frames: (0..frames)
                .map(|_| Frame {
                    owner: FrameOwner::Vm { tag: u64::MAX },
                    data: vec![0; page_bytes],
                })
                .collect(),
            // Popped from the back, so frame 0 is handed out first.
            free: (0..frames as u32).rev().map(FrameId).collect(),
            counts: FrameCounts {
                free: frames,
                ..FrameCounts::default()
            },
        }
    }

    /// Total number of frames (all classes).
    pub fn total_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of unallocated frames.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Per-class counts.
    pub fn counts(&self) -> FrameCounts {
        self.counts
    }

    /// Allocate a frame for `owner`; `None` when memory is exhausted (the
    /// caller must then evict something — that decision is the memory
    /// arbiter's, not the pool's).
    ///
    /// The frame's previous contents are *not* cleared; VM zero-fills pages
    /// on first touch explicitly, which is also where the zero-fill cost is
    /// charged.
    pub fn alloc(&mut self, owner: FrameOwner) -> Option<FrameId> {
        let id = self.free.pop()?;
        self.frames[id.0 as usize].owner = owner;
        self.counts.free -= 1;
        *self.count_of(owner) += 1;
        Some(id)
    }

    /// Return a frame to the free pool.
    pub fn free(&mut self, id: FrameId) {
        debug_assert!(!self.free.contains(&id), "double free of frame {id:?}");
        *self.count_of(self.frames[id.0 as usize].owner) -= 1;
        self.counts.free += 1;
        self.free.push(id);
    }

    /// The per-class count that frames held by `owner` are counted in.
    fn count_of(&mut self, owner: FrameOwner) -> &mut usize {
        match owner {
            FrameOwner::Vm { .. } => &mut self.counts.vm,
            FrameOwner::FileCache { .. } => &mut self.counts.file_cache,
            FrameOwner::CompressionCache { .. } => &mut self.counts.compression_cache,
        }
    }

    /// Shared access to a frame's bytes.
    pub fn data(&self, id: FrameId) -> &[u8] {
        &self.frames[id.0 as usize].data
    }

    /// Exclusive access to a frame's bytes.
    pub fn data_mut(&mut self, id: FrameId) -> &mut [u8] {
        &mut self.frames[id.0 as usize].data
    }

    /// Zero a frame (demand-zero fill).
    pub fn zero(&mut self, id: FrameId) {
        self.frames[id.0 as usize].data.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_until_exhaustion() {
        let mut p = FramePool::new(3, 64);
        let mut ids = Vec::new();
        for i in 0..3 {
            ids.push(p.alloc(FrameOwner::Vm { tag: i }).unwrap());
        }
        assert!(p.alloc(FrameOwner::Vm { tag: 9 }).is_none());
        assert_eq!(p.counts().vm, 3);
        assert_eq!(p.counts().free, 0);
        p.free(ids[1]);
        assert!(p.alloc(FrameOwner::FileCache { tag: 0 }).is_some());
        assert_eq!(p.counts().file_cache, 1);
    }

    #[test]
    fn counts_balance() {
        let mut p = FramePool::new(10, 64);
        let a = p.alloc(FrameOwner::Vm { tag: 1 }).unwrap();
        let b = p.alloc(FrameOwner::CompressionCache { tag: 2 }).unwrap();
        let _c = p.alloc(FrameOwner::FileCache { tag: 3 }).unwrap();
        let c = p.counts();
        assert_eq!(
            (c.vm, c.file_cache, c.compression_cache, c.free),
            (1, 1, 1, 7)
        );
        p.free(a);
        p.free(b);
        let c = p.counts();
        assert_eq!(
            (c.vm, c.file_cache, c.compression_cache, c.free),
            (0, 1, 0, 9)
        );
    }

    #[test]
    fn zero_fill() {
        let mut p = FramePool::new(1, 32);
        let f = p.alloc(FrameOwner::Vm { tag: 0 }).unwrap();
        p.data_mut(f).fill(0xFF);
        p.zero(f);
        assert!(p.data(f).iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "empty frame pool")]
    fn zero_frames_panics() {
        FramePool::new(0, 4096);
    }
}
