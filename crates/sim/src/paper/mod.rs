//! The compression cache — the paper's primary contribution.
//!
//! This module implements the mechanism described in §4 of Douglis 1993:
//! a variable-sized region of physical memory holding VM pages in
//! compressed form, sitting between uncompressed memory and the backing
//! store. The design follows the paper closely:
//!
//! - **Circular buffer layout** (§4.2, Figure 2): physical frames are
//!   mapped one after another into a (virtual) address range; compressed
//!   pages are appended at the cursor, each preceded by a 36-byte header,
//!   and may span frame boundaries. Frames are reclaimed from the oldest
//!   end — or from the middle when no clean data is available at the
//!   oldest end. See [`circ`].
//! - **Page states** `clean / dirty / free / new` emerge from per-entry
//!   dirtiness plus per-slot live-byte accounting.
//! - **Cleaner** (§4.2): the oldest dirty compressed pages are written to
//!   backing store in batched, fragment-padded runs (1 KB fragments,
//!   32 KB batches, §4.3) so that frames stay reclaimable. Writes are
//!   asynchronous; reclaiming a frame whose data is still in flight stalls
//!   until the write completes, which is exactly the cost the paper's
//!   clean-page pool exists to hide.
//! - **Backing-store interface** (§4.3): because compressed pages lose the
//!   fixed page-to-block mapping, [`swap`] keeps an explicit location map,
//!   garbage-collects superseded fragments, and (optionally) forbids pages
//!   from spanning file-block boundaries. Space is organized in 32 KB
//!   *clusters*; when no free cluster remains, a log-cleaner moves the
//!   live pages out of the emptiest cluster.
//! - **4:3 threshold** (§5.2): pages that compress poorly are not kept
//!   compressed; the wasted compression effort is reported so the
//!   simulator can charge it.
//! - **Overhead accounting** (§4.4): [`overhead`] reproduces the paper's
//!   memory-overhead arithmetic (8 B/page page-table extension, 8 B/slot
//!   descriptor, 24 B frame headers, 36 B entry headers, the LZRW1 hash
//!   table, and the 22 KB of extra kernel code).
//!
//! Policy — *when* to grow or shrink the cache relative to VM pages and
//! the file cache — deliberately lives one level up, in
//! [`System`](crate::System); this module provides the mechanism and
//! reports every byte and every stall so the policy layer can charge
//! costs honestly.

pub mod backing;
pub mod cache;
pub mod circ;
pub mod config;
pub mod overhead;
pub mod swap;

pub use backing::{BackingStore, MemBacking};
pub use cache::{CleanEvictOutcome, CompressionCache, CoreStats, FaultOutcome, InsertOutcome};
pub use config::CacheConfig;
pub use overhead::OverheadReport;
pub use swap::{SwapInfo, SwapLoc, SwapSpace};

/// Identity of a virtual page, as the cache sees it.
///
/// This mirrors [`VPage`](crate::vm::VPage) without depending on the VM
/// model: the cache is usable as a standalone compressed-page store keyed by any
/// `(u32, u32)` identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageKey {
    /// Segment / object identifier.
    pub seg: u32,
    /// Page index within the segment.
    pub page: u32,
}
