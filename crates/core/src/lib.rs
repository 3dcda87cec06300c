//! A sharded, tiered compressed page store — the compression cache of
//! Douglis 1993 as a standalone, thread-safe library.
//!
//! [`store`] keeps fixed-size pages in memory under a byte budget, the
//! way the paper's descendants (zram, zswap, the macOS/Windows compressed
//! memory managers) do: hot pages stay uncompressed, warm pages are
//! compressed in memory by an adaptive codec choice, and cold pages spill
//! to a backing file through a background writer that batches them the
//! way §4.3's backing-store interface does. [`tier`] holds the placement
//! policies that decide where each page lives, [`medium`] abstracts the
//! spill file behind a positioned-I/O trait with a deterministic fault
//! injector for chaos testing and a write recorder for crash images,
//! and [`persist`] makes the spill tier crash-safe and warm-restartable.
//! Checksummed extents, bounded retry and degraded-mode operation are
//! part of the store's contract, not an afterthought.
//!
//! The 1993 system itself is reproduced elsewhere: the §4 circular-buffer
//! cache, the VM and file-system models it runs on, and the memory and
//! disk models under them are all in `cc-sim` (as `cc_sim::paper`,
//! `cc_sim::vm`, `cc_sim::blockfs`, `cc_sim::mem` and `cc_sim::disk`).

#![warn(missing_docs)]

pub mod medium;
pub mod persist;
pub mod store;
pub mod tier;

pub use medium::{
    Fault, FaultInjector, FaultPlan, FileMedium, InjectedFaults, MemMedium, RecordingMedium,
    SpillMedium,
};
pub use persist::{RecoverError, RecoveryCounts};
pub use store::{CompressedStore, StoreConfig, StoreError, StoreStats};
pub use tier::TierPolicy;
