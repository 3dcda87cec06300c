//! The 1993 reproduction: the paper's machine under one virtual clock.
//!
//! | module | contents |
//! |---|---|
//! | [`paper`] | **the compression cache** (§4): circular buffer, cleaner, fragments, swap GC, §4.4 overheads |
//! | [`workloads`] | thrasher, compare, isca, sort, gold |
//! | [`system`] | the whole machine and the three-way memory arbiter |
//! | [`vm`] | Sprite's VM: segments, page tables, exact-LRU residency, dirty tracking |
//! | [`blockfs`] | Sprite's 4 KB-block files over the disk model, and the buffer cache |
//! | [`mem`] | the physical frame pool, with real page contents and per-owner counts |
//! | [`disk`] | RZ57 and friends: seeks, rotation, transfer, request queueing |
//! | [`lru`] | the intrusive LRU list behind the VM's resident set and the buffer cache |
//! | [`analytic`] | Figure 1's closed-form models |
//!
//! [`System`] wires the substrates together the way the modified Sprite
//! kernel does: a [`vm::Vm`] over a shared [`mem::FramePool`], a
//! [`blockfs::FileSystem`] on a [`disk::Disk`], an optional
//! [`paper::CompressionCache`], and — the §4.2 contribution — a
//! **three-way memory arbiter** that trades physical frames among
//! uncompressed VM pages, file-cache blocks, and compressed pages by
//! comparing biased LRU ages.
//!
//! Workloads drive [`System`] through word- and slice-granularity reads
//! and writes on segments; every cost (memory reference, fault overhead,
//! compression, copies, disk time) advances one deterministic virtual
//! clock. The same [`System`] runs in two modes:
//!
//! - [`Mode::Std`] — the unmodified system: evicted dirty pages go
//!   straight to a per-segment swap file at a fixed page-to-block offset
//!   (two seeks per thrashing fault, §5.1);
//! - [`Mode::Cc`] — the compression cache interposed, with the paper's
//!   fragment/batch backing-store interface.
//!
//! The *only* code that differs between the modes is the eviction and
//! fault-service policy — the measurement plumbing is shared, which keeps
//! the std-vs-cc comparisons honest.

#![warn(missing_docs)]

pub mod analytic;
pub mod blockfs;
pub mod config;
pub mod disk;
pub mod lru;
pub mod mem;
pub mod paper;
pub mod stats;
pub mod system;
pub mod vm;
pub mod workloads;

pub use config::{CcParams, CodecKind, Mode, SimConfig};
pub use stats::{SystemReport, SystemStats};
pub use system::System;
