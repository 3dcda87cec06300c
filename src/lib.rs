//! # compression-cache
//!
//! A from-scratch reproduction of **Fred Douglis, "The Compression Cache:
//! Using On-line Compression to Extend Physical Memory"** (Winter 1993
//! USENIX Conference).
//!
//! The paper adds a new level to the memory hierarchy: a variable-sized
//! region of physical memory that holds VM pages in compressed (LZRW1)
//! form between uncompressed memory and the backing store. This workspace
//! rebuilds the whole system — compressor, disk and file-system models,
//! virtual memory, the compression cache itself, and a deterministic
//! whole-system simulator — plus every workload in the paper's
//! evaluation, and regenerates each of its figures and tables.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`util`] | `cc-util` | virtual time, seeded RNG, slab, CRC-32, formatting |
//! | [`telemetry`] | `cc-telemetry` | counters, histograms, tracing, snapshot renderers |
//! | [`compress`] | `cc-compress` | LZRW1 (from scratch), LZSS, RLE, null; the 4:3 threshold policy |
//! | [`core`] | `cc-core` | the compressed page store: hot/warm/cold tiers, adaptive codecs, crash-safe spill |
//! | [`sim`] | `cc-sim` | **the compression cache** ([`sim::paper`]: circular buffer, cleaner, fragments, swap GC), the workloads ([`sim::workloads`]: thrasher, compare, isca, sort, gold), Sprite's VM ([`sim::vm`]: segments, page tables, exact-LRU residency) and block files ([`sim::blockfs`]: 4 KB-block files, read-modify-write semantics, buffer cache), the physical frame pool with real page contents ([`sim::mem`]), the RZ57 and friends ([`sim::disk`]: seeks, rotation, transfer, request queueing), Figure 1's closed-form models ([`sim::analytic`]), and the whole machine under one virtual clock with the three-way memory arbiter |
//!
//! ## Quickstart
//!
//! ```
//! use compression_cache::sim::{Mode, SimConfig, System};
//!
//! // A machine with 2 MB of user memory and the compression cache on.
//! let mut sys = System::new(SimConfig::decstation(2 * 1024 * 1024, Mode::Cc));
//! // An address space twice that size...
//! let seg = sys.create_segment(4 * 1024 * 1024);
//! // ...written end to end: pages beyond memory are compressed, not
//! // (only) sent to disk.
//! for page in 0..(4 * 1024 * 1024 / 4096) {
//!     sys.write_u32(seg, page * 4096, page as u32);
//! }
//! assert!(sys.report().compress_attempts > 0);
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the figure/table harnesses (indexed in DESIGN.md and EXPERIMENTS.md).

#![warn(missing_docs)]

pub use cc_compress as compress;
pub use cc_core as core;
pub use cc_sim as sim;
pub use cc_telemetry as telemetry;
pub use cc_util as util;
