//! Utility substrate for the compression-cache reproduction.
//!
//! This crate collects the small, dependency-free building blocks that more
//! than one crate of the workspace uses:
//!
//! - [`time`] — the virtual-time representation ([`time::Ns`]) used by the
//!   whole simulator. All costs in the system are expressed as nanoseconds of
//!   virtual time so that runs are exactly reproducible — and the one
//!   retry [`backoff`] schedule.
//! - [`slab`] — a minimal slab allocator with stable integer keys.
//! - [`rng`] — a tiny deterministic SplitMix64 generator: every seeded
//!   workload, simulator run and test draws from it (the workspace has no
//!   `rand` dependency).
//! - [`crc`] — CRC-32 for self-verifying on-disk extents: carry-less
//!   multiply where the CPU has it, slice-by-16 tables everywhere.
//! - [`fmt`] — human-friendly byte/time formatting.
//!
//! Histograms live in `cc_telemetry`: `AtomicHistogram` is the workspace's
//! one histogram type, and its module owns the bucket scheme.

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod crc;
pub mod fmt;
pub mod rng;
pub mod slab;
pub mod time;

pub use crc::{crc32, Crc32};
pub use rng::SplitMix64;
pub use slab::Slab;
pub use time::{backoff, Ns};
