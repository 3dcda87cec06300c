//! The paper's workloads, rebuilt as real programs against the simulator.
//!
//! §5 of the paper evaluates the compression cache with one synthetic
//! bound (`thrasher`) and five applications. None of the originals are
//! available, so each is reimplemented from its description (DESIGN.md §3
//! documents the substitutions):
//!
//! | paper | here | behavior reproduced |
//! |---|---|---|
//! | `thrasher` | [`thrasher::Thrasher`] | sequential cyclic sweep, one word per page, ro/rw |
//! | `compare` (Lipton–Lopresti differ) | [`compare::CompareApp`] | banded DP over two texts, forward then backward pass, highly compressible values |
//! | `isca` (Dubnicki cache simulator) | [`isca::IscaApp`] | trace-driven multi-processor coherence simulation, CPU+memory intensive, ~3:1 pages |
//! | `sort` | [`sortapp::SortApp`] | in-place quicksort over ~12 MB of words; `random` and `partial` compressibility regimes |
//! | `gold` (Gold Mailer index engine) | [`gold::GoldApp`] | in-memory inverted index: create / cold queries / warm queries, ~2:1 pages, nonsequential access |
//!
//! Every workload runs *real computation on real bytes* inside the
//! simulated address space and returns a checksum; the std and cc modes
//! must produce identical checksums, which doubles as an end-to-end
//! integrity test of the entire paging machinery.

pub mod compare;
pub mod datagen;
pub mod gold;
pub mod isca;
pub mod sortapp;
pub mod thrasher;

use crate::System;

/// A runnable workload.
pub trait Workload {
    /// Stable name for reports (matches the paper's Table 1 rows).
    fn name(&self) -> String;

    /// Run to completion against `sys`, returning an application-level
    /// checksum (identical across system modes) and counters.
    fn run(&mut self, sys: &mut System) -> WorkloadSummary;
}

/// What a workload produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSummary {
    /// Application-level result checksum; must not depend on the mode.
    pub checksum: u64,
    /// Application-level operation count (for ops/sec style reporting).
    pub operations: u64,
}

/// FNV-1a, the checksum used by all workloads.
pub fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    let mut h = if acc == 0 { 0xcbf29ce484222325 } else { acc };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_changes_with_input() {
        let a = fnv1a(0, b"hello");
        let b = fnv1a(0, b"hellp");
        assert_ne!(a, b);
        // Chaining works.
        let c = fnv1a(fnv1a(0, b"he"), b"llo");
        assert_eq!(c, a);
    }
}
