//! `thrasher` — the paper's synthetic upper-bound workload (§5.1).
//!
//! *"Thrasher cycles linearly through a working set, reading (and
//! optionally writing) one word of memory on each page each time through
//! the working set. The system uses an LRU algorithm for page
//! replacement, so if thrasher's working set does not fit in memory, then
//! it takes a page fault on each page access."*

use cc_util::Ns;

use super::{datagen, fnv1a, Workload, WorkloadSummary};
use crate::System;

/// The thrasher workload.
#[derive(Debug, Clone)]
pub struct Thrasher {
    /// Address-space size in bytes (the Figure 3 x-axis).
    pub space_bytes: u64,
    /// Number of full passes over the working set.
    pub passes: u32,
    /// Write one word per page (true = `rw` curves, false = `ro`).
    pub write: bool,
    /// Pre-fill pages with ~4:1-compressible content before measuring
    /// (the paper's thrasher pages "compress roughly 4:1"). When false,
    /// pages stay zero-filled (maximally compressible).
    pub prefill: bool,
    /// Charge this much computation between page touches (0 in Figure 3).
    pub think_time: Ns,
}

impl Thrasher {
    /// Figure 3 configuration at a given address-space size.
    pub fn figure3(space_bytes: u64, write: bool) -> Self {
        Thrasher {
            space_bytes,
            passes: 3,
            write,
            prefill: true,
            think_time: Ns::ZERO,
        }
    }

    /// Number of pages in the working set.
    pub fn pages(&self) -> u64 {
        self.space_bytes / 4096
    }
}

impl Workload for Thrasher {
    fn name(&self) -> String {
        format!(
            "thrasher-{}-{}MB",
            if self.write { "rw" } else { "ro" },
            self.space_bytes / (1024 * 1024)
        )
    }

    fn run(&mut self, sys: &mut System) -> WorkloadSummary {
        let seg = sys.create_segment(self.space_bytes);
        let npages = self.pages();
        let mut checksum = 0u64;
        let mut ops = 0u64;

        if self.prefill {
            // Fill phase (not part of the measured cycling in the paper,
            // but it pages like any fill would).
            let mut page = vec![0u8; 4096];
            for p in 0..npages {
                datagen::fill_4to1(&mut page, p);
                sys.write_slice(seg, p * 4096, &page);
            }
        }

        // Measured cycling: one word per page, sequential, wrap around.
        for pass in 0..self.passes {
            for p in 0..npages {
                let off = p * 4096; // first word of each page
                if self.write {
                    let v = sys.read_u32(seg, off);
                    sys.write_u32(seg, off, v.wrapping_add(1));
                } else {
                    let v = sys.read_u32(seg, off);
                    checksum = fnv1a(checksum, &v.to_le_bytes());
                }
                ops += 1;
                if self.think_time > Ns::ZERO {
                    sys.compute(self.think_time);
                }
            }
            let _ = pass;
        }
        if self.write {
            // Fold final word values into the checksum.
            for p in 0..npages {
                let v = sys.read_u32(seg, p * 4096);
                checksum = fnv1a(checksum, &v.to_le_bytes());
                ops += 1;
            }
        }
        WorkloadSummary {
            checksum,
            operations: ops,
        }
    }
}

/// Average page-access time over only the *cycling* phase of a run:
/// convenience used by the Figure 3 harness. Runs fill, snapshots the
/// clock and access counts, then cycles.
pub fn measure_cycle_access_time(sys: &mut System, t: &Thrasher) -> (f64, u64) {
    let seg = sys.create_segment(t.space_bytes);
    let npages = t.pages();
    if t.prefill {
        let mut page = vec![0u8; 4096];
        for p in 0..npages {
            datagen::fill_4to1(&mut page, p);
            sys.write_slice(seg, p * 4096, &page);
        }
    }
    let start = sys.now();
    let accesses_before = sys.vm_stats().accesses;
    for _ in 0..t.passes {
        for p in 0..npages {
            let off = p * 4096;
            if t.write {
                let v = sys.read_u32(seg, off);
                sys.write_u32(seg, off, v.wrapping_add(1));
            } else {
                let _ = sys.read_u32(seg, off);
            }
        }
    }
    let elapsed = sys.now() - start;
    // Count page visits, not word references (rw touches each page with a
    // read+write pair).
    let page_visits = t.passes as u64 * npages;
    let _ = accesses_before;
    (elapsed.as_ms_f64() / page_visits as f64, page_visits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mode, SimConfig};

    const MB: u64 = 1024 * 1024;

    #[test]
    fn checksums_match_across_modes() {
        let mut results = Vec::new();
        for mode in [Mode::Std, Mode::Cc] {
            let mut sys = System::new(SimConfig::decstation(2 * MB as usize, mode));
            let mut t = Thrasher::figure3(4 * MB, true);
            t.passes = 2;
            results.push(t.run(&mut sys).checksum);
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn fitting_working_set_takes_no_cycle_faults() {
        let mut sys = System::new(SimConfig::decstation(8 * MB as usize, Mode::Cc));
        let t = Thrasher::figure3(2 * MB, false);
        let (ms_per_access, _) = measure_cycle_access_time(&mut sys, &t);
        // Pure memory references: well under a tenth of a millisecond.
        assert!(ms_per_access < 0.01, "got {ms_per_access}ms");
    }

    #[test]
    fn cc_cycle_is_much_faster_than_std_when_fitting_compressed() {
        let space = 4 * MB;
        let mem = 2 * MB as usize;
        let measure = |mode| {
            let mut sys = System::new(SimConfig::decstation(mem, mode));
            let t = Thrasher::figure3(space, true);
            measure_cycle_access_time(&mut sys, &t).0
        };
        let std_ms = measure(Mode::Std);
        let cc_ms = measure(Mode::Cc);
        assert!(
            cc_ms * 3.0 < std_ms,
            "expected >3x: std {std_ms}ms cc {cc_ms}ms"
        );
    }
}
