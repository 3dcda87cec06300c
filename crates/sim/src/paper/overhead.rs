//! Memory-overhead accounting, reproducing the arithmetic of §4.4.
//!
//! The paper itemizes what the compression cache costs in memory beyond
//! the frames it maps:
//!
//! - the LZRW1 hash table (16 KB in the measured system);
//! - 22 KB of additional kernel code;
//! - an 8-byte page-table extension for *every* virtual page, resident or
//!   not (an unmodified system stores 4 bytes per non-resident page; the
//!   modified one stores 12);
//! - 8 bytes per VA slot the cache might ever occupy (sized at boot);
//! - a 24-byte header per physical frame actually mapped (0.6%);
//! - a 36-byte header per compressed page in the cache.
//!
//! §4.4's worked example: "if the collective virtual memory of all running
//! processes is 60 Mbytes, with 4-Kbyte pages, the per-page overhead for
//! the compression cache would total 120 Kbytes."

use super::config::CacheConfig;

/// Static and dynamic memory overhead of a compression cache instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadReport {
    /// LZRW1 hash table bytes.
    pub hash_table: u64,
    /// Extra kernel code bytes (22 KB measured in the paper).
    pub kernel_code: u64,
    /// Page-table extension: 8 bytes per virtual page in the system.
    pub page_table_extension: u64,
    /// Slot descriptors: 8 bytes per possible cache slot (boot-time).
    pub slot_descriptors: u64,
    /// Frame headers: 24 bytes per currently mapped frame.
    pub frame_headers: u64,
    /// Entry headers: 36 bytes per live compressed page.
    pub entry_headers: u64,
}

/// Extra kernel code size measured in the paper (§4.4).
pub const KERNEL_CODE_BYTES: u64 = 22 * 1024;
/// Page-table extension per virtual page (§4.4).
pub const PT_EXTENSION_PER_PAGE: u64 = 8;
/// Per-slot descriptor (§4.4: "8 bytes per page in the range of addresses
/// the compression cache might occupy").
pub const SLOT_DESCRIPTOR_BYTES: u64 = 8;

impl OverheadReport {
    /// Compute the report for a system with `total_virtual_pages` of
    /// virtual memory, a cache configured by `cfg` with `mapped_frames`
    /// frames currently mapped and `live_entries` compressed pages, and a
    /// hash table of `hash_table_bytes`.
    pub fn compute(
        cfg: &CacheConfig,
        total_virtual_pages: u64,
        mapped_frames: u64,
        live_entries: u64,
        hash_table_bytes: u64,
    ) -> Self {
        OverheadReport {
            hash_table: hash_table_bytes,
            kernel_code: KERNEL_CODE_BYTES,
            page_table_extension: total_virtual_pages * PT_EXTENSION_PER_PAGE,
            slot_descriptors: cfg.max_slots as u64 * SLOT_DESCRIPTOR_BYTES,
            frame_headers: mapped_frames * cfg.frame_header_bytes as u64,
            entry_headers: live_entries * cfg.entry_header_bytes as u64,
        }
    }

    /// Fixed overhead that exists even when the cache is empty.
    pub fn static_bytes(&self) -> u64 {
        self.hash_table + self.kernel_code + self.page_table_extension + self.slot_descriptors
    }

    /// Overhead proportional to current cache contents.
    pub fn dynamic_bytes(&self) -> u64 {
        self.frame_headers + self.entry_headers
    }

    /// Everything.
    pub fn total_bytes(&self) -> u64 {
        self.static_bytes() + self.dynamic_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example() {
        // 60 MB of virtual memory in 4 KB pages = 15360 pages; the paper
        // says the per-page overhead "would total 120 Kbytes".
        let cfg = CacheConfig::paper(1024);
        let report = OverheadReport::compute(&cfg, 60 * 1024 * 1024 / 4096, 0, 0, 16 * 1024);
        assert_eq!(report.page_table_extension, 120 * 1024);
    }

    #[test]
    fn frame_header_fraction_matches_paper() {
        // 24 bytes per 4096-byte frame is the paper's "0.6% overhead".
        let cfg = CacheConfig::paper(1024);
        let report = OverheadReport::compute(&cfg, 0, 100, 0, 0);
        let frac = report.frame_headers as f64 / (100.0 * 4096.0);
        assert!((frac - 0.006).abs() < 0.0005, "got {frac}");
    }

    #[test]
    fn totals_add_up() {
        let cfg = CacheConfig::paper(2048);
        let r = OverheadReport::compute(&cfg, 10_000, 500, 1200, 16 * 1024);
        assert_eq!(r.static_bytes() + r.dynamic_bytes(), r.total_bytes());
        assert_eq!(r.slot_descriptors, 2048 * 8);
        assert_eq!(r.frame_headers, 500 * 24);
        assert_eq!(r.entry_headers, 1200 * 36);
        assert_eq!(r.kernel_code, 22 * 1024);
    }
}
