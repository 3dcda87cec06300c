//! Simulator configuration: machine, mode, and policy knobs.

use crate::disk::DiskParams;
use cc_compress::ThresholdPolicy;
use cc_util::Ns;

use crate::paper::cache::CpuCosts;

/// Which compressor the cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecKind {
    /// LZRW1 with a hash table of the given size in bytes (16 KB in the
    /// paper's kernel).
    Lzrw1 {
        /// Hash-table size in bytes.
        table_bytes: usize,
    },
    /// Slower, better-compressing LZSS (the off-line-algorithm stand-in).
    Lzss,
    /// Run-length only (fast, weak).
    Rle,
    /// Identity (for sanity experiments; everything fails the threshold).
    Null,
}

/// System mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Unmodified Sprite: no compression anywhere.
    Std,
    /// Compression cache enabled.
    Cc,
}

/// Compression-cache policy knobs (§4.2's biases and the cleaner).
#[derive(Debug, Clone)]
pub struct CcParams {
    /// Codec selection.
    pub codec: CodecKind,
    /// Keep-compressed threshold (the paper's 4:3).
    pub threshold: ThresholdPolicy,
    /// Added to an uncompressed VM page's age when arbitrating: a larger
    /// value evicts (compresses) uncompressed pages sooner, growing the
    /// cache. *"The more the system favors compressed pages, the larger
    /// the compression cache will tend to grow in periods of heavy
    /// paging."*
    pub vm_age_penalty: Ns,
    /// Multiplier applied to the compression cache's raw age in the
    /// arbitration. Values below 1 make the cache age more slowly than VM
    /// pages, so it holds on to memory under paging load; 1.0 treats it
    /// like any other consumer (near-buffer behavior); large values make
    /// it give memory back readily. This is the §4.2 bias knob the paper
    /// calls application-dependent; the ablation bench sweeps it.
    pub cc_age_scale: f64,
    /// Added to a file-cache block's age: files yield memory before
    /// anything else (Sprite's original bias, extended three ways).
    pub fs_age_penalty: Ns,
    /// The cleaner keeps at least this many frames clean-or-free ahead of
    /// demand by writing oldest dirty compressed pages in the background.
    pub cleaner_low_frames: usize,
    /// Fragment size on backing store (1 KB in the paper).
    pub fragment_bytes: usize,
    /// Write-batch / cluster size (32 KB in the paper).
    pub cluster_bytes: usize,
    /// May compressed pages span file-block boundaries (§4.3 parameter)?
    pub allow_span: bool,
    /// Install neighboring compressed pages found in block-rounded swap
    /// reads (costs no extra I/O).
    pub swap_readahead: bool,
    /// §6 extension: keep evicted file-cache blocks in the compression
    /// cache as discardable compressed copies, improving the effective
    /// file-cache hit rate ("one might consider ... keep part or all of
    /// the file buffer cache in compressed format").
    pub compress_file_cache: bool,
    /// Size of the compressed swap area on disk.
    pub swap_bytes: u64,
    /// Adaptive disable (§5.2 "It should be possible to disable
    /// compression completely when poor compression is obtained"): after
    /// this many consecutive threshold rejections the cache stops
    /// compressing and routes evictions straight to swap, re-probing one
    /// page in every `adaptive_reprobe`. 0 disables the feature.
    pub adaptive_disable_after: u32,
    /// See `adaptive_disable_after`.
    pub adaptive_reprobe: u32,
}

impl Default for CcParams {
    fn default() -> Self {
        CcParams {
            codec: CodecKind::Lzrw1 {
                table_bytes: 16 * 1024,
            },
            threshold: ThresholdPolicy::default(),
            vm_age_penalty: Ns::from_ms(20),
            cc_age_scale: 0.15,
            fs_age_penalty: Ns::from_ms(100),
            cleaner_low_frames: 8,
            fragment_bytes: 1024,
            cluster_bytes: 32 * 1024,
            allow_span: true,
            swap_readahead: true,
            compress_file_cache: false,
            swap_bytes: 256 * 1024 * 1024,
            adaptive_disable_after: 0,
            adaptive_reprobe: 64,
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Physical memory available to user processes (the paper configures
    /// ~6 MB for Figure 3 and ~14 MB for Table 1).
    pub user_memory_bytes: usize,
    /// Page size (4 KB on the DECstation 5000/200).
    pub page_bytes: usize,
    /// Cost of one word-granularity memory reference by the workload.
    pub mem_ref: Ns,
    /// Kernel overhead per page fault (trap, lookup, map).
    pub fault_overhead: Ns,
    /// CPU-side bandwidths (compression, memcpy).
    pub cpu: CpuCosts,
    /// Backing-store device.
    pub disk: DiskParams,
    /// Std or Cc.
    pub mode: Mode,
    /// Compression-cache parameters (used only in `Mode::Cc`).
    pub cc: CcParams,
    /// Deterministic seed available to workloads.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's measurement machine: DECstation 5000/200 with an RZ57,
    /// configured with `user_memory_bytes` for user processes.
    pub fn decstation(user_memory_bytes: usize, mode: Mode) -> Self {
        SimConfig {
            user_memory_bytes,
            page_bytes: 4096,
            mem_ref: Ns(400),
            fault_overhead: Ns::from_us(250),
            cpu: CpuCosts::decstation_5000_200(),
            disk: DiskParams::rz57(),
            mode,
            cc: CcParams::default(),
            seed: 0x5EED,
        }
    }

    /// Number of user frames.
    pub fn frames(&self) -> usize {
        self.user_memory_bytes / self.page_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decstation_defaults() {
        let c = SimConfig::decstation(6 * 1024 * 1024, Mode::Cc);
        assert_eq!(c.frames(), 1536);
        assert_eq!(c.page_bytes, 4096);
        assert_eq!(c.disk.name, "RZ57");
    }
}
