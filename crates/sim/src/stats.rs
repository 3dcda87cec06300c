//! Aggregated measurements and the end-of-run report.

use crate::disk::DiskStats;
use cc_telemetry::HistSummary;
use cc_util::{fmt, Ns};

use crate::paper::CoreStats;
use crate::vm::VmStats;

/// Counters owned by the `System` itself (the substrates keep their own).
#[derive(Debug, Clone, Default)]
pub struct SystemStats {
    /// Virtual time spent in workload `compute` calls.
    pub compute_time: Ns,
    /// Virtual time charged for word/slice memory references.
    pub mem_ref_time: Ns,
    /// Virtual time charged as per-fault kernel overhead.
    pub fault_overhead_time: Ns,
    /// Evictions of dirty pages written straight to a std swap file.
    pub std_swapouts: u64,
    /// Pages faulted in from a std swap file.
    pub std_swapins: u64,
    /// Evictions resolved by the compression cache (all outcomes).
    pub cc_evictions: u64,
    /// Samples of cache size (frames), taken at every fault.
    pub cc_size_samples: u64,
    /// Sum of sampled cache sizes (frames), for the mean.
    pub cc_size_sum: u64,
    /// Peak frames mapped by the cache.
    pub cc_size_peak: usize,
    /// File-cache read hits (through the System file API).
    pub file_hits: u64,
    /// File-cache read misses.
    pub file_misses: u64,
    /// File-cache misses served by the compressed file cache (§6
    /// extension) instead of the disk.
    pub file_cc_hits: u64,
}

impl SystemStats {
    /// Mean compression-cache size in frames over the run.
    pub fn cc_mean_frames(&self) -> f64 {
        if self.cc_size_samples == 0 {
            0.0
        } else {
            self.cc_size_sum as f64 / self.cc_size_samples as f64
        }
    }
}

/// A flattened, serializable summary of a finished run, consumed by the
/// bench harnesses and EXPERIMENTS.md generation.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// Mode label ("std" or "cc").
    pub mode: String,
    /// Total virtual time, seconds.
    pub elapsed_secs: f64,
    /// Workload accesses.
    pub accesses: u64,
    /// Total faults.
    pub faults: u64,
    /// Faults served by decompression from memory.
    pub faults_from_cache: u64,
    /// Faults served from backing store.
    pub faults_from_disk: u64,
    /// Zero-fill faults.
    pub faults_zero_fill: u64,
    /// Mean page-access time over all accesses, milliseconds.
    pub mean_access_ms: f64,
    /// Disk reads issued.
    pub disk_reads: u64,
    /// Disk writes issued.
    pub disk_writes: u64,
    /// Bytes moved to/from disk.
    pub disk_bytes: u64,
    /// Disk seeks.
    pub disk_seeks: u64,
    /// Compression attempts.
    pub compress_attempts: u64,
    /// Fraction of attempts rejected by the threshold.
    pub rejected_fraction: f64,
    /// Mean kept compressed fraction (compressed/original).
    pub mean_kept_fraction: f64,
    /// Mean compression-cache size, MB.
    pub cc_mean_mb: f64,
    /// Peak compression-cache size, MB.
    pub cc_peak_mb: f64,
    /// Time stalled on in-flight cleaner writes, seconds.
    pub write_stall_secs: f64,
    /// Per-fault-class virtual-time latency summaries (`fault_zero_fill`,
    /// `fault_cc`, `fault_std`), populated by `System::report` from its
    /// telemetry histograms; empty when a run had no faults of any class.
    pub fault_latency: Vec<(String, HistSummary)>,
}

impl SystemReport {
    /// Assemble from the pieces.
    pub fn assemble(
        mode: &str,
        clock: Ns,
        page_bytes: usize,
        sys: &SystemStats,
        vm: &VmStats,
        disk: &DiskStats,
        core: Option<&CoreStats>,
    ) -> Self {
        let faults = vm.faults();
        let zero = CoreStats::default();
        let core = core.unwrap_or(&zero);
        SystemReport {
            mode: mode.to_string(),
            elapsed_secs: clock.as_secs_f64(),
            accesses: vm.accesses,
            faults,
            faults_from_cache: core.faults_from_cache,
            faults_from_disk: core.faults_from_swap + core.faults_from_swap_raw + sys.std_swapins,
            faults_zero_fill: vm.zero_fill_faults,
            mean_access_ms: if vm.accesses == 0 {
                0.0
            } else {
                clock.as_ms_f64() / vm.accesses as f64
            },
            disk_reads: disk.reads,
            disk_writes: disk.writes,
            disk_bytes: disk.bytes(),
            disk_seeks: disk.seeks,
            compress_attempts: core.compress_attempts,
            rejected_fraction: core.rejected_fraction(),
            mean_kept_fraction: core.mean_kept_fraction(),
            cc_mean_mb: sys.cc_mean_frames() * page_bytes as f64 / (1024.0 * 1024.0),
            cc_peak_mb: sys.cc_size_peak as f64 * page_bytes as f64 / (1024.0 * 1024.0),
            write_stall_secs: core.write_stall.as_secs_f64(),
            fault_latency: Vec::new(),
        }
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "[{}] elapsed {} ({} accesses, {} faults)\n",
            self.mode,
            fmt::min_sec(self.elapsed_secs),
            self.accesses,
            self.faults
        ));
        out.push_str(&format!(
            "  faults: {} from cache, {} from disk, {} zero-fill; mean access {:.3}ms\n",
            self.faults_from_cache,
            self.faults_from_disk,
            self.faults_zero_fill,
            self.mean_access_ms
        ));
        out.push_str(&format!(
            "  disk: {} reads, {} writes, {} moved, {} seeks\n",
            self.disk_reads,
            self.disk_writes,
            fmt::bytes(self.disk_bytes),
            self.disk_seeks
        ));
        if self.compress_attempts > 0 {
            out.push_str(&format!(
                "  compression: {} attempts, {} uncompressible, kept ratio {}\n",
                self.compress_attempts,
                fmt::pct(self.rejected_fraction),
                fmt::pct(self.mean_kept_fraction)
            ));
            out.push_str(&format!(
                "  cache size: mean {:.1}MB, peak {:.1}MB; write stalls {:.2}s\n",
                self.cc_mean_mb, self.cc_peak_mb, self.write_stall_secs
            ));
        }
        for (name, s) in &self.fault_latency {
            out.push_str(&format!(
                "  {name}: {} faults, p50 {}, p90 {}, p99 {}, max {} (virtual)\n",
                s.count,
                fmt::ns(s.p50),
                fmt::ns(s.p90),
                fmt::ns(s.p99),
                fmt::ns(s.max)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_and_render() {
        let vm = VmStats {
            accesses: 1000,
            zero_fill_faults: 10,
            swap_faults: 5,
            ..VmStats::default()
        };
        let sys = SystemStats::default();
        let disk = DiskStats::default();
        let r = SystemReport::assemble("std", Ns::from_secs(2), 4096, &sys, &vm, &disk, None);
        assert_eq!(r.accesses, 1000);
        assert_eq!(r.faults, 15);
        assert!((r.mean_access_ms - 2.0).abs() < 1e-9);
        let text = r.render();
        assert!(text.contains("[std]"));
        assert!(!text.contains("compression:"), "no cc block for std runs");
    }

    #[test]
    fn cc_mean_frames() {
        let s = SystemStats {
            cc_size_samples: 4,
            cc_size_sum: 100,
            ..SystemStats::default()
        };
        assert_eq!(s.cc_mean_frames(), 25.0);
    }
}
