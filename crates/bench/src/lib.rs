//! Shared machinery for the figure/table harnesses.
//!
//! Each binary in `src/bin/` regenerates one of the paper's exhibits,
//! except `ccsim`, the simulator's command-line front end:
//!
//! | binary | exhibit |
//! |---|---|
//! | `fig1a` | Figure 1(a): analytic bandwidth speedup surface |
//! | `fig1b` | Figure 1(b): analytic reference-time speedup surface |
//! | `fig3`  | Figure 3(a)/(b): measured thrasher sweep, std vs cc, ro/rw |
//! | `table1` | Table 1: the seven application rows |
//! | `ablation` | design-choice sweeps (§4.2 bias, §4.3 spanning, threshold, codec, adaptive disable, backing stores) |
//! | `overheads` | §4.4 memory-overhead accounting |
//! | `cachesize` | §4.2 dynamic sizing: the cache's size over a phase-shifting workload |
//! | `ccsim` | none: one simulated run, every knob on the command line |
//!
//! `fig3`, `table1` and `ablation` accept a `--quick` flag that shrinks
//! problem sizes by ~8x; full-scale settings match EXPERIMENTS.md.

use cc_sim::workloads::{Workload, WorkloadSummary};
use cc_sim::{Mode, SimConfig, System};
use cc_util::Ns;

pub mod plot;

/// Measurements from one std-vs-cc pair of runs.
#[derive(Debug, Clone)]
pub struct PairResult {
    /// Workload name.
    pub name: String,
    /// Virtual elapsed time, unmodified system.
    pub std_time: Ns,
    /// Virtual elapsed time, compression cache.
    pub cc_time: Ns,
    /// Speedup (std / cc; > 1 means the cache wins).
    pub speedup: f64,
    /// Mean kept compressed fraction (compressed/original) from the cc run.
    pub kept_fraction: f64,
    /// Fraction of compression attempts rejected by the 4:3 threshold.
    pub rejected_fraction: f64,
    /// The cc run's full report.
    pub cc_report: cc_sim::SystemReport,
    /// The std run's full report.
    pub std_report: cc_sim::SystemReport,
}

/// Run `make_workload()` under both modes of `make_config(mode)` and
/// compare. Panics if the two runs' checksums differ (the modes must
/// compute identical results).
pub fn run_pair<W, F, G>(mut make_config: G, mut make_workload: F) -> PairResult
where
    W: Workload,
    F: FnMut() -> W,
    G: FnMut(Mode) -> SimConfig,
{
    let mut outputs: Vec<(Ns, WorkloadSummary, cc_sim::SystemReport)> = Vec::new();
    let mut name = String::new();
    for mode in [Mode::Std, Mode::Cc] {
        let mut sys = System::new(make_config(mode));
        let mut w = make_workload();
        name = w.name();
        let summary = w.run(&mut sys);
        outputs.push((sys.now(), summary, sys.report()));
    }
    assert_eq!(
        outputs[0].1.checksum, outputs[1].1.checksum,
        "{name}: std and cc runs computed different results"
    );
    let (std_time, cc_time) = (outputs[0].0, outputs[1].0);
    let cc_report = outputs[1].2.clone();
    PairResult {
        name,
        std_time,
        cc_time,
        speedup: std_time.as_ns() as f64 / cc_time.as_ns().max(1) as f64,
        kept_fraction: cc_report.mean_kept_fraction,
        rejected_fraction: cc_report.rejected_fraction,
        cc_report,
        std_report: outputs.swap_remove(0).2,
    }
}

/// Render Table 1-style rows.
pub fn render_table1(rows: &[PairResult]) -> String {
    let header = [
        "Application",
        "Time (std)",
        "Time (CC)",
        "Speedup",
        "Compression Ratio (%)",
        "Uncompressible pages (%)",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                cc_util::fmt::min_sec(r.std_time.as_secs_f64()),
                cc_util::fmt::min_sec(r.cc_time.as_secs_f64()),
                format!("{:.2}", r.speedup),
                format!("{:.0}", r.kept_fraction * 100.0),
                format!("{:.1}", r.rejected_fraction * 100.0),
            ]
        })
        .collect();
    cc_util::fmt::table(&header, &body)
}

/// Whether `--quick` was passed.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Scale a size down by 8 in quick mode.
pub fn scaled(full: u64) -> u64 {
    if quick_mode() {
        (full / 8).max(1)
    } else {
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_sim::workloads::thrasher::Thrasher;

    #[test]
    fn run_pair_checks_checksums_and_reports() {
        let mb = 1024 * 1024;
        let result = run_pair(
            |mode| SimConfig::decstation(2 * mb, mode),
            || {
                let mut t = Thrasher::figure3(4 * mb as u64, true);
                t.passes = 2;
                t
            },
        );
        assert!(result.speedup > 1.0, "cc should win: {result:?}");
        assert!(result.cc_report.compress_attempts > 0);
        assert_eq!(result.std_report.compress_attempts, 0);
        let table = render_table1(std::slice::from_ref(&result));
        assert!(table.contains("thrasher"));
        assert!(table.contains("Speedup"));
    }
}
