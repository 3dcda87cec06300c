//! Shared machinery for the figure/table harnesses.
//!
//! Each binary in `src/bin/` regenerates one of the paper's exhibits:
//!
//! | binary | exhibit |
//! |---|---|
//! | `fig1a` | Figure 1(a): analytic bandwidth speedup surface |
//! | `fig1b` | Figure 1(b): analytic reference-time speedup surface |
//! | `fig3`  | Figure 3(a)/(b): measured thrasher sweep, std vs cc, ro/rw |
//! | `table1` | Table 1: the seven application rows |
//! | `ablation` | design-choice sweeps (§4.2 bias, §4.3 spanning, threshold, codec, adaptive disable, backing stores) |
//! | `overheads` | §4.4 memory-overhead accounting |
//!
//! Binaries accept a `--quick` flag that shrinks problem sizes by ~8x for
//! smoke runs; full-scale settings match EXPERIMENTS.md.

use cc_sim::workloads::{Workload, WorkloadSummary};
use cc_sim::{Mode, SimConfig, System};
use cc_util::{Ns, SplitMix64};

pub mod plot;
pub mod smoke;

/// Zipfian sampler over ranks `0..n` for `storebench` and `loadgen`: a
/// precomputed CDF and a binary search, so a draw is one `SplitMix64`
/// step and a `partition_point`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `k` is drawn with weight `1 / (k + 1)^s`.
    pub fn new(n: u64, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for v in cdf.iter_mut() {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// One draw: a rank `< n`, rank 0 the most frequent.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.cdf.partition_point(|&c| c < u) as u64
    }
}

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

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// What [`paired_rates`] read: each arm's median trial rate (for scale)
/// and the median over the pairs of `rate on / rate off` — the cost of
/// the "on" arm is read off that ratio, not off the two rates.
#[derive(Debug, Clone, Copy)]
pub struct PairedRates {
    /// Median trial rate of the "off" arm.
    pub off: f64,
    /// Median trial rate of the "on" arm.
    pub on: f64,
    /// Median of the per-pair `on / off` ratios.
    pub on_over_off: f64,
}

/// The overhead-probe loop `storebench` and `loadgen` share: `pairs`
/// adjacent trials of arm 0 ("off") and arm 1 ("on"), strictly
/// interleaved, `trial(arm)` running one short trial against that arm's
/// long-lived state and returning its rate.
///
/// Why this shape: the host's speed wanders ±10 % over tens of
/// milliseconds, in both directions, so the arms must alternate faster
/// than that and be compared pair by pair, each pair sharing its
/// weather. Which arm of a pair runs first alternates, so neither
/// always follows the other's cache state.
pub fn paired_rates(pairs: usize, mut trial: impl FnMut(usize) -> f64) -> PairedRates {
    let mut rates = [Vec::new(), Vec::new()];
    let mut ratios = Vec::new();
    for pair in 0..pairs {
        for arm in [pair % 2, (pair + 1) % 2] {
            rates[arm].push(trial(arm));
        }
        ratios.push(rates[1][pair] / rates[0][pair]);
    }
    let [off, on] = rates.map(|mut r| median(&mut r));
    PairedRates {
        off,
        on,
        on_over_off: median(&mut ratios),
    }
}

impl PairedRates {
    /// Throughput the "on" arm loses, percent of the "off" rate (clamped
    /// at 0 — on a noisy host "on" can measure faster).
    pub fn overhead_pct(&self) -> f64 {
        ((1.0 - self.on_over_off) * 100.0).max(0.0)
    }
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

    #[test]
    fn zipf_cdf_ends_at_one_and_rank_zero_leads() {
        const N: u64 = 100;
        let zipf = Zipf::new(N, 0.99);
        assert!(zipf.cdf.windows(2).all(|w| w[0] < w[1]), "CDF not monotone");
        assert_eq!(zipf.cdf.last().copied(), Some(1.0));
        let mut rng = SplitMix64::new(7);
        let mut hits = [0u32; N as usize];
        for _ in 0..100_000 {
            let k = zipf.sample(&mut rng);
            assert!(k < N, "sample {k} out of 0..{N}");
            hits[k as usize] += 1;
        }
        assert!(hits[1..].iter().all(|&h| h < hits[0]), "{hits:?}");
    }
}
