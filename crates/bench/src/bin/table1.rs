//! Table 1: application speedups on a ~14 MB machine.
//!
//! Paper rows (DECstation 5000/200, RZ57, LZRW1, 4 KB pages, ~14 MB for
//! user processes):
//!
//! ```text
//! Application   Time(std)  Time(CC)  Speedup  Ratio%  Uncompressible%
//! compare        16:14      6:04      2.68     31       0.1
//! isca           43:15     27:00      1.60     32       1.7
//! sort partial   13:32     10:24      1.30     30      49
//! gold create    14:03     15:38      0.90     59      42
//! gold cold      45:30     56:36      0.80     60      10
//! sort random    26:17     28:51      0.91     37      98
//! gold warm      35:56     49:00      0.73     52       0.9
//! ```
//!
//! Our substrate is a calibrated simulator, so absolute times differ; the
//! shape requirement is that compare > isca > sort partial > 1.0 and the
//! gold rows and sort random land at or below 1.0, with the compression
//! columns in the same regimes. Run with `--quick` for 1/8 scale.

use cc_bench::{quick_mode, render_table1, run_pair, PairResult};
use cc_sim::workloads::{
    compare::CompareApp,
    gold::{GoldApp, GoldPhase},
    isca::IscaApp,
    sortapp::{SortApp, SortInput},
};
use cc_sim::{Mode, SimConfig, System};
use cc_util::Ns;

const MB: usize = 1024 * 1024;

fn config(mode: Mode, user_mb: usize) -> SimConfig {
    SimConfig::decstation(user_mb * MB, mode)
}

fn scale_down(x: u64) -> u64 {
    if quick_mode() {
        x / 8
    } else {
        x
    }
}

/// Gold rows need phase-scoped timing (the paper times the query phases
/// separately from index construction), so they are run outside
/// `run_pair` with explicit clock deltas.
fn run_gold(phase: GoldPhase, user_mb: usize) -> PairResult {
    let mut app = GoldApp::table1();
    if quick_mode() {
        app.messages /= 8;
        app.queries /= 8;
        app.vocabulary /= 4;
    }
    let mut times = Vec::new();
    let mut sums = Vec::new();
    let mut reports = Vec::new();
    for mode in [Mode::Std, Mode::Cc] {
        let mut sys = System::new(config(mode, user_mb));
        let seg = sys.create_segment(app.segment_bytes());
        let name;
        let (start, checksum) = match phase {
            GoldPhase::Create => {
                name = "gold create";
                let t0 = sys.now();
                let sum = app.create(&mut sys, seg);
                (t0, sum)
            }
            GoldPhase::Cold => {
                name = "gold cold";
                app.create(&mut sys, seg);
                app.flush_memory(&mut sys);
                let t0 = sys.now();
                let sum = app.run_queries(&mut sys, seg, 77);
                (t0, sum)
            }
            GoldPhase::Warm => {
                name = "gold warm";
                app.create(&mut sys, seg);
                app.flush_memory(&mut sys);
                app.run_queries(&mut sys, seg, 77);
                let t0 = sys.now();
                // Paper: warm repeats the same query set.
                let sum = app.run_queries(&mut sys, seg, 77);
                (t0, sum)
            }
        };
        let elapsed = sys.now() - start;
        times.push(elapsed);
        sums.push(checksum);
        reports.push((name, sys.report()));
    }
    assert_eq!(sums[0], sums[1], "gold {phase:?} checksums diverged");
    let (name, std_report) = reports.swap_remove(0);
    let (_, cc_report) = reports.swap_remove(0);
    PairResult {
        name: name.into(),
        std_time: times[0],
        cc_time: times[1],
        speedup: times[0].as_ns() as f64 / times[1].as_ns().max(1) as f64,
        kept_fraction: cc_report.mean_kept_fraction,
        rejected_fraction: cc_report.rejected_fraction,
        cc_report,
        std_report,
    }
}

fn main() {
    let user_mb = if quick_mode() { 2 } else { 14 };
    println!(
        "== Table 1: application speedups ({} MB user memory, RZ57, LZRW1) ==\n",
        user_mb
    );

    let mut rows: Vec<PairResult> = Vec::new();

    // compare
    rows.push(run_pair(
        |mode| config(mode, user_mb),
        || {
            let mut a = CompareApp::table1();
            a.text_len = scale_down(a.text_len as u64) as usize;
            a
        },
    ));
    eprintln!("[done] compare");

    // isca
    rows.push(run_pair(
        |mode| config(mode, user_mb),
        || {
            let mut a = IscaApp::table1();
            a.memory_blocks = scale_down(a.memory_blocks);
            a.references = scale_down(a.references);
            a
        },
    ));
    eprintln!("[done] isca");

    // sort partial
    rows.push(run_pair(
        |mode| config(mode, user_mb),
        || {
            let mut a = SortApp::table1(SortInput::Partial);
            a.text_bytes = scale_down(a.text_bytes as u64) as usize;
            a
        },
    ));
    eprintln!("[done] sort partial");

    // gold create / cold
    rows.push(run_gold(GoldPhase::Create, user_mb));
    eprintln!("[done] gold create");
    rows.push(run_gold(GoldPhase::Cold, user_mb));
    eprintln!("[done] gold cold");

    // sort random
    rows.push(run_pair(
        |mode| config(mode, user_mb),
        || {
            let mut a = SortApp::table1(SortInput::Random);
            a.text_bytes = scale_down(a.text_bytes as u64) as usize;
            a
        },
    ));
    eprintln!("[done] sort random");

    // gold warm
    rows.push(run_gold(GoldPhase::Warm, user_mb));
    eprintln!("[done] gold warm");

    println!("{}", render_table1(&rows));

    println!("Per-row detail (cc runs):");
    for r in &rows {
        println!(
            "  {:>13}: faults {} (cache {}, disk {}), disk {}B moved, cc mean {:.1}MB peak {:.1}MB",
            r.name,
            r.cc_report.faults,
            r.cc_report.faults_from_cache,
            r.cc_report.faults_from_disk,
            r.cc_report.disk_bytes,
            r.cc_report.cc_mean_mb,
            r.cc_report.cc_peak_mb,
        );
    }

    // Shape assertions against the paper's Table 1.
    let by_name = |n: &str| -> &PairResult { rows.iter().find(|r| r.name == n).unwrap() };
    let compare = by_name("compare");
    let isca = by_name("isca");
    let sp = by_name("sort partial");
    let sr = by_name("sort random");
    println!("\nPaper-shape checks:");
    let mut ok = true;
    let mut check = |label: &str, cond: bool| {
        println!("  [{}] {label}", if cond { "ok" } else { "MISS" });
        ok &= cond;
    };
    check("compare wins big (paper 2.68x)", compare.speedup > 1.5);
    check("isca wins (paper 1.60x)", isca.speedup > 1.1);
    check("sort partial wins modestly (paper 1.30x)", sp.speedup > 1.0);
    check("sort random does not win (paper 0.91x)", sr.speedup <= 1.02);
    check(
        "gold rows do not win (paper 0.73-0.90x)",
        rows.iter()
            .filter(|r| r.name.starts_with("gold"))
            .all(|r| r.speedup <= 1.05),
    );
    check(
        "compare beats isca beats sort partial",
        compare.speedup > isca.speedup && isca.speedup > sp.speedup,
    );
    check(
        "sort random mostly uncompressible (paper 98%)",
        sr.rejected_fraction > 0.6,
    );
    check(
        "compare ratio ~3:1 (paper 31%)",
        (0.10..0.45).contains(&compare.kept_fraction),
    );
    let total: Ns = rows.iter().map(|r| r.std_time + r.cc_time).sum();
    println!(
        "\nTotal simulated time across all runs: {}",
        cc_util::fmt::min_sec(total.as_secs_f64())
    );
    assert!(ok, "one or more Table 1 shape checks failed");
    println!("All Table 1 shape checks passed.");
}
