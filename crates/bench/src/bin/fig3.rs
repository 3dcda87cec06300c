//! Figure 3: thrasher under the four configurations of §5.1.
//!
//! *"Figure 3 shows access time as a function of working set size, on a
//! machine configured to use no more than 12 Mbytes (of which about
//! 6 Mbytes are available to user processes)"* — four lines: `std_rw`,
//! `cc_rw`, `std_ro`, `cc_ro`; panel (a) is average page access time,
//! panel (b) the speedup of cc relative to std.
//!
//! Run with `--quick` for a 1/8-scale smoke pass.

use cc_bench::{plot, scaled};
use cc_sim::workloads::thrasher::{measure_cycle_access_time, Thrasher};
use cc_sim::{Mode, SimConfig, System};

const MB: u64 = 1024 * 1024;

fn one_point(space: u64, write: bool, mode: Mode, user_mem: u64) -> f64 {
    let mut sys = System::new(SimConfig::decstation(user_mem as usize, mode));
    let t = Thrasher::figure3(space, write);
    let (ms, _) = measure_cycle_access_time(&mut sys, &t);
    ms
}

fn main() {
    let user_mem = scaled(6 * MB);
    let sizes: Vec<u64> = [2u64, 4, 6, 8, 10, 12, 15, 20, 25, 30, 35, 40]
        .iter()
        .map(|&mb| scaled(mb * MB))
        .collect();

    println!(
        "== Figure 3: thrasher, {} user memory, RZ57 backing store ==\n",
        cc_util::fmt::bytes(user_mem)
    );
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
        "size(MB)", "std_rw", "cc_rw", "std_ro", "cc_ro", "spd_rw", "spd_ro"
    );

    let mut xs = Vec::new();
    let mut std_rw = Vec::new();
    let mut cc_rw = Vec::new();
    let mut std_ro = Vec::new();
    let mut cc_ro = Vec::new();
    let mut spd_rw = Vec::new();
    let mut spd_ro = Vec::new();

    for &space in &sizes {
        let srw = one_point(space, true, Mode::Std, user_mem);
        let crw = one_point(space, true, Mode::Cc, user_mem);
        let sro = one_point(space, false, Mode::Std, user_mem);
        let cro = one_point(space, false, Mode::Cc, user_mem);
        println!(
            "{:>8.1} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>9.2} {:>9.2}",
            space as f64 / MB as f64,
            srw,
            crw,
            sro,
            cro,
            srw / crw,
            sro / cro
        );
        xs.push(space as f64 / MB as f64);
        std_rw.push(srw);
        cc_rw.push(crw);
        std_ro.push(sro);
        cc_ro.push(cro);
        spd_rw.push(srw / crw);
        spd_ro.push(sro / cro);
    }

    println!();
    println!(
        "{}",
        plot::line_chart(
            "(a) Average page access time (ms) vs address space (MB)",
            &xs,
            &[
                ("std_rw", std_rw.clone()),
                ("cc_rw", cc_rw.clone()),
                ("std_ro", std_ro.clone()),
                ("cc_ro", cc_ro.clone()),
            ],
            64,
            16,
        )
    );
    println!(
        "{}",
        plot::line_chart(
            "(b) Speedup of compression cache relative to original system",
            &xs,
            &[("cc_ro", spd_ro.clone()), ("cc_rw", spd_rw.clone())],
            64,
            16,
        )
    );

    // Paper-shape assertions (soft: report, then panic only on gross
    // violations).
    let mem_mb = user_mem as f64 / MB as f64;
    let fits = xs.iter().position(|&x| x <= mem_mb * 0.9).unwrap_or(0);
    let in_cache = xs
        .iter()
        .position(|&x| x > mem_mb * 1.5 && x < mem_mb * 2.6)
        .unwrap_or(xs.len() - 1);
    let beyond = xs.len() - 1;
    println!("Paper-shape checks:");
    println!(
        "  - working set fits ({}MB): std {:.3}ms vs cc {:.3}ms (cache stays out of the way)",
        xs[fits], std_rw[fits], cc_rw[fits]
    );
    println!(
        "  - fits compressed ({}MB): rw speedup {:.1}x, ro speedup {:.1}x (paper: large, up to ~10x)",
        xs[in_cache], spd_rw[in_cache], spd_ro[in_cache]
    );
    println!(
        "  - beyond compressed fit ({}MB): rw speedup {:.1}x, ro speedup {:.1}x (paper: smaller but > 1)",
        xs[beyond], spd_rw[beyond], spd_ro[beyond]
    );
    assert!(
        spd_rw[in_cache] > 3.0,
        "rw speedup in cache regime too small"
    );
    assert!(
        spd_ro[in_cache] > 2.0,
        "ro speedup in cache regime too small"
    );
    assert!(
        spd_rw[beyond] > 1.0,
        "cc must still win beyond the fit point"
    );
    assert!(
        std_rw[beyond] > std_ro[beyond],
        "std_rw must be the slowest configuration"
    );
    println!("  OK.");
}
