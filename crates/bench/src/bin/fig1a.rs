//! Figure 1(a): analytic speedup of paging *compressed pages to backing
//! store*, over the (compression ratio, compression-speed-vs-I/O) plane.
//!
//! The paper shades three regions: off-scale (>6x), 1-6x speedup, and
//! slowdown. This harness prints the surface as a table, the paper's
//! three-region shading as an ASCII heatmap, and the break-even frontier.

use cc_bench::plot;
use cc_sim::analytic::{
    bandwidth_breakeven_ratio, bandwidth_speedup, grid, ratio_axis, speed_axis,
};

fn main() {
    println!("== Figure 1(a): bandwidth speedup, compress-to-backing-store ==");
    println!("   (decompression assumed 2x the speed of compression, as for LZRW1)\n");

    let ratios = ratio_axis(0.05, 1.0, 20);
    let speeds = speed_axis(0.25, 16.0, 13);
    let g = grid(bandwidth_speedup, &ratios, &speeds);

    // Numeric table: rows = speed (descending), columns = ratio.
    print!("{:>8} |", "s\\r");
    for r in &ratios {
        print!("{r:>6.2}");
    }
    println!();
    println!("{}", "-".repeat(10 + ratios.len() * 6));
    let mut speeds_desc = speeds.clone();
    speeds_desc.sort_by(|a, b| b.partial_cmp(a).unwrap());
    for (i, s) in speeds_desc.iter().enumerate() {
        print!("{s:>8.2} |");
        for v in &g[i] {
            print!("{v:>6.2}");
        }
        println!();
    }

    println!();
    println!(
        "{}",
        plot::heatmap(
            "Regions ('#' off-scale >6x, '.' speedup 1-6x, ' ' slowdown); x: ratio 0.05..1, y: speed 16..0.25 top-down",
            &g,
            &[(1.0, '.'), (6.0, '#')],
            ' ',
        )
    );

    println!("Break-even compression fraction r* (paging with compression matches without):");
    for s in [0.5, 0.75, 1.0, 2.0, 4.0, 8.0, 16.0] {
        match bandwidth_breakeven_ratio(s) {
            Some(r) => println!("  s = {s:>5.2}  ->  r* = {r:.3}"),
            None => println!("  s = {s:>5.2}  ->  never breaks even (compression too slow)"),
        }
    }

    println!("\nPaper-shape checks:");
    let top_left = bandwidth_speedup(0.05, 16.0);
    let bottom_right = bandwidth_speedup(1.0, 0.25);
    println!("  top-left (r=0.05, s=16): {top_left:.2}x  (paper: off-scale, >6)");
    println!("  bottom-right (r=1.0, s=0.25): {bottom_right:.2}x (paper: slowdown, <1)");
    assert!(top_left > 6.0 && bottom_right < 1.0);
    println!("  OK: regions match the paper's shading.");
}
