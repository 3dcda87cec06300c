//! Figure 1(b): analytic speedup of *mean memory reference time* when
//! compressed pages are retained in memory, for an application that
//! sequentially cycles through twice as many pages as fit in memory,
//! touching one word per page.
//!
//! The paper's key features of this surface, checked here:
//! - below r = 1/2 everything fits compressed, and the speedup is
//!   *linear in the speed of compression* ((4/3)s);
//! - crossing r = 1/2 produces the "sharp leap" down as disk I/O turns on.

use cc_bench::plot;
use cc_sim::analytic::{grid, ratio_axis, reference_speedup, speed_axis};

fn main() {
    println!("== Figure 1(b): reference-time speedup, compressed pages kept in memory ==\n");

    let ratios = ratio_axis(0.05, 1.0, 20);
    let speeds = speed_axis(0.25, 16.0, 13);
    let g = grid(reference_speedup, &ratios, &speeds);

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

    println!("Paper-shape checks:");
    for s in [1.0, 3.0, 8.0] {
        let below = reference_speedup(0.45, s);
        let linear = 4.0 * s / 3.0;
        println!(
            "  s = {s:>4.1}: speedup at r<=1/2 is {below:.2} (linear law (4/3)s = {linear:.2})"
        );
        assert!((below - linear).abs() < 1e-9);
    }
    let before = reference_speedup(0.5, 8.0);
    let after = reference_speedup(0.6, 8.0);
    println!(
        "  sharp leap at r=1/2 (s=8): {before:.2} -> {after:.2} ({}% drop)",
        (100.0 * (before - after) / before).round()
    );
    assert!(before > 2.0 * after);
    println!("  OK: plateau is linear in s; leap at r = 1/2 present.");
}
