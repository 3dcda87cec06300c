//! Closed-form performance models behind Figure 1 of the paper.
//!
//! §3 models the benefit of compression analytically before any
//! implementation: *"Figure 1(a) graphs the speed of paging to and from
//! backing store in compressed format, as a function of compression
//! bandwidth (relative to the bandwidth of the backing store) and
//! compression ratio. Figure 1(b) shows the speedup of mean memory
//! reference time ... when pages are retained in memory, for an
//! application that sequentially accesses twice as many pages as fit in
//! memory, reading and writing one word per page."*
//!
//! Conventions (all from the figure's caption):
//!
//! - `r` — the compression **fraction**: bytes remaining after
//!   compression, `0 < r <= 1` (the paper plots "fraction of bytes left").
//! - `s` — compression speed relative to I/O bandwidth
//!   (`s = B_compress / B_io`).
//! - Decompression is twice as fast as compression ("as is roughly the
//!   case for algorithms such as LZRW1").
//!
//! All costs are normalized to the time to transfer one page to the
//! backing store (`T_io = 1`).

/// Speedup of paging when pages are *compressed en route to backing
/// store* (Figure 1a).
///
/// Baseline cycle: write a dirty page + read it back = `2`.
/// Compressed cycle: compress (`1/s`) + write `r` + read `r` +
/// decompress (`1/(2s)`).
///
/// # Examples
///
/// ```
/// use cc_sim::analytic::bandwidth_speedup;
/// // Fast compression (8x I/O speed) at 4:1 leaves mostly transfer time:
/// let s = bandwidth_speedup(0.25, 8.0);
/// assert!(s > 2.5 && s < 3.5);
/// // Incompressible data with slow compression is a slowdown:
/// assert!(bandwidth_speedup(1.0, 0.5) < 1.0);
/// ```
pub fn bandwidth_speedup(r: f64, s: f64) -> f64 {
    assert!(r > 0.0 && r <= 1.0, "compression fraction out of range");
    assert!(s > 0.0, "speed ratio must be positive");
    2.0 / (1.5 / s + 2.0 * r)
}

/// Speedup of mean memory reference time when compressed pages are
/// *retained in memory* (Figure 1b).
///
/// The workload cycles through twice as many pages as fit in memory,
/// touching one word per page, reading and writing — under LRU every
/// access faults.
///
/// - Baseline: each fault writes one page and reads one page: `2`.
/// - With the cache and `r <= 1/2`, every page fits in memory compressed:
///   each fault costs a decompression plus a victim compression,
///   `1.5 / s`, so the speedup `(4/3) s` is *"linear in the speed of
///   compression"*.
/// - With `r > 1/2` a fraction `f = 1 - 1/(2r)` of faults must also move
///   a compressed page to and from the backing store (`2r` each).
pub fn reference_speedup(r: f64, s: f64) -> f64 {
    assert!(r > 0.0 && r <= 1.0, "compression fraction out of range");
    assert!(s > 0.0, "speed ratio must be positive");
    let disk_fraction = if r <= 0.5 { 0.0 } else { 1.0 - 1.0 / (2.0 * r) };
    2.0 / (1.5 / s + disk_fraction * 2.0 * r)
}

/// The paper's three shading regions in Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// Speedup beyond the plotted scale ("the dark black areas at the top
    /// left show speedups that go off the top of the scale (6-fold
    /// improvement)").
    OffScale,
    /// Speedup between 1 and 6.
    Speedup,
    /// "the darker areas to the right show data points at which a
    /// slowdown would result".
    Slowdown,
}

impl Region {
    /// Classify a speedup value.
    pub fn classify(speedup: f64) -> Region {
        if speedup >= 6.0 {
            Region::OffScale
        } else if speedup >= 1.0 {
            Region::Speedup
        } else {
            Region::Slowdown
        }
    }
}

/// Axis of compression fractions used by the figure harnesses
/// (`n` points from `lo` to `hi`, linear).
pub fn ratio_axis(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && lo > 0.0 && hi <= 1.0 && lo < hi);
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// Axis of speed ratios (`n` points from `lo` to `hi`, logarithmic —
/// compression-vs-I/O spans orders of magnitude).
pub fn speed_axis(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    assert!(n >= 2 && lo > 0.0 && lo < hi);
    let llo = lo.ln();
    let lhi = hi.ln();
    (0..n)
        .map(|i| (llo + (lhi - llo) * i as f64 / (n - 1) as f64).exp())
        .collect()
}

/// Evaluate a model over a speed × ratio grid; `grid[i][j]` is speeds
/// row `i` (descending, so faster compression is at the top like the
/// figure) and ratio column `j`.
pub fn grid(model: fn(f64, f64) -> f64, ratios: &[f64], speeds: &[f64]) -> Vec<Vec<f64>> {
    let mut speeds_desc: Vec<f64> = speeds.to_vec();
    speeds_desc.sort_by(|a, b| b.partial_cmp(a).unwrap());
    speeds_desc
        .iter()
        .map(|&s| ratios.iter().map(|&r| model(r, s)).collect())
        .collect()
}

/// Break-even compression fraction for Figure 1(a): the `r` at which
/// compressed paging exactly matches plain paging for a given `s`.
/// Solving `2 = 1.5/s + 2r` gives `r* = 1 - 0.75/s` (clamped to the valid
/// range; `None` when even `r -> 0` cannot break even, i.e. `s < 0.75`).
pub fn bandwidth_breakeven_ratio(s: f64) -> Option<f64> {
    let r = 1.0 - 0.75 / s;
    (r > 0.0).then_some(r.min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_speedup_monotone_in_both_axes() {
        let mut prev = f64::INFINITY;
        for r in [0.1, 0.3, 0.5, 0.8, 1.0] {
            let v = bandwidth_speedup(r, 4.0);
            assert!(v < prev, "not decreasing in r");
            prev = v;
        }
        let mut prev = 0.0;
        for s in [0.5, 1.0, 2.0, 8.0, 64.0] {
            let v = bandwidth_speedup(0.5, s);
            assert!(v > prev, "not increasing in s");
            prev = v;
        }
    }

    #[test]
    fn bandwidth_speedup_asymptotes() {
        // Infinitely fast compression: speedup -> 1/r.
        assert!((bandwidth_speedup(0.25, 1e9) - 4.0).abs() < 1e-3);
        // r = 1 and infinitely fast compression: no benefit, no harm.
        assert!((bandwidth_speedup(1.0, 1e9) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn reference_speedup_linear_below_half() {
        // Below r = 1/2 the speedup is (4/3)s regardless of r.
        for s in [0.5, 1.0, 3.0, 10.0] {
            for r in [0.1, 0.25, 0.4, 0.5] {
                let v = reference_speedup(r, s);
                assert!((v - 4.0 * s / 3.0).abs() < 1e-9, "r={r} s={s}: {v}");
            }
        }
    }

    #[test]
    fn reference_speedup_leap_at_half() {
        // Crossing r = 1/2 turns on disk traffic: speedup drops steeply
        // for fast compression (the "sharp leap" of §3).
        let fast = 10.0;
        let below = reference_speedup(0.5, fast);
        let above = reference_speedup(0.6, fast);
        assert!(below > 2.0 * above, "no leap: {below} vs {above}");
    }

    #[test]
    fn reference_beats_bandwidth_when_everything_fits() {
        // Keeping pages in memory dominates compress-to-disk whenever the
        // working set fits compressed (the paper's core argument).
        for s in [1.0, 2.0, 8.0] {
            for r in [0.2, 0.35, 0.5] {
                assert!(
                    reference_speedup(r, s) > bandwidth_speedup(r, s),
                    "r={r} s={s}"
                );
            }
        }
    }

    #[test]
    fn regions_classify() {
        assert_eq!(Region::classify(7.0), Region::OffScale);
        assert_eq!(Region::classify(6.0), Region::OffScale);
        assert_eq!(Region::classify(3.0), Region::Speedup);
        assert_eq!(Region::classify(1.0), Region::Speedup);
        assert_eq!(Region::classify(0.99), Region::Slowdown);
    }

    #[test]
    fn figure_regions_appear_in_expected_corners() {
        // Top-left (fast compression, good ratio) must be off-scale;
        // right (poor ratio, slow compression) must be a slowdown.
        let ratios = ratio_axis(0.05, 1.0, 20);
        let speeds = speed_axis(0.25, 16.0, 20);
        let g = grid(reference_speedup, &ratios, &speeds);
        assert_eq!(Region::classify(g[0][0]), Region::OffScale);
        let last_row = g.len() - 1;
        let last_col = g[0].len() - 1;
        assert_eq!(Region::classify(g[last_row][last_col]), Region::Slowdown);
        // Monotone rows: moving right (worse ratio) never helps.
        for row in &g {
            for w in row.windows(2) {
                assert!(w[0] >= w[1] - 1e-12);
            }
        }
    }

    #[test]
    fn breakeven_matches_model() {
        for s in [1.0, 2.0, 4.0, 16.0] {
            let r = bandwidth_breakeven_ratio(s).unwrap();
            if r < 1.0 {
                let v = bandwidth_speedup(r, s);
                assert!((v - 1.0).abs() < 1e-9, "s={s}: speedup at breakeven {v}");
            }
        }
        assert_eq!(bandwidth_breakeven_ratio(0.5), None);
        assert_eq!(bandwidth_breakeven_ratio(0.75), None);
    }

    #[test]
    fn axes_are_well_formed() {
        let r = ratio_axis(0.05, 1.0, 10);
        assert_eq!(r.len(), 10);
        assert!((r[0] - 0.05).abs() < 1e-12 && (r[9] - 1.0).abs() < 1e-12);
        let s = speed_axis(0.25, 16.0, 7);
        assert_eq!(s.len(), 7);
        assert!((s[0] - 0.25).abs() < 1e-9 && (s[6] - 16.0).abs() < 1e-6);
        // Log spacing: constant multiplicative step.
        let step0 = s[1] / s[0];
        let step5 = s[6] / s[5];
        assert!((step0 - step5).abs() < 1e-9);
    }
}
