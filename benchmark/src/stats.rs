//! Order statistics: percentiles of latency samples, the fast quantile
//! over a run's rounds, and the quartiles the A/A report is judged by.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u32], p: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of whole-nanosecond samples taken as grouped data: the samples
/// equal to the nearest-rank median `m` are spread evenly over
/// `[m - 0.5, m + 0.5)` and the half-way sample is read off that spread.
/// A 260 ns call timed in whole nanoseconds otherwise has a median that
/// moves in steps of 0.4 %; 0 when empty.
pub fn grouped_median(sorted: &[u32]) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let m = percentile(sorted, 50.0);
    let below = sorted.partition_point(|&s| s < m);
    let at = sorted.partition_point(|&s| s <= m) - below;
    m as f64 - 0.5 + (sorted.len() as f64 / 2.0 - below as f64) / at as f64
}

/// Summary of one round's sampled call times for one operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lat {
    pub n: u64,
    pub mean_ns: f64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    pub max_ns: f64,
}

impl Lat {
    /// Sorts `samples` in place.
    pub fn of(samples: &mut [u32]) -> Lat {
        if samples.is_empty() {
            return Lat::default();
        }
        samples.sort_unstable();
        let sum: u64 = samples.iter().map(|&s| s as u64).sum();
        Lat {
            n: samples.len() as u64,
            mean_ns: sum as f64 / samples.len() as f64,
            p50_ns: grouped_median(samples),
            p99_ns: percentile(samples, 99.0) as f64,
            max_ns: *samples.last().expect("non-empty") as f64,
        }
    }
}

/// How far in from the best end a run's value is read off its rounds: one
/// twentieth of the way, the 6th best of 100 rounds. On this host the
/// quartile of 13 long rounds moved 14-29 % run to run through a noisy
/// quarter of an hour, and the twentieth of 104 short ones 2-6 % (README,
/// "Evidence behind the method").
pub const FAST: usize = 20;

/// The value `1 / one_in` of the way in from the best end: with 4, the 3rd
/// best of 9 and the best of 3; with 20, the 6th best of 100. Interference
/// from the host only ever slows a round, so the fast end is the
/// repeatable one; a few steps in from the extreme keep a single lucky
/// round from setting the value.
pub fn fast_quantile(values: &[f64], better: Better, one_in: usize) -> f64 {
    assert!(!values.is_empty(), "fast quantile of no rounds");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    if better == Better::Higher {
        v.reverse();
    }
    v[v.len() / one_in]
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method); needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
    }

    #[test]
    fn grouped_median_reads_between_whole_nanoseconds() {
        // One sample at the median value: it spans [m - 0.5, m + 0.5) and
        // the half-way point of three samples is its middle.
        assert_eq!(grouped_median(&[1, 2, 3]), 2.0);
        // Half-way falls on the upper edge of the 2s.
        assert_eq!(grouped_median(&[1, 2, 3, 4]), 2.5);
        // Ten samples, three below 260 and four at it: half-way (the 5th)
        // is two of those four in.
        let v = [255, 257, 259, 260, 260, 260, 260, 262, 264, 270];
        assert_eq!(grouped_median(&v), 259.5 + 2.0 / 4.0);
        // One fewer below, one more at: half-way is three of five in.
        let w = [255, 257, 260, 260, 260, 260, 260, 262, 264, 270];
        assert_eq!(grouped_median(&w), 259.5 + 3.0 / 5.0);
        assert_eq!(grouped_median(&[7]), 7.0);
        assert_eq!(grouped_median(&[]), 0.0);
    }

    #[test]
    fn lat_summarises_unsorted_samples() {
        let mut s = vec![30, 10, 20, 40];
        let l = Lat::of(&mut s);
        assert_eq!(l.n, 4);
        assert_eq!(l.mean_ns, 25.0);
        assert_eq!(l.p50_ns, 20.5);
        assert_eq!(l.max_ns, 40.0);
        assert_eq!(Lat::of(&mut []).n, 0);
    }

    #[test]
    fn fast_quantile_counts_in_from_the_best_end() {
        let rounds = [5.0, 9.0, 1.0, 8.0, 3.0, 7.0, 2.0, 6.0, 4.0];
        assert_eq!(fast_quantile(&rounds, Better::Higher, 4), 7.0);
        assert_eq!(fast_quantile(&rounds, Better::Lower, 4), 3.0);
        assert_eq!(fast_quantile(&rounds[..5], Better::Higher, 4), 8.0);
        assert_eq!(fast_quantile(&rounds[..3], Better::Lower, 4), 1.0);
        assert_eq!(fast_quantile(&[4.0], Better::Lower, 4), 4.0);
        // The run's rule: 6th best of 100 rounds (the best, if a run is
        // cut to fewer than 20).
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(fast_quantile(&hundred, Better::Lower, FAST), 6.0);
        assert_eq!(fast_quantile(&hundred, Better::Higher, FAST), 95.0);
        assert_eq!(fast_quantile(&hundred[..13], Better::Lower, FAST), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2, 10, 7], n=4) == [1.5, 3.0, 8.5]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 10.0, 7.0]), (1.5, 8.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
