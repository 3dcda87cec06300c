//! Lock-free latency histograms, and the workspace's one bucket scheme.
//!
//! Buckets are HdrHistogram-style: a power of two split into 8 linear
//! sub-buckets (±12.5% resolution), with values below 16 kept exact.
//! An [`AtomicHistogram`] holds one `AtomicU64` per bucket in a
//! fixed-size array, so recording from any thread is five relaxed RMWs
//! (bucket, count, sum, min, max) with no allocation and no lock. On
//! words every thread shares that is tens of nanoseconds — more than a
//! hot-tier hit can carry on every call, which is why the store's data
//! path records 1 operation in [`crate::LATENCY_SAMPLE_PERIOD`]
//! ([`crate::Telemetry::op_timer`]). Reading copies the buckets once and
//! computes the percentiles from the copy ([`AtomicHistogram::summary`]).

use std::sync::atomic::{AtomicU64, Ordering};

const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS;
/// Buckets in the scheme: 8 per power of two, plus one.
const BUCKETS: usize = 64 * SUB + 1;

/// Bucket of a sample: `8 * floor(log2(v))` plus the 3 bits below the
/// leading one; values below 16 are their own bucket.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        return 0;
    }
    let log = 63 - v.leading_zeros();
    if log <= SUB_BITS {
        return v as usize;
    }
    let sub = ((v >> (log - SUB_BITS)) & ((SUB as u64) - 1)) as usize;
    (log as usize) * SUB + sub
}

/// Smallest value of a bucket: the inverse of [`bucket_index`] up to
/// bucket resolution.
fn bucket_floor(idx: usize) -> u64 {
    // Values below 2^(SUB_BITS + 1) get exact buckets (index == value).
    if idx < (1 << (SUB_BITS + 1)) {
        return idx as u64;
    }
    let log = (idx / SUB) as u32;
    if log <= SUB_BITS {
        // Indexes 16..32 are never produced; clamp to the boundary so
        // the mapping stays monotone over every index.
        return 1 << (SUB_BITS + 1);
    }
    let sub = (idx % SUB) as u64;
    (1u64 << log) | (sub << (log - SUB_BITS))
}

/// A fixed-size, allocation-free, thread-safe histogram of `u64` samples
/// (latencies in nanoseconds, byte counts, ...).
///
/// Concurrent `record`s never block; a concurrent snapshot may miss
/// in-flight samples but never tears an individual bucket.
///
/// # Examples
///
/// ```
/// use cc_telemetry::AtomicHistogram;
///
/// let h = AtomicHistogram::new();
/// for v in [1, 2, 2, 3, 100] {
///     h.record(v);
/// }
/// let s = h.summary();
/// assert_eq!((s.count, s.sum, s.max), (5, 108, 100));
/// // A percentile is the floor of its sample's bucket: 100 is in [96, 104).
/// assert_eq!((s.p50, s.p90, s.p99), (2, 96, 96));
/// assert!((s.mean - 21.6).abs() < 1e-9);
/// ```
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Trace id of the sample that set (or last matched) `max`.
    max_trace: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Create an empty histogram (buckets allocated once, up front).
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            max_trace: AtomicU64::new(0),
        }
    }

    /// Record one sample. Wait-free: five relaxed RMWs, no allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_traced(v, 0);
    }

    /// Record one sample carrying a trace id (0 = untraced; identical
    /// cost to [`AtomicHistogram::record`]). Traced samples additionally
    /// maintain the max exemplar. The max and its trace id are written
    /// with two relaxed operations — a concurrent reader can observe the
    /// max with a neighbouring sample's trace id, which is acceptable
    /// for diagnostics and keeps the hot path lock-free.
    #[inline]
    pub fn record_traced(&self, v: u64, trace: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        let prev_max = self.max.fetch_max(v, Ordering::Relaxed);
        if trace != 0 && v >= prev_max {
            self.max_trace.store(trace, Ordering::Relaxed);
        }
    }

    /// The percentile summary exported in snapshots, computed from one
    /// relaxed copy of the buckets: concurrent writers may leave it a few
    /// samples behind, but no bucket is ever torn.
    pub fn summary(&self) -> HistSummary {
        let mut buckets = [0u64; BUCKETS];
        for (dst, b) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = b.load(Ordering::Relaxed);
        }
        // The count comes from the copied buckets, so every rank below
        // lands in them.
        let count: u64 = buckets.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        // The floor of the bucket holding the `ceil(q * count)`-th
        // smallest sample, clamped to the recorded range.
        let quantile = |q: f64| {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_floor(i).min(max).max(min);
                }
            }
            max
        };
        HistSummary {
            count,
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
            max: if count == 0 { 0 } else { max },
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            sum,
            max_trace: self.max_trace.load(Ordering::Relaxed),
        }
    }
}

/// Percentile summary of a histogram: what the Prometheus and text
/// exporters and the bench gates consume.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Median (lower bucket bound).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact largest sample.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sum of all samples (wrapping past `u64::MAX`).
    pub sum: u64,
    /// Trace id of the sample that set the max (0 = untraced).
    pub max_trace: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

    #[test]
    fn bucket_scheme_is_inverse_consistent() {
        for v in (0..64u32).map(|s| 1u64 << s).chain(0..256) {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS);
            let floor = bucket_floor(idx);
            assert!(floor <= v, "floor({idx}) = {floor} > {v}");
            // The next bucket's floor must be above the value.
            if idx + 1 < BUCKETS {
                assert!(bucket_floor(idx + 1) > v, "v={v} idx={idx}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Against a sorted copy: `p_q` is the floor of the bucket of the
        /// `ceil(q * n)`-th smallest value, clamped to `[min, max]`.
        #[test]
        fn summary_matches_sorted_reference(
            values in proptest::collection::vec(any::<u64>().prop_map(|v| v >> (v % 64)), 1..400),
        ) {
            let h = AtomicHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
            let reference = |q: f64| {
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
                bucket_floor(bucket_index(sorted[rank - 1])).min(max).max(min)
            };
            let s = h.summary();
            prop_assert_eq!(s.count, sorted.len() as u64);
            prop_assert_eq!((s.p50, s.p90, s.p99), (reference(0.50), reference(0.90), reference(0.99)));
            prop_assert_eq!(s.max, max);
        }
    }

    /// Every exported field for a fixed stream spanning 48 powers of two,
    /// pinned: a change to the bucket scheme or to the percentile
    /// arithmetic would move the percentiles every exporter prints.
    #[test]
    fn summary_golden_for_a_fixed_stream() {
        let h = AtomicHistogram::new();
        let mut rng = cc_util::SplitMix64::new(7);
        for _ in 0..10_000 {
            h.record(rng.next_u64() >> (16 + rng.gen_range(48)));
        }
        let s = h.summary();
        assert_eq!(
            (s.count, s.p50, s.p90),
            (10_000, 9_437_184, 4_123_168_604_160)
        );
        assert_eq!((s.p99, s.max), (140_737_488_355_328, 279_903_178_804_117));
        assert_eq!(s.sum, 55_139_262_043_749_113);
        assert_eq!(s.mean, 5_513_926_204_374.911);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = AtomicHistogram::new().summary();
        assert_eq!(s, HistSummary::default());
    }

    /// After summarising an empty histogram, the first traced sample,
    /// however small, is the max and its exemplar.
    #[test]
    fn empty_histogram() {
        let h = AtomicHistogram::new();
        h.summary();
        h.record_traced(1, 5);
        let s = h.summary();
        assert_eq!((s.count, s.p50, s.max, s.max_trace), (1, 1, 1, 5));
    }

    #[test]
    fn small_values_are_exact() {
        let h = AtomicHistogram::new();
        for v in 0..=8u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!((s.count, s.sum, s.max), (9, 36, 8));
        assert_eq!((s.p50, s.p90, s.p99), (4, 8, 8));
        assert_eq!(s.mean, 4.0);
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = AtomicHistogram::new();
        let mut rng = cc_util::SplitMix64::new(11);
        for _ in 0..10_000 {
            h.record(rng.gen_range(1_000_000));
        }
        let s = h.summary();
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max, "{s:?}");
        // Median of uniform [0, 1e6) should be in the right ballpark
        // (log buckets give ±12.5% resolution).
        assert!((350_000..650_000).contains(&s.p50), "median {}", s.p50);
    }

    #[test]
    fn large_values_do_not_panic() {
        let h = AtomicHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        let s = h.summary();
        assert_eq!((s.count, s.max), (2, u64::MAX));
        assert!(s.p50 <= s.p99);
        // The sum wraps rather than saturating or panicking.
        assert_eq!(s.sum, (u64::MAX / 2).wrapping_add(u64::MAX));
    }

    #[test]
    fn exemplars_track_max_and_tail() {
        let h = AtomicHistogram::new();
        for i in 0..100u64 {
            h.record(i); // untraced: never touches exemplars
        }
        h.record_traced(1_000, 7);
        let s = h.summary();
        assert_eq!(s.max, 1_000);
        assert_eq!(s.max_trace, 7);
        // A small traced sample stays off the max exemplar.
        h.record_traced(1, 9);
        assert_eq!(h.summary().max_trace, 7);
        // A new traced max replaces the exemplar.
        h.record_traced(2_000, 11);
        assert_eq!(h.summary().max_trace, 11);
    }

    #[test]
    fn concurrent_records_count_exactly() {
        let h = Arc::new(AtomicHistogram::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    h.record(t * 1000 + i);
                }
            }));
        }
        for th in handles {
            th.join().unwrap();
        }
        let s = h.summary();
        assert_eq!(s.count, 40_000);
        assert_eq!(s.max, 7 * 1000 + 4999);
        let sum: u64 = (0..8u64)
            .flat_map(|t| (0..5_000u64).map(move |i| t * 1000 + i))
            .sum();
        assert_eq!(s.sum, sum);
    }
}
