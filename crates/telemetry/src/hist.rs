//! Lock-free latency histograms.
//!
//! An [`AtomicHistogram`] is the wait-free mirror of
//! [`cc_util::Histogram`]: the same log2 + 8-linear-sub-buckets layout
//! (±12.5% resolution), but every bucket is an `AtomicU64` in a
//! fixed-size array, so recording from any thread is five relaxed RMWs
//! (bucket, count, sum, min, max) with no allocation and no lock. On
//! words every thread shares that is tens of nanoseconds — more than a
//! hot-tier hit can carry on every call, which is why the store's data
//! path records 1 operation in [`crate::LATENCY_SAMPLE_PERIOD`]
//! ([`crate::Telemetry::op_timer`]). Reading converts back into a plain
//! [`cc_util::Histogram`] (via `Histogram::from_raw`) for quantiles.

use cc_util::hist::{bucket_index, BUCKETS};
use cc_util::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size, allocation-free, thread-safe histogram of `u64` samples
/// (latencies in nanoseconds, byte counts, ...).
///
/// Concurrent `record`s never block; a concurrent snapshot may miss
/// in-flight samples but never tears an individual bucket.
pub struct AtomicHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    /// Trace id of the sample that set (or last matched) `max`.
    max_trace: AtomicU64,
    /// Reservoir of recent traced observations at or above the tail
    /// floor: `(value, trace_id)` pairs.
    tail: [TailSlot; TAIL_SLOTS],
    /// Values below this skip the reservoir; lazily refreshed to the
    /// current p99 on each `summary` call so the reservoir converges on
    /// genuine tail samples.
    tail_floor: AtomicU64,
}

/// Slots in the p99+ exemplar reservoir.
pub const TAIL_SLOTS: usize = 8;

#[derive(Default)]
struct TailSlot {
    value: AtomicU64,
    trace: AtomicU64,
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
            tail: Default::default(),
            tail_floor: AtomicU64::new(0),
        }
    }

    /// Record one sample. Wait-free: five relaxed RMWs, no allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_traced(v, 0);
    }

    /// Record one sample carrying a trace id (0 = untraced; identical
    /// cost to [`AtomicHistogram::record`]). Traced samples additionally
    /// maintain the max exemplar and, when at or above the tail floor,
    /// claim a reservoir slot. Exemplar pairs are written with two
    /// relaxed stores — a concurrent reader can observe a value with a
    /// neighbouring sample's trace id, which is acceptable for
    /// diagnostics and keeps the hot path lock-free.
    #[inline]
    pub fn record_traced(&self, v: u64, trace: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        let n = self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        let prev_max = self.max.fetch_max(v, Ordering::Relaxed);
        if trace != 0 {
            if v >= prev_max {
                self.max_trace.store(trace, Ordering::Relaxed);
            }
            if v >= self.tail_floor.load(Ordering::Relaxed) {
                let slot = &self.tail[n as usize % TAIL_SLOTS];
                slot.value.store(v, Ordering::Relaxed);
                slot.trace.store(trace, Ordering::Relaxed);
            }
        }
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Largest sample recorded so far (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Convert to a plain [`Histogram`] for quantile math. Taken with
    /// relaxed loads: concurrent writers may leave the copy a few
    /// samples behind, but no bucket is ever torn.
    pub fn to_histogram(&self) -> Histogram {
        let raw: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Derive the count from the copied buckets so count and buckets
        // agree exactly (quantile ranks index into these buckets).
        let count: u64 = raw.iter().sum();
        Histogram::from_raw(
            &raw,
            count,
            self.sum.load(Ordering::Relaxed) as u128,
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }

    /// The percentile summary exported in snapshots. Also refreshes the
    /// tail-exemplar floor to the current p99 so future reservoir
    /// entries stay in the tail.
    pub fn summary(&self) -> HistSummary {
        let mut s = HistSummary::from_histogram(&self.to_histogram());
        if s.count > 0 {
            self.tail_floor.store(s.p99, Ordering::Relaxed);
        }
        s.max_trace = self.max_trace.load(Ordering::Relaxed);
        for (dst, slot) in s.tail.iter_mut().zip(self.tail.iter()) {
            *dst = (
                slot.value.load(Ordering::Relaxed),
                slot.trace.load(Ordering::Relaxed),
            );
        }
        s
    }
}

/// Percentile summary of a histogram: what the JSON/Prometheus exporters
/// and the bench gates consume.
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
    /// Sum of all samples (saturating at `u64::MAX`).
    pub sum: u64,
    /// Trace id of the sample that set the max (0 = untraced).
    pub max_trace: u64,
    /// Tail-exemplar reservoir: `(value, trace_id)` pairs of recent
    /// traced p99+ observations; unused slots are `(0, 0)`.
    pub tail: [(u64, u64); TAIL_SLOTS],
}

impl HistSummary {
    /// Summarize a plain histogram (no exemplars — those live on the
    /// atomic side; see [`AtomicHistogram::summary`]).
    pub fn from_histogram(h: &Histogram) -> Self {
        HistSummary {
            count: h.count(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
            max: if h.count() == 0 { 0 } else { h.max() },
            mean: h.mean(),
            sum: u64::try_from(h.sum()).unwrap_or(u64::MAX),
            max_trace: 0,
            tail: [(0, 0); TAIL_SLOTS],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn matches_plain_histogram() {
        let a = AtomicHistogram::new();
        let mut p = Histogram::new();
        let mut rng = cc_util::SplitMix64::new(42);
        for _ in 0..20_000 {
            let v = rng.gen_range(5_000_000);
            a.record(v);
            p.record(v);
        }
        let snap = a.to_histogram();
        assert_eq!(snap.count(), p.count());
        assert_eq!(snap.sum(), p.sum());
        for &q in &[0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(snap.quantile(q), p.quantile(q), "q={q}");
        }
        let s = a.summary();
        assert_eq!(s.count, 20_000);
        assert_eq!(s.p50, p.quantile(0.5));
        assert_eq!(s.max, p.max());
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = AtomicHistogram::new().summary();
        assert_eq!(s, HistSummary::default());
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
        assert!(s.tail.iter().any(|&(v, t)| v >= 1_000 && t == 7));
        // summary() raised the floor to p99: a small traced sample now
        // stays out of the reservoir and off the max exemplar.
        let tail_before = s.tail;
        h.record_traced(1, 9);
        let s2 = h.summary();
        assert_eq!(s2.tail, tail_before);
        assert_eq!(s2.max_trace, 7);
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
        assert_eq!(h.count(), 40_000);
        let snap = h.to_histogram();
        assert_eq!(snap.count(), 40_000);
        assert_eq!(snap.max(), 7 * 1000 + 4999);
    }
}
