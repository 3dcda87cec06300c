//! Low-overhead telemetry for the compression-cache workspace.
//!
//! Douglis's evaluation hinges on measured internals — compression
//! ratios, cleaner activity, page-in/page-out latencies (Tables 2/3) —
//! and the software-defined compressed tiers descended from the paper
//! (zswap and friends) are tuned entirely from continuously exported
//! tier-split telemetry. This crate is that layer for the workspace:
//!
//! - [`CounterBank`] — striped, cache-padded monotonic counters. One
//!   relaxed `fetch_add` per increment, per-field-exact aggregation on
//!   read (no more lock-and-copy stats structs).
//! - [`AtomicHistogram`] — the workspace's one histogram type:
//!   fixed-size, log-bucketed, recording wait-free and allocation-free;
//!   reading yields p50/p90/p99/max. Its module owns the bucket scheme.
//! - [`names!`] — declares a name table (counters or timed ops): one
//!   `name => CONST` line per entry gives both the index constant and
//!   its slot in `NAMES`.
//! - [`Snapshot`] — aggregate everything on demand and render it as
//!   Prometheus text or an aligned table.
//! - [`Tracer`] — sampled request spans and the flight recorder: the
//!   history behind the counts, dumped on an anomaly or on demand.
//! - [`OpTimer`] — one operation's timing decision, start stamp and
//!   span, carried down its steps.
//!
//! The [`Telemetry`] facade bundles a counter bank and one histogram
//! per operation behind a single handle. Its hot-path costs: a counter
//! bump is one uncontended atomic add on a private cache line; a
//! histogram record is five RMWs (bucket, count, sum, min, max) on
//! words every thread shares, and a timed operation reads the clock
//! twice — together ~130 ns a call when paid on every call (ccbench's
//! `store.telemetry_overhead_ns_per_op` on `store_hot_read`), as much
//! as the hot-tier hit they were measuring.
//! So a data-path operation asks once whether it is timed at all
//! ([`Telemetry::start_op`], by [`Telemetry::op_timer`]'s rule): 1 in
//! [`LATENCY_SAMPLE_PERIOD`] by a hash of its operation stamp, traced
//! requests always, and the other fifteen read no clock and write no
//! histogram. Counters are never sampled. What
//! sampling gives up: a sampled histogram's `count` is the number of
//! samples, not of operations (those are counters), and its `max` is
//! the largest sampled or traced latency, not the largest of all. [`Telemetry::record`] itself records every call it is given
//! — background threads, the simulator's virtual-time histograms and
//! the server's per-request histograms are not sampled. The server
//! crate's release-only timed gates (`crates/server/tests/timed_gates.rs`)
//! measure the end-to-end overhead on the store's mixed zipfian workload
//! and fail the build if instrumentation costs more than 5%.

#![warn(missing_docs)]

pub mod counters;
pub mod hist;
pub mod op;
pub mod snapshot;
pub mod trace;

pub use counters::CounterBank;
pub use hist::{AtomicHistogram, HistSummary};
pub use op::OpTimer;
pub use snapshot::Snapshot;
pub use trace::{AnomalyKind, DumpSink, Span, SpanRing, SpanTag, TraceCtx, Tracer, TracerBuilder};

use std::time::{Instant, SystemTime};

/// Static description of what a [`Telemetry`] instance tracks: the
/// counter and operation (latency histogram) name tables. Indices into
/// these slices are the handles the instrumented code uses.
#[derive(Debug, Clone, Copy)]
pub struct TelemetrySpec {
    /// Monotonic counter names.
    pub counters: &'static [&'static str],
    /// Timed-operation names (one latency histogram each).
    pub ops: &'static [&'static str],
}

/// Declares one name table of a [`TelemetrySpec`] — its counters or
/// timed operations — one line per entry.
///
/// Each `name => CONST` entry, with the doc comments above it, becomes
/// `pub const CONST: usize`, numbered from 0 in declaration order, and
/// `pub const NAMES` lists every `name` at its constant's index. Invoke
/// it inside the module that holds the table:
///
/// ```
/// mod wire {
///     cc_telemetry::names! {
///         /// Requests served.
///         requests => REQUESTS,
///         polls => POLLS,
///     }
/// }
/// assert_eq!((wire::REQUESTS, wire::POLLS), (0, 1));
/// assert_eq!(wire::NAMES, ["requests", "polls"]);
/// ```
#[macro_export]
macro_rules! names {
    ($($(#[$attr:meta])* $name:ident => $index:ident),+ $(,)?) => {
        $crate::names!(@index 0; $($(#[$attr])* $index)+);
        /// The entries' names, index-aligned with the constants above.
        pub const NAMES: &[&str] = &[$(stringify!($name)),+];
    };
    (@index $i:expr; $(#[$attr:meta])* $index:ident $($rest:tt)*) => {
        $(#[$attr])*
        pub const $index: usize = $i;
        $crate::names!(@index $i + 1; $($rest)*);
    };
    (@index $i:expr;) => {};
}

/// A foreground operation is timed 1 time in this many (see
/// [`Telemetry::op_timer`]). A power of two: the decision is a multiply
/// and a shift. Exported beside the histograms it thins as the
/// `latency_sample_period` gauge ([`Snapshot::sampled`]).
pub const LATENCY_SAMPLE_PERIOD: u64 = 16;

/// Whether the operation that drew `stamp` — any per-operation unique
/// number, e.g. a generation clock — is one of the 1 in
/// [`LATENCY_SAMPLE_PERIOD`] whose latency is recorded.
///
/// The decision is a multiplicative (Fibonacci) hash of the stamp, not
/// `stamp % period`: callers time their own operations on a stride
/// (ccbench's driver reads the clock around every 8th), and a strided
/// sampler would land on always or never the operations such a caller
/// times, so its latencies would describe only timed or only untimed
/// calls. The hash picks 0.90–1.07 sixteenths of any 4096 stamps in
/// arithmetic progression with stride up to 64 (the test below holds
/// it to between 1/32 and 1/8), and never leaves more than 21
/// consecutive stamps unpicked.
#[inline]
fn stamp_sampled(stamp: u64) -> bool {
    const SHIFT: u32 = 64 - LATENCY_SAMPLE_PERIOD.trailing_zeros();
    stamp.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> SHIFT == 0
}

/// One telemetry instance: a counter bank and a latency histogram per
/// operation.
///
/// Counters are always live (they are the system's statistics of
/// record). Latency timing can be disabled at construction
/// ([`Telemetry::new`]'s `timing`); instrumented code takes its clock
/// reads from [`Telemetry::op_timer`], so a disabled instance costs
/// nothing but the counter adds.
pub struct Telemetry {
    spec: TelemetrySpec,
    timing: bool,
    counters: CounterBank,
    ops: Box<[AtomicHistogram]>,
    started: Instant,
}

impl Telemetry {
    /// Create an instance with `stripes` counter stripes (typically the
    /// shard count), choosing whether latency timing starts enabled.
    pub fn new(spec: TelemetrySpec, stripes: usize, timing: bool) -> Self {
        Telemetry {
            spec,
            timing,
            counters: CounterBank::new(stripes, spec.counters),
            ops: (0..spec.ops.len())
                .map(|_| AtomicHistogram::new())
                .collect(),
            started: Instant::now(),
        }
    }

    /// The one timing decision of a foreground operation: the start
    /// instant if this operation is timed, `None` — and no clock read —
    /// if it is not. An operation is timed iff timing is enabled and it
    /// is either `forced` (a traced request: always timed, so the `max`
    /// exemplar keeps resolving to a span tree) or one of the
    /// 1 in [`LATENCY_SAMPLE_PERIOD`] picked by a multiplicative hash of
    /// its `stamp` — any number unique to the operation, e.g. a
    /// generation clock. Hashed, not `stamp % period`, so that a caller
    /// timing its own calls on a stride sees the same mix of timed and
    /// untimed operations as everyone else. [`Telemetry::start_op`] makes
    /// this decision for an [`OpTimer`], which carries it down to every
    /// sub-step (codec, spill read, promotion); nothing below decides
    /// again.
    #[inline]
    pub fn op_timer(&self, stamp: u64, forced: bool) -> Option<Instant> {
        (self.timing && (forced || stamp_sampled(stamp))).then(Instant::now)
    }

    /// Record the time since `t0` on `op` if the operation was timed
    /// (`t0` from [`Telemetry::op_timer`]), tagged with the request's
    /// trace id (0 = untraced).
    #[inline]
    pub fn record_since(&self, op: usize, t0: Option<Instant>, trace: u64) {
        if let Some(t0) = t0 {
            self.record_traced(op, t0.elapsed().as_nanos() as u64, trace);
        }
    }

    /// Bump `counter` by `n` on `stripe`. Always live.
    #[inline]
    pub fn count(&self, stripe: usize, counter: usize, n: u64) {
        self.counters.add(stripe, counter, n);
    }

    /// Aggregated sum of `counter` across stripes.
    pub fn counter_sum(&self, counter: usize) -> u64 {
        self.counters.sum(counter)
    }

    /// Record a latency sample (nanoseconds) for `op`.
    #[inline]
    pub fn record(&self, op: usize, ns: u64) {
        self.ops[op].record(ns);
    }

    /// Record a latency sample for `op` carrying a trace id (0 =
    /// untraced) so the histogram can keep its max exemplar; see
    /// [`AtomicHistogram::record_traced`].
    #[inline]
    pub fn record_traced(&self, op: usize, ns: u64, trace: u64) {
        self.ops[op].record_traced(ns, trace);
    }

    /// Seconds since this instance was created.
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Percentile summary of `op`'s histogram.
    pub fn op_summary(&self, op: usize) -> HistSummary {
        self.ops[op].summary()
    }

    /// Take a snapshot: counter sums and op summaries. Starts with an `uptime_seconds` gauge and the wall-clock
    /// timestamp; further gauges are appended by the caller via
    /// [`Snapshot::gauge`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.sums(),
            gauges: vec![("uptime_seconds", self.uptime_seconds())],
            ops: self
                .spec
                .ops
                .iter()
                .enumerate()
                .map(|(i, &n)| (n, self.ops[i].summary()))
                .collect(),
            sampled_ops: Vec::new(),
            taken_unix_s: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
        }
    }
}

/// Unit tests; public in test builds so that `missing_docs` checks what
/// `names!` generates in `tests::table`.
#[cfg(test)]
pub mod tests {
    use super::*;

    const SPEC: TelemetrySpec = TelemetrySpec {
        counters: &["puts", "gets"],
        ops: &["put", "get"],
    };

    /// A table declared the way the store and server declare theirs. An
    /// undocumented constant here fails the build.
    #[deny(missing_docs)]
    pub mod table {
        crate::names! {
            /// First entry.
            alpha => ALPHA,
            /// Second entry.
            beta => BETA,
            /// Named apart from its constant, as `recovery_duration` is.
            gamma_delta => LAST,
        }
    }

    #[test]
    fn names_macro_numbers_entries_in_declaration_order() {
        assert_eq!([table::ALPHA, table::BETA, table::LAST], [0, 1, 2]);
        assert_eq!(table::NAMES, ["alpha", "beta", "gamma_delta"]);
    }

    #[test]
    fn end_to_end_snapshot() {
        let tel = Telemetry::new(SPEC, 4, true);
        assert!(tel.op_timer(0, true).is_some());
        tel.count(0, 0, 3);
        tel.count(3, 1, 2);
        tel.record(0, 150);
        tel.record(0, 250);
        tel.record(1, 50);
        let snap = tel.snapshot().gauge("resident_bytes", 999);
        assert_eq!(snap.counter("puts"), Some(3));
        assert_eq!(snap.counter("gets"), Some(2));
        assert_eq!(snap.op("put").unwrap().count, 2);
        assert_eq!(snap.op("get").unwrap().max, 50);
        assert_eq!(snap.gauges[0].0, "uptime_seconds");
        assert_eq!(snap.gauges.last(), Some(&("resident_bytes", 999)));
        assert!(snap.taken_unix_s > 0);
    }

    #[test]
    fn disabled_timing_flag() {
        let tel = Telemetry::new(SPEC, 1, false);
        assert!(tel.op_timer(0, true).is_none());
        // Counters still work; that is the contract.
        tel.count(0, 0, 1);
        assert_eq!(tel.counter_sum(0), 1);
    }

    #[test]
    fn sampler_picks_one_in_sixteen_of_consecutive_stamps() {
        let n = 1u64 << 16;
        let picks: Vec<u64> = (0..n).filter(|&s| stamp_sampled(s)).collect();
        let want = (n / LATENCY_SAMPLE_PERIOD) as f64;
        let picked = picks.len() as f64;
        assert!((picked - want).abs() <= want * 0.10, "{picked} of {n}");
        // And evenly: a rotation by the golden ratio revisits an interval
        // at no more than three distinct gaps.
        let longest = picks.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(longest <= 21, "{longest} consecutive stamps unpicked");
    }

    /// A caller that times its own operations on a stride must see the
    /// sampler's share, not all or nothing. ccbench is the case in
    /// point: its driver reads the clock around every 8th operation
    /// (`benchmark/src/driver.rs`, `LAT_EVERY`), so a `stamp % 16`
    /// sampler would time either half of those or none of them.
    #[test]
    fn sampler_is_not_periodic_in_the_stamp() {
        for stride in 1..=64u64 {
            for offset in 0..stride {
                let picked = (0..4096u64)
                    .filter(|&i| stamp_sampled(offset + i * stride))
                    .count();
                assert!(
                    (4096 / 32..=4096 / 8).contains(&picked),
                    "stride {stride} offset {offset}: {picked} of 4096"
                );
            }
        }
    }

    #[test]
    fn forced_ops_are_always_timed_and_nothing_is_when_disabled() {
        let on = Telemetry::new(SPEC, 1, true);
        let off = Telemetry::new(SPEC, 1, false);
        let mut unforced = 0;
        for stamp in 0..1024u64 {
            assert!(on.op_timer(stamp, true).is_some(), "stamp {stamp}");
            assert_eq!(on.op_timer(stamp, false).is_some(), stamp_sampled(stamp));
            unforced += on.op_timer(stamp, false).is_some() as u32;
            assert!(off.op_timer(stamp, true).is_none());
            assert!(off.op_timer(stamp, false).is_none());
        }
        assert!(unforced > 0 && unforced < 1024 / 8, "{unforced}");
        // An untimed op records nothing; a timed one records once.
        on.record_since(0, None, 0);
        assert_eq!(on.op_summary(0).count, 0);
        on.record_since(0, on.op_timer(0, true), 9);
        let s = on.op_summary(0);
        assert_eq!((s.count, s.max_trace), (1, 9));
    }

    /// What sampling keeps: the shape. A histogram fed every latency and
    /// one fed the sampler's pick of the same stream agree on every
    /// exported percentile to within one (12.5 %) bucket.
    #[test]
    fn sampled_histogram_keeps_the_percentiles() {
        let tel = Telemetry::new(SPEC, 1, true);
        let (all, picked) = (0, 1);
        let mut rng = cc_util::SplitMix64::new(19);
        for stamp in 0..100_000u64 {
            // Log-uniform over 128 ns .. 8 µs, with one op in 64 a
            // further 16x slower: a hit path with a tail.
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let mut ns = (128.0 * (6.0 * u).exp2()) as u64;
            if rng.gen_range(64) == 0 {
                ns *= 16;
            }
            tel.record(all, ns);
            if stamp_sampled(stamp) {
                tel.record(picked, ns);
            }
        }
        let (a, p) = (tel.op_summary(all), tel.op_summary(picked));
        assert_eq!(a.count, 100_000);
        let want = 100_000 / LATENCY_SAMPLE_PERIOD;
        assert!(p.count.abs_diff(want) <= want / 10, "{}", p.count);
        for (name, full, sampled) in [
            ("p50", a.p50, p.p50),
            ("p90", a.p90, p.p90),
            ("p99", a.p99, p.p99),
        ] {
            let (bf, bs) = (hist::bucket_index(full), hist::bucket_index(sampled));
            assert!(bf.abs_diff(bs) <= 1, "{name}: {full} vs {sampled}");
        }
        assert!(p.max <= a.max);
    }
}
