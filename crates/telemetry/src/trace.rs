//! Request tracing and the flight recorder.
//!
//! Aggregate telemetry (counters, histograms) answers "how is the
//! system doing on average" — it cannot explain a *single* slow or
//! wrong request. This module adds the per-request layer:
//!
//! - **Sampled traces.** A [`Tracer`] samples one request in N
//!   ([`TracerBuilder::sample_every`]) and hands the request a
//!   [`TraceCtx`] — a trace id plus the parent span id. Every
//!   instrumented stage (wire dispatch, store put/get, compression,
//!   spill queue + batch commit, spill read + CRC verify) allocates a
//!   span id, does its work, and records a fixed-size [`Span`] with its
//!   parent link, so one sampled request yields a complete causal span
//!   tree across threads — the spill writer inherits the ctx through
//!   the job queue and reports queue-wait and service time separately.
//! - **Flight recorder.** Spans land in per-stripe [`SpanRing`]s —
//!   bounded lock-free *overwrite* rings (newest always win, because a
//!   post-incident dump wants the most recent history). When an
//!   anomaly fires ([`Tracer::anomaly`]: corrupt extent, degraded-mode
//!   entry, a backpressure stall, a GC pause over threshold) the
//!   recorder renders the recent spans plus the last anomalies as JSON and
//!   writes them to the configured [`DumpSink`] — bounded by an
//!   auto-dump budget so an anomaly storm cannot fill a disk. The same
//!   JSON is available on demand via [`Tracer::dump_json`] (the
//!   server's `DUMP` opcode).
//!
//! Overhead: an unsampled request pays one relaxed `fetch_add` for the
//! sampling decision; a sampled one pays a clock read per step it spans
//! ([`crate::OpTimer`]) and one ring slot per span. The server crate's
//! release-only timed gates (`crates/server/tests/timed_gates.rs`) hold
//! the end-to-end cost at default sampling under 5%.

use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Span operation codes (the `op` field of a [`Span`]).
pub mod sop {
    /// A wire request (root span; `codec` holds the opcode, `arg` the
    /// connection id).
    pub const REQUEST: u8 = 1;
    /// Store put (`arg` = key).
    pub const STORE_PUT: u8 = 2;
    /// Store get (`arg` = key).
    pub const STORE_GET: u8 = 3;
    /// Codec probe + compression (`codec` = chosen codec id).
    pub const COMPRESS: u8 = 4;
    /// Spill batch write for one job (`queue_ns` = channel wait,
    /// `arg` = file offset, or the key if the batch failed).
    pub const SPILL_WRITE: u8 = 5;
    /// Spill read + CRC verify (`arg` = file offset).
    pub const SPILL_READ: u8 = 6;
    /// Spill-file GC pass (background; `arg` = bytes relocated).
    pub const GC: u8 = 7;
    /// Reply encode/flush for one response (`arg` = connection id).
    pub const REPLY_FLUSH: u8 = 8;
    /// A backpressure park interval on a connection (background;
    /// `arg` = connection id, `service_ns` = parked duration).
    pub const PARK: u8 = 9;
    /// Tier promotion: a warm or cold page decompressed back into the
    /// hot tier on re-access (`arg` = key, `tier` = source tier).
    pub const PROMOTE: u8 = 10;
    /// Background demoter sweep (background; `arg` = pages demoted).
    pub const DEMOTE: u8 = 11;
    /// Name table, index-aligned with the codes above.
    pub const NAMES: &[&str] = &[
        "?",
        "request",
        "store_put",
        "store_get",
        "compress",
        "spill_write",
        "spill_read",
        "gc",
        "reply_flush",
        "park",
        "promote",
        "demote",
    ];

    /// The printable name of an op code.
    pub fn name(op: u8) -> &'static str {
        NAMES.get(op as usize).copied().unwrap_or("?")
    }
}

/// Storage tier touched by a span (the `tier` field).
pub mod tier {
    /// No tier involved (or not applicable).
    pub const NONE: u8 = 0;
    /// Compressed-in-memory tier.
    pub const MEMORY: u8 = 1;
    /// Same-filled fast path (no bytes stored anywhere).
    pub const SAME_FILLED: u8 = 2;
    /// Spill-file tier.
    pub const SPILL: u8 = 3;
    /// Uncompressed-resident hot tier.
    pub const HOT: u8 = 4;
    /// Name table, index-aligned with the codes above.
    pub const NAMES: &[&str] = &["none", "memory", "same_filled", "spill", "hot"];

    /// The printable name of a tier code.
    pub fn name(t: u8) -> &'static str {
        NAMES.get(t as usize).copied().unwrap_or("?")
    }
}

/// The trace context a sampled request carries through the stack: its
/// trace id and the span id the next child span should use as parent.
/// `trace_id == 0` means "not sampled" — instrumentation is skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// The request's trace id (0 = unsampled).
    pub trace_id: u64,
    /// Span id of the enclosing span (0 at the root).
    pub parent_span: u32,
}

impl TraceCtx {
    /// The unsampled context: instrumentation no-ops on it.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        parent_span: 0,
    };

    /// Whether this request is being traced.
    #[inline]
    pub fn sampled(&self) -> bool {
        self.trace_id != 0
    }

    /// The context children of `span` should carry.
    pub fn child(&self, span: u32) -> TraceCtx {
        TraceCtx {
            trace_id: self.trace_id,
            parent_span: span,
        }
    }
}

/// One causal span record: what ran, where, under which trace, and how
/// long it queued vs. executed. Fixed-size; packs into
/// [`SPAN_WORDS`] `u64` words in the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Owning trace (0 = untraced background work, e.g. GC).
    pub trace_id: u64,
    /// This span's id (unique per tracer).
    pub span_id: u32,
    /// Parent span id (0 = root).
    pub parent: u32,
    /// Operation code ([`sop`]).
    pub op: u8,
    /// Storage tier touched ([`tier`]).
    pub tier: u8,
    /// Codec id involved (or, for [`sop::REQUEST`], the wire opcode).
    pub codec: u8,
    /// Outcome code (op-specific; 0 = ok).
    pub status: u8,
    /// Start time, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Time spent queued before service (spill jobs).
    pub queue_ns: u64,
    /// Service (execution) time.
    pub service_ns: u64,
    /// Op-specific argument: key, connection id, or file offset.
    pub arg: u64,
}

/// What a span reports besides its place in the trace and its timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanTag {
    /// Operation code ([`sop`]).
    pub op: u8,
    /// Storage tier touched ([`tier`]).
    pub tier: u8,
    /// Codec id involved (or, for [`sop::REQUEST`], the wire opcode).
    pub codec: u8,
    /// Outcome code (op-specific; 0 = ok).
    pub status: u8,
    /// Op-specific argument: key, connection id, or file offset.
    pub arg: u64,
}

/// `u64` words a packed span occupies in a ring slot.
pub const SPAN_WORDS: usize = 7;

impl Span {
    /// The span `span_id` of `tag` under `ctx` — its trace and parent
    /// span; [`TraceCtx::NONE`] for background work — that started
    /// `start_ns` after the tracer's epoch and ran `service_ns`. Every
    /// span the workspace records is built here (most through
    /// [`crate::OpTimer`]); a queued one then sets `queue_ns`.
    pub fn new(ctx: TraceCtx, span_id: u32, tag: SpanTag, start_ns: u64, service_ns: u64) -> Span {
        Span {
            trace_id: ctx.trace_id,
            span_id,
            parent: ctx.parent_span,
            op: tag.op,
            tier: tag.tier,
            codec: tag.codec,
            status: tag.status,
            start_ns,
            queue_ns: 0,
            service_ns,
            arg: tag.arg,
        }
    }

    fn pack(&self) -> [u64; SPAN_WORDS] {
        [
            self.trace_id,
            (self.span_id as u64) << 32 | self.parent as u64,
            self.op as u64
                | (self.tier as u64) << 8
                | (self.codec as u64) << 16
                | (self.status as u64) << 24,
            self.start_ns,
            self.queue_ns,
            self.service_ns,
            self.arg,
        ]
    }

    fn unpack(w: &[u64; SPAN_WORDS]) -> Span {
        Span {
            trace_id: w[0],
            span_id: (w[1] >> 32) as u32,
            parent: w[1] as u32,
            op: w[2] as u8,
            tier: (w[2] >> 8) as u8,
            codec: (w[2] >> 16) as u8,
            status: (w[2] >> 24) as u8,
            start_ns: w[3],
            queue_ns: w[4],
            service_ns: w[5],
            arg: w[6],
        }
    }
}

struct SpanSlot {
    /// Seqlock stamp: `2*pos + 1` while the writer of ring position
    /// `pos` is mid-write (odd), `2*pos + 2` once published (even).
    stamp: AtomicU64,
    words: [AtomicU64; SPAN_WORDS],
}

/// A bounded lock-free *overwrite* ring of spans.
///
/// Producers claim positions with one `fetch_add` and overwrite the
/// oldest slot — a flight recorder must keep the newest history. Each
/// slot carries a seqlock stamp so the (rare, dump-time) reader detects
/// and skips slots torn by a concurrent writer instead of blocking it.
pub struct SpanRing {
    slots: Box<[SpanSlot]>,
    head: AtomicU64,
}

impl SpanRing {
    /// Create a ring with at least `capacity` slots (rounded up to a
    /// power of two, minimum 2).
    pub fn new(capacity: usize) -> SpanRing {
        let cap = capacity.next_power_of_two().max(2);
        SpanRing {
            slots: (0..cap)
                .map(|_| SpanSlot {
                    stamp: AtomicU64::new(0),
                    words: [const { AtomicU64::new(0) }; SPAN_WORDS],
                })
                .collect(),
            head: AtomicU64::new(0),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Spans ever pushed (pushes beyond capacity overwrite).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Record one span, overwriting the oldest if the ring is full.
    pub fn push(&self, span: &Span) {
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[pos as usize & (self.slots.len() - 1)];
        slot.stamp.store(2 * pos + 1, Ordering::Release);
        fence(Ordering::Release);
        for (w, v) in slot.words.iter().zip(span.pack()) {
            w.store(v, Ordering::Relaxed);
        }
        slot.stamp.store(2 * pos + 2, Ordering::Release);
    }

    /// Append every intact span currently held (oldest first) to
    /// `into`. Slots a concurrent writer is overwriting are skipped —
    /// the reader never blocks a producer.
    pub fn snapshot(&self, into: &mut Vec<Span>) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        for pos in head.saturating_sub(cap)..head {
            let slot = &self.slots[pos as usize & (self.slots.len() - 1)];
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp != 2 * pos + 2 {
                continue; // mid-write, or already overwritten
            }
            let mut w = [0u64; SPAN_WORDS];
            for (dst, src) in w.iter_mut().zip(slot.words.iter()) {
                *dst = src.load(Ordering::Relaxed);
            }
            fence(Ordering::Acquire);
            if slot.stamp.load(Ordering::Relaxed) != stamp {
                continue; // torn by a writer racing the copy
            }
            into.push(Span::unpack(&w));
        }
    }
}

/// What tripped the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// A spill extent failed CRC verification (`a` = key, `b` = file
    /// offset).
    Corrupt,
    /// The store entered degraded (memory-only) mode (`a` =
    /// consecutive failures at entry).
    Degraded,
    /// A backpressure-parked connection made no flush progress for the
    /// stall threshold (`a` = connection id, `b` = pending bytes).
    BackpressureStall,
    /// A GC pause exceeded the threshold (`a` = bytes relocated, `b` =
    /// pause ns).
    GcPause,
}

impl AnomalyKind {
    /// The printable name.
    pub fn name(self) -> &'static str {
        match self {
            AnomalyKind::Corrupt => "corrupt",
            AnomalyKind::Degraded => "degraded",
            AnomalyKind::BackpressureStall => "backpressure_stall",
            AnomalyKind::GcPause => "gc_pause",
        }
    }
}

/// One recorded anomaly event.
#[derive(Debug, Clone, Copy)]
pub struct Anomaly {
    /// What happened.
    pub kind: AnomalyKind,
    /// The trace in flight when it fired (0 if none / unsampled).
    pub trace_id: u64,
    /// Kind-specific argument (see [`AnomalyKind`]).
    pub a: u64,
    /// Kind-specific argument (see [`AnomalyKind`]).
    pub b: u64,
    /// Nanoseconds since the tracer's epoch.
    pub at_ns: u64,
}

/// Where automatic flight-recorder dumps go.
pub enum DumpSink {
    /// Discard automatic dumps (on-demand [`Tracer::dump_json`] still
    /// works).
    Null,
    /// Keep dumps in memory — tests and in-process gates read them
    /// back via [`Tracer::dumps`].
    Memory(Mutex<Vec<String>>),
}

/// Builder for a [`Tracer`].
pub struct TracerBuilder {
    sample_every: u64,
    stripes: usize,
    ring_capacity: usize,
    sink: DumpSink,
    gc_pause_threshold: Duration,
    stall_after: Duration,
    auto_dump_budget: u64,
}

impl Default for TracerBuilder {
    fn default() -> Self {
        TracerBuilder {
            sample_every: DEFAULT_SAMPLE_EVERY,
            stripes: 4,
            ring_capacity: 4096,
            sink: DumpSink::Null,
            gc_pause_threshold: Duration::from_millis(50),
            stall_after: Duration::from_millis(500),
            auto_dump_budget: 16,
        }
    }
}

impl TracerBuilder {
    /// Sample one request in `n` (0 disables request sampling; the
    /// flight recorder and anomalies stay live).
    pub fn sample_every(mut self, n: u64) -> Self {
        self.sample_every = n;
        self
    }

    /// Span-ring stripes (writers hash across them; more stripes,
    /// less producer contention).
    pub fn stripes(mut self, n: usize) -> Self {
        self.stripes = n.max(1);
        self
    }

    /// Span slots per stripe.
    pub fn ring_capacity(mut self, n: usize) -> Self {
        self.ring_capacity = n;
        self
    }

    /// Send automatic dumps to `sink`.
    pub fn sink(mut self, sink: DumpSink) -> Self {
        self.sink = sink;
        self
    }

    /// Keep automatic dumps in memory ([`DumpSink::Memory`]).
    pub fn sink_memory(self) -> Self {
        self.sink(DumpSink::Memory(Mutex::new(Vec::new())))
    }

    /// GC pauses above this trip a [`AnomalyKind::GcPause`] dump.
    pub fn gc_pause_threshold(mut self, t: Duration) -> Self {
        self.gc_pause_threshold = t;
        self
    }

    /// A parked connection with no flush progress for this long trips
    /// a [`AnomalyKind::BackpressureStall`] dump.
    pub fn stall_after(mut self, t: Duration) -> Self {
        self.stall_after = t;
        self
    }

    /// Cap on automatic dumps over the tracer's lifetime (an anomaly
    /// storm must not fill the sink).
    pub fn auto_dump_budget(mut self, n: u64) -> Self {
        self.auto_dump_budget = n;
        self
    }

    /// Build the tracer.
    pub fn build(self) -> Tracer {
        Tracer {
            sample_every: self.sample_every,
            sample_ctr: AtomicU64::new(0),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            epoch: Instant::now(),
            rings: (0..self.stripes)
                .map(|_| SpanRing::new(self.ring_capacity))
                .collect(),
            anomalies: Mutex::new(VecDeque::new()),
            sink: self.sink,
            dumps_written: AtomicU64::new(0),
            auto_dumps_left: AtomicU64::new(self.auto_dump_budget),
            gc_pause_threshold: self.gc_pause_threshold,
            stall_after: self.stall_after,
        }
    }
}

/// Default request-sampling rate: one request in this many.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// Anomaly events retained for dumps.
const ANOMALY_CAP: usize = 64;

/// The tracing + flight-recorder engine. One instance is shared (via
/// `Arc`) by the store and the server so a single trace spans both
/// telemetry domains; see the module docs for the model.
pub struct Tracer {
    sample_every: u64,
    sample_ctr: AtomicU64,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    epoch: Instant,
    rings: Box<[SpanRing]>,
    anomalies: Mutex<VecDeque<Anomaly>>,
    sink: DumpSink,
    dumps_written: AtomicU64,
    auto_dumps_left: AtomicU64,
    gc_pause_threshold: Duration,
    stall_after: Duration,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("sample_every", &self.sample_every)
            .field("stripes", &self.rings.len())
            .field("dumps_written", &self.dumps_written())
            .finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::builder().build()
    }
}

impl Tracer {
    /// Start building a tracer.
    pub fn builder() -> TracerBuilder {
        TracerBuilder::default()
    }

    /// GC pauses above this duration trip an anomaly dump.
    pub fn gc_pause_threshold(&self) -> Duration {
        self.gc_pause_threshold
    }

    /// Parked connections making no progress for this long trip an
    /// anomaly dump.
    pub fn stall_after(&self) -> Duration {
        self.stall_after
    }

    /// The sampling decision for a new request: a fresh root
    /// [`TraceCtx`] one time in N, [`TraceCtx::NONE`] otherwise. One
    /// relaxed `fetch_add` on the unsampled path.
    #[inline]
    pub fn sample(&self) -> TraceCtx {
        if self.sample_every == 0 {
            return TraceCtx::NONE;
        }
        if self
            .sample_ctr
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.sample_every)
        {
            TraceCtx {
                trace_id: self.next_trace.fetch_add(1, Ordering::Relaxed),
                parent_span: 0,
            }
        } else {
            TraceCtx::NONE
        }
    }

    /// Allocate a span id.
    pub fn alloc_span(&self) -> u32 {
        self.next_span.fetch_add(1, Ordering::Relaxed) as u32
    }

    /// Nanoseconds from the tracer's epoch to `t` (0 if `t` predates
    /// the epoch).
    pub fn now_ns(&self, t: Instant) -> u64 {
        t.checked_duration_since(self.epoch)
            .map_or(0, |d| d.as_nanos() as u64)
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn elapsed_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record `span` into the stripe-`stripe` ring (wrapped modulo the
    /// stripe count).
    #[inline]
    pub fn record(&self, stripe: usize, span: &Span) {
        self.rings[stripe % self.rings.len()].push(span);
    }

    /// Every intact span currently held across all stripes.
    pub fn spans(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for ring in self.rings.iter() {
            ring.snapshot(&mut out);
        }
        out
    }

    /// Whether any stripe has wrapped (overwritten spans). While
    /// false, [`Tracer::spans`] is the complete record and every
    /// sampled trace must form a closed tree.
    pub fn wrapped(&self) -> bool {
        self.rings
            .iter()
            .any(|r| r.recorded() > r.capacity() as u64)
    }

    /// Record an anomaly and (budget permitting) write an automatic
    /// flight-recorder dump to the sink; the null sink renders none.
    pub fn anomaly(&self, kind: AnomalyKind, trace_id: u64, a: u64, b: u64) {
        {
            let mut q = self.anomalies.lock().expect("anomaly buffer poisoned");
            if q.len() == ANOMALY_CAP {
                q.pop_front();
            }
            q.push_back(Anomaly {
                kind,
                trace_id,
                a,
                b,
                at_ns: self.elapsed_ns(),
            });
        }
        // Budget check first: a storm of anomalies keeps recording into
        // the bounded buffer above but stops producing dumps.
        if self
            .auto_dumps_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_err()
        {
            return;
        }
        self.dumps_written.fetch_add(1, Ordering::Relaxed);
        if let DumpSink::Memory(v) = &self.sink {
            let json = self.dump_json(kind.name());
            v.lock().expect("dump sink poisoned").push(json);
        }
    }

    /// Automatic dumps written so far.
    pub fn dumps_written(&self) -> u64 {
        self.dumps_written.load(Ordering::Relaxed)
    }

    /// The dumps held by a [`DumpSink::Memory`] sink (empty for other
    /// sinks).
    pub fn dumps(&self) -> Vec<String> {
        match &self.sink {
            DumpSink::Memory(v) => v.lock().expect("dump sink poisoned").clone(),
            _ => Vec::new(),
        }
    }

    /// The recent anomaly events (oldest first).
    pub fn anomalies(&self) -> Vec<Anomaly> {
        self.anomalies
            .lock()
            .expect("anomaly buffer poisoned")
            .iter()
            .copied()
            .collect()
    }

    /// Render the flight-recorder state — recent anomalies plus every
    /// intact span — as a JSON document.
    pub fn dump_json(&self, reason: &str) -> String {
        let mut s = String::with_capacity(4096);
        let _ = write!(
            s,
            "{{\n  \"reason\": \"{}\",\n  \"at_ns\": {},\n  \"sample_every\": {},\n  \"anomalies\": [",
            reason.escape_default(),
            self.elapsed_ns(),
            self.sample_every,
        );
        for (i, a) in self.anomalies().iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{\"kind\": \"{}\", \"trace_id\": {}, \"a\": {}, \"b\": {}, \"at_ns\": {}}}",
                if i == 0 { "" } else { "," },
                a.kind.name(),
                a.trace_id,
                a.a,
                a.b,
                a.at_ns,
            );
        }
        s.push_str("\n  ],\n  \"spans\": [");
        let mut spans = self.spans();
        spans.sort_by_key(|sp| (sp.trace_id, sp.start_ns, sp.span_id));
        for (i, sp) in spans.iter().enumerate() {
            let _ = write!(
                s,
                "{}\n    {{\"trace_id\": {}, \"span\": {}, \"parent\": {}, \"op\": \"{}\", \"tier\": \"{}\", \"codec\": {}, \"status\": {}, \"start_ns\": {}, \"queue_ns\": {}, \"service_ns\": {}, \"arg\": {}}}",
                if i == 0 { "" } else { "," },
                sp.trace_id,
                sp.span_id,
                sp.parent,
                sop::name(sp.op),
                tier::name(sp.tier),
                sp.codec,
                sp.status,
                sp.start_ns,
                sp.queue_ns,
                sp.service_ns,
                sp.arg,
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Count spans whose parent link does not resolve to a recorded span
/// of the same trace — an incomplete span tree. Background spans
/// (`trace_id` 0) are exempt. Meaningful while the rings have not
/// wrapped ([`Tracer::wrapped`]); after overwrite, missing parents may
/// simply have been evicted.
pub fn orphan_spans(spans: &[Span]) -> usize {
    let ids: HashSet<(u64, u32)> = spans
        .iter()
        .filter(|s| s.trace_id != 0)
        .map(|s| (s.trace_id, s.span_id))
        .collect();
    spans
        .iter()
        .filter(|s| s.trace_id != 0 && s.parent != 0 && !ids.contains(&(s.trace_id, s.parent)))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn span_packs_and_unpacks_losslessly() {
        let s = Span {
            trace_id: 0xDEAD_BEEF_CAFE,
            span_id: 7,
            parent: 3,
            op: sop::SPILL_READ,
            tier: tier::SPILL,
            codec: 2,
            status: 1,
            start_ns: 123_456_789,
            queue_ns: 42,
            service_ns: 9_999,
            arg: u64::MAX,
        };
        assert_eq!(Span::unpack(&s.pack()), s);
    }

    #[test]
    fn ring_keeps_newest_on_overwrite() {
        let ring = SpanRing::new(4);
        for i in 0..10u64 {
            ring.push(&Span {
                trace_id: 1,
                span_id: i as u32 + 1,
                arg: i,
                ..Span::default()
            });
        }
        let mut got = Vec::new();
        ring.snapshot(&mut got);
        // Capacity 4: exactly the last 4 pushes survive, oldest first.
        assert_eq!(got.iter().map(|s| s.arg).collect::<Vec<_>>(), [6, 7, 8, 9]);
        assert_eq!(ring.recorded(), 10);
    }

    #[test]
    fn ring_snapshot_survives_concurrent_pushes() {
        let ring = Arc::new(SpanRing::new(64));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        ring.push(&Span {
                            trace_id: t + 1,
                            span_id: 1,
                            arg: i ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            ..Span::default()
                        });
                        i += 1;
                    }
                })
            })
            .collect();
        let mut scratch = Vec::new();
        for _ in 0..200 {
            scratch.clear();
            ring.snapshot(&mut scratch);
            for s in &scratch {
                // Every surviving record is internally consistent: a
                // torn slot would show a trace id without its writer's
                // arg pattern.
                assert!(s.trace_id >= 1 && s.trace_id <= 4, "torn span: {s:?}");
            }
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn sampling_is_one_in_n() {
        let tr = Tracer::builder().sample_every(8).build();
        let sampled = (0..800).filter(|_| tr.sample().sampled()).count();
        assert_eq!(sampled, 100);
        // Distinct trace ids.
        let a = tr.sample_ctr.load(Ordering::Relaxed);
        assert_eq!(a, 800);
        let off = Tracer::builder().sample_every(0).build();
        assert!((0..100).all(|_| !off.sample().sampled()));
    }

    #[test]
    fn anomaly_dumps_to_memory_sink_within_budget() {
        let tr = Tracer::builder()
            .sample_every(1)
            .sink_memory()
            .auto_dump_budget(2)
            .build();
        let ctx = tr.sample();
        let span = tr.alloc_span();
        tr.record(
            0,
            &Span {
                trace_id: ctx.trace_id,
                span_id: span,
                op: sop::STORE_GET,
                tier: tier::SPILL,
                arg: 42,
                ..Span::default()
            },
        );
        tr.anomaly(AnomalyKind::Corrupt, ctx.trace_id, 42, 4096);
        tr.anomaly(AnomalyKind::Degraded, 0, 3, 0);
        tr.anomaly(AnomalyKind::GcPause, 0, 1, 2); // over budget: recorded, not dumped
        assert_eq!(tr.dumps_written(), 2);
        let dumps = tr.dumps();
        assert_eq!(dumps.len(), 2);
        assert!(dumps[0].contains("\"reason\": \"corrupt\""));
        assert!(dumps[0].contains("\"kind\": \"corrupt\", \"trace_id\": 1, \"a\": 42, \"b\": 4096"));
        assert!(dumps[0].contains("\"op\": \"store_get\""));
        assert_eq!(tr.anomalies().len(), 3);
        // On-demand dump still renders past the auto budget.
        assert!(tr.dump_json("on-demand").contains("\"gc_pause\""));
    }

    #[test]
    fn orphan_detection_flags_broken_trees() {
        let mk = |trace_id, span_id, parent| Span {
            trace_id,
            span_id,
            parent,
            ..Span::default()
        };
        // Closed tree + background span: no orphans.
        assert_eq!(orphan_spans(&[mk(1, 1, 0), mk(1, 2, 1), mk(0, 9, 5)]), 0);
        // Child pointing at a span that was never recorded.
        assert_eq!(orphan_spans(&[mk(1, 1, 0), mk(1, 3, 2)]), 1);
        // Parent exists but under a different trace.
        assert_eq!(orphan_spans(&[mk(1, 1, 0), mk(2, 2, 1)]), 1);
    }
}
