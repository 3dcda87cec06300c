//! One operation's timing and tracing, decided once at its start: the
//! one place the data path reads the clock for telemetry.

use std::cell::Cell;
use std::time::Instant;

use crate::trace::{Span, SpanTag, TraceCtx, Tracer};
use crate::Telemetry;

/// What an operation carries down its steps ([`OpTimer::step`]):
/// whether its latencies go on histograms, its start stamp — read only
/// when it is timed or traced — and its span under the request's trace.
/// One end stamp gives both its histogram sample and its span. Built by
/// [`Telemetry::start_op`] or [`Telemetry::op_since`].
pub struct OpTimer<'a> {
    tel: &'a Telemetry,
    /// Given iff the operation records a span.
    tr: Option<&'a Tracer>,
    /// `Some` iff the operation is timed or traced.
    start: Option<Instant>,
    timed: bool,
    /// The trace and parent span it runs under (read only when traced).
    parent: TraceCtx,
    span: u32,
    /// The tier and codec its span reports ([`OpTimer::note`]).
    noted: Cell<(u8, u8)>,
}

impl Telemetry {
    /// Start a foreground operation under `ctx`, its unique `stamp`
    /// making its one timing decision ([`Telemetry::op_timer`]): traced
    /// iff `ctx` is sampled and a tracer `tr` is given, timed if traced or
    /// picked by the stamp's hash, its start read only then.
    #[inline]
    pub fn start_op<'a>(
        &'a self,
        stamp: u64,
        tr: Option<&'a Tracer>,
        ctx: TraceCtx,
    ) -> OpTimer<'a> {
        let tr = tr.filter(|_| ctx.sampled());
        let start = self.op_timer(stamp, tr.is_some());
        let timed = start.is_some();
        let start = start.or_else(|| tr.map(|_| Instant::now()));
        OpTimer::new(self, tr, ctx, start, timed)
    }

    /// An operation timed every time — a wire request, a background
    /// step — from a `start` its caller read, spanned under `ctx` iff a
    /// tracer `tr` is given (a sampled request, or background work under
    /// [`TraceCtx::NONE`]).
    #[inline]
    pub fn op_since<'a>(
        &'a self,
        start: Instant,
        tr: Option<&'a Tracer>,
        ctx: TraceCtx,
    ) -> OpTimer<'a> {
        OpTimer::new(self, tr, ctx, Some(start), true)
    }
}

impl<'a> OpTimer<'a> {
    #[inline]
    fn new(
        tel: &'a Telemetry,
        tr: Option<&'a Tracer>,
        parent: TraceCtx,
        start: Option<Instant>,
        timed: bool,
    ) -> OpTimer<'a> {
        let span = tr.map_or(0, Tracer::alloc_span);
        let noted = Cell::new((0, 0));
        OpTimer {
            tel,
            tr,
            start,
            timed,
            parent,
            span,
            noted,
        }
    }

    /// Whether its latencies go on histograms.
    #[inline]
    pub fn timed(&self) -> bool {
        self.timed
    }

    /// Whether it records a span.
    #[inline]
    pub fn traced(&self) -> bool {
        self.tr.is_some()
    }

    /// The context its sub-operations carry: its trace, under its span
    /// ([`TraceCtx::NONE`] when it is not traced).
    #[inline]
    pub fn ctx(&self) -> TraceCtx {
        self.tr
            .map_or(TraceCtx::NONE, |_| self.parent.child(self.span))
    }

    /// Start a step (a codec pass, a spill read, a promotion): the same
    /// timing decision, a start stamp read only if timed or traced, and
    /// a child span when traced.
    #[inline]
    pub fn step(&self) -> OpTimer<'a> {
        let start = (self.timed || self.traced()).then(Instant::now);
        OpTimer::new(self.tel, self.tr, self.ctx(), start, self.timed)
    }

    /// Set the tier and codec its span reports.
    #[inline]
    pub fn note(&self, tier: u8, codec: u8) -> &Self {
        self.noted.set((tier, codec));
        self
    }

    /// Record the time since its start on histogram `hist`, if timed.
    #[inline]
    pub fn record(&self, hist: usize) {
        let start = self.start.filter(|_| self.timed);
        self.tel.record_since(hist, start, self.ctx().trace_id);
    }

    /// End it now ([`OpTimer::finish_at`]), reading the clock only if the
    /// stamp is used: it is traced, or timed with a `hist` to sample.
    #[inline]
    pub fn finish(
        &self,
        hist: Option<usize>,
        stripe: usize,
        op: u8,
        status: u8,
        arg: u64,
    ) -> Option<u64> {
        if !(self.traced() || self.timed && hist.is_some()) {
            return None;
        }
        self.finish_at(Instant::now(), hist, stripe, op, status, arg)
    }

    /// End it at `end`: from that one interval, a sample on `hist` if
    /// given and timed, and if traced its span `op` with `status` and
    /// `arg` on stripe `stripe`. Returns the nanoseconds if it sampled.
    pub fn finish_at(
        &self,
        end: Instant,
        hist: Option<usize>,
        stripe: usize,
        op: u8,
        status: u8,
        arg: u64,
    ) -> Option<u64> {
        let start = self.start?;
        let ns = end.saturating_duration_since(start).as_nanos() as u64;
        if let Some(tr) = self.tr {
            let (tier, codec) = self.noted.get();
            let tag = SpanTag {
                op,
                tier,
                codec,
                status,
                arg,
            };
            tr.record(
                stripe,
                &Span::new(self.parent, self.span, tag, tr.now_ns(start), ns),
            );
        }
        let hist = hist.filter(|_| self.timed)?;
        self.tel.record_traced(hist, ns, self.ctx().trace_id);
        Some(ns)
    }
}
