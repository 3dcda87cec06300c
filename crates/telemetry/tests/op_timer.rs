//! `OpTimer` through the public API: one timing decision per operation,
//! inherited by its steps, and one interval behind both an operation's
//! histogram sample and its span.

use cc_telemetry::trace::{orphan_spans, sop, tier, TraceCtx, Tracer};
use cc_telemetry::{Telemetry, TelemetrySpec};
use std::time::{Duration, Instant};

const SPEC: TelemetrySpec = TelemetrySpec {
    counters: &[],
    ops: &["root", "step"],
};

/// A stamp the hashed 1-in-16 rule does not pick.
fn unpicked(tel: &Telemetry) -> u64 {
    (0..64).find(|&s| tel.op_timer(s, false).is_none()).unwrap()
}

/// A traced operation is timed off the hashed rate; its step hangs off
/// its span; its sample and its span are the same interval.
#[test]
fn a_traced_op_samples_and_spans_one_interval() {
    let tel = Telemetry::new(SPEC, 1, true);
    let tr = Tracer::builder().sample_every(1).build();
    let ctx = tr.sample();
    let op = tel.start_op(unpicked(&tel), Some(&tr), ctx);
    assert!(op.timed() && op.traced());
    assert_eq!(op.ctx().trace_id, ctx.trace_id);
    let step = op.step();
    assert!(step
        .note(tier::NONE, 3)
        .finish(Some(1), 0, sop::COMPRESS, 0, 7)
        .is_some());

    let start = Instant::now();
    let wire = tel.op_since(start, Some(&tr), tr.sample());
    let end = start + Duration::from_nanos(500);
    let ns = wire
        .note(tier::HOT, 2)
        .finish_at(end, Some(0), 0, sop::REQUEST, 0, 9);
    assert_eq!(ns, Some(500));
    let root = tel.op_summary(0);
    assert_eq!(
        (root.count, root.max, root.max_trace),
        (1, 500, wire.ctx().trace_id)
    );
    assert_eq!(tel.op_summary(1).count, 1);

    op.finish(None, 0, sop::STORE_PUT, 0, 7);
    let spans = tr.spans();
    assert_eq!(orphan_spans(&spans), 0);
    let find = |op| spans.iter().find(|s| s.op == op).unwrap();
    let (put, compress, req) = (
        find(sop::STORE_PUT),
        find(sop::COMPRESS),
        find(sop::REQUEST),
    );
    assert_eq!((compress.parent, compress.codec), (put.span_id, 3));
    assert_eq!(
        (req.service_ns, req.tier, req.codec, req.arg),
        (500, tier::HOT, 2, 9)
    );
}

/// Untraced and unpicked: nothing to record, and a store without a
/// tracer treats a sampled context as untraced. Telemetry off: a traced
/// operation still spans, and samples nothing.
#[test]
fn an_untimed_op_records_nothing_and_telemetry_off_still_spans() {
    let tel = Telemetry::new(SPEC, 1, true);
    let tr = Tracer::builder().sample_every(1).build();
    let stamp = unpicked(&tel);
    for op in [
        tel.start_op(stamp, Some(&tr), TraceCtx::NONE),
        tel.start_op(stamp, None, tr.sample()),
    ] {
        assert!(!op.timed() && !op.traced());
        assert_eq!(op.ctx(), TraceCtx::NONE);
        let step = op.step();
        step.record(1);
        op.record(0);
        assert_eq!(op.finish(Some(0), 0, sop::STORE_GET, 0, 1), None);
    }
    assert_eq!(tel.op_summary(0).count + tel.op_summary(1).count, 0);
    assert!(tr.spans().is_empty());

    let off = Telemetry::new(SPEC, 1, false);
    let op = off.start_op(0, Some(&tr), tr.sample());
    assert!(!op.timed() && op.traced());
    op.step().finish(Some(1), 0, sop::SPILL_READ, 0, 1);
    assert_eq!(op.finish(Some(0), 0, sop::STORE_GET, 0, 1), None);
    assert_eq!(off.op_summary(0).count + off.op_summary(1).count, 0);
    assert_eq!(tr.spans().len(), 2);
    assert_eq!(orphan_spans(&tr.spans()), 0);
}
