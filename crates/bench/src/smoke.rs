//! Shared smoke-gate checks over telemetry snapshots.
//!
//! `storebench --smoke` and `loadgen --smoke` both gate CI on the same
//! invariants — histograms that were actually exercised and are
//! internally consistent, Prometheus text that a scraper can parse.
//! Each check returns a failure message, or `None` when the invariant
//! holds, so a gate is a `Vec<String>` of whatever failed.

use cc_telemetry::Snapshot;

/// Histogram sanity: the op must have been recorded and its percentiles
/// must be ordered (`p50 <= p90 <= p99 <= max`).
pub fn check_hist(snap: &Snapshot, op: &str) -> Option<String> {
    let Some(s) = snap.op(op) else {
        return Some(format!("telemetry op {op:?} missing from snapshot"));
    };
    if s.count == 0 {
        return Some(format!("telemetry op {op:?} recorded no samples"));
    }
    if !(s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max) {
        return Some(format!(
            "telemetry op {op:?} percentiles out of order: p50 {} p90 {} p99 {} max {}",
            s.p50, s.p90, s.p99, s.max
        ));
    }
    None
}

/// Prometheus exposition sanity: non-empty, and every non-comment line
/// is exactly `name[{labels}] value` with a numeric value.
pub fn check_prometheus(text: &str, must_contain: &[&str]) -> Option<String> {
    if text.trim().is_empty() {
        return Some("prometheus text is empty".into());
    }
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut parts = line.split_whitespace();
        let (Some(_name), Some(value), None) = (parts.next(), parts.next(), parts.next()) else {
            return Some(format!("prometheus line is not `name value`: {line:?}"));
        };
        if value.parse::<f64>().is_err() {
            return Some(format!("prometheus value is not numeric: {line:?}"));
        }
    }
    for needle in must_contain {
        if !text.contains(needle) {
            return Some(format!("prometheus text is missing {needle:?}"));
        }
    }
    None
}

/// Print failures and return a process exit code (0 = gate passed).
pub fn report(gate: &str, failures: &[String]) -> i32 {
    if failures.is_empty() {
        eprintln!("  {gate} smoke OK");
        0
    } else {
        for f in failures {
            eprintln!("  {gate} smoke FAILED: {f}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_telemetry::{Telemetry, TelemetrySpec};

    const SPEC: TelemetrySpec = TelemetrySpec {
        counters: &["reqs"],
        ops: &["op_a"],
    };

    fn snap_with_activity() -> Snapshot {
        let tel = Telemetry::new(SPEC, 1, true);
        tel.count(0, 0, 3);
        tel.record(0, 100);
        tel.record(0, 200);
        tel.snapshot()
    }

    #[test]
    fn hist_gate_catches_missing_and_empty() {
        let snap = snap_with_activity();
        assert!(check_hist(&snap, "op_a").is_none());
        assert!(check_hist(&snap, "nope").unwrap().contains("missing"));
        let empty = Telemetry::new(SPEC, 1, true).snapshot();
        assert!(check_hist(&empty, "op_a").unwrap().contains("no samples"));
    }

    #[test]
    fn prometheus_gate() {
        let text = snap_with_activity().to_prometheus("cc_test");
        assert!(check_prometheus(&text, &["cc_test_reqs_total"]).is_none());
        assert!(check_prometheus("", &[]).unwrap().contains("empty"));
        assert!(check_prometheus("bad line here\n", &[])
            .unwrap()
            .contains("not `name value`"));
        assert!(check_prometheus("metric nan_maybe\n", &[])
            .unwrap()
            .contains("not numeric"));
        assert!(check_prometheus(&text, &["cc_test_absent_total"])
            .unwrap()
            .contains("missing"));
    }
}
