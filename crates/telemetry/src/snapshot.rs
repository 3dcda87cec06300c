//! Point-in-time snapshots and their renderers.
//!
//! A [`Snapshot`] is plain data: counter sums, caller-supplied gauges
//! and per-operation latency summaries. It renders to the Prometheus
//! text exposition format and to an aligned human-readable table.

use crate::hist::HistSummary;
use crate::LATENCY_SAMPLE_PERIOD;
use cc_util::fmt;

/// A point-in-time copy of everything a [`crate::Telemetry`] knows.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotonic counter sums, in bank order.
    pub counters: Vec<(&'static str, u64)>,
    /// Caller-supplied point-in-time gauges (resident bytes, file size,
    /// ...), appended after the snapshot is taken.
    pub gauges: Vec<(&'static str, u64)>,
    /// Per-operation latency summaries (nanoseconds), in op order.
    pub ops: Vec<(&'static str, HistSummary)>,
    /// The ops whose histograms describe a sample of the calls, not all
    /// of them (see [`Snapshot::sampled`]); empty for an instance that
    /// records every call.
    pub sampled_ops: Vec<&'static str>,
    /// Wall-clock time the snapshot was taken, seconds since the Unix
    /// epoch — lets consecutive scrapes be rate-converted.
    pub taken_unix_s: u64,
}

impl Snapshot {
    /// Append a gauge (chainable).
    pub fn gauge(mut self, name: &'static str, value: u64) -> Self {
        self.gauges.push((name, value));
        self
    }

    /// Declare that the histograms of `ops` were fed by
    /// [`crate::Telemetry::op_timer`] — 1 operation in
    /// [`LATENCY_SAMPLE_PERIOD`], traced requests always — so their
    /// `count` is a number of samples and their `max` the largest
    /// sampled latency. Appends the `latency_sample_period` gauge and
    /// makes the Prometheus HELP of those ops say so (chainable).
    pub fn sampled(mut self, ops: &[&'static str]) -> Self {
        self.sampled_ops = ops.to_vec();
        self.gauge("latency_sample_period", LATENCY_SAMPLE_PERIOD)
    }

    /// Look up a counter sum by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Look up an operation summary by name.
    pub fn op(&self, name: &str) -> Option<HistSummary> {
        self.ops.iter().find(|(n, _)| *n == name).map(|&(_, s)| s)
    }

    /// Render in the Prometheus text exposition format. Counter names
    /// become `<prefix>_<name>_total`, gauges
    /// `<prefix>_<name>`, and each op a `summary` with p50/p90/p99
    /// quantiles plus the `_sum`/`_count` pair (so `rate()` and
    /// average queries work) and `_max`. Every family carries a
    /// `# HELP` line ahead of its `# TYPE`.
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (n, v) in &self.counters {
            out.push_str(&format!(
                "# HELP {prefix}_{n}_total Monotonic count of {n} events.\n"
            ));
            out.push_str(&format!("# TYPE {prefix}_{n}_total counter\n"));
            out.push_str(&format!("{prefix}_{n}_total {v}\n"));
        }
        for (n, v) in &self.gauges {
            out.push_str(&format!(
                "# HELP {prefix}_{n} Point-in-time value of {n}.\n"
            ));
            out.push_str(&format!("# TYPE {prefix}_{n} gauge\n"));
            out.push_str(&format!("{prefix}_{n} {v}\n"));
        }
        for (n, s) in &self.ops {
            let sampling = if self.sampled_ops.contains(n) {
                format!(" (sampled 1 in {LATENCY_SAMPLE_PERIOD}; traced requests always)")
            } else {
                String::new()
            };
            out.push_str(&format!(
                "# HELP {prefix}_{n}_latency_ns Latency of {n} operations in nanoseconds{sampling}.\n"
            ));
            out.push_str(&format!("# TYPE {prefix}_{n}_latency_ns summary\n"));
            for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                out.push_str(&format!(
                    "{prefix}_{n}_latency_ns{{quantile=\"{q}\"}} {v}\n"
                ));
            }
            out.push_str(&format!("{prefix}_{n}_latency_ns_sum {}\n", s.sum));
            out.push_str(&format!("{prefix}_{n}_latency_ns_count {}\n", s.count));
            out.push_str(&format!("{prefix}_{n}_latency_ns_max {}\n", s.max));
        }
        out.push_str(&format!(
            "# HELP {prefix}_snapshot_timestamp_seconds Unix time this snapshot was taken.\n"
        ));
        out.push_str(&format!(
            "# TYPE {prefix}_snapshot_timestamp_seconds gauge\n"
        ));
        out.push_str(&format!(
            "{prefix}_snapshot_timestamp_seconds {}\n",
            self.taken_unix_s
        ));
        out
    }

    /// Render as aligned human-readable tables (for example binaries and
    /// harness stdout).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut count_rows: Vec<Vec<String>> = Vec::new();
        for (n, v) in self.counters.iter().chain(self.gauges.iter()) {
            count_rows.push(vec![n.to_string(), v.to_string()]);
        }
        if !count_rows.is_empty() {
            out.push_str(&fmt::table(&["counter", "value"], &count_rows));
            out.push('\n');
        }
        let op_rows: Vec<Vec<String>> = self
            .ops
            .iter()
            .filter(|(_, s)| s.count > 0)
            .map(|(n, s)| {
                vec![
                    n.to_string(),
                    s.count.to_string(),
                    fmt::ns(s.p50),
                    fmt::ns(s.p90),
                    fmt::ns(s.p99),
                    fmt::ns(s.max),
                ]
            })
            .collect();
        if !op_rows.is_empty() {
            out.push_str(&fmt::table(
                &["op", "count", "p50", "p90", "p99", "max"],
                &op_rows,
            ));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![("puts", 10), ("gets", 20)],
            gauges: vec![("resident_bytes", 4096)],
            ops: vec![(
                "put",
                HistSummary {
                    count: 10,
                    p50: 100,
                    p90: 200,
                    p99: 300,
                    max: 400,
                    mean: 150.0,
                    sum: 1500,
                    max_trace: 77,
                },
            )],
            sampled_ops: Vec::new(),
            taken_unix_s: 1_700_000_000,
        }
    }

    #[test]
    fn prometheus_shape() {
        let p = sample().to_prometheus("cc_store");
        assert!(p.contains("cc_store_puts_total 10"), "{p}");
        assert!(p.contains("cc_store_resident_bytes 4096"), "{p}");
        assert!(
            p.contains("cc_store_put_latency_ns{quantile=\"0.99\"} 300"),
            "{p}"
        );
        assert!(p.contains("cc_store_put_latency_ns_sum 1500"), "{p}");
        assert!(
            p.contains("cc_store_snapshot_timestamp_seconds 1700000000"),
            "{p}"
        );
        // Every non-comment line is `name[{labels}] value`.
        for line in p.lines().filter(|l| !l.starts_with('#')) {
            assert_eq!(line.split_whitespace().count(), 2, "bad line: {line}");
        }
    }

    /// Exposition-format conformance: every `# TYPE` is introduced by a
    /// `# HELP` for the same family, every summary family carries the
    /// `_sum`/`_count` pair real Prometheus needs for rate/avg queries,
    /// and every sample line parses as `name value`.
    #[test]
    fn prometheus_exposition_conformance() {
        // A store-shaped snapshot: two ops fed through the sampler (an
        // operation and a sub-step of one), and one (a background
        // thread's) that records every call.
        let mut snap = sample();
        snap.ops.push(("gc_pause", snap.ops[0].1));
        snap.ops.push(("spill_verify", snap.ops[0].1));
        let p = snap.sampled(&["put", "spill_verify"]).to_prometheus("cc_x");
        let lines: Vec<&str> = p.lines().collect();
        // The period is a gauge like any other, and only the sampled
        // op's HELP line mentions it.
        let period = lines
            .iter()
            .position(|l| *l == format!("cc_x_latency_sample_period {LATENCY_SAMPLE_PERIOD}"))
            .expect("latency_sample_period sample line");
        assert_eq!(lines[period - 1], "# TYPE cc_x_latency_sample_period gauge");
        let help = |family: &str| {
            let prefix = format!("# HELP {family} ");
            *lines
                .iter()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no HELP for {family}"))
        };
        let said = format!("sampled 1 in {LATENCY_SAMPLE_PERIOD}; traced requests always");
        assert!(help("cc_x_put_latency_ns").contains(&said), "{p}");
        assert!(help("cc_x_spill_verify_latency_ns").contains(&said), "{p}");
        assert!(!help("cc_x_gc_pause_latency_ns").contains("sampled"), "{p}");
        let mut summaries = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let family = parts.next().unwrap();
                let kind = parts.next().unwrap();
                let help = lines[i.checked_sub(1).expect("TYPE with no HELP above")];
                assert!(
                    help.starts_with(&format!("# HELP {family} ")),
                    "family {family} lacks an adjacent HELP line: {help}"
                );
                if kind == "summary" {
                    summaries.push(family.to_string());
                }
            }
        }
        assert!(!summaries.is_empty());
        for family in &summaries {
            for suffix in ["_sum", "_count"] {
                assert!(
                    lines
                        .iter()
                        .any(|l| l.starts_with(&format!("{family}{suffix} "))),
                    "summary {family} lacks {suffix}"
                );
            }
        }
        for line in lines.iter().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            let name = parts.next().expect("metric name");
            let value = parts.next().expect("metric value");
            assert!(parts.next().is_none(), "extra tokens: {line}");
            assert!(name.starts_with("cc_x_"), "foreign metric: {line}");
            assert!(value.parse::<f64>().is_ok(), "non-numeric value: {line}");
        }
    }

    #[test]
    fn sampling_period_is_in_every_rendering() {
        let snap = sample().sampled(&["put"]);
        assert_eq!(
            snap.gauges.last(),
            Some(&("latency_sample_period", LATENCY_SAMPLE_PERIOD))
        );
        let table = snap.render_text();
        let row = table
            .lines()
            .find(|l| l.contains("latency_sample_period"))
            .expect("gauge row in the table");
        assert!(row.contains(&LATENCY_SAMPLE_PERIOD.to_string()), "{row}");
    }

    #[test]
    fn text_render_mentions_everything() {
        let t = sample().render_text();
        assert!(t.contains("puts"), "{t}");
        assert!(t.contains("resident_bytes"), "{t}");
        assert!(t.contains("100ns"), "{t}");
    }

    #[test]
    fn lookup_helpers() {
        let s = sample();
        assert_eq!(s.counter("puts"), Some(10));
        assert_eq!(s.counter("nope"), None);
        assert_eq!(s.op("put").unwrap().p50, 100);
    }
}
