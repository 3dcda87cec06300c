//! The metric tables (mirrored by `BENCHMARK.json`) and the result line
//! the benchmark contract asks for.

use crate::stats::Better::{self, Higher, Lower};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The bounds are what two A/A runs of ten sets on the 2-vCPU host showed
/// they must be (README, "Evidence behind the bounds"): the host has
/// minutes-long slow epochs of 10-15 % that reach whole runs, so the timed
/// metrics cannot hold the 10 % the issue hoped for.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "ops_per_s", unit: "ops/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "get_p50_us", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "put_p50_us", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "cpu_us_per_op", unit: "us", better: Lower, bound: 0.25 },
    EndToEnd { name: "stored_bytes_per_user_byte", unit: "ratio", better: Lower, bound: 0.03 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 76] = [
    layer("harness.calib_ns", "ns", Lower),
    layer("harness.rounds_spread_pct", "%", Lower),
    layer("harness.driver_ns_per_op", "ns", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("harness.unattributed_pct", "%", Lower),
    layer("driver.get_mean_us", "us", Lower),
    layer("driver.put_mean_us", "us", Lower),
    layer("driver.get_p99_us", "us", Lower),
    layer("driver.put_p99_us", "us", Lower),
    layer("driver.get_max_us", "us", Lower),
    layer("driver.put_max_us", "us", Lower),
    layer("driver.cpu_us_per_op", "us", Lower),
    layer("background.cpu_us_per_op", "us", Lower),
    layer("driver.ctx_switches_per_kop", "1/kop", Lower),
    layer("compress.probe_ns", "ns", Lower),
    layer("compress.samefilled_ns", "ns", Lower),
    layer("compress.bdi_ns", "ns", Lower),
    layer("compress.lzrw1_ns", "ns", Lower),
    layer("compress.bdi_decomp_ns", "ns", Lower),
    layer("compress.lzrw1_decomp_ns", "ns", Lower),
    layer("compress.adaptive_ns", "ns", Lower),
    layer("compress.adaptive_ratio", "ratio", Higher),
    layer("compress.reject_share", "share", Lower),
    layer("compress.fallback_share", "share", Lower),
    layer("compress.est_share_of_put_pct", "%", Lower),
    layer("compress.est_share_of_driver_pct", "%", Lower),
    layer("store.get_hot_p50_ns", "ns", Lower),
    layer("store.get_warm_p50_us", "us", Lower),
    layer("store.get_cold_p50_us", "us", Lower),
    layer("store.hit_hot_share", "share", Higher),
    layer("store.hit_warm_share", "share", Lower),
    layer("store.hit_cold_share", "share", Lower),
    layer("store.miss_share", "share", Lower),
    layer("store.puts_hot_share", "share", Higher),
    layer("store.puts_bdi_share", "share", Higher),
    layer("store.puts_lzrw1_share", "share", Lower),
    layer("store.same_filled_share", "share", Higher),
    layer("store.self_put_ns", "ns", Lower),
    layer("store.self_get_warm_ns", "ns", Lower),
    layer("store.evictions_per_put", "1/put", Lower),
    layer("store.shed_pages", "count", Lower),
    layer("store.rss_overhead_bytes_per_entry", "bytes", Lower),
    layer("store.telemetry_overhead_ns_per_op", "ns", Lower),
    layer("tier.promotions_per_kget", "1/kget", Higher),
    layer("tier.promotions_rejected_share", "share", Lower),
    layer("tier.demoted_hot_per_kop", "1/kop", Lower),
    layer("tier.demoted_warm_per_kop", "1/kop", Lower),
    layer("tier.demoter_passes", "count", Lower),
    layer("tier.demote_now_ms", "ms", Lower),
    layer("medium.writes", "count", Lower),
    layer("medium.write_bytes_mean", "bytes", Higher),
    layer("medium.write_busy_us_mean", "us", Lower),
    layer("medium.reads", "count", Lower),
    layer("medium.read_busy_us_mean", "us", Lower),
    layer("medium.flushes", "count", Lower),
    layer("medium.bytes_written_per_user_byte", "ratio", Lower),
    layer("spill.batch_factor", "ratio", Higher),
    layer("spill.gc_runs", "count", Lower),
    layer("spill.gc_bytes_relocated_per_user_byte", "ratio", Lower),
    layer("spill.gc_pause_max_ms", "ms", Lower),
    layer("spill.flush_ms", "ms", Lower),
    layer("spill.dead_ratio_end", "ratio", Lower),
    layer("spill.io_retries", "count", Lower),
    layer("proto.encode_put_ns", "ns", Lower),
    layer("proto.decode_put_ns", "ns", Lower),
    layer("proto.encode_get_ns", "ns", Lower),
    layer("frame.parse_ns", "ns", Lower),
    layer("client.send_ns", "ns", Lower),
    layer("client.recv_ns", "ns", Lower),
    layer("server.rtt_ping_p50_us", "us", Lower),
    layer("server.rtt_get_p50_us", "us", Lower),
    layer("server.rtt_put_p50_us", "us", Lower),
    layer("server.wire_overhead_us_per_op", "us", Lower),
    layer("server.store_share_pct", "%", Higher),
    layer("server.connect_ms", "ms", Lower),
    layer("server.shutdown_ms", "ms", Lower),
];

/// Named values of one run, in table order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            !self.0.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// What one run of one workload found.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// A JSON number: every digit of a finite value, 0 for anything else (a
/// share of nothing).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The table a run reports: per-layer when traced, end-to-end otherwise.
fn rows(traced: bool) -> Vec<(&'static str, &'static str, Better)> {
    if traced {
        PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .collect()
    }
}

impl Outcome {
    /// The one-line result. Panics if the run left a metric of its table
    /// unset.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = rows(traced)
            .iter()
            .map(|(name, unit, _)| {
                let v = self
                    .metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The same values as an aligned table for people.
    pub fn table(&self, traced: bool) -> String {
        rows(traced)
            .iter()
            .filter_map(|(name, unit, better)| {
                let v = self.metrics.get(name)?;
                Some(format!(
                    "  {name:<42} {v:>16.4} {unit:<6} ({} is better)\n",
                    better.as_str()
                ))
            })
            .collect()
    }
}

/// Read `"<name>": {"value": <number>` back out of a result line (the
/// A/A report runs each workload in a child process and reads its last
/// line).
pub fn value_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_value_in() {
        let mut metrics = Metrics::default();
        for (i, m) in END_TO_END.iter().enumerate() {
            metrics.set(m.name, 1.5 + i as f64 / 7.0);
        }
        let o = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
        };
        let line = o.result_line(false);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(!line.contains('\n'));
        for (i, m) in END_TO_END.iter().enumerate() {
            assert_eq!(value_in(&line, m.name), Some(1.5 + i as f64 / 7.0));
        }
        assert_eq!(value_in(&line, "absent"), None);
        assert_eq!(number(f64::NAN), "0");
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(crate::workload::WORKLOADS.iter().map(|w| w.name));
        assert!(names.iter().all(|n| ok_name(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables here are what
    /// the program prints. They must say the same.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(json.contains(&entry), "missing {entry}");
        }
        for w in &crate::workload::WORKLOADS {
            assert!(json.contains(&format!(
                "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name, w.why
            )));
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        assert!(json.contains(&format!(
            "\"run_seconds\": {}",
            crate::workload::DESIGN_SECONDS
        )));
    }
}
