//! Metric declarations, order statistics and the JSON result line.

use std::collections::BTreeMap;
use std::time::Duration;

/// `(name, unit)` of every end-to-end metric. Every untraced run prints all
/// of them; they must match `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_tail_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric. Every traced run prints all of
/// them, with 0 for a layer its workload does not run; they must match
/// `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("sim.core_issue_ms", "ms"),
    ("sim.core_issue_allocs", "count"),
    ("sim.events", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.attr_busy_pct", "%"),
    ("sim.attr_commit_wait_pct", "%"),
    ("sim.attr_wq_stall_pct", "%"),
    ("sim.attr_read_wait_pct", "%"),
    ("sim.cycles", "count"),
    ("sim.committed", "count"),
    ("sim.trace_overhead_pct", "%"),
    ("cache.hierarchy_ms", "ms"),
    ("cache.allocs", "count"),
    ("cache.lookups", "count"),
    ("nvm.mem_controller_ms", "ms"),
    ("nvm.allocs", "count"),
    ("nvm.wq_ops", "count"),
    ("nvm.log_appends", "count"),
    ("logging.controller_ms", "ms"),
    ("logging.allocs", "count"),
    ("logging.entries_written", "count"),
    ("encoding.codec_ms", "ms"),
    ("encoding.allocs", "count"),
    ("encoding.bits_programmed", "count"),
    ("encoding.preload_ms", "ms"),
    ("record.encode_slot_ns", "ns"),
    ("record.crc32_ns", "ns"),
    ("log.engine_self_us", "us"),
    ("log.domain_write_us", "us"),
    ("log.domain_read_us", "us"),
    ("log.domain_persist_us", "us"),
    ("log.domain_drain_us", "us"),
    ("log.drains_per_commit", "count"),
    ("log.persists_per_commit", "count"),
    ("log.control_writes_per_commit", "count"),
    ("log.bytes_drained_per_commit", "count"),
    ("log.write_amp", "ratio"),
    ("log.floor_us", "us"),
    ("log.floor_ratio", "ratio"),
    ("log.open_ms", "ms"),
    ("log.recover_ms", "ms"),
    ("log.recover_read_ms", "ms"),
    ("log.recover_drain_ms", "ms"),
    ("log.recover_self_ms", "ms"),
    ("record.decode_slot_ms", "ms"),
    ("protocol.plan_replay_ms", "ms"),
    ("log.records_scanned", "count"),
    ("log.forward_writes", "count"),
    ("log.backward_writes", "count"),
    ("log.torn_records", "count"),
    ("log.recover_us_per_record", "us"),
];

/// What one run attempted, how many operations failed their check, and the
/// metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts `attempted` operations of which `failed` missed their check.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Prints the result line: every metric of `declared`, in order.
    ///
    /// # Panics
    ///
    /// Panics if a recorded metric is not in `declared` (a benchmark bug).
    pub fn print(&self, declared: &[(&str, &str)]) {
        for name in self.values.keys() {
            assert!(
                declared.iter().any(|(n, _)| n == name),
                "metric {name} is not declared for this mode"
            );
        }
        let metrics: Vec<String> = declared
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted > 0 && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The smallest of `values` (0 when empty).
pub fn smallest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The nearest-rank `q`-quantile of `values` (0 when empty).
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `d` in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `d` in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The process's peak resident set in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names in one `BENCHMARK.json` metric list, in order.
    fn declared_names(json: &str, list: &str) -> Vec<String> {
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_the_benchmark_declaration() {
        let json = include_str!("../../BENCHMARK.json");
        let names = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(declared_names(json, "end_to_end"), names(END_TO_END));
        assert_eq!(declared_names(json, "per_layer"), names(PER_LAYER));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(smallest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(smallest(&[]), 0.0);
    }
}
