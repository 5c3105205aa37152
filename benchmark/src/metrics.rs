//! The metric names this benchmark reports, in the order they are printed.
//! `BENCHMARK.json` declares the same names and units (a test checks it) and
//! adds direction and regression bound.

use std::collections::BTreeMap;

/// What a user of the system sees. Every workload produces every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Single layers, measured from outside. A workload that does not touch a
/// layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.traced_ops_per_s", "1/s"),
    ("bench.fail_share", "ratio"),
    ("bench.span_count", "count"),
    ("bench.self_time_coverage", "ratio"),
    ("lang.compile_ms_p50", "ms"),
    ("lang.compile_share", "ratio"),
    ("analysis.ops_unmarked", "count"),
    ("analysis.funcs_reuse_ineligible", "count"),
    ("runtime.execute_ms_p50", "ms"),
    ("runtime.base_items_per_s", "1/s"),
    ("runtime.reconstruct_ms_p50", "ms"),
    ("runtime.recompute_exec_ms_p50", "ms"),
    ("runtime.sessions_started", "count"),
    ("runtime.sessions_rejected", "count"),
    ("lineage.items_traced", "count"),
    ("lineage.trace_overhead_s", "s"),
    ("lineage.dedup_item_ratio", "ratio"),
    ("lineage.hash_ns_per_item", "ns"),
    ("lineage.serialize_ns_per_item", "ns"),
    ("lineage.deserialize_ns_per_item", "ns"),
    ("lineage.verify_ns_per_item", "ns"),
    ("lineage.log_bytes", "B"),
    ("lineage.log_bytes_per_item", "B"),
    ("lineage.dedup_log_bytes_per_item", "B"),
    ("cache.speedup_vs_base", "ratio"),
    ("cache.base_median_s", "s"),
    ("cache.probes", "count"),
    ("cache.full_hits", "count"),
    ("cache.multilevel_hits", "count"),
    ("cache.partial_hits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.puts", "count"),
    ("cache.rejected_puts", "count"),
    ("cache.evictions", "count"),
    ("cache.spills", "count"),
    ("cache.restores", "count"),
    ("cache.saved_compute_s", "s"),
    ("cache.compensation_s", "s"),
    ("cache.miss_path_overhead_s", "s"),
    ("cache.probe_ns_per_op", "ns"),
    ("cache.put_ns_per_op", "ns"),
    ("cache.resident_mb", "MB"),
    ("persist.writes", "count"),
    ("persist.bytes", "B"),
    ("persist.wal_bytes", "B"),
    ("persist.failures", "count"),
    ("persist.recovered", "count"),
    ("persist.dropped", "count"),
    ("persist.recover_ms", "ms"),
    ("persist.recovery_s", "s"),
    ("persist.restart_hit_share", "ratio"),
    ("persist.disk_bytes_per_value_byte", "ratio"),
    ("matrix.est_kernel_s", "s"),
    ("matrix.kernel_share", "ratio"),
    ("matrix.tsmm_gflops", "GFLOP/s"),
    ("matrix.gemm_gflops", "GFLOP/s"),
    ("matrix.ew_gb_per_s", "GB/s"),
    ("client.encode_ns_per_req", "ns"),
    ("client.decode_ns_per_resp", "ns"),
    ("client.bytes_per_req", "B"),
    ("client.bytes_per_resp", "B"),
    ("client.retries", "count"),
    ("client.failovers", "count"),
    ("client.submit_p50_us", "us"),
    ("client.fetch_p50_us", "us"),
    ("client.probe_p50_us", "us"),
    ("client.op_p99_ms", "ms"),
    ("limad.srv_requests", "count"),
    ("limad.srv_sheds", "count"),
    ("limad.srv_quota_rejects", "count"),
    ("limad.srv_malformed", "count"),
    ("limad.service_overhead_us_p50", "us"),
    ("limad.shard_imbalance", "ratio"),
    ("limad.start_ms", "ms"),
];

/// Metric values of one run, keyed by declared name.
#[derive(Debug)]
pub struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(declared: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            declared,
            values: BTreeMap::new(),
        }
    }

    /// Records a value; an undeclared name or a non-finite value is a bug in
    /// the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.declared.iter().any(|(n, _)| *n == name),
            "metric '{name}' is not declared"
        );
        assert!(value.is_finite(), "metric '{name}' is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Sums counters of the same names into the metrics.
    pub fn add(&mut self, name: &'static str, value: f64) {
        let so_far = self.values.get(name).copied().unwrap_or(0.0);
        self.set(name, so_far + value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, unit, value)` in declared order; `None` where nothing was set.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, Option<f64>)> {
        self.declared
            .iter()
            .map(|(n, u)| (*n, *u, self.values.get(n).copied()))
            .collect()
    }

    /// The `metrics` object of the result line. Unset values print as
    /// `default` (0 for layers a workload does not touch, `null` for an
    /// end-to-end percentile withheld in a `--smoke` run).
    pub fn to_json(&self, default: &str) -> String {
        let body: Vec<String> = self
            .rows()
            .into_iter()
            .map(|(name, unit, v)| {
                let v = v.map_or_else(|| default.to_string(), |v| format!("{v}"));
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lima_core::obs::{parse_json, Json};

    #[test]
    fn json_holds_every_declared_metric_in_order() {
        let mut m = Metrics::new(END_TO_END);
        m.set("ops_per_s", 12.5);
        m.add("ops_per_s", 0.5);
        let json = parse_json(&m.to_json("null")).expect("valid json");
        for (name, unit) in END_TO_END {
            let entry = json.get(name).expect("declared metric present");
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit));
        }
        assert_eq!(
            json.get("ops_per_s")
                .and_then(|e| e.get("value"))
                .and_then(Json::as_f64),
            Some(13.0)
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_a_bug() {
        Metrics::new(END_TO_END).set("made_up", 1.0);
    }

    /// `BENCHMARK.json` and this file must name the same metrics and units.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let json = parse_json(&text).expect("valid json");
        for (key, declared) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = declared
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::sizing::WORKLOADS);
    }
}
