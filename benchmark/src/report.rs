//! Metric catalogue and the one-line run result.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a test
//! keeps the two in step.

use crate::json::Json;

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them; the README maps each to what it means per workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics that only some workloads measure, as `(name, unit,
/// bound)`, lower being better. The result line carries exactly the
/// `BENCHMARK.json` metrics, which every workload reports, so the
/// single-workload form prints these on the line before it, `run --out`
/// records them with the rest and `compare` holds them to the bound here.
pub const WORKLOAD_SPECIFIC: [(&str, &str, f64); 1] = [
    // Median over the open-loop windows of each window's p99.
    ("serve_p99_us", "us", 0.10),
];

/// Per-layer metrics from the traced pass. A workload that does not run a
/// layer reports its figures as 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    // Sweep chunk loop, per trial of the replay.
    ("core.dist.draw_ns", "ns/trial"),
    ("core.lanes.to_planes_ns", "ns/trial"),
    ("core.lanes.from_planes_ns", "ns/trial"),
    ("sim.jit.run_ns", "ns/trial"),
    ("multipliers.mul_x64_ns", "ns/trial"),
    ("adders.gear_x64_ns", "ns/trial"),
    ("core.metrics.accumulate_ns", "ns/trial"),
    ("core.metrics.merge_ns", "ns/trial"),
    ("sim.runner.unattributed_share", "ratio"),
    ("sim.runner.scaling_2t", "ratio"),
    ("sim.trials", "count"),
    ("sim.batches", "count"),
    ("sim.eval_passes", "count"),
    ("sim.lane_utilization", "ratio"),
    ("core.metrics.error_count", "count"),
    ("core.metrics.distinct_errors", "count"),
    ("adders.gear.correction_iterations", "count"),
    // Every workload: traced wall time over untraced wall time.
    ("trace.overhead", "ratio"),
    // Certification pass.
    ("analysis.lint_s", "s"),
    ("analysis.registry.prove_s", "s"),
    ("analysis.audit_s", "s"),
    ("explore.fronts_s", "s"),
    ("certify.unattributed_share", "ratio"),
    ("analysis.bdd.build_s", "s"),
    ("analysis.bdd.count_s", "s"),
    ("analysis.calculus_s", "s"),
    ("analysis.absint_s", "s"),
    ("analysis.components_s", "s"),
    ("analysis.registry.obligations", "count"),
    ("analysis.registry.bdd_nodes", "count"),
    ("analysis.registry.memo_hit_rate", "ratio"),
    ("analysis.bdd.nodes", "count"),
    ("analysis.bdd.ite_hit_rate", "ratio"),
    ("analysis.audit.entries", "count"),
    ("analysis.audit.unsound", "count"),
    ("explore.configs_scored", "count"),
    // Request path, replayed in process per request or item.
    ("server.proto.encode_request_ns", "ns/req"),
    ("server.proto.decode_request_ns", "ns/req"),
    ("server.ladder.select_ns", "ns/req"),
    ("server.tenant.decide_ns", "ns/req"),
    ("server.proto.encode_reply_ns", "ns/req"),
    ("server.proto.decode_reply_ns", "ns/req"),
    ("server.engine.mul_ns_per_item", "ns/item"),
    ("server.engine.sad_ns_per_item", "ns/item"),
    ("server.engine.fir_ns_per_item", "ns/item"),
    ("server.engine.dct_ns_per_item", "ns/item"),
    ("server.transport_queue_us", "us"),
    // Live server counters and generator health.
    ("server.batches", "count"),
    ("server.requests_per_batch", "req/batch"),
    ("server.samples", "count"),
    ("server.exact_forced", "count"),
    ("server.queue_depth_hw", "count"),
    ("server.overloaded", "count"),
    ("server.write_failures", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("loadgen.samples", "count"),
    ("serve.p999_us", "us"),
];

/// What one workload run produced: operation counts, metric values and any
/// correctness problems found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (repetitions, obligations or requests).
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable descriptions of every failed check.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|&(n, _)| n == name)
                || WORKLOAD_SPECIFIC.iter().any(|&(n, _, _)| n == name),
            "{name} is not in the metric catalogue"
        );
        self.values.retain(|(n, _)| *n != name);
        self.values.push((name, value));
    }

    /// The recorded value of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Counts one checked operation, recording `problem` when it failed.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), problem);
    }

    /// Counts `attempted` operations of which `failed` failed, recording
    /// one `problem` for the lot when any did.
    pub fn tally(&mut self, attempted: u64, failed: u64, problem: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.problems.push(problem());
        }
    }

    /// `true` when every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The result object: `correct`, `attempted`, `failed` and every metric
    /// of `catalogue` with its unit (0 for a layer this workload skips).
    #[must_use]
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Json {
        let metrics = catalogue
            .iter()
            .map(|&(name, unit)| metric(name, self.get(name).unwrap_or(0.0), unit))
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// `{"metrics": {...}}` with the [`WORKLOAD_SPECIFIC`] metrics this run
    /// measured, or `None` when it measured none.
    #[must_use]
    pub fn workload_specific_json(&self) -> Option<Json> {
        let metrics: Vec<_> = WORKLOAD_SPECIFIC
            .iter()
            .filter_map(|&(name, unit, _)| Some(metric(name, self.get(name)?, unit)))
            .collect();
        (!metrics.is_empty()).then(|| Json::Obj(vec![("metrics".into(), Json::Obj(metrics))]))
    }
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Json) {
    let m = Json::Obj(vec![
        ("value".into(), Json::Num(value)),
        ("unit".into(), Json::Str(unit.into())),
    ]);
    (name.to_string(), m)
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_every_metric() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.check(true, String::new);
        o.set("setup_s", 0.012_345_678_9);
        o.set("latency_p50_ms", 1.5);
        let line = o.to_json(&END_TO_END).to_string();
        let back = Json::parse(&line).expect("the result line is valid JSON");
        let keys: Vec<&str> = back
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(back.get("attempted").and_then(Json::as_f64), Some(2.0));
        let metrics = back.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = back.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(
            setup.get("value").and_then(Json::as_f64),
            Some(0.012_345_678_9)
        );
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        assert!(!o.correct(), "nothing attempted is not a pass");
        o.check(true, String::new);
        assert!(o.correct());
        o.check(false, || "mismatch".into());
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert_eq!(o.problems, ["mismatch"]);
    }

    #[test]
    fn catalogue_matches_the_benchmark_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared: Vec<(&str, &str)> = spec
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name"),
                        m.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(declared, catalogue, "{key} differs from the catalogue");
        }
    }
}
