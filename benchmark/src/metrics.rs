//! The benchmark's metric names and units, and the one-line result each
//! run prints.
//!
//! `BENCHMARK.json` at the repo root is the contract (bounds, direction,
//! why each workload exists); the tables here are the harness's copy of the
//! names and units, pinned to that file by a unit test.

use rush_serve::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("submit_p50_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("deadline_hit_frac", "frac"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.generate_ms", "ms"),
    ("serve.json.decode_request_ns", "ns"),
    ("serve.json.encode_response_ns", "ns"),
    ("serve.json.request_bytes", "B"),
    ("serve.json.response_bytes", "B"),
    ("serve.binary.decode_request_ns", "ns"),
    ("serve.binary.encode_response_ns", "ns"),
    ("serve.binary.request_bytes", "B"),
    ("serve.binary.response_bytes", "B"),
    ("serve.server.epoch_wait_p50_ms", "ms"),
    ("serve.server.epochs", "count"),
    ("serve.server.batch_mean", "count"),
    ("serve.server.hop_p50_us", "us"),
    ("serve.server.reactor_cpu_frac", "frac"),
    ("serve.state.submit_epoch_us", "us"),
    ("serve.state.report_sample_us", "us"),
    ("serve.state.predict_us", "us"),
    ("serve.state.rows_us", "us"),
    ("serve.state.cancel_us", "us"),
    ("serve.state.stats_us", "us"),
    ("serve.state.busy_frac", "frac"),
    ("serve.state.replay_mismatch", "count"),
    ("serve.admission.probe_us", "us"),
    ("serve.snapshot.encode_ms", "ms"),
    ("serve.snapshot.decode_ms", "ms"),
    ("serve.snapshot.bytes", "B"),
    ("planner.replans", "count"),
    ("planner.replan_us_mean", "us"),
    ("planner.replan_us_p90", "us"),
    ("planner.dirty_jobs_per_replan", "count"),
    ("planner.cache_hit_frac", "frac"),
    ("planner.thread_cpu_frac", "frac"),
    ("planner.scheduler.assign_us_mean", "us"),
    ("planner.scheduler.assign_calls_per_event", "count"),
    ("planner.scheduler.on_task_complete_ns", "ns"),
    ("planner.scheduler.on_job_arrival_ns", "ns"),
    ("planner.scheduler.callback_frac", "frac"),
    ("core.solve_us", "us"),
    ("core.peel_us", "us"),
    ("core.map_us", "us"),
    ("core.assemble_us", "us"),
    ("core.peel.delta_frac", "frac"),
    ("core.peel.resume0_frac", "frac"),
    ("core.peel.refreshed_probe_frac", "frac"),
    ("core.map.reused_prefix_frac", "frac"),
    ("sim.events", "count"),
    ("sim.engine_self_s", "s"),
    ("sim.engine_ns_per_event", "ns"),
    ("driver.cpu_frac", "frac"),
    ("driver.late_p99_ms", "ms"),
    ("driver.late_max_ms", "ms"),
    ("driver.submit_tail_ms", "ms"),
    ("driver.submit_tail_pct", "%"),
    ("driver.submit_samples", "count"),
    ("driver.read_tail_ms", "ms"),
    ("driver.read_tail_pct", "%"),
    ("driver.read_samples", "count"),
    ("driver.write_p50_ms", "ms"),
    ("driver.write_tail_ms", "ms"),
    ("driver.write_tail_pct", "%"),
    ("driver.trace_overhead_frac", "frac"),
];

/// Values measured by one run, by metric name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name neither table lists — a typo in the harness itself.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        self.0.insert(name, value);
    }

    /// The recorded value (0 when the run never set it).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The `metrics` object of the result line: every metric of `table`,
    /// each with its value and unit.
    pub fn to_json(&self, table: &[(&str, &str)]) -> Json {
        let fields = table
            .iter()
            .map(|(name, unit)| {
                let value = Json::f64(self.get(name));
                let entry = vec![
                    ("value".to_string(), value),
                    ("unit".to_string(), Json::str(*unit)),
                ];
                ((*name).to_string(), Json::Obj(entry))
            })
            .collect();
        Json::Obj(fields)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (requests sent, or simulation events).
    pub attempted: u64,
    /// Operations that failed (error reply, refused submit, missing reply,
    /// unfinished job).
    pub failed: u64,
    /// The measured values.
    pub metrics: Metrics,
    /// Human-readable findings: failed checks and reconciliation notes.
    pub notes: Vec<String>,
    /// "Where the time goes": one row per span name (traced runs only).
    pub time_table: Vec<TimeRow>,
}

/// One row of the "where the time goes" table.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeRow {
    /// Span (or kernel counter) name.
    pub name: String,
    /// Spans with that name.
    pub count: u64,
    /// Sum of their durations, ms.
    pub total_ms: f64,
    /// The same minus what their child spans cover, ms.
    pub self_ms: f64,
}

impl Outcome {
    /// Records a failed output check.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {}", why.into()));
    }

    /// Fills the time table from the recorded spans plus the kernel's phase
    /// counters (which have no children, so self = total).
    pub fn tabulate(
        &mut self,
        spans: &[crate::trace::Span],
        counters: &[(&'static str, u64, u64)],
    ) {
        let from_spans = crate::trace::totals_by_name(spans)
            .into_iter()
            .map(|(name, t)| TimeRow {
                name: name.to_string(),
                count: t.count,
                total_ms: t.total_ns as f64 / 1e6,
                self_ms: t.self_ns as f64 / 1e6,
            });
        let from_counters = counters.iter().map(|&(name, count, ns)| TimeRow {
            name: name.to_string(),
            count,
            total_ms: ns as f64 / 1e6,
            self_ms: ns as f64 / 1e6,
        });
        self.time_table = from_spans.chain(from_counters).collect();
    }

    /// The one-line JSON result the benchmark contract asks for.
    pub fn result_line(&self, traced: bool) -> String {
        let table = if traced { PER_LAYER } else { END_TO_END };
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::u64(self.attempted.max(1))),
            ("failed".into(), Json::u64(self.failed)),
            ("metrics".into(), self.metrics.to_json(table)),
        ])
        .encode()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the repo root");
        let doc = rush_serve::json::parse(&text).expect("valid json");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(declared(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome {
            correct: true,
            attempted: 10,
            ..Outcome::default()
        };
        out.metrics.set("setup_s", 0.25);
        let doc = rush_serve::json::parse(&out.result_line(false)).expect("valid json");
        let Json::Obj(fields) = &doc else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = doc
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("setup_s");
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        let traced = rush_serve::json::parse(&out.result_line(true)).expect("valid json");
        let Some(Json::Obj(layers)) = traced.get("metrics") else {
            panic!("metrics")
        };
        assert_eq!(layers.len(), PER_LAYER.len());
    }
}
