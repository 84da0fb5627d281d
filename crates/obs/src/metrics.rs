//! Machine-readable run metrics.
//!
//! [`MetricsSink`] aggregates method summaries (the paper's Table-3/4
//! rows), kernel work counters, adaptive-window decisions and free-form
//! sections into one schema-versioned JSON document. `StepTracer` writes
//! it where `HETSOLVE_METRICS` points, and `tests/modeled_golden.rs` pins
//! the modeled rows of one such document against a committed file.
//!
//! Schema (`hetsolve/bench-snapshot/v1`) — units are embedded in field
//! names: `_s` seconds, `_j` joules, `_w` watts, `_bytes` bytes.

use std::io;
use std::path::Path;

use crate::json::Json;

/// Schema identifier embedded in every snapshot (`"schema"` field).
pub const BENCH_SCHEMA: &str = "hetsolve/bench-snapshot/v1";

/// One method row — the machine-readable twin of
/// `hetsolve-core::report::MethodSummary`, kept as plain data so this crate
/// stays dependency-free.
#[derive(Debug, Clone, Default)]
pub struct MethodMetrics {
    /// Method label ("EBE-MCG@CPU-GPU", ...).
    pub method: String,
    /// Cases advanced per run (Table 3: 1, 1, 2, 2r).
    pub n_cases: usize,
    /// Time steps simulated.
    pub steps: usize,
    /// Mean wall time per step per case over the measurement window (s).
    pub step_time_s: f64,
    pub solver_time_s: f64,
    pub predictor_time_s: f64,
    /// Mean CG iterations per case per step.
    pub iterations: f64,
    /// Speedup vs. the baseline row.
    pub speedup: f64,
    /// Time-averaged module power (W).
    pub module_power_w: f64,
    /// Energy per step per case (J).
    pub energy_per_step_j: f64,
    /// Total kernel work over the run: flops, bytes, random transactions.
    pub flops: f64,
    pub bytes: f64,
    pub rand_transactions: f64,
    /// Mean snapshot window over the measurement window (0 when the
    /// data-driven predictor is off).
    pub mean_window_s: f64,
    /// Per-step recoveries performed by the solve ladder (guess downgraded
    /// after an abnormal termination); 0 on a healthy run.
    pub recoveries: usize,
}

impl MethodMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("method", Json::Str(self.method.clone())),
            ("n_cases", Json::from(self.n_cases)),
            ("steps", Json::from(self.steps)),
            ("step_time_s", Json::Num(self.step_time_s)),
            ("solver_time_s", Json::Num(self.solver_time_s)),
            ("predictor_time_s", Json::Num(self.predictor_time_s)),
            ("iterations", Json::Num(self.iterations)),
            ("speedup", Json::Num(self.speedup)),
            ("module_power_w", Json::Num(self.module_power_w)),
            ("energy_per_step_j", Json::Num(self.energy_per_step_j)),
            ("flops", Json::Num(self.flops)),
            ("bytes", Json::Num(self.bytes)),
            ("rand_transactions", Json::Num(self.rand_transactions)),
            ("mean_window_s", Json::Num(self.mean_window_s)),
            ("recoveries", Json::from(self.recoveries)),
        ])
    }
}

/// Aggregator for one snapshot document.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    methods: Vec<MethodMetrics>,
    /// Named free-form sections (partition stats, window log, ...).
    sections: Vec<(String, Json)>,
    /// Document-level metadata (problem size, seed, toolchain, ...).
    meta: Vec<(String, Json)>,
}

impl MetricsSink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set_meta(&mut self, key: &str, value: Json) {
        self.meta.push((key.to_string(), value));
    }

    pub fn push_method(&mut self, row: MethodMetrics) {
        self.methods.push(row);
    }

    /// Attach a named section (overwrites an earlier section of the same
    /// name, so per-run sections can be refreshed).
    pub fn set_section(&mut self, name: &str, value: Json) {
        if let Some(slot) = self.sections.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            self.sections.push((name.to_string(), value));
        }
    }

    pub fn methods(&self) -> &[MethodMetrics] {
        &self.methods
    }

    /// The full snapshot document.
    pub fn to_json(&self) -> Json {
        let mut obj: Vec<(&'static str, Json)> = vec![
            ("schema", Json::from(BENCH_SCHEMA)),
            ("meta", Json::Obj(self.meta.iter().cloned().collect())),
            (
                "methods",
                Json::Arr(self.methods.iter().map(MethodMetrics::to_json).collect()),
            ),
        ];
        let sections = Json::Obj(self.sections.iter().cloned().collect());
        obj.push(("sections", sections));
        Json::obj(obj)
    }

    /// Write the snapshot to an explicit path.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut text = self.to_json().to_string_pretty();
        text.push('\n');
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    fn row(method: &str, t: f64) -> MethodMetrics {
        MethodMetrics {
            method: method.to_string(),
            n_cases: 8,
            steps: 100,
            step_time_s: t,
            solver_time_s: t * 0.9,
            iterations: 40.0,
            speedup: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn snapshot_is_schema_versioned_and_parses() {
        let mut sink = MetricsSink::new();
        sink.set_meta("n_dofs", Json::from(1234usize));
        sink.push_method(row("CRS-CG@CPU", 0.03));
        sink.push_method(row("EBE-MCG@CPU-GPU", 0.001));
        sink.set_section("partition", Json::obj([("n_parts", Json::from(4usize))]));
        let text = sink.to_json().to_string_pretty();
        let v = parse_json(&text).unwrap();
        assert_eq!(v.get("schema").unwrap().as_str(), Some(BENCH_SCHEMA));
        assert_eq!(v.get("methods").unwrap().items().len(), 2);
        assert_eq!(
            v.get("meta").unwrap().get("n_dofs").unwrap().as_f64(),
            Some(1234.0)
        );
        assert_eq!(
            v.get("sections")
                .unwrap()
                .get("partition")
                .unwrap()
                .get("n_parts")
                .unwrap()
                .as_f64(),
            Some(4.0)
        );
    }

    #[test]
    fn sections_overwrite_by_name() {
        let mut sink = MetricsSink::new();
        sink.set_section("x", Json::from(1usize));
        sink.set_section("x", Json::from(2usize));
        let v = sink.to_json();
        assert_eq!(
            v.get("sections").unwrap().get("x").unwrap().as_f64(),
            Some(2.0)
        );
    }
}
