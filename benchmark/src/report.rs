//! What a run reports: the metric declarations of `BENCHMARK.json`, the
//! printed tables, the result line and the JSON files.

use std::process::Command;

use hetsolve::obs::{parse_json, Json};

/// The repo-root declaration of every metric, compiled in so the binary
/// and the file cannot disagree about a name, unit, direction or bound.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the baseline by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Declarations {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

fn decls(j: &Json, key: &str) -> Vec<MetricDecl> {
    let text = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without {k}"))
            .to_string()
    };
    j.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key}"))
        .items()
        .iter()
        .map(|m| MetricDecl {
            name: text(m, "name"),
            unit: text(m, "unit"),
            better: text(m, "better"),
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

impl Declarations {
    /// Parse the compiled-in `BENCHMARK.json`; a malformed file is a bug
    /// in this repository, hence the panics.
    pub fn load() -> Self {
        let j = parse_json(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads = j
            .get("workloads")
            .expect("BENCHMARK.json: workloads")
            .items()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).and_then(Json::as_str).expect("workload field");
                (s("name").to_string(), s("why").to_string())
            })
            .collect();
        Declarations {
            run_seconds: j
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads,
            end_to_end: decls(&j, "end_to_end"),
            per_layer: decls(&j, "per_layer"),
        }
    }

    pub fn of(&self, traced: bool) -> &[MetricDecl] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// Walk `path` down nested JSON objects.
pub fn dig<'a>(json: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(json, |j, key| j.get(key))
}

/// One run of one workload, traced or not.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub traced: bool,
    /// Operations (cases or requests) run, and how many failed: a
    /// `RunError`, a refused admission, a terminal state other than
    /// `Done`, or a result that misses its reference.
    pub attempted: usize,
    pub failed: usize,
    /// Operations whose result was compared with a reference, and whether
    /// that reference was a committed golden.
    pub checked: usize,
    pub from_golden: bool,
    /// `(name, value)` of every declared metric of this pass.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts behind the medians and percentiles.
    pub samples: Vec<(&'static str, usize)>,
    /// Wall time of the whole run (s), set-up and checks included.
    pub wall_s: f64,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Panics unless the run produced exactly the declared metrics — a
    /// metric the binary forgot, or one nobody declared, is a bench bug.
    pub fn assert_declared(&self, decls: &Declarations) {
        let want: Vec<&str> = decls
            .of(self.traced)
            .iter()
            .map(|d| d.name.as_str())
            .collect();
        for name in &want {
            assert!(self.value(name).is_some(), "metric {name} was not measured");
        }
        for (name, _) in &self.metrics {
            assert!(want.contains(name), "metric {name} is not declared");
        }
    }

    fn metrics_json(&self, decls: &Declarations) -> Json {
        Json::Obj(
            decls
                .of(self.traced)
                .iter()
                .filter_map(|d| {
                    let v = self.value(&d.name)?;
                    let entry = Json::obj([
                        ("value", Json::Num(v)),
                        ("unit", Json::from(d.unit.as_str())),
                    ]);
                    Some((d.name.clone(), entry))
                })
                .collect(),
        )
    }

    /// The result line: the last line of standard output.
    pub fn result_line(&self, decls: &Declarations) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", self.metrics_json(decls)),
        ])
        .to_string_compact()
    }

    /// Everything about the run, for `--out` files.
    pub fn to_json(&self, decls: &Declarations, meta: &Json) -> Json {
        Json::obj([
            ("workload", Json::from(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("checked", Json::from(self.checked)),
            (
                "reference",
                Json::from(if self.from_golden {
                    "golden"
                } else {
                    "computed"
                }),
            ),
            ("wall_s", Json::Num(self.wall_s)),
            ("metrics", self.metrics_json(decls)),
            (
                "samples",
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(k, n)| (k.to_string(), Json::from(*n)))
                        .collect(),
                ),
            ),
            ("meta", meta.clone()),
        ])
    }

    /// The metric table, one line per metric with its unit.
    pub fn print_table(&self, decls: &Declarations) {
        let pass = if self.traced {
            "per-layer (traced)"
        } else {
            "end-to-end (untraced)"
        };
        println!("== {} seed {} — {pass} ==", self.workload, self.seed);
        for d in decls.of(self.traced) {
            if let Some(v) = self.value(&d.name) {
                println!("  {:<32} {:>14} {}", d.name, format_value(v), d.unit);
            }
        }
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, n)| format!("{k}={n}"))
            .collect();
        println!("  samples: {}", samples.join(" "));
        println!(
            "  operations: attempted {} failed {} (failed_frac {}), {} checked against {} reference; run wall {:.1} s",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.checked,
            if self.from_golden { "golden" } else { "computed" },
            self.wall_s,
        );
    }
}

/// Five significant digits, for the tables only (JSON keeps every digit).
pub fn format_value(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let digits = (4 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run metadata: what was measured, on what, under which load.
pub fn metadata(seed: u64, seconds: f64) -> Json {
    let loadavg = std::fs::read_to_string("/proc/loadavg").ok().and_then(|s| {
        s.split_whitespace()
            .next()
            .and_then(|v| v.parse::<f64>().ok())
    });
    Json::obj([
        (
            "git_commit",
            Json::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::from(command_line("rustc", &["-V"]))),
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
        ),
        ("loadavg_1m_at_start", loadavg.map_or(Json::Null, Json::Num)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
    ])
}

/// Peak resident set of this process so far (MiB), from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    #[test]
    fn benchmark_json_declares_the_workloads_this_binary_runs() {
        let d = Declarations::load();
        let declared: Vec<&str> = d.workloads.iter().map(|(n, _)| n.as_str()).collect();
        let built_in: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared, built_in);
        assert!(d
            .workloads
            .iter()
            .all(|(_, why)| !why.is_empty() && why.len() <= 200));
        assert!((1.0..=60.0).contains(&d.run_seconds));
    }

    #[test]
    fn end_to_end_metrics_have_bounds_and_a_setup_time() {
        let d = Declarations::load();
        assert!(d
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = d
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let largest = d
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest));
        let mut names: Vec<&str> = d
            .end_to_end
            .iter()
            .chain(&d.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names are used once");
    }

    #[test]
    fn table_values_keep_five_digits() {
        assert_eq!(format_value(1234.5678), "1234.6");
        assert_eq!(format_value(0.012345678), "0.012346");
        assert_eq!(format_value(48.0), "48.000");
        assert_eq!(format_value(0.0), "0");
    }
}
