//! `hetbench compare <a.json> <b.json>`: is run `b` no worse than run `a`?
//!
//! Both files are `hetbench.json` outputs of `hetbench all`. Every
//! end-to-end metric of every workload may be worse in `b` by at most its
//! bound from `BENCHMARK.json`; the count metrics must match exactly; and
//! neither run may have a failed operation.

use hetsolve::obs::Json;

use crate::report::{dig, format_value, Declarations, MetricDecl};

/// Per-layer metrics that are exact counts of a deterministic schedule:
/// two runs of one commit and seed must agree to the last digit.
pub fn is_exact_count(name: &str) -> bool {
    name.contains("_iters")
        || matches!(
            name,
            "serve.ticks"
                | "serve.occupancy_mean"
                | "core.allocs_per_step"
                | "core.modeled_step_case_us"
        )
}

/// Share of `a` by which `b` is worse (negative: better).
pub fn worsening(decl: &MetricDecl, a: f64, b: f64) -> f64 {
    if decl.better == "lower" {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

fn metric(run: &Json, workload: &str, pass: &str, name: &str) -> Option<f64> {
    dig(
        run,
        &["workloads", workload, pass, "metrics", name, "value"],
    )?
    .as_f64()
}

fn failed(run: &Json, workload: &str, pass: &str) -> Option<f64> {
    dig(run, &["workloads", workload, pass, "failed"])?.as_f64()
}

/// Print the comparison; returns the violations found.
pub fn compare(decls: &Declarations, a: &Json, b: &Json) -> Vec<String> {
    let mut violations = Vec::new();
    println!(
        "{:<18} {:<28} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for (workload, _) in &decls.workloads {
        for pass in ["end_to_end", "per_layer"] {
            for side in [a, b] {
                if failed(side, workload, pass).is_some_and(|f| f > 0.0) {
                    violations.push(format!("{workload}: failed operations in the {pass} pass"));
                }
            }
        }
        for d in &decls.end_to_end {
            let name = d.name.as_str();
            let (Some(va), Some(vb)) = (
                metric(a, workload, "end_to_end", name),
                metric(b, workload, "end_to_end", name),
            ) else {
                violations.push(format!("{workload}: {name} missing from a run"));
                continue;
            };
            let worse = worsening(d, va, vb);
            let bound = d.bound.expect("end-to-end metrics have bounds");
            println!(
                "{workload:<18} {name:<28} {:>14} {:>14} {:>8.2}% {:>6.0}%",
                format_value(va),
                format_value(vb),
                100.0 * worse,
                100.0 * bound
            );
            // a NaN comparison is a violation too
            if worse.is_nan() || worse > bound {
                violations.push(format!(
                    "{workload}: {name} worse by {:.2}% (bound {:.0}%)",
                    100.0 * worse,
                    100.0 * bound
                ));
            }
        }
        for d in decls.per_layer.iter().filter(|d| is_exact_count(&d.name)) {
            let name = d.name.as_str();
            let (Some(va), Some(vb)) = (
                metric(a, workload, "per_layer", name),
                metric(b, workload, "per_layer", name),
            ) else {
                continue; // a run without the traced pass has no counts
            };
            println!(
                "{workload:<18} {name:<28} {:>14} {:>14} {:>9} {:>7}",
                format_value(va),
                format_value(vb),
                if va == vb { "same" } else { "DIFFERS" },
                "exact"
            );
            if va != vb {
                violations.push(format!("{workload}: count {name} differs: {va} vs {vb}"));
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve::obs::parse_json;

    fn run_file(step_case_ms: f64, ticks: f64, failed: usize) -> Json {
        let decls = Declarations::load();
        let entry = |v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::from("x"))]);
        let e2e: Vec<(String, Json)> = decls
            .end_to_end
            .iter()
            .map(|d| {
                let v = if d.name == "step_case_ms" {
                    step_case_ms
                } else {
                    10.0
                };
                (d.name.clone(), entry(v))
            })
            .collect();
        let layers = vec![("serve.ticks".to_string(), entry(ticks))];
        let workloads = decls
            .workloads
            .iter()
            .map(|(name, _)| {
                let pass = |m: &[(String, Json)]| {
                    Json::obj([
                        ("failed", Json::from(failed)),
                        ("metrics", Json::Obj(m.iter().cloned().collect())),
                    ])
                };
                let w = Json::obj([("end_to_end", pass(&e2e)), ("per_layer", pass(&layers))]);
                (name.clone(), w)
            })
            .collect();
        // through text, as the command reads it
        let file = Json::obj([("workloads", Json::Obj(workloads))]);
        parse_json(&file.to_string_pretty()).unwrap()
    }

    #[test]
    fn equal_runs_and_small_drifts_pass() {
        let decls = Declarations::load();
        assert!(compare(&decls, &run_file(20.0, 70.0, 0), &run_file(20.0, 70.0, 0)).is_empty());
        assert!(compare(&decls, &run_file(20.0, 70.0, 0), &run_file(20.4, 70.0, 0)).is_empty());
        // better is never a violation
        assert!(compare(&decls, &run_file(20.0, 70.0, 0), &run_file(10.0, 70.0, 0)).is_empty());
    }

    #[test]
    fn regressions_count_drift_and_failures_are_violations() {
        let decls = Declarations::load();
        let base = run_file(20.0, 70.0, 0);
        let slow = compare(&decls, &base, &run_file(30.0, 70.0, 0));
        assert_eq!(slow.len(), decls.workloads.len());
        assert!(slow[0].contains("step_case_ms"));
        let drift = compare(&decls, &base, &run_file(20.0, 71.0, 0));
        assert!(drift.iter().all(|v| v.contains("serve.ticks")) && !drift.is_empty());
        assert!(!compare(&decls, &base, &run_file(20.0, 70.0, 1)).is_empty());
    }

    #[test]
    fn direction_and_exact_names() {
        let lower = MetricDecl {
            name: "t".into(),
            unit: "ms".into(),
            better: "lower".into(),
            bound: Some(0.1),
        };
        let higher = MetricDecl {
            better: "higher".into(),
            ..lower.clone()
        };
        assert!((worsening(&lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(&higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(is_exact_count("sparse.mcg_iters") && is_exact_count("core.cg_iters_steady"));
        assert!(is_exact_count("serve.ticks") && !is_exact_count("sparse.mcg_iter_ms"));
    }
}
