//! Both passes, end to end, on a mesh small enough for a test: each must
//! produce exactly the metrics `BENCHMARK.json` declares and results that
//! match the reference computed through the other operator path.

use hetbench::report::Declarations;
use hetbench::runner::{run_traced, run_untraced};
use hetbench::workloads::{Primary, Workload, WORKLOADS};
use hetsolve::core::MethodKind;

/// A real workload shrunk to the 6x6x4 mesh and a few steps.
fn tiny(base: &Workload, name: &'static str) -> Workload {
    Workload {
        name,
        grid: [6, 6, 4],
        setup_builds: 2,
        unit_steps: base.unit_steps.min(6),
        requests: base.requests.min(16),
        lengths: [1, 2, 3],
        ..*base
    }
}

#[test]
fn every_kind_of_workload_reports_its_declared_metrics() {
    let decls = Declarations::load();
    for (base, name) in [
        (&WORKLOADS[0], "smoke_ebe"),
        (&WORKLOADS[1], "smoke_crs"),
        (&WORKLOADS[3], "smoke_serve"),
    ] {
        let w = tiny(base, name);
        let plain = run_untraced(&w, 7, 0.05).expect("untraced pass");
        plain.assert_declared(&decls);
        assert!(
            plain.correct(),
            "{name}: {} of {} failed",
            plain.failed,
            plain.attempted
        );
        assert!(plain.checked > 0 && !plain.from_golden);
        for (metric, v) in &plain.metrics {
            assert!(v.is_finite() && *v > 0.0, "{name}: {metric} = {v}");
        }

        let traced = run_traced(&w, 7).expect("traced pass");
        traced.report.assert_declared(&decls);
        assert!(traced.report.correct());
        assert!(traced.report.metrics.iter().all(|(_, v)| v.is_finite()));
        // one span per timed call, all under the run's few roots
        let spans = traced.tracer.spans();
        assert!(spans
            .iter()
            .any(|s| s.name == "serve.tick" && s.parent.is_some()));
        assert!(spans.iter().any(|s| s.name == "fem.ebe_apply"));
        let expected_primary = if w.method == MethodKind::CrsCgCpu {
            1
        } else {
            8
        };
        if w.primary == Primary::Batch {
            assert_eq!(traced.report.attempted, expected_primary);
        }
    }
}
