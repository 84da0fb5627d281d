//! The heterogeneous pipeline in detail: run EBE-MCG@CPU-GPU and print the
//! per-step breakdown — solver@GPU vs predictor@CPU times and the
//! adaptively chosen snapshot window `s` (the paper's Fig. 4). Exports the
//! single-GH200 timeline as Chrome-trace JSON and both nodes' summaries as
//! a bench-snapshot metrics file (`HETSOLVE_TRACE` / `HETSOLVE_METRICS`
//! override the paths).
//!
//! ```bash
//! cargo run --release --example ensemble_hetero
//! ```

use hetsolve::ckpt::CheckpointStore;
use hetsolve::core::{
    run_with, Backend, CheckpointPolicy, Hooks, MethodKind, RunConfig, StepTracer,
};
use hetsolve::fem::{FemProblem, RandomLoadSpec};
use hetsolve::machine::{alps_node, single_gh200};
use hetsolve::mesh::{GroundModelSpec, InterfaceShape};
use hetsolve::obs::{Json, MetricsSink};

fn main() {
    let spec = GroundModelSpec::paper_like(6, 6, 4, InterfaceShape::Stratified);
    let backend = Backend::new(FemProblem::paper_like(&spec), false, true);

    std::fs::create_dir_all("target/artifacts").expect("create artifact dir");
    let trace_path = std::env::var("HETSOLVE_TRACE")
        .unwrap_or_else(|_| "target/artifacts/ensemble_trace.json".into());
    let metrics_path = std::env::var("HETSOLVE_METRICS")
        .unwrap_or_else(|_| "target/artifacts/ensemble_metrics.json".into());
    let mut metrics = MetricsSink::new();
    metrics.set_meta("generator", Json::from("example ensemble_hetero"));
    metrics.set_meta("n_dofs", Json::from(backend.n_dofs()));

    for (label, node) in [
        ("single-GH200", single_gh200()),
        ("Alps module (634 W cap)", alps_node()),
    ] {
        println!("\n=== EBE-MCG@CPU-GPU on {label} ===");
        let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, node, 80);
        cfg.r = 4;
        cfg.s_max = 16;
        cfg.load = RandomLoadSpec {
            n_sources: 12,
            impulses_per_source: 3.0,
            amplitude: 1e6,
            active_window: 0.1,
        };
        let mut tracer = StepTracer::new();
        // The single-GH200 leg runs with a checkpoint store so it leaves
        // crash-consistent checkpoints under target/artifacts/.
        let ckpt_dir = "target/artifacts/ensemble_ckpt";
        let store;
        let mut hooks = Hooks::default().tracer(&mut tracer);
        if label == "single-GH200" {
            let _ = std::fs::remove_dir_all(ckpt_dir);
            store = CheckpointStore::new(ckpt_dir, 3).expect("open checkpoint store");
            hooks = hooks.durable(&store, CheckpointPolicy { every: 16, keep: 3 });
        }
        let result = run_with(&backend, &cfg, hooks).expect("run");
        if let Some(d) = &result.durable {
            println!(
                "wrote {} checkpoints ({} B each) under {ckpt_dir}",
                d.checkpoints_written, d.checkpoint_bytes,
            );
        }
        for row in tracer.sink.methods() {
            let mut row = row.clone();
            row.method = format!("{} ({label})", row.method);
            metrics.push_method(row);
        }
        if label == "single-GH200" {
            if let Some(log) = tracer
                .sink
                .to_json()
                .get("sections")
                .and_then(|s| s.get("window_log").cloned())
            {
                metrics.set_section("window_log", log);
            }
            tracer.trace.write_to(&trace_path).expect("write trace");
        }

        println!(
            "{:>5} | {:>10} | {:>10} | {:>6} | {:>6} | {:>9}",
            "step", "solver (s)", "predict (s)", "s", "iters", "init res"
        );
        for rec in result.records.iter().step_by(8) {
            println!(
                "{:>5} | {:>10.5} | {:>10.5} | {:>6} | {:>6.1} | {:>9.2e}",
                rec.step,
                rec.solver_time_per_case,
                rec.predictor_time_per_case,
                rec.s_used,
                rec.iterations,
                rec.initial_rel_res
            );
        }
        let from = 40;
        println!(
            "steady state: {:.5} s/step/case (solver {:.5}, predictor {:.5}), {:.1} iters, {:.1} J/step/case, {:.0} W module power",
            result.mean_step_time(from),
            result.mean_solver_time(from),
            result.mean_predictor_time(from),
            result.mean_iterations(from),
            result.energy_per_step_per_case(),
            result.energy.avg_power,
        );
    }
    println!("\nAs in the paper's Fig. 4, the window s grows until the predictor@CPU");
    println!("time balances the solver@GPU time; under the Alps power cap the GPU");
    println!("throttles, so the balance lands at a different point (Table 4).");

    metrics.write_to(&metrics_path).expect("write metrics");
    println!("\nwrote {trace_path} (single-GH200 timeline; open in ui.perfetto.dev)");
    println!("wrote {metrics_path} (bench-snapshot schema)");
}
