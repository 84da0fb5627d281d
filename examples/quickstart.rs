//! Quickstart: build a small layered ground model, run the paper's four
//! methods on a short time history, and print a Table-3-style comparison.
//! Also exports the observability artifacts: a Chrome-trace timeline of the
//! `EBE-MCG@CPU-GPU` run (load into <https://ui.perfetto.dev> to see the
//! paper's Fig. 4 overlap) and a bench-snapshot metrics file. Override the
//! output paths with `HETSOLVE_TRACE=...` / `HETSOLVE_METRICS=...`.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use hetsolve::ckpt::CheckpointStore;
use hetsolve::core::{
    apply_speedups, format_application_table, run_with, Backend, CheckpointPolicy, Hooks,
    MethodKind, MethodSummary, RunConfig, StepTracer,
};
use hetsolve::fem::{FemProblem, RandomLoadSpec};
use hetsolve::machine::{
    crs_cg_cpu, crs_cg_cpu_gpu, crs_cg_gpu, ebe_mcg_cpu_gpu, single_gh200, ProblemDims,
};
use hetsolve::mesh::{GroundModelSpec, InterfaceShape};
use hetsolve::obs::{Json, MetricsSink};

fn main() {
    // A scaled-down version of the paper's horizontally stratified ground
    // model (950 x 950 x 120 m, soft sediment over bedrock).
    let spec = GroundModelSpec::paper_like(6, 6, 4, InterfaceShape::Stratified);
    let problem = FemProblem::paper_like(&spec);
    println!(
        "built: {} Tet10 elements, {} nodes, {} unknowns, {} dashpot faces, {} fixed DOFs",
        problem.model.mesh.n_elems(),
        problem.n_nodes(),
        problem.n_dofs(),
        problem.dashpots.n_faces(),
        problem.mask.n_fixed(),
    );

    let backend = Backend::new(problem, true, true);
    let node = single_gh200();
    let steps = 60;
    let from = steps / 3;

    // memory columns are evaluated at PAPER scale (46.5M unknowns)
    let dims = ProblemDims::paper_model_a();
    let mems = [
        crs_cg_cpu(&dims),
        crs_cg_gpu(&dims),
        crs_cg_cpu_gpu(&dims, 32),
        ebe_mcg_cpu_gpu(&dims, 32, 4),
    ];

    std::fs::create_dir_all("target/artifacts").expect("create artifact dir");
    let trace_path = std::env::var("HETSOLVE_TRACE")
        .unwrap_or_else(|_| "target/artifacts/quickstart_trace.json".into());
    let metrics_path = std::env::var("HETSOLVE_METRICS")
        .unwrap_or_else(|_| "target/artifacts/quickstart_metrics.json".into());
    let mut metrics = MetricsSink::new();
    metrics.set_meta("generator", Json::from("example quickstart"));
    metrics.set_meta("n_dofs", Json::from(backend.n_dofs()));
    metrics.set_meta("n_steps", Json::from(steps));
    let mut ebe_trace = None;

    let mut rows = Vec::new();
    for (i, method) in [
        MethodKind::CrsCgCpu,
        MethodKind::CrsCgGpu,
        MethodKind::CrsCgCpuGpu,
        MethodKind::EbeMcgCpuGpu,
    ]
    .into_iter()
    .enumerate()
    {
        let mut cfg = RunConfig::new(method, node, steps);
        cfg.s_max = 12;
        cfg.load = RandomLoadSpec {
            n_sources: 12,
            impulses_per_source: 3.0,
            amplitude: 1e6,
            active_window: 0.15,
        };
        let mut tracer = StepTracer::new();
        // The EBE-MCG leg runs with a checkpoint store: every few steps it
        // writes a crash-consistent checkpoint under target/artifacts/, so a
        // killed run resumes bitwise-identically (see DESIGN.md section 12).
        let ckpt_dir = "target/artifacts/quickstart_ckpt";
        let store;
        let mut hooks = Hooks::default().tracer(&mut tracer);
        if method == MethodKind::EbeMcgCpuGpu {
            let _ = std::fs::remove_dir_all(ckpt_dir);
            store = CheckpointStore::new(ckpt_dir, 3).expect("open checkpoint store");
            hooks = hooks.durable(&store, CheckpointPolicy { every: 12, keep: 3 });
        }
        let result = run_with(&backend, &cfg, hooks).expect("run");
        if let Some(d) = &result.durable {
            println!(
                "{:<17} wrote {} checkpoints ({} B each) under {ckpt_dir}",
                method.label(),
                d.checkpoints_written,
                d.checkpoint_bytes,
            );
        }
        println!(
            "{:<17} done: {} cases x {} steps, mean {:.1} CG iterations/step",
            method.label(),
            result.n_cases,
            steps,
            result.mean_iterations(from)
        );
        rows.push(MethodSummary::from_run(&result, mems[i], from));
        for row in tracer.sink.methods() {
            metrics.push_method(row.clone());
        }
        if method == MethodKind::EbeMcgCpuGpu {
            if let Some(log) = tracer
                .sink
                .to_json()
                .get("sections")
                .and_then(|s| s.get("window_log").cloned())
            {
                metrics.set_section("window_log", log);
            }
            ebe_trace = Some(tracer.trace);
        }
    }
    apply_speedups(&mut rows);

    println!("\nTable-3-style comparison (modeled single-GH200 timings, paper-scale memory):\n");
    print!("{}", format_application_table(&rows));
    println!(
        "\npaper (Table 3): speedups 1.00 / 9.96 / 26.1 / 86.4; energy 9944 / 2163 / 1001 / 309 J"
    );

    if let Some(trace) = ebe_trace {
        trace.write_to(&trace_path).expect("write trace");
        println!("\nwrote {trace_path} (EBE-MCG@CPU-GPU timeline; open in ui.perfetto.dev)");
    }
    metrics.write_to(&metrics_path).expect("write metrics");
    println!("wrote {metrics_path} (bench-snapshot schema)");
}
