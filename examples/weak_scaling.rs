//! Multi-node execution (the paper's Fig. 2 and Fig. 5): partition the
//! ground model, verify the distributed operator is exactly consistent with
//! the sequential one, then predict weak scaling to 1,920 Alps nodes from
//! the partition's real halo sizes.
//!
//! ```bash
//! cargo run --release --example weak_scaling
//! ```

use hetsolve::ckpt::CheckpointStore;
use hetsolve::core::{
    run_with, Backend, CheckpointPolicy, Hooks, MethodKind, PartitionedProblem, RunConfig,
    StepTracer,
};
use hetsolve::fem::FemProblem;
use hetsolve::machine::{alps_node, weak_scaling_efficiency, weak_scaling_step_time};
use hetsolve::mesh::{GroundModelSpec, InterfaceShape};
use hetsolve::sparse::{pcg, CgConfig, LinearOperator};

fn main() {
    let spec = GroundModelSpec::paper_like(6, 6, 4, InterfaceShape::Stratified);
    let backend = Backend::new(FemProblem::paper_like(&spec), false, true);
    let n = backend.n_dofs();

    // --- consistency: distributed solve == sequential solve (Fig. 2) ---
    let parts = PartitionedProblem::new(&backend.problem, 4, true);
    let mut f: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.17).sin()).collect();
    backend.problem.mask.project(&mut f);
    let cfg = CgConfig {
        tol: 1e-8,
        max_iter: 5000,
        ..Default::default()
    };
    let mut x_seq = vec![0.0; n];
    let s_seq = pcg(&backend.ebe_a(1), &backend.precond, &f, &mut x_seq, &cfg);
    let mut x_dist = vec![0.0; n];
    let s_dist = pcg(&parts, &backend.precond, &f, &mut x_dist, &cfg);
    let max_diff = x_seq
        .iter()
        .zip(&x_dist)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!("distributed vs sequential CG (4 partitions):");
    println!(
        "  iterations {} vs {}, max |Δx| = {max_diff:.2e} -> consistent",
        s_dist.iterations, s_seq.iterations
    );
    println!(
        "  operator cost: {:.1} Mflop/apply",
        parts.counts().flops / 1e6
    );

    // --- weak scaling prediction (Fig. 5) ---
    let node = alps_node();
    let mut run_cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, node, 30);
    run_cfg.r = 4;
    run_cfg.s_max = 8;
    run_cfg.cpu_threads = 16;
    let ckpt_dir = "target/artifacts/weak_scaling_ckpt";
    let _ = std::fs::remove_dir_all(ckpt_dir);
    std::fs::create_dir_all("target/artifacts").expect("create artifact dir");
    let store = CheckpointStore::new(ckpt_dir, 2).expect("open checkpoint store");
    let mut tracer = StepTracer::new();
    let hooks = Hooks::default()
        .tracer(&mut tracer)
        .durable(&store, CheckpointPolicy { every: 10, keep: 2 });
    let result = run_with(&backend, &run_cfg, hooks).expect("run");
    let from = 15;
    let step_time = result.mean_step_time(from) * result.n_cases as f64; // per module wall
    let iters = result.mean_iterations(from);

    // halo pattern from the real partition, scaled to paper-size slabs
    let pat = hetsolve::machine::box_halo_pattern(15.5e6, 4, 4);
    println!("\nweak scaling of EBE-MCG@CPU-GPU on Alps (modeled, per-module slab = model a):");
    println!(
        "{:>8} | {:>8} | {:>12} | {:>10}",
        "nodes", "GPUs", "s/step", "efficiency"
    );
    let t1 = weak_scaling_step_time(&node, step_time, iters, &pat, 1);
    for nodes in [1usize, 8, 32, 128, 480, 960, 1920] {
        let p = nodes * 4;
        let tp = weak_scaling_step_time(&node, step_time, iters, &pat, p);
        let eff = weak_scaling_efficiency(t1, tp);
        println!(
            "{:>8} | {:>8} | {:>12.4} | {:>9.1}%",
            nodes,
            p,
            tp,
            eff * 100.0
        );
    }
    println!("\npaper (Fig. 5): 94.3% efficiency at 1,920 nodes (7,680 GPUs)");
}
