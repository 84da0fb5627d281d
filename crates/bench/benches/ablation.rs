//! Ablation studies of the design choices called out in DESIGN.md:
//!
//! * packed element matrices vs compact matrix-free EBE data (memory),
//! * the EBE block sweep on the host pool vs on the calling thread,
//! * predictor region size sweep,
//! * snapshot-window sweep (iterations saved vs predictor cost),
//! * RCB vs greedy partitioner edge cut,
//! * multi-RHS fusing degree r on the modeled GPU.
//!
//! ```bash
//! cargo bench --bench ablation
//! ```

use hetsolve_bench::{bench_backend, should_run};
use hetsolve_core::{convergence_study, StudyConfig};
use hetsolve_fem::{compact_ebe_counts, ElementMatrices};
use hetsolve_machine::{h100, kernel_time, ExecCtx};
use hetsolve_mesh::{edge_cut, partition_greedy, partition_rcb};
use hetsolve_sparse::LinearOperator;

fn main() {
    if should_run("storage") {
        ablate_storage();
    }
    if should_run("coloring") {
        ablate_coloring();
    }
    if should_run("region") {
        ablate_region_size();
    }
    if should_run("window") {
        ablate_window();
    }
    if should_run("partitioner") {
        ablate_partitioner();
    }
    if should_run("fusing") {
        ablate_fusing();
    }
}

/// Packed element matrices take 7.4 kB/element; the compact kernel keeps
/// ~170 B/element and recomputes them on every apply. (Its speed is
/// measured against the assembled CRS operator, `hetbench`'s
/// `fem.ebe_r1_apply_ms` and `sparse.crs_apply_ms`.)
fn ablate_storage() {
    println!("\n===== ablation: EBE storage (element matrices vs compact geometry) =====\n");
    let backend = bench_backend(8, 8, 5);
    let p = &backend.problem;
    println!(
        "memory: packed element matrices {:.1} MB vs compact geometry {:.1} MB",
        ElementMatrices::compute(&p.model.mesh, &p.materials).bytes() as f64 / 1e6,
        backend.compact.bytes() as f64 / 1e6,
    );
}

fn ablate_coloring() {
    println!("\n===== ablation: phase-parallel block sweep vs serial walk =====\n");
    let backend = bench_backend(8, 8, 5);
    let n = backend.n_dofs();
    let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.4).sin()).collect();
    let mut y = vec![0.0; n];
    let mesh = &backend.problem.model.mesh;
    let plan = hetsolve_fem::ScatterPlan::validate(
        mesh.n_nodes(),
        &mesh.elems,
        &backend.problem.dashpots.faces,
    );
    println!(
        "{} elements: {:?} (element, face) block phases",
        mesh.n_elems(),
        plan.n_phases()
    );
    let par = backend.ebe_a(1);
    let mut seq = backend.ebe_a(1);
    seq.parallel = false;
    let time = |op: &dyn LinearOperator, y: &mut Vec<f64>| {
        #[allow(clippy::disallowed_types, reason = "a benchmark times itself")]
        let t0 = std::time::Instant::now();
        for _ in 0..20 {
            op.apply(&x, y);
        }
        t0.elapsed().as_secs_f64() / 20.0
    };
    let tp = time(&par, &mut y);
    let ts = time(&seq, &mut y);
    println!(
        "host: serial {:.3} ms, pooled {:.3} ms ({:.2}x on {} threads)",
        ts * 1e3,
        tp * 1e3,
        ts / tp,
        hetsolve_pool::threads()
    );
}

fn ablate_region_size() {
    println!("\n===== ablation: predictor region size (DOFs per MGS block) =====\n");
    let backend = bench_backend(6, 6, 4);
    println!(
        "{:>12} | {:>12} | {:>12}",
        "region_dofs", "init res", "iters@1e-8"
    );
    for region in [96usize, 384, 1536, usize::MAX / 2] {
        let cfg = StudyConfig {
            warmup_steps: 40,
            windows: vec![16],
            region_dofs: region.min(backend.n_dofs()),
            ..Default::default()
        };
        let study = convergence_study(&backend, &cfg);
        let dd = study.results.last().unwrap();
        println!(
            "{:>12} | {:>12.3e} | {:>12}",
            region.min(backend.n_dofs()),
            dd.initial_rel_res,
            dd.iterations
        );
    }
    println!("(small regions localize the map; very large regions approach a global POD)");
}

fn ablate_window() {
    println!("\n===== ablation: snapshot window s (accuracy vs predictor cost) =====\n");
    let backend = bench_backend(6, 6, 4);
    let cfg = StudyConfig {
        warmup_steps: 40,
        windows: vec![2, 4, 8, 16, 32],
        ..Default::default()
    };
    let study = convergence_study(&backend, &cfg);
    println!("{:<20} | {:>12} | {:>10}", "guess", "init res", "iters");
    for r in &study.results {
        println!(
            "{:<20} | {:>12.3e} | {:>10}",
            r.label, r.initial_rel_res, r.iterations
        );
    }
    println!("(larger s -> better guess but quadratically growing MGS cost: the Fig. 4 balance)");
}

fn ablate_partitioner() {
    println!("\n===== ablation: RCB vs greedy graph-growing partitioner =====\n");
    let backend = bench_backend(8, 8, 5);
    let mesh = &backend.problem.model.mesh;
    println!("{:>6} | {:>12} | {:>12}", "parts", "RCB cut", "greedy cut");
    for np in [2usize, 4, 8, 16] {
        let rcb = partition_rcb(mesh, np);
        let greedy = partition_greedy(mesh, np);
        println!(
            "{:>6} | {:>12} | {:>12}",
            np,
            edge_cut(mesh, &rcb),
            edge_cut(mesh, &greedy)
        );
    }
}

fn ablate_fusing() {
    println!("\n===== ablation: multi-RHS fusing degree r (modeled H100, paper scale) =====\n");
    println!("{:>3} | {:>14} | {:>14}", "r", "time/case (ms)", "vs r=1");
    let ctx = ExecCtx::default();
    let t1 = kernel_time(
        &h100(),
        &compact_ebe_counts(11_365_697, 145_920, 46_529_709, 1),
        &ctx,
    );
    for r in [1usize, 2, 4, 8] {
        let c = compact_ebe_counts(11_365_697, 145_920, 46_529_709, r);
        let t = kernel_time(&h100(), &c, &ctx) / r as f64;
        println!("{:>3} | {:>14.3} | {:>13.2}x", r, t * 1e3, t1 / t);
    }
    println!("(the paper measures 1.91x from EBE to EBE4; gains saturate as the kernel");
    println!(" becomes compute-bound — the reason the paper stops at r=4)");
}
