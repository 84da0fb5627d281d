//! Ground-structure estimation workflow (the paper's Fig. 1 application):
//! simulate ensembles of random-impulse responses on the three ground
//! models (stratified / inclined / basin interface), then map the dominant
//! frequency over the surface by frequency-domain decomposition and compare
//! it with 1-D layer theory (`f ≈ Vs / 4H`).
//!
//! ```bash
//! cargo run --release --example ground_fdd
//! ```

use hetsolve::core::{run_ensemble_durable, Backend, CheckpointPolicy, EnsembleConfig};
use hetsolve::fem::{FemProblem, RandomLoadSpec};
use hetsolve::machine::single_gh200;
use hetsolve::mesh::{GroundModelSpec, InterfaceShape};
use hetsolve::signal::WelchConfig;

fn main() {
    let node = single_gh200();
    let n_steps = 2048;
    let n_cases = 8;

    for (name, shape) in [
        ("(a) stratified", InterfaceShape::Stratified),
        ("(b) inclined", InterfaceShape::Inclined),
        ("(c) basin", InterfaceShape::Basin),
    ] {
        let spec = GroundModelSpec::paper_like(6, 6, 4, shape);
        let backend = Backend::new(FemProblem::paper_like(&spec), false, true);
        let mut cfg = EnsembleConfig::new(node, n_cases, n_steps).expect("valid config");
        cfg.run.r = 4;
        cfg.run.s_max = 8;
        cfg.run.load = RandomLoadSpec {
            n_sources: 24,
            impulses_per_source: 4.0,
            amplitude: 1e6,
            active_window: 0.1,
        };
        // the durable ensemble checkpoints each fused batch under
        // target/artifacts/, so a killed 2048-step run resumes instead of
        // restarting (fresh dir per invocation here: results must reflect
        // this configuration, not stale snapshots)
        let ckpt_dir = std::path::PathBuf::from(format!("target/artifacts/fdd_ckpt_{shape:?}"));
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let (res, _) = run_ensemble_durable(
            &backend,
            &cfg,
            &ckpt_dir,
            CheckpointPolicy {
                every: 512,
                keep: 2,
            },
        )
        .expect("ensemble");

        let welch = WelchConfig::new(512, 256, res.dt);
        let fmap = res.dominant_frequency_map(&welch, 5.0);

        println!("\n=== ground model {name} ===");
        println!(
            "surface points: {}, cases: {}",
            res.n_points(),
            res.n_cases()
        );
        // print a small grid of (x, y, f_dominant, f_theory)
        println!(
            "{:>8} {:>8} | {:>10} | {:>10}",
            "x (m)", "y (m)", "f_FDD (Hz)", "f_1D (Hz)"
        );
        let grid: Vec<usize> = (0..res.n_points())
            .step_by(res.n_points().div_ceil(10).max(1))
            .collect();
        for &p in &grid {
            let c = res.coords[p];
            let f_th = backend.problem.model.theoretical_site_frequency(c[0], c[1]);
            println!(
                "{:>8.1} {:>8.1} | {:>10.3} | {:>10.3}",
                c[0], c[1], fmap[p], f_th
            );
        }
        let mean_f: f64 = fmap.iter().sum::<f64>() / fmap.len() as f64;
        let mean_th: f64 = res
            .coords
            .iter()
            .map(|c| backend.problem.model.theoretical_site_frequency(c[0], c[1]))
            .sum::<f64>()
            / res.coords.len() as f64;
        println!("mean dominant frequency: {mean_f:.3} Hz (1-D theory: {mean_th:.3} Hz)");
        // the grid points of case 0 as channels of one multi-channel FDD
        let f_modal = res.fdd_case(0, &grid, &welch).dominant_frequency(5.0);
        println!("multi-channel FDD over the grid (case 0): {f_modal:.3} Hz");
    }
    println!("\nAs in the paper's Fig. 1, the three interface shapes produce distinct");
    println!("spatial distributions of the surface dominant frequency.");
}
