//! Nonlinear site response — the extension the paper motivates for the
//! matrix-free method (§2.2/§3: EBE "enables the use of the proposed method
//! for solving nonlinear problems" because the operator is never
//! assembled). Strong shaking degrades the sediment's secant shear modulus
//! (equivalent-linear hyperbolic law); the per-step "reassembly" is a
//! 16-float geometry refresh per element instead of a global CRS rebuild.
//!
//! Writes `target/artifacts/nonlinear_site.vtk` with the final softening
//! field for ParaView. (The equivalent-linear outer iteration is the one
//! driver without a resumable checkpoint state; see DESIGN.md §12.)
//!
//! ```bash
//! cargo run --release --example nonlinear_site
//! ```

use hetsolve::core::{run_nonlinear, Backend, MethodKind, RunConfig, StepTracer};
use hetsolve::fem::{FemProblem, HyperbolicModel, RandomLoadSpec};
use hetsolve::machine::single_gh200;
use hetsolve::mesh::{Field, GroundModelSpec, InterfaceShape};

fn main() {
    let spec = GroundModelSpec::paper_like(5, 5, 4, InterfaceShape::Basin);
    let backend = Backend::new(FemProblem::paper_like(&spec), false, true);

    let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), 60);
    cfg.load = RandomLoadSpec {
        n_sources: 20,
        impulses_per_source: 4.0,
        amplitude: 5e8, // strong shaking
        active_window: 0.3,
    };
    let model = HyperbolicModel::new(1e-4, 0.05);

    println!("running nonlinear (equivalent-linear secant) time history...");
    let res = run_nonlinear(&backend, &cfg, &model, 1e-3, 3, &mut StepTracer::disabled())
        .expect("nonlinear run");

    println!(
        "\n{:>5} | {:>7} | {:>7} | {:>11} | {:>11}",
        "step", "secant", "CG its", "mean mu/mu0", "peak |u| (m)"
    );
    for r in res.records.iter().step_by(6) {
        println!(
            "{:>5} | {:>7} | {:>7} | {:>11.4} | {:>11.3e}",
            r.step, r.secant_iterations, r.cg_iterations, r.mean_ratio, r.peak_u
        );
    }
    let min_ratio = res
        .records
        .iter()
        .map(|r| r.mean_ratio)
        .fold(1.0f64, f64::min);
    println!("\nstrongest mean softening: mu/mu0 = {min_ratio:.4}");
    println!(
        "modeled operator-refresh time: matrix-free EBE {:.4} s vs CRS reassembly {:.2} s ({:.0}x)",
        res.refresh_time_ebe,
        res.refresh_time_crs_equiv,
        res.refresh_time_crs_equiv / res.refresh_time_ebe.max(1e-12),
    );

    // export the final softening field
    let mut state = hetsolve::fem::NonlinearState::from_compact(&backend.compact);
    let mut compact = backend.compact.clone();
    state.update(
        &mut compact,
        &backend.problem.model.mesh,
        &res.final_u,
        &model,
    );
    std::fs::create_dir_all("target/artifacts").expect("create artifact dir");
    let out = "target/artifacts/nonlinear_site.vtk";
    hetsolve::mesh::write_vtk_file(
        out,
        &backend.problem.model.mesh,
        &[],
        &[Field {
            name: "secant_ratio",
            values: &state.ratio,
        }],
    )
    .expect("VTK export failed");
    println!("wrote {out} (cell field: secant modulus ratio)");
}
