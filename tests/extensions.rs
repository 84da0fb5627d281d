//! Integration tests of the extension features (nonlinear analysis,
//! real-thread pipelining) at the facade level.

use hetsolve::core::{
    run, run_nonlinear, run_realtime, Backend, Hooks, MethodKind, RunConfig, StepTracer,
};
use hetsolve::fem::{FemProblem, HyperbolicModel, RandomLoadSpec};
use hetsolve::machine::single_gh200;
use hetsolve::mesh::{GroundModelSpec, InterfaceShape};

fn backend() -> Backend {
    let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
    Backend::new(FemProblem::paper_like(&spec), false, true)
}

fn base_cfg(steps: usize) -> RunConfig {
    let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), steps);
    cfg.r = 2;
    cfg.s_max = 6;
    cfg.load = RandomLoadSpec {
        n_sources: 6,
        impulses_per_source: 2.0,
        amplitude: 1e6,
        active_window: 0.25,
    };
    cfg
}

#[test]
fn nonlinear_reduces_to_linear_for_tiny_strain() {
    // With gamma_ref enormous, the nonlinear driver must reproduce the
    // linear single-case trajectory (same solver, same seeds).
    let b = backend();
    let mut cfg = base_cfg(8);
    cfg.r = 1; // nonlinear driver is single-case; compare against case 0
    let linearish = HyperbolicModel::new(1e9, 0.01);
    let nl = run_nonlinear(&b, &cfg, &linearish, 1e-9, 2, &mut StepTracer::disabled())
        .expect("nonlinear");
    // a plain linear run of the same case: use the modeled EBE driver
    let lin = run(&b, &cfg).expect("run");
    let scale = lin.final_u[0]
        .iter()
        .map(|v| v.abs())
        .fold(0.0f64, f64::max);
    assert!(scale > 0.0);
    for (i, (&a, &bv)) in nl.final_u.iter().zip(&lin.final_u[0]).enumerate() {
        assert!((a - bv).abs() < 1e-5 * scale, "dof {i}: {a} vs {bv}");
    }
}

#[test]
fn realtime_pipeline_overlap_report_is_sane() {
    let b = backend();
    let cfg = base_cfg(6);
    let (final_u, rep) = run_realtime(&b, &cfg, Hooks::default()).expect("realtime");
    assert_eq!(final_u.len(), 2 * cfg.r);
    assert!(rep.wall > 0.0);
    // device busy times are bounded by the wall on each side
    assert!(rep.solver_busy <= rep.wall * 1.05);
    // overlap factor lives in (0, 2]
    assert!(rep.overlap_factor > 0.0 && rep.overlap_factor <= 2.0 + 1e-9);
}
