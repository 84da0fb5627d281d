//! Nonlinear time-history driver — the paper's motivated extension of the
//! matrix-free method (§2.2: EBE "enabl\[es\] the use of the proposed method
//! for solving nonlinear problems", §3: "the proposed method can be applied
//! to nonlinear problems (which is another advantage of the matrix-free
//! EBE-MCG@CPU-GPU over the CRS-based method)").
//!
//! Equivalent-linear (secant) iteration per time step: solve with the
//! current moduli, update the per-element secant shear modulus from the new
//! strain field, repeat until the moduli settle. With the matrix-free
//! operator the "reassembly" is a 2-slot write per element; the assembled
//! CRS baseline would pay a full global reassembly per secant pass — the
//! modeled cost gap is reported alongside the results.

use hetsolve_fem::{
    refresh_counts_crs, refresh_counts_ebe, CompactElements, HyperbolicModel, NonlinearState,
    RandomLoad, TimeState,
};
use hetsolve_machine::ModuleClock;
use hetsolve_obs::Json;
use hetsolve_predictor::AdamsState;
use hetsolve_sparse::{BlockJacobi, McgWorkspace, SolveError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::backend::{Backend, RhsScratch};
use crate::methods::{driver_cg_config, RunConfig};
use crate::recovery::{solve_set_resumable, RecoveryEvent, RunError};
use crate::trace::StepTracer;

/// Per-step record of a nonlinear run.
#[derive(Debug, Clone, Copy)]
pub struct NonlinearStepRecord {
    pub step: usize,
    /// Secant passes needed this step.
    pub secant_iterations: usize,
    /// CG iterations summed over secant passes.
    pub cg_iterations: usize,
    /// Mean secant modulus ratio after the step (1 = linear).
    pub mean_ratio: f64,
    /// Peak displacement magnitude.
    pub peak_u: f64,
}

/// Result of a nonlinear run.
#[derive(Debug, Clone)]
pub struct NonlinearResult {
    pub records: Vec<NonlinearStepRecord>,
    pub final_u: Vec<f64>,
    /// Modeled time spent on operator refreshes with the matrix-free EBE
    /// path (s, on the config's GPU).
    pub refresh_time_ebe: f64,
    /// Modeled time the CRS path would have spent reassembling (s).
    pub refresh_time_crs_equiv: f64,
    /// Solver recoveries over the whole run (secant passes whose first CG
    /// attempt failed and succeeded only after the zero-guess retry).
    pub recoveries: Vec<RecoveryEvent>,
}

/// Run a single-case nonlinear time history with the matrix-free operator.
///
/// `secant_tol` is the modulus-ratio change below which the per-step
/// secant loop stops (at most `max_secant` passes). An enabled `tracer`
/// records every secant pass's convergence evidence (iterations,
/// termination cause, initial and final residual of its solve, recovery
/// rungs included) in its metrics sink under the `nonlinear_convergence`
/// section, and operator refreshes become labeled GPU spans;
/// [`StepTracer::disabled`] records nothing.
pub fn run_nonlinear(
    backend: &Backend,
    cfg: &RunConfig,
    model: &HyperbolicModel,
    secant_tol: f64,
    max_secant: usize,
    tracer: &mut StepTracer,
) -> Result<NonlinearResult, RunError> {
    let n = backend.n_dofs();
    let mesh = &backend.problem.model.mesh;
    let a = backend.problem.a_coeffs();
    // local mutable copy of the compact data: the nonlinear state rewrites
    // the moduli slots in place
    let mut compact: CompactElements = backend.compact.clone();
    let mut state = NonlinearState::from_compact(&compact);

    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let load = RandomLoad::generate(
        &cfg.load,
        &backend.problem.surface_nodes,
        cfg.n_steps,
        &mut rng,
    );
    let mut time = TimeState::zeros(n);
    let mut adams = AdamsState::new();
    let mut scratch = RhsScratch::new(n);
    let mut f = vec![0.0; n];
    let mut rhs = vec![0.0; n];
    let mut guess = vec![0.0; n];
    let cg_cfg = driver_cg_config(cfg.tol);
    let mut records = Vec::with_capacity(cfg.n_steps);
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    let mut clock = ModuleClock::new(cfg.node.module, cfg.cpu_threads, false);
    tracer.begin_run("EBE nonlinear (secant)", cfg, 1);
    tracer.attach_clock(&mut clock);
    let mut convergence_rows: Vec<Json> = Vec::new();
    let mut refresh_time_ebe = 0.0;
    let mut refresh_time_crs = 0.0;
    let nnzb = backend
        .crs_a
        .as_ref()
        .map(|m| m.nnz_blocks())
        .unwrap_or(27 * mesh.n_nodes());

    let mut workspace = McgWorkspace::default();
    for step in 0..cfg.n_steps {
        load.force_into(step, &mut f);
        backend.problem.mask.project(&mut f);
        adams.predict(&time.u, backend.problem.newmark.dt, &mut guess);
        backend.problem.mask.project(&mut guess);

        // NOTE: the RHS uses the *current* secant moduli (consistent with
        // the system operator); it is refreshed inside the secant loop.
        let mut secant_iterations = 0;
        let mut cg_total = 0;
        let mut x = guess.clone();
        loop {
            let op = backend.compact_op(&compact, (a.c_m, a.c_k, a.c_b), &backend.fixed, 1);
            // matrix-free RHS with current moduli
            backend.newmark_rhs_with(
                &compact,
                &f,
                &time.u,
                &time.v,
                &time.a,
                &mut rhs,
                &mut scratch,
            );
            let precond = BlockJacobi::from_blocks(&op.diagonal_blocks(), backend.parallel);
            x.copy_from_slice(&guess);
            // ladder on a lane of one. The secant guess is the AB guess, so
            // the only retry rung is the zero restart with a raised
            // iteration cap (a hard modulus update can leave the guess far
            // outside the new operator's convergence basin).
            let (stats, attempts) = solve_set_resumable(
                &mut workspace,
                &op,
                &precond,
                &rhs,
                &mut x,
                std::slice::from_ref(&guess),
                &[true],
                &[None],
                &cg_cfg,
                &cg_cfg,
                step,
                0,
                false,
                &mut recoveries,
            );
            if !stats.converged {
                return Err(RunError::Solve(SolveError {
                    step,
                    case: None,
                    termination: stats.case_termination[0],
                    rel_res: stats.final_rel_res[0],
                    iterations: stats.case_iterations[0],
                    attempts,
                }));
            }
            cg_total += stats.case_iterations[0];
            if tracer.is_enabled() {
                convergence_rows.push(Json::obj([
                    ("step", Json::from(step)),
                    ("secant_pass", Json::from(secant_iterations)),
                    ("iterations", Json::from(stats.case_iterations[0])),
                    ("termination", Json::from(stats.case_termination[0].label())),
                    ("initial_rel_res", Json::Num(stats.initial_rel_res[0])),
                    ("final_rel_res", Json::Num(stats.final_rel_res[0])),
                ]));
            }
            secant_iterations += 1;
            drop(precond);
            drop(op);

            let change = state.update(&mut compact, mesh, &x, model);
            refresh_time_ebe += tracer.charge_gpu(
                &mut clock,
                0,
                "EBE modulus refresh",
                &refresh_counts_ebe(compact.n_elems),
                &[("secant_pass", Json::from(secant_iterations))],
            );
            refresh_time_crs += hetsolve_machine::kernel_time(
                &cfg.node.module.gpu,
                &refresh_counts_crs(compact.n_elems, nnzb),
                &hetsolve_machine::ExecCtx::default(),
            );
            if change < secant_tol || secant_iterations >= max_secant {
                break;
            }
        }

        let u_old = std::mem::replace(&mut time.u, x.clone());
        backend
            .problem
            .newmark
            .advance(&time.u, &u_old, &mut time.v, &mut time.a);
        adams.push(&time.v);
        time.step += 1;

        let peak_u = time.u.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        records.push(NonlinearStepRecord {
            step,
            secant_iterations,
            cg_iterations: cg_total,
            mean_ratio: state.mean_ratio(),
            peak_u,
        });
    }

    if tracer.is_enabled() {
        tracer
            .sink
            .set_section("nonlinear_convergence", Json::Arr(convergence_rows));
    }
    Ok(NonlinearResult {
        records,
        final_u: time.u,
        refresh_time_ebe,
        refresh_time_crs_equiv: refresh_time_crs,
        recoveries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodKind;
    use hetsolve_fem::{FemProblem, RandomLoadSpec};
    use hetsolve_machine::single_gh200;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    fn setup() -> (Backend, RunConfig) {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        let backend = Backend::new(FemProblem::paper_like(&spec), false, false);
        let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), 14);
        cfg.load = RandomLoadSpec {
            n_sources: 6,
            impulses_per_source: 2.0,
            amplitude: 5e8, // strong shaking to trigger nonlinearity
            active_window: 0.3,
        };
        (backend, cfg)
    }

    #[test]
    fn strong_shaking_softens_the_ground() {
        let (backend, cfg) = setup();
        let model = HyperbolicModel::new(1e-4, 0.05);
        let res = run_nonlinear(&backend, &cfg, &model, 1e-3, 3, &mut StepTracer::disabled())
            .expect("nonlinear");
        assert_eq!(res.records.len(), cfg.n_steps);
        let min_ratio = res
            .records
            .iter()
            .map(|r| r.mean_ratio)
            .fold(1.0f64, f64::min);
        assert!(
            min_ratio < 0.999,
            "no softening happened (min ratio {min_ratio})"
        );
        // secant loop actually iterated somewhere
        assert!(res.records.iter().any(|r| r.secant_iterations > 1));
    }

    #[test]
    fn weak_shaking_stays_essentially_linear() {
        let (backend, mut cfg) = setup();
        cfg.load.amplitude = 1.0; // negligible forcing
        let model = HyperbolicModel::new(1e-4, 0.05);
        let res = run_nonlinear(&backend, &cfg, &model, 1e-6, 3, &mut StepTracer::disabled())
            .expect("nonlinear");
        let min_ratio = res
            .records
            .iter()
            .map(|r| r.mean_ratio)
            .fold(1.0f64, f64::min);
        assert!(min_ratio > 0.999, "spurious softening: {min_ratio}");
    }

    #[test]
    fn nonlinear_response_differs_from_linear() {
        let (backend, cfg) = setup();
        let strong = HyperbolicModel::new(1e-4, 0.05);
        // gamma_ref so large the model never leaves the linear branch
        let linearish = HyperbolicModel::new(1e6, 0.05);
        let r1 = run_nonlinear(
            &backend,
            &cfg,
            &strong,
            1e-3,
            3,
            &mut StepTracer::disabled(),
        )
        .expect("nonlinear");
        let r2 = run_nonlinear(
            &backend,
            &cfg,
            &linearish,
            1e-3,
            3,
            &mut StepTracer::disabled(),
        )
        .expect("nonlinear");
        let d: f64 = r1
            .final_u
            .iter()
            .zip(&r2.final_u)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let scale = r2.final_u.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        assert!(
            d > 1e-6 * scale,
            "nonlinearity had no effect (max diff {d}, scale {scale})"
        );
    }

    #[test]
    fn traced_nonlinear_logs_convergence_and_matches_untraced() {
        let (backend, mut cfg) = setup();
        cfg.n_steps = 4;
        let model = HyperbolicModel::new(1e-4, 0.05);
        let plain = run_nonlinear(&backend, &cfg, &model, 1e-3, 3, &mut StepTracer::disabled())
            .expect("nonlinear");
        let mut tracer = StepTracer::new();
        let traced =
            run_nonlinear(&backend, &cfg, &model, 1e-3, 3, &mut tracer).expect("nonlinear");
        // tracing must not perturb the numerics
        assert_eq!(plain.final_u, traced.final_u);
        assert_eq!(
            plain.records.iter().map(|r| r.cg_iterations).sum::<usize>(),
            traced
                .records
                .iter()
                .map(|r| r.cg_iterations)
                .sum::<usize>(),
        );
        // one convergence row per secant pass, all converged
        let doc = tracer.sink.to_json();
        let rows = doc
            .get("sections")
            .unwrap()
            .get("nonlinear_convergence")
            .unwrap()
            .items();
        let passes: usize = traced.records.iter().map(|r| r.secant_iterations).sum();
        assert_eq!(rows.len(), passes);
        for row in rows {
            assert_eq!(row.get("termination").unwrap().as_str(), Some("converged"));
            let first = row.get("initial_rel_res").unwrap().as_f64().unwrap();
            let last = row.get("final_rel_res").unwrap().as_f64().unwrap();
            assert!(last <= first);
            assert!(last < cfg.tol);
        }
        // refresh charges became labeled GPU spans
        assert!(tracer
            .trace
            .events()
            .iter()
            .any(|e| e.name == "EBE modulus refresh"));
    }

    #[test]
    fn matrix_free_refresh_is_far_cheaper_than_reassembly() {
        let (backend, cfg) = setup();
        let model = HyperbolicModel::new(1e-4, 0.05);
        let res = run_nonlinear(&backend, &cfg, &model, 1e-3, 2, &mut StepTracer::disabled())
            .expect("nonlinear");
        assert!(
            res.refresh_time_crs_equiv > 10.0 * res.refresh_time_ebe,
            "CRS reassembly {} s vs EBE refresh {} s",
            res.refresh_time_crs_equiv,
            res.refresh_time_ebe
        );
    }
}
