//! Convergence study (the paper's Fig. 3): warm up a single-case
//! time-history simulation, then at one representative step solve the same
//! system repeatedly from different initial guesses — zero, Adams-Bashforth,
//! and the data-driven predictor at several window sizes — recording the
//! full CG residual history of each.

use hetsolve_fem::RandomLoadSpec;
use hetsolve_machine::single_gh200;
use hetsolve_predictor::PredictorScratch;
use hetsolve_sparse::{pcg, CgConfig};

use crate::backend::{Backend, RhsScratch};
use crate::methods::{MethodKind, RunConfig};
use crate::slot::CaseSlot;

/// One initial-guess strategy probed by the study.
#[derive(Debug, Clone)]
pub struct GuessResult {
    pub label: String,
    /// `‖r₀‖/‖f‖` of the guess.
    pub initial_rel_res: f64,
    pub iterations: usize,
    /// Residual history, index 0 = initial.
    pub history: Vec<f64>,
}

/// Full study output.
#[derive(Debug, Clone)]
pub struct ConvergenceStudy {
    /// Step at which the probe was taken.
    pub probe_step: usize,
    pub results: Vec<GuessResult>,
}

/// Configuration of the study.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Time steps to simulate before probing (history build-up).
    pub warmup_steps: usize,
    /// Data-driven windows to probe (paper: 8, 16, 32).
    pub windows: Vec<usize>,
    pub region_dofs: usize,
    pub tol: f64,
    pub seed: u64,
    pub load: RandomLoadSpec,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            warmup_steps: 48,
            windows: vec![8, 16, 32],
            region_dofs: 384,
            tol: 1e-8,
            seed: 4242,
            load: RandomLoadSpec {
                n_sources: 12,
                impulses_per_source: 3.0,
                amplitude: 1e6,
                active_window: 0.3,
            },
        }
    }
}

/// Run the study on a backend (uses the matrix-free operator).
pub fn convergence_study(backend: &Backend, cfg: &StudyConfig) -> ConvergenceStudy {
    let n = backend.n_dofs();
    let s_max = cfg.windows.iter().copied().max().unwrap_or(8).max(1);
    assert!(
        cfg.warmup_steps > s_max + 4,
        "warmup ({}) must exceed the largest window ({s_max}) plus AB history",
        cfg.warmup_steps
    );
    // one case slot stepped like every driver's, with its own solver (the
    // slot reads the load, region size and window of the config, no node)
    let mut run_cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), 0);
    (run_cfg.load, run_cfg.region_dofs, run_cfg.s_max) = (cfg.load, cfg.region_dofs, s_max);
    let mut slot = CaseSlot::with_seed(backend, &run_cfg, cfg.seed, cfg.warmup_steps + 1, 0);
    let mut scratch = RhsScratch::new(n);
    let (mut work, mut predictor) = (vec![0.0; n], PredictorScratch::default());
    let (mut rhs, mut guess) = (vec![0.0; n], vec![0.0; n]);
    let op = backend.ebe_a(1);
    let solve_cfg = CgConfig {
        tol: cfg.tol,
        max_iter: 100_000,
        ..CgConfig::default()
    };

    // warm up with the standard data-driven-accelerated loop so the
    // snapshot history reflects a realistic mid-simulation state
    for step in 0..cfg.warmup_steps {
        slot.build_rhs(backend, &mut rhs, &mut scratch);
        let s = slot.available_s().min(s_max);
        slot.prepare_guess(backend, s, &mut guess, &mut work, &mut predictor);
        let mut x = guess.clone();
        let stats = pcg(&op, &backend.precond, &rhs, &mut x, &solve_cfg);
        assert!(stats.converged, "warmup CG failed at step {step}");
        slot.advance(backend, &mut x, &mut work, None);
    }

    // probe step: solve its system from each guess — zero, then the
    // slot's own guess at window 0 (Adams-Bashforth) and at each window
    let probe = slot.step_index();
    let guesses = [
        ("zero".to_string(), None),
        ("Adams-Bashforth".to_string(), Some(0)),
    ]
    .into_iter()
    .chain(
        cfg.windows
            .iter()
            .map(|&s| (format!("data-driven s={s}"), Some(s))),
    );
    let results = guesses
        .map(|(label, s)| {
            slot.build_rhs(backend, &mut rhs, &mut scratch);
            let window = s.unwrap_or(0);
            slot.prepare_guess(backend, window, &mut guess, &mut work, &mut predictor);
            let mut x = match s {
                Some(_) => guess.clone(),
                None => vec![0.0; n],
            };
            let stats = pcg(&op, &backend.precond, &rhs, &mut x, &solve_cfg);
            GuessResult {
                label,
                initial_rel_res: stats.initial_rel_res,
                iterations: stats.iterations,
                history: stats.history,
            }
        })
        .collect();

    ConvergenceStudy {
        probe_step: probe,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_fem::FemProblem;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    #[test]
    fn study_reproduces_fig3_ordering() {
        let spec = GroundModelSpec::paper_like(4, 4, 3, InterfaceShape::Stratified);
        let backend = Backend::new(FemProblem::paper_like(&spec), false, true);
        let cfg = StudyConfig {
            warmup_steps: 24,
            windows: vec![4, 8, 16],
            ..Default::default()
        };
        let study = convergence_study(&backend, &cfg);
        assert_eq!(study.results.len(), 5);
        let by_label: Vec<(&str, usize, f64)> = study
            .results
            .iter()
            .map(|r| (r.label.as_str(), r.iterations, r.initial_rel_res))
            .collect();
        // zero is worst; AB better; data-driven better still (paper Fig. 3)
        let zero = by_label[0];
        let ab = by_label[1];
        let dd16 = by_label[4];
        assert!(ab.1 <= zero.1, "AB {} vs zero {}", ab.1, zero.1);
        assert!(dd16.1 < ab.1, "dd s=16 {} vs AB {}", dd16.1, ab.1);
        assert!(dd16.2 < ab.2, "dd initial res {} vs AB {}", dd16.2, ab.2);
        // larger window at least as good as the smallest
        let dd4 = by_label[2];
        assert!(dd16.1 <= dd4.1 + 2);
        // histories recorded
        for r in &study.results {
            assert_eq!(r.history.len(), r.iterations + 1);
        }
    }

    /// Every probe — label, iterations, initial residual bits, residual
    /// history CRC — pinned. The iteration counts are those the study's
    /// hand-written warm-up loop computed before the study stepped a
    /// `CaseSlot`; the bits are re-recorded since the predictor history is
    /// stored as `f32` (the warm-up's guesses, so its trajectory, moved).
    #[test]
    fn study_results_are_the_hand_written_loops() {
        let spec = GroundModelSpec::paper_like(4, 4, 3, InterfaceShape::Stratified);
        let backend = Backend::new(FemProblem::paper_like(&spec), false, true);
        let cfg = StudyConfig {
            warmup_steps: 24,
            windows: vec![4, 8, 16],
            ..Default::default()
        };
        let study = convergence_study(&backend, &cfg);
        let got: Vec<(&str, usize, u64, u32)> = study
            .results
            .iter()
            .map(|r| {
                let crc = crate::integrity::crc_f64s(&r.history);
                (
                    r.label.as_str(),
                    r.iterations,
                    r.initial_rel_res.to_bits(),
                    crc,
                )
            })
            .collect();
        assert_eq!(study.probe_step, 24);
        assert_eq!(
            got,
            [
                ("zero", 35, 0x3ff0_0000_0000_0000, 0x9765_6fdf),
                ("Adams-Bashforth", 20, 0x3f3b_b7d4_d2dc_cc3f, 0x8ed2_c539),
                ("data-driven s=4", 16, 0x3f0c_d6ab_155d_2f0d, 0xee0c_e79c),
                ("data-driven s=8", 13, 0x3ef2_aad3_bade_8346, 0x7282_975d),
                ("data-driven s=16", 12, 0x3edb_ab44_3461_9ca3, 0x0b57_c121),
            ]
        );
    }
}
