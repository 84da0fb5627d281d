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
pub(crate) mod tests {
    use super::*;
    use hetsolve_fem::FemProblem;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    /// The study both tests read: windows 4, 8 and 16 after 24 warm-up
    /// steps on the 4×4×3 stratified mesh.
    fn study() -> ConvergenceStudy {
        let spec = GroundModelSpec::paper_like(4, 4, 3, InterfaceShape::Stratified);
        let backend = Backend::new(FemProblem::paper_like(&spec), false, true);
        let cfg = StudyConfig {
            warmup_steps: 24,
            windows: vec![4, 8, 16],
            ..Default::default()
        };
        convergence_study(&backend, &cfg)
    }

    #[test]
    fn study_reproduces_fig3_ordering() {
        let study = study();
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

    /// Every probe in order — label, iterations, initial residual bits,
    /// residual history CRC — as `study/<index>/<label>` lines of the pin
    /// ledger.
    pub(crate) fn pin_lines() -> Vec<(String, String)> {
        let study = study();
        assert_eq!(study.probe_step, 24);
        (study.results.iter().enumerate())
            .map(|(i, r)| {
                let value = format!(
                    "{} {:016x} {:08x}",
                    r.iterations,
                    r.initial_rel_res.to_bits(),
                    crate::integrity::crc_f64s(&r.history)
                );
                (format!("{i}/{}", r.label.replace(' ', "_")), value)
            })
            .collect()
    }

    /// Every probe pinned. The iteration counts are those the study's
    /// hand-written warm-up loop computed before the study stepped a
    /// `CaseSlot`; the bits are re-recorded since the predictor history is
    /// stored as `f32` (the warm-up's guesses, so its trajectory, moved).
    #[test]
    fn study_results_are_the_hand_written_loops() {
        crate::pins::check("study", &pin_lines());
    }
}
