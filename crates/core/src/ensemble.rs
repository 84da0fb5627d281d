//! Ensemble simulation + dominant-frequency mapping (the paper's target
//! application, Fig. 1): many random-input cases of a ground model are
//! simulated, surface waveforms recorded, and the dominant frequency at
//! each surface point obtained by frequency-domain decomposition.

use hetsolve_machine::NodeSpec;
use hetsolve_signal::{fdd, welch_psd, FddResult, WelchConfig};

use std::path::Path;

use hetsolve_ckpt::CheckpointStore;

use crate::backend::Backend;
use crate::durable::CheckpointPolicy;
use crate::methods::{run, run_with, Hooks, MethodKind, RunConfig, RunResult};
use crate::recovery::RunError;

/// Why an [`EnsembleConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnsembleConfigError {
    /// `n_cases == 0`: an ensemble must simulate at least one case.
    ZeroCases,
    /// `n_steps == 0`: a time-history run must advance at least one step.
    ZeroSteps,
}

impl std::fmt::Display for EnsembleConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnsembleConfigError::ZeroCases => {
                write!(f, "ensemble config: n_cases must be >= 1")
            }
            EnsembleConfigError::ZeroSteps => {
                write!(f, "ensemble config: n_steps must be >= 1")
            }
        }
    }
}

impl std::error::Error for EnsembleConfigError {}

/// Ensemble configuration.
///
/// # Fused-width rounding rule
///
/// Each underlying run advances `run.method.n_cases(run.r)` cases at once
/// (`2r` for EBE-MCG). A case count that is not a multiple of that fused
/// width is rounded **up** to whole runs: `ceil(n_cases / width)` runs are
/// executed, the excess cases are solved with their own seeds and then
/// discarded, and exactly `n_cases` waveforms are returned. Requesting 5
/// cases at `r = 2` therefore costs the same as requesting 8 — keep
/// `n_cases` a multiple of the fused width when throughput matters (the
/// serving layer in `hetsolve-serve` exists to backfill those otherwise
/// wasted lane slots).
#[derive(Debug, Clone)]
pub struct EnsembleConfig {
    /// Cases to simulate (paper: 32 per ground model).
    pub n_cases: usize,
    pub n_steps: usize,
    pub seed: u64,
    pub run: RunConfig,
}

impl EnsembleConfig {
    /// Build a config, rejecting degenerate inputs with a typed error
    /// (previously `n_cases == 0` slipped through and produced an empty,
    /// confusing ensemble downstream).
    pub fn new(
        node: NodeSpec,
        n_cases: usize,
        n_steps: usize,
    ) -> Result<Self, EnsembleConfigError> {
        if n_cases == 0 {
            return Err(EnsembleConfigError::ZeroCases);
        }
        if n_steps == 0 {
            return Err(EnsembleConfigError::ZeroSteps);
        }
        let mut run = RunConfig::new(MethodKind::EbeMcgCpuGpu, node, n_steps);
        run.record_surface = true;
        Ok(EnsembleConfig {
            n_cases,
            n_steps,
            seed: 7_777,
            run,
        })
    }
}

/// Result: surface observation layout + per-case waveforms.
#[derive(Debug, Clone)]
pub struct EnsembleResult {
    /// Observed surface nodes (global ids).
    pub surface_nodes: Vec<u32>,
    /// Their coordinates.
    pub coords: Vec<[f64; 3]>,
    /// Waveforms `[case][point][step]` (surface z-displacement).
    pub waveforms: Vec<Vec<Vec<f64>>>,
    pub dt: f64,
}

impl EnsembleResult {
    pub fn n_cases(&self) -> usize {
        self.waveforms.len()
    }

    pub fn n_points(&self) -> usize {
        self.surface_nodes.len()
    }

    /// Ensemble-averaged PSD of one surface point.
    pub(crate) fn mean_psd(&self, point: usize, cfg: &WelchConfig) -> Vec<f64> {
        let mut acc = vec![0.0; cfg.n_bins()];
        for case in &self.waveforms {
            let psd = welch_psd(&case[point], cfg);
            for (a, p) in acc.iter_mut().zip(&psd) {
                *a += p;
            }
        }
        let norm = 1.0 / self.n_cases().max(1) as f64;
        for a in acc.iter_mut() {
            *a *= norm;
        }
        acc
    }

    /// Dominant frequency (Hz) at every surface point: peak of the
    /// ensemble-averaged spectrum below `f_max` (the per-point map of
    /// Fig. 1).
    pub fn dominant_frequency_map(&self, cfg: &WelchConfig, f_max: f64) -> Vec<f64> {
        (0..self.n_points())
            .map(|p| {
                let psd = self.mean_psd(p, cfg);
                let max_bin =
                    ((f_max * cfg.segment as f64 * cfg.dt).floor() as usize).min(cfg.n_bins() - 1);
                cfg.frequency(hetsolve_signal::peak_bin(&psd, max_bin))
            })
            .collect()
    }

    /// Multi-channel FDD over a subset of points in one case (mode shapes).
    pub fn fdd_case(&self, case: usize, points: &[usize], cfg: &WelchConfig) -> FddResult {
        let chans: Vec<&[f64]> = points
            .iter()
            .map(|&p| self.waveforms[case][p].as_slice())
            .collect();
        fdd(&chans, cfg)
    }
}

/// The batch loop both ensemble drivers share: `ceil(n_cases / width)`
/// fused runs, batch `k` seeded `cfg.seed + k·width` and handed to
/// `run_batch`, whose waveforms (found by `waveforms_of`) are collected up
/// to `n_cases`.
fn run_batches<T>(
    backend: &Backend,
    cfg: &EnsembleConfig,
    mut run_batch: impl FnMut(usize, &RunConfig) -> Result<T, RunError>,
    waveforms_of: impl Fn(&T) -> &[Vec<Vec<f64>>],
) -> Result<(EnsembleResult, Vec<T>), RunError> {
    let cases_per_run = cfg.run.method.n_cases(cfg.run.r).max(1);
    let n_runs = cfg.n_cases.div_ceil(cases_per_run);
    let mut waveforms = Vec::with_capacity(cfg.n_cases);
    let mut runs = Vec::with_capacity(n_runs);
    for batch in 0..n_runs {
        let mut rc = cfg.run.clone();
        rc.n_steps = cfg.n_steps;
        rc.record_surface = true;
        rc.seed = cfg.seed + (batch * cases_per_run) as u64;
        let out = run_batch(batch, &rc)?;
        let room = cfg.n_cases - waveforms.len();
        waveforms.extend(waveforms_of(&out).iter().take(room).cloned());
        runs.push(out);
    }
    let coords = backend
        .problem
        .surface_nodes
        .iter()
        .map(|&n| backend.problem.model.mesh.coords[n as usize])
        .collect();
    Ok((
        EnsembleResult {
            surface_nodes: backend.problem.surface_nodes.clone(),
            coords,
            waveforms,
            dt: backend.problem.newmark.dt,
        },
        runs,
    ))
}

/// Run the ensemble on an existing backend (already-built problem).
pub fn run_ensemble(
    backend: &Backend,
    cfg: &EnsembleConfig,
) -> Result<(EnsembleResult, Vec<RunResult>), RunError> {
    run_batches(backend, cfg, |_, rc| run(backend, rc), |r| &r.waveforms)
}

/// Like [`run_ensemble`], but every fused batch runs durably ([`run_with`]
/// given a store, same method), checkpointing into `<dir>/batch<k>/`. A
/// killed ensemble re-invoked with the same `dir` skips nothing it has not
/// computed: each batch resumes bitwise-identically from its own newest
/// valid checkpoint, so only the interrupted batch's tail and the batches
/// never started are re-executed. Each result's `durable` is `Some`.
pub fn run_ensemble_durable(
    backend: &Backend,
    cfg: &EnsembleConfig,
    dir: &Path,
    policy: CheckpointPolicy,
) -> Result<(EnsembleResult, Vec<RunResult>), RunError> {
    run_batches(
        backend,
        cfg,
        |batch, rc| {
            let store = CheckpointStore::new(dir.join(format!("batch{batch}")), policy.keep)
                .map_err(|e| RunError::Checkpoint {
                    message: format!("open store for batch {batch}: {e}"),
                })?;
            run_with(backend, rc, Hooks::default().durable(&store, policy))
        },
        |r| &r.waveforms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_fem::{FemProblem, RandomLoadSpec};
    use hetsolve_machine::single_gh200;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    fn quick_cfg(n_cases: usize, n_steps: usize) -> EnsembleConfig {
        let mut cfg = EnsembleConfig::new(single_gh200(), n_cases, n_steps).expect("valid config");
        cfg.run.r = 2;
        cfg.run.s_max = 4;
        cfg.run.load = RandomLoadSpec {
            n_sources: 4,
            impulses_per_source: 2.0,
            amplitude: 1e6,
            active_window: 0.15,
        };
        cfg
    }

    #[test]
    fn ensemble_collects_requested_cases() {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        let backend = Backend::new(FemProblem::paper_like(&spec), false, false);
        let cfg = quick_cfg(5, 6);
        let (res, runs) = run_ensemble(&backend, &cfg).expect("ensemble");
        assert_eq!(res.n_cases(), 5);
        assert_eq!(runs.len(), 2); // 4 cases per EBE run -> 2 batches
        assert_eq!(res.n_points(), backend.problem.surface_nodes.len());
        assert_eq!(res.waveforms[0][0].len(), 6);
        assert_eq!(res.coords.len(), res.n_points());
    }

    #[test]
    fn degenerate_configs_are_rejected_typed() {
        assert_eq!(
            EnsembleConfig::new(single_gh200(), 0, 8).unwrap_err(),
            EnsembleConfigError::ZeroCases
        );
        assert_eq!(
            EnsembleConfig::new(single_gh200(), 4, 0).unwrap_err(),
            EnsembleConfigError::ZeroSteps
        );
        assert!(EnsembleConfig::new(single_gh200(), 1, 1).is_ok());
    }

    #[test]
    fn cases_differ_across_batches() {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        let backend = Backend::new(FemProblem::paper_like(&spec), false, false);
        let cfg = quick_cfg(8, 8);
        let (res, _) = run_ensemble(&backend, &cfg).expect("ensemble");
        // at least two cases must differ (different seeds)
        let a = &res.waveforms[0];
        let b = &res.waveforms[5];
        let differ = a
            .iter()
            .zip(b)
            .any(|(wa, wb)| wa.iter().zip(wb).any(|(x, y)| (x - y).abs() > 1e-12));
        assert!(differ);
    }
}
