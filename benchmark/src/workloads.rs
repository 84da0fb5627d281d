//! The four workloads and the seeded request mix.
//!
//! Every workload uses the `paper_like` ground model, the same random
//! impulse load, the `single_gh200()` node model, `tol = 1e-8` and the
//! integrity guards at their defaults. Case `c` of a batch run and request
//! `k` of a serve loop use RNG seed `1000 * seed + c` (resp. `+ k`), so
//! `--seed` picks the inputs and the solver sees nothing else of it.
//!
//! A workload is sized as a *unit* of fixed work (one `run` call, or one
//! closed serve loop); a run repeats units until `--seconds` is used up
//! and reports medians over units. Units are identical, so every count a
//! unit produces repeats exactly.

use hetsolve::core::{MethodKind, WindowPolicy};
use hetsolve::fem::RandomLoadSpec;
use hetsolve::mesh::{GroundModelSpec, InterfaceShape};

/// Solver tolerance of every workload (the paper's).
pub const TOL: f64 = 1e-8;

/// Tolerance of the reference solutions the results are checked against.
pub const REFERENCE_TOL: f64 = 1e-11;

/// Predictor region size (the `RunConfig` default, fixed here so the layer
/// pass times the predictor the drivers actually build).
pub const REGION_DOFS: usize = 384;

/// The random impulse load of every case.
pub fn load_spec() -> RandomLoadSpec {
    RandomLoadSpec {
        n_sources: 16,
        impulses_per_source: 3.0,
        amplitude: 1e6,
        active_window: 0.12,
    }
}

/// Which of a workload's two drivers gives its end-to-end metrics. The
/// other one runs only in the traced pass, as a small probe, so that every
/// per-layer metric is measured on every workload's problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primary {
    /// One `run` call per unit.
    Batch,
    /// One closed loop through `EnsembleServer` per unit.
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// As in `BENCHMARK.json`, which also says why the workload exists.
    pub name: &'static str,
    /// `paper_like(nx, ny, nz, shape)`.
    pub grid: [usize; 3],
    pub shape: InterfaceShape,
    /// `Backend::new(problem, with_crs, parallel)`.
    pub with_crs: bool,
    pub parallel: bool,
    /// Builds timed for `setup_s` (the median is reported).
    pub setup_builds: usize,
    pub primary: Primary,
    // the batch driver
    pub method: MethodKind,
    pub r: usize,
    pub s_max: usize,
    pub window: WindowPolicy,
    pub unit_steps: usize,
    // the serve driver: `requests` requests from `clients` closed-loop
    // clients, lengths an exact 1:2:1 mix of `lengths`
    pub clients: usize,
    pub requests: usize,
    pub lengths: [usize; 3],
}

impl Workload {
    /// Cases one batch unit advances.
    pub fn n_cases(&self) -> usize {
        self.method.n_cases(self.r)
    }

    pub fn ground_spec(&self) -> GroundModelSpec {
        GroundModelSpec::paper_like(self.grid[0], self.grid[1], self.grid[2], self.shape)
    }

    /// Base RNG seed of the cases/requests for bench seed `seed`.
    pub fn case_seed(seed: u64) -> u64 {
        1000 * seed
    }

    /// The serve loop's requests for `seed`, in the order clients take them.
    pub fn request_mix(&self, seed: u64) -> Vec<RequestSpec> {
        request_mix(seed, self.requests, self.lengths)
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ebe_mcg_55k",
        grid: [16, 16, 8],
        shape: InterfaceShape::Stratified,
        with_crs: false,
        parallel: true,
        setup_builds: 5,
        primary: Primary::Batch,
        method: MethodKind::EbeMcgCpuGpu,
        r: 4,
        s_max: 16,
        window: WindowPolicy::Adaptive,
        unit_steps: 2,
        clients: 12,
        requests: 12,
        lengths: [1, 1, 1],
    },
    Workload {
        name: "crs_cg_10k",
        grid: [8, 8, 5],
        shape: InterfaceShape::Basin,
        with_crs: true,
        parallel: false,
        setup_builds: 20,
        primary: Primary::Batch,
        method: MethodKind::CrsCgCpu,
        r: 4,
        s_max: 16,
        window: WindowPolicy::Adaptive,
        unit_steps: 32,
        clients: 12,
        requests: 12,
        lengths: [1, 1, 1],
    },
    Workload {
        name: "ebe_mcg_10k_long",
        grid: [8, 8, 5],
        shape: InterfaceShape::Basin,
        with_crs: false,
        parallel: true,
        setup_builds: 50,
        primary: Primary::Batch,
        method: MethodKind::EbeMcgCpuGpu,
        r: 4,
        s_max: 32,
        window: WindowPolicy::Adaptive,
        unit_steps: 96,
        clients: 12,
        requests: 12,
        lengths: [1, 1, 1],
    },
    Workload {
        name: "serve_closed_10k",
        grid: [8, 8, 5],
        shape: InterfaceShape::Basin,
        with_crs: false,
        parallel: true,
        setup_builds: 50,
        primary: Primary::Serve,
        method: MethodKind::EbeMcgCpuGpu,
        r: 4,
        s_max: 16,
        // what the server forces on every request
        window: WindowPolicy::FullWindow,
        unit_steps: 8,
        clients: 16,
        requests: 48,
        lengths: [2, 4, 8],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One request of a serve loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpec {
    /// RNG seed of the request's load (`SolveRequest::seed`).
    pub seed: u64,
    pub n_steps: usize,
}

/// `n` requests of lengths `short, mid, long, mid, short, mid, ...`: an
/// exact 1:2:1 mix in a fixed order, request `k` with load seed
/// `1000 * seed + k`. The seed picks the loads only: with the order fixed
/// the schedule (ticks, occupancy, total steps) is the same for every
/// seed, so seeds differ by what the solver is given to solve and the
/// run-to-run spread is not inflated by luck in the shuffle.
pub fn request_mix(seed: u64, n: usize, lengths: [usize; 3]) -> Vec<RequestSpec> {
    assert!(n.is_multiple_of(4), "request count {n} cannot split 1:2:1");
    let pattern = [lengths[0], lengths[1], lengths[2], lengths[1]];
    let base = Workload::case_seed(seed);
    (0..n)
        .map(|k| RequestSpec {
            seed: base + k as u64,
            n_steps: pattern[k % 4],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_exact_one_two_one_in_a_fixed_order() {
        let a = request_mix(1, 48, [2, 4, 8]);
        assert_eq!(a.len(), 48);
        let count = |len| a.iter().filter(|r| r.n_steps == len).count();
        assert_eq!((count(2), count(4), count(8)), (12, 24, 12));
        assert_eq!(a.iter().map(|r| r.n_steps).sum::<usize>(), 216);
        // request k carries seed 1000*seed + k
        assert!(a.iter().enumerate().all(|(k, r)| r.seed == 1000 + k as u64));
        // same seed, same mix; another seed, other loads in the same order
        assert_eq!(a, request_mix(1, 48, [2, 4, 8]));
        let b = request_mix(2, 48, [2, 4, 8]);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.n_steps == y.n_steps && x.seed != y.seed));
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            // p75 needs at least ten samples beyond it
            if w.primary == Primary::Serve {
                assert!(w.requests / 4 >= 10);
            }
        }
        assert!(find("nope").is_none());
    }
}
