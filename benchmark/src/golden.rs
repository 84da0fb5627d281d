//! The correctness oracle.
//!
//! Every final displacement a run produces is compared with a *reference*
//! computed through the other operator path at a 1000x tighter tolerance:
//! `CRS-CG@CPU` solo runs (assembled matrix, single-RHS `pcg`) check the
//! matrix-free EBE-MCG and serve workloads, and an `EBE-MCG r=1` run checks
//! the CRS workload. A reference is stored as a [`Digest`] per case: the
//! two norms and 32 strided samples of `final_u`.
//!
//! `golden/<workload>.seed<n>.json` caches the full reference of a seed
//! (`hetbench write-golden --seed <n>`). For a seed without a golden the
//! run computes a reference itself after its timed region, for every fifth
//! operation only (cases 0 and 5: one per process set, in different fused
//! columns; ten requests across all three lengths), because a full
//! reference costs as much as the run it checks.

use std::collections::BTreeMap;
use std::path::PathBuf;

use hetsolve::core::{run, Backend, MethodKind, RunConfig};
use hetsolve::fem::FemProblem;
use hetsolve::machine::single_gh200;
use hetsolve::obs::{parse_json, Json};

use crate::workloads::{load_spec, Primary, Workload, REFERENCE_TOL};

/// Without a golden, every this-many-th operation is checked. Coprime to
/// the fused width and to the request-length pattern, so the sample walks
/// through all columns and lengths.
pub const SAMPLE_EVERY: usize = 5;
/// Samples kept per case.
pub const N_SAMPLES: usize = 32;
/// `‖u‖₂` must agree to this relative error (measured gap: ~1e-6).
pub const L2_RTOL: f64 = 1e-5;
/// Each sample must agree to this fraction of the reference `‖u‖∞`.
pub const SAMPLE_TOL: f64 = 1e-4;

#[derive(Debug, Clone, PartialEq)]
pub struct Digest {
    pub l2: f64,
    pub linf: f64,
    pub samples: Vec<f64>,
}

impl Digest {
    pub fn of(u: &[f64]) -> Self {
        let n = u.len();
        assert!(n >= N_SAMPLES, "vector of {n} too short to sample");
        Digest {
            l2: u.iter().map(|v| v * v).sum::<f64>().sqrt(),
            linf: u.iter().fold(0.0f64, |m, v| m.max(v.abs())),
            // mid-stride offset: keeps sample 0 off DOF 0 (a fixed corner)
            samples: (0..N_SAMPLES)
                .map(|i| u[(i * n) / N_SAMPLES + n / (2 * N_SAMPLES)])
                .collect(),
        }
    }

    /// Is `got` the same solution as this reference, within tolerance?
    /// Non-finite values never match.
    pub fn matches(&self, got: &Digest) -> bool {
        let l2_ok = (got.l2 - self.l2).abs() <= L2_RTOL * self.l2;
        let samples_ok = got.samples.len() == self.samples.len()
            && self
                .samples
                .iter()
                .zip(&got.samples)
                .all(|(r, g)| (g - r).abs() <= SAMPLE_TOL * self.linf);
        l2_ok && samples_ok
    }

    fn to_json(&self, case: usize) -> Json {
        Json::obj([
            ("case", Json::from(case)),
            ("l2", Json::Num(self.l2)),
            ("linf", Json::Num(self.linf)),
            (
                "samples",
                Json::Arr(self.samples.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<(usize, Digest)> {
        let case = j.get("case")?.as_f64()? as usize;
        let samples: Option<Vec<f64>> =
            j.get("samples")?.items().iter().map(Json::as_f64).collect();
        Some((
            case,
            Digest {
                l2: j.get("l2")?.as_f64()?,
                linf: j.get("linf")?.as_f64()?,
                samples: samples?,
            },
        ))
    }
}

/// Reference digests by operation: case index for a batch workload,
/// position in the request mix for the serve workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    pub cases: BTreeMap<usize, Digest>,
}

impl Reference {
    /// Compare results with the reference. Returns `(checked, failed)`:
    /// operations the reference covers, and those of them that miss it.
    pub fn check(&self, results: &[(usize, Digest)]) -> (usize, usize) {
        let mut checked = 0;
        let mut failed = 0;
        for (op, got) in results {
            if let Some(want) = self.cases.get(op) {
                checked += 1;
                if !want.matches(got) {
                    failed += 1;
                }
            }
        }
        (checked, failed)
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        Json::obj([
            ("workload", Json::from(workload)),
            ("seed", Json::Num(seed as f64)),
            ("reference_tol", Json::Num(REFERENCE_TOL)),
            (
                "cases",
                Json::Arr(self.cases.iter().map(|(c, d)| d.to_json(*c)).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Reference> {
        let cases: Option<BTreeMap<usize, Digest>> = j
            .get("cases")?
            .items()
            .iter()
            .map(Digest::from_json)
            .collect();
        Some(Reference { cases: cases? })
    }
}

/// Where the golden of `(workload, seed)` lives.
pub fn golden_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{workload}.seed{seed}.json"))
}

/// The committed golden of `(workload, seed)`, if there is one. A golden
/// that exists but does not parse is an error, not a cache miss.
pub fn load_golden(workload: &str, seed: u64) -> Result<Option<Reference>, String> {
    let path = golden_path(workload, seed);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let json = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Reference::from_json(&json)
        .map(Some)
        .ok_or_else(|| format!("{}: not a golden file", path.display()))
}

/// The solo run of one case through `method` at the reference tolerance.
fn solo(
    backend: &Backend,
    method: MethodKind,
    seed: u64,
    n_steps: usize,
) -> Result<Digest, String> {
    let mut cfg = RunConfig::new(method, single_gh200(), n_steps);
    cfg.r = 1;
    cfg.tol = REFERENCE_TOL;
    cfg.seed = seed;
    cfg.load = load_spec();
    let result = run(backend, &cfg).map_err(|e| format!("reference run failed: {e}"))?;
    Ok(Digest::of(&result.final_u[0]))
}

/// Compute the reference of `(w, seed)` through the other operator path:
/// of every operation when `full`, else of every [`SAMPLE_EVERY`]-th, the
/// sample a run can afford.
pub fn compute_reference(w: &Workload, seed: u64, full: bool) -> Result<Reference, String> {
    let problem = FemProblem::paper_like(&w.ground_spec());
    // (operation, load seed, steps) of everything the workload computes
    let base = Workload::case_seed(seed);
    let mut ops: Vec<(usize, u64, usize)> = match w.primary {
        Primary::Batch => (0..w.n_cases())
            .map(|c| (c, base + c as u64, w.unit_steps))
            .collect(),
        Primary::Serve => w
            .request_mix(seed)
            .iter()
            .enumerate()
            .map(|(k, r)| (k, r.seed, r.n_steps))
            .collect(),
    };
    if !full {
        ops.retain(|(op, _, _)| op % SAMPLE_EVERY == 0);
    }
    // the path the workload does NOT use
    let (other, backend) = if w.method == MethodKind::EbeMcgCpuGpu {
        (MethodKind::CrsCgCpu, Backend::new(problem, true, false))
    } else {
        (MethodKind::EbeMcgCpuGpu, Backend::new(problem, false, true))
    };
    let mut cases = BTreeMap::new();
    for (op, case_seed, n_steps) in ops {
        cases.insert(op, solo(&backend, other, case_seed, n_steps)?);
    }
    Ok(Reference { cases })
}

/// The reference a run checks against: the committed golden, else one
/// computed on the spot. The bool says whether it came from a golden.
pub fn reference_for(w: &Workload, seed: u64) -> Result<(Reference, bool), String> {
    match load_golden(w.name, seed)? {
        Some(r) => Ok((r, true)),
        None => Ok((compute_reference(w, seed, false)?, false)),
    }
}

/// `hetbench write-golden`: compute and store the full reference.
pub fn write_golden(w: &Workload, seed: u64) -> Result<PathBuf, String> {
    let reference = compute_reference(w, seed, true)?;
    let path = golden_path(w.name, seed);
    std::fs::write(
        &path,
        reference.to_json(w.name, seed).to_string_pretty() + "\n",
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, scale: f64) -> Vec<f64> {
        (0..n).map(|i| scale * (0.37 * i as f64).sin()).collect()
    }

    #[test]
    fn digest_matches_itself_and_tolerates_solver_noise() {
        let u = wave(960, 1e-3);
        let d = Digest::of(&u);
        assert_eq!(d.samples.len(), N_SAMPLES);
        assert!(d.matches(&d));
        let noisy: Vec<f64> = u.iter().map(|v| v * (1.0 + 1e-6)).collect();
        assert!(d.matches(&Digest::of(&noisy)));
    }

    #[test]
    fn digest_rejects_wrong_and_non_finite_results() {
        let u = wave(960, 1e-3);
        let d = Digest::of(&u);
        // norm off by 1e-4 relative
        let scaled: Vec<f64> = u.iter().map(|v| v * 1.0001).collect();
        assert!(!d.matches(&Digest::of(&scaled)));
        // one sampled entry off by 1e-3 of the max: norms barely move
        let mut poked = u.clone();
        poked[960 / (2 * N_SAMPLES)] += 1e-3 * d.linf;
        assert!(!d.matches(&Digest::of(&poked)));
        let mut nan = u.clone();
        nan[5] = f64::NAN;
        assert!(!d.matches(&Digest::of(&nan)));
    }

    #[test]
    fn reference_round_trips_and_counts_only_covered_cases() {
        let a = Digest::of(&wave(640, 1.0));
        let b = Digest::of(&wave(640, 2.0));
        let reference = Reference {
            cases: BTreeMap::from([(0, a.clone()), (4, b.clone())]),
        };
        let text = reference.to_json("w", 3).to_string_pretty();
        let back = Reference::from_json(&parse_json(&text).unwrap()).unwrap();
        assert_eq!(back, reference);
        // case 1 has no reference: not checked; case 4 got case 0's result
        let results = vec![(0, a.clone()), (1, b.clone()), (4, a)];
        assert_eq!(reference.check(&results), (2, 1));
    }

    #[test]
    fn missing_golden_is_a_cache_miss() {
        assert_eq!(load_golden("no_such_workload", 1), Ok(None));
    }
}
