//! `pcg` is `mcg` at fused width 1 (DESIGN.md §5). Two properties guard
//! the collapse:
//!
//! * a *parent-bits pin*: the solution CRC, iteration count, residuals and
//!   modeled work of `pcg`, recorded from the hand-written single-RHS loop
//!   of the commit before the collapse, on the assembled and the
//!   matrix-free operator, below and above the 2^14-value partial-sum
//!   threshold of the vector reductions, from a zero and a warm guess (the
//!   assembled-operator pins are still those; the matrix-free ones were
//!   re-recorded at PR 23, whose block sweep sums each row of `A x` in
//!   another order — same iteration counts, residuals equal to 13 digits),
//!   kept as the `pcg_9537_dof/…` and `pcg_24375_dof/…` lines of
//!   `tests/data/pins.txt`;
//! * the single-RHS drivers go through the one (multi-RHS) recovery ladder
//!   with a laneless case id: a CRS run whose guess is poisoned recovers,
//!   and its recovery events carry `case: None`.

use hetsolve::core::{crc_f64s, driver_cg_config, GuessSource};
use hetsolve::obs::Termination;
use hetsolve::prelude::*;
use hetsolve::sparse::{pcg, LinearOperator};

mod pins;

/// What one `pcg` call leaves behind, by bit pattern, as a ledger value:
/// the solution's CRC, the iteration count, the initial and final relative
/// residuals, the modeled flops and streamed bytes.
fn solve<A: LinearOperator>(b: &Backend, a: &A, f: &[f64], x: &mut [f64]) -> String {
    let s = pcg(a, &b.precond, f, x, &driver_cg_config(1e-8));
    assert_eq!(s.termination, Termination::Converged);
    assert_eq!(s.history.len(), s.iterations + 1);
    format!(
        "{:08x} {} {:016x} {:016x} {:016x} {:016x}",
        crc_f64s(x),
        s.iterations,
        s.initial_rel_res.to_bits(),
        s.final_rel_res.to_bits(),
        s.counts.flops.to_bits(),
        s.counts.bytes_stream.to_bits(),
    )
}

/// Zero-guess solve, then a solve warm-started from its perturbed solution.
fn cold_and_warm<A: LinearOperator>(b: &Backend, a: &A, op: &str) -> [(String, String); 2] {
    let n = b.n_dofs();
    let mut f: Vec<f64> = (0..n).map(|i| (0.37 * i as f64).sin() * 1e4).collect();
    b.problem.mask.project(&mut f);
    let mut x = vec![0.0; n];
    let cold = solve(b, a, &f, &mut x);
    for (i, v) in x.iter_mut().enumerate() {
        *v *= 1.0 + 1e-3 * (0.11 * i as f64).cos();
    }
    let warm = solve(b, a, &f, &mut x);
    [(format!("{op}/cold"), cold), (format!("{op}/warm"), warm)]
}

/// A pinned mesh: its ledger suite and `paper_like` dimensions.
type Mesh = (&'static str, usize, usize, usize);

/// 9,537 DOF (the `crs_cg_10k` mesh): every reduction is one running sum.
const BELOW: Mesh = ("pcg_9537_dof", 8, 8, 5);
/// 24,375 DOF: reductions sum 4096-row partials.
const ABOVE: Mesh = ("pcg_24375_dof", 12, 12, 6);

fn pcg_lines((_, nx, ny, nz): Mesh) -> Vec<(String, String)> {
    let spec = GroundModelSpec::paper_like(nx, ny, nz, InterfaceShape::Basin);
    let b = Backend::new(FemProblem::paper_like(&spec), true, false);
    let mut lines = cold_and_warm(&b, b.crs_a(), "crs").to_vec();
    lines.extend(cold_and_warm(&b, &b.ebe_a(1), "ebe"));
    lines
}

#[test]
fn pcg_reproduces_parent_bits_below_the_partial_sum_threshold() {
    pins::check(BELOW.0, &pcg_lines(BELOW));
}

#[test]
fn pcg_reproduces_parent_bits_above_the_partial_sum_threshold() {
    pins::check(ABOVE.0, &pcg_lines(ABOVE));
}

#[test]
#[ignore = "rewrites the pcg lines of tests/data/pins.txt"]
fn record_pins() {
    for mesh in [BELOW, ABOVE] {
        pins::record(mesh.0, &pcg_lines(mesh));
    }
}

/// The single-RHS drivers run the one ladder on a lane of width 1: a
/// poisoned guess recovers from the Adams-Bashforth rung, and the event
/// names no case (`case: None`), as it always did for these drivers.
#[test]
fn crs_runs_recover_through_the_one_ladder_without_a_case_id() {
    let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
    let b = Backend::new(FemProblem::paper_like(&spec), true, false);
    for method in [MethodKind::CrsCgCpu, MethodKind::CrsCgCpuGpu] {
        let mut cfg = RunConfig::new(method, single_gh200(), 8);
        cfg.s_max = 6;
        cfg.load = RandomLoadSpec {
            n_sources: 6,
            impulses_per_source: 2.0,
            amplitude: 1e6,
            active_window: 0.25,
        };
        let baseline = run(&b, &cfg).expect("baseline");
        let mut plan = FaultPlan::new(7).nan_guess(4, 0, 0.3);
        let res = run_with(&b, &cfg, Hooks::default().faults(&mut plan))
            .unwrap_or_else(|e| panic!("{method:?}: not recovered: {e}"));
        assert!(plan.all_fired());
        assert_eq!(res.recoveries.len(), 1, "{method:?}");
        let ev = res.recoveries[0];
        assert_eq!((ev.step, ev.set, ev.case), (4, 0, None), "{method:?}");
        assert_eq!(ev.failed, Termination::NanResidual);
        assert_eq!(ev.recovered_with, GuessSource::AdamsBashforth);
        assert_eq!(ev.attempts, 2);
        // the AB rung of a CRS-CG@CPU step is the fault-free first attempt
        if method == MethodKind::CrsCgCpu {
            assert_eq!(baseline.final_u, res.final_u);
        }
    }
}
