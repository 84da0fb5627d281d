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
//!   another order — same iteration counts, residuals equal to 13 digits);
//! * the single-RHS drivers go through the one (multi-RHS) recovery ladder
//!   with a laneless case id: a CRS run whose guess is poisoned recovers,
//!   and its recovery events carry `case: None`.

use hetsolve::core::{crc_f64s, driver_cg_config, GuessSource};
use hetsolve::obs::Termination;
use hetsolve::prelude::*;
use hetsolve::sparse::{pcg, LinearOperator};

/// What one `pcg` call leaves behind, by bit pattern.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    x_crc: u32,
    iterations: usize,
    initial_rel_res: u64,
    final_rel_res: u64,
    flops: u64,
    bytes_stream: u64,
}

fn solve<A: LinearOperator>(b: &Backend, a: &A, f: &[f64], x: &mut [f64]) -> Pin {
    let s = pcg(a, &b.precond, f, x, &driver_cg_config(1e-8));
    assert_eq!(s.termination, Termination::Converged);
    assert_eq!(s.history.len(), s.iterations + 1);
    Pin {
        x_crc: crc_f64s(x),
        iterations: s.iterations,
        initial_rel_res: s.initial_rel_res.to_bits(),
        final_rel_res: s.final_rel_res.to_bits(),
        flops: s.counts.flops.to_bits(),
        bytes_stream: s.counts.bytes_stream.to_bits(),
    }
}

/// Zero-guess solve, then a solve warm-started from its perturbed solution.
fn cold_and_warm<A: LinearOperator>(b: &Backend, a: &A) -> [Pin; 2] {
    let n = b.n_dofs();
    let mut f: Vec<f64> = (0..n).map(|i| (0.37 * i as f64).sin() * 1e4).collect();
    b.problem.mask.project(&mut f);
    let mut x = vec![0.0; n];
    let cold = solve(b, a, &f, &mut x);
    for (i, v) in x.iter_mut().enumerate() {
        *v *= 1.0 + 1e-3 * (0.11 * i as f64).cos();
    }
    let warm = solve(b, a, &f, &mut x);
    [cold, warm]
}

fn pins(nx: usize, ny: usize, nz: usize) -> [[Pin; 2]; 2] {
    let spec = GroundModelSpec::paper_like(nx, ny, nz, InterfaceShape::Basin);
    let b = Backend::new(FemProblem::paper_like(&spec), true, false);
    [cold_and_warm(&b, b.crs_a()), cold_and_warm(&b, &b.ebe_a(1))]
}

const fn pin(
    x_crc: u32,
    iterations: usize,
    initial_rel_res: u64,
    final_rel_res: u64,
    flops: u64,
    bytes_stream: u64,
) -> Pin {
    Pin {
        x_crc,
        iterations,
        initial_rel_res,
        final_rel_res,
        flops,
        bytes_stream,
    }
}

/// 9,537 DOF (the `crs_cg_10k` mesh): every reduction is one running sum.
#[test]
fn pcg_reproduces_parent_bits_below_the_partial_sum_threshold() {
    let expected = [
        [
            pin(
                3034832800,
                37,
                4607182418800017408,
                4484729695813790265,
                4723359702400892928,
                4733450137907494912,
            ),
            pin(
                7670154,
                22,
                4562951646709114370,
                4486635590152666088,
                4720158349876789248,
                4729914649275793408,
            ),
        ],
        [
            pin(
                1573623300,
                37,
                4607182418800017408,
                4484729695813790173,
                4733603097178275840,
                4724572591098953728,
            ),
            pin(
                12352008,
                22,
                4562951646709114355,
                4486635590152665677,
                4730113074013405184,
                4721018922810212352,
            ),
        ],
    ];
    assert_eq!(pins(8, 8, 5), expected);
}

/// 24,375 DOF: reductions sum 4096-row partials.
#[test]
fn pcg_reproduces_parent_bits_above_the_partial_sum_threshold() {
    let expected = [
        [
            pin(
                628553772,
                41,
                4607182418800017408,
                4485737319917814022,
                4730162148678828032,
                4740063019462033408,
            ),
            pin(
                3310210993,
                25,
                4563432346845830144,
                4484342022602036658,
                4727050663547109376,
                4737154965959606272,
            ),
        ],
        [
            pin(
                4077608497,
                41,
                4607182418800017408,
                4485737319917814062,
                4740407857160126464,
                4730657342939463680,
            ),
            pin(
                1292734241,
                25,
                4563432346845830199,
                4484342022602035868,
                4737598265657131008,
                4727598330060734464,
            ),
        ],
    ];
    assert_eq!(pins(12, 12, 6), expected);
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
