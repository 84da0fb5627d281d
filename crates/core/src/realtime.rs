//! Real-thread heterogeneous pipelining.
//!
//! The rest of the crate charges the paper's CPU/GPU overlap to a *modeled*
//! timeline. This module executes the same Algorithm-3 ping-pong with two
//! actual OS threads — a "solver device" thread (the GPU stand-in) and a
//! "predictor device" thread — so the overlap is real wall-clock on a
//! multi-core host:
//!
//! ```text
//! step it:   phase 1: [solver: set B]  ||  [predictor: set A]
//!            barrier + exchange
//!            phase 2: [solver: set A]  ||  [predictor: set B (step it+1)]
//! ```
//!
//! Numerics are identical to [`crate::methods::run`] with
//! `EBE-MCG@CPU-GPU` (verified by tests); only the execution medium
//! differs. The per-case state is the same [`CaseSlot`] every other driver
//! steps (`prepare_step` on the predictor thread, `advance` on the solver
//! thread); what is this module's own is the two-thread phase schedule and
//! the [`RealtimeReport`].

use hetsolve_fault::{FaultInjector, NoopFaults, VectorFault};
use hetsolve_machine::{SystemClock, WallClock};
use hetsolve_sparse::vecops::{extract_case, insert_case};
use hetsolve_sparse::{CgConfig, SolveError};
use parking_lot::Mutex;

use crate::backend::{Backend, RhsScratch};
use crate::methods::{driver_cg_config, RunConfig};
use crate::recovery::{solve_set_with_ladder, RecoveryEvent, RunError};
use crate::slot::CaseSlot;
use crate::trace::{StepTracer, TID_CPU, TID_GPU};

/// Wall-clock accounting of the real pipelined run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealtimeReport {
    /// Total wall time (s).
    pub wall: f64,
    /// Wall time spent inside solver phases (sum over phases).
    pub solver_busy: f64,
    /// Wall time spent inside predictor phases.
    pub predictor_busy: f64,
    /// `(solver_busy + predictor_busy) / wall` — >1 means the two device
    /// threads genuinely overlapped.
    pub overlap_factor: f64,
    pub steps: usize,
    /// Recovery-ladder successes over the whole run (0 unless faults were
    /// injected or a solve genuinely struggled).
    pub recoveries: usize,
}

/// Per-phase fault descriptors, resolved on the main thread so the solver
/// thread never touches the (non-`Sync`) injector.
struct PhaseFaults {
    guess: Vec<Option<VectorFault>>,
    snapshot: Vec<Option<VectorFault>>,
    first_cfg: CgConfig,
}

impl PhaseFaults {
    fn resolve<F: FaultInjector>(
        faults: &mut F,
        step: usize,
        set: usize,
        case_base: usize,
        r: usize,
        cg_cfg: &CgConfig,
    ) -> Self {
        let first_cfg = match faults.solver_fault(step, set) {
            Some(sf) => CgConfig {
                max_iter: sf.max_iter.min(cg_cfg.max_iter),
                ..*cg_cfg
            },
            None => *cg_cfg,
        };
        PhaseFaults {
            guess: (0..r)
                .map(|c| faults.guess_fault(step, case_base + c))
                .collect(),
            snapshot: (0..r)
                .map(|c| faults.snapshot_fault(step, case_base + c))
                .collect(),
            first_cfg,
        }
    }
}

/// One pipelined set: its case slots, and the Adams-Bashforth guesses its
/// predictor phase hands to its solver phase.
type PipeSet = (Vec<CaseSlot>, Vec<Vec<f64>>);

/// Predictor phase of one set: [`CaseSlot::prepare_step`] every case with
/// window `s` (RHS + initial guess for the slot's own next step), keeping
/// the Adams-Bashforth guesses for the solve phase.
fn predict_set(backend: &Backend, (cases, ab_guesses): &mut PipeSet, s: usize) {
    let mut scratch = RhsScratch::new(backend.n_dofs());
    ab_guesses.clear();
    for case in cases {
        ab_guesses.push(case.prepare_step(backend, &mut scratch, s).0);
    }
}

/// Solver phase of one set: fused MCG solve (with recovery ladder) +
/// [`CaseSlot::advance`]. Returns the set's recovery events.
fn solve_set(
    backend: &Backend,
    cfg: &RunConfig,
    (cases, ab_guesses): &mut PipeSet,
    step: usize,
    set: usize,
    ph: &PhaseFaults,
) -> Result<Vec<RecoveryEvent>, SolveError> {
    let n = backend.n_dofs();
    let r = cfg.r;
    let op = backend.ebe_a(r);
    let mut f_multi = vec![0.0; n * r];
    let mut x_multi = vec![0.0; n * r];
    for (c, case) in cases.iter_mut().enumerate() {
        if let Some(vf) = ph.guess[c] {
            vf.apply(&mut case.guess);
        }
        insert_case(&mut f_multi, r, c, &case.rhs);
        insert_case(&mut x_multi, r, c, &case.guess);
    }
    let cg_cfg = driver_cg_config(cfg.tol);
    let mut recoveries = Vec::new();
    solve_set_with_ladder(
        &op,
        &backend.precond,
        &f_multi,
        &mut x_multi,
        ab_guesses,
        &cg_cfg,
        &ph.first_cfg,
        step,
        set,
        Some(set * r),
        true,
        &mut recoveries,
    )?;
    let mut x = vec![0.0; n];
    for (c, case) in cases.iter_mut().enumerate() {
        extract_case(&x_multi, r, c, &mut x);
        // the window follows available history, so a poisoned (rebuilt)
        // history needs no controller reset here
        let _ = case.advance(backend, &x, &ab_guesses[c], ph.snapshot[c]);
    }
    Ok(recoveries)
}

/// Run EBE-MCG with two real device threads. Returns the per-case final
/// displacements and the wall-clock report, or a typed [`RunError`] if a
/// solve fails beyond recovery or a device thread panics.
pub fn run_realtime(
    backend: &Backend,
    cfg: &RunConfig,
) -> Result<(Vec<Vec<f64>>, RealtimeReport), RunError> {
    run_realtime_traced(backend, cfg, &mut StepTracer::disabled())
}

/// Span collected by a device thread: (pid, tid, label, start_s, dur_s),
/// both times relative to the run start.
type WallSpan = (usize, usize, &'static str, f64, f64);

/// [`run_realtime`] with wall-clock tracing: each solver/predictor phase of
/// each device thread becomes a `cat:"wall"` span in the tracer's timeline
/// (pid = process set, tid = device lane), so the *real* thread overlap can
/// be inspected in Perfetto next to the modeled one.
pub fn run_realtime_traced(
    backend: &Backend,
    cfg: &RunConfig,
    tracer: &mut StepTracer,
) -> Result<(Vec<Vec<f64>>, RealtimeReport), RunError> {
    run_realtime_faulted(backend, cfg, tracer, &mut NoopFaults)
}

/// [`run_realtime_traced`] with a fault injector. Fault descriptors are
/// resolved on the main thread each phase; only `Copy` descriptor values
/// cross into the solver thread.
pub fn run_realtime_faulted<F: FaultInjector>(
    backend: &Backend,
    cfg: &RunConfig,
    tracer: &mut StepTracer,
    faults: &mut F,
) -> Result<(Vec<Vec<f64>>, RealtimeReport), RunError> {
    run_realtime_clocked(backend, cfg, tracer, faults, &SystemClock::new())
}

/// [`run_realtime_faulted`] with an injected wall clock. Both device
/// threads read the clock concurrently, so it must be `Sync`
/// ([`SystemClock`] in production, [`hetsolve_machine::SharedManualClock`]
/// in deterministic tests). The clock feeds only the [`RealtimeReport`]
/// and the wall-span trace — numerics are clock-independent — which is
/// what lets the determinism lint ban ambient `Instant` reads here.
pub fn run_realtime_clocked<F: FaultInjector, C: WallClock + Sync>(
    backend: &Backend,
    cfg: &RunConfig,
    tracer: &mut StepTracer,
    faults: &mut F,
    wall: &C,
) -> Result<(Vec<Vec<f64>>, RealtimeReport), RunError> {
    assert!(cfg.r >= 1);
    tracer.begin_run("EBE-MCG@CPU-GPU (realtime)", cfg, 2);
    // two sets of r case slots — the same per-case state, `prepare_step`
    // and `advance` as the modeled driver
    let new_set = |base: usize| -> PipeSet {
        let cases = (base..base + cfg.r).map(|c| CaseSlot::new(backend, cfg, c, 0));
        (cases.collect(), Vec::new())
    };
    let (mut set_a, mut set_b) = (new_set(0), new_set(cfg.r));
    let busy = Mutex::new((0.0f64, 0.0f64)); // (solver, predictor)
    let trace_on = tracer.is_enabled();
    let spans: Mutex<Vec<WallSpan>> = Mutex::new(Vec::new());
    let cg_cfg = driver_cg_config(cfg.tol);
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    let t_start = wall.now();
    // run-relative timestamp of "now" on the injected clock
    let since_start = || wall.now() - t_start;

    // pre-step: prepare both sets' step-0 inputs (no history yet)
    predict_set(backend, &mut set_a, 0);
    predict_set(backend, &mut set_b, 0);

    // One pipeline phase: the solver thread runs `solving`'s fused solve of
    // step `it` while this thread prepares `predicting`'s next step.
    let phase = |it: usize,
                 set: usize,
                 solving: &mut PipeSet,
                 predicting: Option<&mut PipeSet>,
                 ph: &PhaseFaults|
     -> Result<Vec<RecoveryEvent>, RunError> {
        crossbeam::thread::scope(|scope| {
            let solver = scope.spawn(|_| {
                let start = since_start();
                let out = solve_set(backend, cfg, solving, it, set, ph);
                let dur = since_start() - start;
                busy.lock().0 += dur;
                if trace_on {
                    spans
                        .lock()
                        .push((set, TID_GPU, "solve (wall)", start, dur));
                }
                out
            });
            if let Some(predicting) = predicting {
                // window grows with available history, as in the modeled driver
                let s = predicting.0[0].available_s().min(cfg.s_max);
                let start = since_start();
                predict_set(backend, predicting, s);
                let dur = since_start() - start;
                busy.lock().1 += dur;
                if trace_on {
                    spans
                        .lock()
                        .push((1 - set, TID_CPU, "predict (wall)", start, dur));
                }
            }
            match solver.join() {
                Ok(r) => r.map_err(RunError::from),
                Err(_) => Err(RunError::WorkerPanic {
                    phase: ["realtime solve (set A)", "realtime solve (set B)"][set],
                }),
            }
        })
        // PANIC-OK: the scope closure joins both children, so crossbeam's
        // scope-level error (an unjoined child panic) is unreachable.
        .expect("thread scope failed")
    };

    for it in 0..cfg.n_steps {
        // phase 1: solve B || predict A for this step (A's rhs already
        // prepared; recompute with latest state to stay causally correct:
        // A's state was advanced in the previous phase 2)
        let ph_b = PhaseFaults::resolve(faults, it, 1, cfg.r, cfg.r, &cg_cfg);
        recoveries.extend(phase(it, 1, &mut set_b, Some(&mut set_a), &ph_b)?);
        // phase 2: solve A || predict B for the next step
        let ph_a = PhaseFaults::resolve(faults, it, 0, 0, cfg.r, &cg_cfg);
        let next_b = (it + 1 < cfg.n_steps).then_some(&mut set_b);
        recoveries.extend(phase(it, 0, &mut set_a, next_b, &ph_a)?);
    }

    for (pid, tid, name, start_s, dur_s) in spans.into_inner() {
        tracer
            .trace
            .span(pid, tid, "wall", name, start_s * 1e6, dur_s * 1e6, vec![]);
    }
    let t_now = since_start();
    for ev in &recoveries {
        tracer.recovery_event(t_now, ev);
    }

    let wall = since_start();
    let (solver_busy, predictor_busy) = *busy.lock();
    let report = RealtimeReport {
        wall,
        solver_busy,
        predictor_busy,
        overlap_factor: (solver_busy + predictor_busy) / wall.max(1e-12),
        steps: cfg.n_steps,
        recoveries: recoveries.len(),
    };
    let final_u = set_a
        .0
        .into_iter()
        .chain(set_b.0)
        .map(|case| case.time.u)
        .collect();
    Ok((final_u, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{run, MethodKind};
    use hetsolve_fem::{FemProblem, RandomLoadSpec};
    use hetsolve_machine::single_gh200;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    fn setup() -> (Backend, RunConfig) {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        let backend = Backend::new(FemProblem::paper_like(&spec), false, false);
        let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), 10);
        cfg.r = 2;
        cfg.s_max = 4;
        cfg.load = RandomLoadSpec {
            n_sources: 4,
            impulses_per_source: 2.0,
            amplitude: 1e6,
            active_window: 0.3,
        };
        (backend, cfg)
    }

    #[test]
    fn realtime_runs_and_reports() {
        let (backend, cfg) = setup();
        let (final_u, rep) = run_realtime(&backend, &cfg).expect("realtime");
        assert_eq!(final_u.len(), 2 * cfg.r);
        assert_eq!(rep.steps, cfg.n_steps);
        assert!(rep.wall > 0.0);
        assert!(rep.solver_busy > 0.0);
        assert!(rep.predictor_busy > 0.0);
        assert!(rep.overlap_factor > 0.0);
        assert!(final_u.iter().any(|u| u.iter().any(|&x| x != 0.0)));
    }

    #[test]
    fn realtime_tracing_collects_wall_spans_from_both_lanes() {
        let (backend, mut cfg) = setup();
        cfg.n_steps = 3;
        let mut tracer = StepTracer::new();
        let (_, rep) = run_realtime_traced(&backend, &cfg, &mut tracer).expect("realtime");
        assert_eq!(rep.steps, 3);
        let events = tracer.trace.events();
        assert!(events.iter().all(|e| e.cat == "wall"));
        // both device lanes of both sets appear
        for pid in [0, 1] {
            assert!(events.iter().any(|e| e.pid == pid && e.tid == TID_GPU));
            assert!(events.iter().any(|e| e.pid == pid && e.tid == TID_CPU));
        }
        // solver runs every phase: 2 phases per step
        let solves = events.iter().filter(|e| e.tid == TID_GPU).count();
        assert_eq!(solves, 2 * cfg.n_steps);
    }

    /// The real-thread pipeline computes the same solutions as the modeled
    /// driver (same seeds, same algorithm).
    #[test]
    fn realtime_matches_modeled_numerics() {
        let (backend, cfg) = setup();
        let (final_rt, _) = run_realtime(&backend, &cfg).expect("realtime");
        let modeled = run(&backend, &cfg).expect("run");
        // The modeled driver grows s by the adaptive controller while the
        // realtime driver grows by available history; both refine to the
        // same CG tolerance, so solutions agree to solver accuracy.
        let scale = modeled.final_u[0]
            .iter()
            .map(|v| v.abs())
            .fold(0.0f64, f64::max);
        for (c, u_model) in modeled.final_u.iter().enumerate() {
            for (i, (&a, &b)) in final_rt[c].iter().zip(u_model).enumerate() {
                assert!((a - b).abs() < 1e-5 * scale, "case {c} dof {i}: {a} vs {b}");
            }
        }
    }

    /// With an injected shared manual clock the wall-clock report is
    /// fully deterministic: the driver reads no ambient time, so a frozen
    /// clock yields a zero report while the numerics are untouched.
    #[test]
    fn manual_clock_makes_the_report_deterministic() {
        let (backend, mut cfg) = setup();
        cfg.n_steps = 3;
        let clock = hetsolve_machine::SharedManualClock::new();
        clock.set(42.0);
        let (final_u, rep) = run_realtime_clocked(
            &backend,
            &cfg,
            &mut StepTracer::disabled(),
            &mut NoopFaults,
            &clock,
        )
        .expect("realtime");
        assert_eq!(rep.wall, 0.0, "frozen clock: no wall time elapsed");
        assert_eq!(rep.solver_busy, 0.0);
        assert_eq!(rep.predictor_busy, 0.0);
        assert!(final_u.iter().any(|u| u.iter().any(|&x| x != 0.0)));
        // the same run on the real clock computes identical numerics
        let (real_u, _) = run_realtime(&backend, &cfg).expect("realtime");
        assert_eq!(final_u, real_u, "clock choice must not affect results");
    }
}
