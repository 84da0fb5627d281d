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
//! Each set is a `Vec<CaseSlot>` with its own [`SetStep`]: the predictor
//! thread runs its [`SetStep::prepare`] (the integrity guards of
//! `cfg.integrity` included), the solver thread its [`SetStep::solve`] —
//! the one set step every driver runs. What is this module's own is the
//! two-thread phase schedule and the [`RealtimeReport`]. Its numerics are
//! not the modeled `EBE-MCG@CPU-GPU` driver's bit for bit: a set predicts
//! with the window its history allows (up to `s_max`) where the modeled
//! driver follows its adaptive controller, so the two agree to solver
//! tolerance.
//!
//! It takes the same [`Hooks`] as [`crate::methods::run_with`] — tracer,
//! fault plan, wall clock — but not a checkpoint store: its two sets live
//! on two threads mid-step, so there is no boundary state to snapshot
//! (ROADMAP item 2 merges it into the step driver).

use hetsolve_fault::FaultPlan;
use hetsolve_machine::SystemClock;

use crate::backend::Backend;
use crate::methods::{check_fused_width, Hooks, RunConfig};
use crate::recovery::{RecoveryEvent, RunError};
use crate::set::{SetSpec, SetStep};
use crate::slot::CaseSlot;
use crate::trace::{TID_CPU, TID_GPU};

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
    /// Corruptions the integrity guards detected and repaired (0 on a
    /// clean run).
    pub corruptions: usize,
}

/// One pipelined set: its case slots and its set step's storage.
type Set = (Vec<CaseSlot>, SetStep);

/// Span of one device thread's phase: (pid, tid, label, start_s, dur_s),
/// both times relative to the run start.
type WallSpan = (usize, usize, &'static str, f64, f64);

/// Run EBE-MCG with two real device threads. Returns the per-case final
/// displacements and the wall-clock report, or a typed [`RunError`] if a
/// solve fails beyond recovery, a corruption escapes the guards or a
/// device thread panics — or [`RunError::Config`] if `hooks` carry a
/// checkpoint store or `cfg.r` is a width the fused operator lacks.
///
/// With a tracer, each solver/predictor phase of each device thread
/// becomes a `cat:"wall"` span in its timeline (pid = process set, tid =
/// device lane), so the *real* thread overlap can be inspected in Perfetto
/// next to the modeled one. Faults are injected by the predictor half on
/// this thread. Both device threads read the wall clock, which feeds only
/// the [`RealtimeReport`] and the wall spans — numerics are
/// clock-independent, which is what lets clippy's `disallowed_types` ban
/// ambient `Instant` reads here.
pub fn run_realtime(
    backend: &Backend,
    cfg: &RunConfig,
    hooks: Hooks<'_>,
) -> Result<(Vec<Vec<f64>>, RealtimeReport), RunError> {
    if hooks.store.is_some() {
        return Err(RunError::Config {
            message: "the realtime driver cannot checkpoint: it has no step boundary \
                      at which both sets are at rest"
                .into(),
        });
    }
    check_fused_width(cfg.r)?;
    let (mut no_tracer, mut no_faults) = Default::default();
    let system = SystemClock::new();
    let tracer = hooks.tracer.unwrap_or(&mut no_tracer);
    let faults = hooks.faults.unwrap_or(&mut no_faults);
    let wall = hooks.wall.unwrap_or(&system);
    let r = cfg.r;
    tracer.begin_run("EBE-MCG@CPU-GPU (realtime)", cfg, 2);
    let ids: [Vec<Option<usize>>; 2] =
        [0, 1].map(|set| (set * r..(set + 1) * r).map(Some).collect());
    let mut sets: [Set; 2] = [0, 1].map(|set| {
        let cases = (set * r..(set + 1) * r).map(|c| CaseSlot::new(backend, cfg, c, 0));
        (cases.collect(), SetStep::new(backend.n_dofs(), r))
    });
    let op = backend.ebe_a(r);
    let mut spans: Vec<WallSpan> = Vec::new();
    let mut recoveries: Vec<RecoveryEvent> = Vec::new();
    let mut corruptions = 0;
    let t_start = wall.now();
    // run-relative timestamp of "now" on the injected clock
    let since_start = || wall.now() - t_start;

    // The predictor half of `set`'s step `step`; the window grows with the
    // set's available history.
    let prepare = |(cases, work): &mut Set, set: usize, step: usize, faults: &mut FaultPlan| {
        let spec = SetSpec {
            step,
            set,
            ids: &ids[set],
            fused: true,
            window: Some(cases[0].available_s().min(cfg.s_max)),
            tol: cfg.tol,
        };
        work.prepare(backend, cfg, spec, &mut cases[..], faults);
    };
    prepare(&mut sets[1], 1, 0, faults);

    for it in 0..cfg.n_steps {
        // phase 1: solve B's step `it` while A prepares it (A was advanced
        // in the previous phase 2); phase 2: solve A's step `it` while B
        // prepares its next one
        for (set, next) in [
            (1, Some(it)),
            (0, Some(it + 1).filter(|&s| s < cfg.n_steps)),
        ] {
            let [a, b] = &mut sets;
            let (solving, predicting) = if set == 0 { (a, b) } else { (b, a) };
            let (solved, solve_span) = std::thread::scope(|scope| {
                let solver = scope.spawn(|| {
                    let start = since_start();
                    let (cases, work) = solving;
                    let out = work.solve(backend, &op, &mut cases[..]);
                    let span = (set, TID_GPU, "solve (wall)", start, since_start() - start);
                    let solved = out
                        .error()
                        .map(|()| (out.recoveries.clone(), out.corruptions.len()));
                    (solved, span)
                });
                if let Some(step) = next {
                    let start = since_start();
                    prepare(predicting, 1 - set, step, faults);
                    spans.push((
                        1 - set,
                        TID_CPU,
                        "predict (wall)",
                        start,
                        since_start() - start,
                    ));
                }
                solver.join().map_err(|_| RunError::WorkerPanic {
                    phase: ["realtime solve (set A)", "realtime solve (set B)"][set],
                })
            })?;
            spans.push(solve_span);
            let (events, repaired) = solved?;
            recoveries.extend(events);
            corruptions += repaired;
        }
    }

    let busy = |lane| {
        spans
            .iter()
            .filter(|s| s.1 == lane)
            .map(|s| s.4)
            .sum::<f64>()
    };
    let (solver_busy, predictor_busy) = (busy(TID_GPU), busy(TID_CPU));
    if tracer.is_enabled() {
        for &(pid, tid, name, start_s, dur_s) in &spans {
            tracer
                .trace
                .span(pid, tid, "wall", name, start_s * 1e6, dur_s * 1e6, vec![]);
        }
    }
    let t_now = since_start();
    for ev in &recoveries {
        tracer.recovery_event(t_now, ev);
    }

    let wall = since_start();
    let report = RealtimeReport {
        wall,
        solver_busy,
        predictor_busy,
        overlap_factor: (solver_busy + predictor_busy) / wall.max(1e-12),
        steps: cfg.n_steps,
        recoveries: recoveries.len(),
        corruptions,
    };
    let final_u = sets
        .into_iter()
        .flat_map(|(cases, _)| cases)
        .map(|case| case.time.u)
        .collect();
    Ok((final_u, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{run, MethodKind};
    use crate::trace::StepTracer;
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
        let (final_u, rep) = run_realtime(&backend, &cfg, Hooks::default()).expect("realtime");
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
        let (_, rep) =
            run_realtime(&backend, &cfg, Hooks::default().tracer(&mut tracer)).expect("realtime");
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
        let (final_rt, _) = run_realtime(&backend, &cfg, Hooks::default()).expect("realtime");
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
        let clock = hetsolve_machine::ManualClock::new();
        clock.set(42.0);
        let (final_u, rep) =
            run_realtime(&backend, &cfg, Hooks::default().wall(&clock)).expect("realtime");
        assert_eq!(rep.wall, 0.0, "frozen clock: no wall time elapsed");
        assert_eq!(rep.solver_busy, 0.0);
        assert_eq!(rep.predictor_busy, 0.0);
        assert!(final_u.iter().any(|u| u.iter().any(|&x| x != 0.0)));
        // the same run on the real clock computes identical numerics
        let (real_u, _) = run_realtime(&backend, &cfg, Hooks::default()).expect("realtime");
        assert_eq!(final_u, real_u, "clock choice must not affect results");
    }

    /// The realtime driver has no boundary to snapshot: a store is a typed
    /// configuration error, not a silently non-durable run.
    #[test]
    fn realtime_given_a_store_is_a_typed_config_error() {
        let (backend, cfg) = setup();
        let dir = std::env::temp_dir().join("hs-realtime-store");
        let store = hetsolve_ckpt::CheckpointStore::new(&dir, 2).unwrap();
        let hooks = Hooks::default().durable(&store, Default::default());
        match run_realtime(&backend, &cfg, hooks) {
            Err(RunError::Config { message }) => assert!(message.contains("checkpoint")),
            other => panic!("expected RunError::Config, got {other:?}"),
        }
        assert!(store.list().unwrap().is_empty(), "nothing written");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
