//! The four solution methods of the paper, over one [`Backend`]:
//!
//! * `CRS-CG@CPU`, `CRS-CG@GPU` — Algorithm 2: Adams-Bashforth initial
//!   guess + assembled-matrix CG, one case, one device;
//! * `CRS-CG@CPU-GPU` — Algorithm 4: data-driven predictor on the CPU
//!   overlapped with the assembled-matrix CG of the *other* case on the
//!   GPU (2 processes × 1 case);
//! * `EBE-MCG@CPU-GPU` — Algorithm 3 (the proposal): matrix-free EBE
//!   multi-RHS CG on the GPU overlapped with the data-driven predictors of
//!   the other set on the CPU (2 processes × r cases), with the snapshot
//!   window `s` adapted online.
//!
//! Numerics are always exact (real solves on the host); the execution
//! timeline and energy come from the `hetsolve-machine` model, mirroring
//! the overlap/synchronization/transfer structure of the paper's
//! algorithms. Per-step records regenerate Tables 3–4 and Fig. 4.

use hetsolve_fault::{FaultInjector, FaultLane, NoopFaults};
use hetsolve_fem::{CompactEbe, RandomLoadSpec};
use hetsolve_machine::{EnergyReport, LaneKind, ModuleClock, NodeSpec};
use hetsolve_obs::Json;
use hetsolve_predictor::AdaptiveWindow;
use hetsolve_sparse::{CgConfig, KernelCounts, Width1};

use crate::backend::{Backend, RhsScratch};
use crate::integrity::{
    basis_sentinel, boundary_guard, operator_crc, operator_guard, rhs_guard, scrub_state,
    CorruptTarget, CorruptionReport, IntegrityConfig, OperatorPayload,
};
use crate::recovery::{solve_set_with_ladder, RecoveryEvent, RunError};
use crate::slot::CaseSlot;
use crate::trace::StepTracer;

/// Stagnation window the drivers hand to the CG solvers: long enough that
/// a healthy solve never trips it, short enough that a non-converging
/// residual plateau fails fast instead of burning the full iteration cap.
pub(crate) const DRIVER_STAGNATION_WINDOW: usize = 2_000;

/// Divergent-guess threshold the drivers hand to the CG solvers. Past
/// `tol / eps` the recursive residual can fake a convergence (attainable
/// accuracy is ~`eps ×` initial residual), so such a guess must fail typed
/// and go through the recovery ladder instead. The floor keeps the guard
/// meaningful for extreme (e.g. zero) tolerances.
pub(crate) fn driver_guess_divergence(tol: f64) -> f64 {
    (tol / f64::EPSILON).max(1e6)
}

/// Invariant-sentinel period the drivers arm (ABFT true-residual audit
/// every this many CG iterations, plus an exit audit on every claimed
/// convergence). One extra operator application per 64 keeps the detection
/// overhead under 2% of solver work; the sentinel is read-only, so clean
/// solves stay bitwise-identical to a sentinel-off run.
pub(crate) const DRIVER_SENTINEL_EVERY: usize = 64;

/// Bounded-norm guard factor the drivers arm: an iterate whose norm grows
/// a trillion-fold past its first-audit reference is a runaway, not a
/// solution. Generous enough that no healthy solve can trip it.
pub(crate) const DRIVER_NORM_BOUND: f64 = 1e12;

/// The CG configuration every driver hands to the solvers for tolerance
/// `tol`. Public so the serving layer solves with the exact same settings
/// as the ensemble drivers (part of the bitwise-equivalence contract).
/// SDC sentinels are armed (`sentinel_every`, `norm_bound`): they are
/// read-only and excluded from modeled counts, so this remains
/// bitwise-equivalent to the pre-sentinel configuration on healthy solves
/// while corrupted solves now fail typed instead of lying.
pub fn driver_cg_config(tol: f64) -> CgConfig {
    CgConfig {
        tol,
        max_iter: 100_000,
        stagnation_window: DRIVER_STAGNATION_WINDOW,
        guess_divergence: driver_guess_divergence(tol),
        sentinel_every: DRIVER_SENTINEL_EVERY,
        sentinel_drift: 0.0, // DEFAULT_SENTINEL_DRIFT
        norm_bound: DRIVER_NORM_BOUND,
    }
}

/// Is this step one of the periodic predictor-basis audit boundaries?
fn check_basis_at(integ: &IntegrityConfig, step: usize) -> bool {
    integ.detect
        && integ.basis_check_every > 0
        && step > 0
        && step.is_multiple_of(integ.basis_check_every)
}

/// Map a fault-plan lane onto the machine model's lane kind.
fn lane_kind(lane: FaultLane) -> LaneKind {
    match lane {
        FaultLane::Cpu => LaneKind::Cpu,
        FaultLane::Gpu => LaneKind::Gpu,
    }
}

/// Modeled bytes an exchange moves after an injected exchange fault:
/// `Drop` moves nothing, `Delay` occupies the link `factor`× longer.
fn exchange_bytes<F: FaultInjector>(faults: &mut F, step: usize, set: usize, bytes: f64) -> f64 {
    match faults.exchange_fault(step, set) {
        Some(hetsolve_fault::ExchangeFault::Drop) => 0.0,
        Some(hetsolve_fault::ExchangeFault::Delay { factor }) => bytes * factor,
        None => bytes,
    }
}

/// Which of the paper's methods to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    CrsCgCpu,
    CrsCgGpu,
    CrsCgCpuGpu,
    EbeMcgCpuGpu,
}

impl MethodKind {
    pub fn label(&self) -> &'static str {
        match self {
            MethodKind::CrsCgCpu => "CRS-CG@CPU",
            MethodKind::CrsCgGpu => "CRS-CG@GPU",
            MethodKind::CrsCgCpuGpu => "CRS-CG@CPU-GPU",
            MethodKind::EbeMcgCpuGpu => "EBE-MCG@CPU-GPU",
        }
    }

    /// Number of simulation cases a single run advances (Table 3: 1, 1, 2,
    /// and 2r).
    pub fn n_cases(&self, r: usize) -> usize {
        match self {
            MethodKind::CrsCgCpu | MethodKind::CrsCgGpu => 1,
            MethodKind::CrsCgCpuGpu => 2,
            MethodKind::EbeMcgCpuGpu => 2 * r,
        }
    }

    /// Does this method use the data-driven predictor?
    pub fn data_driven(&self) -> bool {
        matches!(self, MethodKind::CrsCgCpuGpu | MethodKind::EbeMcgCpuGpu)
    }
}

/// How the data-driven snapshot window `s` is chosen each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowPolicy {
    /// Online controller: grow/shrink `s` from the measured
    /// predictor/solver balance (the paper's adaptive window). The window
    /// is shared by every case of the run, so one case's choice of `s`
    /// depends on its companions' timing.
    #[default]
    Adaptive,
    /// Always request the full window `s_max`, clamped per case to the
    /// history that case has accumulated. Purely case-local and
    /// deterministic — a case's trajectory is independent of which other
    /// cases share its fused lane. The serving layer requires this policy
    /// (it is what makes served results bitwise-equal to solo runs).
    FullWindow,
}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub method: MethodKind,
    pub node: NodeSpec,
    /// Predictor CPU threads per process (Table 4 sweeps 36/24/16).
    pub cpu_threads: usize,
    /// Cases per set for EBE-MCG (paper: 4).
    pub r: usize,
    /// Snapshot-window cap (memory bound; paper: 32 / 11).
    pub s_max: usize,
    /// Predictor region size in DOFs.
    pub region_dofs: usize,
    /// CG relative tolerance (paper: 1e-8).
    pub tol: f64,
    /// Snapshot-window selection policy for the data-driven methods.
    pub window: WindowPolicy,
    pub n_steps: usize,
    /// Base RNG seed; case `c` uses `seed + c`.
    pub seed: u64,
    pub load: RandomLoadSpec,
    /// Steps before this index are excluded from the summary averages
    /// (the paper measures steps 250–500).
    pub measure_from: usize,
    /// Record surface z-waveforms for FDD post-processing.
    pub record_surface: bool,
    /// Silent-data-corruption defense (checksums, sentinels, rollback).
    /// Detection is read-only on clean data, so the default-on setting
    /// leaves clean results bitwise-unchanged.
    pub integrity: IntegrityConfig,
}

impl RunConfig {
    pub fn new(method: MethodKind, node: NodeSpec, n_steps: usize) -> Self {
        RunConfig {
            method,
            node,
            cpu_threads: 36,
            r: 4,
            s_max: 16,
            region_dofs: 384,
            tol: 1e-8,
            window: WindowPolicy::Adaptive,
            n_steps,
            seed: 2024,
            load: RandomLoadSpec::default(),
            measure_from: n_steps / 4,
            record_surface: false,
            integrity: IntegrityConfig::default(),
        }
    }
}

/// Per-step record (regenerates Fig. 4 and the per-step columns of
/// Tables 3–4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepRecord {
    pub step: usize,
    /// Modeled wall time of the step per case (s).
    pub step_time_per_case: f64,
    /// Modeled solver time per case (s).
    pub solver_time_per_case: f64,
    /// Modeled predictor time per case (s).
    pub predictor_time_per_case: f64,
    /// Modeled CPU↔GPU transfer time of the step (s).
    pub transfer_time: f64,
    /// Mean CG iterations per case.
    pub iterations: f64,
    /// Snapshot window used (0 for Adams-Bashforth-only methods).
    pub s_used: usize,
    /// Mean initial relative residual (initial-guess quality).
    pub initial_rel_res: f64,
}

/// Result of a time-history run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub method: MethodKind,
    pub n_cases: usize,
    pub records: Vec<StepRecord>,
    pub energy: EnergyReport,
    /// Surface z-waveforms `[case][point][step]` (when recorded).
    pub waveforms: Vec<Vec<Vec<f64>>>,
    /// Final displacement of each case (accuracy cross-checks).
    pub final_u: Vec<Vec<f64>>,
    /// Recovery-ladder events: steps that survived an abnormal solver
    /// termination on a downgraded guess. Empty on a healthy run.
    pub recoveries: Vec<RecoveryEvent>,
    /// Corruptions the integrity layer detected and repaired (rollback,
    /// recompute, rebuild, reset). Empty on a clean run.
    pub corruptions: Vec<CorruptionReport>,
}

impl RunResult {
    fn measured(&self, from: usize) -> impl Iterator<Item = &StepRecord> {
        self.records.iter().filter(move |r| r.step >= from)
    }

    /// Mean step time per case over the measurement window.
    pub fn mean_step_time(&self, from: usize) -> f64 {
        let (mut s, mut n) = (0.0, 0);
        for r in self.measured(from) {
            s += r.step_time_per_case;
            n += 1;
        }
        s / n.max(1) as f64
    }

    pub fn mean_solver_time(&self, from: usize) -> f64 {
        let (mut s, mut n) = (0.0, 0);
        for r in self.measured(from) {
            s += r.solver_time_per_case;
            n += 1;
        }
        s / n.max(1) as f64
    }

    pub fn mean_predictor_time(&self, from: usize) -> f64 {
        let (mut s, mut n) = (0.0, 0);
        for r in self.measured(from) {
            s += r.predictor_time_per_case;
            n += 1;
        }
        s / n.max(1) as f64
    }

    pub fn mean_iterations(&self, from: usize) -> f64 {
        let (mut s, mut n) = (0.0, 0);
        for r in self.measured(from) {
            s += r.iterations;
            n += 1;
        }
        s / n.max(1) as f64
    }

    /// Energy per step per case over the whole run (J).
    pub fn energy_per_step_per_case(&self) -> f64 {
        self.energy.energy / (self.records.len().max(1) * self.n_cases) as f64
    }
}

/// Run a time-history simulation with the configured method.
///
/// Returns a typed [`RunError`] instead of panicking when a step's solve
/// exhausts the recovery ladder (see [`crate::recovery`]).
pub fn run(backend: &Backend, cfg: &RunConfig) -> Result<RunResult, RunError> {
    run_traced(backend, cfg, &mut StepTracer::disabled())
}

/// [`run`] with an observability tracer threaded through the driver: every
/// kernel/transfer charge is labeled into the tracer's Chrome-trace
/// timeline, adaptive-window decisions and CG-iteration counters are
/// recorded, and the finished run is folded into the tracer's metrics
/// sink. With [`StepTracer::disabled`] this is exactly [`run`].
pub fn run_traced(
    backend: &Backend,
    cfg: &RunConfig,
    tracer: &mut StepTracer,
) -> Result<RunResult, RunError> {
    run_faulted(backend, cfg, tracer, &mut NoopFaults)
}

/// [`run_traced`] with a fault injector threaded through the driver. With
/// [`NoopFaults`] (a ZST whose hooks are the empty defaults) this is
/// exactly [`run_traced`] — the fault suite asserts bitwise identity. With
/// a [`FaultPlan`](hetsolve_fault::FaultPlan), the scheduled faults hit
/// guesses, snapshots, exchanges, lanes and solver caps, and the recovery
/// ladder's response is recorded in [`RunResult::recoveries`].
pub fn run_faulted<F: FaultInjector>(
    backend: &Backend,
    cfg: &RunConfig,
    tracer: &mut StepTracer,
    faults: &mut F,
) -> Result<RunResult, RunError> {
    if cfg.method != MethodKind::EbeMcgCpuGpu && !backend.has_crs() {
        return Err(RunError::Config {
            message: format!(
                "method {} needs assembled matrices, but the backend was built \
                 with `with_crs = false`",
                cfg.method.label()
            ),
        });
    }
    let n_sets = match cfg.method {
        MethodKind::CrsCgCpu | MethodKind::CrsCgGpu => 1,
        MethodKind::CrsCgCpuGpu | MethodKind::EbeMcgCpuGpu => 2,
    };
    tracer.begin_run(cfg.method.label(), cfg, n_sets);
    let result = match cfg.method {
        MethodKind::CrsCgCpu | MethodKind::CrsCgGpu => run_crs_single(backend, cfg, tracer, faults),
        MethodKind::CrsCgCpuGpu => run_crs_pipelined(backend, cfg, tracer, faults),
        MethodKind::EbeMcgCpuGpu => run_ebe_mcg(backend, cfg, tracer, faults),
    }?;
    tracer.finish_run(&result, cfg.measure_from);
    Ok(result)
}

/// Algorithm 2: single case, single device, Adams-Bashforth predictor.
fn run_crs_single<F: FaultInjector>(
    backend: &Backend,
    cfg: &RunConfig,
    tracer: &mut StepTracer,
    faults: &mut F,
) -> Result<RunResult, RunError> {
    let on_gpu = cfg.method == MethodKind::CrsCgGpu;
    let n = backend.n_dofs();
    let obs = backend.problem.surface_dofs_z();
    let mut case = CaseSlot::new(
        backend,
        cfg,
        0,
        if cfg.record_surface { obs.len() } else { 0 },
    );
    let mut clock = ModuleClock::new(cfg.node.module, backend.problem_threads(cfg), false);
    tracer.attach_clock(&mut clock);
    let mut scratch = RhsScratch::new(n);
    let cg_cfg = driver_cg_config(cfg.tol);
    let mut records = Vec::with_capacity(cfg.n_steps);
    let mut recoveries = Vec::new();
    let mut corruptions = Vec::new();
    let crs = backend.crs_a();
    let a = Width1(crs);
    let rhs_counts = backend.rhs_counts_crs();
    let detect = cfg.integrity.detect;
    let op_crc = operator_crc(OperatorPayload::Crs(crs));

    for step in 0..cfg.n_steps {
        boundary_guard(&mut case, faults, step, 0, detect, &mut corruptions);
        if check_basis_at(&cfg.integrity, step) {
            corruptions.extend(basis_sentinel(
                &mut case,
                step,
                0,
                cfg.integrity.basis_defect_tol,
            ));
        }
        operator_guard(
            OperatorPayload::Crs(crs),
            op_crc,
            faults,
            step,
            detect,
            &mut corruptions,
        )
        .map_err(|t| RunError::Corruption {
            step,
            case: None,
            target: t.label(),
        })?;
        // Adams-Bashforth only: window 0 leaves the guess at the AB one
        let (ab_guess, _) = case.prepare_step(backend, &mut scratch, 0);
        rhs_guard(
            backend,
            &mut case,
            &mut scratch,
            faults,
            step,
            0,
            detect,
            &mut corruptions,
        );
        let mut x = case.guess.clone();
        let mut guess_faulted = false;
        if let Some(vf) = faults.guess_fault(step, 0) {
            vf.apply(&mut x);
            guess_faulted = true;
        }
        let first_cfg = match faults.solver_fault(step, 0) {
            Some(sf) => CgConfig {
                max_iter: sf.max_iter.min(cg_cfg.max_iter),
                ..cg_cfg
            },
            None => cg_cfg,
        };
        let before = recoveries.len();
        // ladder on a lane of one: the first attempt starts from the
        // (possibly corrupted) AB guess; only a corrupted guess makes the
        // AB rung distinct.
        let stats = solve_set_with_ladder(
            &a,
            &backend.precond,
            &case.rhs,
            &mut x,
            std::slice::from_ref(&ab_guess),
            &cg_cfg,
            &first_cfg,
            step,
            0,
            None,
            guess_faulted,
            &mut recoveries,
        )?;
        let iterations = stats.case_iterations[0];
        // charge the device: RHS + predictor (3 vector passes) + solve
        let total = rhs_counts
            .merged(vector_counts(n, 4.0))
            .merged(stats.counts);
        let span_args = [("iterations", Json::from(iterations))];
        let mut t = if on_gpu {
            tracer.charge_gpu(&mut clock, 0, "rhs + CG solve", &total, &span_args)
        } else {
            tracer.charge_cpu(&mut clock, 0, "rhs + CG solve", &total, &span_args)
        };
        tracer.iterations_counter(clock.elapsed(), iterations as f64);
        for ev in &recoveries[before..] {
            tracer.recovery_event(clock.elapsed(), ev);
        }
        if let Some(lf) = faults.lane_fault(step, 0) {
            t += tracer.charge_stall(&mut clock, 0, lane_kind(lf.lane), lf.seconds);
        }
        case.advance(backend, &x, &ab_guess, faults.snapshot_fault(step, 0));
        if detect {
            if let Some(field) = scrub_state(&case) {
                return Err(RunError::Corruption {
                    step,
                    case: Some(0),
                    target: CorruptTarget::State(field).label(),
                });
            }
        }
        if cfg.record_surface {
            case.record_waveform(&obs);
        }
        records.push(StepRecord {
            step,
            step_time_per_case: t,
            solver_time_per_case: t,
            predictor_time_per_case: 0.0,
            transfer_time: 0.0,
            iterations: iterations as f64,
            s_used: 0,
            initial_rel_res: stats.initial_rel_res[0],
        });
    }

    Ok(RunResult {
        method: cfg.method,
        n_cases: 1,
        records,
        energy: clock.report(),
        waveforms: if cfg.record_surface {
            vec![case.waveform]
        } else {
            Vec::new()
        },
        final_u: vec![case.time.u],
        recoveries,
        corruptions,
    })
}

/// Algorithm 4: 2 cases; data-driven predictor on CPU overlaps the CRS
/// solve of the other case on GPU.
fn run_crs_pipelined<F: FaultInjector>(
    backend: &Backend,
    cfg: &RunConfig,
    tracer: &mut StepTracer,
    faults: &mut F,
) -> Result<RunResult, RunError> {
    let n = backend.n_dofs();
    let obs = backend.problem.surface_dofs_z();
    let n_obs = if cfg.record_surface { obs.len() } else { 0 };
    let mut cases: Vec<CaseSlot> = (0..2)
        .map(|c| CaseSlot::new(backend, cfg, c, n_obs))
        .collect();
    let mut clock = ModuleClock::new(cfg.node.module, cfg.cpu_threads, true);
    tracer.attach_clock(&mut clock);
    let mut adaptive = AdaptiveWindow::new(1, cfg.s_max.max(1));
    let mut scratch = RhsScratch::new(n);
    let cg_cfg = driver_cg_config(cfg.tol);
    let mut records = Vec::with_capacity(cfg.n_steps);
    let mut recoveries = Vec::new();
    let mut corruptions = Vec::new();
    let crs = backend.crs_a();
    let a = Width1(crs);
    let rhs_counts = backend.rhs_counts_crs();
    let detect = cfg.integrity.detect;
    let op_crc = operator_crc(OperatorPayload::Crs(crs));

    for step in 0..cfg.n_steps {
        operator_guard(
            OperatorPayload::Crs(crs),
            op_crc,
            faults,
            step,
            detect,
            &mut corruptions,
        )
        .map_err(|t| RunError::Corruption {
            step,
            case: None,
            target: t.label(),
        })?;
        // Adaptive shares one window across cases; FullWindow is
        // case-local (clamped to each case's own history below).
        let s_shared = match cfg.window {
            WindowPolicy::Adaptive => Some(adaptive.current().min(cases[0].dd.available_s())),
            WindowPolicy::FullWindow => None,
        };
        let mut iter_sum = 0.0;
        let mut res_sum = 0.0;
        let mut s_used = 0;
        let mut solver_t = 0.0;
        let mut pred_t = 0.0;
        // Injected lane stalls are reported in the step record but kept
        // out of the adaptive-window controller's inputs: a transient
        // stall says nothing about the predictor/solver balance, and
        // letting it thrash the window would perturb the numerics of a
        // timing-only fault.
        let mut stall_solver = 0.0;
        let mut stall_pred = 0.0;
        let mut history_poisoned = false;
        for (set, case) in cases.iter_mut().enumerate() {
            boundary_guard(case, faults, step, set, detect, &mut corruptions);
            if check_basis_at(&cfg.integrity, step) {
                corruptions.extend(basis_sentinel(
                    case,
                    step,
                    set,
                    cfg.integrity.basis_defect_tol,
                ));
            }
            let s = s_shared.unwrap_or_else(|| cfg.s_max.max(1).min(case.dd.available_s()));
            let (ab_guess, su) = case.prepare_step(backend, &mut scratch, s);
            s_used = su;
            rhs_guard(
                backend,
                case,
                &mut scratch,
                faults,
                step,
                set,
                detect,
                &mut corruptions,
            );
            let mut x = case.guess.clone();
            let mut guess_faulted = false;
            if let Some(vf) = faults.guess_fault(step, set) {
                vf.apply(&mut x);
                guess_faulted = true;
            }
            let first_cfg = match faults.solver_fault(step, set) {
                Some(sf) => CgConfig {
                    max_iter: sf.max_iter.min(cg_cfg.max_iter),
                    ..cg_cfg
                },
                None => cg_cfg,
            };
            let before = recoveries.len();
            // ladder on a lane of one: the AB rung is distinct whenever the
            // first attempt started from a data-driven guess (s_used > 0)
            // or a corrupted one
            let stats = solve_set_with_ladder(
                &a,
                &backend.precond,
                &case.rhs,
                &mut x,
                std::slice::from_ref(&ab_guess),
                &cg_cfg,
                &first_cfg,
                step,
                set,
                None,
                s_used > 0 || guess_faulted,
                &mut recoveries,
            )?;
            let iterations = stats.case_iterations[0];
            iter_sum += iterations as f64;
            res_sum += stats.initial_rel_res[0];
            // GPU lane: RHS + solve; CPU lane: predictor
            let gpu = rhs_counts.merged(stats.counts);
            solver_t += tracer.charge_gpu(
                &mut clock,
                set,
                "rhs + CG solve",
                &gpu,
                &[("iterations", Json::from(iterations))],
            );
            pred_t += tracer.charge_cpu(
                &mut clock,
                set,
                "predictor",
                &case.dd.cost(s_used.max(1)),
                &[("s", Json::from(s_used))],
            );
            for ev in &recoveries[before..] {
                tracer.recovery_event(clock.elapsed(), ev);
            }
            if let Some(lf) = faults.lane_fault(step, set) {
                let stall = tracer.charge_stall(&mut clock, set, lane_kind(lf.lane), lf.seconds);
                match lf.lane {
                    FaultLane::Cpu => stall_pred += stall,
                    FaultLane::Gpu => stall_solver += stall,
                }
            }
            if !case.advance(backend, &x, &ab_guess, faults.snapshot_fault(step, set)) {
                history_poisoned = true;
            }
            if detect {
                if let Some(field) = scrub_state(case) {
                    return Err(RunError::Corruption {
                        step,
                        case: Some(set),
                        target: CorruptTarget::State(field).label(),
                    });
                }
            }
            if cfg.record_surface {
                case.record_waveform(&obs);
            }
        }
        if history_poisoned {
            adaptive.reset_window();
        }
        clock.sync();
        // exchange: one solution down, one guess up, per process pair
        let bytes = exchange_bytes(faults, step, 0, 2.0 * n as f64 * 8.0);
        let xfer = if bytes > 0.0 {
            tracer.charge_transfer(&mut clock, 0, "exchange", bytes)
        } else {
            0.0 // dropped exchange: nothing crosses the link
        };
        if cfg.window == WindowPolicy::Adaptive {
            let decision = adaptive.observe_logged(s_used.max(1), pred_t / 2.0, solver_t / 2.0);
            tracer.window_decision(step, clock.elapsed(), &decision);
        }
        tracer.iterations_counter(clock.elapsed(), iter_sum / 2.0);
        records.push(StepRecord {
            step,
            step_time_per_case: (solver_t + stall_solver).max(pred_t + stall_pred) / 2.0 + xfer,
            solver_time_per_case: (solver_t + stall_solver) / 2.0,
            predictor_time_per_case: (pred_t + stall_pred) / 2.0,
            transfer_time: xfer,
            iterations: iter_sum / 2.0,
            s_used,
            initial_rel_res: res_sum / 2.0,
        });
    }

    Ok(finish(cfg, cases, records, clock, recoveries, corruptions))
}

/// Algorithm 3 (the proposal): 2 sets × r cases, matrix-free multi-RHS CG
/// on the GPU overlapped with the predictors of the other set on the CPU.
fn run_ebe_mcg<F: FaultInjector>(
    backend: &Backend,
    cfg: &RunConfig,
    tracer: &mut StepTracer,
    faults: &mut F,
) -> Result<RunResult, RunError> {
    let ctx = EbeRunCtx::new(backend, cfg);
    let mut st = EbeRunState::new(backend, cfg);
    tracer.attach_clock(&mut st.clock);
    while st.step < cfg.n_steps {
        st.step_once(backend, cfg, tracer, faults, &ctx)?;
    }
    Ok(st.into_result(cfg))
}

/// Immutable per-run context of the EBE-MCG driver: the matrix-free
/// operator and kernel costs borrowed from the backend, the CG settings,
/// and the observation DOFs. Rebuilt identically from `(backend, cfg)` on
/// every (re)start, so none of it belongs in a checkpoint.
pub(crate) struct EbeRunCtx<'a> {
    op: CompactEbe<'a>,
    rhs_counts: KernelCounts,
    cg_cfg: CgConfig,
    obs: Vec<usize>,
    /// Construction-time ABFT checksum of the EBE operator payload,
    /// re-verified at every step boundary.
    op_crc: u32,
}

impl<'a> EbeRunCtx<'a> {
    pub(crate) fn new(backend: &'a Backend, cfg: &RunConfig) -> Self {
        EbeRunCtx {
            op: backend.ebe_a(cfg.r),
            rhs_counts: backend.rhs_counts_ebe(cfg.r),
            cg_cfg: driver_cg_config(cfg.tol),
            obs: backend.problem.surface_dofs_z(),
            op_crc: operator_crc(OperatorPayload::Ebe(&backend.compact)),
        }
    }
}

/// Mutable state of an EBE-MCG run at a step boundary — exactly what a
/// crash-consistent checkpoint must persist. The `scratch`/`f_multi`/
/// `x_multi` buffers are excluded on purpose: every step fully rewrites
/// them before reading, so a resumed run is bitwise-identical without
/// them. Both the uninterrupted driver ([`run_ebe_mcg`]) and the durable
/// driver ([`crate::durable::run_durable`]) advance through the same
/// [`EbeRunState::step_once`], which is what makes the replay-determinism
/// claim structural rather than coincidental.
pub(crate) struct EbeRunState {
    pub(crate) cases: Vec<CaseSlot>,
    pub(crate) clock: ModuleClock,
    pub(crate) adaptive: AdaptiveWindow,
    pub(crate) records: Vec<StepRecord>,
    pub(crate) recoveries: Vec<RecoveryEvent>,
    pub(crate) corruptions: Vec<CorruptionReport>,
    /// Next step boundary to execute (`records.len()` on a healthy run).
    pub(crate) step: usize,
    scratch: RhsScratch,
    f_multi: Vec<f64>,
    x_multi: Vec<f64>,
}

impl EbeRunState {
    pub(crate) fn new(backend: &Backend, cfg: &RunConfig) -> Self {
        let n = backend.n_dofs();
        let r = cfg.r;
        let n_cases = 2 * r;
        let n_obs = if cfg.record_surface {
            backend.problem.surface_dofs_z().len()
        } else {
            0
        };
        EbeRunState {
            cases: (0..n_cases)
                .map(|c| CaseSlot::new(backend, cfg, c, n_obs))
                .collect(),
            clock: ModuleClock::new(cfg.node.module, cfg.cpu_threads, true),
            adaptive: AdaptiveWindow::new(1, cfg.s_max.max(1)),
            records: Vec::with_capacity(cfg.n_steps),
            recoveries: Vec::new(),
            corruptions: Vec::new(),
            step: 0,
            scratch: RhsScratch::new(n),
            f_multi: vec![0.0; n * r],
            x_multi: vec![0.0; n * r],
        }
    }

    /// Execute one step boundary: predictors on the CPU lane, the fused
    /// multi-RHS solve on the GPU lane, advance, sync, exchange, adapt.
    pub(crate) fn step_once<F: FaultInjector>(
        &mut self,
        backend: &Backend,
        cfg: &RunConfig,
        tracer: &mut StepTracer,
        faults: &mut F,
        ctx: &EbeRunCtx<'_>,
    ) -> Result<(), RunError> {
        let n = backend.n_dofs();
        let r = cfg.r;
        let n_cases = 2 * r;
        let step = self.step;
        let s_shared = match cfg.window {
            WindowPolicy::Adaptive => Some(self.adaptive.current()),
            WindowPolicy::FullWindow => None,
        };
        let mut iter_sum = 0.0;
        let mut res_sum = 0.0;
        let mut s_used = 0;
        let mut solver_t = 0.0;
        let mut pred_t = 0.0;
        // stalls stay out of the adaptive controller's inputs (see the
        // pipelined driver): report the jitter, don't steer on it
        let mut stall_solver = 0.0;
        let mut stall_pred = 0.0;
        let mut history_poisoned = false;
        let detect = cfg.integrity.detect;

        operator_guard(
            OperatorPayload::Ebe(&backend.compact),
            ctx.op_crc,
            faults,
            step,
            detect,
            &mut self.corruptions,
        )
        .map_err(|t| RunError::Corruption {
            step,
            case: None,
            target: t.label(),
        })?;

        for set in 0..2 {
            let set_cases = set * r..(set + 1) * r;
            // predictors (CPU lane)
            let mut ab_guesses: Vec<Vec<f64>> = Vec::with_capacity(r);
            for c in set_cases.clone() {
                let case = &mut self.cases[c];
                boundary_guard(case, faults, step, c, detect, &mut self.corruptions);
                if check_basis_at(&cfg.integrity, step) {
                    self.corruptions.extend(basis_sentinel(
                        case,
                        step,
                        c,
                        cfg.integrity.basis_defect_tol,
                    ));
                }
                let s = s_shared.unwrap_or_else(|| cfg.s_max.max(1).min(case.dd.available_s()));
                let (ab_guess, su) = case.prepare_step(backend, &mut self.scratch, s);
                rhs_guard(
                    backend,
                    case,
                    &mut self.scratch,
                    faults,
                    step,
                    c,
                    detect,
                    &mut self.corruptions,
                );
                ab_guesses.push(ab_guess);
                s_used = su;
                if let Some(vf) = faults.guess_fault(step, c) {
                    vf.apply(&mut case.guess);
                }
                pred_t += tracer.charge_cpu(
                    &mut self.clock,
                    set,
                    "predictor",
                    &case.dd.cost(s_used.max(1)),
                    &[("case", Json::from(c)), ("s", Json::from(s_used))],
                );
            }
            // fused solve (GPU lane)
            for (k, c) in set_cases.clone().enumerate() {
                hetsolve_sparse::vecops::insert_case(&mut self.f_multi, r, k, &self.cases[c].rhs);
                hetsolve_sparse::vecops::insert_case(&mut self.x_multi, r, k, &self.cases[c].guess);
            }
            let first_cfg = match faults.solver_fault(step, set) {
                Some(sf) => CgConfig {
                    max_iter: sf.max_iter.min(ctx.cg_cfg.max_iter),
                    ..ctx.cg_cfg
                },
                None => ctx.cg_cfg,
            };
            let before = self.recoveries.len();
            let stats = solve_set_with_ladder(
                &ctx.op,
                &backend.precond,
                &self.f_multi,
                &mut self.x_multi,
                &ab_guesses,
                &ctx.cg_cfg,
                &first_cfg,
                step,
                set,
                Some(set * r),
                true,
                &mut self.recoveries,
            )?;
            solver_t += tracer.charge_gpu(
                &mut self.clock,
                set,
                "rhs + MCG solve",
                &ctx.rhs_counts.merged(stats.counts),
                &[
                    ("r", Json::from(r)),
                    ("fused_iterations", Json::from(stats.fused_iterations)),
                ],
            );
            for ev in &self.recoveries[before..] {
                tracer.recovery_event(self.clock.elapsed(), ev);
            }
            if let Some(lf) = faults.lane_fault(step, set) {
                let stall =
                    tracer.charge_stall(&mut self.clock, set, lane_kind(lf.lane), lf.seconds);
                match lf.lane {
                    FaultLane::Cpu => stall_pred += stall,
                    FaultLane::Gpu => stall_solver += stall,
                }
            }
            for (k, c) in set_cases.clone().enumerate() {
                let mut x = vec![0.0; n];
                hetsolve_sparse::vecops::extract_case(&self.x_multi, r, k, &mut x);
                iter_sum += stats.case_iterations[k] as f64;
                res_sum += stats.initial_rel_res[k];
                if !self.cases[c].advance(
                    backend,
                    &x,
                    &ab_guesses[k],
                    faults.snapshot_fault(step, c),
                ) {
                    history_poisoned = true;
                }
                if detect {
                    if let Some(field) = scrub_state(&self.cases[c]) {
                        return Err(RunError::Corruption {
                            step,
                            case: Some(c),
                            target: CorruptTarget::State(field).label(),
                        });
                    }
                }
                if cfg.record_surface {
                    self.cases[c].record_waveform(&ctx.obs);
                }
            }
            // sync + exchange predictions/solutions between the processes
            self.clock.sync();
            let bytes = exchange_bytes(faults, step, set, 2.0 * (n * r) as f64 * 8.0);
            if bytes > 0.0 {
                let _ = tracer.charge_transfer(&mut self.clock, set, "exchange", bytes);
            }
        }
        if history_poisoned {
            self.adaptive.reset_window();
        }
        self.clock.sync();
        let xfer = 0.0; // transfers already charged inside the set loop
        if cfg.window == WindowPolicy::Adaptive {
            let decision =
                self.adaptive
                    .observe_logged(s_used.max(1), pred_t / 2.0, solver_t / 2.0);
            tracer.window_decision(step, self.clock.elapsed(), &decision);
        }
        tracer.iterations_counter(self.clock.elapsed(), iter_sum / n_cases as f64);
        self.records.push(StepRecord {
            step,
            step_time_per_case: (solver_t + stall_solver).max(pred_t + stall_pred) / n_cases as f64
                + 2.0 * (2.0 * (n * r) as f64 * 8.0 / cfg.node.module.link.bw) / n_cases as f64,
            solver_time_per_case: (solver_t + stall_solver) / n_cases as f64,
            predictor_time_per_case: (pred_t + stall_pred) / n_cases as f64,
            transfer_time: xfer,
            iterations: iter_sum / n_cases as f64,
            s_used,
            initial_rel_res: res_sum / n_cases as f64,
        });
        self.step += 1;
        tracer.step_completed(self.clock.elapsed());
        Ok(())
    }

    pub(crate) fn into_result(self, cfg: &RunConfig) -> RunResult {
        finish(
            cfg,
            self.cases,
            self.records,
            self.clock,
            self.recoveries,
            self.corruptions,
        )
    }
}

fn finish(
    cfg: &RunConfig,
    cases: Vec<CaseSlot>,
    records: Vec<StepRecord>,
    clock: ModuleClock,
    recoveries: Vec<RecoveryEvent>,
    corruptions: Vec<CorruptionReport>,
) -> RunResult {
    let n_cases = cases.len();
    let mut waveforms = Vec::new();
    let mut final_u = Vec::new();
    for case in cases {
        if cfg.record_surface {
            waveforms.push(case.waveform);
        }
        final_u.push(case.time.u);
    }
    RunResult {
        method: cfg.method,
        n_cases,
        records,
        energy: clock.report(),
        waveforms,
        final_u,
        recoveries,
        corruptions,
    }
}

/// Vector-pass costs (n-length streams).
fn vector_counts(n: usize, passes: f64) -> KernelCounts {
    KernelCounts {
        flops: passes * n as f64,
        bytes_stream: passes * 16.0 * n as f64,
        bytes_rand: 0.0,
        rand_transactions: 0.0,
        rhs_fused: 1,
    }
}

impl Backend {
    /// Threads used by non-pipelined methods: all CPU cores for @CPU,
    /// a service thread's worth for @GPU.
    fn problem_threads(&self, cfg: &RunConfig) -> usize {
        match cfg.method {
            MethodKind::CrsCgCpu => cfg.node.module.cpu.n_cores,
            _ => cfg.cpu_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_fem::FemProblem;
    use hetsolve_machine::single_gh200;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    fn small_backend() -> Backend {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        Backend::new(FemProblem::paper_like(&spec), true, false)
    }

    fn cfg(method: MethodKind, steps: usize) -> RunConfig {
        let mut c = RunConfig::new(method, single_gh200(), steps);
        c.r = 2;
        c.s_max = 6;
        c.load = RandomLoadSpec {
            n_sources: 4,
            impulses_per_source: 2.0,
            amplitude: 1e6,
            active_window: 0.2,
        };
        c.region_dofs = 300;
        c
    }

    #[test]
    fn all_methods_advance_and_record() {
        let b = small_backend();
        for method in [
            MethodKind::CrsCgCpu,
            MethodKind::CrsCgGpu,
            MethodKind::CrsCgCpuGpu,
            MethodKind::EbeMcgCpuGpu,
        ] {
            let r = run(&b, &cfg(method, 6)).expect("run");
            assert_eq!(r.records.len(), 6, "{method:?}");
            assert_eq!(r.n_cases, method.n_cases(2), "{method:?}");
            assert!(r.energy.energy > 0.0);
            assert!(r.records.iter().all(|s| s.step_time_per_case > 0.0));
            assert!(
                r.final_u.iter().any(|u| u.iter().any(|&x| x != 0.0)),
                "{method:?} static"
            );
        }
    }

    /// The paper's central accuracy claim: every method produces the same
    /// solution (to solver tolerance) for the same case.
    #[test]
    fn methods_agree_on_case_zero() {
        let b = small_backend();
        let steps = 8;
        let runs: Vec<RunResult> = [
            MethodKind::CrsCgCpu,
            MethodKind::CrsCgGpu,
            MethodKind::CrsCgCpuGpu,
            MethodKind::EbeMcgCpuGpu,
        ]
        .iter()
        .map(|&m| run(&b, &cfg(m, steps)).expect("run"))
        .collect();
        let reference = &runs[0].final_u[0];
        let scale = reference.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        assert!(scale > 0.0);
        for r in &runs[1..] {
            for (i, (&x, &y)) in r.final_u[0].iter().zip(reference).enumerate() {
                assert!(
                    (x - y).abs() < 1e-4 * scale,
                    "{:?} dof {i}: {x} vs {y}",
                    r.method
                );
            }
        }
    }

    #[test]
    fn data_driven_reduces_iterations() {
        let b = small_backend();
        let steps = 40;
        let base = run(&b, &cfg(MethodKind::CrsCgGpu, steps)).expect("run");
        let dd = run(&b, &cfg(MethodKind::CrsCgCpuGpu, steps)).expect("run");
        let from = steps / 2;
        let it_base = base.mean_iterations(from);
        let it_dd = dd.mean_iterations(from);
        assert!(
            it_dd < 0.8 * it_base,
            "data-driven {it_dd} vs Adams-Bashforth {it_base} iterations"
        );
    }

    #[test]
    fn ebe_mcg_is_fastest_and_most_efficient() {
        let b = small_backend();
        let steps = 16;
        let from = steps / 2;
        let cpu = run(&b, &cfg(MethodKind::CrsCgCpu, steps)).expect("run");
        let gpu = run(&b, &cfg(MethodKind::CrsCgGpu, steps)).expect("run");
        let ebe = run(&b, &cfg(MethodKind::EbeMcgCpuGpu, steps)).expect("run");
        let (t_cpu, t_gpu, t_ebe) = (
            cpu.mean_step_time(from),
            gpu.mean_step_time(from),
            ebe.mean_step_time(from),
        );
        assert!(t_gpu < t_cpu, "GPU {t_gpu} vs CPU {t_cpu}");
        assert!(t_ebe < t_gpu, "EBE-MCG {t_ebe} vs CRS-CG@GPU {t_gpu}");
        // energy-to-solution ordering (paper: 9944 J > 2163 J > 309 J)
        let (e_cpu, e_gpu, e_ebe) = (
            cpu.energy_per_step_per_case(),
            gpu.energy_per_step_per_case(),
            ebe.energy_per_step_per_case(),
        );
        assert!(e_gpu < e_cpu, "energy: GPU {e_gpu} vs CPU {e_cpu}");
        assert!(e_ebe < e_gpu, "energy: EBE {e_ebe} vs GPU {e_gpu}");
    }

    #[test]
    fn waveforms_recorded_when_requested() {
        let b = small_backend();
        let mut c = cfg(MethodKind::CrsCgGpu, 5);
        c.record_surface = true;
        let r = run(&b, &c).expect("run");
        assert_eq!(r.waveforms.len(), 1);
        assert_eq!(r.waveforms[0].len(), b.problem.surface_nodes.len());
        assert_eq!(r.waveforms[0][0].len(), 5);
    }

    #[test]
    fn summary_statistics() {
        let b = small_backend();
        let r = run(&b, &cfg(MethodKind::EbeMcgCpuGpu, 10)).expect("run");
        assert!(r.mean_step_time(0) > 0.0);
        assert!(r.mean_iterations(0) > 0.0);
        assert!(r.mean_solver_time(0) > 0.0);
        assert!(r.mean_predictor_time(0) >= 0.0);
        assert!(r.energy_per_step_per_case() > 0.0);
    }

    /// A CRS method on a matrix-free backend is a typed configuration
    /// error at driver entry, not a panic deep inside the RHS path.
    #[test]
    fn crs_method_without_crs_backend_is_a_typed_error() {
        let spec = GroundModelSpec::paper_like(2, 2, 2, InterfaceShape::Stratified);
        let no_crs = Backend::new(FemProblem::paper_like(&spec), false, false);
        for method in [
            MethodKind::CrsCgCpu,
            MethodKind::CrsCgGpu,
            MethodKind::CrsCgCpuGpu,
        ] {
            let err = run(&no_crs, &cfg(method, 3)).unwrap_err();
            match err {
                crate::recovery::RunError::Config { message } => {
                    assert!(message.contains("with_crs"), "{message}");
                }
                other => panic!("expected RunError::Config, got {other}"),
            }
        }
        // the matrix-free method still runs on the same backend
        run(&no_crs, &cfg(MethodKind::EbeMcgCpuGpu, 3)).expect("EBE run");
    }
}
