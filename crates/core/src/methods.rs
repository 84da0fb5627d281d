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
//!
//! # One step driver
//!
//! Algorithms 2, 3 and 4 are one time-step loop at three layouts —
//! 1 set × 1 case, 2 sets × 1 case, 2 sets × r cases — over an operator
//! that is either the assembled matrix (`Width1(crs_a)`) or the
//! matrix-free multi-vector product (`CompactEbe` at `r`). The loop exists
//! once, as the resumable `RunState::step_once`, and one loop calls it:
//! [`run_with`], whatever [`Hooks`] it is given — which is why any method
//! can be traced, faulted, checkpointed and resumed bitwise. A method is a
//! `Layout`:
//!
//! | method | sets | lanes | operator view | solve lane | clock | schedule |
//! |---|---|---|---|---|---|---|
//! | `CRS-CG@CPU` | 1 | 1 | `Width1(crs_a)` | CPU (all cores) | serial | `Serial` |
//! | `CRS-CG@GPU` | 1 | 1 | `Width1(crs_a)` | GPU | serial | `Serial` |
//! | `CRS-CG@CPU-GPU` | 2 | 1 | `Width1(crs_a)` | GPU | overlapped | `ExchangePerStep` |
//! | `EBE-MCG@CPU-GPU` | 2 | r | `CompactEbe` at r | GPU | overlapped | `ExchangePerSet` |
//!
//! What is *not* unified, because the algorithms differ there and the
//! committed benchmark rows pin each bit (`tests/driver_unification.rs`):
//! the `Schedule` (what is charged where, when the lanes sync, what is
//! exchanged, and the `StepRecord` time formulas that follow from it); the
//! shared adaptive window, which only the CRS pipeline clamps to case 0's
//! history; and [`SetSpec::fused`], which follows the operator view (a
//! fused lane always has a distinct Adams-Bashforth rung and names its
//! cases; a lane of one does neither). The per-set sequence itself —
//! guards, predictor, ladder, advance — is the one set step of
//! [`crate::set`]. The two lanes of [`ModuleClock`] are independent
//! accumulators, so within a set the order of the CPU and GPU charges is
//! free.

use hetsolve_ckpt::CheckpointStore;
use hetsolve_fault::{ExchangeFault, FaultKind, FaultLane, FaultPlan, FaultSite};
use hetsolve_fem::RandomLoadSpec;
use hetsolve_machine::{EnergyReport, LaneKind, ModuleClock, NodeSpec, SystemClock, WallClock};
use hetsolve_obs::{names, Json};
use hetsolve_predictor::AdaptiveWindow;
use hetsolve_sparse::{CgConfig, KernelCounts, MultiOperator, Width1};

use crate::backend::Backend;
use crate::durable::{CheckpointPolicy, Durable, DurableOutcome};
use crate::integrity::{
    operator_crc, operator_guard, CorruptionReport, IntegrityConfig, OperatorPayload,
};
use crate::recovery::{RecoveryEvent, RunError};
use crate::set::{Fate, SetSpec, SetStep};
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

hetsolve_ckpt::wire_struct!(StepRecord {
    step,
    step_time_per_case,
    solver_time_per_case,
    predictor_time_per_case,
    transfer_time,
    iterations,
    s_used,
    initial_rel_res,
});

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
    /// Checkpoint bookkeeping of a run given a store ([`Hooks::durable`]);
    /// `None` otherwise.
    pub durable: Option<DurableOutcome>,
}

impl RunResult {
    /// Mean of one record field over the measurement window.
    fn mean_of(&self, from: usize, field: impl Fn(&StepRecord) -> f64) -> f64 {
        let (mut s, mut n) = (0.0, 0);
        for r in self.records.iter().filter(|r| r.step >= from) {
            s += field(r);
            n += 1;
        }
        s / n.max(1) as f64
    }

    /// Mean step time per case over the measurement window.
    pub fn mean_step_time(&self, from: usize) -> f64 {
        self.mean_of(from, |r| r.step_time_per_case)
    }

    pub fn mean_solver_time(&self, from: usize) -> f64 {
        self.mean_of(from, |r| r.solver_time_per_case)
    }

    pub fn mean_predictor_time(&self, from: usize) -> f64 {
        self.mean_of(from, |r| r.predictor_time_per_case)
    }

    pub fn mean_iterations(&self, from: usize) -> f64 {
        self.mean_of(from, |r| r.iterations)
    }

    /// Energy per step per case over the whole run (J).
    pub fn energy_per_step_per_case(&self) -> f64 {
        self.energy.energy / (self.records.len().max(1) * self.n_cases) as f64
    }
}

/// What a run is observed, injected, timed and made durable with. Every
/// hook defaults to off — a disabled tracer, an empty [`FaultPlan`], the
/// system clock, no store — so `Hooks::default()` is [`run`].
#[derive(Default)]
pub struct Hooks<'h> {
    pub(crate) tracer: Option<&'h mut StepTracer>,
    pub(crate) faults: Option<&'h mut FaultPlan>,
    pub(crate) wall: Option<&'h (dyn WallClock + Sync)>,
    pub(crate) store: Option<(&'h CheckpointStore, CheckpointPolicy)>,
}

impl<'h> Hooks<'h> {
    /// Label every charge into `tracer`'s timeline, record window
    /// decisions and counters, fold the run into its metrics sink.
    pub fn tracer(mut self, tracer: &'h mut StepTracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Inject `plan`'s faults; read back [`FaultPlan::injected`] after.
    pub fn faults(mut self, plan: &'h mut FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The wall clock of the I/O timings and the realtime report — never
    /// of the numerics, so a `ManualClock` makes them deterministic.
    pub fn wall(mut self, wall: &'h (dyn WallClock + Sync)) -> Self {
        self.wall = Some(wall);
        self
    }

    /// Restore from `store`'s newest valid checkpoint, then snapshot per
    /// `policy`.
    pub fn durable(mut self, store: &'h CheckpointStore, policy: CheckpointPolicy) -> Self {
        self.store = Some((store, policy));
        self
    }
}

/// Run a time-history simulation with the configured method.
///
/// Returns a typed [`RunError`] instead of panicking when a step's solve
/// exhausts the recovery ladder.
pub fn run(backend: &Backend, cfg: &RunConfig) -> Result<RunResult, RunError> {
    run_with(backend, cfg, Hooks::default())
}

/// [`run`] with `hooks`: the one loop around `RunState::step_once`.
///
/// A crash planned at a step boundary stops the run there with
/// [`RunError::Crashed`] (the injected `kill -9`); with a store the run
/// first resumes from the newest valid checkpoint and snapshots every
/// `policy.every` steps, and a planned torn write truncates the file just
/// written. An empty plan and no store leave the bits of [`run`].
pub fn run_with(
    backend: &Backend,
    cfg: &RunConfig,
    hooks: Hooks<'_>,
) -> Result<RunResult, RunError> {
    let ctx = RunCtx::new(backend, cfg)?;
    let (mut no_tracer, mut no_faults) = Default::default();
    let system = SystemClock::new();
    let tracer = hooks.tracer.unwrap_or(&mut no_tracer);
    let faults = hooks.faults.unwrap_or(&mut no_faults);
    let wall = hooks.wall.unwrap_or(&system);
    let (mut durable, resumed) = match hooks.store {
        Some((store, policy)) => {
            let (d, st) = Durable::open(store, policy, backend, cfg, wall, tracer);
            (Some(d), st)
        }
        None => (None, None),
    };
    let mut st = resumed.unwrap_or_else(|| RunState::new(backend, cfg));
    tracer.begin_run(cfg.method.label(), cfg, ctx.sets());
    tracer.attach_clock(&mut st.clock);
    loop {
        if faults.inject(FaultSite::Crash { step: st.step }).is_some() {
            return Err(RunError::Crashed { step: st.step });
        }
        if st.step >= cfg.n_steps {
            break;
        }
        let corruptions_before = st.corruptions.len();
        st.step_once(backend, cfg, tracer, faults, &ctx)?;
        // every report appended by step_once is a detection that was also
        // recovered in place (unrecoverable corruption returns Err above)
        let recovered = st.corruptions.len() - corruptions_before;
        if let Some(reg) = tracer.registry_mut().filter(|_| recovered > 0) {
            reg.inc(names::CORE_SDC_DETECTED_TOTAL, recovered as f64);
            reg.inc(names::CORE_SDC_RECOVERED_TOTAL, recovered as f64);
        }
        if let Some(d) = durable.as_mut() {
            d.after_step(&st, cfg, faults, wall, tracer)?;
        }
    }
    let mut result = st.into_result(cfg);
    result.durable = durable.map(|d| d.outcome);
    tracer.finish_run(&result, cfg.measure_from);
    Ok(result)
}

/// The charge / sync / exchange schedule of one step: the part of
/// Algorithms 2–4 that is per method rather than per layout, and that the
/// `StepRecord` time formulas follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// Algorithm 2: one device does RHS, Adams-Bashforth and solve as one
    /// merged charge; the lanes never sync and nothing is exchanged.
    Serial,
    /// Algorithm 4: predictor ‖ solve per case, then one sync and one
    /// solution-down/guess-up exchange (`2n·8` bytes) per step.
    ExchangePerStep,
    /// Algorithm 3: predictors ‖ fused solve, with a sync and a `2nr·8`
    /// byte exchange after each set.
    ExchangePerSet,
}

/// How one method lays its cases out over the one step loop: what
/// Algorithms 2, 3 and 4 set differently, as data.
#[derive(Debug, Clone, Copy)]
struct Layout {
    /// Process sets advanced per step.
    sets: usize,
    /// Cases fused into each set's solve (the operator view's width).
    lanes: usize,
    /// Modeled lane the RHS build and the solve are charged to.
    solve_lane: LaneKind,
    /// CPU threads of the modeled clock: all cores when the CPU solves,
    /// the predictor's share otherwise.
    cpu_threads: usize,
    schedule: Schedule,
}

impl Layout {
    fn of(cfg: &RunConfig) -> Self {
        use {LaneKind::*, Schedule::*};
        let (sets, lanes, solve_lane, schedule) = match cfg.method {
            MethodKind::CrsCgCpu => (1, 1, Cpu, Serial),
            MethodKind::CrsCgGpu => (1, 1, Gpu, Serial),
            MethodKind::CrsCgCpuGpu => (2, 1, Gpu, ExchangePerStep),
            MethodKind::EbeMcgCpuGpu => (2, cfg.r, Gpu, ExchangePerSet),
        };
        let cpu_threads = match solve_lane {
            Cpu => cfg.node.module.cpu.n_cores,
            _ => cfg.cpu_threads,
        };
        Layout {
            sets,
            lanes,
            solve_lane,
            cpu_threads,
            schedule,
        }
    }
}

/// Whether the cases of `cfg`'s method keep a data-driven predictor
/// history, a property of its [`Layout`]: the serial schedule (Algorithm
/// 2) runs every step at window 0, so its cases keep none at all.
pub(crate) fn keeps_history(cfg: &RunConfig) -> bool {
    Layout::of(cfg).schedule != Schedule::Serial
}

/// Immutable per-run context of the step driver: the method's layout, the
/// operator view and kernel costs borrowed from the backend, the CG
/// settings, and the observation DOFs. Rebuilt identically from
/// `(backend, cfg)` on every (re)start, so none of it belongs in a
/// checkpoint.
pub(crate) struct RunCtx<'a> {
    layout: Layout,
    /// The system operator as the one (multi-RHS) solver sees it: the
    /// assembled matrix at fused width 1 (Algorithms 2 and 4) or the
    /// matrix-free compact EBE kernel at width `r` (Algorithm 3).
    op: Box<dyn MultiOperator + 'a>,
    /// What the per-step ABFT audit checksums, and its construction-time
    /// reference value.
    payload: OperatorPayload<'a>,
    op_crc: u32,
    rhs_counts: KernelCounts,
    obs: Vec<usize>,
    /// Per set, the case id of each of its columns.
    set_ids: Vec<Vec<Option<usize>>>,
}

/// Typed [`RunError::Config`] unless the EBE operator has a fused kernel
/// for `r` right-hand sides per set; every driver that applies it checks,
/// and the serving layer refuses requests it could not solve.
pub fn check_fused_width(r: usize) -> Result<(), RunError> {
    if matches!(r, 1 | 2 | 4 | 8) {
        return Ok(());
    }
    Err(RunError::Config {
        message: format!("EBE-MCG fuses 1, 2, 4 or 8 cases per set, not r = {r}"),
    })
}

impl<'a> RunCtx<'a> {
    /// Typed [`RunError::Config`] when the method needs assembled matrices
    /// the backend was built without, or a fused width EBE-MCG lacks.
    pub(crate) fn new(backend: &'a Backend, cfg: &RunConfig) -> Result<Self, RunError> {
        if cfg.method == MethodKind::EbeMcgCpuGpu {
            check_fused_width(cfg.r)?;
        }
        let layout = Layout::of(cfg);
        let (op, payload, rhs_counts): (Box<dyn MultiOperator>, _, _) =
            if cfg.method == MethodKind::EbeMcgCpuGpu {
                (
                    Box::new(backend.ebe_a(cfg.r)),
                    OperatorPayload::Ebe(&backend.compact),
                    backend.rhs_counts_ebe(cfg.r),
                )
            } else if backend.has_crs() {
                let crs = backend.crs_a();
                (
                    Box::new(Width1(crs)),
                    OperatorPayload::Crs(crs),
                    backend.rhs_counts_crs(),
                )
            } else {
                return Err(RunError::Config {
                    message: format!(
                        "method {} needs assembled matrices, but the backend was built \
                     with `with_crs = false`",
                        cfg.method.label()
                    ),
                });
            };
        Ok(RunCtx {
            layout,
            op,
            payload,
            op_crc: operator_crc(payload),
            rhs_counts,
            obs: backend.problem.surface_dofs_z(),
            set_ids: (0..layout.sets)
                .map(|set| {
                    (set * layout.lanes..(set + 1) * layout.lanes)
                        .map(Some)
                        .collect()
                })
                .collect(),
        })
    }

    /// Process sets the method advances per step (trace rows).
    pub(crate) fn sets(&self) -> usize {
        self.layout.sets
    }
}

/// Mutable state of a run at a step boundary — exactly what a
/// crash-consistent checkpoint must persist. The `set_step` buffers are
/// excluded on purpose: every step fully rewrites them before reading, so
/// a resumed run is bitwise-identical without them. Uninterrupted, resumed
/// and faulted runs all advance every method through the same
/// [`RunState::step_once`] in [`run_with`], which is what makes the
/// replay-determinism claim structural rather than coincidental.
pub(crate) struct RunState {
    pub(crate) cases: Vec<CaseSlot>,
    pub(crate) clock: ModuleClock,
    pub(crate) adaptive: AdaptiveWindow,
    pub(crate) records: Vec<StepRecord>,
    pub(crate) recoveries: Vec<RecoveryEvent>,
    pub(crate) corruptions: Vec<CorruptionReport>,
    /// Next step boundary to execute (`records.len()` on a healthy run).
    pub(crate) step: usize,
    /// The one set step's working storage, reused set after set.
    set_step: SetStep,
}

impl RunState {
    pub(crate) fn new(backend: &Backend, cfg: &RunConfig) -> Self {
        let n = backend.n_dofs();
        let layout = Layout::of(cfg);
        let n_obs = if cfg.record_surface {
            backend.problem.surface_dofs_z().len()
        } else {
            0
        };
        RunState {
            cases: (0..layout.sets * layout.lanes)
                .map(|c| CaseSlot::new(backend, cfg, c, n_obs))
                .collect(),
            clock: ModuleClock::new(
                cfg.node.module,
                layout.cpu_threads,
                layout.schedule != Schedule::Serial,
            ),
            adaptive: AdaptiveWindow::new(1, cfg.s_max.max(1)),
            records: Vec::with_capacity(cfg.n_steps),
            recoveries: Vec::new(),
            corruptions: Vec::new(),
            step: 0,
            set_step: SetStep::new(n, layout.lanes),
        }
    }

    /// Execute one step boundary of any method: per set, the predictors
    /// (CPU lane), the fused solve (the layout's solve lane) and the
    /// advance; then sync, exchange and window adaptation as the method's
    /// [`Schedule`] says.
    pub(crate) fn step_once(
        &mut self,
        backend: &Backend,
        cfg: &RunConfig,
        tracer: &mut StepTracer,
        faults: &mut FaultPlan,
        ctx: &RunCtx<'_>,
    ) -> Result<(), RunError> {
        let n = backend.n_dofs();
        let Layout {
            sets,
            lanes,
            solve_lane,
            schedule,
            ..
        } = ctx.layout;
        let n_cases = (sets * lanes) as f64;
        let step = self.step;
        let detect = cfg.integrity.detect;
        let matrix_free = cfg.method == MethodKind::EbeMcgCpuGpu;
        // Adaptive shares one window across cases; FullWindow is
        // case-local (clamped to each case's own history below). The
        // Adams-Bashforth-only methods run every case at window 0. The
        // CRS pipeline clamps the shared window to case 0's history; the
        // EBE one leaves that to the predictor, which declines (window 0)
        // while the history is shorter — the two differ in early steps.
        let s_shared = match (schedule, cfg.window) {
            (Schedule::Serial, _) => Some(0),
            (_, WindowPolicy::FullWindow) => None,
            (Schedule::ExchangePerStep, WindowPolicy::Adaptive) => {
                Some(self.adaptive.current().min(self.cases[0].available_s()))
            }
            (Schedule::ExchangePerSet, WindowPolicy::Adaptive) => Some(self.adaptive.current()),
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
        let mut xfer = 0.0;

        operator_guard(
            ctx.payload,
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

        for set in 0..sets {
            let set_cases = set * lanes..(set + 1) * lanes;
            let spec = SetSpec {
                step,
                set,
                ids: &ctx.set_ids[set],
                fused: matrix_free,
                window: s_shared,
                tol: cfg.tol,
            };
            // predictors (CPU lane)
            let lane = &mut self.cases[set_cases.clone()];
            let prepared = self.set_step.prepare(backend, cfg, spec, lane, faults);
            self.corruptions.extend_from_slice(&prepared.corruptions);
            for col in prepared.columns.iter().flatten() {
                s_used = col.s_used;
                if schedule != Schedule::Serial {
                    pred_t += tracer.charge_cpu(
                        &mut self.clock,
                        set,
                        "predictor",
                        &col.predictor,
                        &[("case", Json::from(col.id)), ("s", Json::from(s_used))],
                    );
                }
            }
            // fused solve (the layout's solve lane) and advance
            let lane = &mut self.cases[set_cases];
            let out = self.set_step.solve(backend, &*ctx.op, lane);
            out.error()?;
            // the serial schedule charges RHS + Adams-Bashforth (4 vector
            // passes) + solve as one kernel; the pipelined ones charged
            // their predictors above
            let mut work = ctx.rhs_counts;
            if schedule == Schedule::Serial {
                work = work.merged(vector_counts(n, 4.0));
            }
            let work = work.merged(out.counts);
            let name = if matrix_free {
                "rhs + MCG solve"
            } else {
                "rhs + CG solve"
            };
            let args = [
                ("r", Json::from(lanes)),
                ("fused_iterations", Json::from(out.fused_iterations)),
            ];
            solver_t += match solve_lane {
                LaneKind::Cpu => tracer.charge_cpu(&mut self.clock, set, name, &work, &args),
                _ => tracer.charge_gpu(&mut self.clock, set, name, &work, &args),
            };
            self.recoveries.extend_from_slice(&out.recoveries);
            for ev in &out.recoveries {
                tracer.recovery_event(self.clock.elapsed(), ev);
            }
            if let Some(FaultKind::Lane { fault: lf, .. }) =
                faults.inject(FaultSite::Lane { step, set })
            {
                let (lane, stalled) = match lf.lane {
                    FaultLane::Cpu => (LaneKind::Cpu, &mut stall_pred),
                    FaultLane::Gpu => (LaneKind::Gpu, &mut stall_solver),
                };
                *stalled += tracer.charge_stall(&mut self.clock, set, lane, lf.seconds);
            }
            for col in out.columns.iter().flatten() {
                if let Fate::Advanced {
                    iterations,
                    initial_rel_res,
                    history_ok,
                } = col.fate
                {
                    iter_sum += iterations as f64;
                    res_sum += initial_rel_res;
                    history_poisoned |= !history_ok;
                }
                if cfg.record_surface {
                    self.cases[col.id].record_waveform(&ctx.obs);
                }
            }
            if schedule == Schedule::ExchangePerSet {
                // predictions/solutions between the processes; the record
                // carries the analytic link time instead (below)
                let bytes = 2.0 * (n * lanes) as f64 * 8.0;
                sync_and_exchange(&mut self.clock, tracer, faults, step, set, bytes);
            }
        }
        if history_poisoned {
            self.adaptive.reset_window();
        }
        if schedule == Schedule::ExchangePerStep {
            // one solution down, one guess up, per process pair
            let bytes = 2.0 * n as f64 * 8.0;
            xfer = sync_and_exchange(&mut self.clock, tracer, faults, step, 0, bytes);
        }
        if schedule != Schedule::Serial && cfg.window == WindowPolicy::Adaptive {
            let decision =
                self.adaptive
                    .observe_logged(s_used.max(1), pred_t / 2.0, solver_t / 2.0);
            tracer.window_decision(step, self.clock.elapsed(), &decision);
        }
        tracer.iterations_counter(self.clock.elapsed(), iter_sum / n_cases);
        let (solver, pred) = (solver_t + stall_solver, pred_t + stall_pred);
        let (step_time, solver_time, predictor_time) = match schedule {
            // one device: every stall, on either lane, delays the step
            Schedule::Serial => (solver + stall_pred, solver + stall_pred, 0.0),
            Schedule::ExchangePerStep => (
                solver.max(pred) / n_cases + xfer,
                solver / n_cases,
                pred / n_cases,
            ),
            Schedule::ExchangePerSet => (
                solver.max(pred) / n_cases
                    + 2.0 * (2.0 * (n * lanes) as f64 * 8.0 / cfg.node.module.link.bw) / n_cases,
                solver / n_cases,
                pred / n_cases,
            ),
        };
        self.records.push(StepRecord {
            step,
            step_time_per_case: step_time,
            solver_time_per_case: solver_time,
            predictor_time_per_case: predictor_time,
            transfer_time: xfer,
            iterations: iter_sum / n_cases,
            s_used,
            initial_rel_res: res_sum / n_cases,
        });
        self.step += 1;
        tracer.step_completed(self.clock.elapsed());
        Ok(())
    }

    pub(crate) fn into_result(self, cfg: &RunConfig) -> RunResult {
        let n_cases = self.cases.len();
        let mut waveforms = Vec::new();
        let mut final_u = Vec::new();
        for case in self.cases {
            if cfg.record_surface {
                waveforms.push(case.waveform);
            }
            final_u.push(case.time.u);
        }
        RunResult {
            method: cfg.method,
            n_cases,
            records: self.records,
            energy: self.clock.report(),
            waveforms,
            final_u,
            recoveries: self.recoveries,
            corruptions: self.corruptions,
            durable: None,
        }
    }
}

/// Barrier, then the CPU↔GPU exchange of `bytes` keyed `(step, set)` for
/// the fault plan. Returns the modeled transfer time (0 when an injected
/// fault dropped the exchange: nothing crosses the link).
fn sync_and_exchange(
    clock: &mut ModuleClock,
    tracer: &mut StepTracer,
    faults: &mut FaultPlan,
    step: usize,
    set: usize,
    bytes: f64,
) -> f64 {
    clock.sync();
    let bytes = match faults.inject(FaultSite::Exchange { step, set }) {
        Some(FaultKind::Exchange {
            fault: ExchangeFault::Drop,
            ..
        }) => 0.0,
        Some(FaultKind::Exchange {
            fault: ExchangeFault::Delay { factor },
            ..
        }) => bytes * factor,
        _ => bytes,
    };
    if bytes > 0.0 {
        tracer.charge_transfer(clock, set, "exchange", bytes)
    } else {
        0.0
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

    /// A fused width the EBE operator has no kernel for is a typed config
    /// error from every driver, not a panic in the operator's set-up.
    #[test]
    fn unsupported_fused_width_is_a_typed_error() {
        let b = small_backend();
        let is_config = |e: RunError| matches!(e, RunError::Config { .. });
        for r in [0, 3] {
            let mut c = cfg(MethodKind::EbeMcgCpuGpu, 2);
            c.r = r;
            assert!(is_config(run(&b, &c).unwrap_err()), "run, r = {r}");
            let realtime = crate::run_realtime(&b, &c, Hooks::default());
            assert!(is_config(realtime.unwrap_err()), "run_realtime, r = {r}");
            let mut e = crate::EnsembleConfig::new(single_gh200(), 4, 2).unwrap();
            e.run.r = r;
            let ensemble = crate::run_ensemble(&b, &e);
            assert!(is_config(ensemble.unwrap_err()), "run_ensemble, r = {r}");
        }
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
