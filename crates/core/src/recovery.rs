//! The per-step recovery ladder and the typed run-level error.
//!
//! The paper's safety claim — the CG solver "refines the guess so accuracy
//! is still guaranteed" — only holds for guesses the solver can iterate
//! from. A NaN-poisoned guess fails the very first residual comparison, so
//! the drivers wrap every solve in a ladder:
//!
//! 1. solve from the configured guess (data-driven, or Adams-Bashforth for
//!    the AB-only methods);
//! 2. on an abnormal [`Termination`], retry from the plain Adams-Bashforth
//!    extrapolation (the data-driven correction is the usual suspect);
//! 3. retry from the zero guess with a 4× iteration budget — the
//!    unconditional cold start that an SPD system always converges from.
//!
//! Every rung that fires is recorded as a [`RecoveryEvent`] in the run
//! report; a ladder that runs dry returns a typed
//! [`SolveError`] instead of panicking, so an
//! ensemble drops one case instead of aborting thousands of healthy steps.

use std::borrow::Cow;
use std::fmt;

use hetsolve_obs::{NoopObserver, Termination};
use hetsolve_sparse::{
    CgConfig, McgStats, McgWorkspace, MultiOperator, Preconditioner, SolveError,
};

/// Factor by which the zero-guess rung raises the iteration cap.
const ZERO_GUESS_ITER_FACTOR: usize = 4;

/// Which initial guess a solve (re)started from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuessSource {
    /// Adams-Bashforth + data-driven correction (the paper's predictor).
    DataDriven,
    /// Plain Adams-Bashforth extrapolation.
    AdamsBashforth,
    /// Zero vector (cold start).
    Zero,
}

impl GuessSource {
    pub fn label(&self) -> &'static str {
        match self {
            GuessSource::DataDriven => "data_driven",
            GuessSource::AdamsBashforth => "adams_bashforth",
            GuessSource::Zero => "zero",
        }
    }
}

hetsolve_ckpt::wire_code!(GuessSource, "guess-source" {
    DataDriven = 0,
    AdamsBashforth = 1,
    Zero = 2,
});

/// One recovery performed by the ladder: the step survived, on a downgraded
/// guess.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryEvent {
    /// Time step the recovery happened in.
    pub step: usize,
    /// Failing case for multi-RHS solves (global case index); `None` for
    /// single-RHS drivers.
    pub case: Option<usize>,
    /// Process set running the solve.
    pub set: usize,
    /// Abnormal termination of the first (failed) attempt.
    pub failed: Termination,
    /// Guess the step finally converged from.
    pub recovered_with: GuessSource,
    /// Solve attempts made, including the successful one.
    pub attempts: usize,
}

hetsolve_ckpt::wire_struct!(RecoveryEvent {
    step,
    case,
    set,
    failed,
    recovered_with,
    attempts,
});

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {} set {}{}: {} recovered with {} guess ({} attempts)",
            self.step,
            self.set,
            match self.case {
                Some(c) => format!(" case {c}"),
                None => String::new(),
            },
            self.failed.label(),
            self.recovered_with.label(),
            self.attempts,
        )
    }
}

/// Why a driver run stopped early.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A step's solve exhausted the recovery ladder.
    Solve(SolveError),
    /// A worker thread of the realtime driver panicked; `phase` names the
    /// half-step ("solve" or "predict") that died.
    WorkerPanic { phase: &'static str },
    /// An injected crash point killed the durable run at step boundary
    /// `step` (chaos testing); resume from the latest checkpoint.
    Crashed { step: usize },
    /// A checkpoint write failed (I/O); the run stopped rather than keep
    /// computing results it could not make durable.
    Checkpoint { message: String },
    /// The run configuration is inconsistent with the backend it was
    /// given (e.g. a CRS method on a backend built without assembled
    /// matrices); caught at driver entry instead of panicking mid-run.
    Config { message: String },
    /// The integrity layer found corruption its ladder cannot repair:
    /// non-finite state that slipped past every checksum and sentinel, or
    /// the pristine operator payload failing its own construction-time
    /// checksum (host-memory corruption). `target` is the
    /// [`CorruptTarget`](crate::integrity::CorruptTarget) label. The run
    /// stops typed instead of carrying a silently wrong answer forward.
    Corruption {
        step: usize,
        case: Option<usize>,
        target: &'static str,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Solve(e) => write!(f, "{e}"),
            RunError::WorkerPanic { phase } => {
                write!(f, "realtime worker thread panicked during {phase}")
            }
            RunError::Crashed { step } => {
                write!(f, "injected crash at step boundary {step}")
            }
            RunError::Checkpoint { message } => {
                write!(f, "checkpoint write failed: {message}")
            }
            RunError::Config { message } => {
                write!(f, "invalid run configuration: {message}")
            }
            RunError::Corruption { step, case, target } => {
                write!(
                    f,
                    "unrecoverable data corruption at step {step}{}: {target}",
                    match case {
                        Some(c) => format!(" case {c}"),
                        None => String::new(),
                    }
                )
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Solve(e) => Some(e),
            RunError::WorkerPanic { .. } => None,
            RunError::Crashed { .. } => None,
            RunError::Checkpoint { .. } => None,
            RunError::Config { .. } => None,
            RunError::Corruption { .. } => None,
        }
    }
}

impl From<SolveError> for RunError {
    fn from(e: SolveError) -> Self {
        RunError::Solve(e)
    }
}

/// The recovery ladder around the one MCG solve, resumable per lane, in
/// the caller's workspace `ws`. There is one ladder: a single-RHS driver
/// runs it on a lane of width 1.
///
/// Only the failing lanes are restarted: their slots in `x` are
/// overwritten with the downgraded guess — `refill_ab(k, x)` writes lane
/// `k`'s Adams-Bashforth guess into its lane of `x`, the zero rung writes
/// zeros in place, so a retry allocates no vector of the problem's size —
/// and the whole set is re-solved —
/// already-converged lanes re-enter with a sub-tolerance residual, are
/// inactive from iteration zero, and keep their solution bitwise (the MCG
/// freeze contract). `first_cfg` configures the first attempt only (it may
/// carry an injected iteration cap); retries use the clean `cfg`.
/// `retry_ab` says whether the Adams-Bashforth rung differs from the
/// first attempt; `occupied[k] == false` marks a vacant
/// lane, skipped entirely; `lane_cases[k]` names lane `k` in the recovery
/// log. Returns the stats of all attempts merged — initial residuals stay
/// the first attempt's; borrowed from `ws` when the first attempt
/// converged — and the attempts made. It never errors: a lane that
/// exhausts the ladder keeps its failure in `case_termination`, and the
/// caller decides what that means.
#[allow(clippy::too_many_arguments, reason = "solve buffers and ladder state")]
pub(crate) fn solve_set_resumable<'w, A: MultiOperator + ?Sized, P: Preconditioner>(
    ws: &'w mut McgWorkspace,
    a: &A,
    prec: &P,
    f: &[f64],
    x: &mut [f64],
    mut refill_ab: impl FnMut(usize, &mut [f64]),
    occupied: &[bool],
    lane_cases: &[Option<usize>],
    cfg: &CgConfig,
    first_cfg: &CgConfig,
    step: usize,
    set: usize,
    retry_ab: bool,
    recoveries: &mut Vec<RecoveryEvent>,
) -> (Cow<'w, McgStats>, usize) {
    let r = a.r();
    if ws
        .solve(a, prec, f, x, first_cfg, occupied, &mut NoopObserver)
        .converged
    {
        return (Cow::Borrowed(ws.stats()), 1);
    }
    let mut stats = ws.stats().clone();
    let failing = |st: &McgStats, k: usize| occupied[k] && st.case_termination[k].is_failure();
    let first_failed: Vec<Termination> = stats.case_termination.clone();
    let initial_rel_res = stats.initial_rel_res.clone();
    let mut attempts = 1;
    let cold_cfg = CgConfig {
        max_iter: cfg.max_iter.saturating_mul(ZERO_GUESS_ITER_FACTOR),
        ..*cfg
    };
    let rungs = [
        (GuessSource::AdamsBashforth, cfg),
        (GuessSource::Zero, &cold_cfg),
    ];
    for (source, rung_cfg) in rungs.into_iter().skip(usize::from(!retry_ab)) {
        for k in (0..r).filter(|&k| failing(&stats, k)) {
            match source {
                GuessSource::AdamsBashforth => refill_ab(k, x),
                _ => x.iter_mut().skip(k).step_by(r).for_each(|v| *v = 0.0),
            }
        }
        let retry = ws.solve(a, prec, f, x, rung_cfg, occupied, &mut NoopObserver);
        attempts += 1;
        for k in 0..r {
            if failing(&stats, k) && retry.case_termination[k] == Termination::Converged {
                recoveries.push(RecoveryEvent {
                    step,
                    case: lane_cases[k],
                    set,
                    failed: first_failed[k],
                    recovered_with: source,
                    attempts,
                });
            }
        }
        stats = merge_mcg(stats, retry.clone());
        if stats.converged {
            break;
        }
    }
    stats.initial_rel_res = initial_rel_res;
    (Cow::Owned(stats), attempts)
}

/// Fold an MCG retry into the running stats: fused iterations and work
/// accumulate, per-case iterations add (a lane inactive in the retry adds
/// zero), convergence state comes from the latest attempt.
fn merge_mcg(prev: McgStats, latest: McgStats) -> McgStats {
    McgStats {
        fused_iterations: prev.fused_iterations + latest.fused_iterations,
        case_iterations: prev
            .case_iterations
            .iter()
            .zip(&latest.case_iterations)
            .map(|(a, b)| a + b)
            .collect(),
        counts: prev.counts.merged(latest.counts),
        ..latest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guess_source_labels() {
        assert_eq!(GuessSource::DataDriven.label(), "data_driven");
        assert_eq!(GuessSource::AdamsBashforth.label(), "adams_bashforth");
        assert_eq!(GuessSource::Zero.label(), "zero");
    }

    #[test]
    fn run_error_display_and_source() {
        let e = RunError::from(SolveError {
            step: 3,
            case: None,
            termination: Termination::MaxIter,
            rel_res: 0.5,
            iterations: 10,
            attempts: 3,
        });
        assert!(e.to_string().contains("step 3"));
        assert!(std::error::Error::source(&e).is_some());
        let p = RunError::WorkerPanic { phase: "solve" };
        assert!(p.to_string().contains("solve"));
        assert!(std::error::Error::source(&p).is_none());
    }

    #[test]
    fn recovery_event_display_names_everything() {
        let ev = RecoveryEvent {
            step: 7,
            case: Some(2),
            set: 1,
            failed: Termination::NanResidual,
            recovered_with: GuessSource::AdamsBashforth,
            attempts: 2,
        };
        let s = ev.to_string();
        assert!(s.contains("step 7"), "{s}");
        assert!(s.contains("case 2"), "{s}");
        assert!(s.contains("nan_residual"), "{s}");
        assert!(s.contains("adams_bashforth"), "{s}");
    }
}
