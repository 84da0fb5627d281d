//! One fused set's step: the per-set sequence of Algorithms 2–4, written
//! once.
//!
//! A *set* is a lane of `r` columns the device solves together — a CRS
//! method's one case, EBE-MCG's `r`, a server lane's occupied slots. Its
//! step has the CPU-pre → device → CPU-post shape of the paper's
//! ping-pong. [`SetStep::prepare`] (CPU lane) runs per column the boundary
//! guard, the basis sentinel, `CaseSlot::prepare_step` at the caller's
//! window, the RHS guard and the guess fault, packs the column, and
//! resolves the set's solver-cap and snapshot faults into plain data.
//! [`SetStep::solve`] (device lane) runs the one recovery ladder, then per
//! column the unpack, the snapshot fault, `CaseSlot::advance` and the
//! scrub; it takes no `FaultPlan`, which lets `run_realtime` run it on its
//! solver thread. Charging the clock, stalls, exchanges, the window rule
//! and what a failed or corrupt column means stay with the caller.

use hetsolve_fault::{FaultKind, FaultPlan, FaultSite, StateField, VectorFault};
use hetsolve_sparse::vecops::{extract_case, insert_case};
use hetsolve_sparse::{CgConfig, KernelCounts, MultiOperator, SolveError};

use crate::backend::{Backend, RhsScratch};
use crate::integrity::{
    basis_sentinel, boundary_guard, rhs_guard, scrub_state, CorruptTarget, CorruptionReport,
    StateGuard,
};
use crate::methods::{driver_cg_config, RunConfig};
use crate::recovery::{solve_set_resumable, RecoveryEvent, RunError};
use crate::slot::CaseSlot;

/// Which set a [`SetStep`] advances, and how.
#[derive(Debug, Clone, Copy)]
pub struct SetSpec<'a> {
    /// A run's step or a server's tick: the key of every fault and event.
    pub step: usize,
    /// Process set or server lane: the solver fault's and events' key.
    pub set: usize,
    /// Each column's id (a run's case index, a request id), the key of its
    /// faults; `None` marks a vacant column.
    pub ids: &'a [Option<usize>],
    /// A fused lane always has a distinct Adams-Bashforth rung and names
    /// its columns in events and errors; a lane of one does neither.
    pub fused: bool,
    /// The window every column predicts with; `None`: each column's own,
    /// `s_max` clamped to its history.
    pub window: Option<usize>,
    /// CG relative tolerance; the solve runs [`driver_cg_config`] at it.
    pub tol: f64,
}

/// One column's share of a set step.
#[derive(Debug, Clone)]
pub struct Column {
    pub id: usize,
    /// Window the predictor used, and its modeled cost at `s_used.max(1)`.
    pub s_used: usize,
    pub predictor: KernelCounts,
    pub fate: Fate,
}

/// What [`SetStep::solve`] did with a column.
#[derive(Debug, Clone, PartialEq)]
pub enum Fate {
    /// Prepared, not solved yet.
    Pending,
    /// Solved and advanced; `history_ok` is false when an injected
    /// snapshot poisoned the predictor history and it was rebuilt.
    Advanced {
        iterations: usize,
        initial_rel_res: f64,
        history_ok: bool,
    },
    /// Exhausted the recovery ladder; not advanced.
    Failed(SolveError),
    /// Advanced into non-finite state that slipped past every checksum.
    Corrupt(StateField),
}

/// Per column (`None` when vacant), the guards' repairs, the ladder's
/// recoveries and the merged solver work of a set step.
#[derive(Debug, Default)]
pub struct SetOutcome {
    pub columns: Vec<Option<Column>>,
    pub corruptions: Vec<CorruptionReport>,
    pub recoveries: Vec<RecoveryEvent>,
    pub counts: KernelCounts,
    pub fused_iterations: usize,
    pub attempts: usize,
    step: usize,
}

impl SetOutcome {
    /// The error a driver stops with: the first failed column, else the
    /// first corrupt one.
    pub(crate) fn error(&self) -> Result<(), RunError> {
        let mut corrupt = None;
        for c in self.columns.iter().flatten() {
            match c.fate {
                Fate::Failed(ref e) => return Err(RunError::Solve(e.clone())),
                Fate::Corrupt(field) => corrupt = corrupt.or(Some((c.id, field))),
                _ => {}
            }
        }
        match corrupt {
            Some((case, field)) => Err(RunError::Corruption {
                step: self.step,
                case: Some(case),
                target: CorruptTarget::State(field).label(),
            }),
            None => Ok(()),
        }
    }
}

/// A set step's working storage — RHS scratch, boundary guard, packed
/// `f`/`x`, Adams-Bashforth guesses, unpack vector — and what `prepare`
/// resolved for `solve`. Its owner reuses it; every step rewrites it before
/// reading, so it is never checkpointed.
pub struct SetStep {
    scratch: RhsScratch,
    guard: StateGuard,
    f: Vec<f64>,
    x: Vec<f64>,
    ab: Vec<Vec<f64>>,
    u: Vec<f64>,
    /// Per column: occupied, id as events name it, snapshot fault.
    occupied: Vec<bool>,
    named: Vec<Option<usize>>,
    snapshot: Vec<Option<VectorFault>>,
    set: usize,
    cg: CgConfig,
    first_cg: CgConfig,
    retry_ab: bool,
    detect: bool,
    out: SetOutcome,
}

impl SetStep {
    /// Storage for lanes of `r` columns of `n` DOFs.
    pub fn new(n: usize, r: usize) -> Self {
        SetStep {
            scratch: RhsScratch::new(n),
            guard: StateGuard::default(),
            f: vec![0.0; n * r],
            x: vec![0.0; n * r],
            ab: vec![Vec::new(); r],
            u: vec![0.0; n],
            occupied: vec![false; r],
            named: vec![None; r],
            snapshot: vec![None; r],
            set: 0,
            cg: CgConfig::default(),
            first_cg: CgConfig::default(),
            retry_ab: false,
            detect: false,
            out: SetOutcome::default(),
        }
    }

    /// The CPU half of the step of `lane` (a case per column of
    /// `spec.ids`, `None` where vacant). Occupied columns come back
    /// [`Fate::Pending`] with their window and predictor cost.
    pub fn prepare<'c>(
        &mut self,
        backend: &Backend,
        cfg: &RunConfig,
        spec: SetSpec<'_>,
        lane: impl IntoIterator<Item = Option<&'c mut CaseSlot>>,
        faults: &mut FaultPlan,
    ) -> &SetOutcome {
        let SetSpec {
            step,
            set,
            ids,
            fused,
            window,
            tol,
        } = spec;
        let cg = driver_cg_config(tol);
        let r = self.ab.len();
        assert_eq!(ids.len(), r);
        let integ = &cfg.integrity;
        let check_basis = integ.detect
            && integ.basis_check_every > 0
            && step > 0
            && step.is_multiple_of(integ.basis_check_every);
        let out = &mut self.out;
        out.columns.clear();
        out.corruptions.clear();
        out.recoveries.clear();
        out.step = step;
        self.retry_ab = fused;
        for (k, case) in lane.into_iter().enumerate() {
            let (Some(id), Some(case)) = (ids[k], case) else {
                // a vacant column enters the solve as zeros and is skipped
                for buf in [&mut self.f, &mut self.x] {
                    buf.iter_mut().skip(k).step_by(r).for_each(|v| *v = 0.0);
                }
                (self.occupied[k], self.named[k], self.snapshot[k]) = (false, None, None);
                out.columns.push(None);
                continue;
            };
            let reports = &mut out.corruptions;
            let guard = &mut self.guard;
            boundary_guard(guard, case, faults, step, id, integ.detect, reports);
            if check_basis {
                reports.extend(basis_sentinel(case, step, id, integ.basis_defect_tol));
            }
            let s = window.unwrap_or_else(|| cfg.s_max.max(1).min(case.available_s()));
            let scratch = &mut self.scratch;
            let s_used = case.prepare_step(backend, scratch, s, &mut self.ab[k]);
            rhs_guard(
                backend,
                case,
                scratch,
                faults,
                step,
                id,
                integ.detect,
                reports,
            );
            if let Some(FaultKind::Guess { fault, .. }) =
                faults.inject(FaultSite::Guess { step, case: id })
            {
                fault.apply(&mut case.guess);
                self.retry_ab = true;
            }
            self.retry_ab |= s_used > 0;
            insert_case(&mut self.f, r, k, &case.rhs);
            insert_case(&mut self.x, r, k, &case.guess);
            self.snapshot[k] = match faults.inject(FaultSite::Snapshot { step, case: id }) {
                Some(FaultKind::Snapshot { fault, .. }) => Some(fault),
                _ => None,
            };
            (self.occupied[k], self.named[k]) = (true, fused.then_some(id));
            out.columns.push(Some(Column {
                id,
                s_used,
                predictor: case.dd.cost(s_used.max(1)),
                fate: Fate::Pending,
            }));
        }
        self.first_cg = match faults.inject(FaultSite::Solver { step, set }) {
            Some(FaultKind::Solver { max_iter, .. }) => CgConfig {
                max_iter: max_iter.min(cg.max_iter),
                ..cg
            },
            _ => cg,
        };
        (self.set, self.cg, self.detect) = (set, cg, integ.detect);
        &self.out
    }

    /// The device half of the step [`prepare`](Self::prepare) set up, on
    /// the same `lane`.
    pub fn solve<'c, A: MultiOperator + ?Sized>(
        &mut self,
        backend: &Backend,
        op: &A,
        lane: impl IntoIterator<Item = Option<&'c mut CaseSlot>>,
    ) -> &SetOutcome {
        let (r, out) = (self.ab.len(), &mut self.out);
        let (stats, attempts) = solve_set_resumable(
            op,
            &backend.precond,
            &self.f,
            &mut self.x,
            &self.ab,
            &self.occupied,
            &self.named,
            &self.cg,
            &self.first_cg,
            out.step,
            self.set,
            self.retry_ab,
            &mut out.recoveries,
        );
        for (k, case) in lane.into_iter().enumerate() {
            let (Some(col), Some(case)) = (out.columns[k].as_mut(), case) else {
                continue;
            };
            let termination = stats.case_termination[k];
            col.fate = if termination.is_failure() {
                Fate::Failed(SolveError {
                    step: out.step,
                    case: self.named[k],
                    termination,
                    rel_res: stats.final_rel_res[k],
                    iterations: stats.case_iterations[k],
                    attempts,
                })
            } else {
                extract_case(&self.x, r, k, &mut self.u);
                let history_ok = case.advance(backend, &self.u, &self.ab[k], self.snapshot[k]);
                match self.detect.then(|| scrub_state(case)).flatten() {
                    Some(field) => Fate::Corrupt(field),
                    None => Fate::Advanced {
                        iterations: stats.case_iterations[k],
                        initial_rel_res: stats.initial_rel_res[k],
                        history_ok,
                    },
                }
            };
        }
        (out.counts, out.fused_iterations) = (stats.counts, stats.fused_iterations);
        out.attempts = attempts;
        &self.out
    }
}
