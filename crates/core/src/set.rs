//! One fused set's step: the per-set sequence of Algorithms 2–4, written
//! once.
//!
//! A *set* is a lane of `r` columns the device solves together — a CRS
//! method's one case, EBE-MCG's `r`, a server lane's occupied slots. Its
//! step has the CPU-pre → device → CPU-post shape of the paper's
//! ping-pong. [`SetStep::prepare`] (CPU lane) works at the set's width:
//! per column the boundary guard and the basis sentinel; then the RHS of
//! every column at once, two operator applies (`M`, `C`) at width `r`
//! whose lane `k` is bitwise the width-1 apply of column `k`; then per
//! column the RHS guard, the Adams-Bashforth and data-driven guess at the
//! caller's window, the guess fault, the pack and the snapshot fault; and
//! it resolves the set's solver-cap fault into plain data.
//! [`SetStep::solve`] (device lane) runs the one recovery ladder, then per
//! column the unpack, `CaseSlot::advance` and the scrub; it takes no
//! `FaultPlan`, which lets `run_realtime` run it on its solver thread.
//! Charging the clock, stalls, exchanges, the window rule and what a
//! failed or corrupt column means stay with the caller.

use hetsolve_fault::{FaultKind, FaultPlan, FaultSite, StateField, VectorFault};
use hetsolve_sparse::{extract_case, insert_case};
use hetsolve_sparse::{CgConfig, KernelCounts, McgWorkspace, MultiOperator, SolveError};

use crate::backend::{Backend, RhsScratch};
use crate::integrity::{
    basis_sentinel, boundary_guard, rhs_guard, scrub_state, CorruptTarget, CorruptionReport,
    StateGuard, DEFAULT_BASIS_CHECK_EVERY, DEFAULT_BASIS_DEFECT_TOL,
};
use crate::methods::{driver_cg_config, RunConfig};
use crate::recovery::{solve_set_resumable, RecoveryEvent, RunError};
use crate::slot::CaseSlot;

/// The slots of one set, column by column: a run's cases (every column
/// occupied) or a server lane (`None` where vacant).
pub trait SetSlots {
    /// Column `k`'s slot; `None` when vacant.
    fn column(&mut self, k: usize) -> Option<&mut CaseSlot>;
}

impl SetSlots for [CaseSlot] {
    fn column(&mut self, k: usize) -> Option<&mut CaseSlot> {
        self.get_mut(k)
    }
}

impl SetSlots for [Option<CaseSlot>] {
    fn column(&mut self, k: usize) -> Option<&mut CaseSlot> {
        self.get_mut(k).and_then(Option::as_mut)
    }
}

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

/// A set step's working storage — boundary guard, packed `f`/`x`,
/// Adams-Bashforth guesses, one column vector, a work vector, the MCG
/// workspace and, once a corrupted RHS needs it, the recompute's scratch —
/// and what `prepare` resolved for `solve`. It is the
/// one owner of a step's working memory: a column's RHS and guess live
/// only in their lanes of `f` and `x`, and the solve runs in the workspace
/// this lends it. Its owner reuses it; every step rewrites it before
/// reading, so it is never checkpointed.
pub struct SetStep {
    /// The RHS guard's one-column recompute, made when first needed.
    scratch: Option<RhsScratch>,
    guard: StateGuard,
    f: Vec<f64>,
    x: Vec<f64>,
    ab: Vec<Vec<f64>>,
    /// One column: the force and the guess in `prepare`, the RHS guard's
    /// recompute; `solve`'s unpack vector, which becomes a column's
    /// displacement by a swap and comes back holding the previous one.
    u: Vec<f64>,
    /// The data-driven correction in `prepare`, the correction snapshot in
    /// `solve`.
    work: Vec<f64>,
    /// The solve's multi-vectors and per-case scalars; between solves, the
    /// output of the fused RHS's `C` apply.
    ws: McgWorkspace,
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
            scratch: None,
            guard: StateGuard::default(),
            f: vec![0.0; n * r],
            x: vec![0.0; n * r],
            ab: vec![Vec::new(); r],
            u: vec![0.0; n],
            work: vec![0.0; n],
            ws: McgWorkspace::default(),
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
    pub fn prepare<L: SetSlots + ?Sized>(
        &mut self,
        backend: &Backend,
        cfg: &RunConfig,
        spec: SetSpec<'_>,
        lane: &mut L,
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
        let check_basis =
            integ.detect && step > 0 && step.is_multiple_of(DEFAULT_BASIS_CHECK_EVERY);
        let out = &mut self.out;
        out.columns.clear();
        out.corruptions.clear();
        out.recoveries.clear();
        out.step = step;
        self.retry_ab = fused;
        let reports = &mut out.corruptions;
        self.guard.parallel = backend.parallel;
        for (k, &id) in ids.iter().enumerate() {
            let (Some(id), Some(case)) = (id, lane.column(k)) else {
                continue;
            };
            boundary_guard(
                &mut self.guard,
                case,
                faults,
                step,
                id,
                integ.detect,
                reports,
            );
            if check_basis {
                reports.extend(basis_sentinel(case, step, id, DEFAULT_BASIS_DEFECT_TOL));
            }
        }
        let c_out = self.ws.buffer(self.f.len());
        fused_rhs(
            backend,
            ids,
            lane,
            &mut self.x,
            &mut self.f,
            &mut self.u,
            c_out,
        );
        for (k, &id) in ids.iter().enumerate() {
            let (Some(id), Some(case)) = (id, lane.column(k)) else {
                // a vacant column enters the solve as zeros and is skipped
                // (its `f` lane is zero already)
                self.x.iter_mut().skip(k).step_by(r).for_each(|v| *v = 0.0);
                (self.occupied[k], self.named[k], self.snapshot[k]) = (false, None, None);
                out.columns.push(None);
                continue;
            };
            rhs_guard(
                backend,
                case,
                (&mut self.f, r, k),
                &mut self.u,
                &mut self.scratch,
                faults,
                step,
                id,
                integ.detect,
                reports,
            );
            let s = window.unwrap_or_else(|| cfg.s_max.max(1).min(case.available_s()));
            let guess = &mut self.u;
            let s_used = case.prepare_guess(backend, s, guess, &mut self.ab[k], &mut self.work);
            if let Some(FaultKind::Guess { fault, .. }) =
                faults.inject(FaultSite::Guess { step, case: id })
            {
                fault.apply(guess);
                self.retry_ab = true;
            }
            self.retry_ab |= s_used > 0;
            insert_case(&mut self.x, r, k, guess);
            self.snapshot[k] = match faults.inject(FaultSite::Snapshot { step, case: id }) {
                Some(FaultKind::Snapshot { fault, .. }) => Some(fault),
                _ => None,
            };
            (self.occupied[k], self.named[k]) = (true, fused.then_some(id));
            out.columns.push(Some(Column {
                id,
                s_used,
                predictor: case.predictor_cost(s_used.max(1)),
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
    pub fn solve<L: SetSlots + ?Sized, A: MultiOperator + ?Sized>(
        &mut self,
        backend: &Backend,
        op: &A,
        lane: &mut L,
    ) -> &SetOutcome {
        let (r, out) = (self.ab.len(), &mut self.out);
        let (stats, attempts) = solve_set_resumable(
            &mut self.ws,
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
        for k in 0..r {
            let (Some(col), Some(case)) = (out.columns[k].as_mut(), lane.column(k)) else {
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
                let (ab, snapshot) = (&self.ab[k], self.snapshot[k]);
                let history_ok = case.advance(backend, &mut self.u, ab, &mut self.work, snapshot);
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

/// The Newmark RHS of every occupied column of `lane` into its lane of
/// `f` (zero in a vacant column), as two operator applies at the set's
/// width `r = ids.len()`: `M` on the packed `m_aux` lanes of `x` into `f`,
/// then `C` on the packed `c_aux` lanes of `x` into `c_out`. Lane `k` of a
/// width-`r` apply is bitwise the width-1 apply of column `k`, and each
/// lane sums `(force + M·m_aux) + C·c_aux` in [`Backend::newmark_rhs`]'s
/// order, so it holds the bits of [`CaseSlot::build_rhs`]. `force` (`n`
/// long) takes each column's load in turn; `x` is left holding the
/// `c_aux` lanes, which the guesses overwrite.
#[allow(
    clippy::assign_op_pattern,
    reason = "`force + M·m_aux` keeps the width-1 build's operand order"
)]
fn fused_rhs<L: SetSlots + ?Sized>(
    backend: &Backend,
    ids: &[Option<usize>],
    lane: &mut L,
    x: &mut [f64],
    f: &mut [f64],
    force: &mut [f64],
    c_out: &mut [f64],
) {
    let r = ids.len();
    let nm = backend.problem.newmark;
    let (op_m, op_c) = backend.rhs_ops(&backend.compact, r);
    for (k, id) in ids.iter().enumerate() {
        let lanes = x.chunks_exact_mut(r).map(|row| &mut row[k]);
        match lane.column(k).filter(|_| id.is_some()) {
            Some(case) => {
                let t = &case.time;
                for (xi, ((u, v), a)) in lanes.zip(t.u.iter().zip(&t.v).zip(&t.a)) {
                    *xi = nm.m_aux(*u, *v, *a);
                }
            }
            None => lanes.for_each(|xi| *xi = 0.0),
        }
    }
    op_m.apply_multi(x, f);
    for (k, id) in ids.iter().enumerate() {
        let rows = x.chunks_exact_mut(r).zip(f.chunks_exact_mut(r));
        let Some(case) = lane.column(k).filter(|_| id.is_some()) else {
            rows.for_each(|(_, fr)| fr[k] = 0.0);
            continue;
        };
        case.force_into(backend, force);
        let t = &case.time;
        for (((xr, fr), fv), (u, v)) in rows.zip(&*force).zip(t.u.iter().zip(&t.v)) {
            fr[k] = fv + fr[k];
            xr[k] = nm.c_aux(*u, *v);
        }
    }
    op_c.apply_multi(x, c_out);
    // every lane in one pass: a vacant lane's `C` input is zero, so it
    // stays +0
    for (fv, cv) in f.iter_mut().zip(&*c_out) {
        *fv += cv;
    }
    backend.problem.mask.project_multi(f, r);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_fem::FemProblem;
    use hetsolve_machine::single_gh200;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    use crate::methods::MethodKind;

    /// The RHS `prepare` builds for a set, two applies at its width, is
    /// lane by lane of the packed `f` and bit for bit what
    /// [`Backend::newmark_rhs`] gives one column at a time: at `r` of 1, 2 and 4, with a vacant
    /// column (the serve shape) whenever `r > 1`, `parallel` on and off,
    /// over steps whose state is not zero.
    #[test]
    fn prepared_rhs_is_the_width_one_rhs_bitwise() {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        for parallel in [false, true] {
            let backend = Backend::new(FemProblem::paper_like(&spec), false, parallel);
            let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), 6);
            (cfg.s_max, cfg.region_dofs) = (3, 64);
            let n = backend.n_dofs();
            let mut scratch = RhsScratch::new(n);
            let (mut force, mut want) = (vec![0.0; n], vec![0.0; n]);
            for r in [1usize, 2, 4] {
                let mut lane: Vec<Option<CaseSlot>> = (0..r)
                    .map(|k| {
                        let seed = 40 + k as u64;
                        (r == 1 || k != 1)
                            .then(|| CaseSlot::with_seed(&backend, &cfg, seed, cfg.n_steps, 0))
                    })
                    .collect();
                let ids: Vec<Option<usize>> = (0..r).map(|k| lane[k].as_ref().map(|_| k)).collect();
                let (mut set, op) = (SetStep::new(n, r), backend.ebe_a(r));
                let mut faults = FaultPlan::default();
                for step in 0..4 {
                    let spec = SetSpec {
                        step,
                        set: 0,
                        ids: &ids,
                        fused: r > 1,
                        window: None,
                        tol: cfg.tol,
                    };
                    set.prepare(&backend, &cfg, spec, &mut lane[..], &mut faults);
                    for (k, slot) in lane.iter().enumerate() {
                        let Some(slot) = slot else { continue };
                        let t = &slot.time;
                        assert_eq!(step > 0, t.u.iter().any(|&v| v != 0.0));
                        slot.load.force_into(t.step, &mut force);
                        backend.problem.mask.project(&mut force);
                        backend.newmark_rhs(&force, &t.u, &t.v, &t.a, &mut want, &mut scratch);
                        let lane_k = set.f.iter().skip(k).step_by(r);
                        assert!(
                            lane_k.zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
                            "parallel={parallel} r={r} column {k} step {step}"
                        );
                    }
                    set.solve(&backend, &op, &mut lane[..])
                        .error()
                        .expect("clean step solves");
                }
            }
        }
    }
}
