//! Silent-data-corruption defense: ABFT checksums, step-boundary state
//! guards, and the detect-rollback-recover ladder.
//!
//! A bit flip in solver state is the one fault class the recovery ladder
//! of [`crate::recovery`] cannot see: the solve converges, the numbers are
//! finite, and the answer is silently wrong. This module adds the
//! algorithm-based fault-tolerance layer the drivers thread through every
//! step boundary:
//!
//! * **Checksums over mutable state** — [`StateGuard`] captures a CRC32
//!   per component (`u`/`v`/`a`, Adams history) plus the rollback
//!   snapshot at each boundary; any single-bit flip between capture and
//!   verify is detected with certainty (CRC32 has Hamming distance ≥ 2 at
//!   these lengths) and pinpointed to its component. The predictor basis
//!   checks itself: every history column carries the CRC taken when it
//!   was recorded, plus one XOR parity column over all of them, so the
//!   guard verifies each column at every boundary without copying it and
//!   rebuilds a flipped one bitwise from the parity.
//! * **Checksums over immutable data** — the operator payload (EBE element
//!   data or assembled CRS blocks) is checksummed once at run start and
//!   re-verified every step boundary; a corrupted working copy is dropped
//!   and the pristine payload reused ([`operator_guard`]).
//! * **RHS verification** — the assembled Newmark right-hand side is
//!   checksummed between assembly and the solve; a mismatch triggers a
//!   bitwise recompute from the (guarded, intact) inputs ([`rhs_guard`]).
//! * **Invariant sentinels** — the CG solvers audit their own recursive
//!   residual against the recomputed true residual (see
//!   `hetsolve-sparse::CgConfig::sentinel_every`); the predictor basis is
//!   periodically audited through its MGS orthogonality defect
//!   ([`basis_sentinel`]) and non-finite state is scrubbed at every step
//!   boundary ([`scrub_state`]).
//!
//! The recovery ladder is graded: recompute (RHS), restore (state
//! snapshot), rebuild (operator from pristine source), reset (predictor
//! history — the basis is an accelerator, never a correctness dependency),
//! and — in the serving layer — restart the lane from its checkpoint or
//! evict the request typed. Every rung that fires is a
//! [`CorruptionReport`] in the run result; corruption the ladder cannot
//! repair surfaces as `RunError::Corruption`, never as a silently wrong
//! answer.
//!
//! Everything here is read-only until a checksum actually mismatches, so a
//! clean run with detection enabled is bitwise-identical to one with
//! detection disabled (asserted by `tests/sdc_suite.rs`).

use std::fmt;

use hetsolve_ckpt::Crc32;
use hetsolve_fault::{BitFlip, FaultKind, FaultPlan, FaultSite, StateField};
use hetsolve_fem::CompactElements;
use hetsolve_predictor::{AdamsState, PredictorScratch};
use hetsolve_sparse::insert_case;
use hetsolve_sparse::Bcrs3;

use crate::backend::{Backend, RhsScratch};
use crate::slot::CaseSlot;

/// Period (in steps) of the predictor-basis orthogonality audit, which
/// runs whenever detection is on.
pub(crate) const DEFAULT_BASIS_CHECK_EVERY: usize = 32;

/// Bound on the MGS orthogonality defect of the predictor basis.
/// A healthy re-orthonormalized basis sits at rounding level (~1e-14);
/// past this bound the history is reset rather than trusted.
pub(crate) const DEFAULT_BASIS_DEFECT_TOL: f64 = 1e-6;

/// Integrity-layer configuration carried by `RunConfig`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegrityConfig {
    /// Master switch: capture/verify state guards, RHS and operator
    /// checksums, non-finite scrubbing, and the predictor-basis audit
    /// every `DEFAULT_BASIS_CHECK_EVERY` steps. Detection is read-only on
    /// clean data, so enabling it leaves clean results bitwise-unchanged.
    pub detect: bool,
}

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig { detect: true }
    }
}

impl IntegrityConfig {
    /// Detection fully off — the baseline configuration the overhead
    /// benchmark compares against.
    pub fn disabled() -> Self {
        IntegrityConfig { detect: false }
    }
}

/// What a detected corruption hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptTarget {
    /// A Newmark state vector (`u`, `v` or `a`).
    State(StateField),
    /// The Adams-Bashforth velocity history.
    AdamsHistory,
    /// The data-driven predictor's correction history (the MGS basis
    /// source).
    BasisHistory,
    /// The assembled Newmark right-hand side.
    Rhs,
    /// The operator payload (EBE element data or CRS blocks).
    Operator,
}

impl CorruptTarget {
    pub fn label(&self) -> &'static str {
        match self {
            CorruptTarget::State(StateField::U) => "state_u",
            CorruptTarget::State(StateField::V) => "state_v",
            CorruptTarget::State(StateField::A) => "state_a",
            CorruptTarget::AdamsHistory => "adams_history",
            CorruptTarget::BasisHistory => "basis_history",
            CorruptTarget::Rhs => "rhs",
            CorruptTarget::Operator => "operator",
        }
    }
}

hetsolve_ckpt::wire_code!(CorruptTarget, "corruption-target" {
    State(StateField::U) = 0,
    State(StateField::V) = 1,
    State(StateField::A) = 2,
    AdamsHistory = 3,
    BasisHistory = 4,
    Rhs = 5,
    Operator = 6,
});

/// Which ladder rung repaired a detected corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionAction {
    /// State rolled back to the boundary snapshot (bitwise).
    RestoredState,
    /// RHS recomputed from the intact `f`/`u`/`v`/`a` (bitwise).
    RecomputedRhs,
    /// Corrupted operator working copy dropped; solve uses the pristine
    /// checksummed payload.
    RebuiltOperator,
    /// Predictor history reset — the next steps fall back to plain
    /// Adams-Bashforth until the basis re-accumulates.
    ResetPredictor,
    /// Serving layer: the lane was restarted from its last checkpoint.
    RestartedLane,
    /// Serving layer: persistent corruption — the request was evicted
    /// typed instead of retried forever.
    Evicted,
}

impl CorruptionAction {
    pub fn label(&self) -> &'static str {
        match self {
            CorruptionAction::RestoredState => "restored_state",
            CorruptionAction::RecomputedRhs => "recomputed_rhs",
            CorruptionAction::RebuiltOperator => "rebuilt_operator",
            CorruptionAction::ResetPredictor => "reset_predictor",
            CorruptionAction::RestartedLane => "restarted_lane",
            CorruptionAction::Evicted => "evicted",
        }
    }
}

hetsolve_ckpt::wire_code!(CorruptionAction, "corruption-action" {
    RestoredState = 0,
    RecomputedRhs = 1,
    RebuiltOperator = 2,
    ResetPredictor = 3,
    RestartedLane = 4,
    Evicted = 5,
});

/// One corruption the integrity layer detected and repaired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionReport {
    /// Time step the corruption was detected at.
    pub step: usize,
    /// Affected case (global index / request id); `None` for run-wide
    /// targets like the operator payload.
    pub case: Option<usize>,
    pub target: CorruptTarget,
    pub action: CorruptionAction,
}

hetsolve_ckpt::wire_struct!(CorruptionReport {
    step,
    case,
    target,
    action
});

impl fmt::Display for CorruptionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "step {}{}: {} corruption detected, {}",
            self.step,
            match self.case {
                Some(c) => format!(" case {c}"),
                None => String::new(),
            },
            self.target.label(),
            self.action.label(),
        )
    }
}

/// CRC32 of an `f64` slice by IEEE-754 bit pattern.
pub fn crc_f64s(v: &[f64]) -> u32 {
    let mut c = Crc32::new();
    c.update_f64s(v);
    c.finish()
}

/// CRC32 over a sequence of `f64` columns; column boundaries are folded in
/// so reshaping the same values is not checksum-neutral.
pub(crate) fn crc_cols<'a>(cols: impl Iterator<Item = &'a [f64]>) -> u32 {
    crc_cols_via(cols, |col, c| {
        c.update_f64s(col);
    })
}

/// [`crc_cols`] with the caller folding each column's values into the
/// digest — [`StateGuard::capture`] snapshots the column on the way.
fn crc_cols_via<'a>(
    cols: impl Iterator<Item = &'a [f64]>,
    mut fold: impl FnMut(&'a [f64], &mut Crc32),
) -> u32 {
    let mut c = Crc32::new();
    for col in cols {
        c.update_u64(col.len() as u64);
        fold(col, &mut c);
    }
    c.finish()
}

/// The operator payload a run's ABFT checksum covers.
#[derive(Clone, Copy)]
pub(crate) enum OperatorPayload<'a> {
    /// Matrix-free EBE: the compact per-element geometry data.
    Ebe(&'a CompactElements),
    /// Assembled BCRS: structure plus block values.
    Crs(&'a Bcrs3),
}

impl<'a> OperatorPayload<'a> {
    /// The payload's floating-point values, as one run.
    fn values(self) -> &'a [f64] {
        match self {
            OperatorPayload::Ebe(compact) => &compact.geo,
            OperatorPayload::Crs(m) => m.blocks.as_flattened(),
        }
    }

    /// Checksum of the payload's structure followed by `values` — its own
    /// ([`operator_crc`]) or a corrupted working copy of them
    /// ([`operator_guard`]). Each array is hashed as one long run.
    fn crc_with(self, values: &[f64]) -> u32 {
        let mut c = Crc32::new();
        match self {
            OperatorPayload::Ebe(compact) => {
                c.update_u64(compact.n_elems as u64);
            }
            OperatorPayload::Crs(m) => {
                c.update_u64(m.n_brows as u64);
                c.update_words(&m.row_ptr, |p| p as u64);
                c.update_words(&m.cols, |j| j as u64);
            }
        }
        c.update_f64s(values).finish()
    }
}

/// Construction-time checksum of the immutable operator payload — the
/// reference every step boundary re-verifies against.
pub(crate) fn operator_crc(payload: OperatorPayload<'_>) -> u32 {
    payload.crc_with(payload.values())
}

/// Step-boundary guard of one case: per-component checksums plus the
/// rollback snapshot of `u`/`v`/`a` and the past Adams columns (the
/// newest velocity the history reads is `v` itself). Captured before
/// faults can land at a boundary and verified right after; any mismatch
/// pinpoints the component and [`StateGuard::restore_into`] rolls the slot
/// back bitwise. The predictor history is not copied: its columns carry
/// the CRCs taken when they were recorded and a parity column, which
/// `verify` checks and `restore_into` repairs from. The waveform and load
/// are deliberately outside the guard: neither is an input to the step
/// about to execute.
///
/// A guard is reused: a driver guards its cases one after another, so it
/// owns one guard and every [`capture`](Self::capture) overwrites the
/// last. The snapshot buffer starts empty, grows to one case's state on
/// the first capture and is never reallocated after.
#[derive(Debug, Default)]
pub(crate) struct StateGuard {
    /// Check the predictor history one column per pool chunk; its owner
    /// sets this from `Backend::parallel`.
    pub(crate) parallel: bool,
    step: usize,
    /// The captured columns back to back: `u`, `v`, `a`, then the past
    /// Adams columns, oldest first.
    snapshot: Vec<f64>,
    /// End of each captured column in `snapshot`.
    ends: Vec<usize>,
    crc_u: u32,
    crc_v: u32,
    crc_a: u32,
    crc_adams: u32,
}

impl StateGuard {
    /// Copy `col` behind the snapshot and fold the copy — still in cache —
    /// into `crc`.
    fn push_col(&mut self, col: &[f64], crc: &mut Crc32) {
        let start = self.snapshot.len();
        self.snapshot.extend_from_slice(col);
        self.ends.push(self.snapshot.len());
        crc.update_f64s(&self.snapshot[start..]);
    }

    /// [`crc_f64s`] of `col`, snapshotting it on the way.
    fn push_vector(&mut self, col: &[f64]) -> u32 {
        let mut c = Crc32::new();
        self.push_col(col, &mut c);
        c.finish()
    }

    /// Checksum and snapshot `slot`'s boundary state, replacing whatever
    /// this guard held.
    pub(crate) fn capture(&mut self, slot: &CaseSlot) {
        self.snapshot.clear();
        self.ends.clear();
        // room for exactly one case's columns at its full Adams history,
        // taken at the first capture: growing by doubling would hold room
        // for 8 columns where 6 are used, and growing to each capture's
        // size would leave a trail of freed smaller buffers behind
        let full = (3 + AdamsState::PAST) * slot.time.u.len();
        self.snapshot.reserve_exact(full);
        self.step = slot.time.step;
        self.crc_u = self.push_vector(&slot.time.u);
        self.crc_v = self.push_vector(&slot.time.v);
        self.crc_a = self.push_vector(&slot.time.a);
        self.crc_adams = crc_cols_via(slot.adams.past_cols(), |col, c| self.push_col(col, c));
    }

    /// Re-checksum the slot; `Some(target)` names the first component
    /// whose bits changed since capture — or, for the predictor history,
    /// since the column was recorded.
    pub(crate) fn verify(&self, slot: &CaseSlot) -> Option<CorruptTarget> {
        if crc_f64s(&slot.time.u) != self.crc_u {
            return Some(CorruptTarget::State(StateField::U));
        }
        if crc_f64s(&slot.time.v) != self.crc_v {
            return Some(CorruptTarget::State(StateField::V));
        }
        if crc_f64s(&slot.time.a) != self.crc_a {
            return Some(CorruptTarget::State(StateField::A));
        }
        if crc_cols(slot.adams.past_cols()) != self.crc_adams {
            return Some(CorruptTarget::AdamsHistory);
        }
        let dd = slot.dd.as_ref();
        if dd.is_some_and(|dd| !dd.corrupt_columns(self.parallel).is_empty()) {
            return Some(CorruptTarget::BasisHistory);
        }
        None
    }

    /// The captured columns, in capture order.
    fn columns(&self) -> impl Iterator<Item = &[f64]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(lo, &hi)| &self.snapshot[lo..hi])
    }

    /// Roll the slot back to the captured boundary state, bitwise, and
    /// repair a predictor-history column that no longer matches its CRC
    /// from the parity. Two or more such columns cannot be rebuilt: the
    /// history is reset instead (the basis is an accelerator, never a
    /// correctness dependency) and the action says so. The load, waveform
    /// and scratch are untouched — the first is immutable, the latter two
    /// are not step inputs.
    pub(crate) fn restore_into(&self, slot: &mut CaseSlot) -> CorruptionAction {
        let mut cols = self.columns();
        #[allow(
            clippy::expect_used,
            reason = "every capture pushes `u`, `v` and `a` first; restoring \
                      from a guard that never captured is a driver bug"
        )]
        let mut vector = || cols.next().expect("guard holds a captured state");
        slot.time.step = self.step;
        slot.time.u.copy_from_slice(vector());
        slot.time.v.copy_from_slice(vector());
        slot.time.a.copy_from_slice(vector());
        slot.adams.restore_past(cols);
        let Some(dd) = &mut slot.dd else {
            return CorruptionAction::RestoredState;
        };
        match dd.corrupt_columns(self.parallel)[..] {
            [] => CorruptionAction::RestoredState,
            [idx] if dd.repair_column(idx) => CorruptionAction::RestoredState,
            _ => {
                dd.clear();
                CorruptionAction::ResetPredictor
            }
        }
    }
}

/// Apply an injected single-bit flip to one state vector of `slot` — the
/// fault layer's memory-soft-error model.
pub(crate) fn inject_state_flip(slot: &mut CaseSlot, field: StateField, flip: BitFlip) {
    let v = match field {
        StateField::U => &mut slot.time.u,
        StateField::V => &mut slot.time.v,
        StateField::A => &mut slot.time.a,
    };
    flip.apply(v);
}

/// Apply an injected single-bit flip to one `f32` entry of the newest
/// column of `slot`'s predictor history; a no-op while the history is
/// empty, or where the slot keeps none.
pub(crate) fn inject_basis_flip(slot: &mut CaseSlot, flip: BitFlip) -> bool {
    let Some(dd) = &mut slot.dd else {
        return false;
    };
    let newest = dd.available_s();
    match dd.column_mut(newest) {
        Some(col) => flip.apply_f32(col).is_some(),
        None => false,
    }
}

/// The step-boundary guard cycle of one case: capture → (injected state /
/// basis flips land here) → verify → rollback. With detection off the
/// injected flips land unguarded — the baseline that demonstrates silent
/// corruption; with detection on and no fault this is pure read-only
/// overhead, so clean runs stay bitwise-identical.
pub(crate) fn boundary_guard(
    guard: &mut StateGuard,
    slot: &mut CaseSlot,
    faults: &mut FaultPlan,
    step: usize,
    case: usize,
    detect: bool,
    reports: &mut Vec<CorruptionReport>,
) {
    if detect {
        guard.capture(slot);
    }
    if let Some(FaultKind::StateFlip { field, flip, .. }) =
        faults.inject(FaultSite::StateFlip { step, case })
    {
        inject_state_flip(slot, field, flip);
    }
    if let Some(FaultKind::BasisFlip { flip, .. }) =
        faults.inject(FaultSite::BasisFlip { step, case })
    {
        inject_basis_flip(slot, flip);
    }
    if detect {
        if let Some(target) = guard.verify(slot) {
            let action = guard.restore_into(slot);
            reports.push(CorruptionReport {
                step,
                case: Some(case),
                target,
                action,
            });
        }
    }
}

/// RHS checksum between assembly and the solve, on lane `k` of the set's
/// packed RHS `f` (`r` lanes): an injected flip of the assembled
/// right-hand side is detected and the column recomputed one column wide
/// into `col` (`n` long, overwritten), through `scratch` (made on first
/// use: only a recompute needs it), and put back into its lane —
/// bitwise, because the load is immutable, the guarded `u`/`v`/`a` inputs
/// are still intact, and lane `k` of the set's fused build equals the
/// width-1 build of column `k`.
#[allow(clippy::too_many_arguments, reason = "one lane and its fault context")]
pub(crate) fn rhs_guard(
    backend: &Backend,
    slot: &CaseSlot,
    (f, r, k): (&mut [f64], usize, usize),
    col: &mut [f64],
    scratch: &mut Option<RhsScratch>,
    faults: &mut FaultPlan,
    step: usize,
    case: usize,
    detect: bool,
    reports: &mut Vec<CorruptionReport>,
) {
    let crc = if detect {
        Some(crc_lane(f, r, k))
    } else {
        None
    };
    if let Some(FaultKind::RhsFlip { flip, .. }) = faults.inject(FaultSite::RhsFlip { step, case })
    {
        if let Some((i, bit)) = flip.target(f.len() / r) {
            let v = &mut f[i * r + k];
            *v = f64::from_bits(v.to_bits() ^ (1u64 << bit));
        }
    }
    if let Some(crc) = crc {
        if crc_lane(f, r, k) != crc {
            let scratch = scratch.get_or_insert_with(|| RhsScratch::new(col.len()));
            slot.build_rhs(backend, col, scratch);
            insert_case(f, r, k, col);
            reports.push(CorruptionReport {
                step,
                case: Some(case),
                target: CorruptTarget::Rhs,
                action: CorruptionAction::RecomputedRhs,
            });
        }
    }
}

/// CRC32 of lane `k` of an interleaved multi-vector of `r` lanes: the CRC
/// of the lane's values in order, gathered a stack buffer at a time.
fn crc_lane(v: &[f64], r: usize, k: usize) -> u32 {
    const ROWS: usize = 256;
    let (mut c, mut buf) = (Crc32::new(), [0.0; ROWS]);
    for rows in v.chunks(ROWS * r) {
        let m = rows.len() / r;
        for (b, row) in buf.iter_mut().zip(rows.chunks_exact(r)) {
            *b = row[k];
        }
        c.update_f64s(&buf[..m]);
    }
    c.finish()
}

/// Per-step ABFT audit of the operator payload. An injected flip corrupts
/// a shadow copy of the payload values (the modeled device copy; the
/// pristine host payload is immutable); the checksum catches the mismatch
/// before the copy is used and the solve proceeds on the pristine data.
/// Returns `Some(report)` when a corrupted copy was dropped; the pristine
/// payload failing its own baseline would be unrecoverable host-memory
/// corruption, surfaced by the caller as `RunError::Corruption`.
pub(crate) fn operator_guard(
    payload: OperatorPayload<'_>,
    baseline: u32,
    faults: &mut FaultPlan,
    step: usize,
    detect: bool,
    reports: &mut Vec<CorruptionReport>,
) -> Result<(), CorruptTarget> {
    if let Some(FaultKind::OperatorFlip { flip }) = faults.inject(FaultSite::OperatorFlip { step })
    {
        let mut shadow = payload.values().to_vec();
        flip.apply(&mut shadow);
        let corrupted_copy_detected = payload.crc_with(&shadow) != baseline;
        if detect && corrupted_copy_detected {
            reports.push(CorruptionReport {
                step,
                case: None,
                target: CorruptTarget::Operator,
                action: CorruptionAction::RebuiltOperator,
            });
        }
    }
    // steady-state audit: the payload actually driving the solve must
    // still match its construction-time checksum
    if detect && operator_crc(payload) != baseline {
        return Err(CorruptTarget::Operator);
    }
    Ok(())
}

/// Scrub the slot's boundary state for non-finite values; `Some` names the
/// first poisoned vector. A corruption that reaches this point slipped
/// past every checksum and sentinel — the caller surfaces it typed
/// (`RunError::Corruption`) instead of carrying NaNs forward.
pub(crate) fn scrub_state(slot: &CaseSlot) -> Option<StateField> {
    if slot.time.u.iter().any(|x| !x.is_finite()) {
        return Some(StateField::U);
    }
    if slot.time.v.iter().any(|x| !x.is_finite()) {
        return Some(StateField::V);
    }
    if slot.time.a.iter().any(|x| !x.is_finite()) {
        return Some(StateField::A);
    }
    None
}

/// Periodic predictor-basis audit: when the MGS orthogonality defect of
/// the basis built from the current history exceeds `tol` (or turns
/// non-finite), the history is reset — the predictor falls back to plain
/// Adams-Bashforth and re-accumulates, which degrades speed, never
/// accuracy. Returns the report when the reset fired.
pub(crate) fn basis_sentinel(
    slot: &mut CaseSlot,
    step: usize,
    case: usize,
    tol: f64,
    scratch: &mut PredictorScratch,
) -> Option<CorruptionReport> {
    let dd = slot.dd.as_mut()?;
    let defect = dd.basis_defect(dd.available_s(), scratch)?;
    if defect.is_finite() && defect <= tol {
        return None;
    }
    dd.restore_history(Vec::new());
    Some(CorruptionReport {
        step,
        case: Some(case),
        target: CorruptTarget::BasisHistory,
        action: CorruptionAction::ResetPredictor,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hetsolve_fem::FemProblem;
    use hetsolve_machine::single_gh200;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    use crate::checkpoint::SlotState;
    use crate::methods::{MethodKind, RunConfig};
    use crate::set::{SetSpec, SetStep};

    fn small() -> (Backend, RunConfig) {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        let backend = Backend::new(FemProblem::paper_like(&spec), true, false);
        let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), 4);
        cfg.r = 2;
        cfg.s_max = 4;
        cfg.region_dofs = 64;
        (backend, cfg)
    }

    /// A slot of `cfg` after `steps` real steps of the one set step, so
    /// that its state evolves and no two history columns hold the same
    /// bits.
    fn warmed_slot(backend: &Backend, cfg: &RunConfig, steps: usize) -> CaseSlot {
        let slot = CaseSlot::with_seed(backend, cfg, 7, cfg.n_steps.max(steps), 0);
        let mut lane = [slot];
        let (mut set, op) = (SetStep::new(backend.n_dofs(), 1), backend.ebe_a(1));
        let mut faults = FaultPlan::default();
        for step in 0..steps {
            let spec = SetSpec {
                step,
                set: 0,
                ids: &[Some(0)],
                fused: false,
                window: None,
                tol: cfg.tol,
            };
            set.prepare(backend, cfg, spec, &mut lane[..], &mut faults);
            set.solve(backend, &op, &mut lane[..])
                .error()
                .expect("a clean step solves");
        }
        let [slot] = lane;
        slot
    }

    /// The predictor of a slot whose method keeps one.
    fn dd(slot: &mut CaseSlot) -> &mut hetsolve_predictor::DataDrivenPredictor {
        slot.dd.as_mut().expect("a predicting method")
    }

    #[test]
    fn labels_and_codes_round_trip() {
        let targets = [
            CorruptTarget::State(StateField::U),
            CorruptTarget::State(StateField::V),
            CorruptTarget::State(StateField::A),
            CorruptTarget::AdamsHistory,
            CorruptTarget::BasisHistory,
            CorruptTarget::Rhs,
            CorruptTarget::Operator,
        ];
        for t in targets {
            assert_eq!(CorruptTarget::from_code(t.code()), Some(t), "{}", t.label());
        }
        assert_eq!(CorruptTarget::from_code(200), None);
        let actions = [
            CorruptionAction::RestoredState,
            CorruptionAction::RecomputedRhs,
            CorruptionAction::RebuiltOperator,
            CorruptionAction::ResetPredictor,
            CorruptionAction::RestartedLane,
            CorruptionAction::Evicted,
        ];
        for a in actions {
            assert_eq!(
                CorruptionAction::from_code(a.code()),
                Some(a),
                "{}",
                a.label()
            );
        }
        assert_eq!(CorruptionAction::from_code(200), None);
        let rep = CorruptionReport {
            step: 5,
            case: Some(2),
            target: CorruptTarget::Rhs,
            action: CorruptionAction::RecomputedRhs,
        };
        let s = rep.to_string();
        assert!(s.contains("step 5") && s.contains("case 2"), "{s}");
        assert!(s.contains("rhs") && s.contains("recomputed_rhs"), "{s}");
    }

    #[test]
    fn crc_cols_sees_column_boundaries() {
        let a = [vec![1.0, 2.0], vec![3.0]];
        let b = [vec![1.0], vec![2.0, 3.0]];
        assert_ne!(
            crc_cols(a.iter().map(|v| v.as_slice())),
            crc_cols(b.iter().map(|v| v.as_slice())),
            "same values, different shape must differ"
        );
    }

    #[test]
    fn state_guard_detects_and_restores_every_target() {
        let (backend, cfg) = small();
        let slot = warmed_slot(&backend, &cfg, 6);
        let reference = slot.state();
        let mut guard = StateGuard::default();
        for (i, field) in [StateField::U, StateField::V, StateField::A]
            .into_iter()
            .enumerate()
        {
            let mut s = CaseSlot::from_state(&backend, &cfg, &reference);
            guard.capture(&s);
            assert_eq!(guard.verify(&s), None, "clean slot must verify");
            inject_state_flip(
                &mut s,
                field,
                BitFlip {
                    seed: 77 + i as u64,
                },
            );
            assert_eq!(guard.verify(&s), Some(CorruptTarget::State(field)));
            guard.restore_into(&mut s);
            assert_eq!(guard.verify(&s), None, "restore must be bitwise");
            assert_eq!(s.state(), reference);
        }
        // basis history flip
        let mut s = CaseSlot::from_state(&backend, &cfg, &reference);
        guard.capture(&s);
        assert!(inject_basis_flip(&mut s, BitFlip { seed: 991 }));
        assert_eq!(guard.verify(&s), Some(CorruptTarget::BasisHistory));
        guard.restore_into(&mut s);
        assert_eq!(s.state(), reference);
    }

    #[test]
    fn flips_in_old_history_columns_are_reported_and_restored() {
        let (backend, cfg) = small();
        let slot = warmed_slot(&backend, &cfg, 6);
        let reference = slot.state();
        assert_eq!(reference.adams_hist.len(), 4);
        assert_eq!(reference.dd_hist.len(), cfg.s_max + 1);
        assert_ne!(reference.dd_hist[0], reference.dd_hist[1]);
        let mut guard = StateGuard::default();

        // the oldest predictor column, not the newest one the fault plan hits
        let mut s = CaseSlot::from_state(&backend, &cfg, &reference);
        guard.capture(&s);
        BitFlip { seed: 17 }
            .apply_f32(dd(&mut s).column_mut(0).expect("oldest column"))
            .expect("column is not empty");
        assert_eq!(guard.verify(&s), Some(CorruptTarget::BasisHistory));
        guard.restore_into(&mut s);
        assert_eq!(guard.verify(&s), None);
        assert_eq!(s.state(), reference);

        // every past Adams column in turn
        for k in 0..3 {
            let mut s = CaseSlot::from_state(&backend, &cfg, &reference);
            guard.capture(&s);
            let mut hist = s.adams.history(&s.time.v);
            BitFlip {
                seed: 40 + k as u64,
            }
            .apply(&mut hist[k])
            .expect("column is not empty");
            s.adams.restore_history(hist);
            assert_eq!(
                guard.verify(&s),
                Some(CorruptTarget::AdamsHistory),
                "col {k}"
            );
            guard.restore_into(&mut s);
            assert_eq!(guard.verify(&s), None);
            assert_eq!(s.state(), reference, "Adams column {k}");
        }
    }

    /// A guard's snapshot is sized once, at its first capture, for
    /// exactly one case's columns at its full history: `u`, `v`, `a` and
    /// 3 past Adams columns.
    #[test]
    fn a_capture_is_sized_exactly() {
        let (backend, cfg) = small();
        let full = 6 * backend.n_dofs();
        let mut guard = StateGuard::default();
        for steps in [0, 6] {
            let slot = warmed_slot(&backend, &cfg, steps);
            guard.capture(&slot);
            assert_eq!(guard.snapshot.capacity(), full, "after {steps} steps");
        }
        assert_eq!(guard.snapshot.len(), full, "3 past Adams columns");
    }

    #[test]
    fn reused_guard_forgets_the_previous_capture() {
        let (backend, mut cfg) = small();
        cfg.s_max = 16;
        let long = warmed_slot(&backend, &cfg, 20);
        assert_eq!(long.available_s(), 16);
        let mut guard = StateGuard::default();
        // after a 17-column capture: a 2-column history, then a fresh slot
        for steps in [2, 0] {
            guard.capture(&long);
            assert_eq!(guard.verify(&long), None);
            let slot = warmed_slot(&backend, &cfg, steps);
            let reference = slot.state();
            assert_eq!(reference.dd_hist.len(), steps);
            guard.capture(&slot);
            assert_eq!(guard.columns().count(), 3 + steps.saturating_sub(1));
            assert_eq!(guard.verify(&slot), None);
            assert!(guard.verify(&long).is_some(), "the long capture is gone");
            // a rollback hands the slot this capture's columns only
            let mut s = CaseSlot::from_state(&backend, &cfg, &reference);
            inject_state_flip(&mut s, StateField::U, BitFlip { seed: 5 });
            assert_eq!(guard.verify(&s), Some(CorruptTarget::State(StateField::U)));
            guard.restore_into(&mut s);
            assert_eq!(s.state(), reference, "after {steps} steps");
        }
    }

    /// The fault layer's basis flip lands on one `f32` entry of the newest
    /// history column, at any of its 32 bits: the column check names that
    /// column alone and the parity rebuilds it bit for bit.
    #[test]
    fn f32_basis_flips_are_found_and_repaired_bitwise() {
        let (backend, cfg) = small();
        let reference = warmed_slot(&backend, &cfg, 6).state();
        let newest = reference.dd_hist.len() - 1;
        let bits = |st: &SlotState| -> Vec<Vec<u32>> {
            let cols = st.dd_hist.iter();
            cols.map(|c| c.iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let mut hit = 0u64;
        for k in 0..64u64 {
            let flip = BitFlip {
                seed: k | (k * 7919) << 6,
            };
            let mut s = CaseSlot::from_state(&backend, &cfg, &reference);
            let mut col = reference.dd_hist[newest].clone();
            let (_, bit) = flip.apply_f32(&mut col).expect("column is not empty");
            hit |= 1 << bit;
            assert!(inject_basis_flip(&mut s, flip));
            assert_eq!(s.state().dd_hist[newest], col, "seed {}", flip.seed);
            for parallel in [false, true] {
                assert_eq!(dd(&mut s).corrupt_columns(parallel), [newest]);
            }
            assert!(dd(&mut s).repair_column(newest), "seed {}", flip.seed);
            assert_eq!(bits(&s.state()), bits(&reference), "seed {}", flip.seed);
            assert!(dd(&mut s).corrupt_columns(false).is_empty());
        }
        assert_eq!(hit, u64::from(u32::MAX), "every bit of an f32 entry");
    }

    /// Two bad predictor-history columns are more than one parity column
    /// can rebuild: the boundary resets the history and reports it typed,
    /// leaves the rest of the state as it was, and the case steps on.
    #[test]
    fn two_bad_history_columns_reset_the_predictor() {
        let (backend, mut cfg) = small();
        cfg.n_steps = 10;
        let reference = warmed_slot(&backend, &cfg, 6).state();
        let mut lane = [CaseSlot::from_state(&backend, &cfg, &reference)];
        for idx in [0, 2] {
            let col = dd(&mut lane[0]).column_mut(idx).expect("in range");
            BitFlip {
                seed: 60 + idx as u64,
            }
            .apply_f32(col)
            .expect("column is not empty");
        }
        let step = lane[0].step_index();
        let mut reports = Vec::new();
        let (mut guard, mut faults) = (StateGuard::default(), FaultPlan::default());
        boundary_guard(
            &mut guard,
            &mut lane[0],
            &mut faults,
            step,
            0,
            true,
            &mut reports,
        );
        let reset = CorruptionReport {
            step,
            case: Some(0),
            target: CorruptTarget::BasisHistory,
            action: CorruptionAction::ResetPredictor,
        };
        assert_eq!(reports, [reset]);
        let st = lane[0].state();
        assert!(st.dd_hist.is_empty(), "history reset");
        assert_eq!(
            (&st.u, &st.v, &st.a),
            (&reference.u, &reference.v, &reference.a)
        );
        assert_eq!(st.adams_hist, reference.adams_hist);
        // the run completes, the predictor re-accumulating from nothing
        let (mut set, op) = (SetStep::new(backend.n_dofs(), 1), backend.ebe_a(1));
        for step in step..cfg.n_steps {
            let spec = SetSpec {
                step,
                set: 0,
                ids: &[Some(0)],
                fused: false,
                window: None,
                tol: cfg.tol,
            };
            let out = set.prepare(&backend, &cfg, spec, &mut lane[..], &mut faults);
            assert!(out.corruptions.is_empty(), "step {step}");
            set.solve(&backend, &op, &mut lane[..])
                .error()
                .expect("solves");
        }
        assert!(lane[0].is_done() && lane[0].available_s() >= 2);
    }

    /// Both operator payloads' checksums as `operator_crc/<payload>` lines
    /// of the pin ledger.
    pub(crate) fn pin_lines() -> Vec<(String, String)> {
        let (backend, _cfg) = small();
        [
            ("ebe", operator_crc(OperatorPayload::Ebe(&backend.compact))),
            ("crs", operator_crc(OperatorPayload::Crs(backend.crs_a()))),
        ]
        .map(|(payload, crc)| (payload.to_string(), format!("{crc:08x}")))
        .to_vec()
    }

    #[test]
    fn operator_crc_is_the_parent_commits() {
        // recorded from the tree before the carry-less-multiply kernel and
        // the long-run hashing: same byte stream, same digest
        crate::pins::check("operator_crc", &pin_lines());
    }

    #[test]
    fn boundary_guard_rolls_back_injected_flips() {
        let (backend, cfg) = small();
        let slot = warmed_slot(&backend, &cfg, 5);
        let reference = slot.state();
        let step = slot.step_index();

        let mut s = CaseSlot::from_state(&backend, &cfg, &reference);
        let mut plan = FaultPlan::new(3).flip_state(step, 0, StateField::V);
        let mut reports = Vec::new();
        let mut guard = StateGuard::default();
        boundary_guard(&mut guard, &mut s, &mut plan, step, 0, true, &mut reports);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].target, CorruptTarget::State(StateField::V));
        assert_eq!(reports[0].action, CorruptionAction::RestoredState);
        assert_eq!(s.state(), reference, "rollback must be bitwise");
        assert!(plan.all_fired());

        // detection off: the same flip lands silently
        let mut s = CaseSlot::from_state(&backend, &cfg, &reference);
        let mut plan = FaultPlan::new(3).flip_state(step, 0, StateField::V);
        let mut reports = Vec::new();
        boundary_guard(&mut guard, &mut s, &mut plan, step, 0, false, &mut reports);
        assert!(reports.is_empty());
        assert_ne!(s.state(), reference, "unguarded flip must corrupt");

        // no fault: guard is a read-only no-op
        let mut s = CaseSlot::from_state(&backend, &cfg, &reference);
        let mut reports = Vec::new();
        let mut empty = FaultPlan::default();
        boundary_guard(&mut guard, &mut s, &mut empty, step, 0, true, &mut reports);
        assert!(reports.is_empty());
        assert_eq!(s.state(), reference);
    }

    /// The guard works on one lane of a packed RHS: a flip there is
    /// recomputed bitwise, and the other lane is never touched.
    #[test]
    fn rhs_guard_recomputes_bitwise() {
        let (backend, cfg) = small();
        let slot = warmed_slot(&backend, &cfg, 4);
        let n = backend.n_dofs();
        let mut scratch = RhsScratch::new(n);
        let step = slot.step_index();
        let mut clean_rhs = vec![0.0; n];
        slot.build_rhs(&backend, &mut clean_rhs, &mut scratch);
        let (r, k, other) = (2, 1, 0.25);
        let packed = || {
            let mut f = vec![other; n * r];
            insert_case(&mut f, r, k, &clean_rhs);
            f
        };
        let lane = |f: &[f64]| -> Vec<f64> { f.iter().skip(k).step_by(r).copied().collect() };
        let (mut col, mut scratch) = (vec![0.0; n], None);

        for detect in [true, false] {
            let mut f = packed();
            let mut plan = FaultPlan::new(5).flip_rhs(step, 0);
            let mut reports = Vec::new();
            rhs_guard(
                &backend,
                &slot,
                (&mut f, r, k),
                &mut col,
                &mut scratch,
                &mut plan,
                step,
                0,
                detect,
                &mut reports,
            );
            assert!(plan.all_fired());
            assert!(f.iter().step_by(r).all(|&v| v == other), "other lane");
            let same = lane(&f)
                .iter()
                .zip(&clean_rhs)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            if detect {
                assert_eq!(reports.len(), 1);
                assert_eq!(reports[0].target, CorruptTarget::Rhs);
                assert_eq!(reports[0].action, CorruptionAction::RecomputedRhs);
                assert!(same, "recompute must be bitwise");
            } else {
                // detection off: the flipped RHS survives
                assert!(reports.is_empty());
                assert!(!same);
            }
        }
    }

    #[test]
    fn operator_guard_catches_flipped_copies_for_both_payloads() {
        let (backend, _cfg) = small();
        for payload in [
            OperatorPayload::Ebe(&backend.compact),
            OperatorPayload::Crs(backend.crs_a()),
        ] {
            let baseline = operator_crc(payload);
            let mut plan = FaultPlan::new(9).flip_operator(3);
            let mut reports = Vec::new();
            operator_guard(payload, baseline, &mut plan, 3, true, &mut reports)
                .expect("pristine payload must pass its own audit");
            assert_eq!(reports.len(), 1, "flipped copy must be detected");
            assert_eq!(reports[0].target, CorruptTarget::Operator);
            assert_eq!(reports[0].action, CorruptionAction::RebuiltOperator);
            // clean step: no fault, no report
            let mut reports = Vec::new();
            let mut empty = FaultPlan::default();
            operator_guard(payload, baseline, &mut empty, 4, true, &mut reports).unwrap();
            assert!(reports.is_empty());
            // a wrong baseline means the payload itself is corrupt
            assert!(
                operator_guard(payload, baseline ^ 1, &mut empty, 5, true, &mut Vec::new())
                    .is_err()
            );
        }
    }

    #[test]
    fn scrub_flags_first_nonfinite_vector() {
        let (backend, cfg) = small();
        let slot = warmed_slot(&backend, &cfg, 3);
        assert_eq!(scrub_state(&slot), None);
        let mut st = slot.state();
        st.v[1] = f64::NAN;
        let poisoned = CaseSlot::from_state(&backend, &cfg, &st);
        assert_eq!(scrub_state(&poisoned), Some(StateField::V));
        let mut st2 = slot.state();
        st2.a[0] = f64::INFINITY;
        let poisoned = CaseSlot::from_state(&backend, &cfg, &st2);
        assert_eq!(scrub_state(&poisoned), Some(StateField::A));
    }

    #[test]
    fn basis_sentinel_resets_only_a_degenerate_basis() {
        let (backend, cfg) = small();
        let mut slot = warmed_slot(&backend, &cfg, 6);
        assert!(slot.available_s() >= 1, "history must be warm");
        let scratch = &mut PredictorScratch::default();
        assert!(
            basis_sentinel(&mut slot, 6, 0, DEFAULT_BASIS_DEFECT_TOL, scratch).is_none(),
            "healthy basis must not reset"
        );
        // poison the history with a NaN column: the defect turns
        // non-finite and the sentinel resets the predictor
        let newest = slot.available_s();
        dd(&mut slot).column_mut(newest).unwrap()[0] = f32::NAN;
        let rep = basis_sentinel(&mut slot, 7, 0, DEFAULT_BASIS_DEFECT_TOL, scratch)
            .expect("poisoned basis must reset");
        assert_eq!(rep.target, CorruptTarget::BasisHistory);
        assert_eq!(rep.action, CorruptionAction::ResetPredictor);
        assert_eq!(slot.available_s(), 0, "history cleared");
    }

    #[test]
    fn integrity_config_defaults() {
        let on = IntegrityConfig::default();
        assert!(on.detect);
        let off = IntegrityConfig::disabled();
        assert!(!off.detect);
    }
}
