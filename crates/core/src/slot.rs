//! Per-case simulation state as a resumable *slot*.
//!
//! [`CaseSlot`] carries everything one simulation case needs between time
//! steps: the Newmark time state, its random load history, the
//! Adams-Bashforth extrapolator and the data-driven correction predictor,
//! plus per-step scratch. The step driver in [`crate::methods`] owns a
//! fixed array of slots for a whole run (1, 2 or 2r by method); the
//! serving layer (`hetsolve-serve`) instead creates and retires slots
//! independently, so a fused lane can backfill a freed slot at a time-step
//! boundary while its companions keep iterating. Every path — the one
//! step driver for all four methods, the real-thread pipeline
//! ([`crate::realtime`]) and the server — steps its slots through the one
//! set step of [`crate::set`], the only caller of `prepare_guess` /
//! `advance` outside the convergence study, which is what makes a served
//! case's trajectory bitwise-identical to its solo ensemble solve.
//!
//! A case keeps a data-driven history only where its method predicts from
//! one: the serial schedule of the CRS-CG@CPU and CRS-CG@GPU baselines
//! runs every step at window 0, so their slots have no predictor, build no
//! correction snapshot and checkpoint no history. The pipelined methods
//! keep up to `s_max + 1` snapshots, stored as `f32` (the guess CG refines
//! need not be exact; see `hetsolve-predictor`); under the adaptive window
//! the step driver trims each history to what the window can reach
//! ([`CaseSlot::retain_history`]).
//!
//! A slot holds no RHS, no guess and no per-step buffers of its own: it is
//! state only. The set step builds the RHS of all its columns at once,
//! straight into the lanes of its packed `f`, and lends `prepare_guess`
//! and `advance` its vectors; [`CaseSlot::build_rhs`] is the same RHS one
//! column at a time into a caller's vector, for the RHS guard's recompute
//! and the convergence study. The Adams-Bashforth guess is not kept
//! either: [`CaseSlot::ab_guess`] recomputes it from the state wherever it
//! is read, which gives the same bits until `advance` moves the state.
//! Nor does its velocity history copy the state's `v`: it keeps the up to
//! 3 velocities before it, and `advance` hands it the old `v` just before
//! Newmark overwrites it.

use hetsolve_fault::VectorFault;
use hetsolve_fem::{RandomLoad, TimeState};
use hetsolve_predictor::{AdamsState, DataDrivenPredictor, PredictorScratch};
use hetsolve_sparse::KernelCounts;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::backend::{Backend, RhsScratch};
use crate::checkpoint::SlotState;
use crate::methods::{keeps_history, RunConfig};

/// Per-case simulation state (one column of a fused multi-RHS lane).
pub struct CaseSlot {
    pub(crate) time: TimeState,
    pub(crate) load: RandomLoad,
    /// The velocities before `time.v`, which every Adams-Bashforth guess
    /// reads after them.
    pub(crate) adams: AdamsState,
    /// The data-driven correction history; `None` under a method that
    /// never predicts from it.
    pub(crate) dd: Option<DataDrivenPredictor>,
    /// Absolute RNG seed the load was generated from — with `n_steps`, all
    /// a checkpoint needs to regenerate the load bitwise on restore.
    seed: u64,
    /// Steps this case runs for (load generation depends on it).
    n_steps: usize,
    pub(crate) waveform: Vec<Vec<f64>>,
}

impl CaseSlot {
    /// Slot for case `case` of an ensemble run: seeded `cfg.seed + case`,
    /// running for `cfg.n_steps`.
    pub(crate) fn new(backend: &Backend, cfg: &RunConfig, case: usize, n_obs: usize) -> Self {
        Self::with_seed(backend, cfg, cfg.seed + case as u64, cfg.n_steps, n_obs)
    }

    /// Slot with an absolute RNG seed and its own step count — the serving
    /// layer's constructor. A request served with seed `s` reproduces the
    /// exact load (and therefore trajectory) of a solo ensemble run whose
    /// case seed is `s`, provided `n_steps` and the load spec match.
    pub fn with_seed(
        backend: &Backend,
        cfg: &RunConfig,
        seed: u64,
        n_steps: usize,
        n_obs: usize,
    ) -> Self {
        let n = backend.n_dofs();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let load =
            RandomLoad::generate(&cfg.load, &backend.problem.surface_nodes, n_steps, &mut rng);
        CaseSlot {
            time: TimeState::zeros(n),
            load,
            adams: AdamsState::new(),
            dd: keeps_history(cfg)
                .then(|| DataDrivenPredictor::new(n, cfg.region_dofs.max(3), cfg.s_max.max(1))),
            seed,
            n_steps,
            waveform: (0..n_obs).map(|_| Vec::with_capacity(n_steps)).collect(),
        }
    }

    /// This step's load, masked, into `force` (`n` long, overwritten) —
    /// the first term of its RHS.
    pub(crate) fn force_into(&self, backend: &Backend, force: &mut [f64]) {
        self.load.force_into(self.time.step, force);
        backend.problem.mask.project(force);
    }

    /// This step's whole Newmark RHS into `rhs` (`n` long, overwritten),
    /// one column at a time — the bits the set step's fused build gives
    /// this column.
    pub(crate) fn build_rhs(&self, backend: &Backend, rhs: &mut [f64], scratch: &mut RhsScratch) {
        self.force_into(backend, rhs);
        let t = &self.time;
        backend.newmark_rhs_onto(&backend.compact, &t.u, &t.v, &t.a, rhs, scratch);
    }

    /// This step's plain Adams-Bashforth guess into `out` (`n` long,
    /// overwritten): the first term of [`Self::prepare_guess`], the
    /// recovery ladder's retry rung and the reference of the correction
    /// snapshot. A pure function of the state, so every caller between two
    /// `advance`s gets the same bits.
    pub(crate) fn ab_guess(&self, backend: &Backend, out: &mut [f64]) {
        let dt = backend.problem.newmark.dt;
        self.adams.predict(&self.time.u, &self.time.v, dt, out);
        backend.problem.mask.project(out);
    }

    /// Build this step's initial guess into `guess` (`n` long,
    /// overwritten): the Adams-Bashforth extrapolation plus the data-driven
    /// correction at window `s`, which is computed into `corr` (`n` long,
    /// overwritten) in `scratch`. Returns the window actually used.
    pub(crate) fn prepare_guess(
        &self,
        backend: &Backend,
        s: usize,
        guess: &mut [f64],
        corr: &mut [f64],
        scratch: &mut PredictorScratch,
    ) -> usize {
        self.ab_guess(backend, guess);
        // the data-driven correction, once the history holds a window
        let Some(dd) = self.dd.as_ref().filter(|_| s > 0) else {
            return 0;
        };
        if !dd.predict_with(s, corr, scratch) {
            return 0;
        }
        for (g, c) in guess.iter_mut().zip(&*corr) {
            *g += c;
        }
        backend.problem.mask.project(guess);
        s.min(dd.available_s())
    }

    /// Modeled cost of this slot's data-driven prediction at window `s`;
    /// nothing for a slot without a predictor.
    pub(crate) fn predictor_cost(&self, s: usize) -> KernelCounts {
        self.dd
            .as_ref()
            .map_or_else(KernelCounts::default, |dd| dd.cost(s))
    }

    /// After solving into `u_new`: record predictor data and advance the
    /// Newmark state. The correction snapshot is built in `delta` (`n`
    /// long, overwritten); `snapshot_fault` (injected) corrupts it before
    /// it enters the predictor history. A slot without a predictor builds
    /// no snapshot, and the fault has nothing to land on. `u_new` becomes
    /// the displacement by a swap, so it comes back holding the previous
    /// one. Returns `false` when the history was poisoned and rebuilt (the
    /// caller should drop the adaptive window back to its minimum).
    pub(crate) fn advance(
        &mut self,
        backend: &Backend,
        u_new: &mut Vec<f64>,
        delta: &mut [f64],
        snapshot_fault: Option<VectorFault>,
    ) -> bool {
        if self.dd.is_some() {
            // correction snapshot: delta = u_true - u_adams, the
            // Adams-Bashforth guess recomputed before the state moves
            self.ab_guess(backend, delta);
            for (d, u) in delta.iter_mut().zip(&*u_new) {
                *d = u - *d;
            }
            if let Some(f) = snapshot_fault {
                f.apply(delta);
            }
        }
        let history_ok = self.dd.as_mut().is_none_or(|dd| dd.record(delta));
        std::mem::swap(&mut self.time.u, u_new);
        self.adams.record_past(&self.time.v);
        let nm = &backend.problem.newmark;
        nm.advance(&self.time.u, u_new, &mut self.time.v, &mut self.time.a);
        self.time.step += 1;
        history_ok
    }

    pub(crate) fn record_waveform(&mut self, obs_dofs: &[usize]) {
        for (w, &d) in self.waveform.iter_mut().zip(obs_dofs) {
            w.push(self.time.u[d]);
        }
    }

    /// Steps completed so far (the next step runs this index).
    pub(crate) fn step_index(&self) -> usize {
        self.time.step
    }

    /// All its steps are done.
    pub fn is_done(&self) -> bool {
        self.time.step >= self.n_steps
    }

    /// Current displacement vector.
    pub fn displacement(&self) -> &[f64] {
        &self.time.u
    }

    /// Largest data-driven window this slot's history supports right now.
    pub(crate) fn available_s(&self) -> usize {
        self.dd.as_ref().map_or(0, DataDrivenPredictor::available_s)
    }

    /// Keep only the newest `keep` snapshots of the data-driven history
    /// ([`DataDrivenPredictor::retain_newest`]); nothing without one.
    pub(crate) fn retain_history(&mut self, keep: usize) {
        if let Some(dd) = &mut self.dd {
            dd.retain_newest(keep);
        }
    }

    /// Capture everything a checkpoint needs to rebuild this slot bitwise:
    /// seed + step count (the load regenerates from them), Newmark vectors,
    /// both predictor histories (the Adams one as its past columns followed
    /// by a copy of `v` once the case has stepped; the data-driven one as
    /// its `f32` columns, none without a predictor), and the recorded
    /// waveform. A slot holds no per-step scratch, so nothing is left out:
    /// the RHS and guess live in the set step's packed lanes, rebuilt
    /// every step before any read.
    pub fn state(&self) -> SlotState {
        SlotState {
            seed: self.seed,
            n_steps: self.n_steps,
            step: self.time.step,
            u: self.time.u.clone(),
            v: self.time.v.clone(),
            a: self.time.a.clone(),
            adams_hist: self.adams.history(&self.time.v),
            dd_hist: self
                .dd
                .as_ref()
                .map_or_else(Vec::new, DataDrivenPredictor::history),
            waveform: self.waveform.clone(),
        }
    }

    /// Rebuild a slot from a captured [`SlotState`] — the restore-side
    /// inverse of [`CaseSlot::state`]. The load is regenerated from the
    /// stored seed, so the resumed trajectory is bitwise-identical to the
    /// uninterrupted one; the newest Adams column, the copy of `v`, is
    /// dropped again. `st` must fit `backend`'s mesh and `cfg`'s method: a
    /// state decoded from outside the process goes through
    /// [`SlotState::check`] first.
    pub fn from_state(backend: &Backend, cfg: &RunConfig, st: &SlotState) -> Self {
        let mut slot = Self::with_seed(backend, cfg, st.seed, st.n_steps, st.waveform.len());
        slot.time.step = st.step;
        slot.time.u = st.u.clone();
        slot.time.v = st.v.clone();
        slot.time.a = st.a.clone();
        slot.adams.restore_history(st.adams_hist.clone());
        if let Some(dd) = &mut slot.dd {
            dd.restore_history(st.dd_hist.clone());
        }
        slot.waveform = st.waveform.clone();
        slot
    }
}

#[cfg(test)]
mod tests {
    use hetsolve_fault::FaultPlan;
    use hetsolve_fem::FemProblem;
    use hetsolve_machine::single_gh200;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    use super::*;
    use crate::methods::MethodKind;
    use crate::set::{SetSpec, SetStep};

    /// After `k` advances a slot holds `min(k − 1, 3)` past velocities
    /// (none before its first step), and its image carries `min(k, 4)`
    /// Adams columns, the newest bitwise `v`. The slot rebuilt from that
    /// image builds the same next guess, bit for bit.
    #[test]
    fn adams_history_keeps_the_past_and_its_image_adds_v() {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        let backend = Backend::new(FemProblem::paper_like(&spec), true, false);
        let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), 7);
        cfg.s_max = 4;
        cfg.region_dofs = 64;
        let n = backend.n_dofs();
        let mut lane = [CaseSlot::new(&backend, &cfg, 0, 0)];
        let (mut set, op) = (SetStep::new(n, 1), backend.ebe_a(1));
        let (mut faults, scratch) = (FaultPlan::default(), &mut PredictorScratch::default());
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let mut got = [(); 2].map(|_| [vec![0.0; n], vec![0.0; n]]);
        for k in 0..=cfg.n_steps {
            let slot = &lane[0];
            assert_eq!(slot.step_index(), k);
            let past = k.saturating_sub(1).min(3);
            assert_eq!(slot.adams.past_cols().count(), past, "k = {k}");
            let st = slot.state();
            assert_eq!(st.adams_hist.len(), k.min(4), "k = {k}");
            if let Some(newest) = st.adams_hist.last() {
                assert_eq!(bits(newest), bits(&st.v), "k = {k}");
            }
            let back = CaseSlot::from_state(&backend, &cfg, &st);
            assert_eq!(back.adams.past_cols().count(), past, "k = {k}");
            let s = slot.available_s();
            for (case, [guess, corr]) in [slot, &back].into_iter().zip(&mut got) {
                case.prepare_guess(&backend, s, guess, corr, scratch);
            }
            let [[ours, _], [theirs, _]] = &got;
            assert_eq!(bits(theirs), bits(ours), "k = {k}");
            if k == cfg.n_steps {
                break;
            }
            let spec = SetSpec {
                step: k,
                set: 0,
                ids: &[Some(0)],
                fused: false,
                window: None,
                tol: cfg.tol,
            };
            set.prepare(&backend, &cfg, spec, &mut lane[..], &mut faults);
            set.solve(&backend, &op, &mut lane[..])
                .error()
                .expect("a clean step solves");
        }
    }
}
