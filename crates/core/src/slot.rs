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
//! set step of [`crate::set`], the only caller of `prepare_step` /
//! `advance` outside the convergence study, which is what makes a served
//! case's trajectory bitwise-identical to its solo ensemble solve.

use hetsolve_fault::VectorFault;
use hetsolve_fem::{RandomLoad, TimeState};
use hetsolve_predictor::{AdamsState, DataDrivenPredictor};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::backend::{Backend, RhsScratch};
use crate::checkpoint::SlotState;
use crate::methods::RunConfig;

/// Per-case simulation state (one column of a fused multi-RHS lane).
pub struct CaseSlot {
    pub(crate) time: TimeState,
    pub(crate) load: RandomLoad,
    pub(crate) adams: AdamsState,
    pub(crate) dd: DataDrivenPredictor,
    /// Absolute RNG seed the load was generated from — with `n_steps`, all
    /// a checkpoint needs to regenerate the load bitwise on restore.
    seed: u64,
    /// Steps this case runs for (load generation depends on it).
    n_steps: usize,
    /// Scratch: force, rhs, solution guess.
    pub(crate) f: Vec<f64>,
    pub(crate) rhs: Vec<f64>,
    pub(crate) guess: Vec<f64>,
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
            dd: DataDrivenPredictor::new(n, cfg.region_dofs.max(3), cfg.s_max.max(1)),
            seed,
            n_steps,
            f: vec![0.0; n],
            rhs: vec![0.0; n],
            guess: vec![0.0; n],
            waveform: vec![Vec::new(); n_obs],
        }
    }

    /// Prepare this slot's current step: assemble the Newmark RHS from the
    /// step's load into `rhs`, then build the data-driven initial guess
    /// with window `s` into `guess`. Writes the plain Adams-Bashforth guess
    /// (the recovery ladder's retry rung and the correction-snapshot
    /// reference) into `ab_guess` and returns the window actually used. The
    /// step index is the slot's own [`step_index`](Self::step_index).
    pub(crate) fn prepare_step(
        &mut self,
        backend: &Backend,
        scratch: &mut RhsScratch,
        s: usize,
        ab_guess: &mut Vec<f64>,
    ) -> usize {
        let mask = &backend.problem.mask;
        self.load.force_into(self.time.step, &mut self.f);
        mask.project(&mut self.f);
        backend.newmark_rhs(
            &self.f,
            &self.time.u,
            &self.time.v,
            &self.time.a,
            &mut self.rhs,
            scratch,
        );
        let dt = backend.problem.newmark.dt;
        self.adams.predict(&self.time.u, dt, &mut self.guess);
        mask.project(&mut self.guess);
        ab_guess.clear();
        ab_guess.extend_from_slice(&self.guess);
        // the data-driven correction, once the history holds a window
        if s == 0 {
            return 0;
        }
        let mut corr = vec![0.0; self.guess.len()];
        if !self.dd.predict(s, &mut corr) {
            return 0;
        }
        for (g, c) in self.guess.iter_mut().zip(&corr) {
            *g += c;
        }
        mask.project(&mut self.guess);
        s.min(self.dd.available_s())
    }

    /// After solving into `u_new`: record predictor data and advance the
    /// Newmark state. `snapshot_fault` (injected) corrupts the correction
    /// snapshot before it enters the predictor history. Returns `false`
    /// when the history was poisoned and rebuilt (the caller should drop
    /// the adaptive window back to its minimum).
    pub(crate) fn advance(
        &mut self,
        backend: &Backend,
        u_new: &[f64],
        ab_guess: &[f64],
        snapshot_fault: Option<VectorFault>,
    ) -> bool {
        // correction snapshot: delta = u_true - u_adams
        let mut delta: Vec<f64> = u_new.iter().zip(ab_guess).map(|(u, g)| u - g).collect();
        if let Some(f) = snapshot_fault {
            f.apply(&mut delta);
        }
        let history_ok = self.dd.record(&delta);
        let nm = &backend.problem.newmark;
        let u_old = std::mem::replace(&mut self.time.u, u_new.to_vec());
        nm.advance(&self.time.u, &u_old, &mut self.time.v, &mut self.time.a);
        self.adams.push(&self.time.v);
        self.time.step += 1;
        history_ok
    }

    pub(crate) fn record_waveform(&mut self, obs_dofs: &[usize]) {
        for (w, &d) in self.waveform.iter_mut().zip(obs_dofs) {
            w.push(self.time.u[d]);
        }
    }

    /// Steps completed so far (the next `prepare_step` runs this index).
    pub fn step_index(&self) -> usize {
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
    pub fn available_s(&self) -> usize {
        self.dd.available_s()
    }

    /// Capture everything a checkpoint needs to rebuild this slot bitwise:
    /// seed + step count (the load regenerates from them), Newmark vectors,
    /// both predictor histories, and the recorded waveform. The `f`/`rhs`/
    /// `guess` scratch is deliberately excluded — `prepare_step` fully
    /// recomputes it before any read.
    pub fn state(&self) -> SlotState {
        SlotState {
            seed: self.seed,
            n_steps: self.n_steps,
            step: self.time.step,
            u: self.time.u.clone(),
            v: self.time.v.clone(),
            a: self.time.a.clone(),
            adams_hist: self.adams.history(),
            dd_hist: self.dd.history(),
            waveform: self.waveform.clone(),
        }
    }

    /// Rebuild a slot from a captured [`SlotState`] — the restore-side
    /// inverse of [`CaseSlot::state`]. The load is regenerated from the
    /// stored seed, so the resumed trajectory is bitwise-identical to the
    /// uninterrupted one.
    pub fn from_state(backend: &Backend, cfg: &RunConfig, st: &SlotState) -> Self {
        let mut slot = Self::with_seed(backend, cfg, st.seed, st.n_steps, st.waveform.len());
        slot.time.step = st.step;
        slot.time.u = st.u.clone();
        slot.time.v = st.v.clone();
        slot.time.a = st.a.clone();
        slot.adams.restore_history(st.adams_hist.clone());
        slot.dd.restore_history(st.dd_hist.clone());
        slot.waveform = st.waveform.clone();
        slot
    }
}
