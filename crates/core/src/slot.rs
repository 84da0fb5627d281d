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
//! keep `s_max + 1` snapshots, stored as `f32` (the guess CG refines need
//! not be exact; see `hetsolve-predictor`).
//!
//! A slot holds no RHS, no guess and no per-step buffers of its own: it is
//! state only. The set step builds the RHS of all its columns at once,
//! straight into the lanes of its packed `f`, and lends `prepare_guess`
//! and `advance` its vectors; [`CaseSlot::build_rhs`] is the same RHS one
//! column at a time into a caller's vector, for the RHS guard's recompute
//! and the convergence study.

use hetsolve_fault::VectorFault;
use hetsolve_fem::{RandomLoad, TimeState};
use hetsolve_predictor::{AdamsState, DataDrivenPredictor};
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

    /// Build this step's initial guess into `guess` (`n` long,
    /// overwritten): the Adams-Bashforth extrapolation plus the data-driven
    /// correction at window `s`, which is computed into `corr` (`n` long,
    /// overwritten). Writes the plain Adams-Bashforth guess (the recovery
    /// ladder's retry rung and the correction-snapshot reference) into
    /// `ab_guess` and returns the window actually used.
    pub(crate) fn prepare_guess(
        &self,
        backend: &Backend,
        s: usize,
        guess: &mut [f64],
        ab_guess: &mut Vec<f64>,
        corr: &mut [f64],
    ) -> usize {
        let mask = &backend.problem.mask;
        let dt = backend.problem.newmark.dt;
        self.adams.predict(&self.time.u, dt, guess);
        mask.project(guess);
        ab_guess.clear();
        ab_guess.extend_from_slice(guess);
        // the data-driven correction, once the history holds a window
        let Some(dd) = self.dd.as_ref().filter(|_| s > 0) else {
            return 0;
        };
        if !dd.predict(s, corr) {
            return 0;
        }
        for (g, c) in guess.iter_mut().zip(&*corr) {
            *g += c;
        }
        mask.project(guess);
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
        ab_guess: &[f64],
        delta: &mut [f64],
        snapshot_fault: Option<VectorFault>,
    ) -> bool {
        let history_ok = match &mut self.dd {
            Some(dd) => {
                // correction snapshot: delta = u_true - u_adams
                for ((d, u), g) in delta.iter_mut().zip(&*u_new).zip(ab_guess) {
                    *d = u - g;
                }
                if let Some(f) = snapshot_fault {
                    f.apply(delta);
                }
                dd.record(delta)
            }
            None => true,
        };
        std::mem::swap(&mut self.time.u, u_new);
        let nm = &backend.problem.newmark;
        nm.advance(&self.time.u, u_new, &mut self.time.v, &mut self.time.a);
        self.adams.push(&self.time.v);
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

    /// Capture everything a checkpoint needs to rebuild this slot bitwise:
    /// seed + step count (the load regenerates from them), Newmark vectors,
    /// both predictor histories (the data-driven one as its `f32` columns,
    /// none without a predictor), and the recorded waveform. A slot holds
    /// no per-step scratch, so nothing is left out: the RHS and guess live
    /// in the set step's packed lanes, rebuilt every step before any read.
    pub fn state(&self) -> SlotState {
        SlotState {
            seed: self.seed,
            n_steps: self.n_steps,
            step: self.time.step,
            u: self.time.u.clone(),
            v: self.time.v.clone(),
            a: self.time.a.clone(),
            adams_hist: self.adams.history(),
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
    /// uninterrupted one. `st` must fit `backend`'s mesh and `cfg`'s
    /// method: a state decoded from outside the process goes through
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
