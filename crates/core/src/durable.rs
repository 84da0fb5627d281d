//! Crash consistency for any method: periodic checkpoints + resume.
//!
//! A run handed a store ([`Hooks::durable`](crate::methods::Hooks::durable))
//! is the plain step loop of [`run_with`](crate::methods::run_with) plus
//! this module: on entry it restores the newest *valid* checkpoint of the
//! [`CheckpointStore`] (falling back past torn or corrupt files with a
//! typed [`RestoreReport`]), and every [`CheckpointPolicy::every`] steps it
//! snapshots with atomic temp-file + rename writes — where a planned torn
//! write truncates the file just written. The resumed state is the state
//! the uninterrupted run had at that boundary and both run the same
//! `step_once`, so a killed-and-resumed run's result is bitwise-identical:
//! the chaos suite's kill-at-any-step-boundary property.

use hetsolve_ckpt::{tear, CheckpointStore, RestoreReport};
use hetsolve_fault::{FaultKind, FaultPlan, FaultSite};
use hetsolve_machine::WallClock;

use hetsolve_obs::names;

use crate::backend::Backend;
use crate::checkpoint::{ConfigFingerprint, RunCheckpoint};
use crate::methods::{RunConfig, RunState};
use crate::recovery::RunError;
use crate::trace::StepTracer;

/// When to snapshot and how much history to retain.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointPolicy {
    /// Snapshot every `every` completed steps (0 disables writing —
    /// restore-only mode). The final step is not snapshotted; the run
    /// result itself is the durable artifact at that point.
    pub every: usize,
    /// Checkpoints retained on disk (clamped to ≥ 2 by the store so the
    /// torn-latest fallback always has an older file).
    pub keep: usize,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy { every: 4, keep: 3 }
    }
}

/// A durable run's bookkeeping, in [`RunResult::durable`](crate::methods::RunResult::durable).
#[derive(Debug, Clone)]
pub struct DurableOutcome {
    /// Step boundary the run resumed from (`None` for a fresh start).
    pub resumed_from: Option<usize>,
    /// What the restore scan saw (skips = torn-write fallback at work).
    pub restore: RestoreReport,
    /// Checkpoints written by this invocation.
    pub checkpoints_written: usize,
    /// Size of the last checkpoint written (bytes).
    pub checkpoint_bytes: usize,
    /// Wall time spent writing checkpoints (s).
    pub write_s: f64,
    /// Wall time spent reading + validating checkpoints on restore (s).
    pub restore_s: f64,
}

/// The checkpoint side of one run given a store. `cfg` (method included)
/// is folded into the stored [`ConfigFingerprint`], so a checkpoint
/// written under a different configuration is rejected typed rather than
/// resumed silently.
pub(crate) struct Durable<'s> {
    store: &'s CheckpointStore,
    policy: CheckpointPolicy,
    fingerprint: ConfigFingerprint,
    pub(crate) outcome: DurableOutcome,
}

impl<'s> Durable<'s> {
    /// Scan `store` for the newest valid checkpoint; the state to resume
    /// from, if one validates.
    pub(crate) fn open(
        store: &'s CheckpointStore,
        policy: CheckpointPolicy,
        backend: &Backend,
        cfg: &RunConfig,
        wall: &dyn WallClock,
        tracer: &mut StepTracer,
    ) -> (Self, Option<RunState>) {
        let fingerprint = ConfigFingerprint::of(backend, cfg);
        let t0 = wall.now();
        // a snapshot whose slots do not fit the mesh is skipped like any
        // other corrupt file
        let (found, restore) = store.load_latest_valid(|_seq, bytes| {
            RunCheckpoint::from_bytes(bytes, fingerprint)?.into_state(backend, cfg)
        });
        let restore_s = wall.now() - t0;
        let st = found.map(|(_, st)| st);
        let resumed_from = st.as_ref().map(|st| st.step);
        if resumed_from.is_some() {
            if let Some(reg) = tracer.registry_mut() {
                reg.inc(names::CORE_CKPT_RESTORES_TOTAL, 1.0);
            }
        }
        let outcome = DurableOutcome {
            resumed_from,
            restore,
            checkpoints_written: 0,
            checkpoint_bytes: 0,
            write_s: 0.0,
            restore_s,
        };
        let durable = Durable {
            store,
            policy,
            fingerprint,
            outcome,
        };
        (durable, st)
    }

    /// Snapshot the boundary `st` just reached if the policy says so, then
    /// tear the file just written if the plan says so.
    pub(crate) fn after_step(
        &mut self,
        st: &RunState,
        cfg: &RunConfig,
        faults: &mut FaultPlan,
        wall: &dyn WallClock,
        tracer: &mut StepTracer,
    ) -> Result<(), RunError> {
        let every = self.policy.every;
        if every == 0 || !st.step.is_multiple_of(every) || st.step >= cfg.n_steps {
            return Ok(());
        }
        let bytes = RunCheckpoint::capture(st, self.fingerprint).to_bytes();
        let seq = st.step as u64;
        let tw = wall.now();
        let path = self
            .store
            .save(seq, &bytes)
            .map_err(|e| RunError::Checkpoint {
                message: e.to_string(),
            })?;
        self.outcome.write_s += wall.now() - tw;
        self.outcome.checkpoints_written += 1;
        self.outcome.checkpoint_bytes = bytes.len();
        if let Some(reg) = tracer.registry_mut() {
            reg.inc(names::CORE_CKPT_WRITES_TOTAL, 1.0);
        }
        if let Some(FaultKind::TornWrite { keep_frac }) =
            faults.inject(FaultSite::TornWrite { seq })
        {
            tear(&path, keep_frac).map_err(|e| RunError::Checkpoint {
                message: format!("injected tear failed: {e}"),
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{run, run_with, Hooks, MethodKind};
    use hetsolve_fem::FemProblem;
    use hetsolve_machine::single_gh200;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    fn small() -> (Backend, RunConfig) {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        let backend = Backend::new(FemProblem::paper_like(&spec), true, false);
        let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), 6);
        cfg.r = 2;
        cfg.s_max = 4;
        cfg.region_dofs = 64;
        (backend, cfg)
    }

    fn tmp_store(name: &str) -> CheckpointStore {
        let dir = std::env::temp_dir().join(format!("hs-durable-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        CheckpointStore::new(dir, 3).unwrap()
    }

    const POLICY: CheckpointPolicy = CheckpointPolicy { every: 2, keep: 3 };

    #[test]
    fn fresh_durable_run_matches_plain_run() {
        let (backend, cfg) = small();
        let store = tmp_store("fresh");
        let out = run_with(&backend, &cfg, Hooks::default().durable(&store, POLICY)).unwrap();
        let d = out.durable.as_ref().expect("run with a store");
        assert!(d.resumed_from.is_none());
        assert!(d.restore.clean());
        assert_eq!(d.checkpoints_written, 2, "steps 2 and 4 of 6");
        let plain = run(&backend, &cfg).unwrap();
        assert!(plain.durable.is_none());
        assert_eq!(out.final_u, plain.final_u, "bitwise-equal to run()");
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn crash_then_resume_is_bitwise_identical() {
        let (backend, cfg) = small();
        let store = tmp_store("resume");
        let mut plan = FaultPlan::new(7).crash_at(5);
        let err = run_with(
            &backend,
            &cfg,
            Hooks::default().faults(&mut plan).durable(&store, POLICY),
        )
        .unwrap_err();
        assert_eq!(err, RunError::Crashed { step: 5 });
        // same plan instance: the crash is spent, the resume sails through
        let out = run_with(
            &backend,
            &cfg,
            Hooks::default().faults(&mut plan).durable(&store, POLICY),
        )
        .unwrap();
        assert_eq!(out.durable.unwrap().resumed_from, Some(4));
        let plain = run(&backend, &cfg).unwrap();
        assert_eq!(out.final_u, plain.final_u);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    /// With an injected manual clock the I/O timing fields are exactly
    /// what the clock says — durable runs read no ambient time at all.
    #[test]
    fn manual_clock_makes_io_timings_deterministic() {
        let (backend, cfg) = small();
        let store = tmp_store("manual-clock");
        let clock = hetsolve_machine::ManualClock::new();
        clock.set(100.0);
        let hooks = Hooks::default().wall(&clock).durable(&store, POLICY);
        let d = run_with(&backend, &cfg, hooks).unwrap().durable.unwrap();
        assert_eq!(d.restore_s, 0.0, "clock never advanced");
        assert_eq!(d.write_s, 0.0);
        assert_eq!(d.checkpoints_written, 2);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    /// Without a store a planned crash still stops the run at its
    /// boundary: the crash check is the step loop's, not the store's.
    #[test]
    fn planned_crash_without_a_store_is_typed() {
        let (backend, cfg) = small();
        let mut plan = FaultPlan::new(7).crash_at(3);
        let err = run_with(&backend, &cfg, Hooks::default().faults(&mut plan)).unwrap_err();
        assert_eq!(err, RunError::Crashed { step: 3 });
        assert!(plan.all_fired());
    }
}
