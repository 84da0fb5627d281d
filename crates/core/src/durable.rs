//! Crash-consistent driver for any method: periodic checkpoints + resume.
//!
//! [`run_durable`] is the uninterrupted [`crate::methods::run`] driver with
//! durability wrapped around the same `RunState::step_once` loop: on
//! entry it restores the newest *valid* checkpoint from a
//! [`CheckpointStore`] (falling back past torn or corrupt files with a
//! typed [`RestoreReport`]), then advances step by step, snapshotting
//! every [`CheckpointPolicy::every`] steps with atomic temp-file + rename
//! writes. Because the resumed state is bitwise-identical to the state the
//! uninterrupted run had at that boundary, and both paths execute the same
//! `step_once`, a killed-and-resumed run produces a bitwise-identical
//! [`RunResult`] — the chaos suite's kill-at-any-step-boundary property.
//!
//! Chaos hooks: [`FaultInjector::crash_fault`] aborts the run *before* a
//! step boundary with [`RunError::Crashed`] (the injected stand-in for
//! `kill -9`), and [`FaultInjector::torn_write_fault`] truncates the
//! checkpoint that was just written, exercising the restore fallback.

use hetsolve_ckpt::{tear, CheckpointStore, RestoreReport};
use hetsolve_fault::FaultInjector;
use hetsolve_machine::{SystemClock, WallClock};

use crate::backend::Backend;
use crate::checkpoint::{ConfigFingerprint, RunCheckpoint};
use crate::methods::{RunConfig, RunCtx, RunResult, RunState};
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

/// A durable run's result plus its durability bookkeeping.
#[derive(Debug)]
pub struct DurableOutcome {
    pub result: RunResult,
    /// Step boundary the run resumed from (`None` for a fresh start).
    pub resumed_from: Option<usize>,
    /// What the restore scan saw (skips = torn-write fallback at work).
    pub restore: RestoreReport,
    /// Checkpoints written by this invocation.
    pub checkpoints_written: usize,
    /// Size of the last checkpoint written (bytes).
    pub checkpoint_bytes: usize,
    /// Real time spent writing checkpoints (s).
    pub write_s: f64,
    /// Real time spent reading + validating checkpoints on restore (s).
    pub restore_s: f64,
}

/// Run `cfg.method` crash-consistently: restore from `store` if a valid
/// checkpoint exists, then advance, snapshotting per `policy`.
///
/// Every method advances through the one resumable step driver, so any
/// of the four can be checkpointed. `cfg` (method included) is folded
/// into the stored [`ConfigFingerprint`], so a checkpoint written under a
/// different configuration is rejected typed rather than resumed
/// silently. A CRS method on a backend built without assembled matrices
/// is a typed [`RunError::Config`], as in [`crate::methods::run_faulted`].
pub fn run_durable<F: FaultInjector>(
    backend: &Backend,
    cfg: &RunConfig,
    tracer: &mut StepTracer,
    faults: &mut F,
    store: &CheckpointStore,
    policy: CheckpointPolicy,
) -> Result<DurableOutcome, RunError> {
    run_durable_clocked(
        backend,
        cfg,
        tracer,
        faults,
        store,
        policy,
        &SystemClock::new(),
    )
}

/// [`run_durable`] with an injected wall clock. The clock only feeds the
/// [`DurableOutcome`] I/O timing fields (`write_s`, `restore_s`) — it
/// never influences the solve — so a [`hetsolve_machine::ManualClock`]
/// makes those fields deterministic in tests, and the determinism lint
/// (`cargo xtask analyze`) can ban ambient `Instant` reads outright.
pub fn run_durable_clocked<F: FaultInjector, C: WallClock + ?Sized>(
    backend: &Backend,
    cfg: &RunConfig,
    tracer: &mut StepTracer,
    faults: &mut F,
    store: &CheckpointStore,
    policy: CheckpointPolicy,
    wall: &C,
) -> Result<DurableOutcome, RunError> {
    let ctx = RunCtx::new(backend, cfg)?;
    let fp = ConfigFingerprint::of(backend, cfg);

    let t0 = wall.now();
    let (found, restore) =
        store.load_latest_valid(|_seq, bytes| RunCheckpoint::from_bytes(bytes, fp));
    let restore_s = wall.now() - t0;
    let (mut st, resumed_from) = match found {
        Some((_seq, snap)) => {
            let step = snap.step;
            (snap.into_state(backend, cfg), Some(step))
        }
        None => (RunState::new(backend, cfg), None),
    };
    if let Some(step) = resumed_from {
        let skipped = restore.skipped.len();
        tracer.flight_event(
            st.clock.elapsed(),
            "ckpt_restore",
            Some(step as u64),
            format!("resumed from step {step}, {skipped} invalid checkpoint(s) skipped"),
        );
        if let Some(reg) = tracer.registry_mut() {
            reg.inc("core_ckpt_restores_total", 1.0);
        }
    }

    tracer.begin_run(cfg.method.label(), cfg, ctx.sets());
    tracer.attach_clock(&mut st.clock);
    let mut checkpoints_written = 0;
    let mut checkpoint_bytes = 0;
    let mut write_s = 0.0;

    loop {
        if faults.crash_fault(st.step) {
            // black-box behavior: the last thing the recorder sees is the
            // crash itself, then the ring hits disk (best-effort — a dump
            // failure must not mask the crash error)
            tracer.flight_event(
                st.clock.elapsed(),
                "crash",
                Some(st.step as u64),
                "injected crash_fault at step boundary",
            );
            let _ = tracer.dump_flight("crash");
            return Err(RunError::Crashed { step: st.step });
        }
        if st.step >= cfg.n_steps {
            break;
        }
        let corruptions_before = st.corruptions.len();
        if let Err(e) = st.step_once(backend, cfg, tracer, faults, &ctx) {
            tracer.flight_event(
                st.clock.elapsed(),
                "run_error",
                Some(st.step as u64),
                format!("{e}"),
            );
            let _ = tracer.dump_flight("run_error");
            return Err(e);
        }
        // every report appended by step_once is a detection that was also
        // recovered in place (unrecoverable corruption returns Err above)
        for rep in &st.corruptions[corruptions_before..] {
            tracer.flight_event(
                st.clock.elapsed(),
                "sdc_recovered",
                Some(rep.step as u64),
                format!("{rep}"),
            );
            if let Some(reg) = tracer.registry_mut() {
                reg.inc("core_sdc_detected_total", 1.0);
                reg.inc("core_sdc_recovered_total", 1.0);
            }
        }
        if policy.every > 0 && st.step % policy.every == 0 && st.step < cfg.n_steps {
            let bytes = RunCheckpoint::capture(&st, fp).to_bytes();
            let seq = st.step as u64;
            let tw = wall.now();
            let path = store.save(seq, &bytes).map_err(|e| RunError::Checkpoint {
                message: e.to_string(),
            })?;
            write_s += wall.now() - tw;
            checkpoints_written += 1;
            checkpoint_bytes = bytes.len();
            tracer.flight_event(
                st.clock.elapsed(),
                "ckpt_write",
                Some(seq),
                format!("{} bytes", bytes.len()),
            );
            if let Some(reg) = tracer.registry_mut() {
                reg.inc("core_ckpt_writes_total", 1.0);
            }
            if let Some(t) = faults.torn_write_fault(seq) {
                tear(&path, t.keep_frac).map_err(|e| RunError::Checkpoint {
                    message: format!("injected tear failed: {e}"),
                })?;
            }
        }
    }

    let result = st.into_result(cfg);
    tracer.finish_run(&result, cfg.measure_from);
    Ok(DurableOutcome {
        result,
        resumed_from,
        restore,
        checkpoints_written,
        checkpoint_bytes,
        write_s,
        restore_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodKind;
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

    #[test]
    fn fresh_durable_run_matches_plain_run() {
        let (backend, cfg) = small();
        let store = tmp_store("fresh");
        let out = run_durable(
            &backend,
            &cfg,
            &mut StepTracer::disabled(),
            &mut hetsolve_fault::NoopFaults,
            &store,
            CheckpointPolicy { every: 2, keep: 3 },
        )
        .unwrap();
        assert!(out.resumed_from.is_none());
        assert!(out.restore.clean());
        assert_eq!(out.checkpoints_written, 2, "steps 2 and 4 of 6");
        let plain = crate::methods::run(&backend, &cfg).unwrap();
        assert_eq!(out.result.final_u, plain.final_u, "bitwise-equal to run()");
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn crash_then_resume_is_bitwise_identical() {
        let (backend, cfg) = small();
        let store = tmp_store("resume");
        let mut plan = hetsolve_fault::FaultPlan::new(7).crash_at(5);
        let policy = CheckpointPolicy { every: 2, keep: 3 };
        let err = run_durable(
            &backend,
            &cfg,
            &mut StepTracer::disabled(),
            &mut plan,
            &store,
            policy,
        )
        .unwrap_err();
        assert_eq!(err, RunError::Crashed { step: 5 });
        // same plan instance: the crash is spent, the resume sails through
        let out = run_durable(
            &backend,
            &cfg,
            &mut StepTracer::disabled(),
            &mut plan,
            &store,
            policy,
        )
        .unwrap();
        assert_eq!(out.resumed_from, Some(4));
        let plain = crate::methods::run(&backend, &cfg).unwrap();
        assert_eq!(out.result.final_u, plain.final_u);
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
        let out = run_durable_clocked(
            &backend,
            &cfg,
            &mut StepTracer::disabled(),
            &mut hetsolve_fault::NoopFaults,
            &store,
            CheckpointPolicy { every: 2, keep: 3 },
            &clock,
        )
        .unwrap();
        assert_eq!(out.restore_s, 0.0, "clock never advanced");
        assert_eq!(out.write_s, 0.0);
        assert_eq!(out.checkpoints_written, 2);
        std::fs::remove_dir_all(store.dir()).unwrap();
    }
}
