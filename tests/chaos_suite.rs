//! The crash-consistency acceptance suite (DESIGN.md §12): a run of any
//! method killed at *any* step boundary and resumed from its latest
//! checkpoint must
//! produce a bitwise-identical `RunResult`; a torn latest checkpoint must
//! fall back to the previous good one with a typed, non-panicking report;
//! and the serve-layer snapshot must restore a server whose counters and
//! results continue exactly where the saved run left off.

use hetsolve::ckpt::{CheckpointStore, CkptError, SectionWriter, MAGIC};
use hetsolve::core::{
    run, run_durable, run_ensemble_durable, CheckpointPolicy, RunError, StepTracer,
};
use hetsolve::fault::FaultLane;
use hetsolve::fem::FemProblem;
use hetsolve::machine::ManualClock;
use hetsolve::prelude::*;
use hetsolve::serve::{
    AutoscaleConfig, ClusterConfig, ClusterServer, EnsembleServer, EvictReason, QosConfig,
    RequestId, RequestState, ScaleDirection, ServeConfig, ServerCheckpoint, SolveRequest, TenantId,
    TenantQuota, WatchdogAction, WatchdogConfig,
};

fn backend() -> Backend {
    let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
    Backend::new(FemProblem::paper_like(&spec), true, false)
}

/// Every method goes through the one resumable step driver, so every
/// durability property below is asserted for all four.
const METHODS: [MethodKind; 4] = [
    MethodKind::CrsCgCpu,
    MethodKind::CrsCgGpu,
    MethodKind::CrsCgCpuGpu,
    MethodKind::EbeMcgCpuGpu,
];

fn config(steps: usize) -> RunConfig {
    config_for(MethodKind::EbeMcgCpuGpu, steps)
}

fn config_for(method: MethodKind, steps: usize) -> RunConfig {
    let mut cfg = RunConfig::new(method, single_gh200(), steps);
    cfg.r = 2;
    cfg.s_max = 4;
    cfg.region_dofs = 64;
    cfg.load = RandomLoadSpec {
        n_sources: 4,
        impulses_per_source: 2.0,
        amplitude: 1e6,
        active_window: 0.2,
    };
    cfg
}

fn tmp_store(name: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("hs-chaos-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir, 3).unwrap()
}

fn assert_bitwise_eq(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: case count");
    for (case, (ua, ub)) in a.iter().zip(b).enumerate() {
        assert_eq!(ua.len(), ub.len(), "{what}: case {case} length");
        for (i, (&p, &q)) in ua.iter().zip(ub).enumerate() {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{what}: case {case} dof {i}: {p:e} != {q:e}"
            );
        }
    }
}

/// The tentpole property: kill the run at *every* step boundary in turn;
/// each resumed run must be bitwise-identical to the uninterrupted one —
/// displacements, waveforms, step records, and recovery log alike.
#[test]
fn kill_at_any_step_boundary_resumes_bitwise_identical() {
    let b = backend();
    for method in METHODS {
        let cfg = config_for(method, 6);
        let plain = run(&b, &cfg).expect("uninterrupted baseline");
        let policy = CheckpointPolicy { every: 2, keep: 3 };

        for boundary in 0..cfg.n_steps {
            let store = tmp_store(&format!("kill-{}-{boundary}", method.label()));
            let mut plan = FaultPlan::new(7).crash_at(boundary);
            let err = run_durable(
                &b,
                &cfg,
                &mut StepTracer::disabled(),
                &mut plan,
                &store,
                policy,
            )
            .unwrap_err();
            assert_eq!(
                err,
                RunError::Crashed { step: boundary },
                "crash is a typed error, not a panic"
            );
            assert!(plan.all_fired(), "boundary {boundary}: crash never fired");

            // resume with the same (now spent) plan: restores the newest
            // checkpoint at or before the kill point and runs to completion
            let out = run_durable(
                &b,
                &cfg,
                &mut StepTracer::disabled(),
                &mut plan,
                &store,
                policy,
            )
            .unwrap_or_else(|e| panic!("boundary {boundary}: resume failed: {e}"));
            assert!(out.restore.clean(), "boundary {boundary}: {}", out.restore);
            assert_eq!(
                out.resumed_from,
                if boundary < policy.every {
                    None
                } else {
                    Some(boundary - boundary % policy.every)
                },
                "boundary {boundary}: wrong resume point"
            );
            assert_bitwise_eq(
                &out.result.final_u,
                &plain.final_u,
                &format!("{method:?} boundary {boundary}: final_u"),
            );
            for (case, (wa, wb)) in out
                .result
                .waveforms
                .iter()
                .zip(&plain.waveforms)
                .enumerate()
            {
                assert_bitwise_eq(
                    wa,
                    wb,
                    &format!("boundary {boundary}: waveform case {case}"),
                );
            }
            assert_eq!(
                out.result.records, plain.records,
                "boundary {boundary}: step records diverged"
            );
            assert_eq!(out.result.recoveries, plain.recoveries);
            std::fs::remove_dir_all(store.dir()).unwrap();
        }
    }
}

/// Acceptance criterion: a torn *latest* checkpoint is skipped with a
/// typed report and the run resumes from the previous good one — still
/// bitwise-identical, never a panic.
#[test]
fn torn_latest_checkpoint_falls_back_typed_and_stays_bitwise() {
    let b = backend();
    for method in METHODS {
        let cfg = config_for(method, 6);
        let plain = run(&b, &cfg).expect("baseline");
        let store = tmp_store(&format!("torn-{}", method.label()));
        let policy = CheckpointPolicy { every: 2, keep: 3 };

        // crash at step 5 after tearing the seq-4 checkpoint mid-write
        let mut plan = FaultPlan::new(11).tear_checkpoint(4, 0.5).crash_at(5);
        let err = run_durable(
            &b,
            &cfg,
            &mut StepTracer::disabled(),
            &mut plan,
            &store,
            policy,
        )
        .unwrap_err();
        assert_eq!(err, RunError::Crashed { step: 5 });
        assert!(plan.all_fired());

        let out = run_durable(
            &b,
            &cfg,
            &mut StepTracer::disabled(),
            &mut plan,
            &store,
            policy,
        )
        .expect("resume past the torn file");
        assert_eq!(out.resumed_from, Some(2), "fell back to the seq-2 snapshot");
        assert!(!out.restore.clean(), "the skip must be reported");
        assert_eq!(out.restore.skipped.len(), 1);
        assert_eq!(out.restore.skipped[0].seq, 4);
        assert_eq!(out.restore.skipped[0].error, CkptError::Truncated);
        assert_bitwise_eq(
            &out.result.final_u,
            &plain.final_u,
            &format!("{method:?} torn fallback"),
        );
        std::fs::remove_dir_all(store.dir()).unwrap();
    }
}

/// `run_ensemble_durable` honours the configured method: with a CRS
/// method it runs the same batches as `run_ensemble` (one case each, not
/// EBE-MCG's fused 2r) and returns bitwise-equal waveforms — and a
/// re-invocation on the same directory after the batches finished changes
/// nothing.
#[test]
fn durable_ensemble_runs_the_configured_method_bitwise() {
    let b = backend();
    let mut cfg = EnsembleConfig::new(single_gh200(), 3, 6).expect("valid config");
    cfg.run = config_for(MethodKind::CrsCgCpu, 6);
    let (plain, plain_runs) = run_ensemble(&b, &cfg).expect("ensemble");
    assert_eq!(plain_runs.len(), 3, "CRS-CG@CPU advances one case per run");

    let dir = std::env::temp_dir().join("hs-chaos-ensemble-crs");
    let _ = std::fs::remove_dir_all(&dir);
    let policy = CheckpointPolicy { every: 2, keep: 3 };
    let (durable, outcomes) = run_ensemble_durable(&b, &cfg, &dir, policy).expect("durable");
    assert_eq!(
        outcomes.len(),
        plain_runs.len(),
        "same batches, same method"
    );
    for (out, plain_run) in outcomes.iter().zip(&plain_runs) {
        assert_eq!(out.result.method, MethodKind::CrsCgCpu);
        assert_eq!(out.result.records, plain_run.records);
        assert_eq!(out.checkpoints_written, 2, "steps 2 and 4 of 6");
    }
    assert_eq!(durable.waveforms.len(), 3);
    for (case, (wd, wp)) in durable.waveforms.iter().zip(&plain.waveforms).enumerate() {
        assert_bitwise_eq(wd, wp, &format!("ensemble case {case}"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint written under a different configuration is rejected typed
/// (fingerprint mismatch → `Corrupt`), and the scan falls back rather
/// than resuming the wrong simulation.
#[test]
fn checkpoint_from_other_config_is_rejected_not_resumed() {
    let b = backend();
    let store = tmp_store("fingerprint");
    let policy = CheckpointPolicy { every: 2, keep: 3 };
    run_durable(
        &b,
        &config(6),
        &mut StepTracer::disabled(),
        &mut NoopFaults,
        &store,
        policy,
    )
    .expect("seed the store under config A");

    // same store, different seed: every stored snapshot is foreign
    let mut other = config(6);
    other.seed = 999;
    let out = run_durable(
        &b,
        &other,
        &mut StepTracer::disabled(),
        &mut NoopFaults,
        &store,
        policy,
    )
    .expect("run under config B");
    assert!(
        out.resumed_from.is_none(),
        "must not resume a foreign snapshot"
    );
    assert_eq!(out.restore.skipped.len(), out.restore.scanned);
    assert!(out
        .restore
        .skipped
        .iter()
        .all(|s| matches!(s.error, CkptError::Corrupt(_))));
    let plain = run(&b, &other).expect("plain run under config B");
    assert_bitwise_eq(&out.result.final_u, &plain.final_u, "foreign-store run");
    std::fs::remove_dir_all(store.dir()).unwrap();
}

/// Format evolution stays append-only: a v1 file carrying an extra,
/// unknown section still restores (readers look tags up by name), and a
/// file with a wholly foreign layout fails typed.
#[test]
fn format_tolerates_unknown_sections_and_rejects_foreign_files() {
    let b = backend();
    let cfg = config(4);
    let store = tmp_store("format");
    run_durable(
        &b,
        &cfg,
        &mut StepTracer::disabled(),
        &mut NoopFaults,
        &store,
        CheckpointPolicy { every: 2, keep: 3 },
    )
    .expect("seed one checkpoint");
    let (seq, path) = store.latest().unwrap().expect("a checkpoint exists");

    // splice an unknown section in front of the END marker
    let bytes = std::fs::read(&path).unwrap();
    let mut w = SectionWriter::new();
    let end_len = 4 + 8 + 4; // END tag + len + crc
    w.section(*b"XTRA", b"future extension payload");
    let mut extended = bytes[..bytes.len() - end_len].to_vec();
    extended.extend_from_slice(&w.finish()[MAGIC.len() + 4..]);
    std::fs::write(store.path_for(seq + 2), &extended).unwrap();

    let out = run_durable(
        &b,
        &cfg,
        &mut StepTracer::disabled(),
        &mut NoopFaults,
        &store,
        CheckpointPolicy { every: 0, keep: 3 },
    )
    .expect("restore from the extended file");
    assert_eq!(out.resumed_from, Some(2));
    assert!(out.restore.clean(), "{}", out.restore);

    // a non-checkpoint file in the newest slot fails typed and falls back
    std::fs::write(store.path_for(seq + 4), b"not a checkpoint at all").unwrap();
    let out = run_durable(
        &b,
        &cfg,
        &mut StepTracer::disabled(),
        &mut NoopFaults,
        &store,
        CheckpointPolicy { every: 0, keep: 5 },
    )
    .expect("fall back past the foreign file");
    assert_eq!(out.restore.skipped.len(), 1);
    assert_eq!(out.restore.skipped[0].error, CkptError::BadMagic);
    assert_eq!(out.resumed_from, Some(2));
    std::fs::remove_dir_all(store.dir()).unwrap();
}

fn serve_cfg(r: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run.r = r;
    cfg.run.s_max = 4;
    cfg.run.region_dofs = 64;
    cfg.run.load = RandomLoadSpec {
        n_sources: 4,
        impulses_per_source: 2.0,
        amplitude: 1e6,
        active_window: 0.2,
    };
    cfg
}

/// Serve-layer round trip: checkpoint a mid-flight server, restore it,
/// and finish both. The restored server's counters resume (not reset) and
/// every request finishes with bitwise-identical results on an identical
/// modeled timeline.
#[test]
fn server_checkpoint_restores_counters_and_results_bitwise() {
    let backend = backend();
    let cfg = serve_cfg(2);
    let mut server = EnsembleServer::new(&backend, cfg.clone());
    let ids: Vec<_> = (0..5)
        .map(|c| {
            server
                .admit(SolveRequest::new(100 + c, 6).with_priority(c as u8))
                .expect("admit")
        })
        .collect();
    // drive a recovery event through the ladder so the log is non-empty
    // at snapshot time, then tick to a mid-flight boundary
    for _ in 0..3 {
        server.tick();
    }
    let ck = server.checkpoint();
    let bytes = ck.to_bytes();
    assert!(server.in_flight() > 0, "snapshot must be mid-flight");

    // corrupting any byte of the image is caught by a section CRC
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    assert!(
        ServerCheckpoint::from_bytes(&flipped, ck.fingerprint).is_err(),
        "bit flip must not parse"
    );

    let mut restored =
        EnsembleServer::restore(&backend, cfg.clone(), &bytes).expect("restore server");
    assert_eq!(restored.ticks(), server.ticks());
    assert_eq!(restored.queue_depth(), server.queue_depth());
    assert_eq!(restored.in_flight(), server.in_flight());
    assert_eq!(
        restored.elapsed().to_bits(),
        server.elapsed().to_bits(),
        "modeled clock must restore bitwise"
    );
    // counters resume where the saved run left off — they must not reset
    assert_eq!(
        restored.stats().queue_depth_samples(),
        server.stats().queue_depth_samples()
    );
    assert_eq!(restored.stats().completed(), server.stats().completed());
    assert_eq!(restored.stats().evicted(), server.stats().evicted());
    assert_eq!(restored.recoveries(), server.recoveries());

    server.run_until_idle();
    restored.run_until_idle();
    assert_eq!(restored.ticks(), server.ticks(), "same tick count to idle");
    assert_eq!(restored.elapsed().to_bits(), server.elapsed().to_bits());
    for &id in &ids {
        assert_eq!(server.record(id).state, RequestState::Done);
        assert_eq!(restored.record(id).state, RequestState::Done);
        let a = server.result(id).expect("original result");
        let b = restored.result(id).expect("restored result");
        assert_bitwise_eq(&[a.to_vec()], &[b.to_vec()], &format!("request {}", id.0));
    }
    assert_eq!(
        restored.stats().completed(),
        server.stats().completed(),
        "completion counter continued from the snapshot"
    );
}

/// A torn latest *server* checkpoint falls back to the previous good one
/// through the same store scan the run driver uses.
#[test]
fn torn_server_checkpoint_falls_back_to_previous() {
    let backend = backend();
    let cfg = serve_cfg(2);
    let store = tmp_store("serve-torn");
    let mut server = EnsembleServer::new(&backend, cfg.clone());
    for c in 0..4 {
        server.admit(SolveRequest::new(300 + c, 6)).expect("admit");
    }
    server.tick();
    server.save_checkpoint(&store).expect("save at tick 1");
    server.tick();
    server.save_checkpoint(&store).expect("save at tick 2");
    hetsolve::ckpt::tear(&store.path_for(2), 0.4).expect("tear the newest");

    let (found, report) = EnsembleServer::restore_latest(&backend, cfg.clone(), NoopFaults, &store);
    let (seq, mut restored) = found.expect("fallback restore");
    assert_eq!(seq, 1, "fell back to the tick-1 snapshot");
    assert_eq!(report.skipped.len(), 1);
    assert_eq!(report.skipped[0].error, CkptError::Truncated);

    // the fallback server replays from tick 1 to the same final bits
    server.run_until_idle();
    restored.run_until_idle();
    assert_eq!(restored.elapsed().to_bits(), server.elapsed().to_bits());
    for id in 0..4u64 {
        let a = server.result(hetsolve::serve::RequestId(id)).unwrap();
        let b = restored.result(hetsolve::serve::RequestId(id)).unwrap();
        assert_bitwise_eq(&[a.to_vec()], &[b.to_vec()], &format!("request {id}"));
    }
    std::fs::remove_dir_all(store.dir()).unwrap();
}

/// Telemetry v2 acceptance: kill a serving run with `crash_at` while a
/// lane is mid-flight (with a watchdog rung already climbed) and the
/// flight dump must contain the full causal chain — admission → last
/// step → watchdog rung → crash — for every request still in flight.
#[test]
fn crash_flight_dump_carries_the_full_causal_chain() {
    let backend = backend();
    let mut cfg = serve_cfg(2);
    cfg.watchdog = Some(WatchdogConfig {
        step_deadline_s: 0.05,
        max_retries: 2,
        backoff_base_s: 1e-3,
        backoff_factor: 2.0,
    });
    cfg.checkpoint_every = 1;
    let dump_path = std::env::temp_dir().join("hs-chaos-flight-dump.json");
    let _ = std::fs::remove_file(&dump_path);
    cfg.flight_dump = Some(dump_path.clone());

    // tick 1 stalls lane 0 (one watchdog breach), tick 3 is the kill
    let plan = FaultPlan::new(23)
        .stall_lane(1, 0, FaultLane::Gpu, 1.0)
        .crash_at(3);
    let mut server = EnsembleServer::with_faults(&backend, cfg, plan);
    let ids: Vec<_> = (0..4)
        .map(|c| {
            server
                .admit(SolveRequest::new(600 + c, 10).with_priority(c as u8))
                .expect("admit")
        })
        .collect();
    server.run_until_idle();
    assert!(server.crashed(), "the injected crash must stop the server");
    assert!(server.in_flight() > 0, "work must still be in flight");

    let text = std::fs::read_to_string(&dump_path).expect("flight dump written");
    let dump = hetsolve::obs::parse_json(&text).expect("dump parses");
    assert_eq!(
        dump.get("schema").and_then(|s| s.as_str()),
        Some(hetsolve::obs::FLIGHT_SCHEMA)
    );
    assert_eq!(dump.get("trigger").and_then(|s| s.as_str()), Some("crash"));
    let events = dump.get("events").expect("events array").items();
    assert!(!events.is_empty());
    let kind_of =
        |e: &hetsolve::obs::Json| e.get("kind").and_then(|k| k.as_str()).unwrap().to_string();
    let request_of =
        |e: &hetsolve::obs::Json| e.get("request").and_then(|r| r.as_f64()).map(|r| r as u64);
    assert_eq!(
        kind_of(events.last().unwrap()),
        "crash",
        "the crash itself is the last thing the black box saw"
    );
    assert!(
        events.iter().any(|e| kind_of(e) == "watchdog_breach"),
        "the watchdog rung must be in the window"
    );
    // sequence numbers are strictly increasing — the chain is ordered
    let seqs: Vec<f64> = events
        .iter()
        .map(|e| e.get("seq").and_then(|s| s.as_f64()).unwrap())
        .collect();
    assert!(seqs.windows(2).all(|w| w[1] > w[0]), "{seqs:?}");

    for &id in &ids {
        let state = server.record(id).state;
        if !matches!(state, RequestState::Batched | RequestState::Solving) {
            continue;
        }
        let chain: Vec<String> = events
            .iter()
            .filter(|e| request_of(e) == Some(id.0))
            .map(kind_of)
            .collect();
        assert_eq!(
            chain.first().map(String::as_str),
            Some("admitted"),
            "request {id}: chain must start at admission, got {chain:?}"
        );
        assert!(
            chain.iter().any(|k| k == "batched"),
            "request {id}: no batching hop in {chain:?}"
        );
        assert!(
            chain.iter().any(|k| k == "step"),
            "request {id}: no step events before the crash in {chain:?}"
        );
    }
    std::fs::remove_file(&dump_path).unwrap();
}

/// The flight ring itself is checkpointed state: a restored server
/// remembers the events recorded before the snapshot, continues the
/// sequence numbering, and notes the restore itself in the ring.
#[test]
fn flight_ring_survives_server_checkpoint_restore() {
    let backend = backend();
    let cfg = serve_cfg(2);
    let mut server = EnsembleServer::new(&backend, cfg.clone());
    for c in 0..3 {
        server.admit(SolveRequest::new(800 + c, 5)).expect("admit");
    }
    for _ in 0..2 {
        server.tick();
    }
    let before: Vec<_> = server.flight().events().cloned().collect();
    let next_seq = server.flight().next_seq();
    assert!(!before.is_empty(), "admissions and steps were recorded");

    let bytes = server.checkpoint().to_bytes();
    let restored = EnsembleServer::restore(&backend, cfg, &bytes).expect("restore");
    let after: Vec<_> = restored.flight().events().cloned().collect();
    assert_eq!(
        &after[..before.len()],
        &before[..],
        "pre-snapshot events survive the round trip"
    );
    assert_eq!(
        after.last().map(|e| e.kind.as_str()),
        Some("restored"),
        "the restore itself lands in the ring"
    );
    assert_eq!(
        restored.flight().next_seq(),
        next_seq + 1,
        "sequence numbering continues (restore appended one event)"
    );
}

/// The watchdog escalation ladder, driven deterministically: consecutive
/// injected lane stalls walk retry-with-backoff → restart-from-checkpoint
/// → evict-with-`EvictReason::Watchdog`, and a healthy step resets the
/// breach counter.
#[test]
fn watchdog_ladder_escalates_retry_restart_evict() {
    let backend = backend();
    let mut cfg = serve_cfg(2);
    cfg.watchdog = Some(WatchdogConfig {
        step_deadline_s: 0.05,
        max_retries: 2,
        backoff_base_s: 1e-3,
        backoff_factor: 2.0,
    });
    cfg.checkpoint_every = 1;
    // four consecutive stalls on lane 0: breaches 1, 2 (retries), 3
    // (restart), 4 (evict)
    let mut plan = FaultPlan::new(31);
    for tick in 0..4 {
        plan = plan.stall_lane(tick, 0, FaultLane::Gpu, 1.0);
    }
    let mut server = EnsembleServer::with_faults(&backend, cfg, plan);
    server.set_wall_clock(Box::new(ManualClock::new()));
    let victim = server
        .admit(SolveRequest::new(777, 12))
        .expect("admit the victim");
    for _ in 0..6 {
        server.tick();
    }

    let actions: Vec<&'static str> = server
        .watchdog_events()
        .iter()
        .map(|e| e.action.label())
        .collect();
    assert_eq!(
        actions,
        vec!["retry", "retry", "restart_lane", "evict_lane"],
        "ladder order: {:?}",
        server.watchdog_events()
    );
    let events = server.watchdog_events();
    assert_eq!(events[0].breach, 1);
    assert!(matches!(
        events[0].action,
        WatchdogAction::Retry { backoff_s } if backoff_s == 1e-3
    ));
    assert!(matches!(
        events[1].action,
        WatchdogAction::Retry { backoff_s } if backoff_s == 2e-3
    ));
    assert!(matches!(
        events[2].action,
        WatchdogAction::RestartLane { restored: 1 }
    ));
    assert!(matches!(
        events[3].action,
        WatchdogAction::EvictLane { evicted: 1 }
    ));
    assert!(
        events.iter().all(|e| e.overrun_s > 0.0 && e.wall_s == 0.0),
        "manual wall clock stamps deterministically"
    );

    let rec = server.record(victim);
    assert_eq!(rec.state, RequestState::Evicted);
    assert_eq!(rec.evict_reason, Some(EvictReason::Watchdog));
    assert_eq!(server.stats().watchdog_breaches(), 4);
    assert_eq!(server.stats().watchdog_restarts(), 1);
    assert_eq!(server.stats().evicted(), 1);
    assert_eq!(
        server.watchdog_events().len(),
        4,
        "post-eviction ticks are healthy (empty lane resets the counter)"
    );
}

/// Below the deadline the watchdog is inert: no breaches, no events, and
/// the supervised run is bitwise-identical to an unsupervised one.
#[test]
fn healthy_run_under_watchdog_is_bitwise_unchanged() {
    let backend = backend();
    let base_cfg = serve_cfg(2);
    let mut plain = EnsembleServer::new(&backend, base_cfg.clone());
    let mut wd_cfg = base_cfg;
    wd_cfg.watchdog = Some(WatchdogConfig::new(1e9));
    wd_cfg.checkpoint_every = 2;
    let mut supervised = EnsembleServer::new(&backend, wd_cfg);
    for c in 0..4u64 {
        plain.admit(SolveRequest::new(40 + c, 5)).expect("admit");
        supervised
            .admit(SolveRequest::new(40 + c, 5))
            .expect("admit");
    }
    plain.run_until_idle();
    supervised.run_until_idle();
    assert!(supervised.watchdog_events().is_empty());
    assert_eq!(supervised.stats().watchdog_breaches(), 0);
    assert_eq!(
        supervised.elapsed().to_bits(),
        plain.elapsed().to_bits(),
        "supervision must not perturb the modeled timeline"
    );
    for id in 0..4u64 {
        let a = plain.result(hetsolve::serve::RequestId(id)).unwrap();
        let b = supervised.result(hetsolve::serve::RequestId(id)).unwrap();
        assert_bitwise_eq(&[a.to_vec()], &[b.to_vec()], &format!("request {id}"));
    }
}

// ---------------------------------------------------------------------------
// Cluster serving: node-crash failover (DESIGN.md §15)
// ---------------------------------------------------------------------------

/// The cluster-serving request mix shared by the failover tests: seeds and
/// step counts are what a request's trajectory is a function of, so the
/// same list admitted to a solo server pins the bitwise baseline.
fn cluster_requests() -> Vec<SolveRequest> {
    (0..5u64)
        .map(|c| SolveRequest::new(900 + c, 3 + (c as usize % 2)))
        .collect()
}

fn cluster_cfg(shards: usize) -> ClusterConfig {
    ClusterConfig::new(serve_cfg(2), shards)
}

/// Solo-server baseline results for [`cluster_requests`], in admission
/// order. The serve suite already proves these equal solo `run_ensemble`
/// bits, so matching them transitively proves cluster == solo.
fn solo_baseline(backend: &Backend, requests: &[SolveRequest]) -> Vec<Vec<f64>> {
    let mut solo = EnsembleServer::new(backend, serve_cfg(2));
    let ids: Vec<RequestId> = requests
        .iter()
        .map(|&r| solo.admit(r).expect("solo admit"))
        .collect();
    solo.run_until_idle();
    ids.iter()
        .map(|&id| solo.result(id).expect("solo result").to_vec())
        .collect()
}

/// The cluster tentpole property: kill *each* node at *every* cluster
/// boundary in turn, across 1, 2 and 4 shards. Every in-flight case must
/// finish through restart-on-peer — one crash, one failover, zero
/// evictions — bitwise-identical to a solo server of the same seeds.
#[test]
fn cluster_kill_any_node_at_any_boundary_recovers_bitwise() {
    let backend = backend();
    let requests = cluster_requests();
    let solo = solo_baseline(&backend, &requests);

    for shards in [1usize, 2, 4] {
        // fault-free cluster run: pins the boundary count to sweep and
        // re-asserts the serve-equivalence claim at the cluster level
        let mut plain = ClusterServer::new(&backend, cluster_cfg(shards));
        let ids: Vec<RequestId> = requests
            .iter()
            .map(|&r| plain.admit(r).expect("cluster admit"))
            .collect();
        plain.run_until_idle();
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(plain.state(id), RequestState::Done);
            assert_bitwise_eq(
                &[plain.result(id).expect("cluster result")],
                &[solo[k].clone()],
                &format!("{shards} shards fault-free, request {k}"),
            );
        }
        let boundaries = plain.ticks();
        assert!(boundaries > 0);

        for boundary in 0..boundaries {
            for node in 0..shards {
                let ctx = format!("{shards} shards, node {node} killed at boundary {boundary}");
                let plan = FaultPlan::new(11).crash_node(boundary, node);
                let mut cluster = ClusterServer::with_faults(&backend, cluster_cfg(shards), plan);
                let ids: Vec<RequestId> = requests
                    .iter()
                    .map(|&r| cluster.admit(r).expect("cluster admit"))
                    .collect();
                cluster.run_until_idle();
                assert!(cluster.is_idle(), "{ctx}: cluster never drained");

                let stats = cluster.stats();
                assert_eq!(stats.node_crashes(), 1, "{ctx}: crash must fire");
                assert_eq!(
                    stats.failovers(),
                    1,
                    "{ctx}: restart-on-peer must succeed, not evict"
                );
                assert_eq!(stats.evicted(), 0, "{ctx}: eviction is last resort only");
                assert_eq!(
                    stats.completed(),
                    requests.len(),
                    "{ctx}: every case completes exactly once"
                );
                assert_eq!(cluster.recovery_latencies().len(), 1, "{ctx}");
                assert!(cluster.recovery_latencies()[0] >= 0.0, "{ctx}");

                for (k, &id) in ids.iter().enumerate() {
                    assert_eq!(
                        cluster.state(id),
                        RequestState::Done,
                        "{ctx}: request {k} lost"
                    );
                    assert_bitwise_eq(
                        &[cluster.result(id).expect("result after failover")],
                        &[solo[k].clone()],
                        &format!("{ctx}, request {k}"),
                    );
                }

                let kinds: std::collections::HashSet<&str> =
                    cluster.flight().events().map(|e| e.kind.as_str()).collect();
                assert!(kinds.contains("node_crash"), "{ctx}: no crash flight event");
                assert!(
                    kinds.contains("failover"),
                    "{ctx}: no failover flight event"
                );
                assert!(kinds.contains("replica_mirrored"), "{ctx}");
            }
        }
    }
}

/// Torn-replica fallback: the freshest peer replica is torn mid-mirror,
/// the node dies at that same boundary, and failover must fall back to
/// the previous replica — reported, typed, and still bitwise-correct.
#[test]
fn cluster_torn_replica_falls_back_to_older_copy() {
    let backend = backend();
    let requests: Vec<SolveRequest> = (0..5u64).map(|c| SolveRequest::new(920 + c, 4)).collect();
    let solo = solo_baseline(&backend, &requests);

    // shard 0 mirrors with seq = its tick count; tear the seq-3 image
    // pushed at the same boundary the node dies on
    let plan = FaultPlan::new(13)
        .corrupt_replica(0, 3, 0.4)
        .crash_node(3, 0);
    let mut cluster = ClusterServer::with_faults(&backend, cluster_cfg(2), plan);
    let ids: Vec<RequestId> = requests
        .iter()
        .map(|&r| cluster.admit(r).expect("admit"))
        .collect();
    cluster.run_until_idle();

    let stats = cluster.stats();
    assert_eq!(stats.node_crashes(), 1);
    assert_eq!(stats.failovers(), 1, "fallback must restore, not evict");
    assert_eq!(stats.evicted(), 0);

    let reports = cluster.failover_reports();
    assert_eq!(reports.len(), 1);
    let (node, report) = &reports[0];
    assert_eq!(*node, 0);
    assert!(
        !report.clean(),
        "restore scan must record the torn replica it skipped"
    );
    assert_eq!(
        report.skipped[0].seq, 3,
        "the torn newest replica is skipped first: {report}"
    );

    for (k, &id) in ids.iter().enumerate() {
        assert_eq!(cluster.state(id), RequestState::Done, "request {k}");
        assert_bitwise_eq(
            &[cluster.result(id).expect("result")],
            &[solo[k].clone()],
            &format!("torn-replica fallback, request {k}"),
        );
    }
    let kinds: std::collections::HashSet<&str> =
        cluster.flight().events().map(|e| e.kind.as_str()).collect();
    assert!(kinds.contains("replica_torn"));
    assert!(kinds.contains("replica_invalid"));
    assert!(kinds.contains("failover"));
}

/// Eviction really is the last resort: with *every* retained replica of
/// the dead node torn, failover cannot restore — the node's requests are
/// tombstoned `NodeLost` (typed, no panic) and every other node's work
/// still finishes bitwise-identical to solo.
#[test]
fn cluster_all_replicas_torn_evicts_node_lost() {
    let backend = backend();
    let requests: Vec<SolveRequest> = (0..4u64).map(|c| SolveRequest::new(940 + c, 4)).collect();
    let solo = solo_baseline(&backend, &requests);

    // replica_keep = 2: at boundary 3 the store holds seqs {2, 3}; tear both
    let plan = FaultPlan::new(17)
        .corrupt_replica(0, 2, 0.2)
        .corrupt_replica(0, 3, 0.2)
        .crash_node(3, 0);
    let mut cluster = ClusterServer::with_faults(&backend, cluster_cfg(2), plan);
    let ids: Vec<RequestId> = requests
        .iter()
        .map(|&r| cluster.admit(r).expect("admit"))
        .collect();
    cluster.run_until_idle();

    let stats = cluster.stats();
    assert_eq!(stats.node_crashes(), 1);
    assert_eq!(
        stats.failovers(),
        0,
        "no valid replica: restore must not fake success"
    );
    assert!(stats.evicted() > 0, "the lost node's requests are evicted");
    assert!(cluster.recovery_latencies().is_empty());

    let (_, report) = &cluster.failover_reports()[0];
    assert_eq!(
        report.skipped.len(),
        2,
        "both torn copies rejected: {report}"
    );

    let mut done = 0;
    for (k, &id) in ids.iter().enumerate() {
        let rec = cluster.record(id);
        match rec.state {
            RequestState::Done => {
                assert_bitwise_eq(
                    &[cluster.result(id).expect("result")],
                    &[solo[k].clone()],
                    &format!("surviving request {k}"),
                );
                done += 1;
            }
            RequestState::Evicted => {
                assert_eq!(rec.evict_reason, Some(EvictReason::NodeLost), "request {k}");
                assert!(cluster.result(id).is_none(), "request {k}: no fake result");
            }
            other => panic!("request {k} left in non-terminal state {other:?}"),
        }
    }
    assert_eq!(done + stats.evicted(), requests.len());
    assert!(done > 0, "the surviving node's work must still complete");
    assert!(
        cluster.flight().events().any(|e| e.kind == "node_evicted"),
        "eviction must hit the flight ring"
    );
}

/// QoS chaos hook: a one-shot `tenant_burst` floods one tenant's queue
/// share mid-run. The overflow must shed *typed* against the bursting
/// tenant alone; the victim tenant's requests all complete untouched, and
/// the admission ledger still balances across the flood.
#[test]
fn tenant_burst_sheds_typed_without_starving_other_tenants() {
    let backend = backend();
    let mut cfg = serve_cfg(2);
    cfg.queue_capacity = 16;
    let cfg = cfg.with_qos(QosConfig::new(vec![
        TenantQuota::new(2).with_queue_share(0.5),
        TenantQuota::new(1).with_queue_share(0.5),
    ]));
    // tick 2: tenant 1 fires 64 one-step requests at a 16-deep queue
    // whose tenant-1 share caps at 8
    let plan = FaultPlan::new(41).tenant_burst(2, 1, 64);
    let mut server = EnsembleServer::with_faults(&backend, cfg, plan);
    let ids: Vec<RequestId> = (0..6)
        .map(|c| {
            server
                .admit(SolveRequest::new(900 + c, 4).with_tenant(TenantId(0)))
                .expect("admit")
        })
        .collect();
    server.run_until_idle();

    for (k, id) in ids.iter().enumerate() {
        assert_eq!(
            server.record(*id).state,
            RequestState::Done,
            "victim-tenant request {k} must ride out the flood"
        );
    }
    let stats = server.stats();
    let t1 = stats.tenant(1).expect("bursting tenant accounted");
    assert!(
        t1.shed >= 56,
        "the flood past the queue share must shed typed (shed {})",
        t1.shed
    );
    assert!(
        t1.completed > 0,
        "burst requests inside the share still complete"
    );
    let t0 = stats.tenant(0).expect("victim tenant accounted");
    assert_eq!(t0.completed, 6);
    assert_eq!(t0.shed + t0.evicted, 0, "the victim tenant pays nothing");
    // nothing vanishes untyped: 6 steady + 64 burst arrivals all land in
    // exactly one terminal counter
    assert_eq!(
        stats.completed() + stats.shed() + stats.rejected() + stats.evicted(),
        6 + 64
    );
}

/// Autoscaler chaos hook: `stuck_lane_scaledown` forces a drain while
/// columns are in flight and the cooldown would normally forbid any
/// scaling action. The drained lane finishes its occupants, the shrink
/// completes (with the natural occupancy path disabled, the recorded
/// scale-down can only be the injected one), and no request loses work —
/// results stay bitwise-identical to an unfaulted server.
#[test]
fn stuck_lane_scaledown_drains_under_load_without_losing_work() {
    let backend = backend();
    let cfg = || {
        let cfg = serve_cfg(2);
        let mut autoscale = AutoscaleConfig::new(1, 2);
        autoscale.scale_up_queue_per_lane = 2;
        // natural shrink requires occupancy < 0.0: impossible, so any
        // scale-down below is the injected drain completing
        autoscale.scale_down_occupancy = 0.0;
        autoscale.cooldown_ticks = 2;
        cfg.with_autoscale(autoscale)
    };
    let admit_all = |server: &mut EnsembleServer<'_, FaultPlan>| -> Vec<RequestId> {
        (0..10)
            .map(|c| server.admit(SolveRequest::new(700 + c, 6)).expect("admit"))
            .collect()
    };

    let plan = FaultPlan::new(43).stuck_lane_scaledown(3);
    let mut faulted = EnsembleServer::with_faults(&backend, cfg(), plan);
    let ids = admit_all(&mut faulted);
    faulted.run_until_idle();

    let ups = faulted
        .scale_events()
        .iter()
        .filter(|e| e.direction == ScaleDirection::Up)
        .count();
    let downs = faulted
        .scale_events()
        .iter()
        .filter(|e| e.direction == ScaleDirection::Down)
        .count();
    assert!(ups >= 1, "queue depth must have scaled the server up first");
    assert_eq!(downs, 1, "exactly the injected drain may complete");

    // an unfaulted server with the same admissions: the forced drain may
    // cost modeled time, never numerics
    let mut clean = EnsembleServer::with_faults(&backend, cfg(), FaultPlan::new(43));
    let clean_ids = admit_all(&mut clean);
    clean.run_until_idle();
    for (k, (id, cid)) in ids.iter().zip(&clean_ids).enumerate() {
        assert_eq!(faulted.record(*id).state, RequestState::Done, "request {k}");
        assert_bitwise_eq(
            &[faulted.result(*id).expect("faulted result").to_vec()],
            &[clean.result(*cid).expect("clean result").to_vec()],
            &format!("request {k}"),
        );
    }
}
