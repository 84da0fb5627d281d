//! The silent-data-corruption acceptance suite (DESIGN.md §17): injected
//! single-bit flips on every guarded target are detected by the ABFT
//! checksums / invariant sentinels and repaired by the graded ladder —
//! bitwise, so a recovered run is indistinguishable from a clean one.
//! Persistent corruption escalates (rollback → lane restart → typed
//! eviction) instead of ever serving a silently wrong answer, and a clean
//! run with detection enabled is *bitwise-identical* to one without: the
//! defense is free until a checksum actually mismatches.

use hetsolve::core::{run_realtime, IntegrityConfig};
use hetsolve::fault::StateField;
use hetsolve::fem::FemProblem;
use hetsolve::obs::{names, ServeCounter};
use hetsolve::prelude::*;
use hetsolve::serve::{
    AdmitError, ClusterConfig, ClusterServer, EnsembleServer, EvictReason, RejectReason,
    RequestState, ServeConfig, SolveRequest,
};

fn backend() -> Backend {
    let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
    // CI runs this suite a second time with `HETSOLVE_TEST_PARALLEL` set:
    // the same assertions, pinned values included, on a backend whose
    // operators, preconditioner and predictor use the host pool.
    let parallel = std::env::var_os("HETSOLVE_TEST_PARALLEL").is_some();
    Backend::new(FemProblem::paper_like(&spec), true, parallel)
}

fn config(method: MethodKind, steps: usize) -> RunConfig {
    let mut cfg = RunConfig::new(method, single_gh200(), steps);
    cfg.r = 2;
    cfg.s_max = 6;
    cfg.region_dofs = 300;
    cfg.load = RandomLoadSpec {
        n_sources: 4,
        impulses_per_source: 2.0,
        amplitude: 1e6,
        active_window: 0.25,
    };
    cfg
}

fn assert_bitwise(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: case count");
    for (c, (ua, ub)) in a.iter().zip(b).enumerate() {
        for (i, (&p, &q)) in ua.iter().zip(ub).enumerate() {
            assert_eq!(
                p.to_bits(),
                q.to_bits(),
                "{what}: case {c} dof {i}: {p:e} != {q:e}"
            );
        }
    }
}

/// Detection is read-only on clean data: for every method, a run with the
/// integrity layer enabled is bitwise-identical to one with it disabled,
/// and reports nothing.
#[test]
fn clean_runs_are_bitwise_unchanged_by_detection() {
    let b = backend();
    for method in [
        MethodKind::CrsCgCpu,
        MethodKind::CrsCgGpu,
        MethodKind::CrsCgCpuGpu,
        MethodKind::EbeMcgCpuGpu,
    ] {
        let on_cfg = config(method, 6);
        let mut off_cfg = on_cfg.clone();
        off_cfg.integrity = IntegrityConfig::disabled();
        let on = run(&b, &on_cfg).expect("detect-on run");
        let off = run(&b, &off_cfg).expect("detect-off run");
        assert!(on.corruptions.is_empty(), "{method:?}: clean run reported");
        assert_bitwise(&on.final_u, &off.final_u, "detection neutrality");
    }
}

/// The chaos tentpole: a seeded single-bit flip on every guarded target at
/// *every* step boundary is detected and repaired bitwise — the recovered
/// run finishes with exactly the clean run's bits, and each repair is a
/// typed report naming the step it fired at.
#[test]
fn flip_at_every_step_boundary_recovers_bitwise() {
    let b = backend();
    let cfg = config(MethodKind::EbeMcgCpuGpu, 10);
    let clean = run(&b, &cfg).expect("clean run");
    for step in 0..cfg.n_steps {
        let mut plans: Vec<(&str, FaultPlan)> = vec![
            (
                "state_u",
                FaultPlan::new(11).flip_state(step, 0, StateField::U),
            ),
            (
                "state_v",
                FaultPlan::new(11).flip_state(step, 0, StateField::V),
            ),
            (
                "state_a",
                FaultPlan::new(11).flip_state(step, 1, StateField::A),
            ),
            ("rhs", FaultPlan::new(11).flip_rhs(step, 0)),
            ("operator", FaultPlan::new(11).flip_operator(step)),
        ];
        if step >= 1 {
            // the predictor history is empty before the first step has
            // landed a correction — there is nothing to flip at step 0
            plans.push(("basis", FaultPlan::new(11).flip_basis(step, 0)));
        }
        for (what, mut plan) in plans {
            let r = run_with(&b, &cfg, Hooks::default().faults(&mut plan))
                .unwrap_or_else(|e| panic!("{what} flip at step {step} must recover: {e}"));
            assert!(
                !r.corruptions.is_empty(),
                "{what} flip at step {step} must be detected"
            );
            assert!(
                r.corruptions.iter().any(|c| c.step == step),
                "{what}: report must name step {step}, got {:?}",
                r.corruptions
            );
            assert_bitwise(&r.final_u, &clean.final_u, what);
        }
    }
}

/// The real-thread pipeline prepares its sets through the same set step as
/// the step driver, guards included: a state flip in set A and an RHS flip
/// in set B are detected and repaired, and the run keeps the clean bits.
#[test]
fn realtime_guards_repair_state_and_rhs_flips() {
    let b = backend();
    let cfg = config(MethodKind::EbeMcgCpuGpu, 8);
    let (clean, clean_rep) = run_realtime(&b, &cfg, Hooks::default()).expect("clean run");
    assert_eq!(clean_rep.corruptions, 0);
    // cases 0..r live in set A, r..2r in set B
    let mut plan = FaultPlan::new(41)
        .flip_state(3, 1, StateField::U)
        .flip_rhs(5, cfg.r + 1);
    let (faulted, rep) =
        run_realtime(&b, &cfg, Hooks::default().faults(&mut plan)).expect("repaired run");
    assert!(plan.all_fired(), "both flips fired");
    assert_eq!(rep.corruptions, 2, "both flips repaired");
    assert_bitwise(&faulted, &clean, "realtime repair");
}

/// The CRS drivers carry the same guards as the EBE driver: flips against
/// `CrsCgCpuGpu` recover bitwise too.
#[test]
fn crs_driver_recovers_from_flips() {
    let b = backend();
    let cfg = config(MethodKind::CrsCgCpuGpu, 8);
    let clean = run(&b, &cfg).expect("clean run");
    for (what, mut plan) in [
        (
            "state_v",
            FaultPlan::new(23).flip_state(3, 0, StateField::V),
        ),
        ("rhs", FaultPlan::new(23).flip_rhs(5, 1)),
        ("operator", FaultPlan::new(23).flip_operator(4)),
    ] {
        let r = run_with(&b, &cfg, Hooks::default().faults(&mut plan))
            .unwrap_or_else(|e| panic!("{what}: must recover: {e}"));
        assert!(!r.corruptions.is_empty(), "{what}: must be detected");
        assert_bitwise(&r.final_u, &clean.final_u, what);
    }
}

/// One step driver, one guard order: the operator audit runs before the
/// per-case boundary guards for every method (the single-case loop used to
/// run them the other way round), so two flips landing at one step
/// boundary are reported operator-first whichever method is running.
#[test]
fn guards_run_in_one_order_for_every_method() {
    let b = backend();
    for method in [
        MethodKind::CrsCgCpu,
        MethodKind::CrsCgGpu,
        MethodKind::CrsCgCpuGpu,
        MethodKind::EbeMcgCpuGpu,
    ] {
        let mut plan = FaultPlan::new(31)
            .flip_state(3, 0, StateField::U)
            .flip_operator(3);
        let r = run_with(&b, &config(method, 6), Hooks::default().faults(&mut plan))
            .unwrap_or_else(|e| panic!("{method:?}: must recover: {e}"));
        let order: Vec<(usize, Option<usize>)> =
            r.corruptions.iter().map(|c| (c.step, c.case)).collect();
        assert_eq!(order, [(3, None), (3, Some(0))], "{method:?}");
    }
}

/// Negative control: with detection disabled the same flip lands silently
/// — the run finishes with *different* bits (or dies), which is exactly
/// the silent-wrong-answer failure mode the integrity layer exists to
/// close.
#[test]
fn detection_off_lets_the_same_flip_corrupt() {
    let b = backend();
    let mut cfg = config(MethodKind::EbeMcgCpuGpu, 10);
    cfg.integrity = IntegrityConfig::disabled();
    let clean = run(&b, &cfg).expect("clean run");
    let mut plan = FaultPlan::new(11).flip_state(4, 0, StateField::U);
    // a NaN-ward flip may also kill the solve — typed, which is fine
    if let Ok(r) = run_with(&b, &cfg, Hooks::default().faults(&mut plan)) {
        assert!(r.corruptions.is_empty(), "detection is off");
        let same = r
            .final_u
            .iter()
            .zip(&clean.final_u)
            .all(|(a, c)| a.iter().zip(c).all(|(x, y)| x.to_bits() == y.to_bits()));
        assert!(!same, "unguarded flip must change the answer");
    }
}

fn serve_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run = config(MethodKind::EbeMcgCpuGpu, 8);
    cfg.run.r = 2;
    cfg.checkpoint_every = 2;
    cfg
}

/// A flip landing on an in-flight request is detected at that tick,
/// repaired in place, and the request still finishes with the bits a
/// fault-free server produces.
#[test]
fn served_flip_is_repaired_in_place() {
    let b = backend();
    let mut clean_server = EnsembleServer::new(&b, serve_cfg());
    for i in 0..4u64 {
        clean_server
            .admit(SolveRequest::new(700 + i, 6))
            .expect("admit");
    }
    clean_server.run_until_idle();

    let plan = FaultPlan::new(31)
        .flip_state(2, 0, StateField::U)
        .flip_rhs(3, 1);
    let mut server = EnsembleServer::with_faults(&b, serve_cfg(), plan);
    let ids: Vec<_> = (0..4u64)
        .map(|i| server.admit(SolveRequest::new(700 + i, 6)).expect("admit"))
        .collect();
    server.run_until_idle();

    assert!(
        server.stats().count(ServeCounter::SdcDetected) >= 2,
        "both flips detected"
    );
    assert_eq!(server.stats().count(ServeCounter::SdcEvictions), 0);
    assert!(!server.corruptions().is_empty());
    assert!(server.stats().sdc_recovery().total() >= 1);
    for &id in &ids {
        assert_eq!(server.record(id).state, RequestState::Done);
        let a = server.result(id).expect("result");
        let c = clean_server.result(id).expect("clean result");
        for (x, y) in a.iter().zip(c.iter()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{id}: repaired != clean");
        }
    }
}

/// Corruption recurring tick after tick on one lane walks the serve
/// ladder: in-place recovery, then a lane restart from its checkpoint,
/// then a typed `Corruption` eviction — never a silent wrong answer. A
/// request on another lane is untouched.
#[test]
fn persistent_corruption_escalates_to_restart_then_eviction() {
    let b = backend();
    // the victim keeps getting hit from tick 1 on; the bystander's
    // different tolerance keys it to its own lane
    let mut plan = FaultPlan::new(47);
    for tick in 1..=6usize {
        plan = plan.flip_state(tick, 0, StateField::U);
    }
    let mut server = EnsembleServer::with_faults(&b, serve_cfg(), plan);
    let victim = server.admit(SolveRequest::new(800, 8)).expect("admit");
    let bystander = server
        .admit(SolveRequest::new(801, 8).with_tol(1e-7))
        .expect("admit");
    server.run_until_idle();

    let stats = server.stats();
    assert!(
        stats.count(ServeCounter::SdcDetected) >= 4,
        "per-tick detections"
    );
    assert_eq!(
        stats.count(ServeCounter::SdcRestarts),
        1,
        "rung 2 fires exactly once"
    );
    assert!(
        stats.count(ServeCounter::SdcEvictions) >= 1,
        "rung 3 evicts the lane"
    );
    let rec = server.record(victim);
    assert_eq!(rec.state, RequestState::Evicted);
    assert_eq!(rec.evict_reason, Some(EvictReason::Corruption));
    assert_eq!(server.record(bystander).state, RequestState::Done);
}

/// The server checkpoint carries the SDC ladder's state: corruption
/// reports, per-lane breach counters, and the stats block all survive a
/// serialize → restore round trip.
#[test]
fn server_checkpoint_roundtrips_sdc_state() {
    let b = backend();
    let plan = FaultPlan::new(59).flip_state(2, 0, StateField::V);
    let mut server = EnsembleServer::with_faults(&b, serve_cfg(), plan);
    for i in 0..3u64 {
        server.admit(SolveRequest::new(900 + i, 6)).expect("admit");
    }
    server.run_until_idle();
    let detected = server.stats().count(ServeCounter::SdcDetected);
    assert!(detected >= 1);
    let reports = server.corruptions().to_vec();
    assert!(!reports.is_empty());

    let bytes = server.checkpoint_bytes();
    let ck = hetsolve::serve::ServerCheckpoint::from_bytes(
        &bytes,
        hetsolve::serve::ServeFingerprint::of(&b, server.config()),
    )
    .expect("decode checkpoint");
    assert_eq!(ck.corruptions, reports);
    let restored =
        EnsembleServer::from_checkpoint(&b, server.config().clone(), FaultPlan::default(), ck)
            .expect("restore");
    assert_eq!(restored.corruptions(), &reports[..]);
    assert_eq!(restored.stats().count(ServeCounter::SdcDetected), detected);
}

/// A breach table that does not have one counter per lane is refused like
/// any other lane-geometry mismatch: one short would silently restart a
/// lane's SDC ladder at 0, one long would be truncated.
#[test]
fn restore_refuses_a_breach_table_of_the_wrong_length() {
    let b = backend();
    let mut server = EnsembleServer::new(&b, serve_cfg());
    server.admit(SolveRequest::new(950, 6)).expect("admit");
    server.tick();
    let ck = server.checkpoint();
    assert_eq!(ck.sdc_breach.len(), ck.lanes.len());

    let mut short = ck.clone();
    short.sdc_breach.pop();
    let mut long = ck.clone();
    long.sdc_breach.push(0);
    for bad in [short, long] {
        let restored =
            EnsembleServer::from_checkpoint(&b, server.config().clone(), FaultPlan::default(), bad);
        assert!(
            matches!(restored, Err(hetsolve::ckpt::CkptError::Corrupt(_))),
            "a wrong-length breach table must be refused"
        );
    }
    assert!(
        EnsembleServer::from_checkpoint(&b, server.config().clone(), FaultPlan::default(), ck)
            .is_ok()
    );
}

/// Admission closes the non-finite door typed: a NaN deadline compares
/// false against every clock reading and would make the request
/// unschedulable garbage, so it is rejected as `NonFiniteInput` instead
/// of admitted.
#[test]
fn non_finite_deadline_is_rejected_typed() {
    let b = backend();
    let mut server = EnsembleServer::new(&b, serve_cfg());
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        match server.admit(SolveRequest::new(1_000, 4).with_deadline(bad)) {
            Err(AdmitError::Rejected(RejectReason::NonFiniteInput)) => {}
            other => panic!("deadline {bad}: expected NonFiniteInput, got {other:?}"),
        }
    }
    // a finite deadline still admits
    server
        .admit(SolveRequest::new(1_001, 4).with_deadline(1e9))
        .expect("finite deadline admits");
}

/// Cluster rung: a replica image silently bit-flipped in the peer's
/// memory fails its section CRC on failover and is *skipped* — the
/// restore falls back to the next-newest valid image and every request
/// still completes.
#[test]
fn failover_skips_a_bit_flipped_replica() {
    let b = backend();
    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run = config(MethodKind::EbeMcgCpuGpu, 8);
    cfg.run.r = 2;
    let mut ccfg = ClusterConfig::new(cfg, 2);
    ccfg.replica_every = 1;
    ccfg.replica_keep = 4;
    // mirrors precede crash processing inside a boundary, so the image
    // mirrored at tick 4 is the newest one the failover scans; flip it
    // and the restore must fall back to the valid seq-3 image
    let plan = FaultPlan::new(67).flip_replica(0, 4).crash_node(4, 0);
    let mut cluster = ClusterServer::with_faults(&b, ccfg, plan);
    let ids: Vec<_> = (0..8u64)
        .map(|i| {
            cluster
                .admit(SolveRequest::new(1_100 + i, 6))
                .expect("admit")
        })
        .collect();
    cluster.run_until_idle();

    let stats = cluster.stats();
    assert_eq!(stats.count(ServeCounter::NodeCrashes), 1);
    assert_eq!(
        stats.count(ServeCounter::Failovers),
        1,
        "must restore despite the bad image"
    );
    let (node, report) = &cluster.failover_reports()[0];
    assert_eq!(*node, 0);
    assert!(
        report.skipped.iter().any(|s| s.seq == 4),
        "the flipped seq-4 image must be skipped: {report:?}"
    );
    assert!(
        cluster
            .metrics_registry()
            .counter(names::SERVE_REPLICA_SKIPPED_TOTAL)
            >= 1.0,
        "the skip must be counted"
    );
    for &id in &ids {
        assert_eq!(
            cluster.state(id),
            RequestState::Done,
            "{id} must survive the corrupted-replica failover"
        );
    }
}
