//! The serving-layer acceptance suite:
//!
//! * **Bitwise equivalence** — a request served under load (companions,
//!   backfill, arbitrary lane placement) produces the exact
//!   `f64::to_bits` displacement of a solo `run_ensemble` solve of the
//!   same seed,
//! * **Continuous batching throughput** — at queue depth ≥ 2× lane
//!   width, a heterogeneous workload completes ≥ 1.5× more cases per
//!   modeled second than the drain-then-refill baseline,
//! * **Determinism** — two servers with the same scheduler seed and the
//!   same admissions replay the same schedule, states and bits,
//! * **Admission control** — typed `Rejected`/`ShedLoad` outcomes, with
//!   and without injected admission faults,
//! * **Eviction** — injected and deadline evictions free lane slots that
//!   are then backfilled,
//! * **Bounded telemetry** — the stats stay one size however long a
//!   server runs.

use hetsolve::ckpt::{Enc, Wire};
use hetsolve::core::{run_ensemble, Backend, EnsembleConfig, WindowPolicy};
use hetsolve::fault::FaultPlan;
use hetsolve::fem::{FemProblem, RandomLoadSpec};
use hetsolve::machine::single_gh200;
use hetsolve::mesh::{GroundModelSpec, InterfaceShape};
use hetsolve::obs::ServeCounter;
use hetsolve::serve::{
    AdmitError, BatchPolicy, ClusterConfig, ClusterServer, EnsembleServer, RejectReason,
    RequestState, ServeConfig, SolveRequest,
};

fn small_backend() -> Backend {
    let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
    // CI runs this suite a second time with `HETSOLVE_TEST_PARALLEL` set:
    // the same assertions, pinned values included, on a backend whose
    // operators, preconditioner and predictor use the host pool.
    let parallel = std::env::var_os("HETSOLVE_TEST_PARALLEL").is_some();
    Backend::new(FemProblem::paper_like(&spec), false, parallel)
}

fn quick_load() -> RandomLoadSpec {
    RandomLoadSpec {
        n_sources: 4,
        impulses_per_source: 2.0,
        amplitude: 1e6,
        active_window: 0.2,
    }
}

/// Serve config matching the ensemble run of [`reference_ensemble`].
fn serve_cfg(r: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run.r = r;
    cfg.run.s_max = 6;
    cfg.run.region_dofs = 300;
    cfg.run.load = quick_load();
    cfg
}

/// Every case of a served workload is bitwise-equal to its solo
/// `run_ensemble` solve: same seed → same trajectory, regardless of which
/// companions shared its fused lane or when backfill placed it.
#[test]
fn served_cases_are_bitwise_equal_to_solo_ensemble() {
    let backend = small_backend();
    let n_steps = 8;

    // reference: one solo ensemble run (4 cases at r = 2), case-local
    // snapshot window so trajectories don't depend on companions
    let mut ens = EnsembleConfig::new(single_gh200(), 4, n_steps).expect("valid config");
    ens.run.r = 2;
    ens.run.s_max = 6;
    ens.run.region_dofs = 300;
    ens.run.load = quick_load();
    ens.run.window = WindowPolicy::FullWindow;
    let (_, runs) = run_ensemble(&backend, &ens).expect("ensemble");

    // served: the same 4 cases admitted among decoy requests with
    // different step counts and priorities, so lanes mix and backfill
    let mut cfg = serve_cfg(2);
    cfg.run = ens.run.clone();
    let mut server = EnsembleServer::new(&backend, cfg);
    let mut decoys = Vec::new();
    for d in 0..2 {
        decoys.push(
            server
                .admit(SolveRequest::new(500_000 + d, 3).with_priority(9))
                .expect("admit decoy"),
        );
    }
    let targets: Vec<_> = (0..4)
        .map(|c| {
            server
                .admit(SolveRequest::new(ens.seed + c as u64, n_steps).with_priority(c))
                .expect("admit target")
        })
        .collect();
    server.run_until_idle();

    for (c, &id) in targets.iter().enumerate() {
        assert_eq!(server.record(id).state, RequestState::Done);
        let served = server.result(id).expect("result");
        let solo = &runs[0].final_u[c];
        assert_eq!(served.len(), solo.len());
        for (i, (&a, &b)) in served.iter().zip(solo).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "case {c} dof {i}: served {a:e} != solo {b:e}"
            );
        }
    }
    for &id in &decoys {
        assert_eq!(server.record(id).state, RequestState::Done);
    }
}

/// A served column goes through the same set step as a run's case, so it
/// honours the guess, solver-cap and snapshot faults a run does: the
/// faulted request recovers and ends `Done`, and its companions keep the
/// bits of a clean server.
#[test]
fn served_request_survives_guess_solver_and_snapshot_faults() {
    let backend = small_backend();
    // lane-major backfill by priority: the target takes lane 0 slot 0 and
    // the two-step request slot 1, which stays vacant once it is done, so
    // the lane-0 solver cap at tick 4 reaches the target alone
    let requests = [
        SolveRequest::new(700, 8).with_priority(9),
        SolveRequest::new(701, 2).with_priority(8),
        SolveRequest::new(702, 8).with_priority(7),
        SolveRequest::new(703, 6).with_priority(6),
    ];
    let serve = |plan: FaultPlan| {
        let mut server = EnsembleServer::with_faults(&backend, serve_cfg(2), plan);
        let ids: Vec<_> = requests
            .iter()
            .map(|&q| server.admit(q).expect("admit"))
            .collect();
        server.run_until_idle();
        (server, ids)
    };
    let (clean, _) = serve(FaultPlan::new(3));
    let (server, ids) = serve(
        FaultPlan::new(3)
            .nan_guess(3, 0, 0.2)
            .cap_solver(4, 0, 2)
            .nan_snapshot(5, 0, 0.3),
    );
    let target = ids[0];
    let batched = server
        .flight()
        .events()
        .find(|e| e.kind == "batched" && e.request == Some(0));
    assert_eq!(batched.and_then(|e| e.lane), Some(0), "target in lane 0");
    assert_eq!(server.record(target).state, RequestState::Done);
    assert!(server.faults().all_fired(), "every planned fault fired");
    let events: Vec<_> = server
        .recoveries()
        .iter()
        .filter(|ev| ev.case == Some(0))
        .collect();
    assert!(events.len() >= 2, "guess and cap recovered: {events:?}");
    assert!(events.iter().all(|ev| ev.set == 0));
    assert!(clean.recoveries().is_empty());
    for &id in &ids[1..] {
        assert_eq!(server.record(id).state, RequestState::Done);
        let (faulted, solo) = (
            server.result(id).expect("result"),
            clean.result(id).expect("result"),
        );
        assert!(
            faulted
                .iter()
                .zip(solo)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "companion {id} moved"
        );
    }
}

/// The tentpole throughput claim: with the queue deeper than 2× the lane
/// width and a heterogeneous (short + long) workload, continuous batching
/// completes ≥ 1.5× the cases per modeled second of drain-then-refill —
/// the fused EBE kernels cost the same at any occupancy, so the baseline
/// pays full price for the vacant columns of a draining lane.
#[test]
fn continuous_batching_beats_drain_then_refill() {
    let backend = small_backend();
    let r = 4;
    // 2 longs + 24 shorts; interleaved priorities pin one long + three
    // shorts into each lane's initial fill under both policies
    let mut requests = vec![
        SolveRequest::new(9_000, 16).with_priority(255),
        SolveRequest::new(9_001, 4).with_priority(254),
        SolveRequest::new(9_002, 4).with_priority(253),
        SolveRequest::new(9_003, 4).with_priority(252),
        SolveRequest::new(9_004, 16).with_priority(251),
        SolveRequest::new(9_005, 4).with_priority(250),
        SolveRequest::new(9_006, 4).with_priority(249),
        SolveRequest::new(9_007, 4).with_priority(248),
    ];
    for k in 0..18 {
        requests.push(SolveRequest::new(9_100 + k, 4).with_priority(100));
    }
    assert!(requests.len() >= 2 * 2 * r, "queue depth >= 2x lane width");

    let throughput = |policy: BatchPolicy| {
        let mut cfg = serve_cfg(r);
        cfg.policy = policy;
        // weak predictor keeps per-step iteration counts uniform across
        // short and long cases, isolating the occupancy effect
        cfg.run.s_max = 1;
        let mut server = EnsembleServer::new(&backend, cfg);
        for req in &requests {
            server.admit(*req).expect("admit");
        }
        server.run_until_idle();
        assert_eq!(
            server.stats().count(ServeCounter::Completed),
            requests.len()
        );
        server.stats().cases_per_sec()
    };

    let continuous = throughput(BatchPolicy::Continuous);
    let drain = throughput(BatchPolicy::DrainThenRefill);
    assert!(
        continuous >= 1.5 * drain,
        "continuous {continuous:.3} vs drain-then-refill {drain:.3} cases/s \
         (ratio {:.2})",
        continuous / drain
    );
}

/// Same seed + same admissions → the same schedule, states, tick count
/// and result bits.
#[test]
fn serving_is_deterministic_under_fixed_seed() {
    let backend = small_backend();
    let run_once = || {
        let mut server = EnsembleServer::new(&backend, serve_cfg(2));
        let ids: Vec<_> = (0..8)
            .map(|k| {
                server
                    .admit(
                        SolveRequest::new(3_000 + k, 2 + (k as usize % 3))
                            .with_priority((k % 4) as u8),
                    )
                    .expect("admit")
            })
            .collect();
        let ticks = server.run_until_idle();
        let bits: Vec<Vec<u64>> = ids
            .iter()
            .map(|&id| {
                server
                    .result(id)
                    .expect("done")
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect();
        (ticks, server.elapsed(), bits)
    };
    let (t1, e1, b1) = run_once();
    let (t2, e2, b2) = run_once();
    assert_eq!(t1, t2, "tick counts differ");
    assert_eq!(e1.to_bits(), e2.to_bits(), "modeled clocks differ");
    assert_eq!(b1, b2, "result bits differ");
}

/// Typed admission control: malformed requests are `Rejected`, a full
/// queue sheds load, and injected admission faults produce the same typed
/// errors without touching the real queue.
#[test]
fn admission_control_rejects_and_sheds_typed() {
    let backend = small_backend();

    let mut cfg = serve_cfg(2);
    cfg.queue_capacity = 2;
    let mut server = EnsembleServer::new(&backend, cfg);
    assert_eq!(
        server.admit(SolveRequest::new(1, 0)),
        Err(AdmitError::Rejected(RejectReason::ZeroSteps))
    );
    assert_eq!(
        server.admit(SolveRequest::new(1, 4).with_tol(-1.0)),
        Err(AdmitError::Rejected(RejectReason::InvalidTol))
    );
    server.admit(SolveRequest::new(2, 4)).expect("fits");
    server.admit(SolveRequest::new(3, 4)).expect("fits");
    assert_eq!(
        server.admit(SolveRequest::new(4, 4)),
        Err(AdmitError::ShedLoad {
            queued: 2,
            capacity: 2
        })
    );
    let json = server.stats().to_json();
    assert_eq!(json.get("rejected").unwrap().as_f64(), Some(2.0));
    assert_eq!(json.get("shed").unwrap().as_f64(), Some(1.0));

    // injected admission faults: 0th admit rejected, 2nd shed
    let plan = FaultPlan::new(5).reject_admission(0).shed_admission(2);
    let mut server = EnsembleServer::with_faults(&backend, serve_cfg(2), plan);
    assert_eq!(
        server.admit(SolveRequest::new(10, 4)),
        Err(AdmitError::Rejected(RejectReason::FaultInjected))
    );
    server.admit(SolveRequest::new(11, 4)).expect("clean admit");
    assert!(matches!(
        server.admit(SolveRequest::new(12, 4)),
        Err(AdmitError::ShedLoad { .. })
    ));
    server.run_until_idle();
    assert_eq!(server.stats().count(ServeCounter::Completed), 1);
}

/// Evicted columns (injected kills and queue-side deadline misses) free
/// their slots, which continuous batching backfills with queued work.
#[test]
fn eviction_frees_and_backfills_slots() {
    let backend = small_backend();

    // injected eviction: request 0 is killed at tick 1; its slot refills
    let plan = FaultPlan::new(9).evict(1, 0);
    let mut server = EnsembleServer::with_faults(&backend, serve_cfg(2), plan);
    let victim = server
        .admit(SolveRequest::new(100, 6).with_priority(9))
        .expect("admit");
    let mut others = Vec::new();
    for k in 0..5 {
        others.push(server.admit(SolveRequest::new(200 + k, 3)).expect("admit"));
    }
    server.run_until_idle();
    assert_eq!(server.record(victim).state, RequestState::Evicted);
    assert!(server.result(victim).is_none());
    assert_eq!(server.stats().count(ServeCounter::Evicted), 1);
    for &id in &others {
        assert_eq!(server.record(id).state, RequestState::Done, "{id}");
    }

    // deadline eviction: lanes full of high-priority work, a queued
    // request whose deadline passes before a slot frees is shed
    let mut server = EnsembleServer::new(&backend, serve_cfg(2));
    for k in 0..4 {
        server
            .admit(SolveRequest::new(300 + k, 6).with_priority(9))
            .expect("admit");
    }
    let late = server
        .admit(SolveRequest::new(400, 2).with_deadline(1e-12))
        .expect("admit");
    server.run_until_idle();
    assert_eq!(server.record(late).state, RequestState::Evicted);
    assert!(server.record(late).latency().is_some());
    assert_eq!(server.stats().count(ServeCounter::Completed), 4);
}

/// EBE-MCG fuses 1, 2, 4 or 8 cases per lane. A server configured with
/// another width refuses every request typed at the door — on one server
/// and through the cluster router alike — instead of admitting it and
/// failing at the first tick.
#[test]
fn an_unsupported_fused_width_is_refused_typed() {
    let backend = small_backend();
    let refused = Err(AdmitError::Rejected(RejectReason::UnsupportedWidth));
    for r in [3, 5] {
        let mut server = EnsembleServer::new(&backend, serve_cfg(r));
        assert_eq!(server.admit(SolveRequest::new(60, 2)), refused, "r = {r}");
        assert_eq!(server.run_until_idle(), 0, "r = {r}: nothing to serve");
        assert_eq!(server.stats().count(ServeCounter::Rejected), 1);
        assert_eq!(server.admitted(), 0);

        let mut cluster = ClusterServer::new(&backend, ClusterConfig::new(serve_cfg(r), 2));
        assert_eq!(cluster.admit(SolveRequest::new(61, 2)), refused, "r = {r}");
        assert_eq!(cluster.run_until_idle(), 0, "r = {r}: nothing to serve");
        assert_eq!(cluster.stats().count(ServeCounter::Rejected), 1);
        assert_eq!(cluster.admitted(), 0);
    }
}

/// The stats keep running sums, not a sample per tick or per lane step:
/// a one-request server encodes stats of one size at tick 100 and tick 399.
#[test]
fn serving_stats_do_not_grow_with_ticks() {
    let backend = small_backend();
    let mut server = EnsembleServer::new(&backend, serve_cfg(2));
    server.admit(SolveRequest::new(62, 400)).expect("admit");
    let encoded_len = |server: &EnsembleServer| {
        let mut enc = Enc::new();
        server.stats().put(&mut enc);
        enc.into_bytes().len()
    };
    while server.ticks() < 100 {
        server.tick();
    }
    let at_100 = encoded_len(&server);
    while server.ticks() < 399 {
        server.tick();
    }
    assert_eq!(server.in_flight(), 1, "the request is still solving");
    assert!(server.stats().mean_occupancy() > 0.0);
    assert_eq!(encoded_len(&server), at_100);
}
