//! Multi-tenant QoS + soak acceptance suite (DESIGN.md §16):
//!
//! * **Scale + determinism** — a seeded 10^5-request soak against the
//!   QoS-enabled `EnsembleServer` replays deterministically: two
//!   same-seed runs produce bitwise-identical `SoakReport`s, and hours
//!   of modeled traffic finish in seconds-to-tens-of-seconds of wall
//!   time because everything runs on the modeled clock,
//! * **Bounded overload** — at 2× sustained overload the queue never
//!   grows past its configured capacity; excess is shed *typed*, and
//!   the server always drains back to idle (no stall),
//! * **Fairness** — under two-tenant saturating load, served work
//!   converges to the quota weights within 10%; a zero-quota tenant is
//!   rejected typed, never silently starved,
//! * **Numerics isolation** — results served under multi-tenant load
//!   with autoscaling are bitwise-equal to solo `run_ensemble` solves,
//! * **Cluster soak** — the sharded server absorbs the same streams
//!   deterministically,
//! * **Checkpoint mid-scale** — snapshotting at a scaling boundary
//!   (kill while a lane drains) and restoring resumes the exact
//!   schedule, scaling state included.

use hetsolve::core::{run_ensemble, Backend, EnsembleConfig, WindowPolicy};
use hetsolve::fem::{FemProblem, RandomLoadSpec};
use hetsolve::load::{soak_cluster, soak_server, ArrivalLog, LoadConfig, SoakReport};
use hetsolve::machine::single_gh200;
use hetsolve::mesh::{GroundModelSpec, InterfaceShape};
use hetsolve::obs::ServeCounter;
use hetsolve::serve::{
    AdmitError, AutoscaleConfig, ClusterConfig, ClusterServer, EnsembleServer, QosConfig,
    RejectReason, RequestState, ServeConfig, SolveRequest, TenantId, TenantQuota,
};

/// Smallest paper-like problem: soak throughput comes from here, so the
/// per-step numerics must be as cheap as a valid mesh allows.
fn tiny_backend() -> Backend {
    let spec = GroundModelSpec::paper_like(1, 1, 1, InterfaceShape::Stratified);
    Backend::new(FemProblem::paper_like(&spec), false, false)
}

/// QoS-enabled soak config: full fused width, uniform per-step iteration
/// counts (s_max = 1) and a loose tolerance so scheduling — not the
/// numerics — dominates the wall time. Soaks audit scheduling outcomes
/// only, so results are not kept.
fn soak_cfg(tenants: Vec<TenantQuota>) -> ServeConfig {
    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run.r = 8;
    cfg.run.s_max = 1;
    cfg.run.tol = 1e-3;
    cfg.run.region_dofs = 50;
    cfg.run.load = RandomLoadSpec {
        n_sources: 2,
        impulses_per_source: 1.0,
        amplitude: 1e6,
        active_window: 0.2,
    };
    cfg.queue_capacity = 128;
    cfg.with_qos(QosConfig::new(tenants))
        .with_keep_results(false)
}

/// Measured service capacity in cases/s for `mean_steps`-step requests:
/// a short saturating calibration soak (most of it shed) runs the server
/// flat out, and completed ÷ modeled elapsed is the achieved rate. The
/// analytic step floor underestimates badly, and over/under-shooting
/// "2× overload" changes what the tests prove — so measure, don't model.
fn calibrated_capacity(backend: &Backend, mean_steps: f64) -> f64 {
    let mut server = EnsembleServer::new(backend, soak_cfg(vec![TenantQuota::new(1)]));
    let guess = 20.0 / server.step_floor_s();
    let load = LoadConfig::new(0xCA11B, 2_000, guess).with_steps(1, 1);
    let report = soak_server(&mut server, &ArrivalLog::generate(&load));
    assert!(report.modeled_elapsed_s > 0.0);
    (report.completed as f64 / report.modeled_elapsed_s) / mean_steps
}

/// Arrivals either enter the queue or hear a typed no; admitted requests
/// all reach a terminal state by the drain.
fn assert_conservation(r: &SoakReport) {
    assert_eq!(
        r.admitted + r.rejected + r.shed,
        r.n_arrivals,
        "every arrival is admitted, rejected typed, or shed typed"
    );
    assert_eq!(
        r.admitted,
        r.completed + r.evicted,
        "every admitted request completes or is evicted by the drain"
    );
}

#[test]
fn soak_100k_requests_is_bitwise_deterministic() {
    let backend = tiny_backend();
    let tenants = vec![TenantQuota::new(3), TenantQuota::new(1)];
    let cap = calibrated_capacity(&backend, 1.0);

    let load = LoadConfig::new(0x50AC, 100_000, 0.9 * cap)
        .with_tenants(2, 0.8)
        .with_steps(1, 1)
        .with_priorities(2);
    let log = ArrivalLog::generate(&load);
    assert_eq!(log.len(), 100_000);

    #[allow(clippy::disallowed_types, reason = "the test bounds its own wall time")]
    let t0 = std::time::Instant::now();
    let mut a = EnsembleServer::new(&backend, soak_cfg(tenants.clone()));
    let ra = soak_server(&mut a, &log);
    let wall = t0.elapsed().as_secs_f64();

    let mut b = EnsembleServer::new(&backend, soak_cfg(tenants));
    let rb = soak_server(&mut b, &log);

    assert_eq!(
        ra.to_bytes(),
        rb.to_bytes(),
        "same seed, same config: soak reports must be bitwise equal"
    );
    assert_eq!(ra.n_arrivals, 100_000);
    assert_conservation(&ra);
    assert!(a.is_idle(), "soak must drain to idle");
    assert!(ra.completed > 50_000, "most of the stream must be served");
    // hours of modeled arrivals collapse onto the modeled clock; the
    // wall bound is deliberately loose for slow CI machines
    assert!(
        wall < 120.0,
        "10^5-request soak took {wall:.1} s wall — the modeled clock is the point"
    );
    println!(
        "100k soak: {wall:.2} s wall for {:.2} modeled s, {} ticks, {} completed",
        ra.modeled_elapsed_s, ra.ticks, ra.completed
    );
}

#[test]
fn overload_2x_sheds_typed_and_queue_stays_bounded() {
    let backend = tiny_backend();
    let tenants = vec![TenantQuota::new(1)];
    let mut cfg = soak_cfg(tenants);
    cfg.queue_capacity = 64;
    let cap = calibrated_capacity(&backend, 1.0);

    let load = LoadConfig::new(0x0dd, 20_000, 2.0 * cap).with_steps(1, 1);
    let log = ArrivalLog::generate(&load);

    let mut server =
        EnsembleServer::with_faults(&backend, cfg, hetsolve::fault::FaultPlan::default());
    let report = soak_server(&mut server, &log);

    assert_conservation(&report);
    assert!(
        report.peak_queue_depth <= 64,
        "queue must never outgrow its capacity (peak {})",
        report.peak_queue_depth
    );
    assert!(
        report.shed > 1_000,
        "2x overload must shed typed, not buffer unboundedly (shed {})",
        report.shed
    );
    assert!(server.is_idle(), "overload must never stall the server");
    // roughly half the stream fits; the server must actually serve it
    assert!(
        report.completed as f64 > 0.35 * report.n_arrivals as f64,
        "server must keep serving at capacity under overload ({} of {})",
        report.completed,
        report.n_arrivals
    );
}

#[test]
fn fairness_converges_to_quota_weights_under_saturation() {
    let backend = tiny_backend();
    // queue shares partition the admission queue: without them the slow
    // tenant's backlog crowds out the fast tenant's *admissions*, and
    // DRR can only share what actually reaches its sub-queues
    let tenants = vec![
        TenantQuota::new(3).with_queue_share(0.5),
        TenantQuota::new(1).with_queue_share(0.5),
    ];
    let cfg = soak_cfg(tenants);
    let cap = calibrated_capacity(&backend, 2.0);

    // uniform tenant mix (zipf s = 0) and uniform cost (2 steps each):
    // any served-work skew comes from the scheduler, not the stream
    let load = LoadConfig::new(0xFA1, 20_000, 2.5 * cap)
        .with_tenants(2, 0.0)
        .with_steps(2, 2);
    let log = ArrivalLog::generate(&load);
    let counts = log.tenant_counts();
    let mix = counts[0] as f64 / (counts[0] + counts[1]) as f64;
    assert!(
        (mix - 0.5).abs() < 0.02,
        "arrival mix must be uniform, got {mix}"
    );

    let mut server = EnsembleServer::new(&backend, cfg);
    let report = soak_server(&mut server, &log);

    let t0 = report.tenants[0].served_steps as f64;
    let t1 = report.tenants[1].served_steps as f64;
    assert!(t1 > 0.0, "the light tenant must never be starved");
    let share = t0 / (t0 + t1);
    let want = 3.0 / 4.0;
    assert!(
        (share / want - 1.0).abs() < 0.10,
        "under saturation, served work follows quota weights: got {share:.3}, want {want} ±10%"
    );
}

#[test]
fn zero_quota_tenant_is_rejected_typed_never_starved() {
    let backend = tiny_backend();
    let tenants = vec![TenantQuota::new(1), TenantQuota::new(0)];
    let mut server = EnsembleServer::new(&backend, soak_cfg(tenants));

    // the disabled tenant hears a typed no at admission
    let res = server.admit(SolveRequest::new(7, 1).with_tenant(TenantId(1)));
    assert!(
        matches!(res, Err(AdmitError::Rejected(RejectReason::ZeroQuota))),
        "zero-weight tenant must be rejected typed, got {res:?}"
    );
    // a tenant outside the quota table is typed too
    let res = server.admit(SolveRequest::new(8, 1).with_tenant(TenantId(9)));
    assert!(
        matches!(res, Err(AdmitError::Rejected(RejectReason::UnknownTenant))),
        "unknown tenant must be rejected typed, got {res:?}"
    );
    // the live tenant is unaffected
    let id = server
        .admit(SolveRequest::new(9, 1).with_tenant(TenantId(0)))
        .expect("live tenant admits");
    server.run_until_idle();
    assert_eq!(server.record(id).state, RequestState::Done);
    assert_eq!(server.stats().count(ServeCounter::Completed), 1);
}

/// QoS and autoscaling are scheduling-only: a case served among another
/// tenant's traffic, across scale-up and scale-down events, produces the
/// exact `f64::to_bits` displacement of a solo `run_ensemble` solve.
#[test]
fn qos_and_autoscaling_never_touch_numerics() {
    let spec = GroundModelSpec::paper_like(2, 2, 1, InterfaceShape::Stratified);
    let backend = Backend::new(FemProblem::paper_like(&spec), false, false);
    let n_steps = 6;

    // reference: solo ensemble, case-local snapshot window
    let mut ens = EnsembleConfig::new(single_gh200(), 4, n_steps).expect("valid config");
    ens.run.r = 2;
    ens.run.s_max = 6;
    ens.run.region_dofs = 300;
    ens.run.load = RandomLoadSpec {
        n_sources: 4,
        impulses_per_source: 2.0,
        amplitude: 1e6,
        active_window: 0.2,
    };
    ens.run.window = WindowPolicy::FullWindow;
    let (_, runs) = run_ensemble(&backend, &ens).expect("ensemble");

    // served: same four cases as tenant 0, drowned in tenant-1 decoys
    // behind a 1→3-lane autoscaler with a hair-trigger scale-up
    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run = ens.run.clone();
    cfg.queue_capacity = 64;
    let mut autoscale = AutoscaleConfig::new(1, 3);
    autoscale.scale_up_queue_per_lane = 2;
    autoscale.cooldown_ticks = 1;
    let cfg = cfg
        .with_qos(QosConfig::new(vec![
            TenantQuota::new(3),
            TenantQuota::new(1).with_queue_share(0.5),
        ]))
        .with_autoscale(autoscale);
    let mut server = EnsembleServer::new(&backend, cfg);

    let mut decoys = Vec::new();
    for d in 0..10 {
        decoys.push(
            server
                .admit(
                    SolveRequest::new(500_000 + d, 3)
                        .with_tenant(TenantId(1))
                        .with_priority(9),
                )
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

    assert!(
        !server.scale_events().is_empty(),
        "the workload must actually exercise the autoscaler"
    );
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

#[test]
fn cluster_soak_is_bitwise_deterministic() {
    let backend = tiny_backend();
    let tenants = vec![TenantQuota::new(2), TenantQuota::new(1)];
    let shard_cfg = soak_cfg(tenants);
    let cap = calibrated_capacity(&backend, 1.0);

    // two shards absorb roughly twice the single-server capacity
    let load = LoadConfig::new(0xC105, 20_000, 1.5 * cap)
        .with_tenants(2, 0.6)
        .with_steps(1, 1);
    let log = ArrivalLog::generate(&load);

    let soak = || {
        let mut cluster = ClusterServer::new(&backend, ClusterConfig::new(shard_cfg.clone(), 2));
        let report = soak_cluster(&mut cluster, &log);
        assert!(cluster.is_idle(), "cluster soak must drain to idle");
        report
    };
    let ra = soak();
    let rb = soak();
    assert_eq!(
        ra.to_bytes(),
        rb.to_bytes(),
        "same seed, same cluster: soak reports must be bitwise equal"
    );
    assert_conservation(&ra);
    assert!(
        ra.completed > 15_000,
        "two shards must absorb most of 1.5x single-server load ({} of {})",
        ra.completed,
        ra.n_arrivals
    );
}

/// Kill-at-scaling-boundary: snapshot exactly while the autoscaler is
/// mid-scale (highest lane draining), restore, and finish both. The
/// restored server must resume the same lane geometry, drain mark, and
/// schedule — bitwise elapsed time and identical scale-event counts.
#[test]
fn checkpoint_mid_scale_restores_the_exact_schedule() {
    let backend = tiny_backend();
    let mut cfg = soak_cfg(vec![TenantQuota::new(1)]);
    cfg.queue_capacity = 64;
    let mut autoscale = AutoscaleConfig::new(1, 3);
    autoscale.scale_up_queue_per_lane = 2;
    autoscale.scale_down_occupancy = 0.9; // shrink as soon as the burst passes
    autoscale.cooldown_ticks = 0;
    let cfg = cfg.with_autoscale(autoscale);

    let mut server = EnsembleServer::new(&backend, cfg.clone());
    // a burst of long cases deep enough to scale up to 3 lanes, with
    // trailing in-flight work when the queue finally empties
    for i in 0..30u64 {
        server
            .admit(SolveRequest::new(4_000 + i, 6))
            .expect("admit burst");
    }
    // ...then tick until the burst passes and a lane starts draining
    let mut drain_tick = None;
    for _ in 0..200 {
        server.tick();
        if server.autoscaler().draining {
            drain_tick = Some(server.ticks());
            break;
        }
    }
    drain_tick.expect("the burst must trigger a scale-up and a later drain");
    assert!(server.lanes() > 1, "snapshot must land mid-scale");
    assert!(server.in_flight() > 0, "snapshot must be mid-flight");

    // the kill: serialize at the scaling boundary, then restore
    let bytes = server.checkpoint().to_bytes();
    let mut restored = EnsembleServer::restore(&backend, cfg, &bytes).expect("restore mid-scale");
    assert_eq!(restored.lanes(), server.lanes(), "lane geometry survives");
    assert!(
        restored.autoscaler().draining,
        "the drain mark must survive the round trip"
    );
    assert_eq!(restored.autoscaler().events, server.autoscaler().events);

    server.run_until_idle();
    restored.run_until_idle();
    assert_eq!(restored.ticks(), server.ticks(), "same tick count to idle");
    assert_eq!(
        restored.elapsed().to_bits(),
        server.elapsed().to_bits(),
        "modeled clock must agree bitwise after the restore"
    );
    assert_eq!(
        restored.stats().count(ServeCounter::Completed),
        server.stats().count(ServeCounter::Completed),
        "every burst case completes on both timelines"
    );
    assert_eq!(
        restored.stats().count(ServeCounter::AutoscaleEvents),
        server.stats().count(ServeCounter::AutoscaleEvents),
        "the restored run finishes the same scaling story"
    );
    assert_eq!(restored.lanes(), 1, "both runs shrink back to the floor");
    assert_eq!(server.lanes(), 1);
}
