//! The distributed-serving acceptance suite (DESIGN.md §15): the
//! deterministic router places identically under a fixed seed across
//! reruns and shard counts, work stealing rebalances queued requests
//! through modeled link costs without perturbing numerics, the cluster
//! checkpoint round-trips to a bitwise-identical continuation, and merged
//! [`ServeStats`] count every case exactly once across shards.
//!
//! [`ServeStats`]: hetsolve::obs::ServeStats

use hetsolve::ckpt::mix64;
use hetsolve::fem::FemProblem;
use hetsolve::obs::{names, ServeCounter};
use hetsolve::prelude::*;
use hetsolve::serve::{
    ClusterConfig, ClusterServer, EnsembleServer, RequestId, RequestState, ServeConfig,
    SolveRequest, TenantId,
};

fn backend() -> Backend {
    let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
    Backend::new(FemProblem::paper_like(&spec), true, false)
}

// the cluster suite runs on the Alps node model: unlike `single_gh200`
// (infinite-bandwidth local interconnect), it has a real cross-node link
// to charge steals and replica mirrors against
fn serve_cfg(r: usize) -> ServeConfig {
    let mut cfg = ServeConfig::new(alps_node());
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

fn cluster_cfg(shards: usize) -> ClusterConfig {
    ClusterConfig::new(serve_cfg(2), shards)
}

/// A request mix with colliding priorities and deadlines, so placement
/// and drain order both exercise the seeded tie-breaks.
fn contended_requests() -> Vec<SolveRequest> {
    (0..8u64)
        .map(|c| {
            let mut r = SolveRequest::new(700 + c, 3);
            r.priority = (c % 2) as u8;
            r.deadline = if c % 3 == 0 { Some(1e6) } else { None };
            r
        })
        .collect()
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (&p, &q)) in a.iter().zip(b).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "{what}: dof {i}: {p:e} != {q:e}");
    }
}

/// Satellite 1 regression: under a fixed placement seed, the router's
/// shard assignment and the full drain schedule are identical across
/// reruns, for every shard count — and each request's trajectory is
/// bitwise-identical to a solo server of the same seed regardless of
/// where it was placed.
#[test]
fn placement_and_drain_order_are_deterministic_under_fixed_seed() {
    let backend = backend();
    let requests = contended_requests();

    let mut solo = EnsembleServer::new(&backend, serve_cfg(2));
    let solo_ids: Vec<RequestId> = requests
        .iter()
        .map(|&r| solo.admit(r).expect("solo admit"))
        .collect();
    solo.run_until_idle();

    for shards in [1usize, 2, 4] {
        let run = |_: usize| {
            let mut cluster = ClusterServer::new(&backend, cluster_cfg(shards));
            let ids: Vec<RequestId> = requests
                .iter()
                .map(|&r| cluster.admit(r).expect("admit"))
                .collect();
            cluster.run_until_idle();
            let placements: Vec<(usize, u64)> = ids.iter().map(|&id| cluster.route(id)).collect();
            // the drain schedule, observed as each request's modeled
            // completion time (bit-exact, so any reorder shows up)
            let finish: Vec<u64> = ids
                .iter()
                .map(|&id| cluster.record(id).finished_at.expect("finished").to_bits())
                .collect();
            let results: Vec<Vec<f64>> = ids
                .iter()
                .map(|&id| cluster.result(id).expect("result"))
                .collect();
            (placements, finish, results)
        };
        let (p1, f1, r1) = run(0);
        let (p2, f2, r2) = run(1);
        assert_eq!(p1, p2, "{shards} shards: placement must replay exactly");
        assert_eq!(
            f1, f2,
            "{shards} shards: drain schedule must replay exactly"
        );
        for (k, (a, b)) in r1.iter().zip(&r2).enumerate() {
            assert_bitwise_eq(a, b, &format!("{shards} shards rerun, request {k}"));
        }
        for (k, (a, &sid)) in r1.iter().zip(&solo_ids).enumerate() {
            assert_bitwise_eq(
                a,
                solo.result(sid).expect("solo result"),
                &format!("{shards} shards vs solo, request {k}"),
            );
        }
    }
}

/// A different placement seed may shuffle requests onto different shards,
/// but never changes any trajectory: placement is scheduling, not
/// numerics.
#[test]
fn placement_seed_shuffles_shards_but_not_bits() {
    let backend = backend();
    let requests = contended_requests();
    let run = |placement_seed: u64| {
        let mut cfg = cluster_cfg(4);
        cfg.placement_seed = placement_seed;
        let mut cluster = ClusterServer::new(&backend, cfg);
        let ids: Vec<RequestId> = requests
            .iter()
            .map(|&r| cluster.admit(r).expect("admit"))
            .collect();
        cluster.run_until_idle();
        ids.iter()
            .map(|&id| cluster.result(id).expect("result"))
            .collect::<Vec<_>>()
    };
    let a = run(0xc1a5);
    let b = run(0xdead_beef);
    for (k, (ra, rb)) in a.iter().zip(&b).enumerate() {
        assert_bitwise_eq(ra, rb, &format!("placement-seed independence, request {k}"));
    }
}

/// Satellite 1: co-draining shards must not share a tie-break stream —
/// shard `i` schedules with `mix64(base, i)`.
#[test]
fn shard_scheduler_seeds_are_uncorrelated() {
    let cfg = cluster_cfg(4);
    let base = cfg.serve.sched_seed;
    let mut seen = std::collections::HashSet::new();
    for i in 0..4 {
        let s = cfg.shard_cfg(i).sched_seed;
        assert_eq!(s, mix64(base, i as u64));
        assert!(seen.insert(s), "shard {i} reuses another shard's seed");
    }
}

/// Work stealing: pile affinity-routed work onto one shard, leave the
/// other idle, and the idle node must pull queued requests across the
/// modeled link — counted once, charged to the link ledger, and with
/// every result still bitwise-equal to solo.
#[test]
fn stealing_rebalances_queued_work_without_touching_numerics() {
    let backend = backend();
    let mut solo = EnsembleServer::new(&backend, serve_cfg(2));
    let mut cluster = ClusterServer::new(&backend, cluster_cfg(2));

    // key one shard's lanes first, then flood: affinity routes every
    // same-tolerance request to the keyed shard, starving the other
    let first = SolveRequest::new(800, 4);
    let solo_first = solo.admit(first).expect("solo admit");
    let cl_first = cluster.admit(first).expect("admit");
    cluster.tick();
    let keyed = cluster.route(cl_first).0;

    let mut ids = vec![(solo_first, cl_first)];
    for c in 1..7u64 {
        let r = SolveRequest::new(800 + c, 4);
        let sid = solo.admit(r).expect("solo admit");
        let cid = cluster.admit(r).expect("admit");
        assert_eq!(
            cluster.route(cid).0,
            keyed,
            "same CompatKey must route to the keyed shard"
        );
        ids.push((sid, cid));
    }
    assert!(
        cluster.shards()[1 - keyed].queue_depth() == 0,
        "the other shard starts starved"
    );

    solo.run_until_idle();
    cluster.run_until_idle();

    let stats = cluster.stats();
    assert!(
        stats.count(ServeCounter::Stolen) > 0,
        "the idle node must steal"
    );
    assert_eq!(
        stats.count(ServeCounter::Completed),
        ids.len(),
        "each case completes once"
    );
    let traffic = cluster.traffic();
    assert_eq!(traffic.steal_msgs, stats.count(ServeCounter::Stolen) as u64);
    assert!(traffic.steal_bytes > 0.0);
    assert!(
        traffic.link_time_s > 0.0,
        "steals must cost modeled link time"
    );
    let steal_events = cluster
        .flight()
        .events()
        .filter(|e| e.kind == "steal")
        .count();
    assert_eq!(steal_events, stats.count(ServeCounter::Stolen));
    assert!(
        ids.iter().any(|&(_, cid)| cluster.route(cid).0 != keyed),
        "a stolen request's route must follow it to the thief"
    );

    for (k, &(sid, cid)) in ids.iter().enumerate() {
        assert_eq!(cluster.state(cid), RequestState::Done, "request {k}");
        assert_bitwise_eq(
            &cluster.result(cid).expect("cluster result"),
            solo.result(sid).expect("solo result"),
            &format!("stolen-work equivalence, request {k}"),
        );
    }
}

/// A severed link defers replica mirroring (skipped + counted, never
/// silently dropped) and heals at the next boundary — with zero effect
/// on the served results.
#[test]
fn partitioned_link_defers_replication_and_heals() {
    let backend = backend();
    let requests: Vec<SolveRequest> = (0..4u64).map(|c| SolveRequest::new(820 + c, 3)).collect();

    let run = |plan: FaultPlan| {
        let mut cluster = ClusterServer::with_faults(&backend, cluster_cfg(2), plan);
        let ids: Vec<RequestId> = requests
            .iter()
            .map(|&r| cluster.admit(r).expect("admit"))
            .collect();
        cluster.run_until_idle();
        let results: Vec<Vec<f64>> = ids
            .iter()
            .map(|&id| cluster.result(id).expect("result"))
            .collect();
        let skipped = cluster
            .flight()
            .events()
            .filter(|e| e.kind == "replica_skipped")
            .count();
        (
            results,
            cluster.stats().count(ServeCounter::Completed),
            skipped,
        )
    };

    let (plain, done_plain, skipped_plain) = run(FaultPlan::new(43));
    assert_eq!(skipped_plain, 0);
    // node 0 ↔ node 1 is exactly the mirror path (peer = (i + 1) % n)
    let (parted, done_parted, skipped_parted) = run(FaultPlan::new(43).partition_link(1, 0, 1));
    assert_eq!(done_plain, done_parted);
    assert_eq!(
        skipped_parted, 2,
        "both directions of the node 0 ↔ 1 mirror skip at the severed boundary"
    );
    for (k, (a, b)) in plain.iter().zip(&parted).enumerate() {
        assert_bitwise_eq(a, b, &format!("partition neutrality, request {k}"));
    }
}

/// Cluster checkpoint round trip: snapshot a mid-flight cluster, restore
/// it, and finish both. Counters resume (not reset) and every request
/// finishes bitwise-identically on both sides.
#[test]
fn cluster_checkpoint_round_trip_resumes_bitwise() {
    let backend = backend();
    let requests = contended_requests();
    let mut original = ClusterServer::new(&backend, cluster_cfg(2));
    let ids: Vec<RequestId> = requests
        .iter()
        .map(|&r| original.admit(r).expect("admit"))
        .collect();
    for _ in 0..3 {
        original.tick();
    }
    let bytes = original.checkpoint_bytes();

    let mut restored =
        ClusterServer::restore(&backend, cluster_cfg(2), &bytes).expect("restore cluster");
    assert_eq!(restored.ticks(), original.ticks());
    assert_eq!(restored.admitted(), original.admitted());
    for &id in &ids {
        assert_eq!(
            restored.route(id),
            original.route(id),
            "routes must survive"
        );
    }

    original.run_until_idle();
    restored.run_until_idle();
    assert_eq!(
        original.stats().count(ServeCounter::Completed),
        restored.stats().count(ServeCounter::Completed),
        "completion counters must resume, not reset"
    );
    assert_eq!(
        original.elapsed().to_bits(),
        restored.elapsed().to_bits(),
        "modeled timelines must match bitwise"
    );
    for (k, &id) in ids.iter().enumerate() {
        assert_bitwise_eq(
            &original.result(id).expect("original result"),
            &restored.result(id).expect("restored result"),
            &format!("round trip, request {k}"),
        );
    }

    // a snapshot from a different cluster layout is typed corruption
    assert!(
        ClusterServer::restore(&backend, cluster_cfg(4), &bytes).is_err(),
        "foreign shard count must be rejected"
    );
    let mut other = cluster_cfg(2);
    other.placement_seed ^= 1;
    assert!(
        ClusterServer::restore(&backend, other, &bytes).is_err(),
        "foreign placement seed must fail the fingerprint"
    );
}

/// Satellite 6 at cluster scope: merged stats count each case exactly
/// once — totals equal the per-shard sums plus cluster-only counters, and
/// the merged latency histogram holds one observation per completion.
#[test]
fn merged_cluster_stats_do_not_double_count() {
    let backend = backend();
    let requests = contended_requests();
    let mut cluster = ClusterServer::new(&backend, cluster_cfg(2));
    for &r in &requests {
        cluster.admit(r).expect("admit");
    }
    cluster.run_until_idle();

    let merged = cluster.stats();
    assert_eq!(merged.count(ServeCounter::Completed), requests.len());
    let shard_completed: usize = cluster
        .shards()
        .iter()
        .map(|s| s.stats().count(ServeCounter::Completed))
        .sum();
    assert_eq!(merged.count(ServeCounter::Completed), shard_completed);
    let shard_latency_total: u64 = cluster
        .shards()
        .iter()
        .map(|s| s.stats().latency().total())
        .sum();
    assert_eq!(merged.latency().total(), shard_latency_total);
    assert_eq!(merged.latency().total(), requests.len() as u64);
    // steals are cluster-level events: counted once, never by a shard
    let shard_stolen: usize = cluster
        .shards()
        .iter()
        .map(|s| s.stats().count(ServeCounter::Stolen))
        .sum();
    assert_eq!(shard_stolen, 0);
    // calling stats() again merges fresh — no accumulation drift
    assert_eq!(
        cluster.stats().count(ServeCounter::Completed),
        merged.count(ServeCounter::Completed)
    );
    assert_eq!(
        merged.elapsed_s(),
        cluster.elapsed(),
        "cluster elapsed is the slowest shard, not the sum"
    );
}

/// The telemetry snapshot exports the cluster-only series under their
/// declared metric names, including per-failover recovery latency.
#[test]
fn metrics_registry_exports_cluster_series() {
    let backend = backend();
    let requests: Vec<SolveRequest> = (0..4u64).map(|c| SolveRequest::new(840 + c, 3)).collect();
    let plan = FaultPlan::new(47).crash_node(1, 0);
    let mut cluster = ClusterServer::with_faults(&backend, cluster_cfg(2), plan);
    for &r in &requests {
        cluster.admit(r).expect("admit");
    }
    cluster.run_until_idle();

    let reg = cluster.metrics_registry();
    assert_eq!(reg.counter(names::SERVE_REQUESTS_ADMITTED_TOTAL), 4.0);
    assert_eq!(reg.counter(names::SERVE_REQUESTS_COMPLETED_TOTAL), 4.0);
    assert_eq!(reg.counter(names::SERVE_NODE_CRASHES_TOTAL), 1.0);
    assert_eq!(reg.counter(names::SERVE_FAILOVERS_TOTAL), 1.0);
    assert_eq!(reg.gauge(names::SERVE_SHARDS), Some(2.0));
    assert!(reg.counter(names::SERVE_REPLICA_WRITES_TOTAL) > 0.0);
    assert!(reg.gauge(names::SERVE_LINK_TIME_S).unwrap_or(0.0) > 0.0);
    let rec = reg
        .histogram(names::SERVE_FAILOVER_RECOVERY_S)
        .expect("recovery histogram");
    assert_eq!(rec.total(), 1);
    assert!(rec.min() >= 0.0);
}

/// A refused admission is one outcome, counted once: the router tries
/// every shard before it sheds, but the request is refused once — in the
/// merged counters, the tenant's row and the exported registry alike. An
/// injected refusal at the router reaches the tenant's row too.
#[test]
fn a_refused_admit_counts_once_however_many_shards_tried() {
    let backend = backend();
    let mut cfg = cluster_cfg(2);
    cfg.serve.queue_capacity = 2;
    let mut cluster = ClusterServer::new(&backend, cfg);
    let refused = (0..6u64)
        .filter(|&c| cluster.admit(SolveRequest::new(860 + c, 3)).is_err())
        .count();
    assert_eq!(refused, 2, "two shards of two queue slots take four");
    let stats = cluster.stats();
    assert_eq!(stats.count(ServeCounter::Shed), refused);
    let tenant = stats.tenant(0).expect("tenant 0 accounted");
    assert_eq!(tenant.count(ServeCounter::Shed), refused);
    let reg = cluster.metrics_registry();
    assert_eq!(
        reg.counter(names::SERVE_REQUESTS_SHED_TOTAL),
        refused as f64
    );
    assert_eq!(reg.counter(names::SERVE_REQUESTS_ADMITTED_TOTAL), 4.0);

    let plan = FaultPlan::new(53).reject_admission(0).shed_admission(1);
    let mut cluster = ClusterServer::with_faults(&backend, cluster_cfg(2), plan);
    for c in 0..2u64 {
        let request = SolveRequest::new(870 + c, 3).with_tenant(TenantId(1));
        assert!(cluster.admit(request).is_err(), "admission {c} is injected");
    }
    let stats = cluster.stats();
    let tenant = stats.tenant(1).expect("tenant 1 accounted");
    assert_eq!(tenant.count(ServeCounter::Rejected), 1);
    assert_eq!(tenant.count(ServeCounter::Shed), 1);
    assert_eq!(stats.count(ServeCounter::Rejected), 1);
    assert_eq!(stats.count(ServeCounter::Shed), 1);
}
