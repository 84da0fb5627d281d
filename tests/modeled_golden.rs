//! The modeled rows as a golden. Every GH200/Alps number the repository
//! reports comes from the roofline and transaction model, so the model's
//! output on one reference problem is pinned here: the four method rows and
//! the adaptive-window log, the partition, serving under both batch
//! policies, the sharded cluster and its failover, the QoS burst soak,
//! checkpoint write and resume, SDC flips and telemetry counts — all on the
//! 945-DOF `paper_like 4×3×2` stratified mesh over 24 steps.
//!
//! Each section is built the way a `MetricsSink` document carries it and
//! compared against `tests/data/modeled_golden.json`, numbers bit for bit
//! after a text round trip; a failure names the first differing path and
//! both values. Only modeled leaves are pinned: wall-clock costs are
//! `hetbench`'s. A deliberate model change re-records the file with
//! `record_modeled_golden` (ignored), which `cargo test --release --
//! --ignored record` runs with every other recorder of `tests/data`.

use std::collections::BTreeSet;

use hetsolve::core::IntegrityConfig;
use hetsolve::fault::StateField;
use hetsolve::load::{soak_server, ArrivalLog, LoadConfig, TrafficShape};
use hetsolve::obs::{
    names, parse_json, FlightRecorder, Json, MethodMetrics, MetricsRegistry, MetricsSink,
    ServeCounter,
};
use hetsolve::prelude::*;
use hetsolve::serve::{AutoscaleConfig, ClusterConfig, ClusterServer, QosConfig, TenantQuota};

const STEPS: usize = 24;

const GOLDEN: &str = include_str!("data/modeled_golden.json");

/// Builds one section of the document on the reference backend.
type Section = fn(&Backend) -> Json;

/// The document's sections after the method rows, in the order they are
/// attached, and one `#[test]` each (`section::<name>`) so they run in
/// parallel. `window_log` comes with the method rows.
macro_rules! sections {
    ($($name:ident),*) => {
        const SECTIONS: &[(&str, Section)] = &[$((stringify!($name), $name)),*];

        mod section {
            $(#[test]
            fn $name() {
                super::check_section(stringify!($name), super::$name);
            })*
        }
    };
}
sections!(partition, serve, cluster, qos, checkpoint, sdc, telemetry);

/// The reference problem: small enough for seconds in a test build, large
/// enough that the four methods order as in the paper.
fn backend() -> Backend {
    let spec = GroundModelSpec::paper_like(4, 3, 2, InterfaceShape::Stratified);
    let b = Backend::new(FemProblem::paper_like(&spec), true, false);
    assert_eq!(b.n_dofs(), 945);
    b
}

fn bench_config(method: MethodKind) -> RunConfig {
    let mut cfg = RunConfig::new(method, single_gh200(), STEPS);
    cfg.r = 2;
    cfg.s_max = 6;
    cfg.region_dofs = 300;
    cfg.load = RandomLoadSpec {
        n_sources: 4,
        impulses_per_source: 2.0,
        amplitude: 1e6,
        active_window: 0.2,
    };
    cfg
}

/// Meta, the four method rows (speedup against CRS-CG@CPU) and the
/// proposed method's adaptive-window log.
fn head(backend: &Backend) -> MetricsSink {
    let mut sink = MetricsSink::new();
    sink.set_meta("mesh", Json::from("paper_like 4x3x2 stratified"));
    sink.set_meta("n_dofs", Json::from(backend.n_dofs()));
    sink.set_meta("n_steps", Json::from(STEPS));

    let mut rows: Vec<MethodMetrics> = Vec::new();
    for method in [
        MethodKind::CrsCgCpu,
        MethodKind::CrsCgGpu,
        MethodKind::CrsCgCpuGpu,
        MethodKind::EbeMcgCpuGpu,
    ] {
        let mut tracer = StepTracer::new();
        run_with(
            backend,
            &bench_config(method),
            Hooks::default().tracer(&mut tracer),
        )
        .unwrap_or_else(|e| panic!("{method:?}: {e}"));
        rows.extend(tracer.sink.methods().iter().cloned());
        if method == MethodKind::EbeMcgCpuGpu {
            let log = tracer.sink.to_json();
            let log = log.get("sections").and_then(|s| s.get("window_log"));
            sink.set_section("window_log", log.expect("a window log").clone());
        }
    }
    let base = rows[0].step_time_s;
    for mut row in rows {
        row.speedup = base / row.step_time_s;
        sink.push_method(row);
    }
    sink
}

fn partition(backend: &Backend) -> Json {
    PartitionedProblem::new(&backend.problem, 4, false)
        .metrics()
        .to_json()
}

/// The reference serving workload (two long cases and a burst of short
/// ones, queue depth 2× the fused width) under both batch policies.
fn serve(backend: &Backend) -> Json {
    let stats = |policy: BatchPolicy| {
        let mut cfg = ServeConfig::new(single_gh200());
        cfg.run = bench_config(MethodKind::EbeMcgCpuGpu);
        cfg.run.r = 4;
        cfg.run.s_max = 1; // uniform per-step iterations: isolates occupancy
        cfg.policy = policy;
        let mut server = EnsembleServer::new(backend, cfg);
        // distinct priorities pin one long + three shorts into each lane's
        // initial fill under both policies
        for (i, n_steps) in [16, 4, 4, 4, 16, 4, 4, 4].into_iter().enumerate() {
            let req = SolveRequest::new(9_000 + i as u64, n_steps).with_priority(255 - i as u8);
            server.admit(req).expect("admit");
        }
        for k in 0..18u64 {
            let req = SolveRequest::new(9_100 + k, 4).with_priority(100);
            server.admit(req).expect("admit");
        }
        server.run_until_idle();
        server.stats().to_json()
    };
    Json::obj([
        ("continuous", stats(BatchPolicy::Continuous)),
        ("drain_then_refill", stats(BatchPolicy::DrainThenRefill)),
    ])
}

/// One cluster-serving config on the Alps node model (real interconnect,
/// so steals and replica mirrors cost modeled link time).
fn cluster_cfg(shards: usize) -> ClusterConfig {
    let mut cfg = ServeConfig::new(alps_node());
    cfg.run = bench_config(MethodKind::EbeMcgCpuGpu);
    cfg.run.node = alps_node();
    cfg.run.r = 4;
    cfg.run.s_max = 1; // uniform per-step iterations: isolates scheduling
    ClusterConfig::new(cfg, shards)
}

/// Weak scaling across 1/2/4 shards (8 requests per shard) and one node-0
/// crash on 2 shards with restart-on-peer.
fn cluster(backend: &Backend) -> Json {
    let mut scaling = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut cluster = ClusterServer::new(backend, cluster_cfg(shards));
        for i in 0..8 * shards {
            let req = SolveRequest::new(9_500 + i as u64, 6);
            cluster.admit(req).expect("admit");
        }
        cluster.run_until_idle();
        let stats = cluster.stats();
        scaling.push(Json::obj([
            ("shards", Json::from(shards)),
            ("cases", Json::from(stats.count(ServeCounter::Completed))),
            ("cases_per_sec", Json::from(stats.cases_per_sec())),
            ("elapsed_s", Json::from(stats.elapsed_s())),
            ("stolen", Json::from(stats.count(ServeCounter::Stolen))),
            (
                "replica_writes",
                cluster
                    .metrics_registry()
                    .counter(names::SERVE_REPLICA_WRITES_TOTAL)
                    .into(),
            ),
            ("link_time_s", Json::from(cluster.traffic().link_time_s)),
        ]));
    }

    let plan = FaultPlan::new(5).crash_node(2, 0);
    let mut cluster = ClusterServer::with_faults(backend, cluster_cfg(2), plan);
    for i in 0..16usize {
        let req = SolveRequest::new(9_700 + i as u64, 6);
        cluster.admit(req).expect("admit");
    }
    cluster.run_until_idle();
    let stats = cluster.stats();
    assert_eq!(
        stats.count(ServeCounter::Failovers),
        1,
        "failover must restore on a peer"
    );
    assert_eq!(
        stats.count(ServeCounter::Completed),
        16,
        "failover must lose no case"
    );
    Json::obj([
        ("weak_scaling", Json::Arr(scaling)),
        (
            "failover",
            Json::obj([
                ("shards", Json::from(2usize)),
                ("recovery_s", Json::from(cluster.recovery_latencies()[0])),
                (
                    "node_crashes",
                    Json::from(stats.count(ServeCounter::NodeCrashes)),
                ),
                (
                    "failovers",
                    Json::from(stats.count(ServeCounter::Failovers)),
                ),
                ("evicted", Json::from(stats.count(ServeCounter::Evicted))),
            ]),
        ),
    ])
}

/// A seeded three-tenant flash crowd through the fair-share scheduler and
/// the lane autoscaler. Arrival rates derive from the server's own modeled
/// step floor, so the burst overloads it by construction.
fn qos(backend: &Backend) -> Json {
    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run = bench_config(MethodKind::EbeMcgCpuGpu);
    cfg.run.r = 4;
    cfg.run.s_max = 1; // uniform per-step iterations: isolates scheduling
    cfg.queue_capacity = 256;
    let cfg = cfg
        .with_qos(QosConfig::new(vec![
            TenantQuota::new(4),
            TenantQuota::new(2).with_queue_share(0.5),
            TenantQuota::new(1)
                .with_queue_share(0.25)
                .with_max_in_flight(4),
        ]))
        .with_autoscale(AutoscaleConfig::new(1, 4))
        .with_keep_results(false);
    let mut server = EnsembleServer::new(backend, cfg);

    // lanes time-share the device, so throughput is set by the fused width
    // r per step floor (halved for transfer/refill overhead), not by
    // lanes × r
    let floor = server.step_floor_s();
    let capacity_rps = 2.0 / (2.5 * floor);
    const N_REQUESTS: usize = 800;
    let base_rps = 0.6 * capacity_rps;
    let horizon_s = N_REQUESTS as f64 / base_rps;
    let load = LoadConfig::new(0x9a05, N_REQUESTS, base_rps)
        .with_shape(TrafficShape::Burst {
            base_rps,
            burst_rps: 2.5 * capacity_rps,
            start_s: 0.35 * horizon_s,
            len_s: 0.1 * horizon_s,
        })
        .with_tenants(3, 1.1)
        .with_steps(2, 3)
        .with_priorities(3)
        .with_deadline_slack(400.0 * floor);
    let report = soak_server(&mut server, &ArrivalLog::generate(&load));
    let stats = server.stats();
    let shed_rate = (report.shed + report.shed_early) as f64 / report.n_arrivals.max(1) as f64;
    let served = report
        .tenants
        .iter()
        .map(|t| Json::from(t.served_steps as usize));
    Json::obj([
        ("n_arrivals", Json::from(report.n_arrivals)),
        ("admitted", Json::from(report.admitted)),
        ("completed", Json::from(report.completed)),
        ("shed", Json::from(report.shed)),
        ("shed_early", Json::from(report.shed_early)),
        ("shed_rate", Json::from(shed_rate)),
        ("p50_s", Json::from(stats.latency_percentile(0.50))),
        ("p99_s", Json::from(stats.latency_percentile(0.99))),
        ("p999_s", Json::from(stats.latency_percentile(0.999))),
        ("deadline_miss_rate", Json::from(report.deadline_miss_rate)),
        ("autoscale_events", Json::from(report.autoscale_events)),
        ("peak_queue_depth", Json::from(report.peak_queue_depth)),
        ("ticks", Json::from(report.ticks)),
        ("modeled_elapsed_s", Json::from(report.modeled_elapsed_s)),
        ("tenant_served_steps", Json::Arr(served.collect())),
    ])
}

/// The durable driver on the reference EBE-MCG run: a fresh run writes
/// checkpoints, a second run against the same store resumes from the last.
fn checkpoint(backend: &Backend) -> Json {
    let cfg = bench_config(MethodKind::EbeMcgCpuGpu);
    let dir = std::env::temp_dir().join(format!("hs-modeled-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir, 3).expect("open checkpoint store");
    let policy = CheckpointPolicy { every: 4, keep: 3 };
    let durable_run = || {
        let mut tracer = StepTracer::new();
        let hooks = Hooks::default().tracer(&mut tracer).durable(&store, policy);
        let res = run_with(backend, &cfg, hooks).expect("durable run");
        res.durable.expect("a run with a store")
    };
    let fresh = durable_run();
    let resumed = durable_run();
    std::fs::remove_dir_all(&dir).unwrap();
    Json::obj([
        ("every_steps", Json::from(policy.every)),
        ("checkpoints_written", Json::from(fresh.checkpoints_written)),
        ("checkpoint_bytes", Json::from(fresh.checkpoint_bytes)),
        (
            "resumed_from_step",
            Json::from(resumed.resumed_from.unwrap_or(0)),
        ),
    ])
}

fn bitwise_eq(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()))
}

/// Seeded single-bit flips on every guarded target at three step
/// boundaries, each detected and repaired bitwise, and the serving layer's
/// modeled detect → recover latency.
fn sdc(backend: &Backend) -> Json {
    let on_cfg = bench_config(MethodKind::EbeMcgCpuGpu);
    let mut off_cfg = on_cfg.clone();
    off_cfg.integrity = IntegrityConfig::disabled();
    let clean = run(backend, &on_cfg).expect("clean run");
    let baseline = run(backend, &off_cfg).expect("run without detection");
    assert!(clean.corruptions.is_empty(), "a clean run reports nothing");
    assert!(
        bitwise_eq(&clean.final_u, &baseline.final_u),
        "detection must leave a clean run bitwise-unchanged"
    );

    let (mut injected, mut detected, mut recovered) = (0usize, 0usize, 0usize);
    for step in [3usize, 9, 15] {
        for mut plan in [
            FaultPlan::new(0x5dc).flip_state(step, 0, StateField::U),
            FaultPlan::new(0x5dc).flip_state(step, 0, StateField::V),
            FaultPlan::new(0x5dc).flip_state(step, 0, StateField::A),
            FaultPlan::new(0x5dc).flip_rhs(step, 0),
            FaultPlan::new(0x5dc).flip_operator(step),
            FaultPlan::new(0x5dc).flip_basis(step, 0),
        ] {
            injected += 1;
            let result = run_with(backend, &on_cfg, Hooks::default().faults(&mut plan))
                .expect("an injected flip must recover, not fail");
            detected += usize::from(!result.corruptions.is_empty());
            recovered += usize::from(bitwise_eq(&result.final_u, &clean.final_u));
        }
    }
    assert_eq!(detected, injected, "every injected flip must be detected");
    assert_eq!(recovered, injected, "every recovery must be bitwise");

    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run = bench_config(MethodKind::EbeMcgCpuGpu);
    cfg.run.r = 4;
    cfg.run.s_max = 1;
    let plan = FaultPlan::new(0x5dc)
        .flip_state(2, 0, StateField::U)
        .flip_rhs(3, 1);
    let mut server = EnsembleServer::with_faults(backend, cfg, plan);
    for i in 0..4u64 {
        let req = SolveRequest::new(9_900 + i, 8);
        server.admit(req).expect("admit");
    }
    server.run_until_idle();
    let stats = server.stats();
    assert!(
        stats.count(ServeCounter::SdcDetected) >= 2,
        "a serve flip went undetected"
    );
    assert_eq!(
        stats.count(ServeCounter::Completed),
        4,
        "no request may be lost"
    );
    Json::obj([
        ("flips_injected", Json::from(injected)),
        ("flips_detected", Json::from(detected)),
        ("flips_recovered_bitwise", Json::from(recovered)),
        (
            "serve_sdc_detected",
            Json::from(stats.count(ServeCounter::SdcDetected)),
        ),
        (
            "serve_sdc_recovery_p50_s",
            Json::from(stats.sdc_recovery().quantile(0.50)),
        ),
    ])
}

/// A registry attached to a disabled tracer observes every step, and a
/// full default-capacity flight ring dumps to a fixed size.
fn telemetry(backend: &Backend) -> Json {
    let mut tracer = StepTracer::disabled();
    tracer.attach_registry(MetricsRegistry::new());
    run_with(
        backend,
        &bench_config(MethodKind::EbeMcgCpuGpu),
        Hooks::default().tracer(&mut tracer),
    )
    .expect("observed run");
    let reg = tracer.take_registry().expect("registry attached above");
    assert_eq!(
        reg.counter(names::CORE_STEPS_TOTAL) as usize,
        STEPS,
        "the registry must observe every step"
    );

    let mut ring = FlightRecorder::default();
    for i in 0..ring.capacity() as u64 {
        ring.record(i as f64, "step", Some(i), Some(0), Some(i), "bench fill");
    }
    // the text `FlightRecorder::dump_to` writes
    let dump = ring.to_json("bench").to_string_pretty();
    Json::obj([
        (
            "registry_steps_total",
            Json::from(reg.counter(names::CORE_STEPS_TOTAL)),
        ),
        ("flight_dump_events", Json::from(ring.len())),
        ("flight_dump_bytes", Json::from(dump.len())),
    ])
}

/// The whole document, as `record_modeled_golden` writes it.
fn document(backend: &Backend) -> MetricsSink {
    let mut sink = head(backend);
    for (name, section) in SECTIONS {
        sink.set_section(name, section(backend));
    }
    sink
}

fn golden() -> Json {
    parse_json(GOLDEN).expect("tests/data/modeled_golden.json parses")
}

/// The first leaf at which `got` and `want` differ (numbers by bit
/// pattern), as `path: got …, golden …`.
fn first_diff(path: &str, got: &Json, want: &Json) -> Option<String> {
    match (got, want) {
        (Json::Num(g), Json::Num(w)) => {
            (g.to_bits() != w.to_bits()).then(|| describe(path, Some(got), Some(want)))
        }
        (Json::Arr(g), Json::Arr(w)) if g.len() == w.len() => g
            .iter()
            .zip(w)
            .enumerate()
            .find_map(|(i, (g, w))| first_diff(&format!("{path}[{i}]"), g, w)),
        (Json::Obj(g), Json::Obj(w)) => {
            let keys: BTreeSet<&String> = g.keys().chain(w.keys()).collect();
            keys.into_iter().find_map(|k| {
                let at = format!("{path}.{k}");
                match (g.get(k), w.get(k)) {
                    (Some(g), Some(w)) => first_diff(&at, g, w),
                    (g, w) => Some(describe(&at, g, w)),
                }
            })
        }
        (g, w) => (g != w).then(|| describe(path, Some(g), Some(w))),
    }
}

fn describe(path: &str, got: Option<&Json>, want: Option<&Json>) -> String {
    let show = |v: Option<&Json>| v.map_or("(absent)".to_string(), Json::to_string_compact);
    let path = path.trim_start_matches('.');
    format!("{path}: got {}, golden {}", show(got), show(want))
}

/// Compare `got` against the golden's subtree `want` at `path`, after the
/// text round trip the recorder's file goes through.
fn assert_golden(path: &str, got: &Json, want: &Json) {
    let got = parse_json(&got.to_string_pretty()).expect("the writer's output parses");
    if let Some(diff) = first_diff(path, &got, want) {
        panic!("modeled row moved: {diff}");
    }
}

fn check_section(name: &str, section: Section) {
    let golden = golden();
    let path = format!("sections.{name}");
    let want = golden.get("sections").and_then(|s| s.get(name));
    let want = want.unwrap_or_else(|| panic!("{path}: not in the golden"));
    assert_golden(&path, &section(&backend()), want);
}

/// Everything but the sections that have a test of their own: meta, the
/// method rows and the window log — and no part of the golden left unchecked.
#[test]
fn methods_meta_and_window_log() {
    let mut want = golden();
    if let Json::Obj(top) = &mut want {
        if let Some(Json::Obj(sections)) = top.get_mut("sections") {
            sections.retain(|name, _| SECTIONS.iter().all(|(n, _)| n != name));
        }
    }
    assert_golden("", &head(&backend()).to_json(), &want);
}

#[test]
#[ignore = "rewrites tests/data/modeled_golden.json from the code under test"]
fn record_modeled_golden() {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/modeled_golden.json");
    document(&backend()).write_to(path).unwrap();
}
