//! `cargo xtask bench-snapshot` — run the paper's four methods on a small
//! reference problem and write the next schema-versioned `BENCH_<n>.json`
//! at the workspace root (or an explicit directory). Snapshots accumulate
//! across PRs, so the modeled perf trajectory mandated by ROADMAP.md stays
//! machine-readable and diffable.

use std::path::PathBuf;
use std::process::ExitCode;

use hetsolve_ckpt::CheckpointStore;
use hetsolve_core::{
    run_durable, run_faulted, run_traced, Backend, CheckpointPolicy, IntegrityConfig, MethodKind,
    PartitionedProblem, RunConfig, StepTracer,
};
use hetsolve_fault::{FaultPlan, NoopFaults, StateField};
use hetsolve_fem::{FemProblem, RandomLoadSpec};
use hetsolve_load::{soak_server, ArrivalLog, LoadConfig, TrafficShape};
use hetsolve_machine::{alps_node, single_gh200};
use hetsolve_mesh::{GroundModelSpec, InterfaceShape};
use hetsolve_obs::{FlightRecorder, Json, MethodMetrics, MetricsRegistry, MetricsSink};
use hetsolve_serve::{
    AutoscaleConfig, BatchPolicy, ClusterConfig, ClusterServer, EnsembleServer, QosConfig,
    ServeConfig, SolveRequest, TenantQuota,
};

/// Reference-problem shape: small enough for a debug-profile run in
/// seconds, large enough that the four methods order as in the paper.
const MESH: (usize, usize, usize) = (4, 3, 2);
const STEPS: usize = 24;

pub fn bench_snapshot(dir: Option<String>) -> ExitCode {
    let dir = dir.map(PathBuf::from).unwrap_or_else(crate::workspace_root);
    let spec = GroundModelSpec::paper_like(MESH.0, MESH.1, MESH.2, InterfaceShape::Stratified);
    let backend = Backend::new(FemProblem::paper_like(&spec), true, false);

    let mut sink = MetricsSink::new();
    sink.set_meta("generator", Json::from("cargo xtask bench-snapshot"));
    sink.set_meta("version", Json::from(env!("CARGO_PKG_VERSION")));
    sink.set_meta(
        "mesh",
        Json::from(format!(
            "paper_like {}x{}x{} stratified",
            MESH.0, MESH.1, MESH.2
        )),
    );
    sink.set_meta("n_dofs", Json::from(backend.n_dofs()));
    sink.set_meta("n_steps", Json::from(STEPS));

    let mut rows: Vec<MethodMetrics> = Vec::new();
    for method in [
        MethodKind::CrsCgCpu,
        MethodKind::CrsCgGpu,
        MethodKind::CrsCgCpuGpu,
        MethodKind::EbeMcgCpuGpu,
    ] {
        let cfg = bench_config(method);
        let mut tracer = StepTracer::new();
        let result = run_traced(&backend, &cfg, &mut tracer).expect("bench run failed");
        println!(
            "bench-snapshot: {:<16} {:>3} steps, {:.3e} s/step/case, {:.1} iters",
            method.label(),
            result.records.len(),
            result.mean_step_time(cfg.measure_from),
            result.mean_iterations(cfg.measure_from),
        );
        rows.extend(tracer.sink.methods().iter().cloned());
        // keep the adaptive-window decision log of the proposed method
        if method == MethodKind::EbeMcgCpuGpu {
            if let Some(log) = tracer
                .sink
                .to_json()
                .get("sections")
                .and_then(|s| s.get("window_log").cloned())
            {
                sink.set_section("window_log", log);
            }
        }
    }
    let base = rows.first().map(|r| r.step_time_s).unwrap_or(0.0);
    for row in &mut rows {
        row.speedup = if row.step_time_s > 0.0 {
            base / row.step_time_s
        } else {
            0.0
        };
        sink.push_method(row.clone());
    }

    let part = PartitionedProblem::new(&backend.problem, 4, false);
    sink.set_section("partition", part.metrics().to_json());

    // serving layer: the same reference workload under both batch
    // policies, so the snapshot carries the continuous-batching win
    // (lane-occupancy and queue-latency columns) across PRs
    let serve = Json::obj([
        ("continuous", serve_stats(&backend, BatchPolicy::Continuous)),
        (
            "drain_then_refill",
            serve_stats(&backend, BatchPolicy::DrainThenRefill),
        ),
    ]);
    sink.set_section("serve", serve);

    // distributed serving: weak-scaling throughput across 1/2/4 shards on
    // the Alps node model and the modeled node-crash failover latency, so
    // the snapshot tracks what sharding buys and what a crash costs
    sink.set_section("cluster", cluster_stats(&backend));

    // multi-tenant QoS: a seeded bursty three-tenant soak through the
    // fair-share scheduler and lane autoscaler, so the snapshot carries
    // tail latency, shed rate, and scaling activity across PRs
    sink.set_section("qos", qos_stats(&backend));

    // durability: checkpoint write/restore cost on the reference run,
    // so the snapshot tracks the overhead of crash consistency
    sink.set_section("checkpoint", ckpt_stats(&backend));

    // silent-data-corruption defense: detection overhead on a clean run
    // (acceptance: ratio stays ≤ 1.05 and the result is bitwise-unchanged),
    // detection/recovery rate under injected bit flips, and the modeled
    // serve-side recovery latency
    sink.set_section("sdc", sdc_stats(&backend));

    // telemetry: the measured cost of observing — registry attachment
    // overhead on the reference run (acceptance: ratio stays ≤ 1.05) and
    // the latency of dumping a full flight-recorder ring
    sink.set_section("telemetry", telemetry_stats(&backend));

    // static analysis: gate cost and surface size, so the snapshot shows
    // the analyzer staying in the milliseconds and the workspace staying
    // clean as the audit surface (unsafe sites, codec pairs) grows
    sink.set_section("analyze", analyze_stats());

    match sink.write_bench_snapshot(&dir) {
        Ok(path) => {
            println!("bench-snapshot: wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench-snapshot: write failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Measure the silent-data-corruption defense on the reference EBE-MCG
/// run: detection overhead (clean run, integrity on vs off, best-of-N wall
/// time — the bitwise-unchanged claim is asserted, not just reported),
/// detection + bitwise-recovery rate under seeded single-bit flips on
/// every guarded target, and the modeled recovery latency of the serving
/// layer's SDC ladder. xtask is outside the determinism scope, so
/// `Instant` is fine here.
fn sdc_stats(backend: &Backend) -> Json {
    let on_cfg = bench_config(MethodKind::EbeMcgCpuGpu);
    let mut off_cfg = on_cfg.clone();
    off_cfg.integrity = IntegrityConfig::disabled();
    const REPS: usize = 5;
    let best_of = |cfg: &RunConfig| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let t0 = std::time::Instant::now();
            run_traced(backend, cfg, &mut StepTracer::disabled()).expect("sdc bench run");
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let off_s = best_of(&off_cfg);
    let on_s = best_of(&on_cfg);
    let overhead_ratio = if off_s > 0.0 { on_s / off_s } else { 1.0 };

    // the acceptance number: wall-time overhead of detection on the serve
    // path, where the guards run per occupied column per tick
    let serve_best_of = |integrity: IntegrityConfig| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let mut cfg = ServeConfig::new(single_gh200());
            cfg.run = bench_config(MethodKind::EbeMcgCpuGpu);
            cfg.run.r = 4;
            cfg.run.integrity = integrity;
            let mut server = EnsembleServer::new(backend, cfg);
            for i in 0..12u64 {
                server
                    .admit(SolveRequest::new(9_800 + i, 8))
                    .expect("admit sdc overhead request");
            }
            let t0 = std::time::Instant::now();
            server.run_until_idle();
            best = best.min(t0.elapsed().as_secs_f64());
            assert_eq!(server.stats().completed(), 12);
        }
        best
    };
    let serve_off_s = serve_best_of(IntegrityConfig::disabled());
    let serve_on_s = serve_best_of(IntegrityConfig::default());
    let serve_overhead_ratio = if serve_off_s > 0.0 {
        serve_on_s / serve_off_s
    } else {
        1.0
    };

    let clean = run_traced(backend, &on_cfg, &mut StepTracer::disabled()).expect("sdc clean run");
    let baseline =
        run_traced(backend, &off_cfg, &mut StepTracer::disabled()).expect("sdc baseline");
    assert!(
        clean.corruptions.is_empty(),
        "clean run must report nothing"
    );
    for (a, b) in clean.final_u.iter().zip(&baseline.final_u) {
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "detection must leave a clean run bitwise-unchanged"
            );
        }
    }

    // seeded single-bit flips on every guarded target at several step
    // boundaries; each run must detect the flip and finish bitwise-equal
    // to the clean baseline
    let mut injected = 0usize;
    let mut detected = 0usize;
    let mut recovered = 0usize;
    for step in [3usize, 9, 15] {
        let plans: Vec<FaultPlan> = vec![
            FaultPlan::new(0x5dc).flip_state(step, 0, StateField::U),
            FaultPlan::new(0x5dc).flip_state(step, 0, StateField::V),
            FaultPlan::new(0x5dc).flip_state(step, 0, StateField::A),
            FaultPlan::new(0x5dc).flip_rhs(step, 0),
            FaultPlan::new(0x5dc).flip_operator(step),
            FaultPlan::new(0x5dc).flip_basis(step, 0),
        ];
        for mut plan in plans {
            injected += 1;
            let result = run_faulted(backend, &on_cfg, &mut StepTracer::disabled(), &mut plan)
                .expect("sdc injected run must recover, not fail");
            if !result.corruptions.is_empty() {
                detected += 1;
            }
            let bitwise = result
                .final_u
                .iter()
                .zip(&clean.final_u)
                .all(|(a, b)| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
            if bitwise {
                recovered += 1;
            }
        }
    }
    assert_eq!(detected, injected, "every injected flip must be detected");
    assert_eq!(recovered, injected, "every recovery must be bitwise");

    // serving layer: flips landing on in-flight requests are detected and
    // repaired in place; the modeled detect→recover latency is recorded
    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run = bench_config(MethodKind::EbeMcgCpuGpu);
    cfg.run.r = 4;
    cfg.run.s_max = 1;
    let plan = FaultPlan::new(0x5dc)
        .flip_state(2, 0, StateField::U)
        .flip_rhs(3, 1);
    let mut server = EnsembleServer::with_faults(backend, cfg, plan);
    for i in 0..4u64 {
        server
            .admit(SolveRequest::new(9_900 + i, 8))
            .expect("admit sdc bench request");
    }
    server.run_until_idle();
    let stats = server.stats();
    assert!(
        stats.sdc_detected() >= 2,
        "both injected serve flips must be detected"
    );
    assert_eq!(stats.completed(), 4, "sdc bench must lose no request");
    let recovery_p50 = stats.sdc_recovery().quantile(0.50);
    println!(
        "bench-snapshot: sdc               serve overhead x{serve_overhead_ratio:.3} (solo x{overhead_ratio:.3}), \
         {detected}/{injected} detected, {recovered}/{injected} bitwise-recovered, \
         serve recovery p50 {recovery_p50:.3e} s",
    );
    Json::obj([
        ("baseline_s", Json::from(off_s)),
        ("detect_s", Json::from(on_s)),
        ("detect_overhead_ratio", Json::from(overhead_ratio)),
        ("serve_baseline_s", Json::from(serve_off_s)),
        ("serve_detect_s", Json::from(serve_on_s)),
        (
            "serve_detect_overhead_ratio",
            Json::from(serve_overhead_ratio),
        ),
        ("flips_injected", Json::from(injected)),
        ("flips_detected", Json::from(detected)),
        ("flips_recovered_bitwise", Json::from(recovered)),
        ("serve_sdc_detected", Json::from(stats.sdc_detected())),
        ("serve_sdc_recovery_p50_s", Json::from(recovery_p50)),
    ])
}

/// Measure what telemetry v2 costs: the observer overhead ratio (same
/// reference run with and without a `MetricsRegistry` attached to an
/// otherwise-disabled tracer, best-of-N wall time) and the flight-dump
/// latency (a full default-capacity ring serialized to disk). xtask is
/// outside the determinism scope, so `Instant` is fine here.
fn telemetry_stats(backend: &Backend) -> Json {
    let cfg = bench_config(MethodKind::EbeMcgCpuGpu);
    const REPS: usize = 5;
    let best_of = |mk: &dyn Fn() -> StepTracer| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..REPS {
            let mut tracer = mk();
            let t0 = std::time::Instant::now();
            run_traced(backend, &cfg, &mut tracer).expect("telemetry bench run");
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    let baseline_s = best_of(&StepTracer::disabled);
    let observed_s = best_of(&|| {
        let mut t = StepTracer::disabled();
        t.attach_registry(MetricsRegistry::new());
        t
    });
    let overhead_ratio = if baseline_s > 0.0 {
        observed_s / baseline_s
    } else {
        1.0
    };

    // the registry the overhead claim is about must actually be populated
    let mut tracer = StepTracer::disabled();
    tracer.attach_registry(MetricsRegistry::new());
    run_traced(backend, &cfg, &mut tracer).expect("telemetry bench run");
    let reg = tracer.take_registry().expect("registry attached above");
    assert_eq!(
        reg.counter("core_steps_total") as usize,
        STEPS,
        "registry must observe every step"
    );

    let mut ring = FlightRecorder::default();
    for i in 0..ring.capacity() as u64 {
        ring.record(i as f64, "step", Some(i), Some(0), Some(i), "bench fill");
    }
    let dump_path = std::env::temp_dir().join("hetsolve-bench-flight.json");
    let t0 = std::time::Instant::now();
    ring.dump_to(&dump_path, "bench").expect("flight dump");
    let flight_dump_s = t0.elapsed().as_secs_f64();
    let flight_dump_bytes = std::fs::metadata(&dump_path).map(|m| m.len()).unwrap_or(0);
    let _ = std::fs::remove_file(&dump_path);

    println!(
        "bench-snapshot: telemetry         observer overhead x{:.3}, flight dump {:.3e} s ({} events, {} B)",
        overhead_ratio,
        flight_dump_s,
        ring.len(),
        flight_dump_bytes,
    );
    Json::obj([
        ("baseline_s", Json::from(baseline_s)),
        ("observed_s", Json::from(observed_s)),
        ("observer_overhead_ratio", Json::from(overhead_ratio)),
        (
            "registry_steps_total",
            Json::from(reg.counter("core_steps_total")),
        ),
        ("flight_dump_events", Json::from(ring.len())),
        ("flight_dump_s", Json::from(flight_dump_s)),
        ("flight_dump_bytes", Json::from(flight_dump_bytes as f64)),
    ])
}

/// Run `analyze` in-process against the workspace and summarize its cost
/// and surface for the snapshot's `analyze` section. xtask itself is
/// outside the determinism scope, so wall-clock timing here is fine.
fn analyze_stats() -> Json {
    let root = crate::workspace_root();
    let t0 = std::time::Instant::now();
    let report = crate::analyze::analyze(&root, None);
    let runtime_s = t0.elapsed().as_secs_f64();
    println!(
        "bench-snapshot: analyze           {:.3} s, {} files, {} unsafe sites, {} violation(s)",
        runtime_s,
        report.files_scanned,
        report.unsafe_sites,
        report.violations.len(),
    );
    Json::obj([
        ("runtime_s", Json::from(runtime_s)),
        ("files_scanned", Json::from(report.files_scanned)),
        ("unsafe_sites", Json::from(report.unsafe_sites)),
        ("violations", Json::from(report.violations.len())),
    ])
}

/// Run the reference serving workload (two long cases + a burst of short
/// ones, queue depth 2× the fused width) and return the `ServeStats`
/// summary for the snapshot's `serve` section.
fn serve_stats(backend: &Backend, policy: BatchPolicy) -> Json {
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
        server.admit(req).expect("admit bench request");
    }
    for k in 0..18u64 {
        server
            .admit(SolveRequest::new(9_100 + k, 4).with_priority(100))
            .expect("admit bench request");
    }
    server.run_until_idle();
    let stats = server.stats();
    println!(
        "bench-snapshot: serve/{:<17} {:.1} cases/s, occupancy {:.2}, p95 latency {:.3e} s",
        match policy {
            BatchPolicy::Continuous => "continuous",
            BatchPolicy::DrainThenRefill => "drain_then_refill",
        },
        stats.cases_per_sec(),
        stats.mean_occupancy(),
        stats.latency_percentile(0.95),
    );
    stats.to_json()
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

/// Weak scaling of the sharded serving cluster (8 requests per shard, so
/// per-node work is constant) plus one modeled node-crash failover, for
/// the snapshot's `cluster` section.
fn cluster_stats(backend: &Backend) -> Json {
    let mut scaling = Vec::new();
    for shards in [1usize, 2, 4] {
        let mut cluster = ClusterServer::new(backend, cluster_cfg(shards));
        for i in 0..8 * shards {
            cluster
                .admit(SolveRequest::new(9_500 + i as u64, 6))
                .expect("admit cluster bench request");
        }
        cluster.run_until_idle();
        let stats = cluster.stats();
        println!(
            "bench-snapshot: cluster/{shards}-shard   {:.1} cases/s, {} stolen, {:.3e} s link time",
            stats.cases_per_sec(),
            stats.stolen(),
            cluster.traffic().link_time_s,
        );
        scaling.push(Json::obj([
            ("shards", Json::from(shards)),
            ("cases", Json::from(stats.completed())),
            ("cases_per_sec", Json::from(stats.cases_per_sec())),
            ("elapsed_s", Json::from(stats.elapsed_s())),
            ("stolen", Json::from(stats.stolen())),
            (
                "replica_writes",
                cluster
                    .metrics_registry()
                    .counter("serve_replica_writes_total")
                    .into(),
            ),
            ("link_time_s", Json::from(cluster.traffic().link_time_s)),
        ]));
    }

    // failover: kill node 0 of a 2-shard cluster mid-run and record the
    // modeled node-loss → serving-again latency of restart-on-peer
    let plan = FaultPlan::new(5).crash_node(2, 0);
    let mut cluster = ClusterServer::with_faults(backend, cluster_cfg(2), plan);
    for i in 0..16usize {
        cluster
            .admit(SolveRequest::new(9_700 + i as u64, 6))
            .expect("admit failover bench request");
    }
    cluster.run_until_idle();
    let stats = cluster.stats();
    assert_eq!(stats.failovers(), 1, "bench failover must restore on peer");
    assert_eq!(stats.completed(), 16, "bench failover must lose no case");
    let recovery_s = cluster.recovery_latencies()[0];
    println!(
        "bench-snapshot: cluster/failover  recovery {recovery_s:.3e} s, {} replica writes skipped",
        cluster
            .metrics_registry()
            .counter("serve_replica_skipped_total"),
    );
    Json::obj([
        ("weak_scaling", Json::Arr(scaling)),
        (
            "failover",
            Json::obj([
                ("shards", Json::from(2usize)),
                ("recovery_s", Json::from(recovery_s)),
                ("node_crashes", Json::from(stats.node_crashes())),
                ("failovers", Json::from(stats.failovers())),
                ("evicted", Json::from(stats.evicted())),
            ]),
        ),
    ])
}

/// Soak the QoS-enabled server with a seeded three-tenant flash-crowd
/// stream — small requests so the debug-profile bench stays in seconds —
/// and distill tail latency, shed rate, and autoscaler activity. The
/// arrival rates are derived from the server's own modeled step floor so
/// the burst overloads it by construction on any reference problem.
/// xtask is outside the determinism scope, so wall-clock timing is fine.
fn qos_stats(backend: &Backend) -> Json {
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

    // lanes time-share the device, so throughput is set by the fused
    // width r per step floor (halved for transfer/refill overhead), not
    // by lanes × r
    let floor = server.step_floor_s();
    let mean_steps = 2.5;
    let capacity_rps = 2.0 / (mean_steps * floor);
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
    let log = ArrivalLog::generate(&load);

    let t0 = std::time::Instant::now();
    let report = soak_server(&mut server, &log);
    let soak_wall_s = t0.elapsed().as_secs_f64();
    let stats = server.stats();
    let shed_rate = (report.shed + report.shed_early) as f64 / report.n_arrivals.max(1) as f64;
    println!(
        "bench-snapshot: qos               {} arrivals in {soak_wall_s:.2} s wall, p99 {:.3e} s, \
         shed rate {:.3}, {} autoscale events",
        report.n_arrivals,
        stats.latency_percentile(0.99),
        shed_rate,
        report.autoscale_events,
    );
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
        ("soak_wall_s", Json::from(soak_wall_s)),
        (
            "tenant_served_steps",
            Json::Arr(
                report
                    .tenants
                    .iter()
                    .map(|t| Json::from(t.served_steps as usize))
                    .collect(),
            ),
        ),
    ])
}

/// Measure the durable driver on the reference EBE-MCG run: a fresh run
/// reports write cost, a second invocation against the same store reports
/// restore cost and the boundary it resumed from.
fn ckpt_stats(backend: &Backend) -> Json {
    let cfg = bench_config(MethodKind::EbeMcgCpuGpu);
    let dir = std::env::temp_dir().join("hetsolve-bench-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir, 3).expect("open bench checkpoint store");
    let policy = CheckpointPolicy { every: 4, keep: 3 };

    let fresh = run_durable(
        backend,
        &cfg,
        &mut StepTracer::new(),
        &mut NoopFaults,
        &store,
        policy,
    )
    .expect("durable bench run");
    let resumed = run_durable(
        backend,
        &cfg,
        &mut StepTracer::new(),
        &mut NoopFaults,
        &store,
        policy,
    )
    .expect("durable bench resume");
    let _ = std::fs::remove_dir_all(&dir);

    println!(
        "bench-snapshot: checkpoint        {} writes x {} B, {:.3e} s/write, restore {:.3e} s (resumed from step {})",
        fresh.checkpoints_written,
        fresh.checkpoint_bytes,
        fresh.write_s / fresh.checkpoints_written.max(1) as f64,
        resumed.restore_s,
        resumed.resumed_from.unwrap_or(0),
    );
    Json::obj([
        ("every_steps", Json::from(policy.every)),
        ("checkpoints_written", Json::from(fresh.checkpoints_written)),
        ("checkpoint_bytes", Json::from(fresh.checkpoint_bytes)),
        ("write_s_total", Json::from(fresh.write_s)),
        (
            "write_s_per_checkpoint",
            Json::from(fresh.write_s / fresh.checkpoints_written.max(1) as f64),
        ),
        ("restore_s", Json::from(resumed.restore_s)),
        (
            "resumed_from_step",
            Json::from(resumed.resumed_from.unwrap_or(0)),
        ),
    ])
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
