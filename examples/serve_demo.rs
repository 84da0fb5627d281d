//! Serving-layer demo: stand up an [`EnsembleServer`], admit a mixed
//! workload (priorities, deadlines, a malformed request that admission
//! control rejects), and let continuous batching pack the fused lanes
//! until the queue drains. The server snapshots itself every few ticks
//! into `target/artifacts/serve_ckpt/`; kill the process at any point and
//! re-run with `--resume` to continue bitwise-identically from the newest
//! valid checkpoint. Prints the per-request outcomes and the summary the
//! bench snapshot's `serve` section is built from, and exports the
//! scheduler/lane timeline as Chrome-trace JSON (`HETSOLVE_TRACE` /
//! `HETSOLVE_METRICS` override the paths).
//!
//! With `--shards N` the same workload is served by a [`ClusterServer`]:
//! N node-local shards behind the deterministic router, work stealing
//! across the modeled interconnect, and each shard's checkpoint mirrored
//! to a peer. Add `--kill-node NODE` (optionally `--kill-at TICK`,
//! default 2) to crash a node mid-run and watch restart-on-peer recover
//! every in-flight case; cluster artifacts (metrics, Prometheus page,
//! flight ring) land under `target/artifacts/`.
//!
//! ```bash
//! cargo run --release --example serve_demo
//! cargo run --release --example serve_demo -- --resume
//! cargo run --release --example serve_demo -- --resume path/to/ckpt_dir
//! cargo run --release --example serve_demo -- --shards 4
//! cargo run --release --example serve_demo -- --shards 4 --kill-node 1
//! ```
//!
//! [`ClusterServer`]: hetsolve::serve::ClusterServer

use hetsolve::ckpt::CheckpointStore;
use hetsolve::fem::{FemProblem, RandomLoadSpec};
use hetsolve::machine::{alps_node, single_gh200};
use hetsolve::mesh::{GroundModelSpec, InterfaceShape};
use hetsolve::obs::{names, Json, MetricsSink, ServeCounter};
use hetsolve::prelude::*;
use hetsolve::serve::{ClusterConfig, ClusterServer, RequestId};

const CKPT_EVERY_TICKS: usize = 4;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .filter(|a| !a.starts_with("--"))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let resume_dir = args.iter().position(|a| a == "--resume").map(|i| {
        args.get(i + 1)
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .unwrap_or_else(|| "target/artifacts/serve_ckpt".into())
    });
    if let Some(shards) = flag_value(&args, "--shards") {
        let shards: usize = shards.parse().expect("--shards takes a count");
        let kill_node = flag_value(&args, "--kill-node")
            .map(|n| n.parse::<usize>().expect("--kill-node takes a node index"));
        let kill_at = flag_value(&args, "--kill-at")
            .map(|t| t.parse::<usize>().expect("--kill-at takes a tick"))
            .unwrap_or(2);
        cluster_demo(shards, kill_node, kill_at);
        return;
    }

    let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
    let backend = Backend::new(FemProblem::paper_like(&spec), false, false);

    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run.r = 4;
    cfg.run.s_max = 6;
    cfg.run.region_dofs = 300;
    cfg.run.load = RandomLoadSpec {
        n_sources: 4,
        impulses_per_source: 2.0,
        amplitude: 1e6,
        active_window: 0.2,
    };
    // black box: if anything goes wrong (watchdog, eviction, injected
    // crash) the last N structured events land here
    cfg.flight_dump = Some("target/artifacts/serve_flight.json".into());

    std::fs::create_dir_all("target/artifacts").expect("create artifact dir");
    let ckpt_dir = resume_dir
        .clone()
        .unwrap_or_else(|| "target/artifacts/serve_ckpt".into());
    if resume_dir.is_none() {
        // fresh start: clear stale snapshots so the store only holds this
        // run's boundaries
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
    let store = CheckpointStore::new(&ckpt_dir, 3).expect("open checkpoint store");

    let mut server = match &resume_dir {
        Some(dir) => {
            let (found, report) = EnsembleServer::restore_latest(&backend, cfg, &store);
            let (seq, server) = found.unwrap_or_else(|| {
                panic!("no valid checkpoint under {dir} to resume from ({report})")
            });
            println!("resumed from checkpoint seq {seq} under {dir} ({report})");
            server
        }
        None => {
            let mut server = EnsembleServer::new(&backend, cfg);
            // A workload deeper than the lanes: two long high-priority
            // cases, a burst of short ones, one with a deadline it can't
            // make, and one malformed request that admission control
            // rejects outright.
            for (seed, n_steps, prio) in [(42u64, 12usize, 9u8), (43, 12, 9)] {
                server
                    .admit(SolveRequest::new(seed, n_steps).with_priority(prio))
                    .expect("admit long");
            }
            for k in 0..10 {
                server
                    .admit(SolveRequest::new(1_000 + k, 4).with_priority(3))
                    .expect("admit short");
            }
            server
                .admit(SolveRequest::new(2_000, 3).with_deadline(1e-9))
                .expect("admit doomed");
            match server.admit(SolveRequest::new(3_000, 0)) {
                Err(err) => println!("admission control: {err}"),
                Ok(id) => unreachable!("zero-step request admitted as {id}"),
            }
            server
        }
    };
    server.enable_trace();

    // the tick loop, snapshotting at a fixed cadence so a kill at any
    // point loses at most CKPT_EVERY_TICKS boundaries of progress
    let start_ticks = server.ticks();
    while !(server.queue_depth() == 0 && server.in_flight() == 0)
        && server.ticks() - start_ticks < server.config().max_ticks
    {
        server.tick();
        if server.ticks() % CKPT_EVERY_TICKS == 0 {
            server.save_checkpoint(&store).expect("write checkpoint");
        }
    }
    let ticks = server.ticks() - start_ticks;

    let ids: Vec<_> = (0..server.admitted() as u64)
        .map(hetsolve::serve::RequestId)
        .collect();
    println!(
        "\nserved {} requests in {} scheduling ticks ({:.4} modeled s):\n",
        ids.len(),
        ticks,
        server.elapsed()
    );
    println!("{:>8} | {:>8} | {:>12}", "request", "state", "latency (s)");
    for &id in &ids {
        let rec = server.record(id);
        println!(
            "{:>8} | {:>8} | {:>12}",
            format!("{id}"),
            rec.state.label(),
            rec.latency()
                .map_or_else(|| "-".into(), |l| format!("{l:.5}")),
        );
    }
    let stats = server.stats();
    println!(
        "\n{:.2} cases/s, lane occupancy {:.0}%, mean queue depth {:.1}, \
         p95 latency {:.4} s",
        stats.cases_per_sec(),
        100.0 * stats.mean_occupancy(),
        stats.mean_queue_depth(),
        stats.latency_percentile(0.95),
    );
    println!("checkpoints under {ckpt_dir} (re-run with --resume to continue from them)");

    let trace_path = std::env::var("HETSOLVE_TRACE")
        .unwrap_or_else(|_| "target/artifacts/serve_trace.json".into());
    let metrics_path = std::env::var("HETSOLVE_METRICS")
        .unwrap_or_else(|_| "target/artifacts/serve_metrics.json".into());
    let mut metrics = MetricsSink::new();
    metrics.set_meta("generator", Json::from("example serve_demo"));
    metrics.set_meta("n_dofs", Json::from(backend.n_dofs()));
    metrics.set_section("serve", stats.to_json());
    metrics.set_section("registry", server.metrics_registry().to_json());
    metrics.write_to(&metrics_path).expect("write metrics");
    let prom_path = std::env::var("HETSOLVE_PROM")
        .unwrap_or_else(|_| "target/artifacts/serve_metrics.prom".into());
    std::fs::write(&prom_path, server.metrics_registry().to_prometheus_text())
        .expect("write metrics page");
    server
        .take_trace()
        .expect("trace enabled")
        .write_to(&trace_path)
        .expect("write trace");
    println!("\nwrote {trace_path} (scheduler + lane timeline; open in ui.perfetto.dev)");
    println!("wrote {metrics_path} (serve section, bench-snapshot schema)");
    println!("wrote {prom_path} (Prometheus text exposition of the metrics registry)");
    println!(
        "flight recorder: {} events in the ring (dumped to target/artifacts/serve_flight.json \
         on watchdog breach, eviction, or crash)",
        server.flight().len()
    );
}

/// The `--shards` path: the same mixed workload on a sharded cluster
/// (Alps node model, so cross-node traffic costs modeled link time),
/// optionally killing a node mid-run to demonstrate restart-on-peer.
fn cluster_demo(shards: usize, kill_node: Option<usize>, kill_at: usize) {
    let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
    let backend = Backend::new(FemProblem::paper_like(&spec), false, false);

    let mut serve = ServeConfig::new(alps_node());
    serve.run.r = 4;
    serve.run.s_max = 6;
    serve.run.region_dofs = 300;
    serve.run.load = RandomLoadSpec {
        n_sources: 4,
        impulses_per_source: 2.0,
        amplitude: 1e6,
        active_window: 0.2,
    };
    let cfg = ClusterConfig::new(serve, shards);

    let mut cluster = match kill_node {
        Some(node) => {
            assert!(
                node < shards,
                "--kill-node {node} out of range for --shards {shards}"
            );
            println!("will crash node {node} at cluster boundary {kill_at}\n");
            ClusterServer::with_faults(&backend, cfg, FaultPlan::new(1).crash_node(kill_at, node))
        }
        None => ClusterServer::with_faults(&backend, cfg, FaultPlan::new(1)),
    };

    for (seed, n_steps, prio) in [(42u64, 12usize, 9u8), (43, 12, 9)] {
        cluster
            .admit(SolveRequest::new(seed, n_steps).with_priority(prio))
            .expect("admit long");
    }
    for k in 0..4 * shards as u64 {
        cluster
            .admit(SolveRequest::new(1_000 + k, 4).with_priority(3))
            .expect("admit short");
    }
    match cluster.admit(SolveRequest::new(3_000, 0)) {
        Err(err) => println!("admission control: {err}"),
        Ok(id) => unreachable!("zero-step request admitted as {id}"),
    }

    let ticks = cluster.run_until_idle();
    let stats = cluster.stats();
    println!(
        "served {} requests on {} shard(s) in {} boundaries ({:.4} modeled s):\n",
        cluster.admitted(),
        shards,
        ticks,
        cluster.elapsed()
    );
    println!(
        "{:>8} | {:>6} | {:>9} | {:>12}",
        "request", "shard", "state", "latency (s)"
    );
    for gid in 0..cluster.admitted() as u64 {
        let id = RequestId(gid);
        let rec = cluster.record(id);
        println!(
            "{:>8} | {:>6} | {:>9} | {:>12}",
            format!("{id}"),
            cluster.route(id).0,
            rec.state.label(),
            rec.latency()
                .map_or_else(|| "-".into(), |l| format!("{l:.5}")),
        );
    }
    println!(
        "\n{:.2} cases/s, {} stolen, {} replica write(s), link time {:.3e} s",
        stats.cases_per_sec(),
        stats.count(ServeCounter::Stolen),
        cluster
            .metrics_registry()
            .counter(names::SERVE_REPLICA_WRITES_TOTAL),
        cluster.traffic().link_time_s,
    );
    if stats.count(ServeCounter::NodeCrashes) > 0 {
        for (node, report) in cluster.failover_reports() {
            println!("node {node} crashed: restore scan {report}");
        }
        match cluster.recovery_latencies().first() {
            Some(r) => println!(
                "failover: restored on peer, recovery latency {r:.3e} modeled s, \
                 {} completed / {} evicted",
                stats.count(ServeCounter::Completed),
                stats.count(ServeCounter::Evicted)
            ),
            None => println!(
                "failover impossible (no valid replica): {} request(s) evicted as node_lost",
                stats.count(ServeCounter::Evicted)
            ),
        }
    }

    std::fs::create_dir_all("target/artifacts").expect("create artifact dir");
    let metrics_path = std::env::var("HETSOLVE_METRICS")
        .unwrap_or_else(|_| "target/artifacts/cluster_metrics.json".into());
    let mut metrics = MetricsSink::new();
    metrics.set_meta("generator", Json::from("example serve_demo --shards"));
    metrics.set_meta("shards", Json::from(shards));
    metrics.set_meta("n_dofs", Json::from(backend.n_dofs()));
    metrics.set_section("serve", stats.to_json());
    metrics.set_section("registry", cluster.metrics_registry().to_json());
    metrics.write_to(&metrics_path).expect("write metrics");
    let prom_path = std::env::var("HETSOLVE_PROM")
        .unwrap_or_else(|_| "target/artifacts/cluster_metrics.prom".into());
    std::fs::write(&prom_path, cluster.metrics_registry().to_prometheus_text())
        .expect("write metrics page");
    let flight_path = "target/artifacts/cluster_flight.json";
    cluster
        .flight()
        .dump_to(std::path::Path::new(flight_path), "demo end")
        .expect("write flight ring");
    println!("\nwrote {metrics_path} (cluster serve section, bench-snapshot schema)");
    println!("wrote {prom_path} (Prometheus text exposition of the cluster registry)");
    println!("wrote {flight_path} (cluster flight ring: routing, steals, crashes, failovers)");
}
