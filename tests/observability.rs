//! Cross-crate validation of the observability layer: observers and the
//! step tracer must be *neutral* (bitwise-identical numerics with and
//! without them), the exported artifacts must round-trip through the
//! hand-rolled JSON parser with the advertised schemas, and the EBE-MCG
//! timeline must actually show the paper's Fig. 4 CPU/GPU overlap.

use hetsolve::core::{run, StepTracer, TID_CPU, TID_GPU};
use hetsolve::fault::FaultLane;
use hetsolve::fem::FemProblem;
use hetsolve::obs::{
    flow_id_for_request, parse_json, validate_lane_serialization, MetricsRegistry, Termination,
    BENCH_SCHEMA, TRACE_SCHEMA,
};
use hetsolve::prelude::*;
use hetsolve::serve::{EnsembleServer, ServeConfig, SolveRequest, WatchdogConfig};
use hetsolve::sparse::{mcg, mcg_observed, pcg, pcg_observed, CgConfig, ResidualLog};

fn backend() -> Backend {
    let spec = GroundModelSpec::paper_like(4, 4, 3, InterfaceShape::Inclined);
    Backend::new(FemProblem::paper_like(&spec), true, true)
}

fn config(method: MethodKind, steps: usize) -> RunConfig {
    let mut cfg = RunConfig::new(method, single_gh200(), steps);
    cfg.r = 2;
    cfg.s_max = 8;
    cfg.load = RandomLoadSpec {
        n_sources: 8,
        impulses_per_source: 3.0,
        amplitude: 1e6,
        active_window: 0.2,
    };
    cfg
}

/// Deterministic non-trivial RHS with Dirichlet rows zeroed.
fn synthetic_rhs(n: usize, fixed: &[bool], case: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if fixed[i] {
                0.0
            } else {
                (0.37 * i as f64 + case as f64).sin() * 1e4
            }
        })
        .collect()
}

#[test]
fn pcg_observer_is_bitwise_neutral() {
    let b = backend();
    let a = b.crs_a.as_ref().expect("backend built with CRS");
    let n = b.n_dofs();
    let f = synthetic_rhs(n, &b.fixed, 0);
    let cfg = CgConfig::default();

    let mut x_plain = vec![0.0; n];
    let stats_plain = pcg(a, &b.precond, &f, &mut x_plain, &cfg);

    let mut x_obs = vec![0.0; n];
    let mut log = ResidualLog::new();
    let stats_obs = pcg_observed(a, &b.precond, &f, &mut x_obs, &cfg, &mut log);

    assert!(stats_plain.converged && stats_obs.converged);
    assert_eq!(stats_plain.iterations, stats_obs.iterations);
    for (p, o) in x_plain.iter().zip(&x_obs) {
        assert_eq!(p.to_bits(), o.to_bits(), "observer perturbed the solve");
    }
    // the log saw the whole solve: initial residual + one row per iteration
    assert_eq!(log.iterations, stats_obs.iterations);
    assert_eq!(log.history.len(), stats_obs.iterations + 1);
    assert_eq!(log.termination, Some(Termination::Converged));
    let final_rel = log.history.last().unwrap()[0];
    assert!(final_rel < cfg.tol, "logged final residual {final_rel:e}");
}

#[test]
fn mcg_observer_is_bitwise_neutral() {
    let b = backend();
    let r = 2;
    let op = b.ebe_a(r);
    let n = b.n_dofs();
    let mut f = vec![0.0; n * r];
    for c in 0..r {
        let fc = synthetic_rhs(n, &b.fixed, c);
        for i in 0..n {
            f[i * r + c] = fc[i];
        }
    }
    let cfg = CgConfig::default();

    let mut x_plain = vec![0.0; n * r];
    let stats_plain = mcg(&op, &b.precond, &f, &mut x_plain, &cfg);

    let mut x_obs = vec![0.0; n * r];
    let mut log = ResidualLog::new();
    let stats_obs = mcg_observed(&op, &b.precond, &f, &mut x_obs, &cfg, &mut log);

    assert!(stats_plain.converged && stats_obs.converged);
    assert_eq!(stats_plain.fused_iterations, stats_obs.fused_iterations);
    assert_eq!(stats_plain.case_iterations, stats_obs.case_iterations);
    for (p, o) in x_plain.iter().zip(&x_obs) {
        assert_eq!(p.to_bits(), o.to_bits(), "observer perturbed the solve");
    }
    assert_eq!(log.iterations, stats_obs.fused_iterations);
    assert_eq!(log.history.len(), stats_obs.fused_iterations + 1);
    // every history row carries one residual per fused case
    assert!(log.history.iter().all(|row| row.len() == r));
    assert_eq!(log.termination, Some(Termination::Converged));
}

#[test]
fn traced_run_is_bitwise_identical_to_untraced() {
    let b = backend();
    for method in [MethodKind::CrsCgCpuGpu, MethodKind::EbeMcgCpuGpu] {
        let cfg = config(method, 20);
        let plain = run(&b, &cfg).expect("run");
        let mut tracer = StepTracer::new();
        let traced = run_with(&b, &cfg, Hooks::default().tracer(&mut tracer)).expect("run");
        assert!(
            !tracer.trace.is_empty(),
            "{method:?}: tracer recorded nothing"
        );

        assert_eq!(plain.final_u.len(), traced.final_u.len());
        for (case, (up, ut)) in plain.final_u.iter().zip(&traced.final_u).enumerate() {
            for (p, t) in up.iter().zip(ut) {
                assert_eq!(
                    p.to_bits(),
                    t.to_bits(),
                    "{method:?}: tracing perturbed case {case}"
                );
            }
        }
        for (rp, rt) in plain.records.iter().zip(&traced.records) {
            assert_eq!(rp.iterations, rt.iterations);
            assert_eq!(rp.s_used, rt.s_used);
        }
    }
}

#[test]
fn exported_artifacts_round_trip_with_schemas() {
    let b = backend();
    let mut tracer = StepTracer::new();
    let result = run_with(
        &b,
        &config(MethodKind::EbeMcgCpuGpu, 16),
        Hooks::default().tracer(&mut tracer),
    )
    .expect("run");
    assert!(result.records.len() == 16);

    // trace document: parseable, schema-tagged, lane-serializable
    let trace_doc = tracer.trace.to_json().to_string_pretty();
    let v = parse_json(&trace_doc).expect("trace JSON must parse");
    assert_eq!(
        v.get("otherData")
            .and_then(|o| o.get("schema"))
            .and_then(|s| s.as_str()),
        Some(TRACE_SCHEMA)
    );
    assert!(v
        .get("traceEvents")
        .map(|e| matches!(e, hetsolve::obs::Json::Arr(a) if !a.is_empty()))
        .unwrap_or(false));
    if let Err(pair) = validate_lane_serialization(tracer.trace.events(), 1e-6) {
        panic!(
            "overlapping spans on one device lane:\n  {:?}\n  {:?}",
            pair.0, pair.1
        );
    }

    // metrics document: parseable, schema-tagged, one method row
    let bench_doc = tracer.sink.to_json().to_string_pretty();
    let v = parse_json(&bench_doc).expect("bench JSON must parse");
    assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some(BENCH_SCHEMA));
    let methods = v.get("methods").expect("methods array");
    assert!(matches!(methods, hetsolve::obs::Json::Arr(a) if a.len() == 1));
    assert!(
        v.get("sections")
            .and_then(|s| s.get("window_log"))
            .is_some(),
        "EBE-MCG snapshot must carry the adaptive-window log"
    );
}

/// Telemetry v2 acceptance: with a metrics registry AND the tracer
/// attached the numerics stay bitwise-identical — the registry rides the
/// same zero-cost observer seam — and the registry actually fills with
/// the declared phase timers, totals, and the adaptive-window gauge.
#[test]
fn registry_attached_run_is_bitwise_neutral_and_populated() {
    let b = backend();
    let cfg = config(MethodKind::EbeMcgCpuGpu, 20);
    let plain = run(&b, &cfg).expect("run");

    let mut tracer = StepTracer::new();
    tracer.attach_registry(MetricsRegistry::new());
    let observed = run_with(&b, &cfg, Hooks::default().tracer(&mut tracer)).expect("run");
    for (case, (up, uo)) in plain.final_u.iter().zip(&observed.final_u).enumerate() {
        for (p, o) in up.iter().zip(uo) {
            assert_eq!(
                p.to_bits(),
                o.to_bits(),
                "registry+tracer perturbed case {case}"
            );
        }
    }

    let reg = tracer.take_registry().expect("registry attached");
    assert_eq!(reg.counter("core_steps_total"), 20.0);
    assert!(reg.counter("core_flops_total") > 0.0);
    assert!(reg.counter("core_bytes_total") > 0.0);
    for name in ["core_phase_cpu_s", "core_phase_gpu_s", "core_phase_link_s"] {
        let h = reg
            .histogram(name)
            .unwrap_or_else(|| panic!("{name} empty"));
        assert!(h.total() > 0, "{name} never observed");
        assert!(h.sum() > 0.0 && h.quantile(0.95) >= h.quantile(0.5));
    }
    assert!(
        reg.gauge("core_window_s").is_some(),
        "adaptive-window gauge never set"
    );

    // the same registry exports a valid Prometheus text page
    let page = reg.to_prometheus_text();
    assert!(page.contains("# TYPE core_phase_gpu_s histogram"));
    assert!(page.contains("core_steps_total 20"));
    assert!(page.contains("core_phase_gpu_s_bucket{le=\"+Inf\"}"));

    // a registry on a *disabled* tracer (the overhead-measurement setup
    // used by the bench snapshot) is populated identically
    let mut quiet = StepTracer::disabled();
    quiet.attach_registry(MetricsRegistry::new());
    let q = run_with(&b, &cfg, Hooks::default().tracer(&mut quiet)).expect("run");
    for (up, uq) in plain.final_u.iter().zip(&q.final_u) {
        for (p, o) in up.iter().zip(uq) {
            assert_eq!(p.to_bits(), o.to_bits());
        }
    }
    let quiet_reg = quiet.take_registry().expect("registry attached");
    assert_eq!(quiet_reg.counter("core_steps_total"), 20.0);

    // one step driver: the step counter fires once per step for every
    // method, not only the one that used to own a `step_once`
    for method in [
        MethodKind::CrsCgCpu,
        MethodKind::CrsCgGpu,
        MethodKind::CrsCgCpuGpu,
        MethodKind::EbeMcgCpuGpu,
    ] {
        let mut t = StepTracer::disabled();
        t.attach_registry(MetricsRegistry::new());
        run_with(&b, &config(method, 7), Hooks::default().tracer(&mut t)).expect("run");
        let steps = t.registry().expect("attached").counter("core_steps_total");
        assert_eq!(steps, 7.0, "{method:?}");
    }
}

/// Causal tracing across failure: the flow id of a request is derived
/// from its id alone, so the arrows stay joinable across watchdog lane
/// restarts — the chain admitted → step… → restored → step… → evicted
/// shares one id in the exported trace.
#[test]
fn request_flow_ids_stay_stable_across_lane_restart() {
    let backend = {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        Backend::new(FemProblem::paper_like(&spec), true, false)
    };
    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run.r = 2;
    cfg.run.s_max = 4;
    cfg.run.region_dofs = 64;
    cfg.watchdog = Some(WatchdogConfig {
        step_deadline_s: 0.05,
        max_retries: 2,
        backoff_base_s: 1e-3,
        backoff_factor: 2.0,
    });
    cfg.checkpoint_every = 1;
    // three consecutive stalls walk retry, retry, restart_lane — then a
    // fourth breach evicts, ending the flow
    let mut plan = FaultPlan::new(17);
    for tick in 0..4 {
        plan = plan.stall_lane(tick, 0, FaultLane::Gpu, 1.0);
    }
    let mut server = EnsembleServer::with_faults(&backend, cfg, plan);
    server.enable_trace();
    let victim = server.admit(SolveRequest::new(555, 12)).expect("admit");
    for _ in 0..6 {
        server.tick();
    }

    let trace = server.take_trace().expect("trace enabled");
    let fid = flow_id_for_request(victim.0);
    let hops: Vec<_> = trace
        .events()
        .iter()
        .filter(|e| matches!(e.ph, 's' | 't' | 'f') && e.id == Some(fid))
        .collect();
    assert!(
        hops.len() >= 3,
        "expected admitted/restored/evicted hops, got {hops:?}"
    );
    assert_eq!(hops[0].ph, 's', "the chain starts at admission");
    assert!(
        hops.iter().any(|e| e.name == "restored"),
        "lane restart must appear in the flow: {hops:?}"
    );
    assert_eq!(
        hops.last().unwrap().ph,
        'f',
        "the chain ends (eviction closes the flow)"
    );
    // the whole chain is followable by one id even though it spans the
    // scheduler process (pid 0) and the lane process — i.e. >1 pid
    let pids: std::collections::BTreeSet<_> = hops.iter().map(|e| e.pid).collect();
    assert!(pids.len() > 1, "flow must cross processes: {pids:?}");
    // and the document round-trips with the ids serialized
    let doc = trace.to_json().to_string_pretty();
    let v = parse_json(&doc).expect("trace with flows parses");
    assert!(doc.contains("\"bp\""), "flow finish carries bp=e binding");
    assert!(v.get("traceEvents").is_some());
}

/// Artifact hygiene (repo convention): every example writes its dumps,
/// traces, metrics pages and checkpoints under `target/artifacts/` —
/// never to the repo root or an ad-hoc directory.
#[test]
fn examples_write_artifacts_only_under_target_artifacts() {
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut checked = 0;
    for entry in std::fs::read_dir(&examples).expect("examples dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read example");
        for (i, line) in text.lines().enumerate() {
            if let Some(pos) = line.find("target/") {
                assert!(
                    line[pos..].starts_with("target/artifacts"),
                    "{}:{}: artifact path must live under target/artifacts/: {}",
                    path.display(),
                    i + 1,
                    line.trim()
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 10, "expected many artifact paths, saw {checked}");
}

/// Acceptance check from the issue: the EBE-MCG timeline must show the
/// predictor (CPU lane) running concurrently with the solver (GPU lane)
/// within a process set — the paper's Fig. 4 overlap.
#[test]
fn ebe_mcg_trace_shows_predictor_solver_overlap() {
    let b = backend();
    let mut tracer = StepTracer::new();
    run_with(
        &b,
        &config(MethodKind::EbeMcgCpuGpu, 24),
        Hooks::default().tracer(&mut tracer),
    )
    .expect("run");

    let events = tracer.trace.events();
    let spans = |tid: usize, name: &str| {
        events
            .iter()
            .filter(|e| e.ph == 'X' && e.tid == tid && e.name.contains(name))
            .map(|e| (e.pid, e.ts_us, e.ts_us + e.dur_us.unwrap_or(0.0)))
            .collect::<Vec<_>>()
    };
    let predictors = spans(TID_CPU, "predictor");
    let solvers = spans(TID_GPU, "MCG");
    assert!(!predictors.is_empty(), "no predictor spans in trace");
    assert!(!solvers.is_empty(), "no solver spans in trace");

    let overlap = predictors.iter().any(|&(pp, ps, pe)| {
        solvers
            .iter()
            .any(|&(sp, ss, se)| pp == sp && ps < se && ss < pe)
    });
    assert!(
        overlap,
        "no predictor span overlaps a solver span in the same process set — \
         the Fig. 4 CPU/GPU concurrency is not visible in the trace"
    );
}
