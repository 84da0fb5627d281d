//! Running one workload: set-up, the timed units, the traced pass, and
//! turning what they measured into the declared metrics.

use std::time::Instant;

use hetsolve::core::{run, Backend, MethodKind, RunConfig, StepRecord};
use hetsolve::fem::FemProblem;
use hetsolve::machine::single_gh200;
use hetsolve::serve::{
    EnsembleServer, RequestId, RequestState, ServeConfig, ServeFingerprint, ServerCheckpoint,
    SolveRequest,
};

use crate::alloc::AllocCounts;
use crate::golden::{reference_for, Digest};
use crate::layers::{layer_pass, LayerValues};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{mean, median, percentile};
use crate::trace::Tracer;
use crate::workloads::{load_spec, Primary, RequestSpec, Workload, REGION_DOFS, TOL};

/// A serve loop that has not drained after this many ticks is stuck.
const MAX_TICKS: usize = 100_000;

/// Calls of `checkpoint_bytes` / `from_bytes` timed at the mid-run tick.
const CHECKPOINT_CALLS: usize = 5;

fn run_config(w: &Workload, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::new(w.method, single_gh200(), w.unit_steps);
    cfg.r = w.r;
    cfg.s_max = w.s_max;
    cfg.region_dofs = REGION_DOFS;
    cfg.tol = TOL;
    cfg.window = w.window;
    cfg.seed = Workload::case_seed(seed);
    cfg.load = load_spec();
    cfg
}

fn serve_config(w: &Workload) -> ServeConfig {
    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run.r = w.r;
    cfg.run.s_max = w.s_max;
    cfg.run.region_dofs = REGION_DOFS;
    cfg.run.tol = TOL;
    cfg.run.load = load_spec();
    cfg
}

/// Seconds of each build, by part.
#[derive(Debug, Default)]
struct SetupTimes {
    total: Vec<f64>,
    problem: Vec<f64>,
    backend: Vec<f64>,
}

/// Build the workload's backend `w.setup_builds` times, one after the
/// other, and keep the last. A build is everything a user waits for before
/// the first step: `FemProblem::paper_like`, `Backend::new` and, for the
/// serve workload, `EnsembleServer::new`.
fn setup(w: &Workload, tr: &mut Tracer) -> (Backend, SetupTimes) {
    let spec = w.ground_spec();
    let mut times = SetupTimes::default();
    let mut kept: Option<Backend> = None;
    for _ in 0..w.setup_builds {
        // free the previous build first: peak memory is that of one
        drop(kept.take());
        let started = Instant::now();
        let (problem, t) = tr.timed("fem.problem_build", || FemProblem::paper_like(&spec));
        times.problem.push(t);
        let (backend, t) = tr.timed("core.backend_build", || {
            Backend::new(problem, w.with_crs, w.parallel)
        });
        times.backend.push(t);
        if w.primary == Primary::Serve {
            tr.timed("serve.server_new", || {
                std::hint::black_box(EnsembleServer::new(&backend, serve_config(w)));
            });
        }
        times.total.push(started.elapsed().as_secs_f64());
        kept = Some(backend);
    }
    (kept.expect("setup_builds >= 1"), times)
}

/// One `run` call.
struct BatchUnit {
    wall_s: f64,
    records: Vec<StepRecord>,
    digests: Vec<(usize, Digest)>,
    /// Cases lost to a `RunError`.
    failed: usize,
    allocs: AllocCounts,
}

fn batch_unit(w: &Workload, backend: &Backend, cfg: &RunConfig, tr: &mut Tracer) -> BatchUnit {
    let before = AllocCounts::now();
    let (result, wall_s) = tr.timed("core.run", || run(backend, cfg));
    let allocs = AllocCounts::since(before);
    match result {
        Ok(res) => BatchUnit {
            wall_s,
            digests: res
                .final_u
                .iter()
                .enumerate()
                .map(|(c, u)| (c, Digest::of(u)))
                .collect(),
            records: res.records,
            failed: 0,
            allocs,
        },
        Err(e) => {
            eprintln!("hetbench: {}: run failed: {e}", w.name);
            BatchUnit {
                wall_s,
                records: Vec::new(),
                digests: Vec::new(),
                failed: w.n_cases(),
                allocs,
            }
        }
    }
}

/// `checkpoint_bytes` and `ServerCheckpoint::from_bytes` at one tick.
struct CheckpointProbe {
    encode_ms: f64,
    decode_ms: f64,
    kb: f64,
}

/// One closed loop through `EnsembleServer`.
struct ServeUnit {
    /// Loop wall (s), without the checkpoint probe.
    wall_s: f64,
    /// Steps of the requests that ended `Done`.
    done_steps: usize,
    latencies_ms: Vec<f64>,
    queue_waits_ms: Vec<f64>,
    /// `(position in the request mix, result)` of every `Done` request.
    digests: Vec<(usize, Digest)>,
    /// Requests without a result: refused at admission, ended in a state
    /// other than `Done`, or never reached.
    failed: usize,
    ticks: usize,
    occupancy_mean: f64,
    modeled_cases_per_s: f64,
    checkpoint: Option<CheckpointProbe>,
    allocs: AllocCounts,
}

/// A request a client is waiting for.
struct InFlight {
    index: usize,
    id: RequestId,
    admitted: Instant,
    queued: bool,
}

/// The closed loop: each of `w.clients` clients admits a request, waits
/// until it is terminal, then admits its next one, until `requests` are
/// used up. The bench calls `admit`/`tick` and reads `record(id).state`
/// after every tick. The schedule depends on tick counts only, never on
/// wall time, so it — and every count — repeats exactly.
fn serve_loop(
    w: &Workload,
    backend: &Backend,
    requests: &[RequestSpec],
    tr: &mut Tracer,
    probe_checkpoint: bool,
) -> ServeUnit {
    let cfg = serve_config(w);
    let mut server = EnsembleServer::new(backend, cfg.clone());
    let mut clients: Vec<Option<InFlight>> = (0..w.clients).map(|_| None).collect();
    let mut latencies_ms = Vec::with_capacity(requests.len());
    let mut queue_waits_ms = Vec::with_capacity(requests.len());
    let mut digests = Vec::with_capacity(requests.len());
    let mut done_steps = 0;
    let mut checkpoint = None;
    let mut next = 0;
    let mut terminal = 0;
    let mut paused_s = 0.0;
    let before = AllocCounts::now();
    let loop_span = tr.begin("serve.loop");
    let started = Instant::now();
    loop {
        for client in clients.iter_mut().filter(|c| c.is_none()) {
            if next == requests.len() {
                break;
            }
            let spec = requests[next];
            let admitted = Instant::now();
            let (outcome, _) = tr.timed("serve.admit", || {
                server.admit(SolveRequest::new(spec.seed, spec.n_steps))
            });
            match outcome {
                Ok(id) => {
                    *client = Some(InFlight {
                        index: next,
                        id,
                        admitted,
                        queued: true,
                    })
                }
                Err(e) => {
                    eprintln!("hetbench: {}: request {next} refused: {e}", w.name);
                    terminal += 1;
                }
            }
            next += 1;
        }
        if clients.iter().all(Option::is_none) {
            break;
        }
        if server.ticks() >= MAX_TICKS {
            eprintln!(
                "hetbench: {}: serve loop stuck after {MAX_TICKS} ticks",
                w.name
            );
            break;
        }
        tr.timed("serve.tick", || server.tick());
        let now = Instant::now();
        let poll = tr.begin("serve.poll");
        for client in clients.iter_mut() {
            let Some(flight) = client else { continue };
            let state = server.record(flight.id).state;
            let since_admit_ms = 1e3 * now.duration_since(flight.admitted).as_secs_f64();
            if flight.queued && state != RequestState::Queued {
                flight.queued = false;
                queue_waits_ms.push(since_admit_ms);
            }
            if !state.is_terminal() {
                continue;
            }
            latencies_ms.push(since_admit_ms);
            match (state, server.result(flight.id)) {
                (RequestState::Done, Some(u)) => {
                    done_steps += requests[flight.index].n_steps;
                    digests.push((flight.index, Digest::of(u)));
                }
                _ => eprintln!(
                    "hetbench: {}: request {} ended {}",
                    w.name,
                    flight.index,
                    state.label()
                ),
            }
            terminal += 1;
            *client = None;
        }
        tr.end(poll);
        if probe_checkpoint && checkpoint.is_none() && 2 * terminal >= requests.len() {
            let probe_started = Instant::now();
            checkpoint = Some(checkpoint_probe(&server, backend, &cfg, tr));
            paused_s = probe_started.elapsed().as_secs_f64();
        }
    }
    let wall_s = started.elapsed().as_secs_f64() - paused_s;
    tr.end(loop_span);
    ServeUnit {
        wall_s,
        done_steps,
        latencies_ms,
        queue_waits_ms,
        failed: requests.len() - digests.len(),
        digests,
        ticks: server.ticks(),
        occupancy_mean: server.stats().mean_occupancy(),
        modeled_cases_per_s: server.stats().cases_per_sec(),
        checkpoint,
        allocs: AllocCounts::since(before),
    }
}

/// Time `checkpoint_bytes` and `ServerCheckpoint::from_bytes` on the
/// server as it stands.
fn checkpoint_probe(
    server: &EnsembleServer<'_>,
    backend: &Backend,
    cfg: &ServeConfig,
    tr: &mut Tracer,
) -> CheckpointProbe {
    let fingerprint = ServeFingerprint::of(backend, cfg);
    let mut encode = Vec::with_capacity(CHECKPOINT_CALLS);
    let mut decode = Vec::with_capacity(CHECKPOINT_CALLS);
    let mut bytes = Vec::new();
    for _ in 0..CHECKPOINT_CALLS {
        let (b, t) = tr.timed("serve.checkpoint_encode", || server.checkpoint_bytes());
        encode.push(t);
        bytes = b;
        let (parsed, t) = tr.timed("serve.checkpoint_decode", || {
            ServerCheckpoint::from_bytes(&bytes, fingerprint)
        });
        decode.push(t);
        assert!(parsed.is_ok(), "a fresh checkpoint must parse");
    }
    CheckpointProbe {
        encode_ms: 1e3 * median(&encode),
        decode_ms: 1e3 * median(&decode),
        kb: bytes.len() as f64 / 1024.0,
    }
}

/// Repeat `unit` until another one would overrun `seconds`; always once.
fn repeat_for<U>(seconds: f64, mut unit: impl FnMut() -> U) -> Vec<U> {
    let started = Instant::now();
    let mut units = Vec::new();
    loop {
        units.push(unit());
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / units.len() as f64 > seconds {
            return units;
        }
    }
}

/// What the primary driver's units amount to, for either driver.
struct EndToEnd {
    step_case_ms: f64,
    requests_per_s: f64,
    /// Median over units of each unit's own p50 and p75.
    latency_p50_ms: f64,
    latency_p75_ms: f64,
    /// Latency samples behind one unit's percentiles.
    latencies_per_unit: usize,
    digests: Vec<(usize, Digest)>,
    attempted: usize,
    failed: usize,
    units: usize,
}

fn batch_end_to_end(w: &Workload, units: &[BatchUnit]) -> EndToEnd {
    let case_steps = (w.unit_steps * w.n_cases()) as f64;
    let walls: Vec<f64> = units
        .iter()
        .filter(|u| u.failed == 0)
        .map(|u| u.wall_s)
        .collect();
    let wall = if walls.is_empty() {
        f64::NAN
    } else {
        median(&walls)
    };
    EndToEnd {
        step_case_ms: 1e3 * wall / case_steps,
        // a case is a request admitted when `run` is called and answered
        // when it returns; like every batch timing, from the median unit
        requests_per_s: w.n_cases() as f64 / wall,
        // all cases are answered together
        latency_p50_ms: 1e3 * wall,
        latency_p75_ms: 1e3 * wall,
        latencies_per_unit: w.n_cases(),
        digests: units
            .iter()
            .flat_map(|u| u.digests.iter().cloned())
            .collect(),
        attempted: units.len() * w.n_cases(),
        failed: units.iter().map(|u| u.failed).sum(),
        units: units.len(),
    }
}

fn serve_end_to_end(w: &Workload, units: &[ServeUnit]) -> EndToEnd {
    let per_unit = |f: &dyn Fn(&ServeUnit) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    // a unit's percentile, not one pooled over units: a pooled one lands
    // between the latency clusters of a fast and a slow unit
    let latency = |u: &ServeUnit, p: f64| {
        if u.latencies_ms.is_empty() {
            f64::NAN
        } else {
            percentile(&u.latencies_ms, p)
        }
    };
    EndToEnd {
        step_case_ms: per_unit(&|u| 1e3 * u.wall_s / u.done_steps as f64),
        requests_per_s: per_unit(&|u| u.digests.len() as f64 / u.wall_s),
        latency_p50_ms: per_unit(&|u| latency(u, 0.5)),
        latency_p75_ms: per_unit(&|u| latency(u, 0.75)),
        latencies_per_unit: units
            .iter()
            .map(|u| u.latencies_ms.len())
            .min()
            .unwrap_or(0),
        digests: units
            .iter()
            .flat_map(|u| u.digests.iter().cloned())
            .collect(),
        attempted: units.len() * w.requests,
        failed: units.iter().map(|u| u.failed).sum(),
        units: units.len(),
    }
}

/// Check results against the reference and fold the misses into `failed`.
fn verify(w: &Workload, seed: u64, e2e: &mut EndToEnd) -> Result<(usize, bool), String> {
    let (reference, from_golden) = reference_for(w, seed)?;
    let (checked, missed) = reference.check(&e2e.digests);
    if missed > 0 {
        eprintln!(
            "hetbench: {}: {missed} of {checked} results miss their reference",
            w.name
        );
    }
    e2e.failed += missed;
    Ok((checked, from_golden))
}

/// The untraced pass: every end-to-end metric.
pub fn run_untraced(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let started = Instant::now();
    let mut tr = Tracer::new(false);
    let (backend, setup_times) = setup(w, &mut tr);
    let mut e2e = match w.primary {
        Primary::Batch => {
            let cfg = run_config(w, seed);
            let units = repeat_for(seconds, || batch_unit(w, &backend, &cfg, &mut tr));
            batch_end_to_end(w, &units)
        }
        Primary::Serve => {
            let requests = w.request_mix(seed);
            let units = repeat_for(seconds, || {
                serve_loop(w, &backend, &requests, &mut tr, false)
            });
            serve_end_to_end(w, &units)
        }
    };
    // before the reference: computing one may assemble a matrix the
    // workload itself never holds
    let rss = peak_rss_mb();
    let (checked, from_golden) = verify(w, seed, &mut e2e)?;
    let metrics = vec![
        ("setup_s", median(&setup_times.total)),
        ("step_case_ms", e2e.step_case_ms),
        ("requests_per_s", e2e.requests_per_s),
        ("request_latency_p50_ms", e2e.latency_p50_ms),
        ("request_latency_p75_ms", e2e.latency_p75_ms),
        ("peak_rss_mb", rss),
    ];
    Ok(Report {
        workload: w.name,
        seed,
        traced: false,
        attempted: e2e.attempted,
        failed: e2e.failed,
        checked,
        from_golden,
        metrics,
        samples: vec![
            ("setup_builds", setup_times.total.len()),
            ("units", e2e.units),
            ("latencies_per_unit", e2e.latencies_per_unit),
        ],
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// What the traced pass leaves behind besides the report.
pub struct Traced {
    pub report: Report,
    pub tracer: Tracer,
}

/// The traced pass: every per-layer metric. Fixed work — the layer pass,
/// one unit of each driver (the primary one, and the other as a small
/// probe) — whatever `--seconds` says.
pub fn run_traced(w: &Workload, seed: u64) -> Result<Traced, String> {
    let started = Instant::now();
    let mut tr = Tracer::new(true);
    let (backend, setup_times) = setup(w, &mut tr);
    let mut lv = LayerValues::default();
    lv.set("fem.problem_build_s", median(&setup_times.problem));
    lv.set("core.backend_build_s", median(&setup_times.backend));

    // layer pass, on a CRS-enabled twin where the workload has no matrix
    let twin =
        (!w.with_crs).then(|| Backend::new(FemProblem::paper_like(&w.ground_spec()), true, false));
    let pass = layer_pass(w, &backend, twin.as_ref().unwrap_or(&backend), &mut tr);
    drop(twin);
    lv.values.extend(pass.values);
    lv.samples.extend(pass.samples);

    // one unit of each driver
    let batch = batch_unit(w, &backend, &run_config(w, seed), &mut tr);
    let requests = w.request_mix(seed);
    let untraced_loop = (w.primary == Primary::Serve)
        .then(|| serve_loop(w, &backend, &requests, &mut Tracer::new(false), false));
    let traced_loop = serve_loop(w, &backend, &requests, &mut tr, true);

    let (mut e2e, step_allocs, overhead) = match untraced_loop {
        // serve workload: the same loop untraced, then traced
        Some(plain) => {
            if batch.failed > 0 {
                return Err("the batch probe failed".to_string());
            }
            fill_serve_metrics(&mut lv, &traced_loop, &tr);
            let ticks = plain.ticks as f64;
            let allocs = (
                plain.allocs.allocs as f64 / ticks,
                plain.allocs.bytes as f64 / ticks,
            );
            let step_ms = |u: &ServeUnit| 1e3 * u.wall_s / u.done_steps as f64;
            let (plain_ms, traced_ms) = (step_ms(&plain), step_ms(&traced_loop));
            // both loops' results are checked; the time is the untraced one's
            let mut e2e = serve_end_to_end(w, &[plain, traced_loop]);
            e2e.step_case_ms = plain_ms;
            (e2e, allocs, traced_ms / plain_ms)
        }
        // batch workloads: one span around `run`, nothing to re-run, so no
        // overhead to see; the serve loop was a probe
        None => {
            if traced_loop.failed > 0 {
                return Err("the serve probe failed".to_string());
            }
            fill_serve_metrics(&mut lv, &traced_loop, &tr);
            let steps = w.unit_steps as f64;
            let allocs = (
                batch.allocs.allocs as f64 / steps,
                batch.allocs.bytes as f64 / steps,
            );
            (
                batch_end_to_end(w, std::slice::from_ref(&batch)),
                allocs,
                1.0,
            )
        }
    };
    if batch.records.is_empty() {
        return Err("the batch unit produced no step records".to_string());
    }
    fill_run_metrics(&mut lv, &batch.records);
    lv.set("core.allocs_per_step", step_allocs.0);
    lv.set("core.alloc_kb_per_step", step_allocs.1 / 1024.0);
    lv.set(
        "core.layer_sum_frac",
        layer_sum_ms(w, &lv) / e2e.step_case_ms,
    );
    lv.set("bench.trace_overhead_ratio", overhead);

    let (checked, from_golden) = verify(w, seed, &mut e2e)?;
    lv.samples.extend([
        ("setup_builds", setup_times.total.len()),
        ("serve.tick", tr.durations("serve.tick").len()),
        ("serve.admit", tr.durations("serve.admit").len()),
        ("core.step_records", batch.records.len()),
    ]);
    let report = Report {
        workload: w.name,
        seed,
        traced: true,
        attempted: e2e.attempted,
        failed: e2e.failed,
        checked,
        from_golden,
        metrics: lv.values,
        samples: lv.samples,
        wall_s: started.elapsed().as_secs_f64(),
    };
    Ok(Traced { report, tracer: tr })
}

/// `core.*` counts from the step records of a `run`; exact, they repeat.
fn fill_run_metrics(lv: &mut LayerValues, records: &[StepRecord]) {
    let iters: Vec<f64> = records.iter().map(|r| r.iterations).collect();
    let steady = &iters[iters.len() - (iters.len() / 4).max(1)..];
    let res: Vec<f64> = records.iter().map(|r| r.initial_rel_res).collect();
    let s_used: Vec<f64> = records.iter().map(|r| r.s_used as f64).collect();
    let modeled: Vec<f64> = records.iter().map(|r| r.step_time_per_case).collect();
    lv.set("core.cg_iters_per_step", mean(&iters));
    lv.set("core.cg_iters_steady", mean(steady));
    lv.set("core.init_rel_res_p50", median(&res));
    lv.set("core.s_used_mean", mean(&s_used));
    lv.set("core.modeled_step_case_us", 1e6 * mean(&modeled));
}

/// `serve.*` from one traced loop and its spans.
fn fill_serve_metrics(lv: &mut LayerValues, unit: &ServeUnit, tr: &Tracer) {
    let done = unit.digests.len() as f64;
    let ckpt = unit
        .checkpoint
        .as_ref()
        .expect("traced loops probe the checkpoint");
    lv.set("serve.admit_us", 1e6 * median(&tr.durations("serve.admit")));
    lv.set(
        "serve.tick_ms_p50",
        1e3 * median(&tr.durations("serve.tick")),
    );
    lv.set("serve.ticks", unit.ticks as f64);
    lv.set("serve.occupancy_mean", unit.occupancy_mean);
    lv.set("serve.queue_wait_p50_ms", median(&unit.queue_waits_ms));
    lv.set(
        "serve.steps_per_request_mean",
        unit.done_steps as f64 / done,
    );
    lv.set("serve.modeled_cases_per_s", unit.modeled_cases_per_s);
    lv.set("serve.checkpoint_encode_ms", ckpt.encode_ms);
    lv.set("serve.checkpoint_kb", ckpt.kb);
    lv.set("serve.checkpoint_decode_ms", ckpt.decode_ms);
}

/// The part of one step of one case the layer pass accounts for (ms):
/// CG iterations at the measured time per iteration, the RHS build, the
/// predictor at the window actually used, and the CRC passes of the state
/// and RHS guards (capture + verify of u, v, a, four Adams columns and the
/// `s + 1` predictor columns, plus the RHS twice). `core.layer_sum_frac`
/// is this over `step_case_ms`; the rest is not attributed yet.
fn layer_sum_ms(w: &Workload, lv: &LayerValues) -> f64 {
    let iters = lv.get("core.cg_iters_per_step");
    let s_used = lv.get("core.s_used_mean");
    let (iter_ms, predictor_ms) = if w.method == MethodKind::EbeMcgCpuGpu {
        (
            lv.get("sparse.mcg_iter_ms") / w.r as f64,
            lv.get("predictor.predict_ms") * s_used / w.s_max as f64
                + lv.get("predictor.record_ms"),
        )
    } else {
        (lv.get("sparse.pcg_iter_ms"), 0.0)
    };
    let guard_passes = 2.0 * (3.0 + 4.0 + s_used + 1.0) + 2.0;
    iters * iter_ms
        + lv.get("core.rhs_build_ms")
        + predictor_ms
        + guard_passes * lv.get("core.guard_crc_ms")
}
