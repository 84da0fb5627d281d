//! Thread invariance of the host pool (DESIGN.md §19): everything a run
//! leaves behind is the same, bit for bit, on pools of 1, 2, 3 and 4
//! threads — and the same as what the parent commit, which had no threads,
//! computed (two digests pinned from it below, not a self-comparison).
//!
//! The mesh is the 9,537-DOF one of the `hetbench` 10k workloads: large
//! enough that every chunked path engages (colour groups of up to four
//! pool chunks, 13 chunks of block rows in the CRS SpMV, multi-vectors of
//! three 4096-row chunks at `r = 2` — at `r = 1` they are below the
//! threshold, one chunk — and 25 predictor regions), on a `parallel = true`
//! backend with assembled matrices so all four methods run.
//!
//! * `run` for all four `MethodKind`s: the CRC of every `final_u`, every
//!   `StepRecord` field, the energy report, `recoveries` and `corruptions`;
//! * a closed serve loop through `EnsembleServer`: tick count, every
//!   request's result, and the server's checkpoint bytes (records, stats,
//!   modeled clock, lane state);
//! * a `run_durable` killed at a step boundary and resumed: the result,
//!   and the bytes of every checkpoint file the two legs wrote.

use std::sync::OnceLock;

use hetsolve::core::{crc_f64s, run_durable, CheckpointPolicy, StepTracer, WindowPolicy};
use hetsolve::pool::Pool;
use hetsolve::prelude::*;
use hetsolve::serve::RequestState;

const METHODS: [MethodKind; 4] = [
    MethodKind::CrsCgCpu,
    MethodKind::CrsCgGpu,
    MethodKind::CrsCgCpuGpu,
    MethodKind::EbeMcgCpuGpu,
];

const THREADS: [usize; 4] = [1, 2, 3, 4];

/// One backend for the whole file (assembly at 9,537 DOF takes a moment).
fn backend() -> &'static Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    BACKEND.get_or_init(|| {
        let spec = GroundModelSpec::paper_like(8, 8, 5, InterfaceShape::Basin);
        let b = Backend::new(FemProblem::paper_like(&spec), true, true);
        assert_eq!(b.n_dofs(), 9537);
        b
    })
}

fn load() -> RandomLoadSpec {
    RandomLoadSpec {
        n_sources: 8,
        impulses_per_source: 2.0,
        amplitude: 1e6,
        active_window: 0.2,
    }
}

fn config(method: MethodKind) -> RunConfig {
    let mut cfg = RunConfig::new(method, single_gh200(), 7);
    cfg.r = 2;
    cfg.s_max = 4;
    cfg.window = WindowPolicy::Adaptive;
    cfg.load = load();
    cfg
}

/// Everything one run leaves behind, one line per item, by bit pattern.
fn render_run(res: &RunResult) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "## {} n_cases={}", res.method.label(), res.n_cases).unwrap();
    for (c, u) in res.final_u.iter().enumerate() {
        writeln!(out, "final_u {c} {:08x}", crc_f64s(u)).unwrap();
    }
    for r in &res.records {
        writeln!(
            out,
            "step {} {:016x} {:016x} {:016x} {:016x} {:016x} {} {:016x}",
            r.step,
            r.step_time_per_case.to_bits(),
            r.solver_time_per_case.to_bits(),
            r.predictor_time_per_case.to_bits(),
            r.transfer_time.to_bits(),
            r.iterations.to_bits(),
            r.s_used,
            r.initial_rel_res.to_bits(),
        )
        .unwrap();
    }
    writeln!(
        out,
        "energy {:016x} {:016x}",
        res.energy.energy.to_bits(),
        res.energy.elapsed.to_bits()
    )
    .unwrap();
    for ev in &res.recoveries {
        writeln!(out, "recovery {ev:?}").unwrap();
    }
    for rep in &res.corruptions {
        writeln!(out, "corruption {rep:?}").unwrap();
    }
    out
}

/// FNV-1a over the rendered lines: what the parent pins are recorded as.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn assert_same_bits(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: case count");
    for (case, (ua, ub)) in a.iter().zip(b).enumerate() {
        assert!(
            ua.len() == ub.len() && ua.iter().zip(ub).all(|(p, q)| p.to_bits() == q.to_bits()),
            "{what}: case {case} differs"
        );
    }
}

/// Digests of `render_run(run(backend(), config(method)))` at the parent
/// commit (cce8d3c: serial `rayon` shim, `parallel` a dead flag).
const PARENT_RUN_DIGESTS: [(MethodKind, u64); 2] = [
    (MethodKind::CrsCgCpuGpu, 0x7678_77b7_0fcb_15c3),
    (MethodKind::EbeMcgCpuGpu, 0xed91_67ce_86b9_d3ca),
];

#[test]
fn run_leaves_the_same_bits_at_any_thread_count() {
    let b = backend();
    for method in METHODS {
        let cfg = config(method);
        let reference = Pool::with_threads(1).install(|| run(b, &cfg).expect("one thread"));
        assert!(reference.records.iter().any(|r| r.iterations > 0.0));
        let rendered = render_run(&reference);
        for (pinned, want) in PARENT_RUN_DIGESTS {
            if pinned == method {
                assert_eq!(
                    digest(&rendered),
                    want,
                    "{method:?}: bits moved against the parent commit:\n{rendered}"
                );
            }
        }
        for threads in &THREADS[1..] {
            let res = Pool::with_threads(*threads).install(|| run(b, &cfg).expect("run"));
            assert_eq!(
                render_run(&res),
                rendered,
                "{method:?} at {threads} threads"
            );
            assert_same_bits(
                &res.final_u,
                &reference.final_u,
                &format!("{method:?} at {threads} threads"),
            );
        }
    }
}

/// A closed loop of `CLIENTS` clients issuing `LENGTHS.len()` requests in
/// all, each client admitting its next request when its previous one turns
/// terminal (the `serve_closed_10k` shape). Returns the tick count, every
/// request's result in request order, and the final checkpoint bytes.
fn closed_serve_loop(b: &Backend) -> (usize, Vec<Vec<f64>>, Vec<u8>) {
    const CLIENTS: usize = 3;
    const LENGTHS: [usize; 7] = [2, 4, 3, 2, 4, 2, 3];
    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run.r = 2;
    cfg.run.s_max = 4;
    cfg.run.load = load();
    let mut server = EnsembleServer::new(b, cfg);
    let mut clients: Vec<Option<(usize, _)>> = vec![None; CLIENTS];
    let mut results: Vec<Vec<f64>> = vec![Vec::new(); LENGTHS.len()];
    let mut next = 0;
    loop {
        for client in clients.iter_mut().filter(|c| c.is_none()) {
            if next < LENGTHS.len() {
                let request = SolveRequest::new(7000 + next as u64, LENGTHS[next]);
                *client = Some((next, server.admit(request).expect("admit")));
                next += 1;
            }
        }
        if clients.iter().all(Option::is_none) {
            break;
        }
        assert!(server.ticks() < 200, "serve loop stuck");
        server.tick();
        for client in clients.iter_mut() {
            let Some((index, id)) = *client else { continue };
            let state = server.record(id).state;
            if state.is_terminal() {
                assert_eq!(state, RequestState::Done, "request {index}");
                results[index] = server.result(id).expect("a done request's result").to_vec();
                *client = None;
            }
        }
    }
    (server.ticks(), results, server.checkpoint_bytes())
}

#[test]
fn closed_serve_loop_leaves_the_same_bits_at_any_thread_count() {
    let b = backend();
    let (ticks, results, ckpt) = Pool::with_threads(1).install(|| closed_serve_loop(b));
    assert!(results.iter().all(|u| u.iter().any(|&v| v != 0.0)));
    for threads in &THREADS[1..] {
        let (t, r, c) = Pool::with_threads(*threads).install(|| closed_serve_loop(b));
        assert_eq!(t, ticks, "ticks at {threads} threads");
        assert_same_bits(&r, &results, &format!("serve at {threads} threads"));
        assert!(c == ckpt, "server checkpoint bytes at {threads} threads");
    }
}

/// `run_durable` killed at step 5 and resumed (checkpoint every 2 steps):
/// the resumed result, and `(file name, bytes)` of every checkpoint the
/// two legs left in the store.
fn kill_and_resume(b: &Backend, tag: usize) -> (RunResult, Vec<(String, Vec<u8>)>) {
    let cfg = config(MethodKind::EbeMcgCpuGpu);
    let dir = std::env::temp_dir().join(format!("hs-thread-invariance-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir, 4).unwrap();
    let policy = CheckpointPolicy { every: 2, keep: 4 };
    let mut plan = FaultPlan::new(7).crash_at(5);
    let leg = |plan: &mut FaultPlan| {
        run_durable(b, &cfg, &mut StepTracer::disabled(), plan, &store, policy)
    };
    assert_eq!(leg(&mut plan).unwrap_err(), RunError::Crashed { step: 5 });
    let out = leg(&mut plan).expect("resume");
    assert!(out.restore.clean(), "{}", out.restore);
    assert_eq!(out.resumed_from, Some(4));
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    std::fs::remove_dir_all(&dir).unwrap();
    (out.result, files)
}

#[test]
fn durable_kill_and_resume_leaves_the_same_bits_at_any_thread_count() {
    let b = backend();
    let cfg = config(MethodKind::EbeMcgCpuGpu);
    let plain = Pool::with_threads(1).install(|| run(b, &cfg).expect("uninterrupted"));
    let mut reference: Option<Vec<(String, Vec<u8>)>> = None;
    for threads in THREADS {
        let (res, files) = Pool::with_threads(threads).install(|| kill_and_resume(b, threads));
        assert_eq!(
            render_run(&res),
            render_run(&plain),
            "resumed at {threads} threads"
        );
        assert_same_bits(
            &res.final_u,
            &plain.final_u,
            &format!("resumed at {threads} threads"),
        );
        assert!(files.len() >= 2, "checkpoints written: {}", files.len());
        let reference = reference.get_or_insert_with(|| files.clone());
        assert!(files == *reference, "checkpoint bytes at {threads} threads");
    }
}
