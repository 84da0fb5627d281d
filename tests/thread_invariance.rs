//! Thread invariance of the host pool (DESIGN.md §19): everything a run
//! leaves behind is the same, bit for bit, on pools of 1, 2, 3 and 4
//! threads. Two run digests are pinned: recorded from the serial commit
//! before the pool (cce8d3c) and held by every commit up to PR 22, then
//! re-recorded at PR 23, whose block sweep sums each row of a matrix-free
//! apply in another order — `final_u_is_the_parents_to_rounding` holds the
//! new bits to 1e-12 of what PR 22 computed.
//!
//! The mesh is the 9,537-DOF one of the `hetbench` 10k workloads: large
//! enough that every chunked path engages (element phases of 6–9 blocks,
//! 13 chunks of block rows in the CRS SpMV, multi-vectors of
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

/// Digests of `render_run(run(backend(), config(method)))`, recorded at
/// PR 23 on one thread (see the module docs).
const RUN_DIGESTS: [(MethodKind, u64); 2] = [
    (MethodKind::CrsCgCpuGpu, 0xaffc_9b1d_5b97_d95a),
    (MethodKind::EbeMcgCpuGpu, 0x694b_ecbb_af79_82d1),
];

#[test]
fn run_leaves_the_same_bits_at_any_thread_count() {
    let b = backend();
    for method in METHODS {
        let cfg = config(method);
        let reference = Pool::with_threads(1).install(|| run(b, &cfg).expect("one thread"));
        assert!(reference.records.iter().any(|r| r.iterations > 0.0));
        let rendered = render_run(&reference);
        for (pinned, want) in RUN_DIGESTS {
            if pinned == method {
                assert_eq!(
                    digest(&rendered),
                    want,
                    "{method:?}: bits moved against the pinned digest:\n{rendered}"
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

/// What the parent commit (2eb2b5f, the all-colours sweep) computed for
/// [`differential_vectors`]: per vector `‖u‖₂`, `‖u‖∞` and every
/// [`SAMPLE_STRIDE`]-th entry, as little-endian `f64` — written by
/// `record_parent_final_u` run on a checkout of that commit.
const PARENT_FINAL_U: &[u8] = include_bytes!("data/parent_pr22_final_u.bin");
const SAMPLE_STRIDE: usize = 16;

/// Every `final_u` of the four methods, then every result of the closed
/// serve loop, on one thread.
fn differential_vectors(b: &Backend) -> Vec<Vec<f64>> {
    Pool::with_threads(1).install(|| {
        let mut all = Vec::new();
        for method in METHODS {
            all.extend(run(b, &config(method)).expect("run").final_u);
        }
        all.extend(closed_serve_loop(b).1);
        all
    })
}

fn norms_and_samples(u: &[f64]) -> Vec<f64> {
    let l2 = u.iter().map(|v| v * v).sum::<f64>().sqrt();
    let linf = u.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let mut out = vec![l2, linf];
    out.extend(u.iter().step_by(SAMPLE_STRIDE));
    out
}

/// The block sweep sums each row in another order than the parent's colour
/// sweep, so the bits moved — by rounding only: every displacement the four
/// methods and the serve loop end on is the parent's to 1e-12 of its
/// largest entry.
#[test]
fn final_u_is_the_parents_to_rounding() {
    let mut parent = PARENT_FINAL_U
        .chunks_exact(8)
        .map(|w| f64::from_le_bytes(w.try_into().unwrap()));
    let mut worst = 0.0f64;
    for (k, u) in differential_vectors(backend()).iter().enumerate() {
        let got = norms_and_samples(u);
        let want: Vec<f64> = parent.by_ref().take(got.len()).collect();
        assert_eq!(want.len(), got.len(), "vector {k}: recorded file too short");
        let (l2, linf) = (want[0], want[1]);
        assert!(linf > 0.0, "vector {k}: the parent's result is zero");
        worst = worst.max((got[0] - l2).abs() / l2);
        for (g, w) in got[2..].iter().zip(&want[2..]) {
            worst = worst.max((g - w).abs() / linf);
        }
        assert!(worst <= 1e-12, "vector {k}: {worst:e} from the parent");
    }
    assert_eq!(parent.next(), None, "recorded file has vectors left over");
    println!("largest deviation from the parent: {worst:e}");
}

#[test]
#[ignore = "rewrites tests/data/parent_pr22_final_u.bin; meant for a checkout of the parent commit"]
fn record_parent_final_u() {
    let bytes: Vec<u8> = differential_vectors(backend())
        .iter()
        .flat_map(|u| norms_and_samples(u))
        .flat_map(f64::to_le_bytes)
        .collect();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/parent_pr22_final_u.bin");
    std::fs::write(path, bytes).unwrap();
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
