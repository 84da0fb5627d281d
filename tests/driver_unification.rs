//! One step driver for the four methods (DESIGN.md §5). Three pins against
//! the commit *before* the unification, none a self-comparison:
//!
//! * a *parent-bits pin*: everything a run leaves behind — the CRC of every
//!   `final_u`, the bits of every `StepRecord` field, the energy report,
//!   every recovery event and corruption report — recorded from the parent's
//!   hand-written `run_crs_single` / `run_crs_pipelined` loops (and its
//!   EBE-MCG `step_once`) on the 945-DOF test backend, under both window
//!   policies, under a solver-cap + poisoned-guess plan, and under a plan
//!   that exercises every charge the loops scheduled differently (lane
//!   stalls on both lanes, dropped and delayed exchanges, a poisoned
//!   snapshot, state and operator bit flips);
//! * a *parent checkpoint*: `HSCKPT` bytes the parent's durable driver wrote
//!   at step 2 of an EBE-MCG run restore under this commit and resume to a
//!   result bitwise equal to the uninterrupted run;
//! * the real-thread pipeline, now two `Vec<CaseSlot>`, against the final
//!   displacements of the parent's private `SetState` copy of the case
//!   state, clean and under a fault plan.
//!
//! The recorded values are the `driver_unification/…` and `realtime/…`
//! lines of the pin ledger (`tests/data/pins.txt`, see `pins/mod.rs`): the
//! tests render the same lines from this commit's one driver and check
//! them. A faulted scenario's lines also name every fault its plan landed.
//!
//! PR 23 moved the bits of every `CompactEbe` apply (block sweep: another
//! summation order), so the lines and the checkpoint were re-recorded from
//! that tree (`cargo test --release -- --ignored record` re-records both).
//! Against the lines recorded from the hand-written loops, only
//! floating-point bit patterns differ: every iteration count, window,
//! recovery event and corruption report is the same line
//! (`tests/thread_invariance.rs` holds the new tree to 1e-12 of the old
//! one's displacements).
//!
//! The `f32` predictor history moved the floating-point bits of the two
//! predicting methods (CRS-CG@CPU-GPU, EBE-MCG@CPU-GPU) once more, and the
//! lines, the checkpoint and the realtime CRCs were re-recorded again.
//! Every line of CRS-CG@CPU and CRS-CG@GPU, which keep no history, stayed
//! as it was, under every scenario; so did every iteration count and
//! window of the others.

use hetsolve::core::{crc_f64s, run_realtime, CheckpointPolicy, WindowPolicy};
use hetsolve::fault::{FaultLane, StateField};
use hetsolve::prelude::*;

mod pins;
#[path = "pins/run.rs"]
mod run_pins;
use run_pins::run_lines;

const METHODS: [MethodKind; 4] = [
    MethodKind::CrsCgCpu,
    MethodKind::CrsCgGpu,
    MethodKind::CrsCgCpuGpu,
    MethodKind::EbeMcgCpuGpu,
];

fn backend() -> Backend {
    let spec = GroundModelSpec::paper_like(4, 3, 2, InterfaceShape::Stratified);
    let b = Backend::new(FemProblem::paper_like(&spec), true, false);
    assert_eq!(b.n_dofs(), 945);
    b
}

fn config(method: MethodKind, window: WindowPolicy) -> RunConfig {
    let mut cfg = RunConfig::new(method, single_gh200(), 12);
    cfg.r = 2;
    cfg.s_max = 6;
    cfg.region_dofs = 300;
    cfg.window = window;
    cfg.load = RandomLoadSpec {
        n_sources: 4,
        impulses_per_source: 2.0,
        amplitude: 1e6,
        active_window: 0.2,
    };
    cfg
}

/// The four scenarios every method is pinned under.
fn scenarios() -> [(&'static str, WindowPolicy, FaultPlan); 4] {
    [
        ("adaptive", WindowPolicy::Adaptive, FaultPlan::new(17)),
        ("full_window", WindowPolicy::FullWindow, FaultPlan::new(17)),
        (
            "cap+nan_guess",
            WindowPolicy::Adaptive,
            FaultPlan::new(17).cap_solver(7, 0, 2).nan_guess(3, 0, 0.1),
        ),
        (
            "stalls+exchange+sdc",
            WindowPolicy::Adaptive,
            FaultPlan::new(23)
                .stall_lane(2, 0, FaultLane::Cpu, 1e-3)
                .stall_lane(5, 0, FaultLane::Gpu, 2e-3)
                .stall_lane(5, 1, FaultLane::Cpu, 5e-4)
                .drop_exchange(4, 0)
                .delay_exchange(6, 0, 3.0)
                .delay_exchange(6, 1, 2.0)
                .nan_snapshot(8, 0, 0.2)
                .flip_state(9, 0, StateField::V)
                .flip_operator(10)
                .flip_rhs(11, 0),
        ),
    ]
}

/// Every run of every method under every scenario, rendered by
/// [`run_lines`] under `<method>/<scenario>/`, with one `injected/<i>` line
/// per fault the scenario's plan landed: a planned fault that stops firing
/// shows as a missing line, not as a quietly clean run.
fn driver_lines() -> Vec<(String, String)> {
    let b = backend();
    let mut lines = Vec::new();
    for method in METHODS {
        for (name, window, mut plan) in scenarios() {
            let cfg = config(method, window);
            let res = run_with(&b, &cfg, Hooks::default().faults(&mut plan))
                .unwrap_or_else(|e| panic!("{method:?} {name}: {e}"));
            let mut run = run_lines(&res);
            for (i, fault) in plan.injected().iter().enumerate() {
                run.push((
                    format!("injected/{i}"),
                    format!("{} {:?}", fault.step, fault.kind),
                ));
            }
            let at = format!("{}/{name}", method.label());
            lines.extend(
                run.into_iter()
                    .map(|(item, value)| (format!("{at}/{item}"), value)),
            );
        }
    }
    lines
}

#[test]
fn the_one_driver_reproduces_the_parents_hand_written_loops_bit_for_bit() {
    pins::check("driver_unification", &driver_lines());
}

/// `HSCKPT` bytes written by an earlier commit's durable driver at step 2 of
/// an EBE-MCG run under [`ckpt_config`].
const PARENT_CKPT: &[u8] = include_bytes!("data/parent_ebe_step2.hsckpt");

/// A narrow lane and a short window keep the committed bytes small.
fn ckpt_config() -> RunConfig {
    let mut cfg = config(MethodKind::EbeMcgCpuGpu, WindowPolicy::Adaptive);
    cfg.r = 1;
    cfg.s_max = 3;
    cfg.n_steps = 8;
    cfg
}

#[test]
fn a_parent_checkpoint_restores_and_resumes_bitwise() {
    let b = backend();
    let cfg = ckpt_config();
    let dir = std::env::temp_dir().join("hs-driver-unification-parent-ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir, 3).unwrap();
    std::fs::write(store.path_for(2), PARENT_CKPT).unwrap();

    let policy = CheckpointPolicy { every: 0, keep: 3 };
    let res = run_with(&b, &cfg, Hooks::default().durable(&store, policy))
        .expect("resume from the parent's checkpoint");
    let out = res.durable.as_ref().expect("a run with a store");
    assert!(out.restore.clean(), "{}", out.restore);
    assert_eq!(out.resumed_from, Some(2));

    let plain = run(&b, &cfg).expect("uninterrupted");
    assert_eq!(run_lines(&res), run_lines(&plain));
    for (ua, ub) in res.final_u.iter().zip(&plain.final_u) {
        assert!(ua.iter().zip(ub).all(|(p, q)| p.to_bits() == q.to_bits()));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `run_realtime` drives `CaseSlot::prepare_guess` / `advance` like every
/// other driver; its results are the ones the parent's hand-rolled
/// `SetState` (own RHS build, own predictor call, own Newmark advance)
/// produced: the CRC of every `final_u` and the recovery count, clean and
/// under a fault plan.
fn realtime_lines() -> Vec<(String, String)> {
    let b = backend();
    let cfg = config(MethodKind::EbeMcgCpuGpu, WindowPolicy::Adaptive);
    let faulty = FaultPlan::new(5)
        .nan_guess(3, 1, 0.2)
        .cap_solver(6, 1, 2)
        .nan_snapshot(8, 2, 0.3)
        .scale_guess(9, 3, 1e3);
    let mut lines = Vec::new();
    for (name, mut plan) in [("clean", FaultPlan::new(5)), ("faulty", faulty)] {
        let (final_u, report) =
            run_realtime(&b, &cfg, Hooks::default().faults(&mut plan)).expect("realtime");
        for (c, u) in final_u.iter().enumerate() {
            lines.push((
                format!("{name}/final_u/{c}"),
                format!("{:08x}", crc_f64s(u)),
            ));
        }
        lines.push((format!("{name}/recoveries"), report.recoveries.to_string()));
    }
    lines
}

#[test]
fn realtime_on_case_slots_reproduces_the_parents_set_state() {
    pins::check("realtime", &realtime_lines());
}

/// On a clean run `run_realtime` is `run_with` under
/// `WindowPolicy::FullWindow` bit for bit, `parallel` on and off: both
/// predict every case with the window its history allows, up to `s_max`.
/// The drivers differ in one place, so faults stay out of this test: after
/// an injected `nan_snapshot` resets one case's history, the realtime
/// driver clamps its whole set to case 0's window, while `FullWindow`
/// keeps each case's own.
#[test]
fn clean_realtime_is_the_full_window_driver_bitwise() {
    let spec = GroundModelSpec::paper_like(4, 3, 2, InterfaceShape::Stratified);
    for parallel in [false, true] {
        let b = Backend::new(FemProblem::paper_like(&spec), false, parallel);
        for (r, s_max) in [(1, 6), (2, 4), (4, 16)] {
            let mut cfg = config(MethodKind::EbeMcgCpuGpu, WindowPolicy::FullWindow);
            cfg.n_steps = 24;
            cfg.r = r;
            cfg.s_max = s_max;
            let (realtime, _) = run_realtime(&b, &cfg, Hooks::default()).expect("realtime");
            let full = run(&b, &cfg).expect("full window");
            assert_eq!(realtime.len(), full.final_u.len());
            for (c, (ua, ub)) in realtime.iter().zip(&full.final_u).enumerate() {
                assert!(
                    ua.iter().zip(ub).all(|(p, q)| p.to_bits() == q.to_bits()),
                    "parallel={parallel} r={r} s_max={s_max}: case {c} differs"
                );
            }
        }
    }
}

/// A ledger that holds a key twice fails.
#[test]
#[should_panic(expected = "pins.txt:2: key s/a/x is repeated")]
fn a_repeated_ledger_key_fails() {
    let _ = pins::diffs("s/a/x 1\ns/a/x 1\n", "s", &[]);
}

/// A key its suite no longer computes fails; other suites' keys are theirs.
#[test]
fn a_stale_ledger_line_fails() {
    let lines = [("a/x".to_string(), "1".to_string())];
    let diffs = pins::diffs("s/a/x 1\ns/a/y 2\nt/a/y 3\n", "s", &lines);
    assert_eq!(diffs, ["s/a/y: ledger 2, computed nothing"]);
}

#[test]
#[ignore = "rewrites the driver_unification and realtime lines of tests/data/pins.txt"]
fn record_pins() {
    pins::record("driver_unification", &driver_lines());
    pins::record("realtime", &realtime_lines());
}
