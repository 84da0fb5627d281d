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
//! `tests/data/driver_unification_parent.txt` holds the recorded lines; the
//! test renders the same lines from this commit's one driver and compares.
//!
//! PR 23 moved the bits of every `CompactEbe` apply (block sweep: another
//! summation order), so the lines, the checkpoint and the CRCs below were
//! re-recorded from that tree (`record_pins`, ignored; the checkpoint by
//! `wire_golden.rs::record_goldens`). Against the lines recorded from the
//! hand-written loops, only floating-point bit patterns differ: every
//! iteration count, window, recovery event and corruption report is the
//! same line (`tests/thread_invariance.rs` holds the new tree to 1e-12 of
//! the old one's displacements).

use hetsolve::core::{crc_f64s, run_realtime, CheckpointPolicy, WindowPolicy};
use hetsolve::fault::{FaultLane, StateField};
use hetsolve::prelude::*;

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

/// Everything one run leaves behind, one line per item, by bit pattern.
fn render_run(out: &mut String, name: &str, res: &RunResult) {
    use std::fmt::Write;
    writeln!(
        out,
        "## {} {name} n_cases={}",
        res.method.label(),
        res.n_cases
    )
    .unwrap();
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
        writeln!(
            out,
            "recovery {} {} {:?} {} {} {}",
            ev.step,
            ev.set,
            ev.case,
            ev.failed.label(),
            ev.recovered_with.label(),
            ev.attempts
        )
        .unwrap();
    }
    for rep in &res.corruptions {
        writeln!(
            out,
            "corruption {} {:?} {} {}",
            rep.step,
            rep.case,
            rep.target.label(),
            rep.action.label()
        )
        .unwrap();
    }
}

fn render_all() -> String {
    let b = backend();
    let mut out = String::new();
    for method in METHODS {
        for (name, window, mut plan) in scenarios() {
            let cfg = config(method, window);
            let res = run_with(&b, &cfg, Hooks::default().faults(&mut plan))
                .unwrap_or_else(|e| panic!("{method:?} {name}: {e}"));
            render_run(&mut out, name, &res);
        }
    }
    out
}

#[test]
fn the_one_driver_reproduces_the_parents_hand_written_loops_bit_for_bit() {
    let expected = include_str!("data/driver_unification_parent.txt");
    let got = render_all();
    for (i, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(g, e, "line {}: driver diverged from the parent", i + 1);
    }
    assert_eq!(got.lines().count(), expected.lines().count());
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
    let (mut resumed, mut whole) = (String::new(), String::new());
    render_run(&mut resumed, "resumed", &res);
    render_run(&mut whole, "resumed", &plain);
    assert_eq!(resumed, whole);
    for (ua, ub) in res.final_u.iter().zip(&plain.final_u) {
        assert!(ua.iter().zip(ub).all(|(p, q)| p.to_bits() == q.to_bits()));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `run_realtime` drives `CaseSlot::prepare_guess` / `advance` like every
/// other driver; its results are the ones the parent's hand-rolled
/// `SetState` (own RHS build, own predictor call, own Newmark advance)
/// produced.
#[test]
fn realtime_on_case_slots_reproduces_the_parents_set_state() {
    let b = backend();
    let cfg = config(MethodKind::EbeMcgCpuGpu, WindowPolicy::Adaptive);
    let faulty = FaultPlan::new(5)
        .nan_guess(3, 1, 0.2)
        .cap_solver(6, 1, 2)
        .nan_snapshot(8, 2, 0.3)
        .scale_guess(9, 3, 1e3);
    for (mut plan, crcs, recoveries) in [
        (
            FaultPlan::new(5),
            [0xcf68fdc7, 0x5706654d, 0xeb74d23d, 0x95d4c4a7],
            0,
        ),
        (faulty, [0xcf68fdc7, 0x24ce0ea4, 0xe1fefaad, 0x48be41f2], 3),
    ] {
        let (final_u, report) =
            run_realtime(&b, &cfg, Hooks::default().faults(&mut plan)).expect("realtime");
        let got: Vec<u32> = final_u.iter().map(|u| crc_f64s(u)).collect();
        assert_eq!(got, crcs);
        assert_eq!(report.recoveries, recoveries);
    }
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

#[test]
#[ignore = "rewrites tests/data/driver_unification_parent.txt from the code under test"]
fn record_pins() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/driver_unification_parent.txt");
    std::fs::write(path, render_all()).unwrap();
}
