//! Under the adaptive window a case keeps only the predictor snapshots its
//! window can reach (DESIGN.md §2): after each step's decision the step
//! driver drops every column beyond `reach() + 1`. The next step reads at
//! most `s + 1` of them, so on a run whose window never regrows faster
//! than that the trim moves no bit. Pinned here on a run where it engages:
//! the digests (the `history_retention/…` lines of `tests/data/pins.txt`)
//! are those of the untrimmed store, every boundary image holds at most
//! `reach() + 1` columns per case, and a run killed after the first trim
//! and resumed from its image is bitwise the uninterrupted one.

use hetsolve::core::{crc_f64s, ConfigFingerprint, RunCheckpoint, WindowPolicy};
use hetsolve::fem::FemProblem;
use hetsolve::predictor::AdaptiveWindow;
use hetsolve::prelude::*;

mod pins;

const STEPS: usize = 40;
const S_MAX: usize = 32;

fn backend() -> Backend {
    let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
    Backend::new(FemProblem::paper_like(&spec), false, false)
}

fn config() -> RunConfig {
    let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), STEPS);
    (cfg.r, cfg.s_max, cfg.region_dofs) = (2, S_MAX, 96);
    assert!(cfg.window == WindowPolicy::Adaptive && cfg.integrity.detect);
    cfg
}

/// A store under the temp directory that keeps an image of every step
/// boundary.
fn store(name: &str) -> CheckpointStore {
    let dir = std::env::temp_dir().join(format!("hs-retention-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    CheckpointStore::new(dir, STEPS).expect("temp store")
}

/// An image of every step boundary.
const POLICY: CheckpointPolicy = CheckpointPolicy {
    every: 1,
    keep: STEPS,
};

/// The clean run, its images in `st`.
fn clean_run(st: &CheckpointStore) -> RunResult {
    let hooks = Hooks::default().durable(st, POLICY);
    let mut res = run_with(&backend(), &config(), hooks).expect("clean run");
    res.durable = None;
    res
}

/// What the untrimmed store gives this run, as pin-ledger lines: the CRC
/// of each case's `final_u`, and of the per-step mean initial residuals.
fn digests(res: &RunResult) -> Vec<(String, String)> {
    let mut lines: Vec<(String, String)> = (res.final_u.iter().enumerate())
        .map(|(c, u)| (format!("final_u/{c}"), format!("{:08x}", crc_f64s(u))))
        .collect();
    let res0: Vec<f64> = res.records.iter().map(|r| r.initial_rel_res).collect();
    lines.push(("initial_rel_res".into(), format!("{:08x}", crc_f64s(&res0))));
    lines
}

fn assert_bitwise_eq(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: case count");
    for (case, (ua, ub)) in a.iter().zip(b).enumerate() {
        assert!(
            ua.len() == ub.len() && ua.iter().zip(ub).all(|(p, q)| p.to_bits() == q.to_bits()),
            "{what}: case {case} differs"
        );
    }
}

#[test]
fn the_trimmed_history_moves_no_bit_and_resumes_bitwise() {
    let (b, cfg) = (backend(), config());
    let fp = ConfigFingerprint::of(&b, &cfg);
    let st = store("every");
    let res = clean_run(&st);
    // the untrimmed store's digests, recorded before the trim existed
    pins::check("history_retention", &digests(&res));

    // every boundary image: each case within the reach of the window the
    // image resumes with, and the first trim below the untrimmed store
    let mut first_trim = None;
    for step in 1..STEPS {
        let bytes = std::fs::read(st.path_for(step as u64)).expect("an image per boundary");
        let image = RunCheckpoint::from_bytes(&bytes, fp).expect("a valid image");
        let mut window = AdaptiveWindow::new(1, S_MAX);
        window.restore_state(image.adaptive_s, image.adaptive_unit_cost);
        let keep = window.reach() + 1;
        for (case, slot) in image.slots.iter().enumerate() {
            let held = slot.dd_hist.len();
            assert!(held <= keep, "step {step} case {case}: {held} > {keep}");
            if held < step.min(S_MAX + 1) {
                first_trim = first_trim.or(Some(step));
            }
        }
    }
    let first_trim = first_trim.expect("the trim engages on this run");
    assert!(first_trim + 2 < STEPS);
    std::fs::remove_dir_all(st.dir()).expect("temp store");

    // killed after the first trim, resumed from its image
    let kill = first_trim + 2;
    let st = store("kill");
    let mut plan = FaultPlan::new(0).crash_at(kill);
    let hooks = Hooks::default().faults(&mut plan).durable(&st, POLICY);
    assert_eq!(
        run_with(&b, &cfg, hooks).unwrap_err(),
        RunError::Crashed { step: kill }
    );
    let mut resumed =
        run_with(&b, &cfg, Hooks::default().durable(&st, POLICY)).expect("resumed run");
    let out = resumed.durable.take().expect("a durable run");
    assert_eq!(out.resumed_from, Some(kill));
    assert_bitwise_eq(&resumed.final_u, &res.final_u, "resumed");
    assert_eq!(digests(&resumed), digests(&res));
    std::fs::remove_dir_all(st.dir()).expect("temp store");
}

#[test]
#[ignore = "rewrites the history_retention lines of tests/data/pins.txt"]
fn record_pins() {
    let st = store("record");
    pins::record("history_retention", &digests(&clean_run(&st)));
    std::fs::remove_dir_all(st.dir()).expect("temp store");
}
