//! The robustness acceptance suite (DESIGN.md §10): every injected fault
//! either *recovers* — the run completes and matches the fault-free
//! trajectory to solver accuracy, with the recovery recorded — or fails
//! *typed* through [`RunError`]. Nothing in here may panic. The flip side
//! is neutrality: with an empty [`FaultPlan`] the hooked driver must be
//! bitwise-identical to the plain one.

use hetsolve::core::{run, run_realtime, GuessSource, RunError, StepTracer};
use hetsolve::fault::FaultLane;
use hetsolve::fem::FemProblem;
use hetsolve::obs::Termination;
use hetsolve::prelude::*;
use hetsolve::sparse::SolveError;

fn backend() -> Backend {
    let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
    Backend::new(FemProblem::paper_like(&spec), true, true)
}

fn config(method: MethodKind, steps: usize) -> RunConfig {
    let mut cfg = RunConfig::new(method, single_gh200(), steps);
    cfg.r = 2;
    cfg.s_max = 6;
    cfg.load = RandomLoadSpec {
        n_sources: 6,
        impulses_per_source: 2.0,
        amplitude: 1e6,
        active_window: 0.25,
    };
    cfg
}

const ALL_METHODS: [MethodKind; 4] = [
    MethodKind::CrsCgCpu,
    MethodKind::CrsCgGpu,
    MethodKind::CrsCgCpuGpu,
    MethodKind::EbeMcgCpuGpu,
];

/// Max-norm relative distance between two per-case displacement sets.
fn rel_distance(a: &[Vec<f64>], b: &[Vec<f64>]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mut scale = 0.0f64;
    let mut diff = 0.0f64;
    for (ua, ub) in a.iter().zip(b) {
        for (&p, &q) in ua.iter().zip(ub) {
            scale = scale.max(p.abs());
            diff = diff.max((p - q).abs());
        }
    }
    assert!(scale > 0.0, "degenerate baseline");
    diff / scale
}

#[test]
fn noop_faults_are_bitwise_neutral_for_all_methods() {
    let b = backend();
    for method in ALL_METHODS {
        let cfg = config(method, 10);
        let plain = run(&b, &cfg).expect("run");
        let mut empty = FaultPlan::default();
        let faulted =
            run_with(&b, &cfg, Hooks::default().faults(&mut empty)).expect("empty-plan run");
        assert!(
            plain.recoveries.is_empty(),
            "{method:?}: healthy run recovered"
        );
        assert!(faulted.recoveries.is_empty());
        for (case, (up, uf)) in plain.final_u.iter().zip(&faulted.final_u).enumerate() {
            for (p, f) in up.iter().zip(uf) {
                assert_eq!(
                    p.to_bits(),
                    f.to_bits(),
                    "{method:?}: an empty plan perturbed case {case}"
                );
            }
        }
    }
}

#[test]
fn nan_guess_recovers_via_ladder_on_every_method() {
    let b = backend();
    for method in ALL_METHODS {
        let cfg = config(method, 12);
        let baseline = run(&b, &cfg).expect("baseline");
        // case/set addressing differs per driver: single-case drivers query
        // case 0, the pipelined driver queries per-set, EBE per global case
        let mut plan = FaultPlan::new(7).nan_guess(5, 0, 0.3);
        let res = run_with(&b, &cfg, Hooks::default().faults(&mut plan))
            .unwrap_or_else(|e| panic!("{method:?}: NaN guess was not recovered: {e}"));
        assert!(plan.all_fired(), "{method:?}: scheduled fault never fired");
        assert!(
            !res.recoveries.is_empty(),
            "{method:?}: NaN guess must go through the recovery ladder"
        );
        let ev = &res.recoveries[0];
        assert_eq!(ev.step, 5);
        assert_eq!(ev.failed, Termination::NanResidual);
        assert!(matches!(
            ev.recovered_with,
            GuessSource::AdamsBashforth | GuessSource::Zero
        ));
        assert!(ev.attempts >= 2);
        let d = rel_distance(&baseline.final_u, &res.final_u);
        assert!(
            d < 1e-4,
            "{method:?}: recovered trajectory drifted {d:e} from fault-free"
        );
    }
}

#[test]
fn scale_guess_degrades_but_converges_without_recovery_need() {
    // A finite (non-NaN) corruption is the paper's own robustness claim:
    // the guess only sets the iteration count, never the answer.
    let b = backend();
    let cfg = config(MethodKind::EbeMcgCpuGpu, 12);
    let baseline = run(&b, &cfg).expect("baseline");
    let mut plan = FaultPlan::new(11)
        .scale_guess(6, 1, -40.0)
        .scale_guess(8, 2, 1e6);
    let res = run_with(&b, &cfg, Hooks::default().faults(&mut plan)).expect("scaled guess");
    assert!(plan.all_fired());
    let d = rel_distance(&baseline.final_u, &res.final_u);
    assert!(d < 1e-4, "scaled guess drifted {d:e} from fault-free");
    // iterations at the faulted steps must not be *better* than baseline
    let base_it: f64 = baseline.records[6].iterations;
    let fault_it: f64 = res.records[6].iterations;
    assert!(
        fault_it >= base_it,
        "corrupting the guess cannot speed up CG ({base_it} -> {fault_it})"
    );
}

#[test]
fn poisoned_snapshot_is_quarantined_from_the_predictor() {
    let b = backend();
    let cfg = config(MethodKind::EbeMcgCpuGpu, 14);
    let baseline = run(&b, &cfg).expect("baseline");
    let mut plan = FaultPlan::new(13)
        .nan_snapshot(4, 0, 0.2)
        .scale_snapshot(6, 3, 1e9);
    let res = run_with(&b, &cfg, Hooks::default().faults(&mut plan)).expect("poisoned snapshot");
    assert!(plan.all_fired());
    // the NaN snapshot is dropped before it enters the history; the
    // finite-but-huge snapshot gets into the basis and wrecks later
    // data-driven guesses — the divergent-guess guard must catch those and
    // recover through the ladder instead of faking a convergence
    assert!(
        res.recoveries
            .iter()
            .any(|ev| ev.failed == Termination::DivergentGuess),
        "scaled snapshot produced no divergent-guess recovery: {:?}",
        res.recoveries
    );
    let d = rel_distance(&baseline.final_u, &res.final_u);
    assert!(d < 1e-4, "poisoned snapshot drifted {d:e} from fault-free");
    for rec in &res.records {
        assert!(rec.initial_rel_res.is_finite());
    }
}

#[test]
fn solver_cap_forces_maxiter_then_ladder_recovers() {
    let b = backend();
    for method in [MethodKind::CrsCgCpu, MethodKind::EbeMcgCpuGpu] {
        let cfg = config(method, 12);
        let baseline = run(&b, &cfg).expect("baseline");
        let mut plan = FaultPlan::new(17).cap_solver(7, 0, 2);
        let res = run_with(&b, &cfg, Hooks::default().faults(&mut plan))
            .unwrap_or_else(|e| panic!("{method:?}: capped solve not recovered: {e}"));
        assert!(plan.all_fired());
        let ev = res
            .recoveries
            .iter()
            .find(|ev| ev.step == 7)
            .unwrap_or_else(|| panic!("{method:?}: cap at step 7 left no recovery record"));
        assert_eq!(ev.failed, Termination::MaxIter);
        assert!(ev.attempts >= 2);
        let d = rel_distance(&baseline.final_u, &res.final_u);
        assert!(d < 1e-4, "{method:?}: drifted {d:e} after capped solve");
    }
}

#[test]
fn exchange_and_lane_faults_cost_time_but_never_numerics() {
    let b = backend();
    let cfg = config(MethodKind::EbeMcgCpuGpu, 10);
    let baseline = run(&b, &cfg).expect("baseline");
    let mut plan = FaultPlan::new(19)
        .drop_exchange(3, 0)
        .delay_exchange(5, 1, 50.0)
        .stall_lane(4, 0, FaultLane::Gpu, 0.5)
        .stall_lane(6, 1, FaultLane::Cpu, 0.25);
    let mut tracer = StepTracer::new();
    let res = run_with(
        &b,
        &cfg,
        Hooks::default().tracer(&mut tracer).faults(&mut plan),
    )
    .expect("timing faults");
    assert!(plan.all_fired());
    // timing faults live on the modeled clock only: bitwise identity holds
    for (case, (up, uf)) in baseline.final_u.iter().zip(&res.final_u).enumerate() {
        for (p, f) in up.iter().zip(uf) {
            assert_eq!(
                p.to_bits(),
                f.to_bits(),
                "timing fault perturbed case {case}"
            );
        }
    }
    assert!(res.recoveries.is_empty());
    // the stalls are visible on the traced timeline and in the step records
    assert!(
        tracer
            .trace
            .events()
            .iter()
            .any(|e| e.name.contains("lane stall")),
        "lane stall left no trace span"
    );
    assert!(
        res.records[4].step_time_per_case > baseline.records[4].step_time_per_case,
        "GPU stall did not lengthen the modeled step"
    );
}

#[test]
fn unsolvable_configuration_returns_typed_error_not_panic() {
    // tol = 0 can never be met: the first loaded step must walk the whole
    // ladder and surface a SolveError with the full failure context.
    let b = backend();
    for method in [MethodKind::CrsCgCpu, MethodKind::EbeMcgCpuGpu] {
        let mut cfg = config(method, 4);
        cfg.tol = 0.0;
        match run(&b, &cfg) {
            Err(RunError::Solve(SolveError {
                termination,
                attempts,
                iterations,
                ..
            })) => {
                assert!(termination.is_failure(), "{method:?}: {termination:?}");
                assert!(
                    attempts >= 2,
                    "{method:?}: ladder must retry before failing"
                );
                assert!(iterations > 0);
            }
            Err(other) => panic!("{method:?}: wrong error class: {other}"),
            Ok(_) => panic!("{method:?}: tol=0 cannot converge"),
        }
    }
}

#[test]
fn recovery_events_reach_the_traced_metrics() {
    let b = backend();
    let cfg = config(MethodKind::EbeMcgCpuGpu, 12);
    let mut plan = FaultPlan::new(23).nan_guess(5, 1, 0.4);
    let mut tracer = StepTracer::new();
    let res = run_with(
        &b,
        &cfg,
        Hooks::default().tracer(&mut tracer).faults(&mut plan),
    )
    .expect("faulted traced run");
    assert!(!res.recoveries.is_empty());
    assert!(
        tracer
            .trace
            .events()
            .iter()
            .any(|e| e.name.contains("recovery")),
        "recovery left no trace span"
    );
    let doc = tracer.sink.to_json().to_string_pretty();
    let v = hetsolve::obs::parse_json(&doc).expect("bench JSON must parse");
    assert!(
        v.get("sections")
            .and_then(|s| s.get("recovery_log"))
            .is_some(),
        "metrics snapshot must carry the recovery log"
    );
}

#[test]
fn realtime_driver_recovers_from_nan_guess() {
    let b = backend();
    let cfg = config(MethodKind::EbeMcgCpuGpu, 8);
    let (u_base, rep_base) = run_realtime(&b, &cfg, Hooks::default()).expect("realtime baseline");
    assert_eq!(rep_base.recoveries, 0);
    // case 1 lives in set A (case_base 0), case r+1 in set B
    let mut plan = FaultPlan::new(29)
        .nan_guess(3, 1, 0.3)
        .nan_guess(5, cfg.r + 1, 0.3);
    let (u_fault, rep) =
        run_realtime(&b, &cfg, Hooks::default().faults(&mut plan)).expect("realtime fault run");
    assert!(plan.all_fired());
    assert!(rep.recoveries >= 2, "both NaN guesses must be recovered");
    let d = rel_distance(&u_base, &u_fault);
    assert!(d < 1e-4, "realtime recovery drifted {d:e} from fault-free");
}

// ---------------------------------------------------------------------------
// Cluster-fault sites: crash_node / corrupt_replica / partition_link
// ---------------------------------------------------------------------------
//
// Negative tests for the cluster-level injections (DESIGN.md §15): each
// fault fires only at its exact site, exactly once, and a plan with
// unfired faults says so through `all_fired`.

#[test]
fn crash_node_ignores_wrong_tick_and_node_and_is_one_shot() {
    let mut plan = FaultPlan::new(31).crash_node(4, 1);
    let crash = |tick, node| FaultSite::NodeCrash { tick, node };
    // wrong node at the right tick, right node at the wrong tick: no fire
    assert!(plan.inject(crash(4, 0)).is_none());
    assert!(plan.inject(crash(4, 2)).is_none());
    assert!(plan.inject(crash(3, 1)).is_none());
    assert!(plan.inject(crash(5, 1)).is_none());
    assert!(!plan.all_fired(), "misses must not consume the fault");
    // exact coordinates fire exactly once
    assert!(plan.inject(crash(4, 1)).is_some());
    assert!(
        plan.inject(crash(4, 1)).is_none(),
        "a failed-over shard replaying the boundary must not re-crash"
    );
    assert!(plan.all_fired());
}

#[test]
fn corrupt_replica_is_keyed_by_node_and_sequence() {
    let mut plan = FaultPlan::new(37).corrupt_replica(2, 7, 0.5);
    let site = |node, seq| FaultSite::ReplicaCorrupt { node, seq };
    // wrong node, wrong seq: the mirror stays intact
    assert!(plan.inject(site(1, 7)).is_none());
    assert!(plan.inject(site(3, 7)).is_none());
    assert!(plan.inject(site(2, 6)).is_none());
    assert!(plan.inject(site(2, 8)).is_none());
    assert!(!plan.all_fired());
    let Some(FaultKind::ReplicaCorrupt { keep_frac, .. }) = plan.inject(site(2, 7)) else {
        panic!("exact (node, seq) must fire");
    };
    assert_eq!(keep_frac, 0.5);
    assert!(
        plan.inject(site(2, 7)).is_none(),
        "the re-mirrored replica at the same seq must survive"
    );
    assert!(plan.all_fired());
}

#[test]
fn partition_link_is_symmetric_and_heals_next_tick() {
    let mut plan = FaultPlan::new(41).partition_link(3, 0, 2);
    let link = |tick, a, b| FaultSite::LinkPartition { tick, a, b };
    // other links and other ticks are unaffected
    assert!(plan.inject(link(3, 0, 1)).is_none());
    assert!(plan.inject(link(3, 1, 2)).is_none());
    assert!(plan.inject(link(2, 0, 2)).is_none());
    assert!(plan.inject(link(4, 0, 2)).is_none());
    assert!(!plan.all_fired());
    // symmetric in (a, b), then healed: one-shot means the next query —
    // the next tick's — sees the link back up
    assert!(
        plan.inject(link(3, 2, 0)).is_some(),
        "severed link is symmetric"
    );
    assert!(
        plan.inject(link(3, 0, 2)).is_none(),
        "link heals after the partitioned boundary"
    );
    assert!(plan.all_fired());
}
