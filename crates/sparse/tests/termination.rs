//! Solver hardening: every abnormal input drives `pcg`/`mcg` to a *typed*
//! [`Termination`] — never a panic, never a silent `converged: false` with
//! a misleading `MaxIter` label.

use hetsolve_sparse::{
    mcg, pcg, CgConfig, KernelCounts, LinearOperator, MultiOperator, Preconditioner, Termination,
};

/// Dense symmetric operator from an explicit diagonal (off-diagonals 0).
struct Diag(Vec<f64>);

impl LinearOperator for Diag {
    fn n(&self) -> usize {
        self.0.len()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for (i, yi) in y.iter_mut().enumerate() {
            *yi = self.0[i] * x[i];
        }
    }
    fn counts(&self) -> KernelCounts {
        KernelCounts::default()
    }
}

impl MultiOperator for Diag {
    fn n(&self) -> usize {
        self.0.len()
    }
    fn r(&self) -> usize {
        2
    }
    fn apply_multi(&self, x: &[f64], y: &mut [f64]) {
        let r = 2;
        for i in 0..self.0.len() {
            for c in 0..r {
                y[i * r + c] = self.0[i] * x[i * r + c];
            }
        }
    }
    fn counts(&self) -> KernelCounts {
        KernelCounts::default()
    }
}

struct Identity(usize);

impl Preconditioner for Identity {
    fn n(&self) -> usize {
        self.0
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
    fn counts(&self) -> KernelCounts {
        KernelCounts::default()
    }
}

/// A uniform plane rotation by 1 radian: `p·Ap = cos(1)·‖p‖² > 0` and
/// `z·r = ‖r‖² > 0` for every direction, so neither breakdown guard can
/// fire — but the operator is far from symmetric and CG's residual *grows*
/// by tan(1) ≈ 1.56 per iteration. The canonical "hopeless but not broken"
/// solve: only the stagnation window (or the iteration cap) can stop it.
struct Rot(usize);

impl Rot {
    fn rotate(&self, x: &[f64], y: &mut [f64], stride: usize, lane: usize) {
        let (s, c) = (1.0f64).sin_cos();
        for k in 0..self.0 / 2 {
            let a = x[(2 * k) * stride + lane];
            let b = x[(2 * k + 1) * stride + lane];
            y[(2 * k) * stride + lane] = c * a - s * b;
            y[(2 * k + 1) * stride + lane] = s * a + c * b;
        }
    }
}

impl LinearOperator for Rot {
    fn n(&self) -> usize {
        self.0
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.rotate(x, y, 1, 0);
    }
    fn counts(&self) -> KernelCounts {
        KernelCounts::default()
    }
}

impl MultiOperator for Rot {
    fn n(&self) -> usize {
        self.0
    }
    fn r(&self) -> usize {
        2
    }
    fn apply_multi(&self, x: &[f64], y: &mut [f64]) {
        for lane in 0..2 {
            self.rotate(x, y, 2, lane);
        }
    }
    fn counts(&self) -> KernelCounts {
        KernelCounts::default()
    }
}

fn cfg(tol: f64, max_iter: usize, window: usize) -> CgConfig {
    CgConfig {
        tol,
        max_iter,
        stagnation_window: window,
        ..CgConfig::default()
    }
}

#[test]
fn indefinite_operator_reports_breakdown_not_panic() {
    // one negative eigenvalue makes A indefinite: p'Ap can go <= 0
    let n = 8;
    let mut d = vec![1.0; n];
    d[3] = -1.0;
    let a = Diag(d);
    let f: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) * 0.3).collect();
    let mut x = vec![0.0; n];
    let stats = pcg(&a, &Identity(n), &f, &mut x, &cfg(1e-12, 100, 0));
    assert!(!stats.converged);
    assert!(
        matches!(
            stats.termination,
            Termination::Breakdown | Termination::RhoBreakdown
        ),
        "got {:?}",
        stats.termination
    );
    assert!(stats.termination.is_failure());
}

#[test]
fn nan_rhs_reports_nan_residual_single() {
    let n = 6;
    let a = Diag(vec![2.0; n]);
    let mut f = vec![1.0; n];
    f[2] = f64::NAN;
    let mut x = vec![0.0; n];
    let stats = pcg(&a, &Identity(n), &f, &mut x, &cfg(1e-10, 200, 0));
    assert!(!stats.converged);
    assert_eq!(stats.termination, Termination::NanResidual);
}

#[test]
fn nan_guess_reports_nan_residual_single() {
    let n = 6;
    let a = Diag(vec![2.0; n]);
    let f = vec![1.0; n];
    let mut x = vec![0.0; n];
    x[4] = f64::NAN;
    let stats = pcg(&a, &Identity(n), &f, &mut x, &cfg(1e-10, 200, 0));
    assert!(!stats.converged);
    assert_eq!(stats.termination, Termination::NanResidual);
}

#[test]
fn stagnating_solve_reports_stagnation_before_max_iter() {
    let n = 12;
    let a = Rot(n);
    let f: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin() + 1.5).collect();
    let mut x = vec![0.0; n];
    // the residual never improves; the window fires long before the
    // (huge) iteration cap
    let stats = pcg(&a, &Identity(n), &f, &mut x, &cfg(1e-12, 1_000_000, 5));
    assert!(!stats.converged);
    assert_eq!(stats.termination, Termination::Stagnation);
    assert!(
        stats.iterations < 100,
        "stagnation should fire early, took {}",
        stats.iterations
    );
}

#[test]
fn stagnation_disabled_by_default_runs_to_max_iter() {
    let n = 12;
    let a = Rot(n);
    let f: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin() + 1.5).collect();
    let mut x = vec![0.0; n];
    let stats = pcg(&a, &Identity(n), &f, &mut x, &cfg(1e-12, 50, 0));
    assert!(!stats.converged);
    assert_eq!(stats.termination, Termination::MaxIter);
    assert_eq!(stats.iterations, 50);
}

#[test]
fn mcg_isolates_nan_lane_and_ranks_severity() {
    let n = 6;
    let r = 2;
    let a = Diag(vec![2.0; n]);
    let mut f = vec![1.0; n * r];
    // poison case 1 only (interleaved storage f[dof*r + case])
    for i in 0..n {
        f[i * r + 1] = f64::NAN;
    }
    let mut x = vec![0.0; n * r];
    let stats = mcg(&a, &Identity(n), &f, &mut x, &cfg(1e-10, 200, 0));
    assert!(!stats.converged);
    assert_eq!(stats.case_termination[0], Termination::Converged);
    assert_eq!(stats.case_termination[1], Termination::NanResidual);
    // fused verdict takes the most severe lane
    assert_eq!(stats.termination, Termination::NanResidual);
    // the healthy lane's solution is intact (x = f / 2)
    for i in 0..n {
        assert!(
            (x[i * r] - 0.5).abs() < 1e-9,
            "lane 0 dof {i}: {}",
            x[i * r]
        );
        assert!(x[i * r + 1].is_nan() || x[i * r + 1] == 0.0);
    }
}

#[test]
fn mcg_indefinite_operator_reports_breakdown_for_all_lanes() {
    let n = 8;
    let r = 2;
    let mut d = vec![1.0; n];
    d[5] = -2.0;
    let a = Diag(d);
    let f: Vec<f64> = (0..n * r).map(|i| (i as f64 + 1.0) * 0.1).collect();
    let mut x = vec![0.0; n * r];
    let stats = mcg(&a, &Identity(n), &f, &mut x, &cfg(1e-12, 100, 0));
    assert!(!stats.converged);
    for t in &stats.case_termination {
        assert!(t.is_failure(), "lane should fail, got {t:?}");
    }
    assert!(matches!(
        stats.termination,
        Termination::Breakdown | Termination::RhoBreakdown
    ));
}

#[test]
fn mcg_stagnation_window_freezes_hopeless_lanes() {
    let n = 12;
    let r = 2;
    let a = Rot(n);
    let mut f = vec![0.0; n * r];
    for i in 0..n {
        for c in 0..r {
            f[i * r + c] = ((i * (c + 1)) as f64 * 0.7).sin() + 1.5;
        }
    }
    let mut x = vec![0.0; n * r];
    let stats = mcg(&a, &Identity(n), &f, &mut x, &cfg(1e-12, 1_000_000, 5));
    assert!(!stats.converged);
    for t in &stats.case_termination {
        assert_eq!(*t, Termination::Stagnation);
    }
    assert!(stats.fused_iterations < 100);
}

#[test]
fn divergent_guess_rejected_before_first_iteration() {
    let n = 6;
    let a = Diag(vec![2.0; n]);
    let f = vec![1.0; n];
    let mut x = vec![1e12; n]; // guess ~12 orders of magnitude off
    let mut c = cfg(1e-8, 200, 0);
    c.guess_divergence = 1e8;
    let stats = pcg(&a, &Identity(n), &f, &mut x, &c);
    assert!(!stats.converged);
    assert_eq!(stats.termination, Termination::DivergentGuess);
    assert_eq!(stats.iterations, 0, "must reject before iterating");
    // disabled (default 0.0): the solver is free to try anyway
    let mut x2 = vec![1e12; n];
    let stats2 = pcg(&a, &Identity(n), &f, &mut x2, &cfg(1e-8, 200, 0));
    assert_ne!(stats2.termination, Termination::DivergentGuess);
}

#[test]
fn mcg_divergent_guess_freezes_only_the_bad_lane() {
    let n = 6;
    let r = 2;
    let a = Diag(vec![2.0; n]);
    let f = vec![1.0; n * r];
    let mut x = vec![0.0; n * r];
    for i in 0..n {
        x[i * r + 1] = 1e12; // lane 1's guess is hopeless
    }
    let mut c = cfg(1e-8, 200, 0);
    c.guess_divergence = 1e8;
    let stats = mcg(&a, &Identity(n), &f, &mut x, &c);
    assert!(!stats.converged);
    assert_eq!(stats.case_termination[0], Termination::Converged);
    assert_eq!(stats.case_termination[1], Termination::DivergentGuess);
    assert_eq!(stats.termination, Termination::DivergentGuess);
    // the healthy lane still solved to x = f / 2
    for i in 0..n {
        assert!((x[i * r] - 0.5).abs() < 1e-9);
    }
}

#[test]
fn healthy_solve_still_converges_with_guards_active() {
    let n = 10;
    let a = Diag(vec![3.0; n]);
    let f: Vec<f64> = (0..n).map(|i| (i as f64) + 1.0).collect();
    let mut x = vec![0.0; n];
    let stats = pcg(&a, &Identity(n), &f, &mut x, &cfg(1e-12, 100, 4));
    assert!(stats.converged);
    assert_eq!(stats.termination, Termination::Converged);
    for i in 0..n {
        assert!((x[i] - f[i] / 3.0).abs() < 1e-9);
    }
}

/// Identity preconditioner that counts its applications.
struct CountingIdentity(usize, std::sync::atomic::AtomicUsize);

impl Preconditioner for CountingIdentity {
    fn n(&self) -> usize {
        self.0
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.1.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        z.copy_from_slice(r);
    }
    fn counts(&self) -> KernelCounts {
        KernelCounts {
            flops: 1.0,
            ..KernelCounts::default()
        }
    }
}

/// An overflowing guess makes the initial residual `+Inf`, not NaN. Every
/// non-finite initial residual is treated alike, for one case as for a lane
/// of many: the solve freezes typed at 0 iterations with `x` untouched,
/// before the preconditioner is applied or charged.
#[test]
fn infinite_initial_residual_freezes_before_the_preconditioner_runs() {
    let n = 6;
    let a = Diag(vec![2.0; n]);
    let f = vec![1.0; n];
    let prec = CountingIdentity(n, std::sync::atomic::AtomicUsize::new(0));
    let mut x = vec![1e308; n]; // 2 * 1e308 overflows
    let stats = pcg(&a, &prec, &f, &mut x, &cfg(1e-8, 200, 0));
    assert_eq!(stats.initial_rel_res, f64::INFINITY);
    assert_eq!(stats.termination, Termination::NanResidual);
    assert_eq!(stats.iterations, 0);
    assert_eq!(stats.history.len(), 1);
    assert!(x.iter().all(|&v| v == 1e308), "guess must stay untouched");
    assert_eq!(prec.1.load(std::sync::atomic::Ordering::SeqCst), 0);
    assert_eq!(stats.counts.flops, 0.0, "no preconditioner work charged");
    // the driver configuration's divergent-guess gate does not reclassify it
    let mut c = cfg(1e-8, 200, 0);
    c.guess_divergence = 1e8;
    let stats = pcg(&a, &prec, &f, &mut x, &c);
    assert_eq!(stats.termination, Termination::NanResidual);
}

/// When the stagnation deadline and a sentinel tick fall on the same
/// iteration, stagnation is judged first and the frozen solve is not
/// audited. The sentinel here is certain to trip at any tick it gets: its
/// drift bound is the smallest positive number.
#[test]
fn stagnation_is_judged_before_the_sentinel_tick_of_the_same_iteration() {
    let n = 12;
    let a = Rot(n); // the residual grows every iteration
    let f: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin() + 1.5).collect();
    let solve = |window: usize, sentinel_every: usize| {
        let c = CgConfig {
            sentinel_every,
            sentinel_drift: f64::MIN_POSITIVE,
            ..cfg(1e-12, 1_000, window)
        };
        let mut x = vec![0.0; n];
        pcg(&a, &Identity(n), &f, &mut x, &c)
    };
    // the tick alone trips at iteration 5 ...
    let tick = solve(0, 5);
    assert_eq!(tick.termination, Termination::ResidualDrift);
    assert_eq!(tick.iterations, 5);
    // ... the deadline alone expires at iteration 5 ...
    let deadline = solve(5, 0);
    assert_eq!(deadline.termination, Termination::Stagnation);
    assert_eq!(deadline.iterations, 5);
    // ... and together the verdict is stagnation
    let both = solve(5, 5);
    assert_eq!(both.termination, Termination::Stagnation);
    assert_eq!(both.iterations, 5);
    // an earlier tick still wins
    assert_eq!(solve(5, 4).termination, Termination::ResidualDrift);
}

/// `z = −r`: not positive definite, so `z·r < 0` on the first iteration.
struct NegatedIdentity(usize);

impl Preconditioner for NegatedIdentity {
    fn n(&self) -> usize {
        self.0
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for (zi, ri) in z.iter_mut().zip(r) {
            *zi = -ri;
        }
    }
    fn counts(&self) -> KernelCounts {
        KernelCounts::default()
    }
}

/// A breakdown guard that freezes the lane mid-iteration lets the fused
/// iteration finish, as it must when other lanes are still running, and a
/// single-RHS solve is a lane of one: the operator application after the
/// `z·r` guard is charged and observers see the fused iteration end. The
/// frozen lane did not advance, so `CgStats::iterations` and `history` do
/// not count it and `x` keeps the guess.
#[test]
fn a_breakdown_guard_lets_the_fused_iteration_finish() {
    struct UnitCost(Diag);
    impl LinearOperator for UnitCost {
        fn n(&self) -> usize {
            LinearOperator::n(&self.0)
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.0.apply(x, y);
        }
        fn counts(&self) -> KernelCounts {
            KernelCounts {
                rand_transactions: 1.0,
                ..KernelCounts::default()
            }
        }
    }
    let n = 6;
    let a = UnitCost(Diag(vec![2.0; n]));
    let f = vec![1.0; n];
    let mut x = vec![0.25; n];
    let mut log = hetsolve_sparse::ResidualLog::new();
    let c = cfg(1e-10, 200, 0);
    let stats = hetsolve_sparse::pcg_observed(&a, &NegatedIdentity(n), &f, &mut x, &c, &mut log);
    assert_eq!(stats.termination, Termination::RhoBreakdown);
    assert_eq!(stats.iterations, 0);
    assert_eq!(stats.history.len(), 1);
    assert_eq!(stats.final_rel_res, stats.initial_rel_res);
    assert!(x.iter().all(|&v| v == 0.25));
    // initial residual + the application that finished the fused iteration
    assert_eq!(stats.counts.rand_transactions, 2.0);
    assert_eq!(log.iterations, 1);
    assert_eq!(log.history.len(), 2);
    assert_eq!(log.history[1], log.history[0]);
}
