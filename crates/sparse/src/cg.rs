//! Preconditioned conjugate gradient — the paper's Algorithm 1 — as the
//! fused-width-1 instance of the one CG iteration in [`crate::mcg`], plus
//! the solver configuration both entry points share.
//!
//! Convergence criterion: `‖r‖₂ / ‖f‖₂ < ε` (relative to the right-hand
//! side, as in the paper; `ε = 10⁻⁸` in the experiments). The residual
//! history is recorded so Fig. 3 (convergence vs. initial guess) can be
//! regenerated directly.

use hetsolve_obs::{NoopObserver, SolveObserver, Termination};

use crate::mcg::mcg_masked_observed;
use crate::op::{KernelCounts, LinearOperator, Preconditioner, Width1};

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct CgConfig {
    /// Relative residual tolerance ε.
    pub tol: f64,
    /// Iteration cap (counts operator applications after the initial one).
    pub max_iter: usize,
    /// Declare [`Termination::Stagnation`] after this many consecutive
    /// iterations without a strict improvement of the best relative
    /// residual. `0` disables the check (the default, preserving the
    /// original solver behavior exactly).
    pub stagnation_window: usize,
    /// Reject the initial guess with [`Termination::DivergentGuess`] when
    /// its relative residual exceeds this, *before* the first iteration.
    /// Past roughly `tol / f64::EPSILON` the recursive residual can reach
    /// `tol` while the true error stays enormous (the recursion drifts from
    /// the true residual by about `eps ×` the largest intermediate), so
    /// "converged" would be a lie; failing typed lets a recovery ladder
    /// retry from a sane guess. `0.0` disables the check (the default).
    pub guess_divergence: f64,
    /// Invariant-sentinel period: every this many iterations the *true*
    /// residual `f − A x` is recomputed into solver-private scratch and
    /// compared against the recursive residual the iteration carries. A
    /// silent bit flip in `x`, `r`, or the operator makes the two diverge —
    /// the classic CG ABFT signature — and the solve stops typed with
    /// [`Termination::ResidualDrift`]. The check is strictly read-only
    /// (`x`, `r`, `p`, `q` untouched; sentinel work excluded from
    /// [`CgStats::counts`] so the modeled timeline is unchanged), so a
    /// clean solve is bitwise-identical with the sentinel on or off.
    /// `0` disables it (the default).
    pub sentinel_every: usize,
    /// Drift bound for the sentinel: trip when
    /// `rel_true > sentinel_drift × max(rel_recursive, tol)`. `<= 0.0`
    /// falls back to [`DEFAULT_SENTINEL_DRIFT`] when the sentinel is armed.
    pub sentinel_drift: f64,
    /// Bounded-norm guard, checked at sentinel ticks: trip with
    /// [`Termination::NormExploded`] when `‖x‖` exceeds this factor times
    /// the reference norm (`max(‖x‖ at the first check, 1)`). Catches
    /// runaway iterates whose recursive residual still looks plausible.
    /// `0.0` disables it (the default).
    pub norm_bound: f64,
}

/// Drift bound used when [`CgConfig::sentinel_every`] is armed but
/// [`CgConfig::sentinel_drift`] is unset. Healthy CG keeps the recursive
/// and true residuals within a small factor of each other until the
/// attainable-accuracy floor; three orders of magnitude of slack keeps the
/// false-positive rate at zero while still catching single bit flips,
/// which perturb the invariant by many orders.
pub const DEFAULT_SENTINEL_DRIFT: f64 = 1e3;

impl Default for CgConfig {
    fn default() -> Self {
        // the paper's error threshold
        CgConfig {
            tol: 1e-8,
            max_iter: 10_000,
            stagnation_window: 0,
            guess_divergence: 0.0,
            sentinel_every: 0,
            sentinel_drift: 0.0,
            norm_bound: 0.0,
        }
    }
}

/// Outcome of a CG solve.
#[derive(Debug, Clone)]
pub struct CgStats {
    /// Iterations performed.
    pub iterations: usize,
    /// `‖r₀‖/‖f‖` with the supplied initial guess (quality of the guess).
    pub initial_rel_res: f64,
    /// Final relative residual.
    pub final_rel_res: f64,
    pub converged: bool,
    /// Why the solve stopped (`converged == (termination == Converged)`).
    pub termination: Termination,
    /// `‖r‖/‖f‖` after every iteration (index 0 = initial).
    pub history: Vec<f64>,
    /// Work performed (operator + preconditioner + vector ops), summed.
    pub counts: KernelCounts,
}

/// Solve `A x = f` by preconditioned CG starting from the initial guess in
/// `x` (overwritten with the solution).
pub fn pcg<A: LinearOperator, P: Preconditioner>(
    a: &A,
    prec: &P,
    f: &[f64],
    x: &mut [f64],
    cfg: &CgConfig,
) -> CgStats {
    // NoopObserver is a ZST with empty inlined hooks: this monomorphization
    // is the exact pre-observer solver (bitwise-identity is tested).
    pcg_observed(a, prec, f, x, cfg, &mut NoopObserver)
}

/// [`pcg`] with per-iteration observation: `obs` receives the initial
/// relative residual, every iterate's residual, and the termination cause.
/// Observers are read-only, so the computed solution and iteration count
/// are identical to the unobserved call.
///
/// Algorithm 1 is the MCG iteration at fused width 1, so this *is*
/// [`mcg_masked_observed`] on the [`Width1`] view of `a` — one loop, one set
/// of breakdown guards, one sentinel. `tests/solver_unification.rs` pins
/// the bits a single-RHS solve must reproduce.
pub fn pcg_observed<A: LinearOperator, P: Preconditioner, O: SolveObserver>(
    a: &A,
    prec: &P,
    f: &[f64],
    x: &mut [f64],
    cfg: &CgConfig,
    obs: &mut O,
) -> CgStats {
    let mut tap = HistoryTap {
        obs,
        history: Vec::new(),
    };
    let stats = mcg_masked_observed(&Width1(a), prec, f, x, cfg, &[true], &mut tap);
    let iterations = stats.case_iterations[0];
    let mut history = tap.history;
    // a lane that a breakdown guard freezes mid-iteration still sees that
    // fused iteration end; it is not an iterate of this solve
    history.truncate(iterations + 1);
    CgStats {
        iterations,
        initial_rel_res: stats.initial_rel_res[0],
        final_rel_res: stats.final_rel_res[0],
        converged: stats.converged,
        termination: stats.termination,
        history,
        counts: stats.counts,
    }
}

/// Forwards every hook to the caller's observer and keeps the one case's
/// residual trace for [`CgStats::history`].
struct HistoryTap<'o, O> {
    obs: &'o mut O,
    history: Vec<f64>,
}

impl<O: SolveObserver> SolveObserver for HistoryTap<'_, O> {
    fn solve_begin(&mut self, n: usize, cases: usize, rel_res: &[f64]) {
        self.history.push(rel_res[0]);
        self.obs.solve_begin(n, cases, rel_res);
    }

    fn iteration(&mut self, iter: usize, rel_res: &[f64]) {
        self.history.push(rel_res[0]);
        self.obs.iteration(iter, rel_res);
    }

    fn solve_end(&mut self, iterations: usize, termination: Termination) {
        self.obs.solve_end(iterations, termination);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bcrs::BcrsBuilder;
    use crate::blockjacobi::BlockJacobi;
    use crate::dense::solve_spd;

    /// Identity preconditioner for baseline tests.
    struct NoPrec(usize);
    impl Preconditioner for NoPrec {
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

    /// Block-tridiagonal SPD test matrix with 3x3 blocks.
    fn spd_matrix(nb: usize) -> crate::bcrs::Bcrs3 {
        let mut b = BcrsBuilder::new(nb);
        for i in 0..nb {
            let diag = [
                8.0, 1.0, 0.0, //
                1.0, 9.0, 2.0, //
                0.0, 2.0, 10.0,
            ];
            b.add_block(i as u32, i as u32, &diag);
            if i + 1 < nb {
                let off = [
                    -1.0, 0.2, 0.0, //
                    0.0, -1.0, 0.1, //
                    0.3, 0.0, -1.0,
                ];
                let mut off_t = [0.0; 9];
                for r in 0..3 {
                    for c in 0..3 {
                        off_t[c * 3 + r] = off[r * 3 + c];
                    }
                }
                b.add_block(i as u32, (i + 1) as u32, &off);
                b.add_block((i + 1) as u32, i as u32, &off_t);
            }
        }
        b.finish(false)
    }

    fn dense_of(m: &crate::bcrs::Bcrs3) -> Vec<f64> {
        let n = m.n();
        let mut d = vec![0.0; n * n];
        for j in 0..n {
            let mut e = vec![0.0; n];
            e[j] = 1.0;
            let mut col = vec![0.0; n];
            m.apply(&e, &mut col);
            for i in 0..n {
                d[i * n + j] = col[i];
            }
        }
        d
    }

    #[test]
    fn cg_matches_direct_solver() {
        let m = spd_matrix(10);
        let n = m.n();
        let f: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin()).collect();
        let mut x = vec![0.0; n];
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let stats = pcg(
            &m,
            &prec,
            &f,
            &mut x,
            &CgConfig {
                tol: 1e-12,
                max_iter: 500,
                ..CgConfig::default()
            },
        );
        assert!(stats.converged, "CG did not converge: {stats:?}");
        let xd = solve_spd(&dense_of(&m), n, &f).unwrap();
        for i in 0..n {
            assert!(
                (x[i] - xd[i]).abs() < 1e-8,
                "dof {i}: {} vs {}",
                x[i],
                xd[i]
            );
        }
    }

    #[test]
    fn preconditioner_reduces_iterations() {
        let m = spd_matrix(40);
        let n = m.n();
        let f: Vec<f64> = (0..n).map(|i| ((i as f64) * 1.3).cos()).collect();
        let cfg = CgConfig {
            tol: 1e-10,
            max_iter: 1000,
            ..CgConfig::default()
        };
        let mut x1 = vec![0.0; n];
        let s_plain = pcg(&m, &NoPrec(n), &f, &mut x1, &cfg);
        let mut x2 = vec![0.0; n];
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let s_bj = pcg(&m, &prec, &f, &mut x2, &cfg);
        assert!(s_plain.converged && s_bj.converged);
        assert!(
            s_bj.iterations <= s_plain.iterations,
            "BJ {} vs plain {}",
            s_bj.iterations,
            s_plain.iterations
        );
    }

    #[test]
    fn good_initial_guess_reduces_iterations() {
        let m = spd_matrix(30);
        let n = m.n();
        let f: Vec<f64> = (0..n).map(|i| (i as f64 * 0.9).sin()).collect();
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let cfg = CgConfig::default();
        let mut x_cold = vec![0.0; n];
        let s_cold = pcg(&m, &prec, &f, &mut x_cold, &cfg);
        // warm start: exact solution perturbed slightly
        let mut x_warm: Vec<f64> = x_cold.iter().map(|v| v * (1.0 + 1e-6)).collect();
        let s_warm = pcg(&m, &prec, &f, &mut x_warm, &cfg);
        assert!(s_warm.initial_rel_res < s_cold.initial_rel_res);
        assert!(s_warm.iterations < s_cold.iterations);
    }

    #[test]
    fn history_is_monotone_enough_and_recorded() {
        let m = spd_matrix(20);
        let n = m.n();
        let f = vec![1.0; n];
        let mut x = vec![0.0; n];
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let stats = pcg(&m, &prec, &f, &mut x, &CgConfig::default());
        assert_eq!(stats.history.len(), stats.iterations + 1);
        assert!(stats.history[0] >= stats.history[stats.iterations]);
        assert!(stats.final_rel_res < 1e-8);
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let m = spd_matrix(5);
        let n = m.n();
        let f = vec![0.0; n];
        let mut x = vec![1.0; n];
        let stats = pcg(&m, &NoPrec(n), &f, &mut x, &CgConfig::default());
        assert!(stats.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iteration_cap_respected() {
        let m = spd_matrix(50);
        let n = m.n();
        let f = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = pcg(
            &m,
            &NoPrec(n),
            &f,
            &mut x,
            &CgConfig {
                tol: 1e-30,
                max_iter: 3,
                ..CgConfig::default()
            },
        );
        assert_eq!(stats.iterations, 3);
        assert!(!stats.converged);
    }

    /// Operator that computes correctly except for one transient glitch:
    /// application number `glitch_at` (1-based) has its output perturbed —
    /// the classic silent-data-corruption model (a particle strike during
    /// one SpMV). Every other application, including the sentinel's own
    /// true-residual recomputation, is exact.
    struct GlitchOp<'a> {
        inner: &'a crate::bcrs::Bcrs3,
        applies: std::sync::atomic::AtomicUsize,
        glitch_at: usize,
        /// `None`: flip bit 61 of `y[0]`. `Some(s)`: scale all of `y` by `s`.
        scale: Option<f64>,
    }

    impl LinearOperator for GlitchOp<'_> {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            let k = self
                .applies
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
                + 1;
            self.inner.apply(x, y);
            if k == self.glitch_at {
                match self.scale {
                    None => y[0] = f64::from_bits(y[0].to_bits() ^ (1u64 << 61)),
                    Some(s) => {
                        for v in y.iter_mut() {
                            *v *= s;
                        }
                    }
                }
            }
        }
        fn counts(&self) -> KernelCounts {
            self.inner.counts()
        }
    }

    #[test]
    fn sentinel_catches_transient_operator_glitch() {
        let m = spd_matrix(30);
        let n = m.n();
        let f: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let cfg = CgConfig {
            sentinel_every: 2,
            ..CgConfig::default()
        };
        // applies: #1 init residual, iter1 #2, iter2 #3 + sentinel #4,
        // iter3 #5 (glitched), iter4 #6 + sentinel #7 -> drift detected
        let op = GlitchOp {
            inner: &m,
            applies: std::sync::atomic::AtomicUsize::new(0),
            glitch_at: 5,
            scale: None,
        };
        let mut x = vec![0.0; n];
        let stats = pcg(&op, &NoPrec(n), &f, &mut x, &cfg);
        assert_eq!(stats.termination, Termination::ResidualDrift);
        assert!(!stats.converged);
        // without the sentinel the same glitch "converges" silently wrong:
        // the recursive residual knows nothing about the corrupted update
        let op2 = GlitchOp {
            inner: &m,
            applies: std::sync::atomic::AtomicUsize::new(0),
            glitch_at: 5,
            scale: None,
        };
        let mut x2 = vec![0.0; n];
        let blind = pcg(&op2, &NoPrec(n), &f, &mut x2, &CgConfig::default());
        if blind.converged {
            let mut ax = vec![0.0; n];
            m.apply(&x2, &mut ax);
            let f_norm = f.iter().map(|v| v * v).sum::<f64>().sqrt();
            let true_rel = (0..n).map(|i| (f[i] - ax[i]).powi(2)).sum::<f64>().sqrt() / f_norm;
            assert!(
                true_rel > 1e-4,
                "glitch should have produced a wrong answer, got {true_rel}"
            );
        }
    }

    #[test]
    fn norm_guard_catches_runaway_iterate() {
        let m = spd_matrix(30);
        let n = m.n();
        let f: Vec<f64> = (0..n).map(|i| (i as f64 * 1.1).cos()).collect();
        let cfg = CgConfig {
            sentinel_every: 1,
            // drift check neutralized so the norm guard is what trips
            sentinel_drift: f64::INFINITY,
            norm_bound: 1e6,
            ..CgConfig::default()
        };
        // applies: #1 init, iter1 #2, sentinel #3 (captures norm_ref),
        // iter2 #4 glitched to near-zero q => alpha explodes => ‖x‖ huge
        let op = GlitchOp {
            inner: &m,
            applies: std::sync::atomic::AtomicUsize::new(0),
            glitch_at: 4,
            scale: Some(1e-30),
        };
        let mut x = vec![0.0; n];
        let stats = pcg(&op, &NoPrec(n), &f, &mut x, &cfg);
        assert_eq!(stats.termination, Termination::NormExploded);
        assert!(!stats.converged);
    }

    #[test]
    fn sentinel_is_bitwise_neutral_on_clean_solves() {
        let m = spd_matrix(40);
        let n = m.n();
        let f: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let mut x_off = vec![0.0; n];
        let s_off = pcg(&m, &prec, &f, &mut x_off, &CgConfig::default());
        let mut x_on = vec![0.0; n];
        let s_on = pcg(
            &m,
            &prec,
            &f,
            &mut x_on,
            &CgConfig {
                sentinel_every: 2,
                norm_bound: 1e9,
                ..CgConfig::default()
            },
        );
        assert!(s_off.converged && s_on.converged);
        assert_eq!(s_off.iterations, s_on.iterations);
        assert_eq!(s_off.history, s_on.history);
        // modeled work must not shift when detection is armed
        assert_eq!(s_off.counts.flops.to_bits(), s_on.counts.flops.to_bits());
        for i in 0..n {
            assert_eq!(x_off[i].to_bits(), x_on[i].to_bits(), "dof {i}");
        }
    }

    #[test]
    fn work_counts_accumulate() {
        let m = spd_matrix(10);
        let n = m.n();
        let f = vec![1.0; n];
        let mut x = vec![0.0; n];
        let stats = pcg(&m, &NoPrec(n), &f, &mut x, &CgConfig::default());
        // at least (iterations + 1) operator applications worth of flops
        let per_apply = m.counts().flops;
        assert!(stats.counts.flops >= per_apply * (stats.iterations as f64));
    }
}
