//! Multi-RHS preconditioned CG ("MCG"): solves `A x_c = f_c` for `r` cases
//! concurrently through one fused EBE operator — the solver at the heart of
//! the paper's EBE-MCG@CPU-GPU method. This is the only CG iteration of the
//! workspace: the single-RHS Algorithm 1 ([`crate::cg::pcg`]) is this loop
//! at `r = 1`.
//!
//! All cases iterate in lockstep so each operator application serves every
//! case (the EBE multi-RHS kernel amortizes random accesses `r`-fold).
//! Cases that reach the tolerance are frozen: their `x`, `r`, `p` stop
//! updating, so the already-converged solution is untouched while the
//! remaining cases finish. Per-case iteration counts are reported.

use hetsolve_obs::{NoopObserver, SolveObserver, Termination};

use crate::op::{KernelCounts, MultiOperator, Preconditioner};
use crate::vecops::{cg_update_multi, dot_multi, residual_multi, xpby_multi};

use crate::cg::{CgConfig, DEFAULT_SENTINEL_DRIFT};

/// Outcome of a multi-RHS CG solve.
#[derive(Debug, Clone)]
pub struct McgStats {
    /// Fused iterations performed (the solver runs until the last active
    /// case converges).
    pub fused_iterations: usize,
    /// Per-case iterations until that case converged.
    pub case_iterations: Vec<usize>,
    /// Per-case initial relative residuals (quality of the initial guesses).
    pub initial_rel_res: Vec<f64>,
    /// Per-case final relative residuals.
    pub final_rel_res: Vec<f64>,
    pub converged: bool,
    /// Why the fused solve stopped: [`Termination::Converged`] when every
    /// case reached the tolerance, otherwise the most severe per-case cause
    /// (residual-drift > norm-exploded > NaN > rho-breakdown > breakdown >
    /// stagnation > max-iter).
    pub termination: Termination,
    /// Why each case stopped. A faulted lane freezes with its own cause
    /// while healthy lanes iterate on — NaN never crosses cases.
    pub case_termination: Vec<Termination>,
    /// Total work performed.
    pub counts: KernelCounts,
}

/// Solve `r` systems at once. `f` and `x` are interleaved multi-vectors
/// (`f[dof * r + case]`); `x` carries the initial guesses and receives the
/// solutions.
pub fn mcg<A: MultiOperator, P: Preconditioner>(
    a: &A,
    prec: &P,
    f: &[f64],
    x: &mut [f64],
    cfg: &CgConfig,
) -> McgStats {
    // NoopObserver is a ZST with empty inlined hooks: this monomorphization
    // is the exact pre-observer solver (bitwise-identity is tested).
    mcg_observed(a, prec, f, x, cfg, &mut NoopObserver)
}

/// [`mcg`] with per-iteration observation: `obs` receives the per-case
/// initial relative residuals, every fused iterate's residuals (frozen
/// cases keep their last value), and the termination cause. Observers are
/// read-only, so solutions and iteration counts are identical to the
/// unobserved call.
pub fn mcg_observed<A: MultiOperator, P: Preconditioner, O: SolveObserver>(
    a: &A,
    prec: &P,
    f: &[f64],
    x: &mut [f64],
    cfg: &CgConfig,
    obs: &mut O,
) -> McgStats {
    mcg_masked_observed(a, prec, f, x, cfg, &vec![true; a.r()], obs)
}

/// [`mcg`] over a partially-occupied fused lane, with per-iteration
/// observation (see [`mcg_observed`]), in a workspace of its own.
/// `occupied[c] == false` marks a vacant column: it never enters the
/// active set, performs zero iterations, reports
/// [`Termination::Converged`], and its column of `x` is left untouched.
/// Occupied columns run the exact same arithmetic as [`mcg`] (an
/// all-`true` mask is bitwise-identical), because every per-case quantity
/// — dot products, alpha/beta, freeze decisions — is already computed per
/// column.
///
/// Callers should keep vacant columns of `f` and `x` finite (the serving
/// layer zeroes a column when its slot is freed); non-finite garbage in a
/// vacant column stays in that column but wastes no logic.
pub(crate) fn mcg_masked_observed<
    A: MultiOperator + ?Sized,
    P: Preconditioner,
    O: SolveObserver,
>(
    a: &A,
    prec: &P,
    f: &[f64],
    x: &mut [f64],
    cfg: &CgConfig,
    occupied: &[bool],
    obs: &mut O,
) -> McgStats {
    let mut ws = McgWorkspace::default();
    ws.solve(a, prec, f, x, cfg, occupied, obs);
    ws.stats
}

impl Default for McgStats {
    fn default() -> Self {
        McgStats {
            fused_iterations: 0,
            case_iterations: Vec::new(),
            initial_rel_res: Vec::new(),
            final_rel_res: Vec::new(),
            converged: true,
            termination: Termination::Converged,
            case_termination: Vec::new(),
            counts: KernelCounts::default(),
        }
    }
}

/// The working storage of an MCG solve: three `n·r` multi-vectors, the
/// per-case scalars and the stats of the last solve. An owner that solves
/// again and again (the set step) keeps one and lends it to every solve,
/// so a warm solve allocates nothing; a solve in a reused workspace has
/// the bits of one in a fresh workspace, because every value is written
/// before it is read.
///
/// The residual `r` and the direction `p` live through the whole solve.
/// The preconditioned residual `z` and the operator output `q` share one
/// buffer: `z` is dead once `xpby` has read it, before the apply writes
/// `q`, and `q` is dead after `cg_update`, so the sentinel's audits write
/// `A·x` into the same buffer.
#[derive(Debug, Default)]
pub struct McgWorkspace {
    r: Vec<f64>,
    p: Vec<f64>,
    zq: Vec<f64>,
    f_norm: Vec<f64>,
    rel: Vec<f64>,
    rr: Vec<f64>,
    active: Vec<bool>,
    /// Per-case abnormal cause; stays `None` for cases that converge (or
    /// are simply capped).
    abnormal: Vec<Option<Termination>>,
    rho_prev: Vec<f64>,
    rho: Vec<f64>,
    pq: Vec<f64>,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    /// Stagnation tracking: per-case strict best-so-far with a deadline.
    best_rel: Vec<f64>,
    since_improve: Vec<usize>,
    /// The sentinel's true residuals, squared sums and audited cases.
    rel_true: Vec<f64>,
    sq: Vec<f64>,
    check: Vec<bool>,
    /// `norm_ref[c] == 0.0`: case `c`'s reference norm is not captured yet.
    norm_ref: Vec<f64>,
    stats: McgStats,
}

/// `v` as `len` copies of `value`, in its own storage.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

impl McgWorkspace {
    /// The stats of the last solve run in this workspace.
    pub fn stats(&self) -> &McgStats {
        &self.stats
    }

    /// An idle multi-vector of `len` entries for the owner to use between
    /// solves (its contents are unspecified; the next solve overwrites it).
    pub fn buffer(&mut self, len: usize) -> &mut [f64] {
        self.zq.resize(len, 0.0);
        &mut self.zq
    }

    /// `mcg_masked_observed` in this workspace: the same arithmetic, the
    /// same bits, no allocation once the workspace has held a solve of
    /// this `n·r`. Returns the solve's stats.
    #[allow(clippy::too_many_arguments, reason = "`mcg_masked_observed`'s inputs")]
    pub fn solve<A: MultiOperator + ?Sized, P: Preconditioner, O: SolveObserver>(
        &mut self,
        a: &A,
        prec: &P,
        f: &[f64],
        x: &mut [f64],
        cfg: &CgConfig,
        occupied: &[bool],
        obs: &mut O,
    ) -> &McgStats {
        let n = a.n();
        let r = a.r();
        assert_eq!(f.len(), n * r);
        assert_eq!(x.len(), n * r);
        assert_eq!(occupied.len(), r);
        let McgWorkspace {
            r: r_vec,
            p,
            zq,
            f_norm,
            rel,
            rr,
            active,
            abnormal,
            rho_prev,
            rho,
            pq,
            alpha,
            beta,
            best_rel,
            since_improve,
            rel_true,
            sq,
            check,
            norm_ref,
            stats,
        } = self;
        // every multi-vector entry is written before it is read
        for v in [&mut *r_vec, &mut *p, &mut *zq] {
            v.resize(n * r, 0.0);
        }
        for v in [
            &mut *f_norm,
            &mut *rel,
            &mut *rr,
            &mut *rho_prev,
            &mut *rho,
            &mut *pq,
            &mut *alpha,
            &mut *beta,
        ] {
            refill(v, r, 0.0);
        }
        refill(rel_true, r, 0.0);
        refill(norm_ref, r, 0.0);
        refill(sq, r, 0.0);
        refill(active, r, true);
        refill(abnormal, r, None);
        refill(since_improve, r, 0);

        let mut counts = KernelCounts::default();
        let vec_counts = KernelCounts {
            flops: 10.0 * (n * r) as f64,
            bytes_stream: 5.0 * 16.0 * (n * r) as f64,
            bytes_rand: 0.0,
            rand_transactions: 0.0,
            rhs_fused: r,
        };

        dot_multi(f, f, r, f_norm);
        for v in f_norm.iter_mut() {
            *v = v.sqrt();
        }

        // r_vec = f - A x
        a.apply_multi(x, r_vec);
        counts = counts.merged(a.counts());
        residual_multi(f, r_vec);

        dot_multi(r_vec, r_vec, r, rr);
        // All guards only read values the healthy path computes anyway, so
        // a fully-converging solve is bitwise-identical.
        for c in 0..r {
            if !occupied[c] {
                // vacant lane slot: never iterates, `x` column left untouched
                rel[c] = 0.0;
                active[c] = false;
            } else if f_norm[c] == 0.0 {
                // zero RHS: A is SPD, so x = 0 is the exact solution
                for i in 0..n {
                    x[i * r + c] = 0.0;
                }
                rel[c] = 0.0;
                active[c] = false;
            } else {
                rel[c] = rr[c].sqrt() / f_norm[c];
                if !rel[c].is_finite() {
                    // poisoned guess or RHS for this lane: freeze it before
                    // the first fused iteration so NaN never reaches shared
                    // kernels.
                    abnormal[c] = Some(Termination::NanResidual);
                    active[c] = false;
                } else if cfg.guess_divergence > 0.0 && rel[c] > cfg.guess_divergence {
                    // this lane's guess is beyond f64 rescue (see
                    // `CgConfig::guess_divergence`): freeze it typed instead
                    // of letting the recursive residual fake a convergence
                    abnormal[c] = Some(Termination::DivergentGuess);
                    active[c] = false;
                } else {
                    active[c] = rel[c] >= cfg.tol;
                }
            }
        }
        stats.initial_rel_res.clone_from(rel);
        let case_iterations = &mut stats.case_iterations;
        refill(case_iterations, r, 0);
        obs.solve_begin(n, r, rel);

        let mut fused_iterations = 0usize;
        best_rel.clone_from(rel);
        let sentinel_drift = if cfg.sentinel_drift > 0.0 {
            cfg.sentinel_drift
        } else {
            DEFAULT_SENTINEL_DRIFT
        };

        while active.iter().any(|&a| a) && fused_iterations < cfg.max_iter {
            let z = &mut *zq;
            prec.apply_multi_dot(r_vec, z, r, rho);
            counts = counts.merged(prec.counts().scaled(r as f64));
            for c in 0..r {
                if !active[c] {
                    continue;
                }
                if !rho[c].is_finite() {
                    // NaN/Inf entered this lane mid-flight: freeze it so the
                    // poison cannot reach alpha/beta of the shared iteration.
                    abnormal[c] = Some(Termination::NanResidual);
                    active[c] = false;
                } else if rho[c] <= 0.0 {
                    // zᵀr lost positivity: the preconditioner is not SPD for
                    // this lane's residual.
                    abnormal[c] = Some(Termination::RhoBreakdown);
                    active[c] = false;
                }
            }
            if fused_iterations == 0 {
                p.copy_from_slice(z);
            } else {
                for c in 0..r {
                    beta[c] = if active[c] && rho_prev[c] != 0.0 {
                        rho[c] / rho_prev[c]
                    } else {
                        0.0
                    };
                }
                xpby_multi(z, beta, p, r, active);
            }
            // z is dead: its buffer takes q
            let q = &mut *zq;
            a.apply_multi(p, q);
            counts = counts.merged(a.counts()).merged(vec_counts);
            dot_multi(p, q, r, pq);
            for c in 0..r {
                if active[c] {
                    if !pq[c].is_finite() {
                        // NaN direction: freeze before alpha poisons the lane
                        abnormal[c] = Some(Termination::NanResidual);
                        active[c] = false;
                        alpha[c] = 0.0;
                    } else if pq[c] <= 0.0 {
                        // numerical breakdown for this case: freeze it
                        abnormal[c] = Some(Termination::Breakdown);
                        active[c] = false;
                        alpha[c] = 0.0;
                    } else {
                        alpha[c] = rho[c] / pq[c];
                    }
                } else {
                    alpha[c] = 0.0;
                }
            }
            cg_update_multi(alpha, p, q, x, r_vec, r, active, rr);
            rho_prev.copy_from_slice(rho);
            fused_iterations += 1;

            for c in 0..r {
                if active[c] {
                    case_iterations[c] = fused_iterations;
                    rel[c] = rr[c].sqrt() / f_norm[c];
                    if rel[c] < cfg.tol {
                        active[c] = false;
                    } else if !rel[c].is_finite() {
                        abnormal[c] = Some(Termination::NanResidual);
                        active[c] = false;
                    } else if cfg.stagnation_window > 0 {
                        if rel[c] < best_rel[c] {
                            best_rel[c] = rel[c];
                            since_improve[c] = 0;
                        } else {
                            since_improve[c] += 1;
                            if since_improve[c] >= cfg.stagnation_window {
                                abnormal[c] = Some(Termination::Stagnation);
                                active[c] = false;
                            }
                        }
                    }
                }
            }
            if cfg.sentinel_every > 0
                && fused_iterations.is_multiple_of(cfg.sentinel_every)
                && active.iter().any(|&a| a)
            {
                // ABFT invariant sentinel (`CgConfig::sentinel_every`):
                // per-case true-residual drift and bounded-norm guards over
                // the still-active lanes. A lane that stagnation just froze
                // is no longer audited: stagnation is judged before the
                // tick. q is dead: its buffer takes A·x.
                audit(a, f, x, f_norm, active, zq, sq, rel_true);
                for c in 0..r {
                    if !active[c] {
                        continue;
                    }
                    if !rel_true[c].is_finite()
                        || rel_true[c] > sentinel_drift * rel[c].max(cfg.tol)
                    {
                        abnormal[c] = Some(Termination::ResidualDrift);
                        active[c] = false;
                    } else if cfg.norm_bound > 0.0 {
                        let mut sq = 0.0;
                        for i in 0..n {
                            sq += x[i * r + c] * x[i * r + c];
                        }
                        let nx = sq.sqrt();
                        if norm_ref[c] == 0.0 {
                            norm_ref[c] = nx.max(1.0);
                        }
                        if !nx.is_finite() || nx > cfg.norm_bound * norm_ref[c] {
                            abnormal[c] = Some(Termination::NormExploded);
                            active[c] = false;
                        }
                    }
                }
            }
            obs.iteration(fused_iterations, rel);
        }

        if cfg.sentinel_every > 0 && fused_iterations > 0 {
            // Exit audit: never report Converged on a corrupted iterate. A
            // flip that shrinks the recursive residual below tol is the one
            // corruption the periodic tick can miss, so lanes that claim
            // convergence are verified once against the true residual
            // (read-only, uncounted, like the tick).
            check.clear();
            check.extend((0..r).map(|c| {
                occupied[c]
                    && f_norm[c] != 0.0
                    && abnormal[c].is_none()
                    && rel[c] < cfg.tol
                    && case_iterations[c] > 0
            }));
            if check.iter().any(|&c| c) {
                audit(a, f, x, f_norm, check, zq, sq, rel_true);
                for c in 0..r {
                    if check[c]
                        && (!rel_true[c].is_finite() || rel_true[c] > sentinel_drift * cfg.tol)
                    {
                        abnormal[c] = Some(Termination::ResidualDrift);
                    }
                }
            }
        }

        // Per-case classification: the recorded abnormal cause wins (the
        // exit audit can veto a lane whose recursive residual claims
        // convergence), then convergence, then the iteration cap.
        stats.case_termination.clear();
        stats.case_termination.extend((0..r).map(|c| {
            if !occupied[c] || f_norm[c] == 0.0 {
                Termination::Converged
            } else if let Some(t) = abnormal[c] {
                t
            } else if rel[c] < cfg.tol {
                Termination::Converged
            } else {
                Termination::MaxIter
            }
        }));
        let converged = stats
            .case_termination
            .iter()
            .all(|t| *t == Termination::Converged);
        // Most severe failure across lanes decides the fused cause.
        let severity = |t: &Termination| match t {
            // corruption signals outrank everything: they mean the numbers
            // in hand cannot be trusted, not merely that convergence is slow
            Termination::ResidualDrift => 8,
            Termination::NormExploded => 7,
            Termination::NanResidual => 6,
            Termination::RhoBreakdown => 5,
            Termination::Breakdown => 4,
            Termination::DivergentGuess => 3,
            Termination::Stagnation => 2,
            Termination::MaxIter => 1,
            Termination::Converged => 0,
        };
        let termination = stats
            .case_termination
            .iter()
            .copied()
            .max_by_key(severity)
            .unwrap_or(Termination::Converged);
        obs.solve_end(fused_iterations, termination);

        stats.fused_iterations = fused_iterations;
        stats.final_rel_res.clone_from(rel);
        stats.converged = converged;
        stats.termination = termination;
        stats.counts = counts;
        stats
    }
}

/// Recompute per-case true residuals `‖f_c − A x_c‖ / ‖f_c‖` of the cases
/// `check` selects into `rel_true`, through `ax` (receives `A·x`) and `sq`
/// (per-case sums). Read-only on all iteration state; the apply is
/// deliberately NOT merged into the solve's counts so the modeled timeline
/// is unchanged by detection.
#[allow(clippy::too_many_arguments, reason = "read-only state, three outputs")]
fn audit<A: MultiOperator + ?Sized>(
    a: &A,
    f: &[f64],
    x: &[f64],
    f_norm: &[f64],
    check: &[bool],
    ax: &mut [f64],
    sq: &mut [f64],
    rel_true: &mut [f64],
) {
    let (n, r) = (a.n(), a.r());
    a.apply_multi(x, ax);
    sq.fill(0.0);
    for i in 0..n {
        for c in 0..r {
            if check[c] {
                let d = f[i * r + c] - ax[i * r + c];
                sq[c] += d * d;
            }
        }
    }
    for c in 0..r {
        if check[c] {
            rel_true[c] = sq[c].sqrt() / f_norm[c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockjacobi::BlockJacobi;
    use crate::cg::pcg;
    use crate::op::{LinearOperator, MultiOperator};

    /// Wrap a single-RHS operator as a (slow) multi-RHS operator for tests.
    struct LoopMulti<'a, A: LinearOperator> {
        a: &'a A,
        r: usize,
    }

    impl<A: LinearOperator> MultiOperator for LoopMulti<'_, A> {
        fn n(&self) -> usize {
            self.a.n()
        }
        fn r(&self) -> usize {
            self.r
        }
        fn apply_multi(&self, x: &[f64], y: &mut [f64]) {
            let n = self.a.n();
            let mut xc = vec![0.0; n];
            let mut yc = vec![0.0; n];
            for c in 0..self.r {
                for i in 0..n {
                    xc[i] = x[i * self.r + c];
                }
                self.a.apply(&xc, &mut yc);
                for i in 0..n {
                    y[i * self.r + c] = yc[i];
                }
            }
        }
        fn counts(&self) -> KernelCounts {
            self.a.counts().scaled(self.r as f64)
        }
    }

    fn spd_matrix(nb: usize) -> crate::bcrs::Bcrs3 {
        let mut b = crate::bcrs::BcrsBuilder::new(nb);
        for i in 0..nb {
            b.add_block(
                i as u32,
                i as u32,
                &[6.0, 1.0, 0.0, 1.0, 7.0, 1.0, 0.0, 1.0, 8.0],
            );
            if i + 1 < nb {
                let off = [-1.0, 0.0, 0.2, 0.1, -1.0, 0.0, 0.0, 0.1, -1.0];
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

    #[test]
    fn mcg_matches_independent_cg() {
        let m = spd_matrix(25);
        let n = m.n();
        let r = 4;
        let multi = LoopMulti { a: &m, r };
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let cfg = CgConfig {
            tol: 1e-10,
            max_iter: 500,
            ..CgConfig::default()
        };

        let mut f = vec![0.0; n * r];
        for c in 0..r {
            for i in 0..n {
                f[i * r + c] = ((i * (c + 1)) as f64 * 0.17).sin();
            }
        }
        let mut x = vec![0.0; n * r];
        let stats = mcg(&multi, &prec, &f, &mut x, &cfg);
        assert!(stats.converged);

        for c in 0..r {
            let fc: Vec<f64> = (0..n).map(|i| f[i * r + c]).collect();
            let mut xc = vec![0.0; n];
            let s = pcg(&m, &prec, &fc, &mut xc, &cfg);
            assert!(s.converged);
            for i in 0..n {
                assert!(
                    (x[i * r + c] - xc[i]).abs() < 1e-7,
                    "case {c} dof {i}: {} vs {}",
                    x[i * r + c],
                    xc[i]
                );
            }
        }
    }

    /// Textbook preconditioned CG (Saad, *Iterative Methods for Sparse
    /// Linear Systems*, Alg. 9.1) from a zero guess — an oracle that shares
    /// no line with the iteration under test.
    fn textbook_pcg<A: LinearOperator, P: Preconditioner>(
        a: &A,
        prec: &P,
        f: &[f64],
        tol: f64,
    ) -> Vec<f64> {
        let n = f.len();
        let dot = |u: &[f64], v: &[f64]| -> f64 { u.iter().zip(v).map(|(a, b)| a * b).sum() };
        let (mut x, mut r) = (vec![0.0; n], f.to_vec());
        let (mut z, mut q) = (vec![0.0; n], vec![0.0; n]);
        prec.apply(&r, &mut z);
        let mut p = z.clone();
        let mut rz = dot(&r, &z);
        while dot(&r, &r).sqrt() >= tol * dot(f, f).sqrt() {
            a.apply(&p, &mut q);
            let alpha = rz / dot(&p, &q);
            for i in 0..n {
                x[i] += alpha * p[i];
                r[i] -= alpha * q[i];
            }
            prec.apply(&r, &mut z);
            let rz_next = dot(&r, &z);
            for i in 0..n {
                p[i] = z[i] + (rz_next / rz) * p[i];
            }
            rz = rz_next;
        }
        x
    }

    #[test]
    fn pcg_and_mcg_agree_with_textbook_pcg() {
        let m = spd_matrix(25);
        let n = m.n();
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let cfg = CgConfig {
            tol: 1e-13,
            max_iter: 500,
            ..CgConfig::default()
        };
        let rhs = |c: usize| -> Vec<f64> {
            (0..n)
                .map(|i| ((i * (c + 1)) as f64 * 0.17).sin())
                .collect()
        };
        let oracle: Vec<Vec<f64>> = (0..4)
            .map(|c| textbook_pcg(&m, &prec, &rhs(c), cfg.tol))
            .collect();

        let close = |got: f64, want: f64| (got - want).abs() < 1e-10;

        let mut x1 = vec![0.0; n];
        assert!(pcg(&m, &prec, &rhs(0), &mut x1, &cfg).converged);
        assert!((0..n).all(|i| close(x1[i], oracle[0][i])), "pcg");
        for r in [1usize, 4] {
            let mut f = vec![0.0; n * r];
            for c in 0..r {
                crate::vecops::insert_case(&mut f, r, c, &rhs(c));
            }
            let mut x = vec![0.0; n * r];
            assert!(mcg(&LoopMulti { a: &m, r }, &prec, &f, &mut x, &cfg).converged);
            for c in 0..r {
                for i in 0..n {
                    assert!(close(x[i * r + c], oracle[c][i]), "r={r} case {c} dof {i}");
                }
            }
        }
    }

    #[test]
    fn per_case_iterations_reported() {
        let m = spd_matrix(20);
        let n = m.n();
        let r = 2;
        let multi = LoopMulti { a: &m, r };
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        // case 0: hard RHS from zero guess. case 1: zero RHS (instant).
        let mut f = vec![0.0; n * r];
        for i in 0..n {
            f[i * r] = (i as f64 * 0.23).cos();
        }
        let mut x = vec![0.0; n * r];
        let stats = mcg(&multi, &prec, &f, &mut x, &CgConfig::default());
        assert!(stats.converged);
        assert!(stats.case_iterations[0] > 0);
        assert_eq!(stats.case_iterations[1], 0);
        // zero-RHS case's solution stays zero
        for i in 0..n {
            assert_eq!(x[i * r + 1], 0.0);
        }
    }

    #[test]
    fn frozen_cases_keep_their_solution() {
        let m = spd_matrix(15);
        let n = m.n();
        let r = 2;
        let multi = LoopMulti { a: &m, r };
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let cfg = CgConfig {
            tol: 1e-9,
            max_iter: 500,
            ..CgConfig::default()
        };
        // case 0 gets a near-exact initial guess; case 1 starts cold.
        let fc: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).sin()).collect();
        let mut x_exact = vec![0.0; n];
        pcg(
            &m,
            &prec,
            &fc,
            &mut x_exact,
            &CgConfig {
                tol: 1e-14,
                max_iter: 1000,
                ..CgConfig::default()
            },
        );

        let mut f = vec![0.0; n * r];
        let mut x = vec![0.0; n * r];
        for i in 0..n {
            f[i * r] = fc[i];
            f[i * r + 1] = fc[i] * 2.0;
            x[i * r] = x_exact[i]; // exact guess for case 0
        }
        let stats = mcg(&multi, &prec, &f, &mut x, &cfg);
        assert!(stats.converged);
        assert!(stats.case_iterations[0] < stats.case_iterations[1]);
        // case 0's result stayed at the exact solution
        for i in 0..n {
            assert!((x[i * r] - x_exact[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn masked_all_true_is_bitwise_identical() {
        let m = spd_matrix(18);
        let n = m.n();
        let r = 4;
        let multi = LoopMulti { a: &m, r };
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let mut f = vec![0.0; n * r];
        for c in 0..r {
            for i in 0..n {
                f[i * r + c] = ((i * (c + 2)) as f64 * 0.31).sin();
            }
        }
        let cfg = CgConfig::default();
        let mut x_plain = vec![0.0; n * r];
        let s_plain = mcg(&multi, &prec, &f, &mut x_plain, &cfg);
        let mut x_masked = vec![0.0; n * r];
        let s_masked = mcg_masked_observed(
            &multi,
            &prec,
            &f,
            &mut x_masked,
            &cfg,
            &[true; 4],
            &mut NoopObserver,
        );
        assert_eq!(s_plain.fused_iterations, s_masked.fused_iterations);
        assert_eq!(s_plain.case_iterations, s_masked.case_iterations);
        for i in 0..n * r {
            assert_eq!(x_plain[i].to_bits(), x_masked[i].to_bits());
        }
    }

    #[test]
    fn vacant_lane_is_skipped_and_untouched() {
        let m = spd_matrix(18);
        let n = m.n();
        let r = 4;
        let multi = LoopMulti { a: &m, r };
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let occupied = [true, false, true, false];
        let mut f = vec![0.0; n * r];
        for c in 0..r {
            if !occupied[c] {
                continue;
            }
            for i in 0..n {
                f[i * r + c] = ((i * (c + 1)) as f64 * 0.19).cos();
            }
        }
        let cfg = CgConfig::default();
        let mut x = vec![0.0; n * r];
        // vacant columns carry a sentinel that must survive untouched
        for c in 0..r {
            if !occupied[c] {
                for i in 0..n {
                    x[i * r + c] = 42.5;
                }
            }
        }
        let stats = mcg_masked_observed(
            &multi,
            &prec,
            &f,
            &mut x,
            &cfg,
            &occupied,
            &mut NoopObserver,
        );
        assert!(stats.converged);
        for c in 0..r {
            if occupied[c] {
                assert!(stats.case_iterations[c] > 0);
                assert_eq!(stats.case_termination[c], Termination::Converged);
            } else {
                assert_eq!(stats.case_iterations[c], 0);
                assert_eq!(stats.case_termination[c], Termination::Converged);
                for i in 0..n {
                    assert_eq!(x[i * r + c], 42.5);
                }
            }
        }
        // occupied columns match their solo single-RHS solves
        for c in [0usize, 2] {
            let fc: Vec<f64> = (0..n).map(|i| f[i * r + c]).collect();
            let mut xc = vec![0.0; n];
            let s = pcg(&m, &prec, &fc, &mut xc, &cfg);
            assert!(s.converged);
            for i in 0..n {
                assert!((x[i * r + c] - xc[i]).abs() < 1e-6);
            }
        }
    }

    /// A lane whose guess is NaN is frozen before the first iteration: its
    /// column of `x` keeps every bit, and the other lanes solve exactly as
    /// if it were vacant.
    #[test]
    fn nan_lane_stays_untouched_and_does_not_leak() {
        let m = spd_matrix(18);
        let n = m.n();
        let r = 4;
        let multi = LoopMulti { a: &m, r };
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let mut f = vec![0.0; n * r];
        for c in 0..r {
            for i in 0..n {
                f[i * r + c] = ((i * (c + 2)) as f64 * 0.31).sin();
            }
        }
        let cfg = CgConfig::default();
        let poison = f64::from_bits(0x7ff8_0000_0000_0bad);
        let mut x = vec![0.0; n * r];
        for i in 0..n {
            x[i * r + 1] = poison;
        }
        let stats = mcg(&multi, &prec, &f, &mut x, &cfg);
        assert_eq!(stats.case_termination[1], Termination::NanResidual);
        assert_eq!(stats.case_iterations[1], 0);

        let mut x_ref = vec![0.0; n * r];
        let occupied = [true, false, true, true];
        let s_ref = mcg_masked_observed(
            &multi,
            &prec,
            &f,
            &mut x_ref,
            &cfg,
            &occupied,
            &mut NoopObserver,
        );
        assert!(s_ref.converged);
        assert_eq!(stats.fused_iterations, s_ref.fused_iterations);
        for i in 0..n {
            assert_eq!(x[i * r + 1].to_bits(), poison.to_bits());
            for c in [0usize, 2, 3] {
                assert_eq!(x[i * r + c].to_bits(), x_ref[i * r + c].to_bits());
            }
        }
    }

    /// Multi-RHS wrapper with one transient glitch: application number
    /// `glitch_at` (1-based) perturbs case `case`'s output column — the SDC
    /// model for a particle strike during one fused SpMV. All other
    /// applications, including the sentinel's audits, are exact.
    struct GlitchMulti<'a, A: MultiOperator> {
        a: &'a A,
        applies: std::sync::atomic::AtomicUsize,
        glitch_at: usize,
        case: usize,
    }

    impl<A: MultiOperator> MultiOperator for GlitchMulti<'_, A> {
        fn n(&self) -> usize {
            self.a.n()
        }
        fn r(&self) -> usize {
            self.a.r()
        }
        fn apply_multi(&self, x: &[f64], y: &mut [f64]) {
            let k = self
                .applies
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
                + 1;
            self.a.apply_multi(x, y);
            if k == self.glitch_at {
                let r = self.a.r();
                for i in 0..self.a.n() {
                    let v = &mut y[i * r + self.case];
                    *v = f64::from_bits(v.to_bits() ^ (1u64 << 61));
                }
            }
        }
        fn counts(&self) -> KernelCounts {
            self.a.counts()
        }
    }

    #[test]
    fn sentinel_freezes_only_the_corrupted_case() {
        let m = spd_matrix(25);
        let n = m.n();
        let r = 3;
        let multi = LoopMulti { a: &m, r };
        let glitched = GlitchMulti {
            a: &multi,
            applies: std::sync::atomic::AtomicUsize::new(0),
            // apply sequence: #1 init, iter1 #2, iter2 #3, sentinel #4,
            // iter3 #5 (glitched), iter4 #6, sentinel #7 detects the drift
            glitch_at: 5,
            case: 1,
        };
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let cfg = CgConfig {
            sentinel_every: 2,
            ..CgConfig::default()
        };
        let mut f = vec![0.0; n * r];
        for c in 0..r {
            for i in 0..n {
                f[i * r + c] = ((i * (c + 1)) as f64 * 0.29).sin();
            }
        }
        let mut x = vec![0.0; n * r];
        let stats = mcg(&glitched, &prec, &f, &mut x, &cfg);
        assert_eq!(stats.case_termination[1], Termination::ResidualDrift);
        assert_eq!(stats.termination, Termination::ResidualDrift);
        assert!(!stats.converged);
        // the healthy lanes are unaffected by their neighbor's corruption
        for c in [0usize, 2] {
            assert_eq!(
                stats.case_termination[c],
                Termination::Converged,
                "case {c}"
            );
        }
    }

    /// The per-case numbers of a solve as bits, and its counts and fates.
    fn stats_bits(s: &McgStats) -> (Vec<u64>, String) {
        let rel = s.initial_rel_res.iter().chain(&s.final_rel_res);
        let counts = [s.counts.flops, s.counts.bytes_stream];
        let bits = rel.chain(&counts).map(|v| v.to_bits()).collect();
        let fates = format!(
            "{} {:?} {:?} {:?} {}",
            s.fused_iterations, s.case_iterations, s.case_termination, s.termination, s.converged
        );
        (bits, fates)
    }

    /// One workspace lent to solve after solve — widths 1 and 4, a vacant
    /// lane, a NaN-frozen lane, sentinel-tripped solves in between — gives
    /// every solve the bits of a fresh workspace: nothing a solve leaves
    /// behind is read by the next.
    #[test]
    fn reused_workspace_is_bitwise_a_fresh_one() {
        let m = spd_matrix(25);
        let n = m.n();
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let sentinel = CgConfig {
            sentinel_every: 2,
            norm_bound: 1e9,
            ..CgConfig::default()
        };
        let plain = CgConfig::default();
        let poison = f64::from_bits(0x7ff8_0000_0000_0bad);
        let all = [true; 4];
        let vacant = [true, false, true, true];
        // (width, occupied, NaN lane, glitched apply, config)
        type Solve<'a> = (usize, &'a [bool], Option<usize>, usize, CgConfig);
        let solves: [Solve; 7] = [
            (4, &all, None, 0, plain),
            (4, &vacant, None, 0, sentinel),
            (1, &[true], None, 0, sentinel),
            (4, &all, Some(2), 0, plain),
            (4, &all, None, 5, sentinel),
            (1, &[true], None, 5, sentinel),
            (4, &vacant, Some(3), 0, sentinel),
        ];
        let solve = |ws: &mut McgWorkspace, k: usize| {
            let (r, occupied, nan, glitch_at, cfg) = solves[k];
            let multi = LoopMulti { a: &m, r };
            let op = GlitchMulti {
                a: &multi,
                applies: std::sync::atomic::AtomicUsize::new(0),
                glitch_at,
                case: r / 2,
            };
            let mut f = vec![0.0; n * r];
            for c in (0..r).filter(|&c| occupied[c]) {
                for i in 0..n {
                    f[i * r + c] = ((i * (c + 1)) as f64 * 0.29).sin();
                }
            }
            let mut x = vec![0.0; n * r];
            for i in nan.map_or(0..0, |_| 0..n) {
                x[i * r + nan.unwrap_or(0)] = poison;
            }
            let stats = ws.solve(&op, &prec, &f, &mut x, &cfg, occupied, &mut NoopObserver);
            let x_bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            (x_bits, stats_bits(stats), stats.case_termination.clone())
        };
        let mut reused = McgWorkspace::default();
        for round in 0..2 {
            for k in 0..solves.len() {
                let fresh = solve(&mut McgWorkspace::default(), k);
                if solves[k].3 > 0 {
                    let tripped = fresh.2.contains(&Termination::ResidualDrift);
                    assert!(tripped, "solve {k} trips the sentinel");
                }
                assert!(solve(&mut reused, k) == fresh, "round {round} solve {k}");
            }
        }
    }

    #[test]
    fn sentinel_is_bitwise_neutral_for_clean_multi_solves() {
        let m = spd_matrix(20);
        let n = m.n();
        let r = 4;
        let multi = LoopMulti { a: &m, r };
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let mut f = vec![0.0; n * r];
        for c in 0..r {
            for i in 0..n {
                f[i * r + c] = ((i * (c + 2)) as f64 * 0.41).cos();
            }
        }
        let mut x_off = vec![0.0; n * r];
        let s_off = mcg(&multi, &prec, &f, &mut x_off, &CgConfig::default());
        let mut x_on = vec![0.0; n * r];
        let s_on = mcg(
            &multi,
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
        assert_eq!(s_off.fused_iterations, s_on.fused_iterations);
        assert_eq!(s_off.case_iterations, s_on.case_iterations);
        assert_eq!(s_off.counts.flops.to_bits(), s_on.counts.flops.to_bits());
        for i in 0..n * r {
            assert_eq!(x_off[i].to_bits(), x_on[i].to_bits());
        }
    }

    #[test]
    fn initial_residual_reflects_guess_quality() {
        let m = spd_matrix(12);
        let n = m.n();
        let r = 2;
        let multi = LoopMulti { a: &m, r };
        let prec = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let mut f = vec![0.0; n * r];
        for i in 0..n {
            let v = (i as f64 * 0.8).sin();
            f[i * r] = v;
            f[i * r + 1] = v;
        }
        // case 1 starts from a good guess
        let fc: Vec<f64> = (0..n).map(|i| (i as f64 * 0.8).sin()).collect();
        let mut xg = vec![0.0; n];
        pcg(
            &m,
            &prec,
            &fc,
            &mut xg,
            &CgConfig {
                tol: 1e-6,
                max_iter: 100,
                ..CgConfig::default()
            },
        );
        let mut x = vec![0.0; n * r];
        for i in 0..n {
            x[i * r + 1] = xg[i];
        }
        let stats = mcg(&multi, &prec, &f, &mut x, &CgConfig::default());
        assert!(stats.initial_rel_res[1] < stats.initial_rel_res[0]);
        assert!(stats.case_iterations[1] <= stats.case_iterations[0]);
    }
}
