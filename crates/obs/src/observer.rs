//! Per-iteration solver observation.
//!
//! [`SolveObserver`] is threaded through `pcg` and `mcg` in
//! `hetsolve-sparse`. The contract is strictly read-only: observers receive
//! residual data but can never influence the iteration, so an observed run
//! and an unobserved run are bitwise identical (asserted by
//! `tests/observability.rs`). The default method bodies are empty and
//! [`NoopObserver`] overrides nothing, so the no-op path monomorphizes to
//! nothing — no virtual dispatch, no allocation, no branch on the hot path.

/// Why an iterative solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// All cases reached the relative-residual tolerance.
    Converged,
    /// The iteration cap was hit first.
    MaxIter,
    /// Loss of positive definiteness (`pᵀq <= 0`) froze the last active
    /// case(s).
    Breakdown,
    /// A residual (or `pᵀq`) turned NaN/Inf — poisoned input or overflow.
    NanResidual,
    /// The residual stopped improving for a full stagnation window.
    Stagnation,
    /// The preconditioned inner product `zᵀr` lost positivity — the
    /// preconditioner is not SPD for this residual.
    RhoBreakdown,
    /// The initial guess was rejected before the first iteration: its
    /// relative residual was so large that the recursive residual could
    /// "converge" while the true solution stays wrong (attainable accuracy
    /// in f64 is roughly `eps × initial residual`). Retry from a sane guess.
    DivergentGuess,
    /// The invariant sentinel's periodically recomputed *true* residual
    /// `‖f − A x‖` drifted past its bound relative to the recursive
    /// residual the iteration carries — the CG invariant `r = f − A x`
    /// no longer holds, the signature of silent data corruption in `x`,
    /// `r`, or the operator between checks.
    ResidualDrift,
    /// The invariant sentinel's bounded-norm guard tripped: the iterate's
    /// norm grew past its bound (or turned non-finite) — a runaway that
    /// the recursive residual alone can fail to expose.
    NormExploded,
}

impl Termination {
    pub fn label(&self) -> &'static str {
        match self {
            Termination::Converged => "converged",
            Termination::MaxIter => "max_iter",
            Termination::Breakdown => "breakdown",
            Termination::NanResidual => "nan_residual",
            Termination::Stagnation => "stagnation",
            Termination::RhoBreakdown => "rho_breakdown",
            Termination::DivergentGuess => "divergent_guess",
            Termination::ResidualDrift => "residual_drift",
            Termination::NormExploded => "norm_exploded",
        }
    }

    /// Abnormal terminations are everything but [`Termination::Converged`].
    pub fn is_failure(&self) -> bool {
        !matches!(self, Termination::Converged)
    }

    /// Stable wire code for checkpoint encoding. Codes are append-only:
    /// existing values never change meaning across format versions.
    pub fn code(&self) -> u8 {
        match self {
            Termination::Converged => 0,
            Termination::MaxIter => 1,
            Termination::Breakdown => 2,
            Termination::NanResidual => 3,
            Termination::Stagnation => 4,
            Termination::RhoBreakdown => 5,
            Termination::DivergentGuess => 6,
            Termination::ResidualDrift => 7,
            Termination::NormExploded => 8,
        }
    }

    /// Inverse of [`Termination::code`]; `None` for unknown codes (a
    /// corrupt or future-version checkpoint).
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => Termination::Converged,
            1 => Termination::MaxIter,
            2 => Termination::Breakdown,
            3 => Termination::NanResidual,
            4 => Termination::Stagnation,
            5 => Termination::RhoBreakdown,
            6 => Termination::DivergentGuess,
            7 => Termination::ResidualDrift,
            8 => Termination::NormExploded,
            _ => return None,
        })
    }
}

hetsolve_ckpt::wire_code!(Termination, "termination");

/// Observer hooks called by the CG solvers. `rel_res` carries one relative
/// residual per fused case (length 1 for single-RHS `pcg`); the slice is
/// borrowed from solver-owned storage, so implementations must copy what
/// they keep.
pub trait SolveObserver {
    /// Before the first iteration: problem size, fused case count, and the
    /// initial relative residuals (initial-guess quality).
    fn solve_begin(&mut self, _n: usize, _cases: usize, _rel_res: &[f64]) {}

    /// After iteration `iter` (1-based), with the updated residuals.
    fn iteration(&mut self, _iter: usize, _rel_res: &[f64]) {}

    /// After the loop: total iterations and why the solver stopped.
    fn solve_end(&mut self, _iterations: usize, _termination: Termination) {}
}

/// The zero-cost default: every hook is the empty default body. A
/// zero-sized type, so `pcg(a, prec, f, x, cfg)` and
/// `pcg_observed(a, prec, f, x, cfg, &mut NoopObserver)` compile to the
/// same machine code.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl SolveObserver for NoopObserver {}

/// Records the full residual-decay trace — the data behind the paper's
/// Fig. 3 (convergence vs. initial-guess quality) and the
/// iteration-count/residual-decay evidence in Loeb & Earls-style
/// data-driven CG acceleration studies.
#[derive(Debug, Clone, Default)]
pub struct ResidualLog {
    /// Problem size reported at `solve_begin`.
    pub n: usize,
    /// `history[iter][case]`: relative residual after each iteration
    /// (index 0 = initial).
    pub history: Vec<Vec<f64>>,
    /// Total iterations reported at `solve_end`.
    pub iterations: usize,
    pub termination: Option<Termination>,
}

impl ResidualLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Residual trace of one case across all iterations.
    pub fn case_history(&self, case: usize) -> Vec<f64> {
        self.history.iter().map(|row| row[case]).collect()
    }
}

impl SolveObserver for ResidualLog {
    fn solve_begin(&mut self, n: usize, _cases: usize, rel_res: &[f64]) {
        self.n = n;
        self.history.clear();
        self.history.push(rel_res.to_vec());
    }

    fn iteration(&mut self, _iter: usize, rel_res: &[f64]) {
        self.history.push(rel_res.to_vec());
    }

    fn solve_end(&mut self, iterations: usize, termination: Termination) {
        self.iterations = iterations;
        self.termination = Some(termination);
    }
}

/// Fan-out to two observers (e.g. a `ResidualLog` plus a live counter).
impl<A: SolveObserver, B: SolveObserver> SolveObserver for (A, B) {
    fn solve_begin(&mut self, n: usize, cases: usize, rel_res: &[f64]) {
        self.0.solve_begin(n, cases, rel_res);
        self.1.solve_begin(n, cases, rel_res);
    }

    fn iteration(&mut self, iter: usize, rel_res: &[f64]) {
        self.0.iteration(iter, rel_res);
        self.1.iteration(iter, rel_res);
    }

    fn solve_end(&mut self, iterations: usize, termination: Termination) {
        self.0.solve_end(iterations, termination);
        self.1.solve_end(iterations, termination);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_zero_sized() {
        // The acceptance criterion "no allocation in NoopObserver
        // callbacks" is structural: a ZST with empty default methods has
        // nothing to allocate and nothing to call.
        assert_eq!(std::mem::size_of::<NoopObserver>(), 0);
    }

    #[test]
    fn residual_log_records_everything() {
        let mut log = ResidualLog::new();
        log.solve_begin(100, 2, &[1.0, 0.5]);
        log.iteration(1, &[0.1, 0.05]);
        log.iteration(2, &[0.01, 0.004]);
        log.solve_end(2, Termination::Converged);
        assert_eq!(log.n, 100);
        assert_eq!(log.history.len(), 3);
        assert_eq!(log.case_history(1), vec![0.5, 0.05, 0.004]);
        assert_eq!(log.iterations, 2);
        assert_eq!(log.termination, Some(Termination::Converged));
    }

    #[test]
    fn pair_fans_out() {
        let mut pair = (ResidualLog::new(), ResidualLog::new());
        pair.solve_begin(10, 1, &[1.0]);
        pair.iteration(1, &[0.1]);
        pair.solve_end(1, Termination::MaxIter);
        assert_eq!(pair.0.history, pair.1.history);
        assert_eq!(pair.1.termination, Some(Termination::MaxIter));
    }

    #[test]
    fn termination_labels() {
        assert_eq!(Termination::Converged.label(), "converged");
        assert_eq!(Termination::MaxIter.label(), "max_iter");
        assert_eq!(Termination::Breakdown.label(), "breakdown");
        assert_eq!(Termination::NanResidual.label(), "nan_residual");
        assert_eq!(Termination::Stagnation.label(), "stagnation");
        assert_eq!(Termination::RhoBreakdown.label(), "rho_breakdown");
        assert_eq!(Termination::ResidualDrift.label(), "residual_drift");
        assert_eq!(Termination::NormExploded.label(), "norm_exploded");
        for t in [Termination::ResidualDrift, Termination::NormExploded] {
            assert_eq!(Termination::from_code(t.code()), Some(t));
        }
    }

    #[test]
    fn only_converged_is_success() {
        assert!(!Termination::Converged.is_failure());
        for t in [
            Termination::MaxIter,
            Termination::Breakdown,
            Termination::NanResidual,
            Termination::Stagnation,
            Termination::RhoBreakdown,
        ] {
            assert!(t.is_failure(), "{}", t.label());
        }
    }
}
