//! Adaptive predictor-window controller.
//!
//! The paper adjusts the number of snapshot steps `s` "automatically during
//! the time-history analysis to balance the computation times of the
//! predictor on the CPU and the solver on the GPU" (§2.2, Fig. 4), within
//! the bound set by CPU memory capacity.
//!
//! The controller keeps an exponentially-weighted estimate of the
//! predictor's cost-per-`s²` (the MGS term dominates) and, each step, picks
//! the largest `s` whose predicted time fits the latest solver time, bounded
//! by `s_min..=s_cap` where `s_cap` also reflects the memory limit.

/// One controller decision — why the window `s` moved (or did not). The
/// paper's Fig. 4 shows *that* `s` adapts; this record shows *why*, and is
/// exported to the trace/metrics files by `hetsolve-core`'s `StepTracer`.
#[derive(Debug, Clone, Copy)]
pub struct WindowDecision {
    /// Window actually used for the observed step.
    pub s_used: usize,
    /// Window chosen for the next step.
    pub s_next: usize,
    /// Measured (or modeled) predictor time of the observed step (s).
    pub predictor_time: f64,
    /// Measured (or modeled) solver time to hide the predictor behind (s).
    pub solver_time: f64,
    /// EWMA of predictor cost per `s²` after folding in this observation
    /// (s); NaN until the first valid observation.
    pub unit_cost: f64,
    /// Predictor-time budget the next window was fitted under:
    /// `margin * solver_time` (s).
    pub budget: f64,
}

/// Controller state.
#[derive(Debug, Clone)]
pub struct AdaptiveWindow {
    pub s_min: usize,
    /// Hard cap (memory bound: the paper's 32 on 480 GB, 11 on 128 GB).
    pub s_cap: usize,
    /// Current choice.
    s: usize,
    /// EWMA of predictor_time / s² (seconds).
    unit_cost: Option<f64>,
    /// EWMA smoothing factor.
    alpha: f64,
    /// Safety margin: target predictor_time <= margin * solver_time.
    margin: f64,
}

impl AdaptiveWindow {
    pub fn new(s_min: usize, s_cap: usize) -> Self {
        assert!(1 <= s_min && s_min <= s_cap);
        AdaptiveWindow {
            s_min,
            s_cap,
            s: s_min,
            unit_cost: None,
            alpha: 0.3,
            margin: 0.95,
        }
    }

    /// Window to use for the next step.
    pub fn current(&self) -> usize {
        self.s
    }

    /// The largest window the next decision can pick: growth is limited to
    /// +50 % (at least +1) per step, within `s_cap`. A predictor history
    /// of `reach() + 1` snapshots serves the next step and the one after.
    pub fn reach(&self) -> usize {
        (self.s + (self.s / 2).max(1)).min(self.s_cap)
    }

    /// Report the measured (or modeled) times of the step just finished:
    /// `predictor_time` with the window actually used, and `solver_time`
    /// to hide it behind. Returns the window chosen for the next step.
    pub fn observe(&mut self, s_used: usize, predictor_time: f64, solver_time: f64) -> usize {
        self.observe_logged(s_used, predictor_time, solver_time)
            .s_next
    }

    /// [`AdaptiveWindow::observe`] returning the full [`WindowDecision`]
    /// record for observability consumers.
    pub fn observe_logged(
        &mut self,
        s_used: usize,
        predictor_time: f64,
        solver_time: f64,
    ) -> WindowDecision {
        if s_used >= 1 && predictor_time > 0.0 {
            let unit = predictor_time / (s_used * s_used) as f64;
            self.unit_cost = Some(match self.unit_cost {
                Some(u) => u + self.alpha * (unit - u),
                None => unit,
            });
        }
        if let Some(u) = self.unit_cost {
            if u > 0.0 && solver_time > 0.0 {
                let fit = (self.margin * solver_time / u).sqrt().floor() as usize;
                // limit growth to `reach()` to avoid oscillation on noisy
                // timings; shrink immediately when over budget.
                let grown = self.reach().min(fit);
                self.s = if fit < self.s { fit } else { grown }.clamp(self.s_min, self.s_cap);
            }
        }
        WindowDecision {
            s_used,
            s_next: self.s,
            predictor_time,
            solver_time,
            unit_cost: self.unit_cost.unwrap_or(f64::NAN),
            budget: self.margin * solver_time,
        }
    }

    /// `(current window, unit-cost EWMA)` — the controller's mutable state,
    /// what a checkpoint must persist for the window trajectory to resume
    /// exactly (bounds and tuning constants are rebuilt from the config).
    pub fn state(&self) -> (usize, Option<f64>) {
        (self.s, self.unit_cost)
    }

    /// Restore state captured by [`AdaptiveWindow::state`].
    pub fn restore_state(&mut self, s: usize, unit_cost: Option<f64>) {
        self.s = s.clamp(self.s_min, self.s_cap);
        self.unit_cost = unit_cost;
    }

    /// Drop the window back to `s_min` after the snapshot history was
    /// discarded (poisoned snapshot): the predictor has to rebuild its
    /// basis, so a large window would only orthonormalize stale columns.
    /// The cost estimate survives — it describes the hardware, not the
    /// history — so regrowth takes the usual rate-limited path.
    pub fn reset_window(&mut self) {
        self.s = self.s_min;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulated predictor with true cost `c * s²`; controller should find
    /// the largest s with c s² <= solver_time.
    #[test]
    fn converges_to_balance() {
        let c = 1e-4;
        let solver_time = 0.1; // => s* = sqrt(0.95*0.1/1e-4) ≈ 30.8 -> 30
        let mut ctl = AdaptiveWindow::new(2, 64);
        let mut s = ctl.current();
        for _ in 0..40 {
            let pred_time = c * (s * s) as f64;
            s = ctl.observe(s, pred_time, solver_time);
        }
        assert!((29..=31).contains(&s), "converged to s = {s}");
    }

    #[test]
    fn respects_cap() {
        let mut ctl = AdaptiveWindow::new(2, 11);
        let mut s = ctl.current();
        for _ in 0..30 {
            let pred_time = 1e-6 * (s * s) as f64; // tiny: wants huge s
            s = ctl.observe(s, pred_time, 1.0);
        }
        assert_eq!(s, 11);
    }

    #[test]
    fn shrinks_when_solver_gets_faster() {
        let c = 1e-4;
        let mut ctl = AdaptiveWindow::new(2, 64);
        let mut s = ctl.current();
        for _ in 0..40 {
            s = ctl.observe(s, c * (s * s) as f64, 0.1);
        }
        let s_big = s;
        for _ in 0..40 {
            s = ctl.observe(s, c * (s * s) as f64, 0.01);
        }
        assert!(s < s_big, "did not shrink: {s_big} -> {s}");
        assert!((8..=10).contains(&s), "s = {s}"); // sqrt(0.95*0.01/1e-4) ≈ 9.7
    }

    #[test]
    fn growth_is_rate_limited() {
        let mut ctl = AdaptiveWindow::new(2, 1000);
        // first observation suggests s could be ~1000, but growth per step
        // is limited to +50%
        let s1 = ctl.observe(2, 4e-8, 1.0);
        assert!(s1 <= 3);
    }

    /// No decision leaves the reach of the window it starts from, and
    /// growing decisions meet it: `reach()` is the growth rule itself.
    #[test]
    fn every_decision_stays_within_reach() {
        let mut ctl = AdaptiveWindow::new(1, 32);
        let mut s = ctl.current();
        let mut reached = Vec::new();
        for k in 0..40 {
            let reach = ctl.reach();
            let solver_time = if k < 20 { 1.0 } else { 1e-3 };
            s = ctl.observe(s, 1e-5 * (s * s) as f64, solver_time);
            assert!(s <= reach, "step {k}: s = {s} past reach {reach}");
            reached.push((s, reach));
        }
        let growth: Vec<_> = reached.iter().take(8).map(|&(s, _)| s).collect();
        assert_eq!(growth, [2, 3, 4, 6, 9, 13, 19, 28]);
        assert!(reached[..8].iter().all(|&(s, reach)| s == reach));
        assert_eq!(reached[8], (32, 32), "reach stops at s_cap");
        assert!(s < 32, "the window shrank again: {s}");
    }

    #[test]
    fn decision_log_explains_the_choice() {
        let mut ctl = AdaptiveWindow::new(2, 64);
        let d0 = ctl.observe_logged(2, 4e-4, 0.1);
        // first observation: EWMA seeded directly
        assert!((d0.unit_cost - 1e-4).abs() < 1e-12);
        assert!((d0.budget - 0.095).abs() < 1e-12);
        assert_eq!(d0.s_used, 2);
        assert!(d0.s_next >= d0.s_used, "should grow toward the budget");
        assert_eq!(d0.s_next, ctl.current());
        // decisions and the legacy return value agree
        let s = ctl.observe(d0.s_next, 1e-4 * (d0.s_next * d0.s_next) as f64, 0.1);
        assert_eq!(s, ctl.current());
    }

    #[test]
    fn decision_log_before_any_cost_estimate_is_nan() {
        let mut ctl = AdaptiveWindow::new(2, 64);
        // s_used = 0: no predictor ran, no unit cost can be estimated
        let d = ctl.observe_logged(0, 0.0, 0.1);
        assert!(d.unit_cost.is_nan());
        assert_eq!(d.s_next, 2, "window must not move without evidence");
    }

    #[test]
    fn reset_window_drops_to_s_min_but_keeps_cost_estimate() {
        let mut ctl = AdaptiveWindow::new(2, 64);
        for _ in 0..20 {
            let s = ctl.current();
            ctl.observe(s, 1e-5 * (s * s) as f64, 1.0);
        }
        assert!(ctl.current() > 2);
        ctl.reset_window();
        assert_eq!(ctl.current(), 2);
        // the retained unit cost lets the window regrow immediately
        let s = ctl.observe(2, 1e-5 * 4.0, 1.0);
        assert!(s > 2, "regrowth should resume from the kept estimate");
    }
}
