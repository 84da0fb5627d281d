//! Adams-Bashforth initial-guess extrapolation — the conventional predictor
//! used by the paper's baseline methods (CRS-CG@CPU / CRS-CG@GPU):
//!
//! `ū^it = u^{it−1} + dt/24 (−9 v^{it−4} + 37 v^{it−3} − 59 v^{it−2} + 55 v^{it−1})`
//!
//! Lower orders are used while fewer history steps are available.

/// Adams-Bashforth coefficients (×`dt`), oldest velocity first.
fn ab_coeffs(order: usize) -> &'static [f64] {
    match order {
        1 => &[1.0],
        2 => &[-0.5, 1.5],
        3 => &[5.0 / 12.0, -16.0 / 12.0, 23.0 / 12.0],
        4 => &[-9.0 / 24.0, 37.0 / 24.0, -59.0 / 24.0, 55.0 / 24.0],
        _ => panic!("Adams-Bashforth order must be 1..=4 (got {order})"),
    }
}

/// Extrapolate the next displacement from the last displacement and up to 4
/// previous velocities.
///
/// `vel_hist` holds the most recent velocities **oldest first** (so
/// `vel_hist.last()` is `v^{it−1}`); the order used is
/// `min(4, vel_hist.len())`.
pub fn adams_bashforth(u_prev: &[f64], vel_hist: &[&[f64]], dt: f64, out: &mut [f64]) {
    assert!(
        !vel_hist.is_empty(),
        "need at least one velocity for extrapolation"
    );
    let order = vel_hist.len().min(4);
    let coeffs = ab_coeffs(order);
    let used = &vel_hist[vel_hist.len() - order..];
    out.copy_from_slice(u_prev);
    for (c, v) in coeffs.iter().zip(used) {
        debug_assert_eq!(v.len(), out.len());
        let cdt = c * dt;
        for (o, vi) in out.iter_mut().zip(v.iter()) {
            *o += cdt * vi;
        }
    }
}

/// The bounded velocity history of one case: the velocities of the steps
/// *before* the current one, at most 3, oldest first, plus whether
/// a step has been taken. The current velocity is the caller's (its time
/// state owns it) and is handed to [`AdamsState::predict`], so the history
/// never holds a second copy of it.
#[derive(Debug, Clone, Default)]
pub struct AdamsState {
    past: std::collections::VecDeque<Vec<f64>>,
    stepped: bool,
}

impl AdamsState {
    /// Past velocities an Adams-Bashforth guess reads besides the current
    /// one: the most the history holds.
    pub const PAST: usize = 3;

    pub fn new() -> Self {
        Self::default()
    }

    /// Record the current velocity `v` just before a step overwrites it.
    /// Before the first step it is the initial velocity, which no
    /// extrapolation reads: that call only marks the history as stepped.
    pub fn record_past(&mut self, v: &[f64]) {
        if !self.stepped {
            self.stepped = true;
        } else if self.past.len() == Self::PAST {
            // reuse the evicted buffer to avoid reallocation
            let mut old = self.past.pop_front().expect("len checked");
            old.copy_from_slice(v);
            self.past.push_back(old);
        } else {
            self.past.push_back(v.to_vec());
        }
    }

    /// Borrowing view of the past columns (oldest first) — the state
    /// guard's capture and checksum walk these without cloning.
    pub fn past_cols(&self) -> impl Iterator<Item = &[f64]> {
        self.past.iter().map(|v| v.as_slice())
    }

    /// Replace the past columns with `cols` (oldest first) — the rollback
    /// of a capture of [`AdamsState::past_cols`]. Whether a step has been
    /// taken is kept.
    pub fn restore_past<'a>(&mut self, cols: impl Iterator<Item = &'a [f64]>) {
        self.past = cols.map(<[f64]>::to_vec).collect();
    }

    /// Snapshot the velocity history for a checkpoint: the past columns
    /// followed by the current velocity `v_now`, oldest first; empty before
    /// the first step.
    pub fn history(&self, v_now: &[f64]) -> Vec<Vec<f64>> {
        let mut hist: Vec<Vec<f64>> = self.past.iter().cloned().collect();
        if self.stepped {
            hist.push(v_now.to_vec());
        }
        hist
    }

    /// Restore a snapshot taken by [`AdamsState::history`]: its newest
    /// column is the current velocity, which the caller restores as its
    /// own state, so it is dropped; of the rest only the newest 3
    /// are kept.
    pub fn restore_history(&mut self, mut hist: Vec<Vec<f64>>) {
        self.stepped = hist.pop().is_some();
        let skip = hist.len().saturating_sub(Self::PAST);
        self.past = hist.into_iter().skip(skip).collect();
    }

    /// Predict the next displacement from the past columns followed by the
    /// current velocity `v_now`; returns `false` (leaving `out = u_prev`)
    /// before the first step.
    pub fn predict(&self, u_prev: &[f64], v_now: &[f64], dt: f64, out: &mut [f64]) -> bool {
        if !self.stepped {
            out.copy_from_slice(u_prev);
            return false;
        }
        let mut refs: [&[f64]; Self::PAST + 1] = [&[]; Self::PAST + 1];
        let cols = self.past_cols().chain(std::iter::once(v_now));
        for (r, v) in refs.iter_mut().zip(cols) {
            *r = v;
        }
        adams_bashforth(u_prev, &refs[..=self.past.len()], dt, out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sample u(t) = sin(w t) and check the AB4 prediction error scales
    /// like O(dt^5) locally (coefficient check by halving).
    #[test]
    fn ab4_is_high_order() {
        let w = 2.0;
        let err = |dt: f64| {
            let t0: f64 = 1.0;
            let u = |t: f64| (w * t).sin();
            let v = |t: f64| w * (w * t).cos();
            let vels: Vec<Vec<f64>> = (0..4).map(|k| vec![v(t0 - (3 - k) as f64 * dt)]).collect();
            let refs: Vec<&[f64]> = vels.iter().map(|x| x.as_slice()).collect();
            let mut out = [0.0];
            adams_bashforth(&[u(t0)], &refs, dt, &mut out);
            (out[0] - u(t0 + dt)).abs()
        };
        let e1 = err(0.01);
        let e2 = err(0.005);
        let rate = (e1 / e2).log2();
        assert!(rate > 4.2, "AB4 observed rate {rate}");
    }

    #[test]
    fn ab1_is_forward_euler() {
        let u = [1.0, 2.0];
        let v = [3.0, -1.0];
        let mut out = [0.0; 2];
        adams_bashforth(&u, &[&v], 0.1, &mut out);
        assert!((out[0] - 1.3).abs() < 1e-15);
        assert!((out[1] - 1.9).abs() < 1e-15);
    }

    #[test]
    fn coefficients_sum_to_one() {
        // consistency: constant velocity => exact linear advance
        for order in 1..=4usize {
            let s: f64 = ab_coeffs(order).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "order {order}: {s}");
        }
    }

    #[test]
    fn constant_velocity_exact_for_all_orders() {
        let u = [5.0];
        let v = [2.0];
        for order in 1..=4usize {
            let vels = vec![v.to_vec(); order];
            let refs: Vec<&[f64]> = vels.iter().map(|x| x.as_slice()).collect();
            let mut out = [0.0];
            adams_bashforth(&u, &refs, 0.25, &mut out);
            assert!((out[0] - 5.5).abs() < 1e-13, "order {order}");
        }
    }

    #[test]
    fn state_grows_to_four_then_rolls() {
        let mut st = AdamsState::new();
        // the initial velocity, which no extrapolation reads
        let mut v = [-1.0];
        assert!(st.history(&v).is_empty());
        for k in 0..6 {
            st.record_past(&v);
            v = [k as f64];
        }
        assert_eq!(st.history(&v).len(), 4);
        // oldest remaining should be k=2
        let mut out = [0.0];
        // AB4 with velocities [2,3,4,5], u_prev = 0, dt = 24:
        // u = 24/24 * (-9*2 + 37*3 - 59*4 + 55*5) = 132
        assert!(st.predict(&[0.0], &v, 24.0, &mut out));
        assert!((out[0] - 132.0).abs() < 1e-10, "{}", out[0]);
    }

    #[test]
    fn empty_state_returns_u_prev() {
        let st = AdamsState::new();
        let mut out = [0.0; 2];
        assert!(!st.predict(&[7.0, 8.0], &[1.0, -1.0], 0.1, &mut out));
        assert_eq!(out, [7.0, 8.0]);
    }

    /// The past columns plus the current velocity give bitwise the guess
    /// of a history that keeps the newest 4 velocities itself, current one
    /// included: at orders 1–4, through the ring roll, and after a round
    /// trip through the checkpoint form.
    #[test]
    fn past_columns_and_current_velocity_match_a_four_column_history() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(43);
        let n = 17;
        let mut random = || -> Vec<f64> { (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect() };
        let (dt, u) = (0.0125, random());
        let mut v = random();
        let bits = |x: &[f64]| -> Vec<u64> { x.iter().map(|y| y.to_bits()).collect() };
        let (mut got, mut want) = (vec![0.0; n], vec![0.0; n]);
        let mut st = AdamsState::new();
        let mut four: std::collections::VecDeque<Vec<f64>> = Default::default();
        assert!(!st.predict(&u, &v, dt, &mut got));
        for step in 1..=10 {
            st.record_past(&v);
            v = random();
            four.push_back(v.clone());
            if four.len() > 4 {
                four.pop_front();
            }
            let refs: Vec<&[f64]> = four.iter().map(Vec::as_slice).collect();
            adams_bashforth(&u, &refs, dt, &mut want);
            assert!(st.predict(&u, &v, dt, &mut got));
            assert_eq!(bits(&got), bits(&want), "step {step}");
            assert_eq!(st.past_cols().count(), (step - 1).min(3), "step {step}");
            let hist = st.history(&v);
            assert_eq!(hist, Vec::from(four.clone()), "step {step}");
            let mut back = AdamsState::new();
            back.restore_history(hist);
            assert!(back.predict(&u, &v, dt, &mut got));
            assert_eq!(bits(&got), bits(&want), "restored, step {step}");
        }
    }
}
