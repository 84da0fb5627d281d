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

/// Convenience wrapper owning a bounded velocity history.
#[derive(Debug, Clone, Default)]
pub struct AdamsState {
    hist: std::collections::VecDeque<Vec<f64>>,
}

impl AdamsState {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the velocity of the step just completed.
    pub fn push(&mut self, v: &[f64]) {
        if self.hist.len() == 4 {
            // reuse the evicted buffer to avoid reallocation
            let mut old = self.hist.pop_front().expect("len checked");
            old.copy_from_slice(v);
            self.hist.push_back(old);
        } else {
            self.hist.push_back(v.to_vec());
        }
    }

    /// Snapshot the velocity history (oldest first) for a checkpoint.
    pub fn history(&self) -> Vec<Vec<f64>> {
        self.hist.iter().cloned().collect()
    }

    /// Borrowing view of the stored history columns (oldest first) —
    /// checksum and scrub passes walk these without cloning.
    pub fn history_cols(&self) -> impl Iterator<Item = &[f64]> {
        self.hist.iter().map(|v| v.as_slice())
    }

    /// Restore a history snapshot taken by [`AdamsState::history`]
    /// (oldest first); only the newest 4 entries are kept.
    pub fn restore_history(&mut self, hist: Vec<Vec<f64>>) {
        self.hist.clear();
        for v in hist {
            self.hist.push_back(v);
        }
        while self.hist.len() > 4 {
            self.hist.pop_front();
        }
    }

    /// Predict the next displacement; returns `false` (leaving `out = u_prev`)
    /// when no history exists yet.
    pub fn predict(&self, u_prev: &[f64], dt: f64, out: &mut [f64]) -> bool {
        if self.hist.is_empty() {
            out.copy_from_slice(u_prev);
            return false;
        }
        let mut refs: [&[f64]; 4] = [&[]; 4];
        for (r, v) in refs.iter_mut().zip(&self.hist) {
            *r = v;
        }
        adams_bashforth(u_prev, &refs[..self.hist.len()], dt, out);
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
        assert!(st.history().is_empty());
        for k in 0..6 {
            st.push(&[k as f64]);
        }
        assert_eq!(st.history().len(), 4);
        // oldest remaining should be k=2
        let mut out = [0.0];
        // AB4 with velocities [2,3,4,5], u_prev = 0, dt = 24:
        // u = 24/24 * (-9*2 + 37*3 - 59*4 + 55*5) = 132
        assert!(st.predict(&[0.0], 24.0, &mut out));
        assert!((out[0] - 132.0).abs() < 1e-10, "{}", out[0]);
    }

    #[test]
    fn empty_state_returns_u_prev() {
        let st = AdamsState::new();
        let mut out = [0.0; 2];
        assert!(!st.predict(&[7.0, 8.0], 0.1, &mut out));
        assert_eq!(out, [7.0, 8.0]);
    }
}
