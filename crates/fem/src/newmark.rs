//! Newmark-β time integration (average-acceleration / trapezoidal form,
//! β = 1/4, γ = 1/2), as used by the paper's Eq. (5)–(7).
//!
//! The dynamic equation `M ü + C u̇ + K u = f` discretized at step `it`
//! becomes the linear system
//!
//! `A u^it = f^it + M (c_m u^{it−1} + (4/dt) v^{it−1} + a^{it−1})
//!          + C (c_c u^{it−1} + v^{it−1})`
//!
//! with `A = c_m M + c_c C + K`, `c_m = 4/dt²`, `c_c = 2/dt`, followed by
//! the velocity/acceleration updates
//!
//! `v^it = c_c (u^it − u^{it−1}) − v^{it−1}`
//! `a^it = c_m (u^it − u^{it−1}) − (4/dt) v^{it−1} − a^{it−1}`.
//!
//! Note: the paper's printed Eq. (5)–(7) carry internally inconsistent
//! coefficients (see DESIGN.md); the form above is the standard consistent
//! trapezoidal rule and is verified against analytic oscillator solutions
//! in this module's tests.

/// Newmark coefficients for a fixed time step `dt`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Newmark {
    pub dt: f64,
    /// `c_m = 4/dt²` — coefficient of `M` in the system matrix.
    pub cm: f64,
    /// `c_c = 2/dt` — coefficient of `C` in the system matrix.
    pub cc: f64,
}

impl Newmark {
    pub fn new(dt: f64) -> Self {
        assert!(dt > 0.0, "time step must be positive");
        Newmark {
            dt,
            cm: 4.0 / (dt * dt),
            cc: 2.0 / dt,
        }
    }

    /// Fill the auxiliary vectors multiplied by `M` and `C` in the RHS:
    ///
    /// `m_aux = c_m u + (4/dt) v + a`, `c_aux = c_c u + v`.
    pub fn rhs_aux(&self, u: &[f64], v: &[f64], a: &[f64], m_aux: &mut [f64], c_aux: &mut [f64]) {
        for i in 0..u.len() {
            m_aux[i] = self.m_aux(u[i], v[i], a[i]);
            c_aux[i] = self.c_aux(u[i], v[i]);
        }
    }

    /// One entry of [`Self::rhs_aux`]'s `m_aux`: `c_m u + (4/dt) v + a`.
    #[inline]
    pub fn m_aux(&self, u: f64, v: f64, a: f64) -> f64 {
        self.cm * u + 4.0 / self.dt * v + a
    }

    /// One entry of [`Self::rhs_aux`]'s `c_aux`: `c_c u + v`.
    #[inline]
    pub fn c_aux(&self, u: f64, v: f64) -> f64 {
        self.cc * u + v
    }

    /// Advance velocity and acceleration in place after the new displacement
    /// `u_new` has been solved for. On entry `v`/`a` hold step `it−1`
    /// values; on exit they hold step `it` values.
    pub fn advance(&self, u_new: &[f64], u_old: &[f64], v: &mut [f64], a: &mut [f64]) {
        let k4dt = 4.0 / self.dt;
        for i in 0..u_new.len() {
            let du = u_new[i] - u_old[i];
            let v_old = v[i];
            v[i] = self.cc * du - v_old;
            a[i] = self.cm * du - k4dt * v_old - a[i];
        }
    }
}

/// Time-history state of one simulation case: displacement, velocity,
/// acceleration at the last completed step.
#[derive(Debug, Clone)]
pub struct TimeState {
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    pub a: Vec<f64>,
    /// Last completed step (0 = initial conditions).
    pub step: usize,
}

impl TimeState {
    /// Zero initial conditions for `n` DOFs.
    pub fn zeros(n: usize) -> Self {
        TimeState {
            u: vec![0.0; n],
            v: vec![0.0; n],
            a: vec![0.0; n],
            step: 0,
        }
    }

    pub fn n_dofs(&self) -> usize {
        self.u.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Integrate a single-DOF oscillator `m ü + c u̇ + k u = 0` starting from
    /// `(u0, v0)` with the Newmark recurrences, solving the scalar system
    /// exactly each step.
    fn integrate_sdof(m: f64, c: f64, k: f64, u0: f64, v0: f64, dt: f64, steps: usize) -> Vec<f64> {
        let nm = Newmark::new(dt);
        let a0 = -(c * v0 + k * u0) / m;
        let (mut u, mut v, mut a) = (vec![u0], vec![v0], vec![a0]);
        let mut out = vec![u0];
        for _ in 0..steps {
            let mut m_aux = vec![0.0];
            let mut c_aux = vec![0.0];
            nm.rhs_aux(&u, &v, &a, &mut m_aux, &mut c_aux);
            let rhs = m * m_aux[0] + c * c_aux[0];
            let a_sys = nm.cm * m + nm.cc * c + k;
            let u_new = vec![rhs / a_sys];
            nm.advance(&u_new, &u, &mut v, &mut a);
            u = u_new;
            out.push(u[0]);
        }
        out
    }

    #[test]
    fn undamped_oscillator_matches_cosine() {
        // u(t) = cos(w t) with w = sqrt(k/m)
        let (m, k) = (2.0, 8.0); // w = 2
        let dt = 0.001;
        let steps = 2000; // t_end = 2
        let us = integrate_sdof(m, 0.0, k, 1.0, 0.0, dt, steps);
        for (i, &u) in us.iter().enumerate().step_by(100) {
            let t = i as f64 * dt;
            let exact = (2.0 * t).cos();
            assert!((u - exact).abs() < 2e-4, "t={t}: {u} vs {exact}");
        }
    }

    #[test]
    fn damped_oscillator_matches_analytic() {
        // m=1, k=w^2 with w=4, c = 2 zeta w, zeta=0.1
        let (w, zeta) = (4.0, 0.1);
        let (m, c, k) = (1.0, 2.0 * zeta * w, w * w);
        let dt = 0.0005;
        let steps = 4000; // t = 2
        let us = integrate_sdof(m, c, k, 1.0, 0.0, dt, steps);
        let wd = w * (1.0 - zeta * zeta).sqrt();
        for (i, &u) in us.iter().enumerate().step_by(200) {
            let t = i as f64 * dt;
            let exact = (-zeta * w * t).exp() * ((wd * t).cos() + zeta * w / wd * (wd * t).sin());
            assert!((u - exact).abs() < 5e-4, "t={t}: {u} vs {exact}");
        }
    }

    #[test]
    fn undamped_energy_is_conserved() {
        // Average-acceleration Newmark conserves energy exactly for linear
        // undamped systems (within roundoff).
        let (m, k) = (1.0, 25.0);
        let nm = Newmark::new(0.01);
        let (mut u, mut v, mut a) = (vec![0.3], vec![1.7], vec![-(k * 0.3) / m]);
        let e0 = 0.5 * m * v[0] * v[0] + 0.5 * k * u[0] * u[0];
        for _ in 0..10_000 {
            let mut ma = vec![0.0];
            let mut ca = vec![0.0];
            nm.rhs_aux(&u, &v, &a, &mut ma, &mut ca);
            let u_new = vec![m * ma[0] / (nm.cm * m + k)];
            nm.advance(&u_new, &u, &mut v, &mut a);
            u = u_new;
        }
        let e1 = 0.5 * m * v[0] * v[0] + 0.5 * k * u[0] * u[0];
        assert!((e1 - e0).abs() < 1e-9 * e0, "energy drifted: {e0} -> {e1}");
    }

    #[test]
    fn second_order_convergence() {
        // Halving dt must reduce the final-time error by ~4x.
        let (m, k) = (1.0, 9.0);
        let t_end = 1.0;
        let err = |dt: f64| {
            let steps = (t_end / dt).round() as usize;
            let us = integrate_sdof(m, 0.0, k, 1.0, 0.0, dt, steps);
            (us[steps] - (3.0 * t_end).cos()).abs()
        };
        let e1 = err(0.01);
        let e2 = err(0.005);
        let rate = (e1 / e2).log2();
        assert!((rate - 2.0).abs() < 0.2, "convergence rate {rate}");
    }

    #[test]
    fn advance_identities() {
        // After advance: u_new - u_old == dt/2 (v_old + v_new) (trapezoid).
        let nm = Newmark::new(0.02);
        let u_old = vec![1.0, -2.0, 0.5];
        let u_new = vec![1.1, -1.8, 0.6];
        let v_old = vec![0.3, 0.1, -0.2];
        let a_old = vec![0.05, -0.03, 0.2];
        let mut v = v_old.clone();
        let mut a = a_old.clone();
        nm.advance(&u_new, &u_old, &mut v, &mut a);
        for i in 0..3 {
            let lhs = u_new[i] - u_old[i];
            let rhs = 0.5 * nm.dt * (v_old[i] + v[i]);
            assert!((lhs - rhs).abs() < 1e-14);
            // v_new - v_old == dt/2 (a_old + a_new)
            let lhs2 = v[i] - v_old[i];
            let rhs2 = 0.5 * nm.dt * (a_old[i] + a[i]);
            assert!((lhs2 - rhs2).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_state() {
        let st = TimeState::zeros(12);
        assert_eq!(st.n_dofs(), 12);
        assert_eq!(st.step, 0);
        assert!(st.u.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_dt() {
        Newmark::new(0.0);
    }
}
