//! Property-based tests of the predictor substrate.

use hetsolve_predictor::{adams_bashforth, mgs_qr, AdaptiveWindow, DataDrivenPredictor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MGS produces orthonormal columns for any full-rank-ish input.
    #[test]
    fn mgs_orthonormal(
        m in 4usize..40,
        s in 1usize..6,
        seed in any::<u64>(),
    ) {
        let s = s.min(m);
        let mut st = seed | 1;
        let mut next = move || {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((st >> 33) % 100_000) as f64 / 50_000.0 - 1.0
        };
        let x: Vec<f64> = (0..m * s).map(|_| next()).collect();
        let qr = mgs_qr(&x, m, s, 1e-10);
        for i in 0..qr.rank() {
            for j in 0..=i {
                let qi = &qr.q[i * m..(i + 1) * m];
                let qj = &qr.q[j * m..(j + 1) * m];
                let d: f64 = qi.iter().zip(qj).map(|(a, b)| a * b).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((d - expect).abs() < 1e-8, "({i},{j}) = {d}");
            }
        }
    }

    /// QR reconstructs the kept columns: X[:,k] = Q R[:,k].
    #[test]
    fn mgs_reconstructs(
        m in 4usize..30,
        seed in any::<u64>(),
    ) {
        let s = 4.min(m);
        let mut st = seed | 1;
        let mut next = move || {
            st = st.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            ((st >> 33) % 100_000) as f64 / 50_000.0 - 1.0
        };
        let x: Vec<f64> = (0..m * s).map(|_| next()).collect();
        let qr = mgs_qr(&x, m, s, 1e-10);
        if qr.rank() < s {
            // rank-deficient random input is vanishingly unlikely but legal
            return Ok(());
        }
        for j in 0..s {
            for row in 0..m {
                let mut acc = 0.0;
                for (qi, &k) in qr.kept.iter().enumerate() {
                    acc += qr.q[qi * m + row] * qr.r[k * s + j];
                }
                prop_assert!((acc - x[j * m + row]).abs() < 1e-8);
            }
        }
    }

    /// Scaling invariance: predicting from a scaled history scales the
    /// prediction (the map Y U Uᵀ Xᵀ is linear and scale-consistent).
    #[test]
    fn predictor_is_scale_equivariant(
        scale in 0.1f64..10.0,
        seed in any::<u64>(),
    ) {
        let n = 24;
        let steps = 10;
        let mut st = seed | 1;
        let mut next = move || {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(99991);
            ((st >> 33) % 100_000) as f64 / 50_000.0 - 1.0
        };
        let history: Vec<Vec<f64>> = (0..steps)
            .map(|_| (0..n).map(|_| next()).collect())
            .collect();
        let mut p1 = DataDrivenPredictor::new(n, 12, 8);
        let mut p2 = DataDrivenPredictor::new(n, 12, 8);
        for h in &history {
            p1.record(h);
            let hs: Vec<f64> = h.iter().map(|v| v * scale).collect();
            p2.record(&hs);
        }
        let mut o1 = vec![0.0; n];
        let mut o2 = vec![0.0; n];
        prop_assert!(p1.predict(6, &mut o1));
        prop_assert!(p2.predict(6, &mut o2));
        let mag = o1.iter().map(|v| v.abs()).fold(0.0f64, f64::max).max(1e-12);
        for i in 0..n {
            prop_assert!((o2[i] - scale * o1[i]).abs() < 1e-6 * scale * mag,
                "dof {i}: {} vs {}", o2[i], scale * o1[i]);
        }
    }

    /// Adams-Bashforth is exact on linear-in-time trajectories for every
    /// order (consistency), with arbitrary dt and slope.
    #[test]
    fn adams_exact_on_linear_motion(
        dt in 1e-4f64..1.0,
        slope in -10.0f64..10.0,
        order in 1usize..5,
    ) {
        let u = [slope * 3.0];
        let v = [slope];
        let vels = vec![v.to_vec(); order];
        let refs: Vec<&[f64]> = vels.iter().map(|x| x.as_slice()).collect();
        let mut out = [0.0];
        adams_bashforth(&u, &refs, dt, &mut out);
        prop_assert!((out[0] - (u[0] + slope * dt)).abs() < 1e-9 * (1.0 + u[0].abs()));
    }

    /// The adaptive controller always stays within its bounds, and within
    /// the reach of the window it decides from, whatever the observed
    /// timings.
    #[test]
    fn adaptive_window_respects_bounds(
        observations in proptest::collection::vec((1e-6f64..1.0, 1e-6f64..1.0), 1..60),
        cap in 2usize..64,
    ) {
        let mut ctl = AdaptiveWindow::new(1, cap);
        let mut s = ctl.current();
        for (pred_t, solver_t) in observations {
            let reach = ctl.reach();
            s = ctl.observe(s, pred_t, solver_t);
            prop_assert!((1..=cap).contains(&s), "s = {s} outside [1, {cap}]");
            prop_assert!(s <= reach, "s = {s} past the reach {reach}");
        }
    }
}
