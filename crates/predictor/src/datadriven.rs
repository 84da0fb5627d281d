//! The data-driven initial-guess predictor of the paper (§3.2), following
//! its reference [6] (and [7] = dynamic mode decomposition):
//!
//! * The Adams-Bashforth extrapolation estimates the low-order modes well
//!   but misses higher-order content; the data-driven stage predicts the
//!   *correction* `δ^it = u^it − ū_adams^it` on top of it.
//! * The domain is split into small regions; in each region the correction
//!   snapshots of the past `s` steps are orthonormalized by modified
//!   Gram-Schmidt and the map from `δ^{k−1}` to `δ^k` is applied to the
//!   latest known correction: with `X = [δ^{it−s−1} … δ^{it−2}]`,
//!   `Y = [δ^{it−s} … δ^{it−1}]`, `X = QR`, the prediction is
//!   `δ̄^it = Y R⁻¹ Qᵀ δ^{it−1}` (the paper's `y = Y U Uᵀ Xᵀ x` with
//!   `U = R⁻¹`).
//! * No communication between regions is needed, which is what makes the
//!   predictor embarrassingly parallel across CPU cores and compute nodes.

use std::collections::VecDeque;

use hetsolve_sparse::KernelCounts;

/// Snapshot store + per-region prediction.
#[derive(Debug, Clone)]
pub struct DataDrivenPredictor {
    n_dofs: usize,
    /// DOFs per region (last region may be smaller).
    region_dofs: usize,
    /// Maximum snapshots retained (`s_max + 1` corrections).
    s_max: usize,
    /// Correction history, oldest front, newest back.
    history: VecDeque<Vec<f64>>,
    /// MGS drop tolerance.
    tol: f64,
}

impl DataDrivenPredictor {
    /// `region_dofs` controls the region decomposition (a multiple of 3 keeps
    /// nodes whole; the default in the paper-style runs is a few hundred).
    pub fn new(n_dofs: usize, region_dofs: usize, s_max: usize) -> Self {
        assert!(region_dofs >= 3 && s_max >= 1);
        DataDrivenPredictor {
            n_dofs,
            region_dofs,
            s_max,
            history: VecDeque::with_capacity(s_max + 1),
            tol: 1e-10,
        }
    }

    /// Record the correction of the step just solved
    /// (`δ = u_true − ū_adams`).
    ///
    /// A non-finite correction (poisoned snapshot) is rejected and the whole
    /// history is dropped: every stored column would otherwise keep pairing
    /// with the poisoned one in future X/Y windows, so the basis is rebuilt
    /// from scratch. Returns `false` when that reset happened.
    pub fn record(&mut self, delta: &[f64]) -> bool {
        assert_eq!(delta.len(), self.n_dofs);
        if delta.iter().any(|v| !v.is_finite()) {
            self.history.clear();
            return false;
        }
        if self.history.len() == self.s_max + 1 {
            let mut old = self.history.pop_front().expect("len checked");
            old.copy_from_slice(delta);
            self.history.push_back(old);
        } else {
            self.history.push_back(delta.to_vec());
        }
        true
    }

    /// Snapshot the correction history (oldest first) for a checkpoint.
    pub fn history(&self) -> Vec<Vec<f64>> {
        self.history.iter().cloned().collect()
    }

    /// Borrowing view of the stored correction columns (oldest first) —
    /// checksum and scrub passes walk these without cloning.
    pub fn history_cols(&self) -> impl Iterator<Item = &[f64]> {
        self.history.iter().map(|v| v.as_slice())
    }

    /// Mutable access to stored column `idx` (oldest first) — the fault
    /// layer's basis-corruption hook. Returns `None` when out of range.
    pub fn column_mut(&mut self, idx: usize) -> Option<&mut [f64]> {
        self.history.get_mut(idx).map(|v| v.as_mut_slice())
    }

    /// Restore a history snapshot taken by
    /// [`DataDrivenPredictor::history`] (oldest first). Columns must be
    /// `n_dofs` long; only the newest `s_max + 1` are kept.
    pub fn restore_history(&mut self, hist: Vec<Vec<f64>>) {
        self.history.clear();
        for v in hist {
            assert_eq!(v.len(), self.n_dofs, "restored column has wrong length");
            self.history.push_back(v);
        }
        while self.history.len() > self.s_max + 1 {
            self.history.pop_front();
        }
    }

    /// Largest usable window with the current history (needs `s+1` stored
    /// corrections).
    pub fn available_s(&self) -> usize {
        self.history.len().saturating_sub(1)
    }

    /// Number of regions.
    pub fn n_regions(&self) -> usize {
        self.n_dofs.div_ceil(self.region_dofs)
    }

    /// Bytes held by the snapshot history — the CPU-memory footprint that
    /// limits `s` (the paper stores 32 steps in 480 GB but only 11 in
    /// 128 GB).
    pub fn memory_bytes(&self) -> usize {
        self.history.len() * self.n_dofs * std::mem::size_of::<f64>()
    }

    /// Memory needed for window `s` at `n_dofs` unknowns (static helper for
    /// capacity planning before any data exists).
    pub fn bytes_for(n_dofs: usize, s: usize) -> usize {
        (s + 1) * n_dofs * 8
    }

    /// Predict the next correction `δ̄^it` into `out` using window `s`.
    /// Returns `false` (and zeroes `out`) when the history is too short.
    pub fn predict(&self, s: usize, out: &mut [f64]) -> bool {
        assert_eq!(out.len(), self.n_dofs);
        let s = s.min(self.s_max);
        if s < 1 || self.history.len() < s + 1 {
            out.fill(0.0);
            return false;
        }
        let h = &self.history;
        let len = h.len();
        // columns: X_i = h[len-1-s+i], Y_i = h[len-s+i], input = h[len-1]
        let rdofs = self.region_dofs;
        // one region per pool chunk: regions share nothing but the history
        hetsolve_pool::for_each_mut([(out, rdofs)], |reg, [out_r]| {
            let lo = reg * rdofs;
            let m = out_r.len();
            // local snapshot matrices, column-major
            let mut x = vec![0.0; m * s];
            let mut y = vec![0.0; m * s];
            for i in 0..s {
                x[i * m..(i + 1) * m].copy_from_slice(&h[len - 1 - s + i][lo..lo + m]);
                y[i * m..(i + 1) * m].copy_from_slice(&h[len - s + i][lo..lo + m]);
            }
            let qr = crate::mgs::mgs_qr(&x, m, s, self.tol);
            if qr.rank() == 0 {
                out_r.fill(0.0);
                return;
            }
            let input = &h[len - 1][lo..lo + m];
            let mut c = vec![0.0; qr.rank()];
            qr.project(input, &mut c);
            let mut w = vec![0.0; s];
            qr.back_substitute(&c, &mut w);
            out_r.fill(0.0);
            for i in 0..s {
                if w[i] != 0.0 {
                    let ycol = &y[i * m..(i + 1) * m];
                    for (o, yv) in out_r.iter_mut().zip(ycol) {
                        *o += w[i] * yv;
                    }
                }
            }
        });
        true
    }

    /// Hardware-independent cost of `predict(s)`: MGS (`≈ 2 m s²` per
    /// region) + projection/synthesis (`≈ 4 m s`), summed over regions, all
    /// streaming access.
    pub fn cost(&self, s: usize) -> KernelCounts {
        let n = self.n_dofs as f64;
        let sf = s as f64;
        KernelCounts {
            flops: n * (2.0 * sf * sf + 6.0 * sf),
            // X and Y snapshots streamed once each + in/out vectors
            bytes_stream: n * 8.0 * (2.0 * sf + 3.0),
            bytes_rand: 0.0,
            rand_transactions: 0.0,
            rhs_fused: 1,
        }
    }

    /// Reset the stored history (e.g. between ensemble cases).
    pub fn clear(&mut self) {
        self.history.clear();
    }

    /// Invariant sentinel: factor the newest window-`s` snapshot matrix of
    /// every region (exactly as [`DataDrivenPredictor::predict`] would)
    /// and return the worst per-region
    /// [orthogonality defect](crate::mgs::MgsQr::orthogonality_defect).
    /// Any non-finite entry in the window (including the input column)
    /// reports as `f64::INFINITY` — `mgs_qr` would silently drop such a
    /// column and degrade rank, which is exactly the silent failure the
    /// sentinel exists to surface. Bit flips that leave the history
    /// finite are the state-guard checksum's to catch: MGS re-orthonorms
    /// whatever it is given, so the defect cannot see them. `None` when
    /// the history is too short for window `s`. Read-only — the predictor
    /// state and any later prediction are untouched.
    pub fn basis_defect(&self, s: usize) -> Option<f64> {
        let s = s.min(self.s_max);
        if s < 1 || self.history.len() < s + 1 {
            return None;
        }
        let h = &self.history;
        let len = h.len();
        // window columns len-1-s .. len-1 (X plus the input column)
        for i in 0..=s {
            if h[len - 1 - s + i].iter().any(|v| !v.is_finite()) {
                return Some(f64::INFINITY);
            }
        }
        let rdofs = self.region_dofs;
        let mut worst = 0.0f64;
        for reg in 0..self.n_regions() {
            let lo = reg * rdofs;
            let m = rdofs.min(self.n_dofs - lo);
            let mut x = vec![0.0; m * s];
            for i in 0..s {
                x[i * m..(i + 1) * m].copy_from_slice(&h[len - 1 - s + i][lo..lo + m]);
            }
            let qr = crate::mgs::mgs_qr(&x, m, s, self.tol);
            worst = worst.max(qr.orthogonality_defect());
            if !worst.is_finite() {
                break;
            }
        }
        Some(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic correction sequence evolving under an exact one-step linear
    /// map: each oscillatory mode carries both quadrature components,
    /// δ^k = Σ_j [cos(ω_j k) p_j + sin(ω_j k) q_j], so
    /// δ^{k+1} = A δ^k with A rotating every (p_j, q_j) plane — the setting
    /// where the paper's `Y U Uᵀ Xᵀ` predictor is exact once the window
    /// spans the 2·modes-dimensional trajectory space.
    fn modal_sequence(n: usize, steps: usize, modes: usize) -> Vec<Vec<f64>> {
        let mut pq = Vec::new();
        for j in 0..modes {
            let p: Vec<f64> = (0..n)
                .map(|i| ((i * (j + 2)) as f64 * 0.7).sin() + 0.1 * j as f64)
                .collect();
            let q: Vec<f64> = (0..n)
                .map(|i| ((i * (2 * j + 3)) as f64 * 0.41).cos())
                .collect();
            pq.push((p, q));
        }
        (0..steps)
            .map(|k| {
                let mut d = vec![0.0; n];
                for (j, (p, q)) in pq.iter().enumerate() {
                    let w = 0.12 + 0.07 * j as f64;
                    let amp = 1.0 + 0.5 * j as f64;
                    let (c, s) = ((w * k as f64).cos(), (w * k as f64).sin());
                    for i in 0..n {
                        d[i] += amp * (c * p[i] + s * q[i]);
                    }
                }
                d
            })
            .collect()
    }

    fn rel_err(a: &[f64], b: &[f64]) -> f64 {
        let num: f64 = a
            .iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt();
        let den: f64 = b.iter().map(|y| y * y).sum::<f64>().sqrt();
        num / den.max(1e-300)
    }

    #[test]
    fn predicts_low_dimensional_dynamics_near_exactly() {
        // 2 oscillatory modes live in a 4-dimensional (delay) subspace;
        // s = 8 windows must capture them almost exactly.
        let n = 90;
        let seq = modal_sequence(n, 20, 2);
        let mut p = DataDrivenPredictor::new(n, 45, 16);
        for d in &seq[..19] {
            p.record(d);
        }
        let mut pred = vec![0.0; n];
        assert!(p.predict(8, &mut pred));
        let e = rel_err(&pred, &seq[19]);
        assert!(e < 1e-6, "prediction error {e}");
    }

    #[test]
    fn larger_window_improves_prediction() {
        // 6 modes: a window of 4 cannot capture them, 12 nearly can.
        let n = 120;
        let seq = modal_sequence(n, 40, 6);
        let mut p = DataDrivenPredictor::new(n, 60, 32);
        for d in &seq[..39] {
            p.record(d);
        }
        let mut pred_small = vec![0.0; n];
        let mut pred_large = vec![0.0; n];
        assert!(p.predict(4, &mut pred_small));
        assert!(p.predict(16, &mut pred_large));
        let es = rel_err(&pred_small, &seq[39]);
        let el = rel_err(&pred_large, &seq[39]);
        assert!(el < es, "s=16 error {el} not below s=4 error {es}");
        assert!(el < 1e-5, "s=16 error {el}");
    }

    #[test]
    fn too_little_history_returns_false() {
        let mut p = DataDrivenPredictor::new(30, 30, 8);
        let mut out = vec![1.0; 30];
        assert!(!p.predict(4, &mut out));
        assert!(out.iter().all(|&v| v == 0.0));
        p.record(&vec![1.0; 30]);
        assert!(!p.predict(1, &mut out)); // needs 2 snapshots for s=1
        assert_eq!(p.available_s(), 0);
    }

    #[test]
    fn history_is_bounded() {
        let n = 12;
        let mut p = DataDrivenPredictor::new(n, 12, 4);
        for k in 0..20 {
            p.record(&vec![k as f64; n]);
        }
        assert_eq!(p.available_s(), 4);
        assert_eq!(p.memory_bytes(), 5 * n * 8);
        assert_eq!(DataDrivenPredictor::bytes_for(n, 4), 5 * n * 8);
    }

    #[test]
    fn constant_sequence_is_fixed_point() {
        // δ^k = const: prediction must return the same constant.
        let n = 24;
        let c: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos() + 2.0).collect();
        let mut p = DataDrivenPredictor::new(n, 9, 8);
        for _ in 0..6 {
            p.record(&c);
        }
        let mut out = vec![0.0; n];
        assert!(p.predict(5, &mut out));
        // rank-deficient (all columns equal): MGS keeps one column and the
        // map reproduces the constant.
        let e = rel_err(&out, &c);
        assert!(e < 1e-9, "error {e}");
    }

    #[test]
    fn regions_do_not_interact() {
        // two regions with independent dynamics must each be predicted from
        // their own data: compare against two independent predictors.
        let n = 60;
        let seq_a = modal_sequence(30, 12, 1);
        let seq_b: Vec<Vec<f64>> = modal_sequence(30, 12, 2)
            .into_iter()
            .map(|v| v.into_iter().map(|x| 3.0 * x).collect())
            .collect();
        let mut joint = DataDrivenPredictor::new(n, 30, 8);
        let mut pa = DataDrivenPredictor::new(30, 30, 8);
        let mut pb = DataDrivenPredictor::new(30, 30, 8);
        for k in 0..11 {
            let mut d = seq_a[k].clone();
            d.extend(&seq_b[k]);
            joint.record(&d);
            pa.record(&seq_a[k]);
            pb.record(&seq_b[k]);
        }
        let mut out = vec![0.0; n];
        let mut oa = vec![0.0; 30];
        let mut ob = vec![0.0; 30];
        assert!(joint.predict(6, &mut out));
        assert!(pa.predict(6, &mut oa));
        assert!(pb.predict(6, &mut ob));
        for i in 0..30 {
            assert!((out[i] - oa[i]).abs() < 1e-10);
            assert!((out[30 + i] - ob[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn cost_scales_with_window() {
        let p = DataDrivenPredictor::new(1000, 100, 32);
        let c8 = p.cost(8);
        let c32 = p.cost(32);
        assert!(c32.flops > c8.flops * 4.0); // quadratic in s
        assert!(c32.bytes_stream > c8.bytes_stream);
    }

    #[test]
    fn clear_resets_history() {
        let mut p = DataDrivenPredictor::new(10, 10, 4);
        p.record(&[1.0; 10]);
        p.record(&[2.0; 10]);
        assert_eq!(p.available_s(), 1);
        p.clear();
        assert_eq!(p.available_s(), 0);
    }

    #[test]
    fn basis_defect_sentinel_flags_corruption_only() {
        let n = 90;
        let seq = modal_sequence(n, 20, 2);
        let mut p = DataDrivenPredictor::new(n, 45, 16);
        for d in &seq[..19] {
            p.record(d);
        }
        assert!(p.basis_defect(64).is_some(), "window clamps to s_max");
        let clean = p.basis_defect(8).expect("enough history");
        assert!(clean < 1e-10, "clean defect {clean}");
        // sentinel is read-only: prediction after the check is unchanged
        let mut before = vec![0.0; n];
        assert!(p.predict(8, &mut before));
        p.basis_defect(8);
        let mut after = vec![0.0; n];
        assert!(p.predict(8, &mut after));
        for (a, b) in after.iter().zip(&before) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // a non-finite entry in the window surfaces as an infinite defect
        // (mgs_qr alone would silently drop the column and degrade rank)
        let newest = p.available_s(); // history holds available_s()+1 columns
        let col = p.column_mut(newest).expect("in range");
        col[7] = f64::NAN;
        let bad = p.basis_defect(8).expect("enough history");
        assert!(bad.is_infinite(), "corrupt defect {bad}");
        assert!(p.column_mut(99).is_none());
        // too little history -> None, not a bogus 0
        let q = DataDrivenPredictor::new(12, 12, 4);
        assert!(q.basis_defect(2).is_none());
    }

    #[test]
    fn poisoned_snapshot_resets_history() {
        let n = 10;
        let mut p = DataDrivenPredictor::new(n, 10, 4);
        assert!(p.record(&[1.0; 10]));
        assert!(p.record(&[2.0; 10]));
        assert_eq!(p.available_s(), 1);
        let mut bad = vec![3.0; n];
        bad[7] = f64::NAN;
        assert!(!p.record(&bad), "NaN snapshot must be rejected");
        assert_eq!(p.available_s(), 0, "history rebuilt from scratch");
        // the predictor recovers once clean snapshots accumulate again
        assert!(p.record(&[4.0; 10]));
        assert!(p.record(&[5.0; 10]));
        let mut out = vec![0.0; n];
        assert!(p.predict(1, &mut out));
        assert!(out.iter().all(|v| v.is_finite()));
    }
}
