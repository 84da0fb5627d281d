//! Modified Gram-Schmidt orthogonalization — the core kernel of the paper's
//! data-driven predictor ("using the modified Gram Schmidt method, we
//! compute an s×s upper triangle matrix U such that P = X U becomes an
//! orthonormal basis").
//!
//! We compute the equivalent QR form `X = Q R` (so `U = R⁻¹`); prediction
//! then needs only a back-substitution instead of a matrix inverse.

/// QR factorization of `s` column vectors by modified Gram-Schmidt with
/// rank monitoring.
#[derive(Debug, Clone, Default)]
pub struct MgsQr {
    /// Orthonormal columns, flat column-major (`q[col * m + row]`), one per
    /// *accepted* column.
    pub q: Vec<f64>,
    /// Upper-triangular factor, row-major `s×s` over the original columns.
    pub r: Vec<f64>,
    /// Rows (vector length).
    pub m: usize,
    /// Original column count.
    pub s: usize,
    /// Accepted (numerically independent) columns, in input order.
    pub kept: Vec<usize>,
}

/// Factor the columns `x[col * m .. (col+1) * m]`. Columns whose residual
/// norm after projection falls below `tol * ‖col‖` are dropped (rank
/// deficiency), which keeps the predictor stable when the time history has
/// nearly linearly dependent snapshots.
pub fn mgs_qr(x: &[f64], m: usize, s: usize, tol: f64) -> MgsQr {
    assert_eq!(x.len(), m * s, "expected {s} columns of length {m}");
    let mut qr = MgsQr::default();
    qr.factor(|j| &x[j * m..(j + 1) * m], m, s, tol, &mut vec![0.0; m]);
    qr
}

impl MgsQr {
    /// [`mgs_qr`] of the columns `col(0) … col(s − 1)` (each `m` long),
    /// wherever they live and whether stored as `f64` or `f32`, into this
    /// factor's storage; `work` (`m` long) holds the running residual, into
    /// which each column is widened exactly as it is copied. The same
    /// operations in the same order as [`mgs_qr`] on a contiguous `f64`
    /// copy, so the same bits; no allocation once the storage has held an
    /// `m × s` factor.
    pub(crate) fn factor<'a, T: Copy + Into<f64> + 'a>(
        &mut self,
        col: impl Fn(usize) -> &'a [T],
        m: usize,
        s: usize,
        tol: f64,
        work: &mut [f64],
    ) {
        let MgsQr { q, r, kept, .. } = self;
        (self.m, self.s) = (m, s);
        q.clear();
        q.reserve(m * s);
        r.clear();
        r.resize(s * s, 0.0);
        kept.clear();
        kept.reserve(s);

        for j in 0..s {
            let src = col(j);
            assert_eq!(src.len(), work.len(), "column {j} is not {m} long");
            for (w, &v) in work.iter_mut().zip(src) {
                *w = v.into();
            }
            let orig_norm = work.iter().map(|v| v * v).sum::<f64>().sqrt();
            if !orig_norm.is_finite() {
                // poisoned snapshot (NaN/Inf entries): reject before the
                // projection loop so no NaN coefficient is ever written
                // into R.
                continue;
            }
            // project out previously accepted directions (modified GS: use
            // the running residual, not the original column)
            for (qi, &kcol) in kept.iter().enumerate() {
                let qcol = &q[qi * m..(qi + 1) * m];
                let proj: f64 = qcol.iter().zip(&*work).map(|(a, b)| a * b).sum();
                r[kcol * s + j] = proj;
                for (w, qv) in work.iter_mut().zip(qcol) {
                    *w -= proj * qv;
                }
            }
            let norm = work.iter().map(|v| v * v).sum::<f64>().sqrt();
            if !norm.is_finite() {
                // NaN residual norm would pass both comparisons below (NaN
                // comparisons are false) and admit a garbage direction
                // into Q.
                continue;
            }
            if norm <= tol * orig_norm.max(f64::MIN_POSITIVE) || norm == 0.0 {
                // dependent column: drop (its R row stays zero on the
                // diagonal)
                continue;
            }
            r[j * s + j] = norm;
            let inv = 1.0 / norm;
            q.extend(work.iter().map(|v| v * inv));
            kept.push(j);
        }
    }

    /// Effective rank.
    pub fn rank(&self) -> usize {
        self.kept.len()
    }

    /// Orthogonality defect of the computed basis:
    /// `max_{i≤j} |⟨q_i, q_j⟩ − δ_ij|`. MGS leaves this at a few ulps for
    /// well-conditioned inputs, so a defect far above machine precision is
    /// the invariant-sentinel signature of a corrupted basis (a bit flip
    /// in Q, or state corruption upstream of the factorization). `0.0`
    /// for rank 0. Read-only: never perturbs the factorization.
    pub(crate) fn orthogonality_defect(&self) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.rank() {
            let qi = &self.q[i * self.m..(i + 1) * self.m];
            for j in i..self.rank() {
                let qj = &self.q[j * self.m..(j + 1) * self.m];
                let d: f64 = qi.iter().zip(qj).map(|(a, b)| a * b).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                let defect = (d - expect).abs();
                if !defect.is_finite() {
                    return f64::INFINITY;
                }
                worst = worst.max(defect);
            }
        }
        worst
    }

    /// `c = Qᵀ v` (projection coefficients onto the orthonormal basis).
    pub(crate) fn project(&self, v: &[f64], c: &mut [f64]) {
        debug_assert_eq!(v.len(), self.m);
        debug_assert_eq!(c.len(), self.rank());
        for (qi, ci) in c.iter_mut().enumerate() {
            let qcol = &self.q[qi * self.m..(qi + 1) * self.m];
            *ci = qcol.iter().zip(v).map(|(a, b)| a * b).sum();
        }
    }

    /// Solve `R w = c` over the kept columns (back substitution). `w` has
    /// one entry per original column; dropped columns get weight 0.
    pub(crate) fn back_substitute(&self, c: &[f64], w: &mut [f64]) {
        debug_assert_eq!(c.len(), self.rank());
        debug_assert_eq!(w.len(), self.s);
        w.fill(0.0);
        for qi in (0..self.rank()).rev() {
            let kcol = self.kept[qi];
            let mut acc = c[qi];
            for (qj, &kcol2) in self.kept.iter().enumerate().skip(qi + 1) {
                let _ = qj;
                acc -= self.r[kcol * self.s + kcol2] * w[kcol2];
            }
            w[kcol] = acc / self.r[kcol * self.s + kcol];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_rand(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) % 100_000) as f64 / 50_000.0 - 1.0
            })
            .collect()
    }

    #[test]
    fn q_columns_orthonormal() {
        let (m, s) = (40, 6);
        let x = det_rand(m * s, 3);
        let qr = mgs_qr(&x, m, s, 1e-12);
        assert_eq!(qr.rank(), s);
        for i in 0..s {
            for j in 0..=i {
                let qi = &qr.q[i * m..(i + 1) * m];
                let qj = &qr.q[j * m..(j + 1) * m];
                let d: f64 = qi.iter().zip(qj).map(|(a, b)| a * b).sum();
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((d - expect).abs() < 1e-10, "({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn qr_reconstructs_x() {
        let (m, s) = (25, 5);
        let x = det_rand(m * s, 11);
        let qr = mgs_qr(&x, m, s, 1e-12);
        // X[:,j] = sum_i Q[:,i] R[kept[i], j]
        for j in 0..s {
            for row in 0..m {
                let mut acc = 0.0;
                for (qi, &kcol) in qr.kept.iter().enumerate() {
                    acc += qr.q[qi * m + row] * qr.r[kcol * s + j];
                }
                assert!((acc - x[j * m + row]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn dependent_columns_are_dropped() {
        let m = 10;
        let a = det_rand(m, 5);
        let b = det_rand(m, 9);
        // columns: a, b, 2a - 3b (dependent), b
        let mut x = Vec::new();
        x.extend(&a);
        x.extend(&b);
        x.extend(a.iter().zip(&b).map(|(x, y)| 2.0 * x - 3.0 * y));
        x.extend(&b);
        let qr = mgs_qr(&x, m, 4, 1e-10);
        assert_eq!(qr.rank(), 2);
        assert_eq!(qr.kept, vec![0, 1]);
    }

    #[test]
    fn project_and_back_substitute_reproduce_in_span() {
        let (m, s) = (30, 4);
        let x = det_rand(m * s, 17);
        let qr = mgs_qr(&x, m, s, 1e-12);
        // v = X w_true; recover w via R w = Q^T v
        let w_true = [0.3, -1.2, 0.7, 2.0];
        let mut v = vec![0.0; m];
        for j in 0..s {
            for row in 0..m {
                v[row] += x[j * m + row] * w_true[j];
            }
        }
        let mut c = vec![0.0; qr.rank()];
        qr.project(&v, &mut c);
        let mut w = vec![0.0; s];
        qr.back_substitute(&c, &mut w);
        for j in 0..s {
            assert!((w[j] - w_true[j]).abs() < 1e-9, "{:?}", w);
        }
    }

    #[test]
    fn zero_matrix_has_rank_zero() {
        let qr = mgs_qr(&[0.0; 20], 10, 2, 1e-12);
        assert_eq!(qr.rank(), 0);
        assert_eq!(qr.orthogonality_defect(), 0.0);
    }

    #[test]
    fn orthogonality_defect_near_machine_precision_for_clean_basis() {
        let (m, s) = (40, 6);
        let x = det_rand(m * s, 3);
        let qr = mgs_qr(&x, m, s, 1e-12);
        assert!(qr.orthogonality_defect() < 1e-12);
    }

    #[test]
    fn corrupted_basis_column_raises_defect() {
        let (m, s) = (40, 6);
        let x = det_rand(m * s, 3);
        let mut qr = mgs_qr(&x, m, s, 1e-12);
        // flip a high mantissa/exponent bit of one Q entry — the SDC model
        qr.q[2 * m + 5] = f64::from_bits(qr.q[2 * m + 5].to_bits() ^ (1u64 << 60));
        assert!(
            qr.orthogonality_defect() > 1e-6,
            "defect {}",
            qr.orthogonality_defect()
        );
        // a NaN in Q surfaces as an infinite defect, not a silent pass
        qr.q[0] = f64::NAN;
        assert!(qr.orthogonality_defect().is_infinite());
    }

    #[test]
    fn duplicate_snapshots_keep_only_one_direction() {
        // degenerate history: the same snapshot recorded repeatedly (a
        // stalled signal) must collapse to rank 1, not a garbage basis.
        let m = 12;
        let a = det_rand(m, 21);
        let mut x = Vec::new();
        for _ in 0..4 {
            x.extend(&a);
        }
        let qr = mgs_qr(&x, m, 4, 1e-10);
        assert_eq!(qr.rank(), 1);
        assert_eq!(qr.kept, vec![0]);
    }

    #[test]
    fn nan_column_is_dropped_not_kept() {
        let m = 8;
        let a = det_rand(m, 33);
        let mut x = Vec::new();
        x.extend(&a);
        x.extend(std::iter::repeat_n(f64::NAN, m)); // poisoned snapshot
        let b = det_rand(m, 44);
        x.extend(&b);
        let qr = mgs_qr(&x, m, 3, 1e-10);
        // the NaN column is rejected and the basis stays finite
        assert_eq!(qr.kept, vec![0, 2]);
        assert!(qr.q.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn inf_column_is_dropped_not_kept() {
        let m = 6;
        let a = det_rand(m, 55);
        let mut x = Vec::new();
        x.extend(std::iter::repeat_n(f64::INFINITY, m));
        x.extend(&a);
        let qr = mgs_qr(&x, m, 2, 1e-10);
        assert_eq!(qr.kept, vec![1]);
        assert!(qr.q.iter().all(|v| v.is_finite()));
    }
}
