//! Small dense linear algebra: the 3×3 inverses of the block-Jacobi
//! preconditioner. The test module holds a Cholesky solver, the reference
//! the CG tests validate against on small systems.

/// Invert a symmetric positive definite 3×3 matrix given row-major.
/// Returns `None` when the determinant is not strictly positive.
pub(crate) fn inv3(a: &[f64; 9]) -> Option<[f64; 9]> {
    let det = a[0] * (a[4] * a[8] - a[5] * a[7]) - a[1] * (a[3] * a[8] - a[5] * a[6])
        + a[2] * (a[3] * a[7] - a[4] * a[6]);
    if !(det.is_finite() && det.abs() > f64::MIN_POSITIVE) {
        return None;
    }
    let inv_det = 1.0 / det;
    Some([
        (a[4] * a[8] - a[5] * a[7]) * inv_det,
        (a[2] * a[7] - a[1] * a[8]) * inv_det,
        (a[1] * a[5] - a[2] * a[4]) * inv_det,
        (a[5] * a[6] - a[3] * a[8]) * inv_det,
        (a[0] * a[8] - a[2] * a[6]) * inv_det,
        (a[2] * a[3] - a[0] * a[5]) * inv_det,
        (a[3] * a[7] - a[4] * a[6]) * inv_det,
        (a[1] * a[6] - a[0] * a[7]) * inv_det,
        (a[0] * a[4] - a[1] * a[3]) * inv_det,
    ])
}

/// `y = A x` for a row-major 3×3 block.
#[inline]
pub(crate) fn mat3_vec(a: &[f64; 9], x: &[f64; 3]) -> [f64; 3] {
    [
        a[0] * x[0] + a[1] * x[1] + a[2] * x[2],
        a[3] * x[0] + a[4] * x[1] + a[5] * x[2],
        a[6] * x[0] + a[7] * x[1] + a[8] * x[2],
    ]
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// In-place Cholesky factorization `A = L Lᵀ` of a dense row-major SPD
    /// matrix. Returns `Err` with the failing pivot index if not positive
    /// definite.
    pub(crate) fn cholesky_factor(a: &mut [f64], n: usize) -> Result<(), usize> {
        debug_assert_eq!(a.len(), n * n);
        for j in 0..n {
            let mut d = a[j * n + j];
            for k in 0..j {
                d -= a[j * n + k] * a[j * n + k];
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(j);
            }
            let d = d.sqrt();
            a[j * n + j] = d;
            for i in (j + 1)..n {
                let mut s = a[i * n + j];
                for k in 0..j {
                    s -= a[i * n + k] * a[j * n + k];
                }
                a[i * n + j] = s / d;
            }
        }
        Ok(())
    }

    /// Solve `A x = b` given the Cholesky factor produced by
    /// [`cholesky_factor`] (forward then backward substitution); `b` is
    /// overwritten with the solution.
    pub(crate) fn cholesky_solve(l: &[f64], n: usize, b: &mut [f64]) {
        debug_assert_eq!(l.len(), n * n);
        debug_assert_eq!(b.len(), n);
        // forward: L y = b
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= l[i * n + k] * b[k];
            }
            b[i] = s / l[i * n + i];
        }
        // backward: L^T x = y
        for i in (0..n).rev() {
            let mut s = b[i];
            for k in (i + 1)..n {
                s -= l[k * n + i] * b[k];
            }
            b[i] = s / l[i * n + i];
        }
    }

    /// Convenience: solve a dense SPD system, consuming copies.
    pub(crate) fn solve_spd(a: &[f64], n: usize, b: &[f64]) -> Result<Vec<f64>, usize> {
        let mut l = a.to_vec();
        cholesky_factor(&mut l, n)?;
        let mut x = b.to_vec();
        cholesky_solve(&l, n, &mut x);
        Ok(x)
    }

    #[test]
    fn inv3_roundtrip() {
        let a = [4.0, 1.0, 0.5, 1.0, 3.0, 0.2, 0.5, 0.2, 5.0];
        let inv = inv3(&a).unwrap();
        // A * A^-1 = I
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += a[i * 3 + k] * inv[k * 3 + j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn inv3_rejects_singular() {
        let a = [1.0, 2.0, 3.0, 2.0, 4.0, 6.0, 0.0, 0.0, 1.0];
        assert!(inv3(&a).is_none());
    }

    #[test]
    fn mat3_vec_basic() {
        let a = [1.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 3.0];
        assert_eq!(mat3_vec(&a, &[1.0, 1.0, 1.0]), [1.0, 2.0, 3.0]);
    }

    fn spd(n: usize, seed: u64) -> Vec<f64> {
        // A = B^T B + n I with deterministic B
        let mut b = vec![0.0; n * n];
        let mut s = seed;
        for v in b.iter_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((s >> 33) % 1000) as f64 / 500.0 - 1.0;
        }
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = if i == j { n as f64 } else { 0.0 };
                for k in 0..n {
                    acc += b[k * n + i] * b[k * n + j];
                }
                a[i * n + j] = acc;
            }
        }
        a
    }

    #[test]
    fn cholesky_solves_spd_system() {
        let n = 12;
        let a = spd(n, 7);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| a[i * n + j] * x_true[j]).sum())
            .collect();
        let x = solve_spd(&a, n, &b).unwrap();
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-9, "{} vs {}", x[i], x_true[i]);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = vec![1.0, 2.0, 2.0, 1.0]; // eigenvalues 3, -1
        let mut l = a.clone();
        assert!(cholesky_factor(&mut l, 2).is_err());
    }
}
