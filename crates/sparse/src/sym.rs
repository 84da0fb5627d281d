//! Packed symmetric matrix storage.
//!
//! Element matrices (30×30 for Tet10, 18×18 for Tri6 faces) are symmetric;
//! storing only the lower triangle (row-major: entry (i, j), j ≤ i, at
//! `i(i+1)/2 + j`) halves the memory footprint and the memory traffic of
//! the EBE kernel — the same storage trick the paper's EBE implementation
//! relies on to fit 2×4 simulation cases in GPU memory.

/// Number of stored entries of an `n×n` packed symmetric matrix.
#[inline]
pub const fn packed_len(n: usize) -> usize {
    n * (n + 1) / 2
}

/// Index of entry `(i, j)` (any order) in packed lower-triangular storage.
#[inline]
pub fn packed_idx(i: usize, j: usize) -> usize {
    if i >= j {
        i * (i + 1) / 2 + j
    } else {
        j * (j + 1) / 2 + i
    }
}

/// `y += A x` for a packed symmetric `n×n` matrix `a` (length
/// `packed_len(n)`).
pub fn sym_matvec_add(a: &[f64], x: &[f64], y: &mut [f64], n: usize) {
    debug_assert_eq!(a.len(), packed_len(n));
    debug_assert_eq!(x.len(), n);
    debug_assert_eq!(y.len(), n);
    let mut idx = 0;
    for i in 0..n {
        let xi = x[i];
        let mut acc = 0.0;
        for j in 0..i {
            let aij = a[idx];
            acc += aij * x[j];
            y[j] += aij * xi;
            idx += 1;
        }
        // diagonal
        acc += a[idx] * xi;
        idx += 1;
        y[i] += acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unpack into a dense row-major `n×n` matrix: the reference the
    /// packed kernel is checked against.
    fn unpack_dense(a: &[f64], n: usize) -> Vec<f64> {
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                d[i * n + j] = a[packed_idx(i, j)];
            }
        }
        d
    }

    /// Pack the lower triangle of a dense row-major `n×n` matrix, asserting the
    /// input is symmetric to tolerance `tol` (relative to its largest entry).
    fn pack_symmetric(dense: &[f64], n: usize, tol: f64) -> Vec<f64> {
        let amax = dense
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
            .max(1e-300);
        let mut a = vec![0.0; packed_len(n)];
        for i in 0..n {
            for j in 0..=i {
                let lo = dense[i * n + j];
                let hi = dense[j * n + i];
                assert!(
                    (lo - hi).abs() <= tol * amax,
                    "matrix not symmetric at ({i},{j}): {lo} vs {hi}"
                );
                a[packed_idx(i, j)] = 0.5 * (lo + hi);
            }
        }
        a
    }

    fn sample(n: usize) -> Vec<f64> {
        // deterministic symmetric test matrix in packed form
        (0..packed_len(n))
            .map(|k| ((k * 7919 + 13) % 101) as f64 / 10.0 - 5.0)
            .collect()
    }

    #[test]
    fn packed_index_roundtrip() {
        let n = 30;
        let mut seen = vec![false; packed_len(n)];
        for i in 0..n {
            for j in 0..=i {
                let k = packed_idx(i, j);
                assert_eq!(k, packed_idx(j, i));
                assert!(!seen[k]);
                seen[k] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn matvec_matches_dense() {
        let n = 18;
        let a = sample(n);
        let d = unpack_dense(&a, n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut y1 = vec![1.0; n]; // nonzero initial: matvec must ADD
        sym_matvec_add(&a, &x, &mut y1, n);
        let mut y2 = vec![1.0; n];
        for i in 0..n {
            for j in 0..n {
                y2[i] += d[i * n + j] * x[j];
            }
        }
        for i in 0..n {
            assert!((y1[i] - y2[i]).abs() < 1e-10, "{} vs {}", y1[i], y2[i]);
        }
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let n = 7;
        let a = sample(n);
        let d = unpack_dense(&a, n);
        let a2 = pack_symmetric(&d, n, 1e-14);
        assert_eq!(a, a2);
    }

    #[test]
    #[should_panic]
    fn pack_rejects_asymmetric() {
        let n = 3;
        let mut d = unpack_dense(&sample(n), n);
        d[1] += 1.0; // break symmetry
        pack_symmetric(&d, n, 1e-12);
    }
}
