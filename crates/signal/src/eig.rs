//! Hermitian eigendecomposition by complex Jacobi rotations — the small
//! dense eigen-solve FDD needs at every frequency bin (the CSD matrix of
//! the observed channels is Hermitian positive semi-definite).

use crate::complex::C64;

/// Eigen-decomposition of a Hermitian matrix.
#[derive(Debug, Clone)]
pub struct HermEig {
    /// Eigenvalues, descending.
    pub values: Vec<f64>,
    /// Eigenvectors, column-major (`vectors[col * n + row]`), matching
    /// `values` order, unit length.
    pub vectors: Vec<C64>,
}

/// Jacobi eigendecomposition of the Hermitian `n×n` matrix `a` (row-major).
/// Intended for the small matrices of FDD (n ≲ 64).
pub fn herm_eig(a: &[C64], n: usize) -> HermEig {
    assert_eq!(a.len(), n * n);
    let mut m = a.to_vec();
    // v starts as identity, accumulates rotations (column-major)
    let mut v = vec![C64::ZERO; n * n];
    for i in 0..n {
        v[i * n + i] = C64::ONE;
    }

    let off = |m: &[C64]| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    s += m[i * n + j].norm_sq();
                }
            }
        }
        s
    };
    let scale: f64 = m.iter().map(|c| c.norm_sq()).sum::<f64>().max(1e-300);

    for _sweep in 0..100 {
        if off(&m) <= 1e-28 * scale {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[p * n + q];
                if apq.norm_sq() <= 1e-32 * scale {
                    continue;
                }
                // Hermitian Jacobi rotation zeroing (p,q):
                // phase: apq = |apq| e^{i phi}
                let abs_apq = apq.abs();
                let phase = C64::new(apq.re / abs_apq, apq.im / abs_apq);
                let app = m[p * n + p].re;
                let aqq = m[q * n + q].re;
                let theta = 0.5 * (2.0 * abs_apq).atan2(app - aqq);
                let (c, s) = (theta.cos(), theta.sin());
                // rotation: [c, s*e^{i phi}; -s*e^{-i phi}, c]
                let spe = phase.scale(s);
                // rows/cols update: A <- R^H A R, V <- V R
                for k in 0..n {
                    let akp = m[k * n + p];
                    let akq = m[k * n + q];
                    m[k * n + p] = akp.scale(c) + akq * spe.conj();
                    m[k * n + q] = akq.scale(c) - akp * spe;
                }
                for k in 0..n {
                    let apk = m[p * n + k];
                    let aqk = m[q * n + k];
                    m[p * n + k] = apk.scale(c) + aqk * spe;
                    m[q * n + k] = aqk.scale(c) - apk * spe.conj();
                }
                for k in 0..n {
                    let vkp = v[p * n + k];
                    let vkq = v[q * n + k];
                    v[p * n + k] = vkp.scale(c) + vkq * spe.conj();
                    v[q * n + k] = vkq.scale(c) - vkp * spe;
                }
            }
        }
    }

    // extract eigenvalues (real diagonal) and sort descending
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[i * n + i].re).collect();
    order.sort_by(|&a, &b| diag[b].partial_cmp(&diag[a]).unwrap());
    let values: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vectors = vec![C64::ZERO; n * n];
    for (col, &i) in order.iter().enumerate() {
        for row in 0..n {
            vectors[col * n + row] = v[i * n + row];
        }
    }
    HermEig { values, vectors }
}

/// Largest eigenvalue + eigenvector of a Hermitian matrix (the "first
/// singular value" of FDD, since CSD matrices are PSD).
pub(crate) fn herm_largest(a: &[C64], n: usize) -> (f64, Vec<C64>) {
    let e = herm_eig(a, n);
    (e.values[0], e.vectors[..n].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_vec(a: &[C64], n: usize, x: &[C64]) -> Vec<C64> {
        (0..n)
            .map(|i| {
                let mut acc = C64::ZERO;
                for j in 0..n {
                    acc += a[i * n + j] * x[j];
                }
                acc
            })
            .collect()
    }

    fn hermitian_test_matrix(n: usize, seed: u64) -> Vec<C64> {
        // A = B^H B (Hermitian PSD) + diag boost
        let mut s = seed;
        let mut rnd = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) % 2000) as f64 / 1000.0 - 1.0
        };
        let b: Vec<C64> = (0..n * n).map(|_| C64::new(rnd(), rnd())).collect();
        let mut a = vec![C64::ZERO; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = if i == j { C64::from_re(0.5) } else { C64::ZERO };
                for k in 0..n {
                    acc += b[k * n + i].conj() * b[k * n + j];
                }
                a[i * n + j] = acc;
            }
        }
        a
    }

    #[test]
    fn eigen_pairs_satisfy_definition() {
        let n = 6;
        let a = hermitian_test_matrix(n, 42);
        let e = herm_eig(&a, n);
        for col in 0..n {
            let v: Vec<C64> = e.vectors[col * n..(col + 1) * n].to_vec();
            let av = mat_vec(&a, n, &v);
            for row in 0..n {
                let expect = v[row].scale(e.values[col]);
                assert!(
                    (av[row] - expect).abs() < 1e-8,
                    "pair {col} row {row}: {:?} vs {:?}",
                    av[row],
                    expect
                );
            }
        }
    }

    #[test]
    fn eigenvalues_sorted_and_real_trace_preserved() {
        let n = 5;
        let a = hermitian_test_matrix(n, 7);
        let e = herm_eig(&a, n);
        for w in e.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        let tr: f64 = (0..n).map(|i| a[i * n + i].re).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((tr - sum).abs() < 1e-9 * tr.abs().max(1.0));
    }

    #[test]
    fn eigenvectors_orthonormal() {
        let n = 4;
        let a = hermitian_test_matrix(n, 3);
        let e = herm_eig(&a, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = C64::ZERO;
                for k in 0..n {
                    acc += e.vectors[i * n + k].conj() * e.vectors[j * n + k];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((acc.re - expect).abs() < 1e-9 && acc.im.abs() < 1e-9);
            }
        }
    }

    #[test]
    fn diagonal_matrix_is_instant() {
        let n = 3;
        let mut a = vec![C64::ZERO; 9];
        a[0] = C64::from_re(1.0);
        a[4] = C64::from_re(5.0);
        a[8] = C64::from_re(3.0);
        let e = herm_eig(&a, n);
        assert!((e.values[0] - 5.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        assert!((e.values[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rank_one_matrix_recovers_mode() {
        // A = lambda v v^H: the FDD situation at a resonance
        let n = 4;
        let v = [
            C64::new(0.5, 0.1),
            C64::new(-0.3, 0.4),
            C64::new(0.2, -0.6),
            C64::new(0.1, 0.2),
        ];
        let norm: f64 = v.iter().map(|c| c.norm_sq()).sum::<f64>().sqrt();
        let v: Vec<C64> = v.iter().map(|c| c.scale(1.0 / norm)).collect();
        let lam = 7.5;
        let mut a = vec![C64::ZERO; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = (v[i] * v[j].conj()).scale(lam);
            }
        }
        let (val, vec) = herm_largest(&a, n);
        assert!((val - lam).abs() < 1e-9);
        // vector matches up to a global phase: |<v, vec>| = 1
        let mut ip = C64::ZERO;
        for k in 0..n {
            ip += v[k].conj() * vec[k];
        }
        assert!((ip.abs() - 1.0).abs() < 1e-9);
    }
}
