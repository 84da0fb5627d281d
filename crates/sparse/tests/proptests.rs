//! Property-based tests of the sparse substrate: BCRS vs. dense reference,
//! CG on random SPD systems, and the packed-symmetric kernel against its
//! dense reference.

use hetsolve_sparse::{
    packed_idx, packed_len, pcg, sym_matvec_add, BcrsBuilder, BlockJacobi, CgConfig, KernelCounts,
    LinearOperator, Preconditioner,
};
use proptest::prelude::*;

/// Random SPD block-sparse matrix: diagonally dominant blocks on a random
/// sparsity pattern symmetrized.
fn spd_bcrs(nb: usize, entries: &[(u8, u8, [i8; 9])]) -> hetsolve_sparse::Bcrs3 {
    let mut b = BcrsBuilder::new(nb);
    let mut diag_boost = vec![0.0f64; nb];
    for &(i, j, vals) in entries {
        let (i, j) = ((i as usize) % nb, (j as usize) % nb);
        if i == j {
            continue;
        }
        let mut blk = [0.0f64; 9];
        let mut blk_t = [0.0f64; 9];
        let mut mag = 0.0;
        for r in 0..3 {
            for c in 0..3 {
                let v = vals[3 * r + c] as f64 / 32.0;
                blk[3 * r + c] = v;
                blk_t[3 * c + r] = v;
                mag += v.abs();
            }
        }
        b.add_block(i as u32, j as u32, &blk);
        b.add_block(j as u32, i as u32, &blk_t);
        diag_boost[i] += mag;
        diag_boost[j] += mag;
    }
    for i in 0..nb {
        let d = 1.0 + diag_boost[i];
        b.add_block(i as u32, i as u32, &[d, 0.0, 0.0, 0.0, d, 0.0, 0.0, 0.0, d]);
    }
    b.finish(false)
}

struct Identity(usize);
impl Preconditioner for Identity {
    fn n(&self) -> usize {
        self.0
    }
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
    fn counts(&self) -> KernelCounts {
        KernelCounts::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CG solves any diagonally-dominant SPD system; the residual of the
    /// returned solution actually satisfies the tolerance.
    #[test]
    fn cg_solves_random_spd(
        nb in 2usize..12,
        entries in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<[i8; 9]>()), 0..40),
        rhs_seed in any::<u32>(),
    ) {
        let m = spd_bcrs(nb, &entries);
        let n = m.n();
        let f: Vec<f64> = (0..n).map(|i| (((i as u64 + 1) * (rhs_seed as u64 + 1)) % 97) as f64 / 48.5 - 1.0).collect();
        let mut x = vec![0.0; n];
        let stats = pcg(&m, &Identity(n), &f, &mut x, &CgConfig { tol: 1e-10, max_iter: 10_000, ..Default::default() });
        prop_assert!(stats.converged, "CG failed: {}", stats.final_rel_res);
        // verify residual directly
        let mut ax = vec![0.0; n];
        m.apply(&x, &mut ax);
        let rn: f64 = ax.iter().zip(&f).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        let fn_: f64 = f.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(rn <= 1e-9 * fn_.max(1e-300) || fn_ == 0.0);
    }

    /// Block-Jacobi preconditioning never increases the iteration count on
    /// these diagonally dominant systems.
    #[test]
    fn block_jacobi_helps(
        nb in 2usize..10,
        entries in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<[i8; 9]>()), 5..30),
    ) {
        let m = spd_bcrs(nb, &entries);
        let n = m.n();
        let f: Vec<f64> = (0..n).map(|i| ((i * 13 + 7) % 19) as f64 - 9.0).collect();
        let cfg = CgConfig { tol: 1e-9, max_iter: 10_000, ..Default::default() };
        let mut x1 = vec![0.0; n];
        let plain = pcg(&m, &Identity(n), &f, &mut x1, &cfg);
        let mut x2 = vec![0.0; n];
        let bj = BlockJacobi::from_blocks(&m.diagonal_blocks(), false);
        let prec = pcg(&m, &bj, &f, &mut x2, &cfg);
        prop_assert!(plain.converged && prec.converged);
        prop_assert!(prec.iterations <= plain.iterations + 2,
            "BJ {} vs identity {}", prec.iterations, plain.iterations);
    }

    /// Packed symmetric matvec equals the dense reference for any packed
    /// payload and size.
    #[test]
    fn packed_matvec_matches_dense(
        n in 1usize..24,
        seed in any::<u64>(),
    ) {
        let len = packed_len(n);
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) % 1000) as f64 / 500.0 - 1.0
        };
        let a: Vec<f64> = (0..len).map(|_| next()).collect();
        let x: Vec<f64> = (0..n).map(|_| next()).collect();
        let mut y = vec![0.0; n];
        sym_matvec_add(&a, &x, &mut y, n);
        // dense reference via packed_idx
        let mut yd = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                yd[i] += a[packed_idx(i, j)] * x[j];
            }
        }
        for i in 0..n {
            prop_assert!((y[i] - yd[i]).abs() < 1e-10);
        }
    }

    /// BCRS builder: block duplicates merge additively and SpMV is linear.
    #[test]
    fn bcrs_linearity(
        nb in 1usize..8,
        entries in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<[i8; 9]>()), 1..25),
        alpha in -4.0f64..4.0,
    ) {
        let m = spd_bcrs(nb, &entries);
        let n = m.n();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let xs: Vec<f64> = x.iter().map(|v| alpha * v).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        m.apply(&x, &mut y1);
        m.apply(&xs, &mut y2);
        for i in 0..n {
            prop_assert!((y2[i] - alpha * y1[i]).abs() < 1e-9 * (1.0 + y1[i].abs() * alpha.abs()));
        }
    }
}
