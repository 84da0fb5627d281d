//! 3×3 block-Jacobi preconditioner — the paper's Algorithm 1 `B⁻¹`.
//!
//! The preconditioner inverts each node's 3×3 diagonal block once at setup
//! and applies `z = B⁻¹ r` as a streaming pass; for the EBE path the blocks
//! come from [`crate::ebe::EbeOperator::diagonal_blocks`] without assembling
//! the matrix.

use crate::dense::{inv3, mat3_vec};
use crate::op::{KernelCounts, Preconditioner};
use crate::vecops::{dot_multi, with_lanes, LaneDot};

/// Inverted 3×3 diagonal blocks.
#[derive(Debug, Clone)]
pub struct BlockJacobi {
    pub inv: Vec<[f64; 9]>,
    /// Not read today: the apply is one serial streaming pass at every
    /// width (it is what the threaded pool of ROADMAP 2(a) will split).
    pub parallel: bool,
}

impl BlockJacobi {
    /// Invert the given diagonal blocks. Singular blocks (possible only for
    /// disconnected nodes) fall back to identity, keeping the
    /// preconditioner SPD.
    pub fn from_blocks(blocks: &[[f64; 9]], parallel: bool) -> Self {
        let identity = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0];
        let inv = blocks.iter().map(|b| inv3(b).unwrap_or(identity)).collect();
        BlockJacobi { inv, parallel }
    }

    /// Bytes of stored inverse blocks.
    pub fn bytes(&self) -> usize {
        self.inv.len() * 72
    }

    /// `z = B⁻¹ r` on `[f64; R]` lane arrays (each inverse block applied
    /// to all `R` cases of its node at once, in `mat3_vec`'s operation
    /// order), handing every finished row `(z, r)` to `row`.
    #[inline(always)]
    fn apply_lanes<const R: usize>(
        &self,
        r_vec: &[f64],
        z: &mut [f64],
        mut row: impl FnMut(&[f64; R], &[f64; R]),
    ) {
        let (rv, _) = r_vec.as_chunks::<R>();
        let (zv, _) = z.as_chunks_mut::<R>();
        let nodes = zv
            .as_chunks_mut::<3>()
            .0
            .iter_mut()
            .zip(rv.as_chunks::<3>().0);
        for ((zn, rn), a) in nodes.zip(&self.inv) {
            for d in 0..3 {
                for c in 0..R {
                    zn[d][c] =
                        a[3 * d] * rn[0][c] + a[3 * d + 1] * rn[1][c] + a[3 * d + 2] * rn[2][c];
                }
                row(&zn[d], &rn[d]);
            }
        }
    }

    /// `z = B⁻¹ r` for any `r` (interleaved layout: dof-major, case-minor).
    fn apply_any(&self, r_vec: &[f64], z: &mut [f64], r: usize) {
        for (i, inv) in self.inv.iter().enumerate() {
            for c in 0..r {
                let rr = [
                    r_vec[(3 * i) * r + c],
                    r_vec[(3 * i + 1) * r + c],
                    r_vec[(3 * i + 2) * r + c],
                ];
                let out = mat3_vec(inv, &rr);
                z[(3 * i) * r + c] = out[0];
                z[(3 * i + 1) * r + c] = out[1];
                z[(3 * i + 2) * r + c] = out[2];
            }
        }
    }
}

impl Preconditioner for BlockJacobi {
    fn n(&self) -> usize {
        3 * self.inv.len()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.n());
        debug_assert_eq!(z.len(), self.n());
        self.apply_lanes::<1>(r, z, |_, _| ());
    }

    fn counts(&self) -> KernelCounts {
        let nb = self.inv.len() as f64;
        KernelCounts {
            flops: 15.0 * nb, // 9 mul + 6 add
            bytes_stream: nb * (72.0 + 24.0 + 24.0),
            bytes_rand: 0.0,
            rand_transactions: 0.0,
            rhs_fused: 1,
        }
    }

    fn apply_multi(&self, r_vec: &[f64], z: &mut [f64], r: usize) {
        assert_eq!(r_vec.len(), self.n() * r);
        assert_eq!(z.len(), self.n() * r);
        with_lanes!(
            r,
            R => self.apply_lanes::<R>(r_vec, z, |_, _| ()),
            _ => self.apply_any(r_vec, z, r),
        );
    }

    fn apply_multi_dot(&self, r_vec: &[f64], z: &mut [f64], r: usize, rho: &mut [f64]) {
        assert_eq!(r_vec.len(), self.n() * r);
        assert_eq!(z.len(), self.n() * r);
        with_lanes!(
            r,
            R => {
                let mut dot = LaneDot::<R>::new(r_vec.len());
                self.apply_lanes::<R>(r_vec, z, |zr, rr| dot.add(zr, rr));
                rho.copy_from_slice(&dot.finish());
            },
            _ => {
                self.apply_any(r_vec, z, r);
                dot_multi(z, r_vec, r, rho);
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks() -> Vec<[f64; 9]> {
        vec![
            [4.0, 1.0, 0.0, 1.0, 3.0, 0.5, 0.0, 0.5, 5.0],
            [2.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 2.0],
        ]
    }

    #[test]
    fn apply_inverts_blocks() {
        let bj = BlockJacobi::from_blocks(&blocks(), false);
        // z = B^-1 r, then B z must equal r
        let r = vec![1.0, -2.0, 3.0, 0.5, 0.25, -1.0];
        let mut z = vec![0.0; 6];
        bj.apply(&r, &mut z);
        for (i, b) in blocks().iter().enumerate() {
            let back = mat3_vec(b, &[z[3 * i], z[3 * i + 1], z[3 * i + 2]]);
            for a in 0..3 {
                assert!((back[a] - r[3 * i + a]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn singular_block_falls_back_to_identity() {
        let bj = BlockJacobi::from_blocks(&[[0.0; 9]], false);
        let r = vec![1.0, 2.0, 3.0];
        let mut z = vec![0.0; 3];
        bj.apply(&r, &mut z);
        assert_eq!(z, r);
    }

    #[test]
    fn multi_matches_single() {
        let bj = BlockJacobi::from_blocks(&blocks(), false);
        let n = bj.n();
        // lane widths and one any-`r` width: same operation order as `apply`
        for r in [1usize, 2, 3, 4, 8] {
            let mut rv = vec![0.0; n * r];
            for c in 0..r {
                for i in 0..n {
                    rv[i * r + c] = ((i + 7 * c) as f64 * 0.31).sin();
                }
            }
            let mut zv = vec![0.0; n * r];
            bj.apply_multi(&rv, &mut zv, r);
            for c in 0..r {
                let rc: Vec<f64> = (0..n).map(|i| rv[i * r + c]).collect();
                let mut zc = vec![0.0; n];
                bj.apply(&rc, &mut zc);
                for i in 0..n {
                    assert_eq!(zv[i * r + c].to_bits(), zc[i].to_bits(), "r={r}");
                }
            }
        }
    }

    /// The fused pass is bitwise `apply_multi` then `dot_multi`, although
    /// its 3-row blocks straddle the 4096-row partial sums.
    #[test]
    fn fused_dot_matches_apply_then_dot_bitwise() {
        for r in [1usize, 2, 3, 4, 8] {
            for nb in [5usize, 1400, 11_000] {
                let blocks: Vec<[f64; 9]> = (0..nb)
                    .map(|i| {
                        let s = 0.1 * (i as f64 * 0.7).sin();
                        [4.0 + s, 1.0, s, 1.0, 3.0, 0.5, s, 0.5, 5.0 - s]
                    })
                    .collect();
                let bj = BlockJacobi::from_blocks(&blocks, false);
                let len = bj.n() * r;
                let rv: Vec<f64> = (0..len).map(|i| (i as f64 * 0.13).sin() + 0.2).collect();
                let (mut z, mut rho) = (vec![0.0; len], vec![0.0; r]);
                bj.apply_multi_dot(&rv, &mut z, r, &mut rho);
                let (mut z_ref, mut rho_ref) = (vec![0.0; len], vec![0.0; r]);
                bj.apply_multi(&rv, &mut z_ref, r);
                dot_multi(&z_ref, &rv, r, &mut rho_ref);
                assert_eq!(z, z_ref, "z r={r} nb={nb}");
                for c in 0..r {
                    assert_eq!(rho[c].to_bits(), rho_ref[c].to_bits(), "rho r={r} nb={nb}");
                }
            }
        }
    }

    #[test]
    fn counts_and_bytes() {
        let bj = BlockJacobi::from_blocks(&blocks(), false);
        assert_eq!(bj.bytes(), 144);
        assert_eq!(bj.counts().flops, 30.0);
    }
}
