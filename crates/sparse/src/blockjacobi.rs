//! 3×3 block-Jacobi preconditioner — the paper's Algorithm 1 `B⁻¹`.
//!
//! The preconditioner inverts each node's 3×3 diagonal block once at setup
//! and applies `z = B⁻¹ r` as a streaming pass; for the EBE path the blocks
//! come from `hetsolve_fem::CompactEbe::diagonal_blocks` without assembling
//! the matrix ([`crate::Bcrs3::diagonal_blocks`] reads the same blocks
//! off the assembled one).

use crate::dense::{inv3, mat3_vec};
use crate::op::{KernelCounts, Preconditioner};
use crate::vecops::{chunk_values, dot_multi, with_lanes, ChunkSums, LaneDot, MAX_PARTIALS};

use hetsolve_pool as pool;

/// Partial sums one chunk of the fused apply-and-dot spans: a chunk is
/// whole nodes (3 rows each) *and* whole partials, so three of them.
const CHUNK_PARTIALS: usize = 3;
const _: () = assert!(MAX_PARTIALS.is_multiple_of(CHUNK_PARTIALS));

/// Inverted 3×3 diagonal blocks.
#[derive(Debug, Clone)]
pub struct BlockJacobi {
    pub inv: Vec<[f64; 9]>,
    /// Run the lane-width applies chunked on the host pool (the chunks of
    /// `vecops`, three at a time); `false` keeps them on the calling
    /// thread. Same bits either way.
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

    /// `z = B⁻¹ r` on `[f64; R]` lane arrays over the `z.len() / (3 R)`
    /// nodes `z` covers (each inverse block applied to all `R` cases of
    /// its node at once, in `mat3_vec`'s operation order), handing every
    /// finished row `(z, r)` to `row`.
    #[inline(always)]
    fn apply_lanes<const R: usize>(
        inv: &[[f64; 9]],
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
        for ((zn, rn), a) in nodes.zip(inv) {
            for d in 0..3 {
                for c in 0..R {
                    zn[d][c] =
                        a[3 * d] * rn[0][c] + a[3 * d + 1] * rn[1][c] + a[3 * d + 2] * rn[2][c];
                }
                row(&zn[d], &rn[d]);
            }
        }
    }

    /// Cut `z` into chunks of `values` values (whole nodes) and call
    /// `chunk(i, inverse blocks, r, z)` with chunk `i`'s share of each —
    /// on the host pool when `parallel` is set.
    fn for_chunks<const R: usize>(
        &self,
        inv: &[[f64; 9]],
        r_vec: &[f64],
        z: &mut [f64],
        values: usize,
        chunk: impl Fn(usize, &[[f64; 9]], &[f64], &mut [f64]) + Sync,
    ) {
        let nodes = values / (3 * R);
        let chunk =
            |i: usize, zc: &mut [f64]| chunk(i, &inv[i * nodes..], &r_vec[i * values..], zc);
        if self.parallel {
            pool::for_each_mut([(z, values)], |i, [zc]| chunk(i, zc));
        } else {
            z.chunks_mut(values)
                .enumerate()
                .for_each(|(i, zc)| chunk(i, zc));
        }
    }

    /// One chunk of `z = B⁻¹ r`. Out of line on purpose, here and in
    /// [`Self::dot_chunk`]: as parameters of a function of their own the
    /// three slices are known not to alias, which is what lets the lane
    /// loop vectorize and the running sums stay in registers (inlined into
    /// the chunk closures, r = 4 ran 25–50 % slower).
    #[inline(never)]
    fn apply_chunk<const R: usize>(inv: &[[f64; 9]], r_vec: &[f64], z: &mut [f64]) {
        Self::apply_lanes::<R>(inv, r_vec, z, |_, _| ());
    }

    /// One chunk of `z = B⁻¹ r` with the products `z·r` of its rows fed to
    /// `sums` as partials of `rows` rows from slot `first` on.
    #[inline(never)]
    fn dot_chunk<const R: usize>(
        inv: &[[f64; 9]],
        r_vec: &[f64],
        z: &mut [f64],
        sums: &ChunkSums<R>,
        first: usize,
        rows: usize,
    ) {
        let mut dot = LaneDot::new(sums, first, rows);
        Self::apply_lanes::<R>(inv, r_vec, z, |zr, rr| dot.add(zr, rr));
        dot.finish();
    }

    /// `z = B⁻¹ r` at lane width `R`.
    fn apply_width<const R: usize>(&self, r_vec: &[f64], z: &mut [f64]) {
        let values = chunk_values(z.len(), R).saturating_mul(CHUNK_PARTIALS);
        self.for_chunks::<R>(&self.inv, r_vec, z, values, |_, inv, rc, zc| {
            Self::apply_chunk::<R>(inv, rc, zc)
        });
    }

    /// [`Self::apply_width`] and `rho[c] = z_c · r_c` in the same pass,
    /// summed in [`ChunkSums`]'s order although the 3-row nodes straddle
    /// its partials: a chunk feeds its rows to a [`LaneDot`].
    fn apply_dot_width<const R: usize>(&self, r_vec: &[f64], z: &mut [f64]) -> [f64; R] {
        let partial = chunk_values(z.len(), R);
        let values = partial.saturating_mul(CHUNK_PARTIALS);
        // one fork-join fills at most `MAX_PARTIALS` partials
        let block = partial.saturating_mul(MAX_PARTIALS);
        let mut sums = ChunkSums::<R>::new();
        let vectors = r_vec.chunks(block).zip(z.chunks_mut(block));
        for ((rb, zb), inv) in vectors.zip(self.inv.chunks(block / (3 * R))) {
            let partials = zb.len().div_ceil(partial);
            self.for_chunks::<R>(inv, rb, zb, values, |i, inv, rc, zc| {
                Self::dot_chunk::<R>(inv, rc, zc, &sums, CHUNK_PARTIALS * i, partial / R)
            });
            sums.fold(partials);
        }
        sums.total
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
        self.apply_width::<1>(r, z);
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
            R => self.apply_width::<R>(r_vec, z),
            _ => self.apply_any(r_vec, z, r),
        );
    }

    fn apply_multi_dot(&self, r_vec: &[f64], z: &mut [f64], r: usize, rho: &mut [f64]) {
        assert_eq!(r_vec.len(), self.n() * r);
        assert_eq!(z.len(), self.n() * r);
        with_lanes!(
            r,
            R => rho.copy_from_slice(&self.apply_dot_width::<R>(r_vec, z)),
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
    /// its 3-row blocks straddle the 4096-row partial sums — serial, and
    /// chunked on pools of one to four threads, at node counts on both
    /// sides of a chunk (4096 nodes) boundary.
    #[test]
    fn fused_dot_matches_apply_then_dot_bitwise() {
        for r in [1usize, 2, 3, 4, 8] {
            for nb in [5usize, 1400, 4096, 4097, 11_000] {
                let blocks: Vec<[f64; 9]> = (0..nb)
                    .map(|i| {
                        let s = 0.1 * (i as f64 * 0.7).sin();
                        [4.0 + s, 1.0, s, 1.0, 3.0, 0.5, s, 0.5, 5.0 - s]
                    })
                    .collect();
                let serial = BlockJacobi::from_blocks(&blocks, false);
                let len = serial.n() * r;
                let rv: Vec<f64> = (0..len).map(|i| (i as f64 * 0.13).sin() + 0.2).collect();
                let (mut z_ref, mut rho_ref) = (vec![0.0; len], vec![0.0; r]);
                serial.apply_multi(&rv, &mut z_ref, r);
                dot_multi(&z_ref, &rv, r, &mut rho_ref);

                let check = |bj: &BlockJacobi, at: &str| {
                    let (mut z, mut rho) = (vec![0.0; len], vec![0.0; r]);
                    bj.apply_multi_dot(&rv, &mut z, r, &mut rho);
                    assert_eq!(z, z_ref, "z r={r} nb={nb} {at}");
                    for c in 0..r {
                        assert_eq!(
                            rho[c].to_bits(),
                            rho_ref[c].to_bits(),
                            "rho r={r} nb={nb} {at}"
                        );
                    }
                    z.fill(0.0);
                    bj.apply_multi(&rv, &mut z, r);
                    assert_eq!(z, z_ref, "apply r={r} nb={nb} {at}");
                };
                check(&serial, "serial");
                let threaded = BlockJacobi::from_blocks(&blocks, true);
                for threads in 1..=4 {
                    pool::Pool::with_threads(threads)
                        .install(|| check(&threaded, &format!("threads={threads}")));
                }
            }
        }
    }

    #[test]
    fn counts_and_bytes() {
        let bj = BlockJacobi::from_blocks(&blocks(), false);
        assert_eq!(bj.counts().flops, 30.0);
        // per node: its inverse block, one `r` and one `z` row
        assert_eq!(bj.counts().bytes_stream, 2.0 * (72.0 + 24.0 + 24.0));
    }
}
