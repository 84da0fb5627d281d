//! 3×3 Block Compressed Row Storage — the paper's baseline matrix format.
//!
//! The target problem has 3 DOFs per node, so the natural block size is 3×3
//! (the paper uses "3×3 block CRS, which is a standard method for storing
//! matrices in memory"). Blocks are stored row-major (`[f64; 9]`), block
//! columns sorted ascending within each block row.

use hetsolve_pool as pool;

use crate::op::{KernelCounts, LinearOperator};

/// Block rows per chunk of the parallel SpMV.
const ROWS_PER_CHUNK: usize = 256;

/// 3×3 block CRS sparse matrix.
#[derive(Debug, Clone)]
pub struct Bcrs3 {
    /// Number of block rows (= nodes).
    pub n_brows: usize,
    /// Block-row pointers into `cols`/`blocks` (`n_brows + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Block-column indices, sorted within each row.
    pub cols: Vec<u32>,
    /// 3×3 blocks, row-major.
    pub blocks: Vec<[f64; 9]>,
    /// Run the SpMV on the host pool, `ROWS_PER_CHUNK` block rows to a
    /// chunk (a row is computed whole by one thread: same bits).
    pub parallel: bool,
}

impl Bcrs3 {
    /// Number of stored blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of scalar rows/cols.
    pub(crate) fn n(&self) -> usize {
        3 * self.n_brows
    }

    /// Diagonal 3×3 blocks (for the block-Jacobi preconditioner). Rows
    /// without a stored diagonal block yield zeros.
    pub fn diagonal_blocks(&self) -> Vec<[f64; 9]> {
        let mut out = vec![[0.0; 9]; self.n_brows];
        for br in 0..self.n_brows {
            for k in self.row_ptr[br]..self.row_ptr[br + 1] {
                if self.cols[k] as usize == br {
                    out[br] = self.blocks[k];
                }
            }
        }
        out
    }

    fn spmv_row(&self, br: usize, x: &[f64], y: &mut [f64; 3]) {
        let mut acc = [0.0f64; 3];
        for k in self.row_ptr[br]..self.row_ptr[br + 1] {
            let b = &self.blocks[k];
            let xc = 3 * self.cols[k] as usize;
            let (x0, x1, x2) = (x[xc], x[xc + 1], x[xc + 2]);
            acc[0] += b[0] * x0 + b[1] * x1 + b[2] * x2;
            acc[1] += b[3] * x0 + b[4] * x1 + b[5] * x2;
            acc[2] += b[6] * x0 + b[7] * x1 + b[8] * x2;
        }
        *y = acc;
    }
}

impl LinearOperator for Bcrs3 {
    fn n(&self) -> usize {
        3 * self.n_brows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n());
        debug_assert_eq!(y.len(), self.n());
        let rows = |first: usize, y: &mut [f64]| {
            for (k, yr) in y.as_chunks_mut::<3>().0.iter_mut().enumerate() {
                self.spmv_row(first + k, x, yr);
            }
        };
        if self.parallel {
            pool::for_each_mut([(y, 3 * ROWS_PER_CHUNK)], |i, [yc]| {
                rows(i * ROWS_PER_CHUNK, yc)
            });
        } else {
            rows(0, y);
        }
    }

    fn counts(&self) -> KernelCounts {
        let nnzb = self.nnz_blocks() as f64;
        let rows = self.n_brows as f64;
        KernelCounts {
            // 9 multiplies + 9 adds per block
            flops: 18.0 * nnzb,
            // blocks (72 B) + column indices (4 B) streamed; y written
            // (24 B/row); row pointers streamed
            bytes_stream: nnzb * 76.0 + rows * 24.0 + self.row_ptr.len() as f64 * 8.0,
            // x gathered by block column; node reuse keeps most gathers in
            // cache, so DRAM traffic ~ 2x the x footprint
            bytes_rand: 2.0 * rows * 24.0,
            rand_transactions: nnzb,
            rhs_fused: 1,
        }
    }
}

/// Incremental builder accumulating (block-row, block-col) → 3×3 sums.
#[derive(Debug)]
pub struct BcrsBuilder {
    n_brows: usize,
    rows: Vec<Vec<(u32, [f64; 9])>>,
}

impl BcrsBuilder {
    pub fn new(n_brows: usize) -> Self {
        BcrsBuilder {
            n_brows,
            rows: vec![Vec::new(); n_brows],
        }
    }

    /// Add (accumulate) a 3×3 block at block position `(i, j)`.
    pub fn add_block(&mut self, i: u32, j: u32, blk: &[f64; 9]) {
        debug_assert!((i as usize) < self.n_brows && (j as usize) < self.n_brows);
        self.rows[i as usize].push((j, *blk));
    }

    /// Finalize: sort and merge duplicate block coordinates.
    pub fn finish(self, parallel: bool) -> Bcrs3 {
        let mut row_ptr = Vec::with_capacity(self.n_brows + 1);
        let mut cols = Vec::new();
        let mut blocks: Vec<[f64; 9]> = Vec::new();
        row_ptr.push(0);
        for mut row in self.rows {
            merge_row(&mut row, |c, b| {
                cols.push(c);
                blocks.push(b);
            });
            row_ptr.push(cols.len());
        }
        Bcrs3 {
            n_brows: self.n_brows,
            row_ptr,
            cols,
            blocks,
            parallel,
        }
    }
}

/// Sort one block row's `(column, block)` contributions by column and
/// hand each distinct column once to `emit`, ascending, summing equal
/// columns in the order the sort leaves them.
///
/// This is where the summation order of every assembled matrix is defined:
/// [`BcrsBuilder::finish`] and [`crate::assemble_global`] both call it, and
/// agree bit for bit because they hand it the same sequence. An unstable
/// sort permutes equal keys as a function of the whole input, so changing
/// the sort, the element type or the order in which a row's contributions
/// are pushed changes which duplicate is added first — and moves bits.
pub(crate) fn merge_row(row: &mut [(u32, [f64; 9])], mut emit: impl FnMut(u32, [f64; 9])) {
    row.sort_unstable_by_key(|&(c, _)| c);
    let mut it = row.iter();
    let Some(&(mut col, mut sum)) = it.next() else {
        return;
    };
    for &(c, b) in it {
        if c == col {
            for k in 0..9 {
                sum[k] += b[k];
            }
        } else {
            emit(col, sum);
            (col, sum) = (c, b);
        }
    }
    emit(col, sum);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_matrix(parallel: bool) -> Bcrs3 {
        // 2x2 block grid: [[A, B], [B^T, C]] with simple blocks
        let a = [2.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 2.0];
        let b = [0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0];
        let bt = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0];
        let c = [3.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 3.0];
        let mut bl = BcrsBuilder::new(2);
        bl.add_block(0, 0, &a);
        bl.add_block(0, 1, &b);
        bl.add_block(1, 0, &bt);
        bl.add_block(1, 1, &c);
        bl.finish(parallel)
    }

    #[test]
    fn spmv_matches_dense() {
        let m = small_matrix(false);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut y = vec![0.0; 6];
        m.apply(&x, &mut y);
        // row block 0: A*x0 + B*x1 = [2,4,6] + [5,6,4] = [7,10,10]
        assert_eq!(&y[..3], &[7.0, 10.0, 10.0]);
        // row block 1: B^T*x0 + C*x1 = [3,1,2] + [12,15,18] = [15,16,20]
        assert_eq!(&y[3..], &[15.0, 16.0, 20.0]);
    }

    /// The chunked SpMV computes every row whole on one thread: bitwise
    /// the sequential one on pools of one to four threads, with a row
    /// count that leaves a short last chunk.
    #[test]
    fn parallel_matches_sequential() {
        let nb = 3 * ROWS_PER_CHUNK + 17;
        let mut b = BcrsBuilder::new(nb);
        for i in 0..nb {
            let s = (i as f64 * 0.3).sin();
            b.add_block(
                i as u32,
                i as u32,
                &[6.0, s, 0.0, s, 7.0, 1.0, 0.0, 1.0, 8.0],
            );
            for j in [(i + 1) % nb, (i + 37) % nb] {
                b.add_block(
                    i as u32,
                    j as u32,
                    &[s, 0.1, -0.2, 0.3, -s, 0.4, 0.5, 0.6, s * s],
                );
            }
        }
        let mseq = b.finish(false);
        let mpar = Bcrs3 {
            parallel: true,
            ..mseq.clone()
        };
        let x: Vec<f64> = (0..3 * nb).map(|i| (i as f64).cos()).collect();
        let mut y1 = vec![0.0; 3 * nb];
        mseq.apply(&x, &mut y1);
        assert!(y1.iter().all(|v| *v != 0.0));
        for threads in 1..=4 {
            let mut y2 = vec![0.0; 3 * nb];
            pool::Pool::with_threads(threads).install(|| mpar.apply(&x, &mut y2));
            assert_eq!(y1, y2, "threads={threads}");
        }
    }

    #[test]
    fn builder_merges_duplicates() {
        let mut b = BcrsBuilder::new(1);
        let one = [1.0; 9];
        b.add_block(0, 0, &one);
        b.add_block(0, 0, &one);
        let m = b.finish(false);
        assert_eq!(m.nnz_blocks(), 1);
        assert!(m.blocks[0].iter().all(|&v| v == 2.0));
    }

    #[test]
    fn empty_rows_are_allowed() {
        let mut b = BcrsBuilder::new(3);
        b.add_block(2, 2, &[1.0; 9]);
        let m = b.finish(false);
        assert_eq!(m.row_ptr, vec![0, 0, 0, 1]);
        let mut y = vec![0.0; 9];
        m.apply(&[1.0; 9], &mut y);
        assert!(y[..6].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn diagonal_block_extraction() {
        let m = small_matrix(false);
        let d = m.diagonal_blocks();
        assert_eq!(d[0][0], 2.0);
        assert_eq!(d[1][0], 3.0);
    }

    #[test]
    fn counts_are_consistent() {
        let m = small_matrix(false);
        let c = m.counts();
        assert_eq!(c.flops, 18.0 * 4.0);
        assert!(c.bytes_stream > 0.0 && c.bytes_rand > 0.0);
        assert_eq!(c.rand_transactions, 4.0);
        assert_eq!(c.rhs_fused, 1);
    }
}
