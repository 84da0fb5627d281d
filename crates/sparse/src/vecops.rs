//! Vector primitives of the CG iteration on interleaved multi-RHS vectors
//! (a single right-hand side is the width-1 case).
//!
//! Every pass over a multi-vector of at least [`PAR_THRESHOLD`] values is
//! cut into chunks of [`PARTIAL_ROWS`] rows that run on the host pool
//! (`hetsolve-pool`); a shorter vector is one chunk and never reaches the
//! pool, which keeps small problems on one thread where a fork-join would
//! dominate. The cut depends on the vector's length alone, a chunk writes
//! only its own rows, and a reduction keeps one partial sum per chunk and
//! adds them in row order ([`ChunkSums`]) — so the bits of every result are
//! the same at any thread count, and the same as one thread walking the
//! chunks in order.
//!
//! The passes of the MCG iteration ([`dot_multi`], [`xpby_multi`],
//! [`cg_update_multi`], [`residual_multi`]) run on `[f64; R]` lane arrays
//! for the fused widths the EBE kernels support (1, 2, 4, 8) and fall back
//! to the any-`r` loops otherwise. Both forms give the same bits: no
//! multiply-add is contracted, frozen cases are skipped by a lane select,
//! and both sum in [`ChunkSums`]'s order.

use std::sync::atomic::{AtomicU64, Ordering};

use hetsolve_pool as pool;

/// Below this length, a pass is one chunk (and one running sum per case).
const PAR_THRESHOLD: usize = 1 << 14;

/// Rows per chunk, and per partial sum, of a pass over a longer vector.
const PARTIAL_ROWS: usize = 4096;

/// Partial sums one fork-join of a reduction holds (on the caller's stack:
/// a pass allocates nothing). A vector of more chunks is reduced in
/// several fork-joins of this many.
pub(crate) const MAX_PARTIALS: usize = 192;

/// Values in one chunk of a pass over a `len`-value multi-vector of `r`
/// cases: the rows of one partial sum, or everything below the threshold.
pub(crate) fn chunk_values(len: usize, r: usize) -> usize {
    if len < PAR_THRESHOLD {
        usize::MAX
    } else {
        PARTIAL_ROWS * r
    }
}

/// Evaluate `$body` with the constant `$R` bound to the fused width `$r`
/// when that is one the lane kernels are built for, else `$other`.
macro_rules! with_lanes {
    ($r:expr, $R:ident => $body:expr, _ => $other:expr $(,)?) => {
        match $r {
            1 => {
                const $R: usize = 1;
                $body
            }
            2 => {
                const $R: usize = 2;
                $body
            }
            4 => {
                const $R: usize = 4;
                $body
            }
            8 => {
                const $R: usize = 8;
                $body
            }
            _ => $other,
        }
    };
}
pub(crate) use with_lanes;

/// The per-case values of a fused solve as a lane array.
pub(crate) fn lane_array<T, const R: usize>(per_case: &[T]) -> &[T; R] {
    per_case.try_into().expect("one value per fused case")
}

/// The one summation order of every multi-RHS reduction in this crate,
/// whichever threads run it: a chunk's partial sum is a running sum over
/// its rows from `+0.0` (any thread stores it with [`Self::set`]), and the
/// caller adds the partials to the total in chunk order ([`Self::fold`]).
pub(crate) struct ChunkSums<const R: usize> {
    pub(crate) total: [f64; R],
    /// `f64` bits. Relaxed: the pool's join publishes a chunk's stores to
    /// the caller before it folds.
    partial: [[AtomicU64; R]; MAX_PARTIALS],
}

impl<const R: usize> ChunkSums<R> {
    pub(crate) fn new() -> Self {
        ChunkSums {
            total: [0.0; R],
            partial: [const { [const { AtomicU64::new(0) }; R] }; MAX_PARTIALS],
        }
    }

    /// Record the partial sum of chunk `i` of the fork-join in flight.
    pub(crate) fn set(&self, i: usize, sum: [f64; R]) {
        for c in 0..R {
            self.partial[i][c].store(sum[c].to_bits(), Ordering::Relaxed);
        }
    }

    /// Add the first `chunks` partials to the total, in chunk order.
    pub(crate) fn fold(&mut self, chunks: usize) {
        for partial in &mut self.partial[..chunks] {
            for c in 0..R {
                self.total[c] += f64::from_bits(*partial[c].get_mut());
            }
        }
    }
}

/// Row products fed one row at a time into [`ChunkSums`] partials, a new
/// partial every `rows` rows from slot `first` on — for a chunk that spans
/// several partials because its unit of work straddles their boundaries
/// (`BlockJacobi`'s 3-row nodes against 4096-row partials).
pub(crate) struct LaneDot<'s, const R: usize> {
    sums: &'s ChunkSums<R>,
    slot: usize,
    partial: [f64; R],
    /// Rows the current partial still takes.
    left: usize,
    rows: usize,
}

impl<'s, const R: usize> LaneDot<'s, R> {
    pub(crate) fn new(sums: &'s ChunkSums<R>, first: usize, rows: usize) -> Self {
        LaneDot {
            sums,
            slot: first,
            partial: [0.0; R],
            left: rows,
            rows,
        }
    }

    /// `partial[c] += x[c] * y[c]` for the next row.
    #[inline(always)]
    pub(crate) fn add(&mut self, x: &[f64; R], y: &[f64; R]) {
        if self.left == 0 {
            self.close_partial();
        }
        self.left -= 1;
        for c in 0..R {
            self.partial[c] += x[c] * y[c];
        }
    }

    fn close_partial(&mut self) {
        self.sums.set(self.slot, self.partial);
        self.slot += 1;
        self.partial = [0.0; R];
        self.left = self.rows;
    }

    /// Store the last (possibly short) partial.
    pub(crate) fn finish(mut self) {
        self.close_partial();
    }
}

/// Per-case dot products of interleaved multi-vectors:
/// `out[c] = Σ_i x[i*r+c] * y[i*r+c]`, summed in [`ChunkSums`]'s order.
pub(crate) fn dot_multi(x: &[f64], y: &[f64], r: usize, out: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(x.len() % r, 0);
    debug_assert_eq!(out.len(), r);
    with_lanes!(r, R => out.copy_from_slice(&dot_lanes::<R>(x, y)), _ => dot_any(x, y, r, out));
}

fn dot_lanes<const R: usize>(x: &[f64], y: &[f64]) -> [f64; R] {
    let chunk = chunk_values(x.len(), R);
    let block = chunk.saturating_mul(MAX_PARTIALS);
    let mut sums = ChunkSums::<R>::new();
    for (xb, yb) in x.chunks(block).zip(y.chunks(block)) {
        pool::for_each_chunk(xb, chunk, |i, xc| {
            sums.set(i, dot_rows::<R>(xc, &yb[i * chunk..]));
        });
        sums.fold(xb.len().div_ceil(chunk));
    }
    sums.total
}

// The row kernels of the lane passes are functions of their own, not
// inlined into the chunk closures: as parameters the slices are known not to
// alias, which is what lets the lane loops vectorize (inlined, `xpby` at
// r = 1 ran 2.6× slower and the r = 4 passes 6–16 %).

/// Running per-lane sum of `x·y` over the rows of `x` (`y` may be longer).
#[inline(never)]
fn dot_rows<const R: usize>(x: &[f64], y: &[f64]) -> [f64; R] {
    let mut sum = [0.0; R];
    for (xr, yr) in x.as_chunks::<R>().0.iter().zip(y.as_chunks::<R>().0) {
        for c in 0..R {
            sum[c] += xr[c] * yr[c];
        }
    }
    sum
}

/// [`dot_multi`] for any `r`.
fn dot_any(x: &[f64], y: &[f64], r: usize, out: &mut [f64]) {
    let chunk = chunk_values(x.len(), r);
    let mut partials = vec![0.0; x.len().div_ceil(chunk) * r];
    pool::for_each_mut([(&mut partials[..], r)], |i, [acc]| {
        let (xc, yc) = (
            x[i * chunk..].chunks_exact(r),
            y[i * chunk..].chunks_exact(r),
        );
        for (xr, yr) in xc.zip(yc).take(chunk / r) {
            for c in 0..r {
                acc[c] += xr[c] * yr[c];
            }
        }
    });
    out.fill(0.0);
    for p in partials.chunks_exact(r) {
        for c in 0..r {
            out[c] += p[c];
        }
    }
}

/// Per-case `y[.,c] += alpha[c] * x[.,c]` on interleaved multi-vectors.
/// Cases with `active[c] == false` are left untouched (used to freeze
/// converged cases in the multi-RHS CG).
pub(crate) fn axpy_multi(alpha: &[f64], x: &[f64], y: &mut [f64], r: usize, active: &[bool]) {
    debug_assert_eq!(x.len(), y.len());
    debug_assert_eq!(alpha.len(), r);
    debug_assert_eq!(active.len(), r);
    let chunk = chunk_values(x.len(), r);
    pool::for_each_mut([(y, chunk)], |i, [yc]| {
        for (yr, xr) in yc.chunks_exact_mut(r).zip(x[i * chunk..].chunks_exact(r)) {
            for c in 0..r {
                if active[c] {
                    yr[c] += alpha[c] * xr[c];
                }
            }
        }
    });
}

/// Per-case `y[.,c] = x[.,c] + beta[c] * y[.,c]` on interleaved
/// multi-vectors, skipping inactive cases.
pub(crate) fn xpby_multi(x: &[f64], beta: &[f64], y: &mut [f64], r: usize, active: &[bool]) {
    debug_assert_eq!(x.len(), y.len());
    with_lanes!(
        r,
        R => xpby_lanes::<R>(x, lane_array(beta), y, lane_array(active)),
        _ => xpby_any(x, beta, y, r, active),
    );
}

fn xpby_lanes<const R: usize>(x: &[f64], beta: &[f64; R], y: &mut [f64], active: &[bool; R]) {
    let chunk = chunk_values(x.len(), R);
    pool::for_each_mut([(y, chunk)], |i, [yc]| {
        xpby_rows::<R>(&x[i * chunk..], beta, yc, active)
    });
}

/// `y = x + βy` on the active lanes of the rows of `y` (`x` may be longer).
#[inline(never)]
fn xpby_rows<const R: usize>(x: &[f64], beta: &[f64; R], y: &mut [f64], active: &[bool; R]) {
    for (yr, xr) in y
        .as_chunks_mut::<R>()
        .0
        .iter_mut()
        .zip(x.as_chunks::<R>().0)
    {
        for c in 0..R {
            // a select, never a multiply by zero: a frozen lane keeps its
            // bits even when it holds NaN
            yr[c] = if active[c] {
                xr[c] + beta[c] * yr[c]
            } else {
                yr[c]
            };
        }
    }
}

/// [`xpby_multi`] for any `r`.
fn xpby_any(x: &[f64], beta: &[f64], y: &mut [f64], r: usize, active: &[bool]) {
    let chunk = chunk_values(x.len(), r);
    pool::for_each_mut([(y, chunk)], |i, [yc]| {
        for (yr, xr) in yc.chunks_exact_mut(r).zip(x[i * chunk..].chunks_exact(r)) {
            for c in 0..r {
                if active[c] {
                    yr[c] = xr[c] + beta[c] * yr[c];
                }
            }
        }
    });
}

/// The solution/residual update of one MCG iteration in one pass over the
/// four multi-vectors: `x += αp` and `rv −= αq` on the active cases, and
/// `rr[c] = rv_c · rv_c` of the updated residual for every case. Bitwise
/// the sequence `axpy_multi(α, p, x)`, `axpy_multi(−α, q, rv)`,
/// `dot_multi(rv, rv, rr)`.
#[allow(clippy::too_many_arguments, reason = "four multi-vectors, one pass")]
pub(crate) fn cg_update_multi(
    alpha: &[f64],
    p: &[f64],
    q: &[f64],
    x: &mut [f64],
    rv: &mut [f64],
    r: usize,
    active: &[bool],
    rr: &mut [f64],
) {
    debug_assert!(p.len() == q.len() && p.len() == x.len() && p.len() == rv.len());
    with_lanes!(
        r,
        R => {
            let rr_lanes = cg_update_lanes::<R>(lane_array(alpha), p, q, x, rv, lane_array(active));
            rr.copy_from_slice(&rr_lanes);
        },
        _ => {
            let neg_alpha: Vec<f64> = alpha.iter().map(|a| -a).collect();
            axpy_multi(alpha, p, x, r, active);
            axpy_multi(&neg_alpha, q, rv, r, active);
            dot_any(rv, rv, r, rr);
        },
    );
}

fn cg_update_lanes<const R: usize>(
    alpha: &[f64; R],
    p: &[f64],
    q: &[f64],
    x: &mut [f64],
    rv: &mut [f64],
    active: &[bool; R],
) -> [f64; R] {
    let chunk = chunk_values(x.len(), R);
    let block = chunk.saturating_mul(MAX_PARTIALS);
    let mut sums = ChunkSums::<R>::new();
    let vectors = x.chunks_mut(block).zip(rv.chunks_mut(block));
    for ((xb, rb), (pb, qb)) in vectors.zip(p.chunks(block).zip(q.chunks(block))) {
        let chunks = xb.len().div_ceil(chunk);
        pool::for_each_mut([(xb, chunk), (rb, chunk)], |i, [xc, rc]| {
            let (pc, qc) = (&pb[i * chunk..], &qb[i * chunk..]);
            sums.set(i, cg_update_rows::<R>(alpha, pc, qc, xc, rc, active));
        });
        sums.fold(chunks);
    }
    sums.total
}

/// `x += αp`, `rv −= αq` on the active lanes of the rows of `x` / `rv` (`p`,
/// `q` may be longer), and the running per-lane sum of `rv·rv` over them.
#[inline(never)]
fn cg_update_rows<const R: usize>(
    alpha: &[f64; R],
    p: &[f64],
    q: &[f64],
    x: &mut [f64],
    rv: &mut [f64],
    active: &[bool; R],
) -> [f64; R] {
    let (p, q) = (p.as_chunks::<R>().0, q.as_chunks::<R>().0);
    let (x, rv) = (x.as_chunks_mut::<R>().0, rv.as_chunks_mut::<R>().0);
    let mut sum = [0.0; R];
    for ((xr, res), (pr, qr)) in x.iter_mut().zip(rv).zip(p.iter().zip(q)) {
        for c in 0..R {
            // selects: a frozen lane keeps its bits (see `xpby_rows`)
            let (xn, rn) = (xr[c] + alpha[c] * pr[c], res[c] + -alpha[c] * qr[c]);
            xr[c] = if active[c] { xn } else { xr[c] };
            res[c] = if active[c] { rn } else { res[c] };
        }
        for c in 0..R {
            sum[c] += res[c] * res[c];
        }
    }
    sum
}

/// `rv = f − rv` in place: the initial residual of a solve from `rv = A x`.
pub(crate) fn residual_multi(f: &[f64], rv: &mut [f64]) {
    debug_assert_eq!(f.len(), rv.len());
    let chunk = chunk_values(f.len(), 1);
    pool::for_each_mut([(rv, chunk)], |i, [rc]| {
        for (res, fv) in rc.iter_mut().zip(&f[i * chunk..]) {
            *res = fv - *res;
        }
    });
}

/// Gather case `c` of an interleaved multi-vector into a contiguous vector.
pub fn extract_case(x: &[f64], r: usize, c: usize, out: &mut [f64]) {
    debug_assert_eq!(x.len(), out.len() * r);
    for (i, o) in out.iter_mut().enumerate() {
        *o = x[i * r + c];
    }
}

/// Scatter a contiguous vector into case `c` of an interleaved multi-vector.
pub fn insert_case(x: &mut [f64], r: usize, c: usize, v: &[f64]) {
    debug_assert_eq!(x.len(), v.len() * r);
    for (i, vi) in v.iter().enumerate() {
        x[i * r + c] = *vi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dot product `x·y`, summed as [`dot_multi`] sums one case.
    fn dot(x: &[f64], y: &[f64]) -> f64 {
        dot_lanes::<1>(x, y)[0]
    }

    #[test]
    fn dot_small_and_large() {
        let n = PAR_THRESHOLD + 17;
        let x: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let y: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
        let seq: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - seq).abs() < 1e-9 * seq.abs().max(1.0));
        assert!((dot(&x[..10], &y[..10]) - 21.0).abs() < 1e-12); // 0+1+4+0+4+10+0+0+2+0
    }

    #[test]
    fn multi_dot_matches_per_case() {
        let r = 3;
        let n = 50;
        let x: Vec<f64> = (0..n * r).map(|i| (i as f64 * 0.1).sin()).collect();
        let y: Vec<f64> = (0..n * r).map(|i| (i as f64 * 0.2).cos()).collect();
        let mut out = vec![0.0; r];
        dot_multi(&x, &y, r, &mut out);
        for c in 0..r {
            let mut xc = vec![0.0; n];
            let mut yc = vec![0.0; n];
            extract_case(&x, r, c, &mut xc);
            extract_case(&y, r, c, &mut yc);
            assert!((out[c] - dot(&xc, &yc)).abs() < 1e-12);
        }
    }

    #[test]
    fn multi_axpy_respects_active_mask() {
        let r = 2;
        let x = vec![1.0, 100.0, 2.0, 200.0];
        let mut y = vec![0.0, 0.0, 0.0, 0.0];
        axpy_multi(&[2.0, 3.0], &x, &mut y, r, &[true, false]);
        assert_eq!(y, vec![2.0, 0.0, 4.0, 0.0]);
    }

    #[test]
    fn multi_xpby_respects_active_mask() {
        let r = 2;
        let x = vec![1.0, 10.0, 2.0, 20.0];
        let mut y = vec![5.0, 50.0, 6.0, 60.0];
        xpby_multi(&x, &[2.0, 2.0], &mut y, r, &[false, true]);
        assert_eq!(y, vec![5.0, 110.0, 6.0, 140.0]);
    }

    /// Row counts on both sides of `PAR_THRESHOLD` for every width: none a
    /// multiple of the partial length, then counts straddling one and two
    /// partials exactly.
    const ROWS: [usize; 9] = [
        37,
        PARTIAL_ROWS + 5,
        2 * PAR_THRESHOLD + 11,
        PARTIAL_ROWS - 1,
        PARTIAL_ROWS,
        PARTIAL_ROWS + 1,
        2 * PARTIAL_ROWS,
        4 * PARTIAL_ROWS,
        4 * PARTIAL_ROWS + 1,
    ];

    fn waves(len: usize, freq: f64) -> Vec<f64> {
        (0..len).map(|i| (i as f64 * freq).sin() + 0.25).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The documented summation order in plain loops on one thread: a
    /// running sum per `PARTIAL_ROWS` rows (one for a short vector), the
    /// partials added in row order.
    fn dot_oracle(x: &[f64], y: &[f64], r: usize) -> Vec<f64> {
        let rows = if x.len() < PAR_THRESHOLD {
            usize::MAX
        } else {
            PARTIAL_ROWS
        };
        let mut total = vec![0.0; r];
        let xy: Vec<(&[f64], &[f64])> = x.chunks(r).zip(y.chunks(r)).collect();
        for chunk in xy.chunks(rows) {
            let mut partial = vec![0.0; r];
            for (xr, yr) in chunk {
                for c in 0..r {
                    partial[c] += xr[c] * yr[c];
                }
            }
            for c in 0..r {
                total[c] += partial[c];
            }
        }
        total
    }

    /// Every pass at `rows` rows of width `r`, lanes against the any-`r`
    /// loops and both against single-thread oracles.
    fn check_passes(r: usize, rows: usize) {
        let len = rows * r;
        let (p, q) = (waves(len, 0.37), waves(len, 0.11));
        let (x0, r0) = (waves(len, 0.53), waves(len, 0.29));
        let alpha: Vec<f64> = (0..r).map(|c| 0.3 + 0.1 * c as f64).collect();
        let active: Vec<bool> = (0..r).map(|c| c % 3 != 1).collect();
        let at = format!("r={r} rows={rows} threads={}", pool::threads());

        let (mut d, mut d_ref) = (vec![0.0; r], vec![0.0; r]);
        dot_multi(&p, &q, r, &mut d);
        dot_any(&p, &q, r, &mut d_ref);
        assert_eq!(bits(&d), bits(&d_ref), "dot {at}");
        assert_eq!(bits(&d), bits(&dot_oracle(&p, &q, r)), "dot oracle {at}");

        let (mut y, mut y_ref) = (x0.clone(), x0.clone());
        xpby_multi(&p, &alpha, &mut y, r, &active);
        xpby_any(&p, &alpha, &mut y_ref, r, &active);
        assert_eq!(bits(&y), bits(&y_ref), "xpby {at}");
        for (i, v) in y.iter().enumerate() {
            let c = i % r;
            let want = if active[c] {
                p[i] + alpha[c] * x0[i]
            } else {
                x0[i]
            };
            assert_eq!(v.to_bits(), want.to_bits(), "xpby oracle {at} slot {i}");
        }

        let (mut x, mut rv, mut rr) = (x0.clone(), r0.clone(), vec![0.0; r]);
        cg_update_multi(&alpha, &p, &q, &mut x, &mut rv, r, &active, &mut rr);
        let (mut x_ref, mut rv_ref, mut rr_ref) = (x0.clone(), r0.clone(), vec![0.0; r]);
        let neg_alpha: Vec<f64> = alpha.iter().map(|a| -a).collect();
        axpy_multi(&alpha, &p, &mut x_ref, r, &active);
        axpy_multi(&neg_alpha, &q, &mut rv_ref, r, &active);
        dot_any(&rv_ref, &rv_ref, r, &mut rr_ref);
        assert_eq!(bits(&x), bits(&x_ref), "update x {at}");
        assert_eq!(bits(&rv), bits(&rv_ref), "update r {at}");
        assert_eq!(bits(&rr), bits(&rr_ref), "update rr {at}");
        assert_eq!(
            bits(&rr),
            bits(&dot_oracle(&rv, &rv, r)),
            "update rr oracle {at}"
        );
        for (i, v) in rv.iter().enumerate() {
            let c = i % r;
            let want = if active[c] {
                r0[i] + -alpha[c] * q[i]
            } else {
                r0[i]
            };
            assert_eq!(v.to_bits(), want.to_bits(), "update r oracle {at} slot {i}");
        }

        let mut res = r0.clone();
        residual_multi(&p, &mut res);
        assert!(
            (0..len).all(|i| res[i].to_bits() == (p[i] - r0[i]).to_bits()),
            "residual {at}"
        );
    }

    /// Each lane pass is bitwise the any-`r` sequence it replaces and the
    /// single-thread oracle of the documented order — below the threshold,
    /// above it, at row counts straddling the partial length, and on pools
    /// of one to four threads.
    #[test]
    fn lane_passes_match_the_any_width_loops_bitwise() {
        for threads in 1..=4 {
            pool::Pool::with_threads(threads).install(|| {
                for r in [1usize, 2, 4, 8] {
                    for rows in ROWS {
                        check_passes(r, rows);
                    }
                }
            });
        }
    }

    /// A reduction over more chunks than one fork-join holds partials for
    /// is folded fork-join by fork-join, in the same order.
    #[test]
    fn reductions_longer_than_one_fork_join_keep_the_order() {
        let rows = (MAX_PARTIALS + 1) * PARTIAL_ROWS + 7;
        for threads in [1, 3] {
            pool::Pool::with_threads(threads).install(|| check_passes(1, rows));
        }
    }

    /// A frozen lane full of NaN keeps every bit through the update passes
    /// and leaves the other lanes' sums alone.
    #[test]
    fn frozen_nan_lane_is_untouched_and_isolated() {
        let (r, rows, frozen) = (4usize, ROWS[1], 2usize);
        let len = rows * r;
        let poison = f64::from_bits(0x7ff8_0000_dead_beef);
        let poisoned = |freq: f64| {
            let mut v = waves(len, freq);
            v.iter_mut()
                .skip(frozen)
                .step_by(r)
                .for_each(|x| *x = poison);
            v
        };
        let alpha = [0.4, 0.5, f64::NAN, 0.7];
        let active = [true, true, false, true];

        let (p, q) = (poisoned(0.37), poisoned(0.11));
        let (mut x, mut rv, mut rr) = (poisoned(0.53), poisoned(0.29), vec![0.0; r]);
        cg_update_multi(&alpha, &p, &q, &mut x, &mut rv, r, &active, &mut rr);
        let mut y = poisoned(0.53);
        xpby_multi(&p, &alpha, &mut y, r, &active);
        for v in [&x, &rv, &y] {
            assert!(v
                .iter()
                .skip(frozen)
                .step_by(r)
                .all(|x| x.to_bits() == poison.to_bits()));
        }

        // the same pass with a finite frozen lane: every other lane agrees
        let (p, q) = (waves(len, 0.37), waves(len, 0.11));
        let (mut x_ref, mut rv_ref, mut rr_ref) =
            (waves(len, 0.53), waves(len, 0.29), vec![0.0; r]);
        cg_update_multi(
            &alpha,
            &p,
            &q,
            &mut x_ref,
            &mut rv_ref,
            r,
            &active,
            &mut rr_ref,
        );
        assert!(rr[frozen].is_nan());
        for c in (0..r).filter(|&c| c != frozen) {
            assert_eq!(rr[c].to_bits(), rr_ref[c].to_bits(), "rr lane {c}");
            for i in 0..rows {
                assert_eq!(x[i * r + c].to_bits(), x_ref[i * r + c].to_bits());
                assert_eq!(rv[i * r + c].to_bits(), rv_ref[i * r + c].to_bits());
            }
        }
    }

    #[test]
    fn case_roundtrip() {
        let r = 4;
        let n = 6;
        let mut x = vec![0.0; n * r];
        let v: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        insert_case(&mut x, r, 2, &v);
        let mut back = vec![0.0; n];
        extract_case(&x, r, 2, &mut back);
        assert_eq!(v, back);
        // other cases untouched
        let mut other = vec![1.0; n];
        extract_case(&x, r, 0, &mut other);
        assert!(other.iter().all(|&o| o == 0.0));
    }

    #[test]
    fn multi_ops_large_path() {
        let r = 2;
        let n = PAR_THRESHOLD; // total length 2*PAR_THRESHOLD > threshold
        let x: Vec<f64> = (0..n * r).map(|i| ((i * 37) % 11) as f64).collect();
        let mut y = vec![1.0; n * r];
        let mut expect = y.clone();
        for (i, e) in expect.iter_mut().enumerate() {
            let c = i % r;
            *e += [0.5, -0.25][c] * x[i];
        }
        axpy_multi(&[0.5, -0.25], &x, &mut y, r, &[true, true]);
        for i in 0..y.len() {
            assert!((y[i] - expect[i]).abs() < 1e-12);
        }
    }
}
