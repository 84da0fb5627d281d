//! The data-driven initial-guess predictor of the paper (§3.2), following
//! its reference \[6\] (and \[7\] = dynamic mode decomposition):
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
//!
//! The snapshots are stored as `f32`. The predicted correction only has to
//! be a good initial guess, not an exact one: CG refines it to its
//! tolerance, so halving what a retained step costs in CPU memory moves
//! iteration counts, not accuracy. Each column is rounded once, as it is
//! recorded, and widened exactly to `f64` wherever it is read: the MGS
//! factor, the projection and the back-substitution run in `f64` as
//! before. MGS takes the window's columns newest first and drops those
//! that the newer ones express up to that rounding (`DROP_TOL`), so the
//! basis stays orthonormal and the columns it loses are the oldest.
//!
//! The history checks and repairs itself. [`DataDrivenPredictor::record`]
//! takes the CRC32 of each column's `f32` bit patterns as it stores it and
//! keeps one XOR parity column over the bit patterns of all stored columns.
//! A step boundary asks [`DataDrivenPredictor::corrupt_columns`] which
//! columns no longer match their CRC, and
//! [`DataDrivenPredictor::repair_column`] rebuilds one of them bitwise from
//! the parity and the others. So the integrity guards of `hetsolve-core`
//! never copy the history, and a column is covered from the moment it is
//! recorded.
//!
//! The store holds at most `s_max + 1` columns, and fewer where the caller
//! knows a smaller window is all it will ask for:
//! [`DataDrivenPredictor::retain_newest`] drops the oldest columns beyond
//! a count (the adaptive driver keeps what its window can reach) and keeps
//! the storage of one of them for the next record.
//!
//! A prediction's working storage is a [`PredictorScratch`] that its
//! caller owns (a run's set step), so one run allocates what the next
//! identical one does, whatever ran before it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use hetsolve_crc::Crc32;
use hetsolve_sparse::KernelCounts;

use crate::mgs::MgsQr;

/// Snapshot store + per-region prediction.
#[derive(Debug, Clone)]
pub struct DataDrivenPredictor {
    n_dofs: usize,
    /// DOFs per region (last region may be smaller).
    region_dofs: usize,
    /// Maximum snapshots retained (`s_max + 1` corrections).
    s_max: usize,
    /// Correction history rounded to `f32`, oldest front, newest back.
    history: VecDeque<Vec<f32>>,
    /// CRC32 of each stored column, taken when it was stored.
    crcs: VecDeque<u32>,
    /// XOR of the `f32` bit patterns of every stored column; empty until
    /// the first column is stored.
    parity: Vec<u32>,
    /// Storage of a column [`Self::retain_newest`] dropped, which the next
    /// [`Self::record`] writes into instead of allocating. Not history.
    spare: Option<Vec<f32>>,
}

/// MGS drop tolerance, relative to a column's norm. A column that the
/// newer ones express exactly still keeps, once the store has rounded it
/// and them to `f32`, a residual of their rounding errors weighted by the
/// coefficients that express it: up to about 24 `f32::EPSILON` of its
/// norm on the smooth sequences of the unit tests. A basis that keeps such
/// a direction is orthogonal only to 1e-9 … 1e-8, so those columns are
/// dropped, with a margin of more than two.
const DROP_TOL: f64 = 64.0 * f32::EPSILON as f64;

/// CRC32 of a column's `f32` bit patterns.
fn crc_col(col: &[f32]) -> u32 {
    Crc32::new().update_f32s(col).finish()
}

/// XOR the bit patterns of `col` into `parity`.
fn xor_into(parity: &mut [u32], col: &[f32]) {
    for (p, v) in parity.iter_mut().zip(col) {
        *p ^= v.to_bits();
    }
}

/// One thread's working storage for a region's prediction: the MGS
/// factor, its running residual (then the widened input column), and the
/// projection and weight vectors.
#[derive(Debug, Default)]
struct Scratch {
    qr: MgsQr,
    work: Vec<f64>,
    c: Vec<f64>,
    w: Vec<f64>,
}

impl Scratch {
    /// Room for regions of up to `m` rows and windows of up to `s` columns.
    fn grow(&mut self, m: usize, s: usize) {
        if self.work.len() < m {
            self.work.resize(m, 0.0);
        }
        grow(&mut self.qr.q, m * s);
        grow(&mut self.qr.r, s * s);
        grow(&mut self.qr.kept, s);
        grow(&mut self.c, s);
        grow(&mut self.w, s);
    }
}

/// The working storage of [`DataDrivenPredictor::predict_with`] and
/// [`DataDrivenPredictor::basis_defect`]: one MGS factor and its vectors
/// per thread of the current pool, each sized for the largest region and
/// window it has been asked for, all at once, then reused by every
/// region, step and predictor. Its owner decides how long it lives, so
/// what it allocates belongs to that owner (a run's set step) and not to
/// whichever run first used a thread. Empty, and free, until a prediction
/// sizes it.
#[derive(Debug, Default)]
pub struct PredictorScratch {
    slots: Vec<Mutex<Scratch>>,
}

impl PredictorScratch {
    /// One slot per thread of the current pool, each with room for
    /// regions of up to `m` rows and windows of up to `s` columns.
    fn fit(&mut self, m: usize, s: usize) {
        let threads = hetsolve_pool::threads();
        if self.slots.len() < threads {
            self.slots.resize_with(threads, Mutex::default);
        }
        for slot in &mut self.slots {
            slot.get_mut()
                .unwrap_or_else(PoisonError::into_inner)
                .grow(m, s);
        }
    }

    /// Run `f` on a slot no other thread holds. A pool's threads never
    /// outnumber the slots [`Self::fit`] made, so one is always free; the
    /// wait on the first is only a fallback.
    fn with_slot<T>(&self, f: impl FnOnce(&mut Scratch) -> T) -> T {
        let mut slot = self
            .slots
            .iter()
            .find_map(|slot| slot.try_lock().ok())
            .unwrap_or_else(|| self.slots[0].lock().unwrap_or_else(PoisonError::into_inner));
        f(&mut slot)
    }
}

/// Make room for `cap` entries in `v`, exactly, if it has less.
fn grow<T>(v: &mut Vec<T>, cap: usize) {
    if v.capacity() < cap {
        v.reserve_exact(cap - v.len());
    }
}

/// `v` as `len` zeros, in its own storage.
fn refill(v: &mut Vec<f64>, len: usize) {
    v.clear();
    v.resize(len, 0.0);
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
            crcs: VecDeque::with_capacity(s_max + 1),
            parity: Vec::new(),
            spare: None,
        }
    }

    /// Record the correction of the step just solved
    /// (`δ = u_true − ū_adams`), rounded to `f32`.
    ///
    /// A correction that is non-finite once rounded (a poisoned snapshot,
    /// or a value past `f32::MAX`) is rejected and the whole history is
    /// dropped: every stored column would otherwise keep pairing with the
    /// poisoned one in future X/Y windows, so the basis is rebuilt from
    /// scratch. Returns `false` when that reset happened.
    ///
    /// The column's CRC is taken and the parity updated (the evicted column
    /// XORed out, the new one in) while the column is written.
    pub fn record(&mut self, delta: &[f64]) -> bool {
        assert_eq!(delta.len(), self.n_dofs);
        if delta.iter().any(|&v| !(v as f32).is_finite()) {
            self.clear();
            return false;
        }
        if self.parity.is_empty() {
            self.parity = vec![0; self.n_dofs];
        }
        let col = if self.history.len() == self.s_max + 1 {
            let mut old = self.history.pop_front().expect("len checked");
            self.crcs.pop_front();
            for ((p, o), &d) in self.parity.iter_mut().zip(old.iter_mut()).zip(delta) {
                let d = d as f32;
                *p ^= o.to_bits() ^ d.to_bits();
                *o = d;
            }
            old
        } else {
            let mut col = self.spare.take().unwrap_or_default();
            col.clear();
            col.extend(delta.iter().map(|&d| d as f32));
            xor_into(&mut self.parity, &col);
            col
        };
        self.crcs.push_back(crc_col(&col));
        self.history.push_back(col);
        true
    }

    /// Drop the oldest stored columns beyond the newest `keep`: each is
    /// XORed out of the parity and its CRC dropped, so the checks cover
    /// exactly what is left. The storage of one of them is kept for the
    /// next [`Self::record`]; the rest is freed. A later prediction reads
    /// the newest `s + 1` columns, so one at a window `s < keep` is
    /// unchanged; one at a wider window finds the history too short.
    pub fn retain_newest(&mut self, keep: usize) {
        let dropped = self.history.len().saturating_sub(keep);
        self.crcs.drain(..dropped);
        for col in self.history.drain(..dropped) {
            xor_into(&mut self.parity, &col);
            self.spare.get_or_insert(col);
        }
    }

    /// Rebuild the CRCs and the parity from the stored columns.
    fn rebuild_checks(&mut self) {
        self.crcs = self.history.iter().map(|c| crc_col(c)).collect();
        self.parity.clear();
        if !self.history.is_empty() {
            self.parity.resize(self.n_dofs, 0);
            for col in &self.history {
                xor_into(&mut self.parity, col);
            }
        }
    }

    /// Stored columns (oldest first) whose bits no longer match the CRC
    /// taken when they were stored; empty on a clean history. Read-only.
    /// `parallel` checks one column per chunk of the host pool.
    pub fn corrupt_columns(&self, parallel: bool) -> Vec<usize> {
        let bad = |i: usize| crc_col(&self.history[i]) != self.crcs[i];
        let len = self.history.len();
        if !parallel {
            return (0..len).filter(|&i| bad(i)).collect();
        }
        let found = Mutex::new(Vec::new());
        hetsolve_pool::run(len, |i| {
            if bad(i) {
                found.lock().unwrap_or_else(PoisonError::into_inner).push(i);
            }
        });
        let mut found = found.into_inner().unwrap_or_else(PoisonError::into_inner);
        found.sort_unstable();
        found
    }

    /// Rebuild stored column `idx` (oldest first) from the parity and the
    /// other columns. The result replaces the column only if it matches
    /// the column's recorded CRC — which holds, bitwise, when `idx` is the
    /// only column that changed since it was stored. Returns whether it
    /// did.
    pub fn repair_column(&mut self, idx: usize) -> bool {
        if idx >= self.history.len() {
            return false;
        }
        let mut bits = self.parity.clone();
        for (j, col) in self.history.iter().enumerate() {
            if j != idx {
                xor_into(&mut bits, col);
            }
        }
        let col: Vec<f32> = bits.into_iter().map(f32::from_bits).collect();
        if crc_col(&col) != self.crcs[idx] {
            return false;
        }
        self.history[idx] = col;
        true
    }

    /// Snapshot the correction history (oldest first) for a checkpoint.
    pub fn history(&self) -> Vec<Vec<f32>> {
        self.history.iter().cloned().collect()
    }

    /// Mutable access to stored column `idx` (oldest first) — the fault
    /// layer's basis-corruption hook. Returns `None` when out of range.
    /// Deliberately updates neither the column's CRC nor the parity, so a
    /// write through it is what [`Self::corrupt_columns`] reports.
    pub fn column_mut(&mut self, idx: usize) -> Option<&mut [f32]> {
        self.history.get_mut(idx).map(|v| v.as_mut_slice())
    }

    /// Restore a history snapshot taken by
    /// [`DataDrivenPredictor::history`] (oldest first). Columns must be
    /// `n_dofs` long; only the newest `s_max + 1` are kept.
    pub fn restore_history(&mut self, hist: Vec<Vec<f32>>) {
        self.history.clear();
        for v in hist {
            assert_eq!(v.len(), self.n_dofs, "restored column has wrong length");
            self.history.push_back(v);
        }
        while self.history.len() > self.s_max + 1 {
            self.history.pop_front();
        }
        self.rebuild_checks();
    }

    /// Largest usable window with the current history (needs `s+1` stored
    /// corrections).
    pub fn available_s(&self) -> usize {
        self.history.len().saturating_sub(1)
    }

    /// Number of regions.
    pub(crate) fn n_regions(&self) -> usize {
        self.n_dofs.div_ceil(self.region_dofs)
    }

    /// [`Self::predict_with`] in working storage of its own, made for this
    /// one call.
    pub fn predict(&self, s: usize, out: &mut [f64]) -> bool {
        self.predict_with(s, out, &mut PredictorScratch::default())
    }

    /// Predict the next correction `δ̄^it` into `out` using window `s`,
    /// working in `scratch`. Returns `false` (and zeroes `out`) when the
    /// history is too short.
    pub fn predict_with(&self, s: usize, out: &mut [f64], scratch: &mut PredictorScratch) -> bool {
        assert_eq!(out.len(), self.n_dofs);
        let s = s.min(self.s_max);
        if s < 1 || self.history.len() < s + 1 {
            out.fill(0.0);
            return false;
        }
        let h = &self.history;
        let len = h.len();
        // columns newest first: X_i = h[len-2-i], Y_i = h[len-1-i], input
        // = h[len-1], each read in place and widened to f64 as it is read.
        // MGS keeps a column only where it adds a direction to the ones
        // before it, so a dependent window loses its oldest columns, the
        // furthest from the input.
        let rdofs = self.region_dofs;
        scratch.fit(rdofs, self.s_max);
        let scratch = &*scratch;
        // one region per pool chunk: regions share nothing but the history
        hetsolve_pool::for_each_mut([(out, rdofs)], |reg, [out_r]| {
            let lo = reg * rdofs;
            let m = out_r.len();
            let window = |col: usize| &h[col][lo..lo + m];
            scratch.with_slot(|Scratch { qr, work, c, w }| {
                let work = &mut work[..m];
                qr.factor(|i| window(len - 2 - i), m, s, DROP_TOL, work);
                if qr.rank() == 0 {
                    out_r.fill(0.0);
                    return;
                }
                // the factor is done with its residual: the input column,
                // widened once, takes its place
                for (x, &v) in work.iter_mut().zip(window(len - 1)) {
                    *x = f64::from(v);
                }
                refill(c, qr.rank());
                qr.project(work, c);
                refill(w, s);
                qr.back_substitute(c, w);
                out_r.fill(0.0);
                for i in 0..s {
                    if w[i] != 0.0 {
                        for (o, &yv) in out_r.iter_mut().zip(window(len - 1 - i)) {
                            *o += w[i] * f64::from(yv);
                        }
                    }
                }
            });
        });
        true
    }

    /// Hardware-independent cost of `predict(s)`: MGS (`≈ 2 m s²` per
    /// region) + projection/synthesis (`≈ 4 m s`), summed over regions, all
    /// streaming access. The bytes are those of the paper's `f64`
    /// snapshots, not of this store's `f32` ones: the modeled clock speaks
    /// about the paper's implementation.
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
        self.crcs.clear();
        self.parity.fill(0);
    }

    /// Invariant sentinel: factor the newest window-`s` snapshot matrix of
    /// every region (exactly as [`DataDrivenPredictor::predict`] would)
    /// and return the worst per-region
    /// orthogonality defect (`MgsQr::orthogonality_defect`).
    /// Any non-finite entry in the window (including the input column)
    /// reports as `f64::INFINITY` — `mgs_qr` would silently drop such a
    /// column and degrade rank, which is exactly the silent failure the
    /// sentinel exists to surface. Bit flips that leave the history
    /// finite are the state-guard checksum's to catch: MGS re-orthonorms
    /// whatever it is given, so the defect cannot see them. `None` when
    /// the history is too short for window `s`. Read-only — the predictor
    /// state and any later prediction are untouched. Runs one region per
    /// pool chunk in `scratch`, as `predict_with` does.
    pub fn basis_defect(&self, s: usize, scratch: &mut PredictorScratch) -> Option<f64> {
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
        let (rdofs, n) = (self.region_dofs, self.n_dofs);
        scratch.fit(rdofs, self.s_max);
        let scratch = &*scratch;
        // A defect is +0.0, positive or +inf, never NaN or -0.0, so the
        // order of the bit patterns is the order of the values and a
        // `fetch_max` over them is the region-order `max`, whichever
        // thread finishes first. `Relaxed`: the value publishes no other
        // data, and the pool's join orders every update before the read.
        let worst = AtomicU64::new(0.0f64.to_bits());
        hetsolve_pool::run(self.n_regions(), |reg| {
            let lo = reg * rdofs;
            let m = rdofs.min(n - lo);
            let window = |i: usize| &h[len - 2 - i][lo..lo + m];
            let defect = scratch.with_slot(|Scratch { qr, work, .. }| {
                qr.factor(window, m, s, DROP_TOL, &mut work[..m]);
                qr.orthogonality_defect()
            });
            worst.fetch_max(defect.to_bits(), Ordering::Relaxed);
        });
        Some(f64::from_bits(worst.into_inner()))
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
        // five f32 columns of n, an n-long u32 parity and five CRCs: the
        // retained storage of s_max + 1 steps
        assert_eq!((p.history.len(), p.crcs.len()), (5, 5));
        assert!(p.history.iter().all(|c| c.len() == n));
        assert_eq!(p.parity.len(), n);
        let bytes: usize = p.history.iter().map(|c| size_of_val(&c[..])).sum();
        assert_eq!(bytes, 5 * n * 4);
        assert_eq!(size_of_val(&p.parity[..]), n * 4);
    }

    /// `δ^k = c` for every `k`: the prediction is the constant the store
    /// holds, which is `c` rounded to `f32`, so that rounded constant is
    /// the oracle, and `c` itself is met to within the `f32` rounding.
    #[test]
    fn constant_sequence_is_fixed_point() {
        let n = 24;
        let c: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos() + 2.0).collect();
        let mut p = DataDrivenPredictor::new(n, 9, 8);
        for _ in 0..6 {
            p.record(&c);
        }
        let mut out = vec![0.0; n];
        assert!(p.predict(5, &mut out));
        // rank-deficient (all columns equal): MGS keeps one column and the
        // map reproduces the constant as stored
        let stored: Vec<f64> = c.iter().map(|&v| f64::from(v as f32)).collect();
        let e = rel_err(&out, &stored);
        assert!(e < 1e-9, "error {e}");
        let e = rel_err(&out, &c);
        assert!(e < f64::from(f32::EPSILON), "error against c: {e}");
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
        let scratch = &mut PredictorScratch::default();
        assert!(
            p.basis_defect(64, scratch).is_some(),
            "window clamps to s_max"
        );
        let clean = p.basis_defect(8, scratch).expect("enough history");
        assert!(clean < 1e-10, "clean defect {clean}");
        // sentinel is read-only: prediction after the check is unchanged
        let mut before = vec![0.0; n];
        assert!(p.predict(8, &mut before));
        p.basis_defect(8, scratch);
        let mut after = vec![0.0; n];
        assert!(p.predict(8, &mut after));
        for (a, b) in after.iter().zip(&before) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // a non-finite entry in the window surfaces as an infinite defect
        // (mgs_qr alone would silently drop the column and degrade rank)
        let newest = p.available_s(); // history holds available_s()+1 columns
        let col = p.column_mut(newest).expect("in range");
        col[7] = f32::NAN;
        let bad = p.basis_defect(8, scratch).expect("enough history");
        assert!(bad.is_infinite(), "corrupt defect {bad}");
        assert!(p.column_mut(99).is_none());
        // too little history -> None, not a bogus 0
        let q = DataDrivenPredictor::new(12, 12, 4);
        assert!(q.basis_defect(2, scratch).is_none());
    }

    /// Distinct deterministic columns, `k` the record index.
    fn column(n: usize, k: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7 + k * 13) as f64 * 0.29).sin() * (1.0 + k as f64))
            .collect()
    }

    /// `v` rounded to the store's `f32`.
    fn rounded(v: &[f64]) -> Vec<f32> {
        v.iter().map(|&x| x as f32).collect()
    }

    /// The history's bits, oldest first.
    fn bits(p: &DataDrivenPredictor) -> Vec<Vec<u32>> {
        p.history
            .iter()
            .map(|c| c.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// Flip one bit in the oldest, a middle and the newest column in turn:
    /// the check names exactly that column (serial and on the pool), and
    /// the repair restores it bitwise.
    fn assert_flips_are_found_and_repaired(p: &DataDrivenPredictor) {
        let len = p.history.len();
        assert!(len >= 3, "history of {len}");
        let clean = bits(p);
        let pool = hetsolve_pool::Pool::with_threads(2);
        for parallel in [false, true] {
            assert!(pool.install(|| p.corrupt_columns(parallel)).is_empty());
        }
        for (idx, dof, bit) in [(0, 3, 23), (len / 2, 11, 0), (len - 1, 29, 31)] {
            let mut q = p.clone();
            let col = q.column_mut(idx).expect("in range");
            col[dof] = f32::from_bits(col[dof].to_bits() ^ (1 << bit));
            for parallel in [false, true] {
                let bad = pool.install(|| q.corrupt_columns(parallel));
                assert_eq!(bad, [idx], "column {idx}, parallel {parallel}");
            }
            assert!(q.repair_column(idx), "column {idx}");
            assert_eq!(bits(&q), clean, "column {idx} repaired bitwise");
            assert!(q.corrupt_columns(false).is_empty());
        }
    }

    #[test]
    fn history_checks_and_repairs_itself_through_ring_wrap_around() {
        let (n, s_max) = (40, 4);
        let mut p = DataDrivenPredictor::new(n, 12, s_max);
        for k in 0..3 * (s_max + 1) {
            assert!(p.record(&column(n, k)));
            if k >= 2 {
                assert_flips_are_found_and_repaired(&p);
            }
        }
        assert_eq!(p.history.len(), s_max + 1);
        // the stored columns are the newest ones, in order, rounded
        let want: Vec<Vec<f32>> = (2 * (s_max + 1)..3 * (s_max + 1))
            .map(|k| rounded(&column(n, k)))
            .collect();
        assert_eq!(p.history(), want);
    }

    /// A trim of several columns leaves checks that cover exactly the
    /// columns kept: none reads corrupt, and a flip in any of them is
    /// found and repaired bitwise from the parity. Predictions at windows
    /// the kept columns serve are bitwise those of the untrimmed history;
    /// a wider one declines. The next records write into the storage the
    /// trim kept and the history stays checked through them.
    #[test]
    fn a_trimmed_history_checks_repairs_and_predicts_as_before() {
        let (n, s_max) = (40, 8);
        let mut full = DataDrivenPredictor::new(n, 12, s_max);
        for k in 0..s_max + 1 {
            full.record(&column(n, k));
        }
        let mut p = full.clone();
        p.retain_newest(4);
        assert_eq!((p.history.len(), p.crcs.len(), p.available_s()), (4, 4, 3));
        assert_eq!(bits(&p)[..], bits(&full)[s_max + 1 - 4..]);
        assert!(p.corrupt_columns(false).is_empty());
        assert_flips_are_found_and_repaired(&p);
        let bits_of = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let scratch = &mut PredictorScratch::default();
        for s in 1..=3 {
            let (mut want, mut got) = (vec![0.0; n], vec![0.0; n]);
            assert!(full.predict_with(s, &mut want, scratch));
            assert!(p.predict_with(s, &mut got, scratch));
            assert_eq!(bits_of(&got), bits_of(&want), "s = {s}");
            assert_eq!(p.basis_defect(s, scratch), full.basis_defect(s, scratch));
        }
        let mut out = vec![1.0; n];
        assert!(
            !p.predict_with(4, &mut out, scratch),
            "four columns serve s <= 3"
        );
        assert!(out.iter().all(|&v| v == 0.0));
        // a trim to more than is held changes nothing
        let before = bits(&p);
        p.retain_newest(s_max + 1);
        assert_eq!(bits(&p), before);
        // the next record takes the kept storage; the history grows again
        let spare = p.spare.as_ref().map(|c| c.as_ptr());
        assert!(spare.is_some(), "the trim keeps one column's storage");
        assert!(p.record(&column(n, 50)));
        assert_eq!(p.history.back().map(|c| c.as_ptr()), spare);
        assert!(p.spare.is_none());
        assert!(p.record(&column(n, 51)));
        assert_eq!(p.history.len(), 6);
        let want: Vec<Vec<f32>> = (s_max + 1 - 4..s_max + 1)
            .chain([50, 51])
            .map(|k| rounded(&column(n, k)))
            .collect();
        assert_eq!(p.history(), want);
        assert_flips_are_found_and_repaired(&p);
    }

    #[test]
    fn history_checks_survive_restore_clear_and_nan_reset() {
        let (n, s_max) = (40, 4);
        let mut p = DataDrivenPredictor::new(n, 12, s_max);
        for k in 0..7 {
            p.record(&column(n, k));
        }
        // a restore rebuilds the checks (and keeps the newest s_max + 1)
        let mut q = DataDrivenPredictor::new(n, 12, s_max);
        q.restore_history((0..8).map(|k| rounded(&column(n, k))).collect());
        assert_eq!(q.history.len(), s_max + 1);
        assert_flips_are_found_and_repaired(&q);
        q.record(&column(n, 8));
        assert_flips_are_found_and_repaired(&q);
        // a clear, and the reset of a non-finite record, start over clean
        for reset in [
            |p: &mut DataDrivenPredictor| p.clear(),
            |p: &mut DataDrivenPredictor| {
                let mut bad = column(p.n_dofs, 99);
                bad[5] = f64::NAN;
                assert!(!p.record(&bad));
            },
        ] {
            let mut q = p.clone();
            reset(&mut q);
            assert!(q.corrupt_columns(false).is_empty());
            assert!(!q.repair_column(0), "nothing to repair");
            for k in 20..24 {
                q.record(&column(n, k));
            }
            assert_flips_are_found_and_repaired(&q);
        }
        // two bad columns: each repair fails its CRC and changes nothing
        let mut q = p.clone();
        q.column_mut(0).expect("in range")[1] += 1.0;
        q.column_mut(2).expect("in range")[1] += 1.0;
        let before = bits(&q);
        assert_eq!(q.corrupt_columns(false), [0, 2]);
        assert!(!q.repair_column(0) && !q.repair_column(2));
        assert_eq!(bits(&q), before);
    }

    /// The history widened to `f64` columns, oldest first.
    fn widened(p: &DataDrivenPredictor) -> Vec<Vec<f64>> {
        p.history
            .iter()
            .map(|c| c.iter().map(|&v| f64::from(v)).collect())
            .collect()
    }

    /// The oracle of the copy-free `predict`: the history widened to
    /// `f64`, then per region `X` and `Y` copied out contiguously and
    /// factored by `mgs_qr` in fresh storage.
    fn predict_from_copies(p: &DataDrivenPredictor, s: usize, out: &mut [f64]) {
        let h = widened(p);
        let (len, rdofs) = (h.len(), p.region_dofs);
        for (reg, out_r) in out.chunks_mut(rdofs).enumerate() {
            let (lo, m) = (reg * rdofs, out_r.len());
            let (mut x, mut y) = (vec![0.0; m * s], vec![0.0; m * s]);
            for i in 0..s {
                x[i * m..(i + 1) * m].copy_from_slice(&h[len - 2 - i][lo..lo + m]);
                y[i * m..(i + 1) * m].copy_from_slice(&h[len - 1 - i][lo..lo + m]);
            }
            let qr = crate::mgs::mgs_qr(&x, m, s, DROP_TOL);
            out_r.fill(0.0);
            if qr.rank() == 0 {
                continue;
            }
            let mut c = vec![0.0; qr.rank()];
            qr.project(&h[len - 1][lo..lo + m], &mut c);
            let mut w = vec![0.0; s];
            qr.back_substitute(&c, &mut w);
            for i in 0..s {
                if w[i] != 0.0 {
                    for (o, yv) in out_r.iter_mut().zip(&y[i * m..(i + 1) * m]) {
                        *o += w[i] * yv;
                    }
                }
            }
        }
    }

    /// [`DataDrivenPredictor::basis_defect`] from contiguous copies.
    fn basis_defect_from_copies(p: &DataDrivenPredictor, s: usize) -> f64 {
        let h = widened(p);
        let (len, rdofs) = (h.len(), p.region_dofs);
        let mut worst = 0.0f64;
        for lo in (0..p.n_dofs).step_by(rdofs) {
            let m = rdofs.min(p.n_dofs - lo);
            let x: Vec<f64> = (0..s)
                .flat_map(|i| h[len - 2 - i][lo..lo + m].iter().copied())
                .collect();
            worst = worst.max(crate::mgs::mgs_qr(&x, m, s, DROP_TOL).orthogonality_defect());
        }
        worst
    }

    /// The copy-free prediction, and the pooled basis defect, are bitwise
    /// those from widened contiguous copies: across ring wrap-around, at
    /// `s = 1` and `s = s_max`, with a rank-deficient window and a short
    /// last region, called again and again on pools of one and two
    /// threads, in one scratch that carries over from call to call, from
    /// pool to pool and from predictor to predictor.
    #[test]
    fn copy_free_predict_is_bitwise_the_copied_one() {
        let (n, s_max) = (100, 6);
        let seq = modal_sequence(n, 4 * (s_max + 1), 3);
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let mut scratch = PredictorScratch::default();
        let mut check = |p: &DataDrivenPredictor, what: &str| {
            for s in [1, s_max / 2, s_max]
                .into_iter()
                .filter(|&s| s <= p.available_s())
            {
                let mut want = vec![0.0; n];
                predict_from_copies(p, s, &mut want);
                for threads in [1, 2] {
                    let pool = hetsolve_pool::Pool::with_threads(threads);
                    for call in 0..3 {
                        let mut got = vec![f64::NAN; n];
                        assert!(pool.install(|| p.predict_with(s, &mut got, &mut scratch)));
                        let at = format!("{what}, s {s}, {threads} threads, call {call}");
                        assert_eq!(bits(&got), bits(&want), "{at}");
                        let defect = pool.install(|| p.basis_defect(s, &mut scratch));
                        let defect = defect.expect("history");
                        let want = basis_defect_from_copies(p, s);
                        assert_eq!(defect.to_bits(), want.to_bits(), "{at}");
                    }
                }
            }
        };
        // regions of 24: the last one holds 4 DOFs
        let mut p = DataDrivenPredictor::new(n, 24, s_max);
        for (k, d) in seq.iter().enumerate() {
            p.record(d);
            if k >= 1 {
                check(&p, &format!("record {k}"));
            }
        }
        // a rank-deficient window: the same column over and over, then a
        // repeat of two columns
        let mut q = DataDrivenPredictor::new(n, 24, s_max);
        for d in std::iter::repeat_n(&seq[3], 4).chain([&seq[5], &seq[3], &seq[5]]) {
            q.record(d);
        }
        check(&q, "rank-deficient");
        // a wider region than the last predictor's grows the scratch again
        let mut wide = DataDrivenPredictor::new(n, 60, s_max);
        for d in &seq[..s_max + 1] {
            wide.record(d);
        }
        check(&wide, "regions of 60");
        check(&p, "regions of 24 after 60");
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
        // a finite f64 past f32::MAX is non-finite once stored: rejected
        // the same way
        bad[7] = 1e39;
        assert!(!p.record(&bad), "overflowing snapshot must be rejected");
        assert_eq!(p.available_s(), 0);
    }
}
