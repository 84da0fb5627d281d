//! Concurrency-correctness layer for the parallel EBE scatter.
//!
//! # The one unsafe contract in this workspace
//!
//! The EBE kernel (`hetsolve_fem::CompactEbe`) accumulates per-element
//! results into the shared output vector from many threads at once. No
//! atomics are used; instead the work of an apply is cut into **blocks** —
//! contiguous runs of the stored element (or face) order that one thread
//! walks serially — and the blocks are grouped into **phases** so that
//! **no two blocks of one phase share a node**, which makes the write sets
//! of concurrently running blocks disjoint. That invariant — not the type
//! system — is what makes the scatter sound. Entities *inside* a block may
//! share nodes freely: one thread adds them one after another.
//!
//! [`ColorScatter`] is the one place that pattern lives:
//!
//! * it owns the **single audited `unsafe impl Send`/`Sync` pair in the
//!   workspace** besides the pool's (the workspace denies `unsafe_code`, so
//!   another needs its own reasoned `#[allow]` and a `// SAFETY:` comment);
//! * the operator's plan (`hetsolve_fem::ScatterPlan`) runs the one
//!   validator, `hetsolve_mesh::validate_runs`, once over the element and
//!   the face runs, so a structurally broken phase assignment fails loudly
//!   before any scatter;
//! * under `cfg(debug_assertions)` or the `racecheck` feature, every write
//!   is recorded in an epoch-tagged per-slot claim table and a same-phase
//!   overlap panics with both block ids — catching assignments that pass
//!   no static check (e.g. hand-constructed phases) at the exact write
//!   that would have raced;
//! * in release without `racecheck`, [`ColorScatter::add`] compiles to the
//!   bare `*ptr.add(slot) += v`: zero overhead.
//!
//! # Safety argument
//!
//! `ColorScatter` wraps the raw output pointer of an exclusively borrowed
//! `&mut [f64]`, so for its whole lifetime no other safe code can observe
//! the buffer. Shared (`&self`) mutation through the pointer is restricted
//! to [`ColorScatter::add`] and its lane-array form
//! [`ColorScatter::add_lanes`] (one call for the `R` fused-RHS slots of a
//! DOF), `unsafe fn`s whose contract is:
//!
//! 1. every written slot is `< len` (debug-asserted), and
//! 2. within one phase (between two [`ColorScatter::begin_phase`] calls),
//!    at most one block writes any given slot, and a block's writes all
//!    come from one thread.
//!
//! Callers discharge (2) by handing each block of a validated phase to one
//! chunk of one fork-join. `begin_phase` takes `&mut self`, so phases are
//! serialized by the borrow checker; writes *within* a phase are disjoint
//! across blocks by (2) and sequential inside a block; therefore no two
//! threads ever write the same location without a synchronization point
//! between them, and the `Send`/`Sync` impls are sound. The claim table
//! turns a violated (2) into a deterministic panic instead of silent UB.

use std::marker::PhantomData;

#[cfg(any(debug_assertions, feature = "racecheck"))]
use std::sync::atomic::{AtomicU64, Ordering};

/// Shared handle for race-free phase-parallel accumulation into one output
/// slice. See the module docs for the full safety argument.
pub struct ColorScatter<'a> {
    ptr: *mut f64,
    len: usize,
    /// Current phase, bumped by [`Self::begin_phase`]; 0 = none started
    /// yet.
    #[cfg(any(debug_assertions, feature = "racecheck"))]
    epoch: u32,
    /// Per-slot claim: `epoch << 32 | block + 1` of the last writer.
    #[cfg(any(debug_assertions, feature = "racecheck"))]
    claims: Vec<AtomicU64>,
    _borrow: PhantomData<&'a mut [f64]>,
}

// SAFETY: the raw pointer targets an exclusively borrowed `&mut [f64]`
// (no aliasing with safe code for the scatter's lifetime), and the `add`
// contract guarantees the blocks of one phase write disjoint slots while
// phases are serialized through `begin_phase(&mut self)`.
#[allow(unsafe_code, reason = "phase blocks scatter via one shared pointer")]
unsafe impl Send for ColorScatter<'_> {}

// SAFETY: same argument as `Send` — `&ColorScatter` only exposes `add`,
// whose contract forbids two blocks of one phase writing one slot; the claim
// table (debug/racecheck builds) verifies that contract dynamically.
#[allow(unsafe_code, reason = "phase blocks scatter via one shared pointer")]
unsafe impl Sync for ColorScatter<'_> {}

impl<'a> ColorScatter<'a> {
    /// Wrap an output slice for phased accumulation. The slice keeps
    /// whatever contents it has (kernels zero-fill before wrapping).
    pub fn new(y: &'a mut [f64]) -> Self {
        ColorScatter {
            ptr: y.as_mut_ptr(),
            len: y.len(),
            #[cfg(any(debug_assertions, feature = "racecheck"))]
            epoch: 0,
            #[cfg(any(debug_assertions, feature = "racecheck"))]
            claims: y.iter().map(|_| AtomicU64::new(0)).collect(),
            _borrow: PhantomData,
        }
    }

    /// Slots in the wrapped output.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether writes are being recorded in the claim table (debug builds
    /// or the `racecheck` feature).
    pub fn racecheck_enabled() -> bool {
        cfg!(any(debug_assertions, feature = "racecheck"))
    }

    /// Start a phase. Must be called before the first `add` and again at
    /// every phase boundary; `&mut self` serializes phases, establishing
    /// the synchronization point between them.
    pub fn begin_phase(&mut self) {
        #[cfg(any(debug_assertions, feature = "racecheck"))]
        {
            self.epoch = self.epoch.checked_add(1).expect("phase epoch overflow");
        }
    }

    /// Accumulate `v` into `slot` on behalf of `block` (a run id — any id
    /// unique among the blocks of the current phase).
    ///
    /// # Safety
    ///
    /// `slot` must be in bounds; within the current phase no *different*
    /// block may write the same slot, and all writes of one block must come
    /// from one thread — guaranteed when each block of a phase validated by
    /// `hetsolve_mesh::validate_runs` over the connectivity being scattered
    /// is one chunk of one fork-join.
    /// Debug/racecheck builds verify bounds and block-disjointness and
    /// panic on violation; release builds compile to the bare accumulate.
    #[inline]
    #[allow(unsafe_code, reason = "unsynchronised write; phases exclude races")]
    pub unsafe fn add(&self, block: u32, slot: usize, v: f64) {
        self.claim(block, slot);
        debug_assert!(
            slot < self.len,
            "scatter slot {slot} out of bounds ({})",
            self.len
        );
        // SAFETY: `slot < len` per the contract (checked above in debug);
        // concurrent calls never target the same slot per the phase
        // contract, so the read-modify-write cannot race.
        #[allow(unsafe_code, reason = "the bare accumulate via the raw pointer")]
        unsafe {
            *self.ptr.add(slot) += v;
        }
    }

    /// Accumulate the lane array `v` into the `R` consecutive slots
    /// `dof * R .. (dof + 1) * R` on behalf of `block` — the `R` fused
    /// right-hand sides of one DOF of an interleaved multi-vector, as one
    /// read-modify-write. Equivalent to `R` calls of [`Self::add`].
    ///
    /// # Safety
    ///
    /// Exactly [`Self::add`]'s contract for each of the `R` slots:
    /// `(dof + 1) * R <= len`, and within the current phase no *different*
    /// block may write any of them. Debug/racecheck builds claim and
    /// verify every slot and panic on violation; release builds compile to
    /// the bare lane accumulate.
    #[inline(always)]
    #[allow(unsafe_code, reason = "unsynchronised write; phases exclude races")]
    pub unsafe fn add_lanes<const R: usize>(&self, block: u32, dof: usize, v: &[f64; R]) {
        for c in 0..R {
            self.claim(block, dof * R + c);
        }
        debug_assert!(
            (dof + 1) * R <= self.len,
            "scatter DOF {dof} x {R} lanes out of bounds ({})",
            self.len
        );
        // SAFETY: the `R` slots are in bounds per the contract (checked
        // above in debug); concurrent calls never target the same slots per
        // the phase contract, so the read-modify-write cannot race.
        #[allow(unsafe_code, reason = "the bare lane accumulate via the raw pointer")]
        unsafe {
            let p = self.ptr.add(dof * R);
            for c in 0..R {
                *p.add(c) += v[c];
            }
        }
    }

    /// Release builds without `racecheck`: no claim table, nothing to
    /// record — [`Self::add`] is the bare accumulate.
    #[cfg(not(any(debug_assertions, feature = "racecheck")))]
    #[inline(always)]
    fn claim(&self, _block: u32, _slot: usize) {}

    /// Record `block`'s write to `slot` and panic if another block already
    /// wrote it within the current phase — the data race the phase
    /// invariant is supposed to exclude.
    #[cfg(any(debug_assertions, feature = "racecheck"))]
    fn claim(&self, block: u32, slot: usize) {
        assert!(
            slot < self.len,
            "scatter slot {slot} out of bounds ({})",
            self.len
        );
        assert!(
            self.epoch > 0,
            "ColorScatter::begin_phase() must precede add()"
        );
        let tag = ((self.epoch as u64) << 32) | (block as u64 + 1);
        let prev = self.claims[slot].swap(tag, Ordering::Relaxed);
        let (prev_epoch, prev_block) = ((prev >> 32) as u32, (prev & 0xffff_ffff) as u32);
        if prev_block != 0 && prev_epoch == self.epoch && prev_block != block + 1 {
            panic!(
                "parcheck: race on output slot {slot}: blocks {} and {block} both \
                 wrote it in phase {} — same-phase blocks share a DOF, the \
                 phase invariant is violated",
                prev_block - 1,
                self.epoch,
            );
        }
    }
}

#[cfg(test)]
#[allow(unsafe_code, reason = "tests break the scatter contract on purpose")]
mod tests {
    use super::*;

    /// Disjoint writes across two owners in one pass, and same-slot writes
    /// across *different* passes, are both fine; sums must be exact.
    #[test]
    fn disjoint_and_cross_pass_writes_accumulate() {
        let mut y = vec![0.0f64; 8];
        let mut scatter = ColorScatter::new(&mut y);
        scatter.begin_phase();
        // SAFETY: owners 0/1 write disjoint slots within this pass.
        unsafe {
            scatter.add(0, 0, 1.0);
            scatter.add(0, 1, 2.0);
            scatter.add(1, 4, 3.0);
        }
        scatter.begin_phase();
        // SAFETY: single owner this pass; slot 0 rewrite is a new pass.
        unsafe {
            scatter.add(7, 0, 10.0);
        }
        assert_eq!(y[0], 11.0);
        assert_eq!(y[1], 2.0);
        assert_eq!(y[4], 3.0);
    }

    /// One block may hit the same slot repeatedly (the elements of a run
    /// share nodes; one thread adds them one after another).
    #[test]
    fn same_owner_rewrites_are_allowed() {
        let mut y = vec![0.0f64; 4];
        let mut scatter = ColorScatter::new(&mut y);
        scatter.begin_phase();
        // SAFETY: a single owner cannot race with itself.
        unsafe {
            scatter.add(3, 2, 1.5);
            scatter.add(3, 2, 1.5);
        }
        assert_eq!(y[2], 3.0);
    }

    #[test]
    #[cfg_attr(not(any(debug_assertions, feature = "racecheck")), ignore)]
    #[should_panic(expected = "parcheck: race on output slot")]
    fn same_pass_overlap_panics() {
        let mut y = vec![0.0f64; 4];
        let mut scatter = ColorScatter::new(&mut y);
        scatter.begin_phase();
        // SAFETY: serial execution — the "race" is two owners claiming one
        // slot in a single pass, which the claim table must reject.
        unsafe {
            scatter.add(0, 1, 1.0);
            scatter.add(1, 1, 1.0);
        }
    }

    /// `add_lanes` is `R` `add`s: every lane lands in its own slot, and a
    /// later pass may rewrite the same DOF.
    #[test]
    fn add_lanes_accumulates_each_lane() {
        let mut y = vec![1.0f64; 12];
        let mut scatter = ColorScatter::new(&mut y);
        scatter.begin_phase();
        // SAFETY: owners 0/1 write disjoint DOFs (0 and 2) within this pass.
        unsafe {
            scatter.add_lanes::<4>(0, 0, &[1.0, 2.0, 3.0, 4.0]);
            scatter.add_lanes::<4>(1, 2, &[5.0, 6.0, 7.0, 8.0]);
        }
        scatter.begin_phase();
        // SAFETY: single owner this pass; DOF 0 rewrite is a new pass.
        unsafe {
            scatter.add_lanes::<4>(9, 0, &[10.0; 4]);
        }
        assert_eq!(y[..4], [12.0, 13.0, 14.0, 15.0]);
        assert_eq!(y[4..8], [1.0; 4]);
        assert_eq!(y[8..], [6.0, 7.0, 8.0, 9.0]);
    }

    /// `add_lanes` claims every slot it writes: an `add` by another owner
    /// into any one of them in the same pass is the race.
    #[test]
    #[cfg_attr(not(any(debug_assertions, feature = "racecheck")), ignore)]
    #[should_panic(expected = "parcheck: race on output slot 7")]
    fn add_lanes_same_pass_overlap_panics() {
        let mut y = vec![0.0f64; 8];
        let mut scatter = ColorScatter::new(&mut y);
        scatter.begin_phase();
        // SAFETY: serial execution — the "race" is owner 1 claiming the
        // last lane of the DOF owner 0 wrote, which the claim table must
        // reject.
        unsafe {
            scatter.add_lanes::<4>(0, 1, &[1.0; 4]);
            scatter.add(1, 7, 1.0);
        }
    }

    #[test]
    #[cfg_attr(not(any(debug_assertions, feature = "racecheck")), ignore)]
    #[should_panic(expected = "out of bounds")]
    fn add_lanes_out_of_bounds_panics() {
        let mut y = vec![0.0f64; 6];
        let mut scatter = ColorScatter::new(&mut y);
        scatter.begin_phase();
        // SAFETY: serial; DOF 1 x 4 lanes ends at slot 8 > 6, which the
        // claim check must reject before the write.
        unsafe {
            scatter.add_lanes::<4>(0, 1, &[1.0; 4]);
        }
    }

    #[test]
    #[cfg_attr(not(any(debug_assertions, feature = "racecheck")), ignore)]
    #[should_panic(expected = "begin_phase")]
    fn add_without_pass_panics() {
        let mut y = vec![0.0f64; 2];
        let scatter = ColorScatter::new(&mut y);
        // SAFETY: serial; checking the missing-begin_phase guard.
        unsafe {
            scatter.add(0, 0, 1.0);
        }
    }

    /// The claim table must detect overlap even under genuinely concurrent
    /// same-pass writers (the exact scenario a broken coloring produces on
    /// the real thread pool).
    #[test]
    #[cfg_attr(not(any(debug_assertions, feature = "racecheck")), ignore)]
    fn concurrent_overlap_is_detected() {
        let mut y = vec![0.0f64; 1];
        let mut scatter = ColorScatter::new(&mut y);
        scatter.begin_phase();
        let caught = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u32)
                .map(|owner| {
                    let scatter = &scatter;
                    s.spawn(move || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            for _ in 0..1000 {
                                // SAFETY: intentionally violating the
                                // phase contract to test detection.
                                unsafe { scatter.add(owner, 0, 1.0) };
                            }
                        }))
                        .is_err()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(true))
                .filter(|&caught| caught)
                .count()
        });
        assert!(caught >= 1, "at least one writer must observe the race");
    }

    /// The same violation inside a pass the host pool runs: whichever
    /// thread writes second panics, and the pool re-raises it on the
    /// caller with the claim table's message.
    #[test]
    #[cfg_attr(not(any(debug_assertions, feature = "racecheck")), ignore)]
    #[should_panic(expected = "parcheck: race on output slot 0")]
    fn overlap_inside_a_pool_pass_panics_on_the_caller() {
        let mut y = vec![0.0f64; 1];
        let mut scatter = ColorScatter::new(&mut y);
        scatter.begin_phase();
        let scatter = &scatter;
        hetsolve_pool::Pool::with_threads(2).install(|| {
            hetsolve_pool::run(2, |owner| {
                // SAFETY: intentionally violating the phase contract
                // (two blocks, one slot) to test detection; the claim
                // table panics before the second write lands.
                unsafe { scatter.add(owner as u32, 0, 1.0) };
            })
        });
    }
}
