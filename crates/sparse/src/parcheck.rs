//! Concurrency-correctness layer for the color-parallel EBE scatter.
//!
//! # The one unsafe contract in this workspace
//!
//! Every EBE kernel (cached-matrix, compact matrix-free) accumulates
//! per-element results into the shared output
//! vector from many threads at once. No atomics are used; instead, the
//! mesh is colored so that **no two elements (or faces) of the same color
//! share a node**, which makes every same-color write set disjoint. That
//! invariant — not the type system — is what makes the scatter sound.
//!
//! Before this module existed, each kernel carried its own copy of a
//! `SendPtr(*mut f64)` wrapper with its own `unsafe impl Send/Sync`, and
//! nothing ever checked the invariant. [`ColorScatter`] centralizes the
//! pattern:
//!
//! * it owns the **single audited `unsafe impl Send`/`Sync` pair in the
//!   workspace** (`cargo xtask lint` fails the build if another appears);
//! * constructors of the EBE operators call
//!   [`hetsolve_mesh::coloring::validate_groups`] once, so a structurally
//!   broken coloring fails loudly at build time of the operator;
//! * under `cfg(debug_assertions)` or the `racecheck` feature, every write
//!   is recorded in an epoch-tagged per-slot claim table and a same-pass
//!   overlap panics with both writer ids — catching colorings that pass
//!   no static check (e.g. hand-constructed groups) at the exact write
//!   that would have raced;
//! * in release without `racecheck`, [`ColorScatter::add`] compiles to the
//!   raw `*ptr.add(slot) += v` the kernels used before: zero overhead.
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
//! 2. within one color pass (between two [`ColorScatter::begin_color`]
//!    calls), at most one owner writes any given slot.
//!
//! Callers discharge (2) by iterating elements of a single validated color
//! group per pass. `begin_color` takes `&mut self`, so passes are
//! serialized by the borrow checker; writes *within* a pass are disjoint
//! by (2); therefore no two threads ever write the same location without
//! a synchronization point between them, and the `Send`/`Sync` impls are
//! sound. The claim table turns a violated (2) into a deterministic panic
//! instead of silent UB.

use std::marker::PhantomData;

#[cfg(any(debug_assertions, feature = "racecheck"))]
use std::sync::atomic::{AtomicU64, Ordering};

/// Entities (elements or faces) of one color group per chunk of a parallel
/// pass: small enough that a thread arriving late still finds work, large
/// enough (≈ 5–15 µs of kernel) that claiming a chunk costs nothing.
pub const GROUP_CHUNK: usize = 32;

/// Shared handle for race-free color-parallel accumulation into one output
/// slice. See the module docs for the full safety argument.
pub struct ColorScatter<'a> {
    ptr: *mut f64,
    len: usize,
    /// Current color pass, bumped by [`Self::begin_color`]; 0 = no pass
    /// started yet.
    #[cfg(any(debug_assertions, feature = "racecheck"))]
    epoch: u32,
    /// Per-slot claim: `epoch << 32 | owner + 1` of the last writer.
    #[cfg(any(debug_assertions, feature = "racecheck"))]
    claims: Vec<AtomicU64>,
    _borrow: PhantomData<&'a mut [f64]>,
}

// SAFETY: the raw pointer targets an exclusively borrowed `&mut [f64]`
// (no aliasing with safe code for the scatter's lifetime), and the `add`
// contract guarantees same-pass writes are slot-disjoint while passes are
// serialized through `begin_color(&mut self)`. This is the single blessed
// Send impl in the workspace; `cargo xtask lint` rejects any other.
unsafe impl Send for ColorScatter<'_> {}

// SAFETY: same argument as `Send` — `&ColorScatter` only exposes `add`,
// whose contract forbids overlapping same-pass writes; the claim table
// (debug/racecheck builds) verifies that contract dynamically.
unsafe impl Sync for ColorScatter<'_> {}

impl<'a> ColorScatter<'a> {
    /// Wrap an output slice for colored accumulation. The slice keeps
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

    /// Start a color pass. Must be called before the first `add` and again
    /// for every color group; `&mut self` serializes passes, establishing
    /// the synchronization point between them.
    pub fn begin_color(&mut self) {
        #[cfg(any(debug_assertions, feature = "racecheck"))]
        {
            self.epoch = self
                .epoch
                .checked_add(1)
                .expect("color-pass epoch overflow");
        }
    }

    /// Accumulate `v` into `slot` on behalf of `owner` (an element or face
    /// id — any id unique within the current color group).
    ///
    /// # Safety
    ///
    /// `slot` must be in bounds, and within the current color pass no
    /// *different* owner may write the same slot — guaranteed when owners
    /// come from one color group of a coloring validated by
    /// `hetsolve_mesh::coloring::validate_groups` over the connectivity
    /// being scattered. Debug/racecheck builds verify both conditions and
    /// panic on violation; release builds compile to the bare accumulate.
    #[inline]
    pub unsafe fn add(&self, owner: u32, slot: usize, v: f64) {
        self.claim(owner, slot);
        debug_assert!(
            slot < self.len,
            "scatter slot {slot} out of bounds ({})",
            self.len
        );
        // SAFETY: `slot < len` per the contract (checked above in debug);
        // concurrent calls never target the same slot per the color-pass
        // contract, so the read-modify-write cannot race.
        unsafe {
            *self.ptr.add(slot) += v;
        }
    }

    /// Accumulate the lane array `v` into the `R` consecutive slots
    /// `dof * R .. (dof + 1) * R` on behalf of `owner` — the `R` fused
    /// right-hand sides of one DOF of an interleaved multi-vector, as one
    /// read-modify-write. Equivalent to `R` calls of [`Self::add`].
    ///
    /// # Safety
    ///
    /// Exactly [`Self::add`]'s contract for each of the `R` slots:
    /// `(dof + 1) * R <= len`, and within the current color pass no
    /// *different* owner may write any of them. Debug/racecheck builds
    /// claim and verify every slot and panic on violation; release builds
    /// compile to the bare lane accumulate.
    #[inline(always)]
    pub unsafe fn add_lanes<const R: usize>(&self, owner: u32, dof: usize, v: &[f64; R]) {
        for c in 0..R {
            self.claim(owner, dof * R + c);
        }
        debug_assert!(
            (dof + 1) * R <= self.len,
            "scatter DOF {dof} x {R} lanes out of bounds ({})",
            self.len
        );
        // SAFETY: the `R` slots are in bounds per the contract (checked
        // above in debug); concurrent calls never target the same slots per
        // the color-pass contract, so the read-modify-write cannot race.
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
    fn claim(&self, _owner: u32, _slot: usize) {}

    /// Record `owner`'s write to `slot` and panic if another owner already
    /// wrote it within the current color pass — the data race the coloring
    /// invariant is supposed to exclude.
    #[cfg(any(debug_assertions, feature = "racecheck"))]
    fn claim(&self, owner: u32, slot: usize) {
        assert!(
            slot < self.len,
            "scatter slot {slot} out of bounds ({})",
            self.len
        );
        assert!(
            self.epoch > 0,
            "ColorScatter::begin_color() must precede add()"
        );
        let tag = ((self.epoch as u64) << 32) | (owner as u64 + 1);
        let prev = self.claims[slot].swap(tag, Ordering::Relaxed);
        let (prev_epoch, prev_owner) = ((prev >> 32) as u32, (prev & 0xffff_ffff) as u32);
        if prev_owner != 0 && prev_epoch == self.epoch && prev_owner != owner + 1 {
            panic!(
                "parcheck: race on output slot {slot}: owners {} and {owner} both \
                 wrote it in color pass {} — same-color entities share a DOF, \
                 the coloring invariant is violated",
                prev_owner - 1,
                self.epoch,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Disjoint writes across two owners in one pass, and same-slot writes
    /// across *different* passes, are both fine; sums must be exact.
    #[test]
    fn disjoint_and_cross_pass_writes_accumulate() {
        let mut y = vec![0.0f64; 8];
        let mut scatter = ColorScatter::new(&mut y);
        scatter.begin_color();
        // SAFETY: owners 0/1 write disjoint slots within this pass.
        unsafe {
            scatter.add(0, 0, 1.0);
            scatter.add(0, 1, 2.0);
            scatter.add(1, 4, 3.0);
        }
        scatter.begin_color();
        // SAFETY: single owner this pass; slot 0 rewrite is a new pass.
        unsafe {
            scatter.add(7, 0, 10.0);
        }
        assert_eq!(y[0], 11.0);
        assert_eq!(y[1], 2.0);
        assert_eq!(y[4], 3.0);
    }

    /// One owner may hit the same slot repeatedly (e.g. an element whose
    /// local scatter loop touches a DOF once per fused RHS slot).
    #[test]
    fn same_owner_rewrites_are_allowed() {
        let mut y = vec![0.0f64; 4];
        let mut scatter = ColorScatter::new(&mut y);
        scatter.begin_color();
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
        scatter.begin_color();
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
        scatter.begin_color();
        // SAFETY: owners 0/1 write disjoint DOFs (0 and 2) within this pass.
        unsafe {
            scatter.add_lanes::<4>(0, 0, &[1.0, 2.0, 3.0, 4.0]);
            scatter.add_lanes::<4>(1, 2, &[5.0, 6.0, 7.0, 8.0]);
        }
        scatter.begin_color();
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
        scatter.begin_color();
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
        scatter.begin_color();
        // SAFETY: serial; DOF 1 x 4 lanes ends at slot 8 > 6, which the
        // claim check must reject before the write.
        unsafe {
            scatter.add_lanes::<4>(0, 1, &[1.0; 4]);
        }
    }

    #[test]
    #[cfg_attr(not(any(debug_assertions, feature = "racecheck")), ignore)]
    #[should_panic(expected = "begin_color")]
    fn add_without_pass_panics() {
        let mut y = vec![0.0f64; 2];
        let scatter = ColorScatter::new(&mut y);
        // SAFETY: serial; checking the missing-begin_color guard.
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
        scatter.begin_color();
        let caught = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u32)
                .map(|owner| {
                    let scatter = &scatter;
                    s.spawn(move || {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            for _ in 0..1000 {
                                // SAFETY: intentionally violating the
                                // color-pass contract to test detection.
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
        scatter.begin_color();
        let scatter = &scatter;
        hetsolve_pool::Pool::with_threads(2).install(|| {
            hetsolve_pool::run(2, |owner| {
                // SAFETY: intentionally violating the color-pass contract
                // (two owners, one slot) to test detection; the claim
                // table panics before the second write lands.
                unsafe { scatter.add(owner as u32, 0, 1.0) };
            })
        });
    }
}
