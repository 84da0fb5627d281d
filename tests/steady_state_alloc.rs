//! A warm step allocates nothing that grows with the problem: the set
//! step owns its working memory (DESIGN.md §5), so once the predictor
//! history is full, every buffer a step touches — packed lanes, the MCG
//! workspace, the predictor's per-thread scratch — already exists.
//!
//! The steps between two step boundaries are measured as the difference
//! of two runs that crash there (`FaultPlan::crash_at`): both runs build
//! the same backend-side state and the same load, so what remains is the
//! steps in between. This is the only test of its binary: the counters
//! are process-wide, and a neighbouring test allocating on another thread
//! would be counted too. Debug builds allocate the parcheck claim table
//! (one word per DOF) in every colored scatter, so the test runs in
//! release builds only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use hetsolve::core::WindowPolicy;
use hetsolve::fem::FemProblem;
use hetsolve::prelude::*;

// Relaxed: pure statistics, they publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// `System`, plus a count of allocations and of bytes requested.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counters are
// atomics touched before the call and never influence the returned memory.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the trait's contract, forwarded unchanged to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same layout, same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the trait's contract, forwarded unchanged to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the trait's contract, forwarded unchanged to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes of a run of `cfg` that crashes at step `at`.
fn until_crash(backend: &Backend, cfg: &RunConfig, at: usize) -> (u64, u64) {
    let mut plan = FaultPlan::new(0).crash_at(at);
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = run_with(backend, cfg, Hooks::default().faults(&mut plan));
    let counts = (
        ALLOCS.load(Ordering::Relaxed) - a0,
        BYTES.load(Ordering::Relaxed) - b0,
    );
    assert!(matches!(out, Err(RunError::Crashed { step }) if step == at));
    counts
}

/// Allocations and bytes per step over steps `from..to` of `cfg`.
fn per_step(backend: &Backend, cfg: &RunConfig, from: usize, to: usize) -> (f64, f64) {
    // a first run grows whatever grows once per thread (the pool's workers,
    // the predictor's scratch) before anything is counted
    until_crash(backend, cfg, to);
    let (a_from, b_from) = until_crash(backend, cfg, from);
    let (a_to, b_to) = until_crash(backend, cfg, to);
    let steps = (to - from) as f64;
    (
        (a_to as f64 - a_from as f64) / steps,
        (b_to as f64 - b_from as f64) / steps,
    )
}

#[test]
#[cfg_attr(debug_assertions, ignore = "parcheck claim table")]
fn warm_steps_allocate_nothing_that_grows_with_the_problem() {
    // start the process-wide pool's workers outside any count
    hetsolve::pool::run(hetsolve::pool::threads().max(2), |_| ());
    let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
    let backend = Backend::new(FemProblem::paper_like(&spec), true, true);
    // the predictor history is full (s_max + 1 columns) from step 5 on;
    // steps 8..40 include a basis-sentinel step (every 32)
    let (from, to) = (8, 40);
    for method in [MethodKind::EbeMcgCpuGpu, MethodKind::CrsCgCpu] {
        let mut cfg = RunConfig::new(method, single_gh200(), to + 4);
        (cfg.r, cfg.s_max) = (4, 4);
        assert!(cfg.integrity.detect && cfg.window == WindowPolicy::Adaptive);
        let (allocs, bytes) = per_step(&backend, &cfg, from, to);
        println!(
            "{}: {allocs} allocations, {bytes} bytes per step",
            method.label()
        );
        assert!(
            allocs <= 4.0 && bytes < 1024.0,
            "{}: {allocs} allocations and {bytes} bytes per warm step",
            method.label()
        );
    }
}
