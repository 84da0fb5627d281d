//! A warm step allocates nothing that grows with the problem: the set
//! step owns its working memory (DESIGN.md §5), so once the predictor
//! history is full, every buffer a step touches — packed lanes, the MCG
//! workspace, the predictor's per-thread scratch — already exists.
//!
//! The steps between two step boundaries are measured as the difference
//! of two runs that crash there (`FaultPlan::crash_at`): both runs build
//! the same backend-side state and the same load, so what remains is the
//! steps in between.
//!
//! A CRS backend's set-up allocates a few dozen blocks, not one per
//! element or per matrix block, and at its peak holds little more than
//! the backend it returns: assembly is count-first and streams the element
//! kernel, so only the element matrices that rows still to be merged read
//! are live at once, never every element's (DESIGN.md §17).
//!
//! The counters are process-wide, so the tests of this binary take
//! [`EXCLUSIVE`] before they count: a neighbouring test allocating on
//! another thread would be counted too. Debug builds allocate the parcheck
//! claim table (one word per DOF) in every colored scatter, so the tests
//! that count allocations run in release builds only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use hetsolve::core::WindowPolicy;
use hetsolve::fem::FemProblem;
use hetsolve::prelude::*;

// Relaxed: pure statistics, they publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK_LIVE: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK_LIVE.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// `System`, plus a count of allocations and of bytes requested, and the
/// bytes live now and at their peak.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract the caller already upholds; the counters are
// atomics touched before the call and never influence the returned memory.
#[allow(unsafe_code, reason = "the counting allocator wraps `System`")]
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the trait's contract, forwarded unchanged to `System`.
    #[allow(unsafe_code, reason = "a `GlobalAlloc` method")]
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        grow(layout.size());
        // SAFETY: same layout, same contract as the caller's.
        #[allow(unsafe_code, reason = "forwards to `System`")]
        unsafe {
            System.alloc(layout)
        }
    }

    // SAFETY: the trait's contract, forwarded unchanged to `System`.
    #[allow(unsafe_code, reason = "a `GlobalAlloc` method")]
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        #[allow(unsafe_code, reason = "forwards to `System`")]
        unsafe {
            System.dealloc(ptr, layout)
        }
    }

    // SAFETY: the trait's contract, forwarded unchanged to `System`.
    #[allow(unsafe_code, reason = "a `GlobalAlloc` method")]
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        match new_size.checked_sub(layout.size()) {
            Some(more) => grow(more),
            None => shrink(layout.size() - new_size),
        }
        // SAFETY: `ptr` came from `System` through this wrapper with `layout`.
        #[allow(unsafe_code, reason = "forwards to `System`")]
        unsafe {
            System.realloc(ptr, layout, new_size)
        }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test while it counts.
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Allocations and bytes of `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    let (a1, b1) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    (out, a1 - a0, b1 - b0)
}

/// Live bytes of `f` above the level at its start: at their peak, and
/// still held when it returns.
fn live_rise<T>(f: impl FnOnce() -> T) -> (T, i64, i64) {
    let live0 = LIVE.load(Ordering::Relaxed);
    PEAK_LIVE.store(live0, Ordering::Relaxed);
    let out = f();
    let (peak, live1) = (
        PEAK_LIVE.load(Ordering::Relaxed),
        LIVE.load(Ordering::Relaxed),
    );
    (out, peak as i64 - live0 as i64, live1 as i64 - live0 as i64)
}

/// Allocations and bytes of a run of `cfg` that crashes at step `at`.
fn until_crash(backend: &Backend, cfg: &RunConfig, at: usize) -> (u64, u64) {
    let mut plan = FaultPlan::new(0).crash_at(at);
    let (out, allocs, bytes) =
        counted(|| run_with(backend, cfg, Hooks::default().faults(&mut plan)));
    assert!(matches!(out, Err(RunError::Crashed { step }) if step == at));
    (allocs, bytes)
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
    let _only = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
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

/// `Backend::new` with the assembled matrix at 9,537 DOF: the compact
/// element data, the sweep plan, the block-Jacobi blocks and one
/// count-first assembly, in a bounded number of allocations (38,749
/// before assembly was count-first).
#[test]
#[cfg_attr(debug_assertions, ignore = "parcheck claim table")]
fn crs_backend_setup_allocates_a_bounded_number_of_blocks() {
    let _only = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let spec = GroundModelSpec::paper_like(8, 8, 5, InterfaceShape::Basin);
    let problem = FemProblem::paper_like(&spec);
    assert_eq!(problem.n_dofs(), 9537);
    let (backend, allocs, bytes) = counted(|| Backend::new(problem, true, false));
    assert!(backend.has_crs());
    println!("Backend::new(.., true, false) at 9,537 DOF: {allocs} allocations, {bytes} bytes");
    assert!(
        allocs <= 200,
        "{allocs} allocations ({bytes} bytes) in set-up"
    );
}

/// `Backend::new` with the assembled matrix at 9,537 DOF rises above its
/// starting live bytes by at most what the finished backend holds plus
/// 4 MiB: the slab of element matrices streamed assembly keeps live
/// (444 of 1,920 elements, 3.2 MiB) and the incidences and diagonal
/// blocks of set-up. Every element's matrices at once are 13.6 MiB.
#[test]
fn crs_backend_setup_peaks_near_what_it_keeps() {
    let _only = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
    let spec = GroundModelSpec::paper_like(8, 8, 5, InterfaceShape::Basin);
    let problem = FemProblem::paper_like(&spec);
    assert_eq!(problem.n_dofs(), 9537);
    let (backend, peak, held) = live_rise(|| Backend::new(problem, true, false));
    assert!(backend.has_crs());
    println!("Backend::new(.., true, false) at 9,537 DOF: holds {held} B, peaks {peak} B above its start");
    let working = peak - held;
    assert!(
        working <= 4 << 20,
        "set-up peaks {working} B above the {held} B the backend holds"
    );
}
