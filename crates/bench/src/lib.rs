//! # hetsolve-bench
//!
//! Shared helpers for the benchmark harnesses that regenerate every table
//! and figure of the paper's evaluation section (see `DESIGN.md` §4 for the
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured records):
//!
//! * `benches/tables.rs` — Tables 1–4 (`cargo bench --bench tables`),
//! * `benches/figures.rs` — Figs. 1, 3, 4, 5 (`cargo bench --bench figures`),
//! * `benches/ablation.rs` — design-choice ablations (EBE storage, the
//!   pooled block sweep, region size, window size, partitioners, fusing).

use hetsolve_core::Backend;
use hetsolve_fem::{FemProblem, RandomLoadSpec};
use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

/// The standard benchmark model: a scaled version of the paper's
/// horizontally stratified model a.
pub fn bench_spec(nx: usize, ny: usize, nz: usize) -> GroundModelSpec {
    GroundModelSpec::paper_like(nx, ny, nz, InterfaceShape::Stratified)
}

/// Backend for application-level benches (with CRS matrices).
pub fn bench_backend(nx: usize, ny: usize, nz: usize) -> Backend {
    Backend::new(FemProblem::paper_like(&bench_spec(nx, ny, nz)), true, true)
}

/// Load used across application benches: impulses early, free vibration
/// after (the paper's setting).
pub fn bench_load() -> RandomLoadSpec {
    RandomLoadSpec {
        n_sources: 16,
        impulses_per_source: 3.0,
        amplitude: 1e6,
        active_window: 0.12,
    }
}

/// Return the requested section filter from `cargo bench -- <filter>`.
pub fn section_filter() -> Option<String> {
    std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-') && a != "bench")
}

/// Should section `name` run under the filter?
pub fn should_run(name: &str) -> bool {
    match section_filter() {
        None => true,
        Some(f) => name.contains(&f),
    }
}
