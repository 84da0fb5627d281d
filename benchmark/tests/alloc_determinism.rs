//! The allocation counters are only worth reporting if they repeat. This
//! is the only test of its binary: the counters are process-wide, so a
//! neighbouring test allocating on another thread would be counted too.

use hetbench::alloc::{AllocCounts, CountingAlloc};
use hetsolve::core::{run, Backend, MethodKind, RunConfig};
use hetsolve::fem::FemProblem;
use hetsolve::machine::single_gh200;
use hetsolve::mesh::{GroundModelSpec, InterfaceShape};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn two_identical_runs_allocate_identically() {
    let spec = GroundModelSpec::small(InterfaceShape::Stratified);
    let backend = Backend::new(FemProblem::paper_like(&spec), false, true);
    let cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), 6);
    let measure = || {
        let before = AllocCounts::now();
        let result = run(&backend, &cfg).expect("small run succeeds");
        let counts = AllocCounts::since(before);
        drop(result);
        counts
    };
    let first = measure();
    let second = measure();
    assert!(
        first.allocs > 0 && first.bytes > 0,
        "the allocator is installed"
    );
    assert_eq!(first, second);
}
