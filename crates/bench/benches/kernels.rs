//! Criterion microbenchmarks of the *real host kernels* (genuine wall-clock
//! measurements, complementing the modeled Table 2):
//!
//! * 3×3 block-CRS SpMV (sequential and on the host pool),
//! * cached-matrix EBE vs compact matrix-free EBE,
//! * EBE with 1/2/4/8 fused right-hand sides (the multi-RHS amortization
//!   the paper measures as the EBE->EBE4 speedup),
//! * the data-driven predictor (MGS) at several windows,
//! * the FDD FFT.
//!
//! ```bash
//! cargo bench --bench kernels
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hetsolve_bench::bench_backend;
use hetsolve_core::Backend;
use hetsolve_predictor::DataDrivenPredictor;
use hetsolve_signal::rfft;
use hetsolve_sparse::{LinearOperator, MultiOperator};
use std::hint::black_box;

fn make_backend() -> Backend {
    bench_backend(8, 8, 5)
}

fn bench_spmv(c: &mut Criterion) {
    let backend = make_backend();
    let n = backend.n_dofs();
    let x: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
    let mut y = vec![0.0; n];

    let mut g = c.benchmark_group("spmv");
    g.throughput(Throughput::Elements(n as u64));

    let crs = backend.crs_a();
    g.bench_function("crs_parallel", |b| {
        b.iter(|| crs.apply(black_box(&x), black_box(&mut y)))
    });
    let mut crs_seq = crs.clone();
    crs_seq.parallel = false;
    g.bench_function("crs_sequential", |b| {
        b.iter(|| crs_seq.apply(black_box(&x), black_box(&mut y)))
    });

    let ebe = backend.ebe_a(1);
    g.bench_function("ebe_compact", |b| {
        b.iter(|| ebe.apply(black_box(&x), black_box(&mut y)))
    });

    // cached-matrix EBE (streams the stored packed element matrices)
    let a = backend.problem.a_coeffs();
    let data = hetsolve_sparse::EbeData {
        n_nodes: backend.problem.n_nodes(),
        elems: &backend.problem.model.mesh.elems,
        me: &backend.problem.elements().me,
        ke: &backend.problem.elements().ke,
        faces: &backend.problem.dashpots.faces,
        cb: &backend.problem.dashpots.cb,
        c_m: a.c_m,
        c_k: a.c_k,
        c_b: a.c_b,
        fixed: &backend.fixed,
    };
    let coloring = hetsolve_mesh::color_elements(&backend.problem.model.mesh);
    let cached = hetsolve_sparse::EbeOperator::new(data, &coloring, true);
    g.bench_function("ebe_cached", |b| {
        b.iter(|| cached.apply(black_box(&x), black_box(&mut y)))
    });
    g.finish();
}

fn bench_multi_rhs(c: &mut Criterion) {
    let backend = make_backend();
    let n = backend.n_dofs();
    let mut g = c.benchmark_group("ebe_multi_rhs_per_case");
    for r in [1usize, 2, 4, 8] {
        let op = backend.ebe_a(r);
        let x: Vec<f64> = (0..n * r).map(|i| ((i as f64) * 0.21).cos()).collect();
        let mut y = vec![0.0; n * r];
        g.throughput(Throughput::Elements((n * r) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, _| {
            b.iter(|| op.apply_multi(black_box(&x), black_box(&mut y)))
        });
    }
    g.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let n = 60_000;
    let mut dd = DataDrivenPredictor::new(n, 384, 32);
    for k in 0..33 {
        let snap: Vec<f64> = (0..n)
            .map(|i| ((i + 31 * k) as f64 * 0.013).sin())
            .collect();
        dd.record(&snap);
    }
    let mut out = vec![0.0; n];
    let mut g = c.benchmark_group("predictor");
    for s in [8usize, 16, 32] {
        g.bench_with_input(BenchmarkId::new("mgs_window", s), &s, |b, &s| {
            b.iter(|| {
                dd.predict(black_box(s), black_box(&mut out));
            })
        });
    }
    g.finish();
}

fn bench_fft(c: &mut Criterion) {
    let x: Vec<f64> = (0..16_384).map(|i| (i as f64 * 0.011).sin()).collect();
    c.bench_function("fft_16k", |b| b.iter(|| rfft(black_box(&x))));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_spmv, bench_multi_rhs, bench_predictor, bench_fft
}
criterion_main!(benches);
