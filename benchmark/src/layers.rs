//! The layer pass: every layer's public entry points, timed one call per
//! span on deterministic vectors of the workload's size.
//!
//! It runs in the traced pass only, on every workload, so a per-layer
//! number always refers to the workload's own problem (the CRS kernels are
//! timed on the EBE workloads too, through a CRS-enabled twin of the
//! backend). Operation and byte counts are *computed* from the public
//! `KernelCounts`, not read from hardware counters.

use std::hint::black_box;
use std::time::Instant;

use hetsolve::core::{crc_f64s, driver_cg_config, Backend, RhsScratch};
use hetsolve::predictor::DataDrivenPredictor;
use hetsolve::sparse::{mcg, pcg, LinearOperator, MultiOperator, Preconditioner};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Workload, REGION_DOFS, TOL};

/// A timed item stops after this many calls ...
const MAX_CALLS: usize = 30;
/// ... or, for calls too slow for that, once it has at least `MIN_CALLS`
/// and has used `BUDGET_S`.
const MIN_CALLS: usize = 3;
const BUDGET_S: f64 = 1.0;

/// Metric values (by `BENCHMARK.json` name) and how many calls each timing
/// is the median of.
#[derive(Debug, Default)]
pub struct LayerValues {
    pub values: Vec<(&'static str, f64)>,
    pub samples: Vec<(&'static str, usize)>,
}

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("layer value {name} read before it was set"))
    }
}

/// Median seconds of repeated calls of `f`, each inside a span `span`.
fn time_calls(
    tr: &mut Tracer,
    out: &mut LayerValues,
    span: &'static str,
    mut f: impl FnMut(),
) -> f64 {
    let started = Instant::now();
    let mut secs = Vec::with_capacity(MAX_CALLS);
    while secs.len() < MAX_CALLS
        && (secs.len() < MIN_CALLS || started.elapsed().as_secs_f64() < BUDGET_S)
    {
        let ((), dt) = tr.timed(span, &mut f);
        secs.push(dt);
    }
    out.samples.push((span, secs.len()));
    median(&secs)
}

fn wave(n: usize, scale: f64, freq: f64, phase: f64) -> Vec<f64> {
    (0..n)
        .map(|i| scale * (freq * i as f64 + phase).sin())
        .collect()
}

/// Run the layer pass. `backend` is the workload's; `crs` is a backend of
/// the same problem that has the assembled matrices (the same one when
/// the workload's has them).
pub fn layer_pass(w: &Workload, backend: &Backend, crs: &Backend, tr: &mut Tracer) -> LayerValues {
    let pass = tr.begin("bench.layer_pass");
    let mut out = LayerValues::default();
    let n = backend.n_dofs();
    let r = w.r;
    let ms = 1e3;

    // core: Newmark RHS of one case, and the CRC a state guard takes of one
    // n-vector. The r right-hand sides also feed the solves below.
    let mut scratch = RhsScratch::new(n);
    let v = wave(n, 1e-4, 0.05, 0.0);
    let a = wave(n, 1e-5, 0.03, 1.0);
    let mut rhs: Vec<Vec<f64>> = Vec::with_capacity(r);
    for c in 0..r {
        let f = wave(n, 1e3, 0.13, c as f64);
        let u = wave(n, 1e-3, 0.2, 0.5 * c as f64);
        let mut b = vec![0.0; n];
        backend.newmark_rhs(&f, &u, &v, &a, &mut b, &mut scratch);
        rhs.push(b);
    }
    {
        let f = wave(n, 1e3, 0.13, 0.0);
        let u = wave(n, 1e-3, 0.2, 0.0);
        let mut b = vec![0.0; n];
        let t = time_calls(tr, &mut out, "core.rhs_build", || {
            backend.newmark_rhs(&f, &u, &v, &a, &mut b, &mut scratch);
            black_box(&b);
        });
        out.set("core.rhs_build_ms", t * ms);
    }
    let t = time_calls(tr, &mut out, "core.guard_crc", || {
        black_box(crc_f64s(black_box(&rhs[0])));
    });
    out.set("core.guard_crc_ms", t * ms);

    // fem: the matrix-free operator, fused over r cases and one case alone
    let x1 = wave(n, 1.0, 0.37, 0.0);
    let mut y1 = vec![0.0; n];
    let xr: Vec<f64> = (0..n * r)
        .map(|k| (0.37 * (k / r) as f64 + 0.11 * (k % r) as f64).sin())
        .collect();
    let mut yr = vec![0.0; n * r];
    let ebe_r = backend.ebe_a(r);
    let ebe_1 = backend.ebe_a(1);
    let t_ebe = time_calls(tr, &mut out, "fem.ebe_apply", || {
        ebe_r.apply_multi(black_box(&xr), &mut yr);
        black_box(&yr);
    });
    let t_ebe1 = time_calls(tr, &mut out, "fem.ebe_r1_apply", || {
        ebe_1.apply(black_box(&x1), &mut y1);
        black_box(&y1);
    });
    let ebe_counts = MultiOperator::counts(&ebe_r);
    out.set("fem.ebe_apply_ms", t_ebe * ms);
    out.set("fem.ebe_apply_case_ms", t_ebe * ms / r as f64);
    out.set("fem.ebe_r1_apply_ms", t_ebe1 * ms);
    out.set("fem.ebe_fuse_gain", t_ebe1 / (t_ebe / r as f64));
    out.set("fem.ebe_gflops", ebe_counts.flops / t_ebe / 1e9);
    out.set("fem.ebe_flop_per_byte", ebe_counts.intensity());

    // sparse: preconditioner, assembled SpMV, and the two solvers from a
    // zero guess with the drivers' CG configuration
    let t_prec = time_calls(tr, &mut out, "sparse.precond_apply", || {
        backend.precond.apply_multi(black_box(&xr), &mut yr, r);
        black_box(&yr);
    });
    out.set("sparse.precond_apply_ms", t_prec * ms);

    let crs_a = crs.crs_a();
    let t_crs = time_calls(tr, &mut out, "sparse.crs_apply", || {
        crs_a.apply(black_box(&x1), &mut y1);
        black_box(&y1);
    });
    out.set("sparse.crs_apply_ms", t_crs * ms);
    out.set("sparse.crs_gbs", crs_a.counts().bytes() / t_crs / 1e9);

    let cg = driver_cg_config(TOL);
    let f_multi: Vec<f64> = (0..n * r).map(|k| rhs[k % r][k / r]).collect();
    let mut iters = 0;
    let t_mcg = time_calls(tr, &mut out, "sparse.mcg_solve", || {
        yr.fill(0.0);
        let stats = mcg(&ebe_r, &backend.precond, &f_multi, &mut yr, &cg);
        assert!(stats.converged, "layer-pass mcg did not converge");
        iters = stats.fused_iterations;
    });
    out.set("sparse.mcg_solve_ms", t_mcg * ms);
    out.set("sparse.mcg_iters", iters as f64);
    out.set("sparse.mcg_iter_ms", t_mcg * ms / iters as f64);
    out.set(
        "sparse.mcg_nonkernel_frac",
        1.0 - iters as f64 * (t_ebe + t_prec) / t_mcg,
    );

    let t_pcg = time_calls(tr, &mut out, "sparse.pcg_solve", || {
        y1.fill(0.0);
        let stats = pcg(crs_a, &crs.precond, &rhs[0], &mut y1, &cg);
        assert!(stats.converged, "layer-pass pcg did not converge");
        iters = stats.iterations;
    });
    out.set("sparse.pcg_solve_ms", t_pcg * ms);
    out.set("sparse.pcg_iters", iters as f64);
    out.set("sparse.pcg_iter_ms", t_pcg * ms / iters as f64);

    // predictor: a full window of s_max snapshots, then predict from it
    let mut dd = DataDrivenPredictor::new(n, REGION_DOFS, w.s_max);
    for k in 0..=w.s_max {
        dd.record(&wave(n, 1e-6, 0.07 + 0.011 * k as f64, k as f64));
    }
    // predict first: timing `record` refills the window with one vector
    let t = time_calls(tr, &mut out, "predictor.predict", || {
        let ok = dd.predict(w.s_max, &mut y1);
        assert!(ok, "layer-pass predictor history too short");
        black_box(&y1);
    });
    out.set("predictor.predict_ms", t * ms);
    let delta = wave(n, 1e-6, 0.05, 0.3);
    let t = time_calls(tr, &mut out, "predictor.record", || {
        black_box(dd.record(black_box(&delta)));
    });
    out.set("predictor.record_ms", t * ms);

    tr.end(pass);
    out
}
