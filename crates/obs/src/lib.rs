//! # hetsolve-obs
//!
//! Structured observability for the `hetsolve` reproduction of the SC24
//! paper *"Heterogeneous computing in a strongly-connected CPU-GPU
//! environment"* (Ichimura et al.). The paper's central evidence is
//! temporal — Fig. 4 shows the predictor@CPU hidden behind the solver@GPU
//! with the snapshot window `s` adapted online, and Tables 3–4 compare
//! per-step solver/predictor/iteration costs — so this crate makes every
//! one of those quantities first-class and exportable:
//!
//! * `json` — hand-rolled JSON value, writer and parser (the workspace is
//!   offline/vendored; no serde),
//! * `observer` — [`SolveObserver`] hooks threaded through `pcg`/`mcg` in
//!   `hetsolve-sparse`, with a [`NoopObserver`] that compiles to nothing on
//!   the hot path and a [`ResidualLog`] that records per-iteration relative
//!   residuals and the termination cause,
//! * `trace` — [`TraceBuilder`] emitting Chrome-trace-event JSON
//!   (loadable in Perfetto / `chrome://tracing`): a faithful, inspectable
//!   reproduction of the paper's Fig. 4 CPU/GPU/transfer overlap diagram,
//! * `metrics` — [`MetricsSink`] aggregating kernel counts, iteration
//!   counts and method summaries into one schema-versioned JSON document
//!   (what `HETSOLVE_METRICS` names; `tests/modeled_golden.rs` pins one),
//! * `registry` — telemetry v2's [`MetricsRegistry`]: named counters,
//!   gauges and fixed-size log-bucketed [`LogHistogram`]s with mergeable
//!   snapshots, exported as JSON or a Prometheus-style text page,
//! * [`names`] — the committed metric-name table: one typed constant
//!   per metric, the only names the registry accepts,
//! * `flight` — the serving layer's crash-time [`FlightRecorder`]: a
//!   bounded ring of structured events dumped as JSON on watchdog breach,
//!   eviction, or injected crashes.
//!
//! The crate is dependency-free and `#![forbid(unsafe_code)]`; everything
//! here is plumbing that must never perturb the numerics it observes.

#![forbid(unsafe_code)]

mod flight;
mod json;
mod metrics;
// A namespace on purpose: call sites write `names::CORE_STEPS_TOTAL`.
pub mod names;
mod observer;
mod registry;
mod serve;
mod trace;

pub use flight::{FlightEvent, FlightRecorder, DEFAULT_FLIGHT_CAPACITY, FLIGHT_SCHEMA};
pub use json::{parse_json, Json};
pub use metrics::{MethodMetrics, MetricsSink, BENCH_SCHEMA};
pub use observer::{NoopObserver, ResidualLog, SolveObserver, Termination};
pub use registry::{LogHistogram, MetricsRegistry};
pub use serve::{ServeCounter, ServeStats, TenantStats};
pub use trace::{
    flow_id_for_request, validate_lane_serialization, TraceBuilder, TraceEvent, TRACE_SCHEMA,
};
