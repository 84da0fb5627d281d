//! # hetsolve-load
//!
//! Deterministic load generation for the `hetsolve` serving layer: the
//! soak-testing half of the multi-tenant QoS subsystem (DESIGN.md §16).
//!
//! The serving stack runs on a *modeled* clock — every tick charges
//! modeled CPU/GPU/link time, not wall time — so a million-request,
//! hours-of-modeled-time soak completes in seconds of real time. This
//! crate supplies the traffic:
//!
//! * `shape` — [`TrafficShape`]: open-loop arrival-rate curves
//!   (constant, diurnal sinusoid, flash-crowd burst),
//! * `gen` — [`LoadConfig`] + [`ArrivalLog`]: a seeded thinning
//!   sampler producing a replayable arrival stream with tenant-skewed
//!   (Zipf) request mixes, jittered step counts, priorities and
//!   deadlines — bitwise-identical for the same seed,
//! * `soak` — drivers that pour an [`ArrivalLog`] into an
//!   [`EnsembleServer`](hetsolve_serve::EnsembleServer) or
//!   [`ClusterServer`](hetsolve_serve::ClusterServer) open-loop (arrivals
//!   never wait for the server) and distill the run into a
//!   [`SoakReport`]: admitted/shed/evicted counts, per-tenant tail
//!   latencies, deadline-miss rate, peak queue depth, autoscale events,
//! * `checkpoint` — canonical byte images of the above (their `Wire`
//!   layouts are declared next to the types), so arrival streams and
//!   reports can be persisted and byte-compared across runs.
//!
//! Determinism is the point: the generator draws from an internal
//! splitmix64 stream (no RNG dependency), the soak drivers make no
//! decision of their own (admit at the first boundary at or after each
//! arrival's timestamp), and [`SoakReport::to_bytes`] exists so tests
//! can assert two same-seed soaks are *bitwise* equal.

#![forbid(unsafe_code)]

mod checkpoint;
mod gen;
mod shape;
mod soak;

pub use gen::{Arrival, ArrivalLog, LoadConfig};
pub use shape::TrafficShape;
pub use soak::{soak_cluster, soak_server, SoakReport, TenantLatency};
