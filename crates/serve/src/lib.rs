//! # hetsolve-serve
//!
//! The serving layer of the `hetsolve` reproduction of the SC24 paper
//! *"Heterogeneous computing in a strongly-connected CPU-GPU
//! environment"* (Ichimura et al.): a continuous-batching ensemble
//! service with admission control and fused-lane scheduling.
//!
//! The batch drivers in `hetsolve-core` solve a *fixed* set of `2r` cases
//! for a fixed number of steps; any case count that doesn't fill the
//! fused multi-RHS lanes wastes GPU time, because the EBE kernels cost
//! the same at any occupancy. This crate turns that batch engine into a
//! *service*:
//!
//! * `request` — [`SolveRequest`]s (seed, steps, priority, deadline,
//!   tolerance) and their `Queued → Batched → Solving → Done | Failed |
//!   Evicted` lifecycle,
//! * `queue` — bounded [`AdmissionQueue`] with typed backpressure
//!   ([`AdmitError::Rejected`] / [`AdmitError::ShedLoad`]) and
//!   deterministic priority/deadline/seeded-tie scheduling,
//! * `batcher` — the pure lane packer: compatible requests (same
//!   backend, bit-identical tolerance → same [`CompatKey`]) fill vacant
//!   columns of 2 × `r`-wide lanes under [`BatchPolicy::Continuous`] or
//!   the [`BatchPolicy::DrainThenRefill`] baseline, never moving an
//!   in-flight column,
//! * `server` — [`EnsembleServer`]: the tick loop driving the lanes
//!   through the predictor@CPU / fused-MCG@GPU pipeline with per-lane
//!   occupancy masks, the resumable recovery ladder, serving metrics
//!   ([`hetsolve_obs::ServeStats`]) and optional Chrome-trace export,
//! * `qos` — multi-tenant quality of service: per-tenant quotas
//!   ([`TenantQuota`]) with deficit-round-robin fair share, queue-share
//!   and max-in-flight caps, SLO tracking, and lane autoscaling
//!   ([`AutoscaleConfig`]) that floats the fused-lane count at step
//!   boundaries without ever touching in-flight trajectories,
//! * `watchdog` — deadline-based lane supervision with the
//!   retry-with-backoff → restart-from-checkpoint → evict escalation
//!   ladder ([`WatchdogConfig`], [`WatchdogEvent`]),
//! * `checkpoint` — [`ServerCheckpoint`]: crash-consistent snapshots of
//!   the whole server (queue, lanes, in-flight cases, records, stats) in
//!   the sectioned `hetsolve-ckpt` format, restorable to a server that
//!   continues bitwise-identically,
//! * `shard` — [`ClusterServer`]: N node-local shards behind a
//!   deterministic router, with cross-node work stealing, peer replica
//!   mirroring, and node-crash failover via restart-on-peer (eviction as
//!   `NodeLost` only when every replica is invalid).
//!
//! Served results are bitwise-identical to solo
//! [`run_ensemble`](hetsolve_core::run_ensemble) solves of the same seed
//! (see the `server` module docs for why), which the serve suite asserts
//! with `f64::to_bits`.

#![forbid(unsafe_code)]
// The serving loop must not abort: a reachable failure is a
// typed error, and a provably infallible site says why in an
// `#[allow(clippy::expect_used, reason = "…")]`. Test code is exempt.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

mod batcher;
mod checkpoint;
mod qos;
mod queue;
mod request;
mod server;
mod shard;
mod watchdog;

pub use batcher::{Assignment, BatchPolicy, Batcher, CompatKey};
pub use checkpoint::{LaneCheckpoint, ServeFingerprint, ServerCheckpoint};
pub use qos::{
    AutoscaleConfig, AutoscaleEvent, AutoscalerState, QosConfig, ScaleDirection, TenantQuota,
};
pub use queue::{
    AdmissionQueue, AdmitError, DrrState, QueueEntrySnapshot, RejectReason, TenantPolicy,
};
pub use request::{EvictReason, RequestId, RequestRecord, RequestState, SolveRequest, TenantId};
pub use server::{EnsembleServer, ServeConfig};
pub use shard::{ClusterCheckpoint, ClusterConfig, ClusterFingerprint, ClusterServer, RouteEntry};
pub use watchdog::{WatchdogAction, WatchdogConfig, WatchdogEvent};
