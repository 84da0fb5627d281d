//! Distributed serving: [`EnsembleServer`](crate::EnsembleServer) shards
//! across the simulated cluster with node-crash failover.
//!
//! * `cluster` — [`ClusterServer`]: the deterministic router, per-node
//!   shards, cross-node work stealing through modeled link costs, peer
//!   replica mirroring, and the restart-on-peer failover rung,
//! * `checkpoint` — [`ClusterCheckpoint`]: crash-consistent snapshots
//!   of the whole cluster (router, counters, traffic ledger, one opaque
//!   shard image per node).

mod checkpoint;
mod cluster;

pub use checkpoint::{ClusterCheckpoint, ClusterFingerprint};
pub use cluster::{ClusterConfig, ClusterServer, RouteEntry};
