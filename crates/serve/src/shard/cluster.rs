//! The sharded, fault-tolerant serving cluster.
//!
//! [`ClusterServer`] composes N node-local [`EnsembleServer`] shards with
//! the machine layer's cluster model: a deterministic **router** admits
//! each request exactly once and places it on a shard (compatibility-key
//! affinity → least load → seeded tie-break), **work stealing** rebalances
//! queued requests onto idle nodes at step boundaries through modeled
//! link costs, and **replica mirroring** keeps each shard's serialized
//! [`ServerCheckpoint`] on a peer so a node crash walks the extended
//! supervision ladder: the per-lane watchdog's retry → restart-lane rungs
//! stay shard-local, and node loss adds **restart-on-peer** — rebuild the
//! dead shard from its newest valid replica — with eviction
//! ([`EvictReason::NodeLost`]) only when every replica is torn or absent.
//!
//! # Bitwise equivalence under failover
//!
//! Every shard runs `WindowPolicy::FullWindow`, so a case's trajectory is
//! a pure function of its seed and step count — independent of placement,
//! lane companions, steals, and restarts. Stealing moves *queued* requests
//! only; failover restores a shard from a bitwise snapshot and replays the
//! lost boundary deterministically; link charges stall the modeled clock
//! without touching numerics. A request served through any crash/steal
//! history therefore finishes with the same final displacement bits as a
//! solo run of the same seed, which the chaos suite asserts per node and
//! per crash boundary.
//!
//! # Determinism
//!
//! Shard `i` schedules with `sched_seed = mix64(base, i)` — co-draining
//! shards break ties with uncorrelated hashes — and the router's
//! tie-break hashes `(placement_seed, request, shard)`. Every decision
//! (placement, donor choice, failover reconciliation order) is a function
//! of cluster state and seeds alone, so a replay under the same
//! [`FaultPlan`](hetsolve_fault::FaultPlan) reproduces the run exactly.

use hetsolve_ckpt::{mix64, ReplicaStore, RestoreReport};
use hetsolve_core::Backend;
use hetsolve_fault::{AdmissionFault, FaultInjector, NoopFaults};
use hetsolve_machine::{LaneKind, LinkTraffic};
use hetsolve_obs::{FlightRecorder, MetricsRegistry, ServeStats};

use crate::batcher::CompatKey;
use crate::checkpoint::{ServeFingerprint, ServerCheckpoint};
use crate::queue::AdmitError;
use crate::request::{EvictReason, RequestId, RequestRecord, RequestState, SolveRequest};
use crate::server::{EnsembleServer, ServeConfig};

/// Cluster-serving configuration: a per-shard [`ServeConfig`] template
/// plus the distribution knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Template every shard derives its config from; shard `i` runs with
    /// `sched_seed = mix64(serve.sched_seed, i)` so tie-breaks across
    /// shards are uncorrelated.
    pub serve: ServeConfig,
    /// Number of node-local shards.
    pub shards: usize,
    /// Seed of the router's placement tie-break.
    pub placement_seed: u64,
    /// Mirror a shard's checkpoint to its peer every this many shard
    /// ticks (0 disables replication — and with it, restart-on-peer).
    pub replica_every: usize,
    /// Replicas retained per shard (clamped to ≥ 2 by the store).
    pub replica_keep: usize,
    /// Enable cross-node work stealing at step boundaries.
    pub steal: bool,
    /// Modeled wire size of one stolen request descriptor (bytes).
    pub steal_bytes: f64,
}

impl ClusterConfig {
    pub fn new(serve: ServeConfig, shards: usize) -> Self {
        ClusterConfig {
            serve,
            shards: shards.max(1),
            placement_seed: 0xc1a5,
            replica_every: 1,
            replica_keep: 2,
            steal: true,
            steal_bytes: 256.0,
        }
    }

    /// The derived config shard `i` actually runs — the single source of
    /// truth for both construction and restore.
    pub fn shard_cfg(&self, i: usize) -> ServeConfig {
        let mut cfg = self.serve.clone();
        cfg.sched_seed = mix64(self.serve.sched_seed, i as u64);
        cfg
    }
}

/// Router entry: where one cluster-admitted request currently lives. The
/// request itself travels with the route so failover can re-admit work
/// the restored snapshot predates.
#[derive(Debug, Clone, Copy)]
pub struct RouteEntry {
    /// Shard currently owning the request.
    pub shard: usize,
    /// The request's shard-local id there.
    pub local: u64,
    /// The admitted request (placement-independent by construction).
    pub request: SolveRequest,
}

hetsolve_ckpt::wire_struct!(RouteEntry {
    shard,
    local,
    request
});

/// The sharded serving cluster: router + N shards + peer replicas.
///
/// Fields are `pub(crate)` for the sibling [`crate::shard::checkpoint`]
/// module, which serializes and rebuilds the whole cluster.
pub struct ClusterServer<'b, F: FaultInjector = NoopFaults> {
    pub(crate) backend: &'b Backend,
    pub(crate) cfg: ClusterConfig,
    /// Node-local shards; cluster-level faults are injected here, so the
    /// shards themselves run fault-free.
    pub(crate) shards: Vec<EnsembleServer<'b, NoopFaults>>,
    /// `replicas[i]` is the peer-held mirror of shard `i`'s checkpoints
    /// (modeled as living on node `(i + 1) % n`, surviving node `i`).
    pub(crate) replicas: Vec<ReplicaStore>,
    /// Cluster request id → current placement, indexed by `RequestId.0`.
    pub(crate) routes: Vec<RouteEntry>,
    /// Tombstones for requests lost with an unrecoverable node, indexed
    /// like `routes` (`None` = the routed shard holds the live record).
    pub(crate) lost: Vec<Option<RequestRecord>>,
    /// Cluster-level counters only (crashes, failovers, steals, and
    /// router-side sheds); [`ClusterServer::stats`] merges shard stats in.
    pub(crate) cluster_stats: ServeStats,
    /// Modeled cross-node link traffic (steals + replica mirroring).
    pub(crate) traffic: LinkTraffic,
    /// Cluster-level flight ring: routing, steals, crashes, failovers.
    pub(crate) flight: FlightRecorder,
    pub(crate) faults: F,
    /// Cluster admission attempts (fault-injection index).
    pub(crate) admissions: usize,
    /// Cluster scheduling boundaries executed.
    pub(crate) ticks: usize,
    /// Checkpoint images mirrored to peers.
    pub(crate) replica_writes: usize,
    /// Replica images skipped: mirrors dropped by link partitions plus
    /// invalid (torn / mismatched) images skipped during failover.
    pub(crate) replica_skipped: usize,
    /// Modeled node-loss → serving-again latency of each failover.
    pub(crate) recovery_s: Vec<f64>,
    /// Restore scan of each failover, in order (tests assert fallback
    /// past torn replicas here).
    failover_reports: Vec<(usize, RestoreReport)>,
}

impl<'b> ClusterServer<'b, NoopFaults> {
    pub fn new(backend: &'b Backend, cfg: ClusterConfig) -> Self {
        Self::with_faults(backend, cfg, NoopFaults)
    }
}

impl<'b, F: FaultInjector> ClusterServer<'b, F> {
    /// Cluster with a fault injector on the node-crash / replica /
    /// partition / admission hooks.
    pub fn with_faults(backend: &'b Backend, cfg: ClusterConfig, faults: F) -> Self {
        let shards = (0..cfg.shards)
            .map(|i| EnsembleServer::new(backend, cfg.shard_cfg(i)))
            .collect();
        let replicas = (0..cfg.shards)
            .map(|_| ReplicaStore::new(cfg.replica_keep))
            .collect();
        ClusterServer {
            backend,
            shards,
            replicas,
            routes: Vec::new(),
            lost: Vec::new(),
            cluster_stats: ServeStats::new(),
            traffic: LinkTraffic::default(),
            flight: FlightRecorder::new(cfg.serve.flight_capacity),
            faults,
            admissions: 0,
            ticks: 0,
            replica_writes: 0,
            replica_skipped: 0,
            recovery_s: Vec::new(),
            failover_reports: Vec::new(),
            cfg,
        }
    }

    /// Deterministic placement order for one request: shards with a lane
    /// already keyed to the request's [`CompatKey`] first (they can fuse
    /// it without opening a new lane), then least loaded, then a seeded
    /// hash of `(placement_seed, request, shard)`, then the index.
    fn placement_order(&self, gid: u64, key: CompatKey) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.shards.len()).collect();
        order.sort_by_key(|&i| {
            let sh = &self.shards[i];
            let affinity =
                (0..sh.batcher.n_lanes()).any(|lane| sh.batcher.lane_key(lane) == Some(key));
            let load = sh.queue_depth() + sh.in_flight();
            let tie = mix64(mix64(self.cfg.placement_seed, gid), i as u64);
            (!affinity, load, tie, i)
        });
        order
    }

    /// Route one request into the cluster. The request is admitted *once*:
    /// the router walks its placement order, skipping shards that shed
    /// load, and returns the cluster-wide [`RequestId`]. A typed rejection
    /// (bad steps / tolerance) is final — it would fail identically on
    /// every shard.
    pub fn admit(&mut self, request: SolveRequest) -> Result<RequestId, AdmitError> {
        let index = self.admissions;
        self.admissions += 1;
        let now = self.elapsed();
        match self.faults.admission_fault(index) {
            Some(AdmissionFault::Reject) => {
                self.cluster_stats.record_rejection();
                self.flight
                    .record(now, "admit_rejected", None, None, None, "fault injected");
                return Err(AdmitError::Rejected(
                    crate::queue::RejectReason::FaultInjected,
                ));
            }
            Some(AdmissionFault::Shed) => {
                self.cluster_stats.record_shed();
                self.flight
                    .record(now, "admit_shed", None, None, None, "fault injected");
                return Err(AdmitError::ShedLoad {
                    queued: self.queue_depth(),
                    capacity: self.cfg.serve.queue_capacity * self.shards.len(),
                });
            }
            None => {}
        }
        let gid = self.routes.len() as u64;
        let key = CompatKey::from_tol(request.tol.unwrap_or(self.cfg.serve.run.tol));
        let mut last_shed = None;
        for &i in &self.placement_order(gid, key) {
            match self.shards[i].admit(request) {
                Ok(local) => {
                    self.routes.push(RouteEntry {
                        shard: i,
                        local: local.0,
                        request,
                    });
                    self.lost.push(None);
                    self.flight.record(
                        now,
                        "routed",
                        Some(gid),
                        Some(i as u64),
                        Some(self.ticks as u64),
                        format!("shard {i} local req#{}", local.0),
                    );
                    return Ok(RequestId(gid));
                }
                Err(e @ AdmitError::Rejected(_)) => return Err(e),
                // a shard at global capacity or at this tenant's queue
                // share both mean "try the next shard"
                Err(e @ (AdmitError::ShedLoad { .. } | AdmitError::TenantShed { .. })) => {
                    last_shed = Some(e);
                }
            }
        }
        self.flight.record(
            now,
            "admit_shed",
            Some(gid),
            None,
            Some(self.ticks as u64),
            "every shard at capacity",
        );
        Err(last_shed.unwrap_or(AdmitError::ShedLoad {
            queued: self.queue_depth(),
            capacity: self.cfg.serve.queue_capacity * self.shards.len(),
        }))
    }

    /// One cluster scheduling boundary: resolve this tick's link
    /// partitions, mirror replicas to peers, process node crashes
    /// (failover before work moves), steal work onto idle nodes, then
    /// advance every non-idle shard by one tick.
    ///
    /// Mirrors precede crash processing — the replica push at a boundary
    /// lands on the peer before the node can die at that same boundary —
    /// which, together with mirroring from shard tick 0 on, guarantees
    /// that a crash at *any* boundary has a replica to restore from (the
    /// chaos suite's kill-anywhere property). Idle shards mirror too:
    /// their finished results are exactly what a late crash would
    /// otherwise destroy.
    pub fn tick(&mut self) {
        let tick = self.ticks;
        let n = self.shards.len();
        let mut severed: Vec<(usize, usize)> = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                if self.faults.link_partition_fault(tick, a, b) {
                    severed.push((a, b));
                    self.flight.record(
                        self.elapsed(),
                        "link_partition",
                        None,
                        None,
                        Some(tick as u64),
                        format!("nodes {a} and {b} unreachable this boundary"),
                    );
                }
            }
        }
        if self.cfg.replica_every > 0 {
            for node in 0..n {
                if self.shards[node]
                    .ticks()
                    .is_multiple_of(self.cfg.replica_every)
                {
                    self.mirror(node, &severed);
                }
            }
        }
        for node in 0..n {
            if self.faults.node_crash_fault(tick, node) {
                self.failover(node);
            }
        }
        if self.cfg.steal && n > 1 {
            self.steal(&severed);
        }
        for node in 0..n {
            let sh = &mut self.shards[node];
            if !(sh.queue.is_empty() && sh.batcher.is_idle()) {
                sh.tick();
            }
        }
        self.ticks += 1;
    }

    /// Tick until every shard's queue and lanes are empty; returns the
    /// cluster ticks executed, bounded by `serve.max_ticks`.
    pub fn run_until_idle(&mut self) -> usize {
        let mut n = 0;
        while !self.is_idle() && n < self.cfg.serve.max_ticks {
            self.tick();
            n += 1;
        }
        n
    }

    pub fn is_idle(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.queue.is_empty() && s.batcher.is_idle())
    }

    /// Advance the modeled cluster clock by `dt` without scheduling any
    /// work: every shard idles in lock-step, so open-loop load generators
    /// can wait out gaps between arrivals on the modeled timeline.
    pub fn advance_idle(&mut self, dt: f64) {
        for sh in &mut self.shards {
            sh.advance_idle(dt);
        }
    }

    fn is_severed(severed: &[(usize, usize)], x: usize, y: usize) -> bool {
        severed
            .iter()
            .any(|&(a, b)| (a == x && b == y) || (a == y && b == x))
    }

    /// The cluster id currently routed to `(shard, local)`, skipping
    /// tombstoned routes (a post-failover fresh shard reuses local ids).
    fn gid_for(&self, shard: usize, local: u64) -> Option<usize> {
        self.routes
            .iter()
            .enumerate()
            .find(|(g, r)| self.lost[*g].is_none() && r.shard == shard && r.local == local)
            .map(|(g, _)| g)
    }

    /// Work stealing at a step boundary: each node whose queue is empty
    /// and whose lanes have vacancy pulls one queued request from the
    /// deepest-backlog reachable donor, charging the modeled link.
    fn steal(&mut self, severed: &[(usize, usize)]) {
        let n = self.shards.len();
        for thief in 0..n {
            let sh = &self.shards[thief];
            if !sh.queue.is_empty() {
                continue;
            }
            if sh.in_flight() >= sh.batcher.n_lanes() * sh.batcher.width() {
                continue;
            }
            let donor = (0..n)
                .filter(|&d| d != thief && !Self::is_severed(severed, thief, d))
                .filter(|&d| self.shards[d].queue_depth() > 0)
                .max_by_key(|&d| (self.shards[d].queue_depth(), std::cmp::Reverse(d)));
            let Some(donor) = donor else { continue };
            let Some((donor_local, key)) = self.shards[donor].queue.pop_best() else {
                continue;
            };
            let request = self.shards[donor].records[donor_local.0 as usize].request;
            match self.shards[thief].admit(request) {
                Ok(new_local) => {
                    let gid = self.gid_for(donor, donor_local.0);
                    let at = self.shards[donor].elapsed();
                    let rec = &mut self.shards[donor].records[donor_local.0 as usize];
                    rec.state = RequestState::Migrated;
                    rec.finished_at = Some(at);
                    if let Some(gid) = gid {
                        self.routes[gid].shard = thief;
                        self.routes[gid].local = new_local.0;
                    }
                    self.cluster_stats.record_steal();
                    let t = self
                        .traffic
                        .charge_steal(&self.cfg.serve.run.node, self.cfg.steal_bytes);
                    self.shards[thief].clock.stall(LaneKind::Link, t);
                    self.flight.record(
                        self.shards[thief].elapsed(),
                        "steal",
                        gid.map(|g| g as u64),
                        Some(thief as u64),
                        Some(self.ticks as u64),
                        format!("from node {donor} ({t:.3e}s link)"),
                    );
                }
                Err(_) => {
                    // the thief unexpectedly refused (full queue can't
                    // happen — it was empty); re-queue on the donor: the
                    // tie-break re-hashes to the identical value
                    let _ = self.shards[donor].queue.push(
                        donor_local,
                        key,
                        request.priority,
                        request.deadline,
                        request.tenant,
                        request.n_steps.min(u32::MAX as usize) as u32,
                    );
                }
            }
        }
    }

    /// Mirror shard `node`'s checkpoint to its peer store, charging the
    /// link and applying any planned replica corruption. Skipped (and
    /// counted) when the node↔peer link is partitioned this boundary.
    fn mirror(&mut self, node: usize, severed: &[(usize, usize)]) {
        let peer = (node + 1) % self.shards.len();
        let seq = self.shards[node].ticks() as u64;
        if peer != node && Self::is_severed(severed, node, peer) {
            self.replica_skipped += 1;
            self.flight.record(
                self.shards[node].elapsed(),
                "replica_skipped",
                None,
                Some(node as u64),
                Some(self.ticks as u64),
                format!("link to peer {peer} partitioned, seq {seq}"),
            );
            return;
        }
        let bytes = self.shards[node].checkpoint_bytes();
        let t = self
            .traffic
            .charge_replica(&self.cfg.serve.run.node, bytes.len() as f64);
        self.shards[node].clock.stall(LaneKind::Link, t);
        self.replicas[node].mirror(seq, &bytes);
        self.replica_writes += 1;
        if let Some(flip) = self.faults.replica_flip_fault(node, seq) {
            self.replicas[node].flip_bit(seq, flip.seed);
            self.flight.record(
                self.shards[node].elapsed(),
                "replica_flipped",
                None,
                Some(node as u64),
                Some(self.ticks as u64),
                format!("seq {seq} silently bit-flipped in the peer mirror"),
            );
        }
        if let Some(torn) = self.faults.replica_corruption_fault(node, seq) {
            self.replicas[node].tear(seq, torn.keep_frac);
            self.flight.record(
                self.shards[node].elapsed(),
                "replica_torn",
                None,
                Some(node as u64),
                Some(self.ticks as u64),
                format!("seq {seq} torn to {:.0}%", torn.keep_frac * 100.0),
            );
        } else {
            self.flight.record(
                self.shards[node].elapsed(),
                "replica_mirrored",
                None,
                Some(node as u64),
                Some(self.ticks as u64),
                format!("seq {seq}, {} bytes to peer {peer}", bytes.len()),
            );
        }
    }

    /// Node crash: the extended ladder's restart-on-peer rung. Rebuild the
    /// dead shard from its newest valid peer replica (falling back past
    /// torn images) and reconcile the router; evict the node's requests
    /// ([`EvictReason::NodeLost`]) only when no replica validates.
    fn failover(&mut self, node: usize) {
        let cfg = self.shards[node].config().clone();
        let dead_elapsed = self.shards[node].elapsed();
        self.cluster_stats.record_node_crash();
        self.flight.record(
            dead_elapsed,
            "node_crash",
            None,
            Some(node as u64),
            Some(self.ticks as u64),
            "injected node crash",
        );
        let fp = ServeFingerprint::of(self.backend, &cfg);
        let (found, report) = self.replicas[node].load_latest_valid(|_, bytes| {
            ServerCheckpoint::from_bytes(bytes, fp).map(|ck| (ck, bytes.len()))
        });
        self.replica_skipped += report.skipped.len();
        for sk in &report.skipped {
            self.flight.record(
                dead_elapsed,
                "replica_invalid",
                None,
                Some(node as u64),
                Some(self.ticks as u64),
                format!("seq {} skipped: {}", sk.seq, sk.error),
            );
        }
        self.failover_reports.push((node, report));
        let restored = found.and_then(|(seq, (ck, nbytes))| {
            EnsembleServer::from_checkpoint(self.backend, cfg.clone(), NoopFaults, ck)
                .ok()
                .map(|sh| (seq, sh, nbytes))
        });
        match restored {
            Some((seq, mut shard, nbytes)) => {
                let snap_elapsed = shard.elapsed();
                let t = self
                    .traffic
                    .charge_replica(&self.cfg.serve.run.node, nbytes as f64);
                shard.clock.stall(LaneKind::Link, t);
                let recovery = (dead_elapsed - snap_elapsed).max(0.0) + t;
                self.recovery_s.push(recovery);
                self.cluster_stats.record_failover();
                self.shards[node] = shard;
                self.reconcile(node);
                self.flight.record(
                    self.shards[node].elapsed(),
                    "failover",
                    None,
                    Some(node as u64),
                    Some(self.ticks as u64),
                    format!("restored on peer from replica seq {seq}, recovery {recovery:.3e}s"),
                );
            }
            None => self.evict_node(node, cfg, dead_elapsed),
        }
    }

    /// Reconcile the router with a shard just restored from a replica:
    /// re-admit cluster requests the snapshot predates (admitted or
    /// stolen-in after the mirror) and mark requests the snapshot still
    /// holds but the router has since stolen away as `Migrated`, so no
    /// case runs twice and none is dropped.
    fn reconcile(&mut self, node: usize) {
        let snap_admitted = self.shards[node].admitted() as u64;
        let now = self.shards[node].elapsed();
        for gid in 0..self.routes.len() {
            if self.lost[gid].is_some() {
                continue;
            }
            let RouteEntry {
                shard,
                local,
                request,
            } = self.routes[gid];
            if shard != node || local < snap_admitted {
                continue;
            }
            match self.shards[node].admit(request) {
                Ok(new_local) => {
                    self.routes[gid].local = new_local.0;
                    self.flight.record(
                        now,
                        "readmitted",
                        Some(gid as u64),
                        Some(node as u64),
                        Some(self.ticks as u64),
                        "admission postdated the restored replica",
                    );
                }
                Err(_) => self.tombstone(gid, now),
            }
        }
        for local in 0..snap_admitted {
            if self.gid_for(node, local).is_some() {
                continue;
            }
            if self.shards[node].records[local as usize]
                .state
                .is_terminal()
            {
                continue;
            }
            // live in the snapshot but routed elsewhere now: the request
            // was stolen away after the mirror — drop this stale copy
            self.shards[node].queue.remove(RequestId(local));
            let rec = &mut self.shards[node].records[local as usize];
            rec.state = RequestState::Migrated;
            rec.finished_at = Some(now);
            self.flight.record(
                now,
                "steal_reconciled",
                Some(local),
                Some(node as u64),
                Some(self.ticks as u64),
                "stale snapshot copy of a stolen request dropped",
            );
        }
    }

    /// Last resort: no valid replica — replace the shard with a fresh one
    /// and tombstone every request routed to it as `NodeLost`.
    fn evict_node(&mut self, node: usize, cfg: ServeConfig, now: f64) {
        self.shards[node] = EnsembleServer::new(self.backend, cfg);
        for gid in 0..self.routes.len() {
            if self.lost[gid].is_some() || self.routes[gid].shard != node {
                continue;
            }
            self.tombstone(gid, now);
        }
        self.flight.record(
            now,
            "node_evicted",
            None,
            Some(node as u64),
            Some(self.ticks as u64),
            "no valid replica; node's requests evicted as node_lost",
        );
    }

    /// Tombstone one cluster request as lost with its node.
    fn tombstone(&mut self, gid: usize, now: f64) {
        self.lost[gid] = Some(RequestRecord {
            id: RequestId(gid as u64),
            request: self.routes[gid].request,
            state: RequestState::Evicted,
            admitted_at: 0.0,
            finished_at: Some(now),
            evict_reason: Some(EvictReason::NodeLost),
            result: None,
        });
        self.cluster_stats.record_eviction();
        self.flight.record(
            now,
            "evicted",
            Some(gid as u64),
            None,
            Some(self.ticks as u64),
            EvictReason::NodeLost.label(),
        );
    }

    /// Merged serving metrics: cluster-level counters (crashes,
    /// failovers, steals, router sheds, node-lost evictions) plus every
    /// shard's stats, with elapsed = the slowest shard (shards run
    /// concurrently). Built fresh on each call — [`ServeStats::merge`]
    /// sums counters, so merging is only valid into a fresh accumulator.
    pub fn stats(&self) -> ServeStats {
        let mut s = self.cluster_stats.clone();
        for sh in &self.shards {
            s.merge(sh.stats());
        }
        s.set_elapsed(self.elapsed());
        s
    }

    /// Telemetry snapshot: the merged [`ServeStats`] mapped onto the
    /// declared `serve_*` names plus the cluster-only series (shard
    /// count, replica traffic, link time, per-failover recovery latency).
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc("serve_requests_admitted_total", self.routes.len() as f64);
        self.stats().to_registry(&mut reg);
        reg.gauge_set("serve_shards", self.shards.len() as f64);
        reg.inc("serve_replica_writes_total", self.replica_writes as f64);
        reg.inc("serve_replica_skipped_total", self.replica_skipped as f64);
        reg.gauge_set("serve_link_time_s", self.traffic.link_time_s);
        for &r in &self.recovery_s {
            reg.observe("serve_failover_recovery_s", r);
        }
        reg.inc("flight_events_dropped_total", self.flight.dropped() as f64);
        reg
    }

    /// Cluster-wide record of an admitted request (`id` rewritten to the
    /// cluster id; tombstones win over routed records).
    pub fn record(&self, id: RequestId) -> RequestRecord {
        let gid = id.0 as usize;
        if let Some(t) = &self.lost[gid] {
            return t.clone();
        }
        let r = &self.routes[gid];
        let mut rec = self.shards[r.shard].record(RequestId(r.local)).clone();
        rec.id = id;
        rec
    }

    /// Final displacement of a `Done` request.
    pub fn result(&self, id: RequestId) -> Option<Vec<f64>> {
        let gid = id.0 as usize;
        if self.lost[gid].is_some() {
            return None;
        }
        let r = &self.routes[gid];
        self.shards[r.shard]
            .result(RequestId(r.local))
            .map(|x| x.to_vec())
    }

    /// Lifecycle state of a cluster request.
    pub fn state(&self, id: RequestId) -> RequestState {
        self.record(id).state
    }

    /// Requests ever routed (cluster ids are `0..admitted()`).
    pub fn admitted(&self) -> usize {
        self.routes.len()
    }

    /// Current placement `(shard, shard-local id)` of a request.
    pub fn route(&self, id: RequestId) -> (usize, u64) {
        let r = &self.routes[id.0 as usize];
        (r.shard, r.local)
    }

    /// Modeled cluster clock: the slowest shard's elapsed time (shards
    /// run concurrently on their own nodes).
    pub fn elapsed(&self) -> f64 {
        self.shards.iter().map(|s| s.elapsed()).fold(0.0, f64::max)
    }

    /// Queued requests across all shards.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue_depth()).sum()
    }

    /// Requests occupying lane slots across all shards.
    pub fn in_flight(&self) -> usize {
        self.shards.iter().map(|s| s.in_flight()).sum()
    }

    /// Cluster scheduling boundaries executed.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The node-local shards (tests inspect per-shard placement).
    pub fn shards(&self) -> &[EnsembleServer<'b, NoopFaults>] {
        &self.shards
    }

    /// Peer-held replica mirror of shard `node`.
    pub fn replica(&self, node: usize) -> &ReplicaStore {
        &self.replicas[node]
    }

    /// Modeled cross-node link traffic so far.
    pub fn traffic(&self) -> &LinkTraffic {
        &self.traffic
    }

    /// Node-loss → serving-again latency of each failover, in order.
    pub fn recovery_latencies(&self) -> &[f64] {
        &self.recovery_s
    }

    /// `(node, restore scan)` of each failover, in order.
    pub fn failover_reports(&self) -> &[(usize, RestoreReport)] {
        &self.failover_reports
    }

    /// The cluster-level flight ring.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }
}
