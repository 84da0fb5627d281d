//! Crash-consistent snapshots of a whole [`ClusterServer`].
//!
//! [`ClusterCheckpoint`] captures the router (every [`RouteEntry`] and
//! tombstone), the cluster counters, the modeled link-traffic ledger, the
//! cluster flight ring, and an opaque serialized [`ServerCheckpoint`]
//! image per shard — each validated by its own fingerprint/CRC path on
//! restore, so a torn shard image fails the whole cluster snapshot typed
//! instead of silently dropping a node. Peer [`ReplicaStore`]s are
//! volatile by design and *not* checkpointed: a restored cluster refills
//! them at the next mirror boundary, exactly as a rebooted peer would.
//!
//! [`ReplicaStore`]: hetsolve_ckpt::ReplicaStore
//! [`ServerCheckpoint`]: crate::ServerCheckpoint

use hetsolve_ckpt::{mix64, wire_newtype, CkptError, SectionReader, SectionWriter};
use hetsolve_core::Backend;
use hetsolve_fault::FaultPlan;
use hetsolve_machine::LinkTraffic;
use hetsolve_obs::{FlightRecorder, ServeStats};

use crate::checkpoint::ServeFingerprint;
use crate::request::RequestRecord;
use crate::server::EnsembleServer;
use crate::shard::cluster::{ClusterConfig, ClusterServer, RouteEntry};

/// Section tags of the cluster-checkpoint format.
const TAG_META: [u8; 4] = *b"META";
const TAG_ROUTES: [u8; 4] = *b"ROUT";
const TAG_LOST: [u8; 4] = *b"LOST";
const TAG_STATS: [u8; 4] = *b"STAT";
const TAG_TRAFFIC: [u8; 4] = *b"TRAF";
const TAG_RECOVERY: [u8; 4] = *b"RCVY";
const TAG_FLIGHT: [u8; 4] = *b"FLIT";
const TAG_SHARDS: [u8; 4] = *b"SHRD";

/// Hash of everything that determines a cluster run's trajectory but is
/// rebuilt from `(backend, cfg)` on restore: every shard's
/// [`ServeFingerprint`] plus the distribution knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterFingerprint(pub u64);

wire_newtype!(ClusterFingerprint(u64));

impl ClusterFingerprint {
    /// The config is destructured without `..`: a new field must be mixed
    /// or explicitly waved through here before this compiles.
    pub fn of(backend: &Backend, cfg: &ClusterConfig) -> Self {
        let ClusterConfig {
            // mixed through every `shard_cfg(i)` below
            serve: _,
            shards,
            placement_seed,
            replica_every,
            replica_keep,
            steal,
            steal_bytes,
        } = cfg;
        let mut h = mix64(0xc1a5_7e12, *shards as u64);
        for i in 0..*shards {
            h = mix64(h, ServeFingerprint::of(backend, &cfg.shard_cfg(i)).0);
        }
        h = mix64(h, *placement_seed);
        h = mix64(h, *replica_every as u64);
        h = mix64(h, *replica_keep as u64);
        h = mix64(h, *steal as u64);
        h = mix64(h, steal_bytes.to_bits());
        ClusterFingerprint(h)
    }
}

/// One crash-consistent snapshot of a cluster run at a tick boundary.
#[derive(Debug, Clone)]
pub struct ClusterCheckpoint {
    pub fingerprint: ClusterFingerprint,
    pub ticks: usize,
    pub admissions: usize,
    pub routes: Vec<RouteEntry>,
    pub lost: Vec<Option<RequestRecord>>,
    pub stats: ServeStats,
    pub replica_writes: usize,
    pub replica_skipped: usize,
    pub recovery_s: Vec<f64>,
    pub traffic: LinkTraffic,
    pub flight: FlightRecorder,
    /// One serialized [`crate::checkpoint::ServerCheckpoint`] per shard,
    /// kept opaque here and validated by the shard's own restore path.
    pub shards: Vec<Vec<u8>>,
}

impl ClusterCheckpoint {
    /// Serialize into the sectioned `hetsolve-ckpt` format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let ClusterCheckpoint {
            fingerprint,
            ticks,
            admissions,
            routes,
            lost,
            stats,
            replica_writes,
            replica_skipped,
            recovery_s,
            traffic,
            flight,
            shards,
        } = self;
        let mut w = SectionWriter::new();
        w.put(
            TAG_META,
            &(
                *fingerprint,
                *ticks,
                *admissions,
                *replica_writes,
                *replica_skipped,
            ),
        );
        w.put(TAG_ROUTES, routes);
        w.put(TAG_LOST, lost);
        w.put(TAG_STATS, stats);
        w.put(TAG_TRAFFIC, traffic);
        w.put(TAG_RECOVERY, recovery_s);
        w.put(TAG_FLIGHT, flight);
        w.put(TAG_SHARDS, shards);
        w.finish()
    }

    /// Parse and validate a snapshot. A fingerprint mismatch is typed
    /// corruption — the snapshot belongs to a different cluster setup.
    pub fn from_bytes(bytes: &[u8], expect: ClusterFingerprint) -> Result<Self, CkptError> {
        let r = SectionReader::parse(bytes)?;
        let (fingerprint, ticks, admissions, replica_writes, replica_skipped): (
            ClusterFingerprint,
            _,
            _,
            _,
            _,
        ) = r.get(TAG_META)?;
        if fingerprint != expect {
            return Err(CkptError::Corrupt(format!(
                "cluster fingerprint mismatch: checkpoint {:#018x}, cluster {:#018x}",
                fingerprint.0, expect.0
            )));
        }
        Ok(ClusterCheckpoint {
            fingerprint,
            ticks,
            admissions,
            routes: r.get(TAG_ROUTES)?,
            lost: r.get(TAG_LOST)?,
            stats: r.get(TAG_STATS)?,
            replica_writes,
            replica_skipped,
            recovery_s: r.get(TAG_RECOVERY)?,
            traffic: r.get(TAG_TRAFFIC)?,
            flight: r.get(TAG_FLIGHT)?,
            shards: r.get(TAG_SHARDS)?,
        })
    }
}

impl<'b> ClusterServer<'b> {
    /// Snapshot the cluster as it stands at a tick boundary.
    pub(crate) fn checkpoint(&self) -> ClusterCheckpoint {
        ClusterCheckpoint {
            fingerprint: ClusterFingerprint::of(self.backend, &self.cfg),
            ticks: self.ticks,
            admissions: self.admissions,
            routes: self.routes.clone(),
            lost: self.lost.clone(),
            stats: self.cluster_stats.clone(),
            replica_writes: self.replica_writes,
            replica_skipped: self.replica_skipped,
            recovery_s: self.recovery_s.clone(),
            traffic: self.traffic,
            flight: self.flight.clone(),
            shards: self.shards.iter().map(|s| s.checkpoint_bytes()).collect(),
        }
    }

    /// Serialized snapshot, ready for
    /// [`CheckpointStore::save`](hetsolve_ckpt::CheckpointStore::save).
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        self.checkpoint().to_bytes()
    }

    /// Rebuild a cluster from a parsed snapshot. Each shard image is
    /// validated and restored through the shard's own checkpoint path;
    /// peer replica stores start empty and refill at the next mirror
    /// boundary.
    pub(crate) fn from_checkpoint(
        backend: &'b Backend,
        cfg: ClusterConfig,
        faults: FaultPlan,
        ck: ClusterCheckpoint,
    ) -> Result<Self, CkptError> {
        if ck.shards.len() != cfg.shards {
            return Err(CkptError::Corrupt(format!(
                "shard count mismatch: checkpoint {}, config {}",
                ck.shards.len(),
                cfg.shards
            )));
        }
        let mut cluster = Self::with_faults(backend, cfg, faults);
        for (i, image) in ck.shards.iter().enumerate() {
            cluster.shards[i] = EnsembleServer::restore(backend, cluster.cfg.shard_cfg(i), image)?;
        }
        cluster.routes = ck.routes;
        cluster.lost = ck.lost;
        cluster.cluster_stats = ck.stats;
        cluster.traffic = ck.traffic;
        cluster.flight = ck.flight;
        cluster.admissions = ck.admissions;
        cluster.ticks = ck.ticks;
        cluster.replica_writes = ck.replica_writes;
        cluster.replica_skipped = ck.replica_skipped;
        cluster.recovery_s = ck.recovery_s;
        cluster.flight.record(
            cluster.elapsed(),
            "restored",
            None,
            None,
            Some(cluster.ticks as u64),
            "cluster rebuilt from checkpoint",
        );
        Ok(cluster)
    }

    /// Parse `bytes` (validating the fingerprint against `(backend, cfg)`)
    /// and rebuild the cluster, injecting nothing.
    pub fn restore(
        backend: &'b Backend,
        cfg: ClusterConfig,
        bytes: &[u8],
    ) -> Result<Self, CkptError> {
        let ck = ClusterCheckpoint::from_bytes(bytes, ClusterFingerprint::of(backend, &cfg))?;
        Self::from_checkpoint(backend, cfg, FaultPlan::default(), ck)
    }
}
