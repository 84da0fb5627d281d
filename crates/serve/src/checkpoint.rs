//! Crash-consistent snapshots of a whole [`EnsembleServer`].
//!
//! [`ServerCheckpoint`] captures everything a serving run has accumulated
//! at a tick boundary — the admission queue (including its admission-time
//! tie-breaks), lane geometry and every in-flight [`CaseSlot`]'s state,
//! every [`RequestRecord`] lifecycle, the modeled clock, the serving
//! counters, and the recovery-ladder events — in the sectioned,
//! checksummed `hetsolve-ckpt` format. A restored server continues
//! *bitwise-identically*: the same requests finish with the same final
//! displacements on the same modeled timeline, and counters resume where
//! the saved run left off instead of resetting.
//!
//! A [`ServeFingerprint`] extends the core run fingerprint with the
//! serving knobs that shape the trajectory (queue capacity, scheduler
//! seed, batch policy, watchdog ladder); a snapshot restored against a
//! different configuration fails typed, and
//! [`CheckpointStore::load_latest_valid`] falls back to an older file.

use std::io;
use std::path::PathBuf;

use hetsolve_ckpt::{
    mix64, wire_newtype, wire_struct, CheckpointStore, CkptError, RestoreReport, SectionReader,
    SectionWriter, Wire,
};
use hetsolve_core::{
    Backend, CaseSlot, ConfigFingerprint, CorruptionReport, RecoveryEvent, SlotState,
};
use hetsolve_fault::FaultPlan;
use hetsolve_machine::ClockState;
use hetsolve_obs::{FlightRecorder, ServeStats};

use crate::batcher::{BatchPolicy, CompatKey};
use crate::qos::{AutoscaleConfig, AutoscalerState, QosConfig, TenantQuota};
use crate::queue::{DrrState, QueueEntrySnapshot};
use crate::request::{RequestId, RequestRecord};
use crate::server::{EnsembleServer, ServeConfig};
use crate::watchdog::WatchdogConfig;

/// Section tags of the server-checkpoint format.
const TAG_META: [u8; 4] = *b"META";
const TAG_CLOCK: [u8; 4] = *b"CLK\0";
const TAG_QUEUE: [u8; 4] = *b"QUE\0";
const TAG_LANES: [u8; 4] = *b"LANE";
const TAG_REQUESTS: [u8; 4] = *b"REQ\0";
const TAG_STATS: [u8; 4] = *b"STAT";
const TAG_RECOVERIES: [u8; 4] = *b"RCVR";
/// Flight-recorder ring.
const TAG_FLIGHT: [u8; 4] = *b"FLIT";
/// Multi-tenant QoS state (DRR deficits/cursor, autoscaler state, and the
/// quota table the run was configured with).
const TAG_QOS: [u8; 4] = *b"QOS\0";
/// Silent-data-corruption defense state: the corruption reports collected
/// so far plus the per-lane SDC-ladder breach counters.
const TAG_INTEGRITY: [u8; 4] = *b"INTG";

/// Hash of everything that determines a serving run's trajectory but is
/// rebuilt from `(backend, cfg)` on restore: the core run fingerprint
/// plus the scheduling and supervision knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeFingerprint(pub u64);

wire_newtype!(ServeFingerprint(u64));

impl ServeFingerprint {
    /// Every config struct is destructured without `..`: a new field must
    /// be mixed or explicitly waved through here before this compiles.
    pub fn of(backend: &Backend, cfg: &ServeConfig) -> Self {
        let ServeConfig {
            run,
            queue_capacity,
            policy,
            sched_seed,
            // a safety net against a stuck loop; never steers a healthy run
            max_ticks: _,
            watchdog,
            checkpoint_every,
            // the ring's size and dump path shape telemetry, not state
            flight_capacity: _,
            flight_dump: _,
            qos,
            autoscale,
            keep_results,
        } = cfg;
        let mut h = ConfigFingerprint::of(backend, run).0;
        h = mix64(h, *queue_capacity as u64);
        h = mix64(h, *sched_seed);
        h = mix64(
            h,
            match policy {
                BatchPolicy::Continuous => 0,
                BatchPolicy::DrainThenRefill => 1,
            },
        );
        h = mix64(h, *checkpoint_every as u64);
        match watchdog {
            None => h = mix64(h, 0),
            Some(WatchdogConfig {
                step_deadline_s,
                max_retries,
                backoff_base_s,
                backoff_factor,
            }) => {
                h = mix64(h, 1);
                h = mix64(h, step_deadline_s.to_bits());
                h = mix64(h, *max_retries as u64);
                h = mix64(h, backoff_base_s.to_bits());
                h = mix64(h, backoff_factor.to_bits());
            }
        }
        match qos {
            None => h = mix64(h, 0),
            Some(QosConfig { tenants, quantum }) => {
                h = mix64(h, 1);
                h = mix64(h, *quantum);
                h = mix64(h, tenants.len() as u64);
                for t in tenants {
                    let TenantQuota {
                        weight,
                        max_in_flight,
                        queue_share,
                        slo_latency_s,
                    } = t;
                    h = mix64(h, *weight);
                    h = mix64(h, *max_in_flight as u64);
                    h = mix64(h, queue_share.to_bits());
                    h = mix64(h, slo_latency_s.map_or(0, f64::to_bits));
                }
            }
        }
        match autoscale {
            None => h = mix64(h, 0),
            Some(AutoscaleConfig {
                min_lanes,
                max_lanes,
                scale_up_queue_per_lane,
                scale_down_occupancy,
                cooldown_ticks,
            }) => {
                h = mix64(h, 1);
                h = mix64(h, *min_lanes as u64);
                h = mix64(h, *max_lanes as u64);
                h = mix64(h, *scale_up_queue_per_lane as u64);
                h = mix64(h, scale_down_occupancy.to_bits());
                h = mix64(h, *cooldown_ticks);
            }
        }
        h = mix64(h, u64::from(*keep_results));
        ServeFingerprint(h)
    }
}

/// One lane as the checkpoint sees it: its compatibility key, its
/// consecutive-breach count, and each occupied column's request and
/// captured case state.
#[derive(Debug, Clone)]
pub struct LaneCheckpoint {
    pub key: Option<u64>,
    pub breach: u32,
    pub slots: Vec<Option<(RequestId, SlotState)>>,
}

wire_struct!(LaneCheckpoint { key, breach, slots });

/// One crash-consistent snapshot of a serving run at a tick boundary.
#[derive(Debug, Clone)]
pub struct ServerCheckpoint {
    pub fingerprint: ServeFingerprint,
    pub ticks: usize,
    pub admissions: usize,
    pub clock: ClockState,
    pub queue: Vec<QueueEntrySnapshot>,
    pub lanes: Vec<LaneCheckpoint>,
    pub records: Vec<RequestRecord>,
    pub stats: ServeStats,
    pub recoveries: Vec<RecoveryEvent>,
    pub flight: FlightRecorder,
    /// DRR fair-share cursor and per-tenant deficits at the boundary.
    pub drr: DrrState,
    /// Autoscaler cooldown/drain state at the boundary.
    pub autoscaler: AutoscalerState,
    /// The quota table the run was configured with (informational —
    /// the fingerprint already rejects restores into different quotas).
    pub quotas: Vec<TenantQuota>,
    /// Corruption detections (and recoveries) collected so far.
    pub corruptions: Vec<CorruptionReport>,
    /// Per-lane consecutive-corrupted-tick counters of the SDC ladder.
    pub sdc_breach: Vec<u32>,
}

impl ServerCheckpoint {
    /// Serialize into the sectioned `hetsolve-ckpt` format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let ServerCheckpoint {
            fingerprint,
            ticks,
            admissions,
            clock,
            queue,
            lanes,
            records,
            stats,
            recoveries,
            flight,
            drr,
            autoscaler,
            quotas,
            corruptions,
            sdc_breach,
        } = self;
        let mut w = SectionWriter::new();
        w.put(TAG_META, &(*fingerprint, *ticks, *admissions));
        w.put(TAG_CLOCK, clock);
        w.put(TAG_QUEUE, queue);
        w.put(TAG_LANES, lanes);
        w.put(TAG_REQUESTS, records);
        w.put(TAG_STATS, stats);
        w.put(TAG_RECOVERIES, recoveries);
        w.put(TAG_FLIGHT, flight);
        w.put_with(TAG_QOS, |enc| {
            drr.put(enc);
            autoscaler.put(enc);
            quotas.put(enc);
        });
        w.put_with(TAG_INTEGRITY, |enc| {
            corruptions.put(enc);
            sdc_breach.put(enc);
        });
        w.finish()
    }

    /// Parse and validate a snapshot. A fingerprint mismatch is typed
    /// corruption — the snapshot belongs to a different serving setup —
    /// so the store's restore scan skips it and keeps falling back.
    pub fn from_bytes(bytes: &[u8], expect: ServeFingerprint) -> Result<Self, CkptError> {
        let r = SectionReader::parse(bytes)?;
        let (fingerprint, ticks, admissions): (ServeFingerprint, _, _) = r.get(TAG_META)?;
        if fingerprint != expect {
            return Err(CkptError::Corrupt(format!(
                "serve fingerprint mismatch: checkpoint {:#018x}, server {:#018x}",
                fingerprint.0, expect.0
            )));
        }
        let (drr, autoscaler, quotas) = r.get(TAG_QOS)?;
        let (corruptions, sdc_breach) = r.get(TAG_INTEGRITY)?;
        Ok(ServerCheckpoint {
            fingerprint,
            ticks,
            admissions,
            clock: r.get(TAG_CLOCK)?,
            queue: r.get(TAG_QUEUE)?,
            lanes: r.get(TAG_LANES)?,
            records: r.get(TAG_REQUESTS)?,
            stats: r.get(TAG_STATS)?,
            recoveries: r.get(TAG_RECOVERIES)?,
            flight: r.get(TAG_FLIGHT)?,
            drr,
            autoscaler,
            quotas,
            corruptions,
            sdc_breach,
        })
    }
}

impl<'b> EnsembleServer<'b> {
    /// Snapshot the server as it stands at a tick boundary.
    pub fn checkpoint(&self) -> ServerCheckpoint {
        let lanes = (0..self.batcher.n_lanes())
            .map(|lane| LaneCheckpoint {
                key: self.batcher.lane_key(lane).map(|k| k.0),
                breach: self.watchdog_breach[lane],
                slots: (0..self.batcher.width())
                    .map(|slot| {
                        match (
                            self.batcher.slot(lane, slot),
                            self.slots[lane][slot].as_ref(),
                        ) {
                            (Some(id), Some(case)) => Some((id, case.state())),
                            _ => None,
                        }
                    })
                    .collect(),
            })
            .collect();
        ServerCheckpoint {
            fingerprint: ServeFingerprint::of(self.backend, &self.cfg),
            ticks: self.ticks,
            admissions: self.admissions,
            clock: self.clock.state(),
            queue: self.queue.snapshot(),
            lanes,
            records: self.records.clone(),
            stats: self.stats.clone(),
            recoveries: self.recoveries.clone(),
            flight: self.flight.clone(),
            drr: self.queue.drr_state().clone(),
            autoscaler: self.autoscaler,
            quotas: self
                .cfg
                .qos
                .as_ref()
                .map_or_else(Vec::new, |q| q.tenants.clone()),
            corruptions: self.corruptions.clone(),
            sdc_breach: self.sdc_breach.clone(),
        }
    }

    /// Serialized snapshot, ready for [`CheckpointStore::save`].
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        self.checkpoint().to_bytes()
    }

    /// Atomically write a snapshot to `store`, sequenced by the tick
    /// count (so newer boundaries sort after older ones). The write is
    /// itself a flight event — visible in the *next* snapshot's ring, so
    /// a post-restore dump shows where the restored state came from.
    pub fn save_checkpoint(&mut self, store: &CheckpointStore) -> io::Result<PathBuf> {
        let bytes = self.checkpoint_bytes();
        let path = store.save(self.ticks as u64, &bytes)?;
        self.flight.record(
            self.clock.elapsed(),
            "ckpt_write",
            None,
            None,
            Some(self.ticks as u64),
            format!("{} bytes", bytes.len()),
        );
        Ok(path)
    }

    /// Rebuild a server from a parsed snapshot, injecting `faults`. The
    /// restored server continues bitwise-identically to the one the
    /// snapshot was taken from — same results, same modeled timeline,
    /// counters intact.
    pub fn from_checkpoint(
        backend: &'b Backend,
        cfg: ServeConfig,
        faults: FaultPlan,
        ck: ServerCheckpoint,
    ) -> Result<Self, CkptError> {
        let mut server = Self::with_faults(backend, cfg, faults);
        if ck.sdc_breach.len() != ck.lanes.len()
            || ck
                .lanes
                .iter()
                .any(|l| l.slots.len() != server.batcher.width())
        {
            return Err(CkptError::Corrupt("lane geometry mismatch".into()));
        }
        if ck.lanes.len() != server.batcher.n_lanes() {
            // With autoscaling the snapshot may hold any lane count within
            // the configured [min, max] band (a fresh server starts at
            // `min_lanes`, so only growth is ever needed); anything else —
            // including any mismatch without autoscaling — is corruption.
            let within_band = server
                .cfg
                .autoscale
                .is_some_and(|a| (a.min_lanes.max(1)..=a.max_lanes).contains(&ck.lanes.len()));
            if !within_band {
                return Err(CkptError::Corrupt("lane geometry mismatch".into()));
            }
            while server.batcher.n_lanes() < ck.lanes.len() {
                server.batcher.add_lane();
                let r = server.batcher.width();
                server.slots.push((0..r).map(|_| None).collect());
                server.watchdog_breach.push(0);
                server.sdc_breach.push(0);
                server.lane_ckpt.push((0..r).map(|_| None).collect());
            }
        }
        server.queue.restore(ck.queue);
        server.queue.restore_drr(ck.drr);
        server.autoscaler = ck.autoscaler;
        if server.autoscaler.draining {
            if server.batcher.n_lanes() > 1 {
                // Re-mark the drain (the batcher's drain flag is derived —
                // it always targets the highest lane).
                server.batcher.drain_last();
            } else {
                server.autoscaler.draining = false;
            }
        }
        for (lane, lc) in ck.lanes.iter().enumerate() {
            server.watchdog_breach[lane] = lc.breach;
            for (slot, entry) in lc.slots.iter().enumerate() {
                let Some((id, st)) = entry else { continue };
                let key = lc
                    .key
                    .ok_or_else(|| CkptError::Corrupt("occupied lane without a key".into()))?;
                st.check(backend.n_dofs())?;
                server.batcher.restore_slot(lane, slot, *id, CompatKey(key));
                server.slots[lane][slot] = Some(CaseSlot::from_state(backend, &server.cfg.run, st));
            }
        }
        server.records = ck.records;
        server.clock.restore_state(&ck.clock);
        server.stats = ck.stats;
        server.recoveries = ck.recoveries;
        server.corruptions = ck.corruptions;
        server.sdc_breach = ck.sdc_breach;
        server.admissions = ck.admissions;
        server.ticks = ck.ticks;
        server.flight = ck.flight;
        server.flight.record(
            server.clock.elapsed(),
            "restored",
            None,
            None,
            Some(server.ticks as u64),
            "server rebuilt from checkpoint",
        );
        // the in-memory lane checkpoints do not survive a crash; re-seed
        // them from the restored state where a restart rung can read them:
        // every lane under a watchdog, a lane whose SDC ladder is under
        // way otherwise
        let supervised = server.cfg.watchdog.is_some();
        for lane in 0..server.batcher.n_lanes() {
            let read = supervised || server.sdc_breach[lane] > 0;
            if read && server.cfg.checkpoint_every > 0 {
                server.capture_lane(lane);
            }
        }
        Ok(server)
    }

    /// Parse `bytes` (validating the fingerprint against `(backend, cfg)`)
    /// and rebuild the server, injecting nothing.
    pub fn restore(
        backend: &'b Backend,
        cfg: ServeConfig,
        bytes: &[u8],
    ) -> Result<Self, CkptError> {
        let ck = ServerCheckpoint::from_bytes(bytes, ServeFingerprint::of(backend, &cfg))?;
        Self::from_checkpoint(backend, cfg, FaultPlan::default(), ck)
    }

    /// Restore from the newest valid checkpoint in `store`, falling back
    /// past torn or corrupt files (the [`RestoreReport`] says which were
    /// skipped). `None` when no valid checkpoint exists.
    pub fn restore_latest(
        backend: &'b Backend,
        cfg: ServeConfig,
        store: &CheckpointStore,
    ) -> (Option<(u64, Self)>, RestoreReport) {
        let fp = ServeFingerprint::of(backend, &cfg);
        let (found, mut report) =
            store.load_latest_valid(|_, bytes| ServerCheckpoint::from_bytes(bytes, fp));
        match found {
            Some((seq, ck)) => {
                match Self::from_checkpoint(backend, cfg, FaultPlan::default(), ck) {
                    Ok(server) => (Some((seq, server)), report),
                    Err(error) => {
                        report.skipped.push(hetsolve_ckpt::SkippedCheckpoint {
                            seq,
                            path: store.path_for(seq),
                            error,
                        });
                        (None, report)
                    }
                }
            }
            None => (None, report),
        }
    }
}
