//! Golden bytes for every checkpoint layout (DESIGN.md §12).
//!
//! Every file under `tests/data/wire/` (and `parent_ebe_step2.hsckpt`) is a
//! recorded image. Each test parses a golden with this commit's decoder and
//! re-encodes it with this commit's encoder; the result must be the golden
//! file byte for byte, so every field crosses both directions of the codec
//! against bytes an earlier commit wrote. The fingerprints are pinned the
//! same way, as the `fingerprint/…` lines of `tests/data/pins.txt`.
//!
//! The files were first written by the 28 hand-written encode/decode pairs
//! that preceded the `wire_struct!` field lists, and re-recorded once, at
//! PR 23, by the field lists that had reproduced them byte for byte since:
//! that PR moved the bits of every stored displacement (the block sweep's
//! summation order), the format version (1 → 2) and the fingerprints (node
//! model and integrity configuration mixed in), and no layout. They were
//! re-recorded again when the predictor history became `f32` and the
//! serial schedule stopped keeping one: the slot layout's history columns,
//! the stored displacements and the format version (2 → 3) moved, the
//! fingerprints did not. They were re-recorded a third time when the
//! serving stats became one counter table with running sums: the stats
//! layout inside the server and cluster images and the format version
//! (3 → 4) moved; no displacement bit and no fingerprint did, and the run
//! image differs from its version-3 twin in the version bytes alone.
//! `v1_ebe_step2.hsckpt`, `v2_ebe_step2.hsckpt` and `v3_ebe_step2.hsckpt`
//! are the earlier run images of that run, kept to show that they are
//! refused.
//!
//! The scenario builders at the bottom are how the files are produced
//! (`record_goldens`, ignored, which `cargo test --release -- --ignored
//! record` runs with every other recorder). Re-record only when bits or a
//! layout move on purpose — the point of the files is that they were *not*
//! written by the code under test.

use hetsolve::ckpt::CkptError;
use hetsolve::core::{
    CheckpointPolicy, ConfigFingerprint, RecoveryEvent, RunCheckpoint, WindowPolicy,
};
use hetsolve::fault::StateField;
use hetsolve::load::{soak_server, ArrivalLog, LoadConfig, SoakReport, TrafficShape};
use hetsolve::obs::{ServeCounter, Termination};
use hetsolve::prelude::*;
use hetsolve::serve::{
    AutoscaleConfig, ClusterCheckpoint, ClusterConfig, ClusterFingerprint, ClusterServer,
    QosConfig, RequestState, ServeFingerprint, ServerCheckpoint, TenantId, TenantQuota,
    WatchdogConfig,
};

mod pins;
mod wire_common;
use wire_common::{data, golden, reseal, without, RUN_TAGS, SERVER_TAGS};

fn backend() -> Backend {
    let spec = GroundModelSpec::paper_like(4, 3, 2, InterfaceShape::Stratified);
    let b = Backend::new(FemProblem::paper_like(&spec), true, false);
    assert_eq!(b.n_dofs(), 945);
    b
}

/// The run the `parent_ebe_step2.hsckpt` golden was taken from
/// (`tests/driver_unification.rs::ckpt_config`).
fn run_cfg() -> RunConfig {
    let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), 8);
    cfg.r = 1;
    cfg.s_max = 3;
    cfg.region_dofs = 300;
    cfg.window = WindowPolicy::Adaptive;
    cfg.load = RandomLoadSpec {
        n_sources: 4,
        impulses_per_source: 2.0,
        amplitude: 1e6,
        active_window: 0.2,
    };
    cfg
}

/// QoS, autoscaling and a watchdog all configured: every optional block of
/// `ServeFingerprint::of` and every optional section of the image is live.
fn serve_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::new(single_gh200());
    cfg.run.r = 2;
    cfg.run.s_max = 2;
    cfg.run.region_dofs = 64;
    cfg.run.load = run_cfg().load;
    cfg.queue_capacity = 16;
    cfg.checkpoint_every = 2;
    cfg.flight_capacity = 24;
    cfg.watchdog = Some(WatchdogConfig::new(10.0));
    let mut autoscale = AutoscaleConfig::new(1, 2);
    autoscale.scale_up_queue_per_lane = 2;
    autoscale.cooldown_ticks = 1;
    cfg.with_qos(QosConfig::new(vec![
        TenantQuota::new(2).with_slo(1e-9),
        TenantQuota::new(1).with_max_in_flight(1),
    ]))
    .with_autoscale(autoscale)
}

fn cluster_cfg() -> ClusterConfig {
    let mut serve = ServeConfig::new(alps_node());
    serve.run.r = 2;
    serve.run.s_max = 2;
    serve.run.region_dofs = 64;
    serve.run.load = run_cfg().load;
    ClusterConfig::new(serve, 2)
}

/// Second configs for the fingerprint pins: every field the first ones
/// leave at a default that the hash mixes differently.
fn run_cfg_b() -> RunConfig {
    let mut cfg = run_cfg();
    cfg.method = MethodKind::CrsCgCpu;
    cfg.window = WindowPolicy::FullWindow;
    cfg.record_surface = true;
    cfg
}

fn cluster_cfg_b() -> ClusterConfig {
    let mut cfg = cluster_cfg();
    cfg.shards = 3;
    cfg.steal = false;
    cfg.replica_keep = 4;
    cfg
}

fn load_cfgs() -> [(&'static str, LoadConfig); 3] {
    let base = |seed| {
        LoadConfig::new(seed, 6, 40.0)
            .with_tenants(2, 0.9)
            .with_steps(1, 2)
            .with_priorities(3)
    };
    [
        ("wire/arrivals_constant.bin", base(5)),
        (
            "wire/arrivals_diurnal.bin",
            base(6)
                .with_shape(TrafficShape::Diurnal {
                    base_rps: 40.0,
                    amplitude: 0.5,
                    period_s: 30.0,
                })
                .with_deadline_slack(12.0),
        ),
        (
            "wire/arrivals_burst.bin",
            base(7).with_shape(TrafficShape::Burst {
                base_rps: 20.0,
                burst_rps: 60.0,
                start_s: 0.05,
                len_s: 0.1,
            }),
        ),
    ]
}

// ---------------------------------------------------------------------------
// from_bytes(golden).to_bytes() == golden

#[test]
fn run_checkpoint_golden_reencodes_byte_for_byte() {
    let b = backend();
    let bytes = golden("parent_ebe_step2.hsckpt");
    let ck = RunCheckpoint::from_bytes(&bytes, ConfigFingerprint::of(&b, &run_cfg()))
        .expect("parent RunCheckpoint decodes");
    assert_eq!(ck.step, 2);
    assert_eq!(ck.slots.len(), 2);
    assert_eq!(ck.records.len(), 2);
    assert!(ck.to_bytes() == bytes, "RunCheckpoint re-encode differs");
}

#[test]
fn server_checkpoint_golden_reencodes_byte_for_byte() {
    let b = backend();
    let bytes = golden("wire/server.hsckpt");
    let ck = ServerCheckpoint::from_bytes(&bytes, ServeFingerprint::of(&b, &serve_cfg()))
        .expect("parent ServerCheckpoint decodes");
    // the image is only a useful golden while it keeps every layout live
    assert!(!ck.queue.is_empty(), "queued entries");
    assert!(ck.lanes.iter().flat_map(|l| &l.slots).any(Option::is_some));
    assert!(!ck.recoveries.is_empty(), "a RecoveryEvent");
    assert!(!ck.corruptions.is_empty(), "a CorruptionReport");
    assert!(!ck.flight.is_empty(), "flight events");
    assert_eq!(ck.quotas.len(), 2);
    assert!(ck.autoscaler.events > 0, "autoscaler state");
    assert!(ck
        .records
        .iter()
        .any(|r| r.state == RequestState::Done && r.result.is_some()));
    assert!(ck.records.iter().any(|r| r.evict_reason.is_some()));
    assert!(ck.stats.tenants().len() == 2 && ck.stats.count(ServeCounter::SdcDetected) > 0);
    assert!(ck.to_bytes() == bytes, "ServerCheckpoint re-encode differs");
}

#[test]
fn cluster_checkpoint_golden_reencodes_byte_for_byte() {
    let b = backend();
    let bytes = golden("wire/cluster.hsckpt");
    let ck = ClusterCheckpoint::from_bytes(&bytes, ClusterFingerprint::of(&b, &cluster_cfg()))
        .expect("parent ClusterCheckpoint decodes");
    assert_eq!(ck.shards.len(), 2);
    assert!(ck.lost.iter().any(Option::is_some), "a lost record");
    assert!(!ck.routes.is_empty() && !ck.flight.is_empty());
    assert!(
        ck.to_bytes() == bytes,
        "ClusterCheckpoint re-encode differs"
    );
    // the nested shard images are ServerCheckpoints of their own
    for (i, image) in ck.shards.iter().enumerate() {
        let fp = ServeFingerprint::of(&b, &cluster_cfg().shard_cfg(i));
        let shard = ServerCheckpoint::from_bytes(image, fp).expect("shard image decodes");
        assert!(&shard.to_bytes() == image, "shard {i} re-encode differs");
    }
}

#[test]
fn arrival_log_goldens_reencode_byte_for_byte() {
    for (name, cfg) in load_cfgs() {
        let bytes = golden(name);
        let log = ArrivalLog::from_bytes(&bytes).expect("parent ArrivalLog decodes");
        assert_eq!(log.config, cfg, "{name}");
        assert!(!log.is_empty() && log.len() <= 8, "{name}");
        assert!(log.to_bytes() == bytes, "{name}: re-encode differs");
    }
}

#[test]
fn soak_report_golden_reencodes_byte_for_byte() {
    let bytes = golden("wire/soak_report.bin");
    let rep = SoakReport::from_bytes(&bytes).expect("parent SoakReport decodes");
    assert_eq!(rep.tenants.len(), 2);
    assert!(rep.completed > 0);
    assert!(rep.to_bytes() == bytes, "SoakReport re-encode differs");
}

/// An image written before the bits moved is refused with a typed error,
/// by the decoder and by the store scan of a durable run (which then starts
/// from step 0 instead of resuming non-bitwise).
fn assert_refused_typed(version: u32) {
    let b = backend();
    let old = golden(&format!("v{version}_ebe_step2.hsckpt"));
    assert_eq!(
        RunCheckpoint::from_bytes(&old, ConfigFingerprint::of(&b, &run_cfg())).unwrap_err(),
        CkptError::UnsupportedVersion(version)
    );

    let dir = std::env::temp_dir().join(format!("hs-wire-golden-v{version}-image"));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir, 3).unwrap();
    std::fs::write(store.path_for(2), &old).unwrap();
    let policy = CheckpointPolicy { every: 0, keep: 3 };
    let out = run_with(&b, &run_cfg(), Hooks::default().durable(&store, policy))
        .expect("a fresh run")
        .durable
        .expect("a run with a store");
    assert_eq!(out.resumed_from, None);
    assert_eq!(out.restore.skipped.len(), 1, "{}", out.restore);
    assert_eq!(
        out.restore.skipped[0].error,
        CkptError::UnsupportedVersion(version)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_version_1_image_is_refused_typed() {
    assert_refused_typed(1);
}

/// The image of the same run with the history stored as `f64`.
#[test]
fn a_version_2_image_is_refused_typed() {
    assert_refused_typed(2);
}

#[test]
fn a_version_3_image_is_refused_typed() {
    assert_refused_typed(3);
}

// ---------------------------------------------------------------------------
// Fingerprint values, recorded with the goldens.

/// Each config's fingerprint as a ledger line, keyed by the function that
/// builds the config.
fn fingerprint_lines(b: &Backend) -> Vec<(String, String)> {
    [
        ("run/run_cfg", ConfigFingerprint::of(b, &run_cfg()).0),
        ("run/run_cfg_b", ConfigFingerprint::of(b, &run_cfg_b()).0),
        ("serve/serve_cfg", ServeFingerprint::of(b, &serve_cfg()).0),
        (
            "serve/cluster_cfg",
            ServeFingerprint::of(b, &cluster_cfg().serve).0,
        ),
        (
            "cluster/cluster_cfg",
            ClusterFingerprint::of(b, &cluster_cfg()).0,
        ),
        (
            "cluster/cluster_cfg_b",
            ClusterFingerprint::of(b, &cluster_cfg_b()).0,
        ),
    ]
    .map(|(case, fp)| (case.to_string(), format!("{fp:016x}")))
    .to_vec()
}

#[test]
fn fingerprint_values_are_the_parents() {
    pins::check("fingerprint", &fingerprint_lines(&backend()));
}

// ---------------------------------------------------------------------------
// Every section is mandatory: readers accept only the current version, and
// every writer of it emits every section in full, so an image that lacks a
// section or cuts one short is refused typed.

#[test]
fn server_checkpoint_every_section_is_mandatory() {
    let b = backend();
    let fp = ServeFingerprint::of(&b, &serve_cfg());
    let bytes = golden("wire/server.hsckpt");
    for tag in &SERVER_TAGS {
        assert_eq!(
            ServerCheckpoint::from_bytes(&without(&bytes, &SERVER_TAGS, tag), fp).unwrap_err(),
            CkptError::MissingSection { tag: **tag }
        );
    }

    // a STAT payload cut before its SDC tail: three counters and a histogram
    let full = ServerCheckpoint::from_bytes(&bytes, fp).unwrap();
    let tail = 3 * 8 + (8 + 8 * full.stats.sdc_recovery().counts().len() + 8 + 3 * 8);
    let cut = reseal(&bytes, &SERVER_TAGS, |tag, p| {
        Some(if tag == b"STAT" {
            p[..p.len() - tail].to_vec()
        } else {
            p.to_vec()
        })
    });
    assert_eq!(
        ServerCheckpoint::from_bytes(&cut, fp).unwrap_err(),
        CkptError::Truncated
    );
}

#[test]
fn run_checkpoint_every_section_is_mandatory() {
    let b = backend();
    let fp = ConfigFingerprint::of(&b, &run_cfg());
    let bytes = golden("parent_ebe_step2.hsckpt");
    for tag in &RUN_TAGS {
        assert_eq!(
            RunCheckpoint::from_bytes(&without(&bytes, &RUN_TAGS, tag), fp).unwrap_err(),
            CkptError::MissingSection { tag: **tag }
        );
    }
}

// ---------------------------------------------------------------------------
// How the goldens were produced.

fn server_image(b: &Backend) -> Vec<u8> {
    let plan = FaultPlan::new(59)
        .flip_state(1, 5, StateField::V)
        .evict(2, 2);
    let mut server = EnsembleServer::with_faults(b, serve_cfg(), plan);
    let requests = [
        SolveRequest::new(100, 1),
        SolveRequest::new(101, 4).with_tenant(TenantId(1)),
        SolveRequest::new(102, 4)
            .with_priority(2)
            .with_deadline(1e6),
        SolveRequest::new(103, 4).with_tol(1e-7),
        SolveRequest::new(104, 3).with_tenant(TenantId(1)),
        SolveRequest::new(105, 4).with_priority(1),
        SolveRequest::new(106, 2).with_tenant(TenantId(1)),
        SolveRequest::new(107, 4).with_deadline(2e6),
    ];
    for r in requests {
        server.admit(r).expect("admit");
    }
    for _ in 0..3 {
        server.tick();
    }
    let mut ck = server.checkpoint();
    // the serving layer has no solver-fault hook, so a ladder event is
    // spliced in: the golden pins its layout, not how it came about
    ck.recoveries.push(RecoveryEvent {
        step: 2,
        case: Some(3),
        set: 1,
        failed: Termination::NanResidual,
        recovered_with: hetsolve::core::GuessSource::AdamsBashforth,
        attempts: 2,
    });
    ck.to_bytes()
}

fn cluster_image(b: &Backend) -> Vec<u8> {
    // both replicas of node 0 torn, then node 0 crashes: its requests are
    // lost (the `lost` table gets `Some` records)
    let plan = FaultPlan::new(17)
        .corrupt_replica(0, 1, 0.2)
        .corrupt_replica(0, 2, 0.2)
        .crash_node(2, 0);
    let mut cluster = ClusterServer::with_faults(b, cluster_cfg(), plan);
    for c in 0..4u64 {
        cluster
            .admit(SolveRequest::new(940 + c, 3).with_tenant(TenantId((c % 2) as u32)))
            .expect("admit");
    }
    for _ in 0..3 {
        cluster.tick();
    }
    cluster.checkpoint_bytes()
}

/// The step-2 checkpoint of [`run_cfg`]: a durable run killed at step 3.
fn run_image(b: &Backend) -> Vec<u8> {
    let dir = std::env::temp_dir().join("hs-wire-golden-run-image");
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::new(&dir, 3).unwrap();
    let mut plan = FaultPlan::new(1).crash_at(3);
    let policy = CheckpointPolicy { every: 2, keep: 3 };
    let killed = run_with(
        b,
        &run_cfg(),
        Hooks::default().faults(&mut plan).durable(&store, policy),
    );
    assert_eq!(killed.unwrap_err(), RunError::Crashed { step: 3 });
    let bytes = std::fs::read(store.path_for(2)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    bytes
}

fn soak_report(b: &Backend) -> SoakReport {
    let mut server = EnsembleServer::new(b, serve_cfg());
    soak_server(&mut server, &ArrivalLog::generate(&load_cfgs()[1].1))
}

#[test]
#[ignore = "rewrites tests/data/wire/, the run image and the fingerprint pins from the code under test"]
fn record_goldens() {
    let b = backend();
    std::fs::create_dir_all(data("wire")).unwrap();
    std::fs::write(data("parent_ebe_step2.hsckpt"), run_image(&b)).unwrap();
    std::fs::write(data("wire/server.hsckpt"), server_image(&b)).unwrap();
    std::fs::write(data("wire/cluster.hsckpt"), cluster_image(&b)).unwrap();
    for (name, cfg) in load_cfgs() {
        std::fs::write(data(name), ArrivalLog::generate(&cfg).to_bytes()).unwrap();
    }
    std::fs::write(data("wire/soak_report.bin"), soak_report(&b).to_bytes()).unwrap();
    pins::record("fingerprint", &fingerprint_lines(&b));
}
