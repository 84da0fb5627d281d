//! # hetsolve-core
//!
//! The paper's primary contribution for the `hetsolve` reproduction of the
//! SC24 paper *"Heterogeneous computing in a strongly-connected CPU-GPU
//! environment"* (Ichimura et al.): the four solution methods over one
//! shared discretization, the CPU/GPU pipelining, ensemble simulation, and
//! multi-node execution.
//!
//! * [`backend`] — owns the FE problem; builds assembled-CRS and
//!   matrix-free EBE operators plus the exact Newmark right-hand side,
//! * [`methods`] — `CRS-CG@CPU`, `CRS-CG@GPU`, `CRS-CG@CPU-GPU`,
//!   `EBE-MCG@CPU-GPU` (Algorithms 2–4) as four layouts of one resumable
//!   step driver, with per-step records,
//! * [`ensemble`] — many-case simulation + FDD dominant-frequency maps
//!   (Fig. 1 application),
//! * [`multinode`] — partitioned/distributed operators consistent with the
//!   sequential ones (Fig. 2, Fig. 5),
//! * [`checkpoint`] / [`durable`] — crash-consistent snapshots of the
//!   step driver's run state (any method) and the checkpoint-every-N /
//!   resume-from-latest side of the step loop a store turns on
//!   (bitwise-identical replay after a crash),
//! * [`set`] — one fused set's step (guards, predictor, the recovery
//!   ladder, advance) as a CPU half and a device half: the one per-set
//!   sequence the step driver, the real-thread pipeline and the server run,
//! * [`recovery`] — the typed error ladder: retry failed solves with
//!   progressively safer guesses, recording each [`recovery::RecoveryEvent`],
//! * [`report`] — table/series formatting for the benchmark harnesses,
//! * [`trace`] — the observability layer: per-step Chrome-trace spans and
//!   machine-readable bench snapshots (`hetsolve-obs` export formats).

#![forbid(unsafe_code)]

pub mod backend;
pub mod checkpoint;
pub mod durable;
pub mod ensemble;
pub mod integrity;
pub mod methods;
pub mod multinode;
pub mod nonlinear_run;
pub mod realtime;
pub mod recovery;
pub mod report;
pub mod set;
pub mod slot;
pub mod study;
pub mod trace;

pub use backend::{Backend, RhsScratch};
pub use checkpoint::{ConfigFingerprint, RunCheckpoint, SlotState};
pub use durable::{CheckpointPolicy, DurableOutcome};
pub use ensemble::{
    run_ensemble, run_ensemble_durable, EnsembleConfig, EnsembleConfigError, EnsembleResult,
};
pub use integrity::{crc_f64s, CorruptTarget, CorruptionAction, CorruptionReport, IntegrityConfig};
pub use methods::{
    driver_cg_config, run, run_with, Hooks, MethodKind, RunConfig, RunResult, StepRecord,
    WindowPolicy,
};
pub use multinode::{DistributedOperator, LocalPart, PartitionMetrics, PartitionedProblem};
pub use nonlinear_run::{run_nonlinear, NonlinearResult, NonlinearStepRecord};
pub use realtime::{run_realtime, RealtimeReport};
pub use recovery::{GuessSource, RecoveryEvent, RunError};
pub use report::{apply_speedups, format_application_table, format_series, MethodSummary};
pub use slot::CaseSlot;
pub use study::{convergence_study, ConvergenceStudy, GuessResult, StudyConfig};
pub use trace::{StepTracer, METRICS_ENV, TID_CPU, TID_GPU, TID_LINK, TRACE_ENV};
