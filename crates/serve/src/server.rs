//! The continuous-batching ensemble server.
//!
//! [`EnsembleServer`] owns one [`Backend`] worth of serving: requests are
//! [`admit`](EnsembleServer::admit)ted at any time (with backpressure),
//! packed by the [`Batcher`] into 2 process sets × `r` fused MCG lanes
//! (the EBE-MCG@CPU-GPU layout of the paper's Algorithm 3), and advanced
//! one time step per [`tick`](EnsembleServer::tick). At every tick
//! boundary, finished / failed / evicted columns are freed and — under
//! [`BatchPolicy::Continuous`] — immediately backfilled from the queue, so
//! the fused GPU kernels (whose modeled cost is the same at any occupancy)
//! keep running at high occupancy.
//!
//! # Bitwise equivalence
//!
//! A served lane advances through the *same* set step
//! ([`SetStep`]: guards, predictor, the one recovery ladder, advance) as a
//! solo [`run_ensemble`](hetsolve_core::run_ensemble) set, with
//! [`WindowPolicy::FullWindow`] making the snapshot window purely
//! case-local and the MCG lane mask making vacant columns invisible to
//! occupied ones. A request with seed `s`, the server's `RunConfig`, and
//! `n_steps` matching a solo run therefore produces a bitwise-identical
//! final displacement — under any load, any companions, any backfill
//! order. The serve suite asserts this with `f64::to_bits`. What a column's
//! fate means is the server's own: a column that exhausts the ladder fails
//! its request, a corrupt one is evicted, and faults are keyed by
//! `(tick, request id)` or `(tick, lane)`.

use std::path::PathBuf;

use hetsolve_core::{
    check_fused_width, Backend, CaseSlot, CorruptionReport, MethodKind, RecoveryEvent, RunConfig,
    SlotState, WindowPolicy, TID_CPU, TID_GPU, TID_LINK,
};
use hetsolve_core::{Fate, SetSpec, SetStep};
use hetsolve_fault::{AdmissionFault, FaultKind, FaultLane, FaultPlan, FaultSite};
use hetsolve_machine::{LaneKind, ModuleClock, NodeSpec, SystemClock, WallClock};
use hetsolve_obs::{
    flow_id_for_request, names, FlightRecorder, Json, MetricsRegistry, ServeCounter, ServeStats,
    TraceBuilder, DEFAULT_FLIGHT_CAPACITY,
};

use crate::batcher::{BatchPolicy, Batcher, CompatKey};
use crate::qos::{AutoscaleConfig, AutoscaleEvent, AutoscalerState, QosConfig, ScaleDirection};
use crate::queue::{splitmix64, AdmissionQueue, AdmitError, RejectReason, TenantPolicy};
use crate::request::{EvictReason, RequestId, RequestRecord, RequestState, SolveRequest, TenantId};
use crate::watchdog::{WatchdogAction, WatchdogConfig, WatchdogEvent};

/// Default process-set count (the paper's 2-process layout: while one set
/// solves on the GPU, the other's predictors run on the CPU). With an
/// [`AutoscaleConfig`] the lane count floats between its bounds instead.
const DEFAULT_LANES: usize = 2;

/// SDC ladder rung 2: after this many *consecutive* corrupted ticks on
/// one lane, in-place recovery has clearly not cleared the fault — roll
/// the whole lane back to its last in-memory checkpoint.
const SDC_RESTART_AFTER: u32 = 3;

/// SDC ladder rung 3: corruption recurring even after the lane restart —
/// evict the lane's columns rather than serve a possibly-wrong answer.
const SDC_EVICT_AFTER: u32 = 4;

/// The refusal an injected admission fault at admission `index` turns
/// into, if one fires; `queued` is `(depth, capacity)` for the shed error.
pub(crate) fn admission_fault(
    faults: &mut FaultPlan,
    index: usize,
    (queued, capacity): (usize, usize),
) -> Option<AdmitError> {
    match faults.inject(FaultSite::Admission { index }) {
        Some(FaultKind::Admission {
            fault: AdmissionFault::Reject,
            ..
        }) => Some(AdmitError::Rejected(RejectReason::FaultInjected)),
        Some(FaultKind::Admission {
            fault: AdmissionFault::Shed,
            ..
        }) => Some(AdmitError::ShedLoad { queued, capacity }),
        _ => None,
    }
}

/// Count one refused admission — once, in the aggregate and `tenant`'s
/// row — and leave it in the flight ring; returns the error for the
/// caller.
pub(crate) fn refuse(
    stats: &mut ServeStats,
    flight: &mut FlightRecorder,
    now: f64,
    tenant: TenantId,
    err: AdmitError,
) -> AdmitError {
    let (counter, kind) = match err {
        AdmitError::Rejected(_) => (ServeCounter::Rejected, "admit_rejected"),
        AdmitError::ShedLoad { .. } | AdmitError::TenantShed { .. } => {
            (ServeCounter::Shed, "admit_shed")
        }
    };
    stats.record_for(counter, tenant.0);
    flight.record(now, kind, None, None, None, err.to_string());
    err
}

/// Serving-layer configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Numerics and machine model shared by every request. The server
    /// forces `method = EbeMcgCpuGpu` and `window = FullWindow` (the
    /// case-local window is what makes served results bitwise-equal to
    /// solo runs); `run.n_steps` is unused — each request brings its own.
    pub run: RunConfig,
    /// Admission-queue bound (backpressure past it).
    pub queue_capacity: usize,
    /// When vacant lane slots are refilled.
    pub policy: BatchPolicy,
    /// Seed of the scheduler's deterministic tie-break.
    pub sched_seed: u64,
    /// Safety bound for [`EnsembleServer::run_until_idle`].
    pub max_ticks: usize,
    /// Lane supervision (deadline watchdog with the retry → restart →
    /// evict ladder); `None` disables it.
    pub watchdog: Option<WatchdogConfig>,
    /// In-memory per-lane checkpoints for the restart rungs. With a
    /// watchdog, every lane is captured every this many ticks (the
    /// watchdog's restart rung, and the SDC ladder's, roll back to it).
    /// Under integrity detection alone, any non-zero value captures a
    /// lane once, when its SDC ladder starts, and a clean run captures
    /// nothing. 0 disables every capture.
    pub checkpoint_every: usize,
    /// Flight-recorder ring capacity (recent structured events kept for
    /// the crash-time dump). Telemetry only — not part of the checkpoint
    /// fingerprint, because it never shapes the trajectory.
    pub flight_capacity: usize,
    /// Where the flight recorder dumps on watchdog breach, eviction, or
    /// injected crash (convention: under `target/artifacts/`). `None`
    /// keeps the ring in memory only.
    pub flight_dump: Option<PathBuf>,
    /// Multi-tenant QoS: per-tenant quotas and deficit-round-robin fair
    /// share. `None` runs single-tenant (all requests under `TenantId(0)`,
    /// no quota checks). Scheduling-only — never touches numerics.
    pub qos: Option<QosConfig>,
    /// Lane autoscaling: float the fused-lane count between bounds from
    /// queue depth and modeled occupancy, at step boundaries only. `None`
    /// keeps the paper's fixed 2-lane layout.
    pub autoscale: Option<AutoscaleConfig>,
    /// Store each `Done` request's final displacement in its record.
    /// Soak runs over 10^5+ requests turn this off — results are O(n_dofs)
    /// each and the load generator only audits scheduling outcomes.
    pub keep_results: bool,
}

impl ServeConfig {
    pub fn new(node: NodeSpec) -> Self {
        let mut run = RunConfig::new(MethodKind::EbeMcgCpuGpu, node, 0);
        run.window = WindowPolicy::FullWindow;
        ServeConfig {
            run,
            queue_capacity: 64,
            policy: BatchPolicy::Continuous,
            sched_seed: 0x5e7e,
            max_ticks: 100_000,
            watchdog: None,
            checkpoint_every: 4,
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            flight_dump: None,
            qos: None,
            autoscale: None,
            keep_results: true,
        }
    }

    pub fn with_qos(mut self, qos: QosConfig) -> Self {
        self.qos = Some(qos);
        self
    }

    pub fn with_autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }

    pub fn with_keep_results(mut self, keep_results: bool) -> Self {
        self.keep_results = keep_results;
        self
    }

    /// Lane count the server starts with: the autoscaler's floor when one
    /// is configured, the paper's 2-process layout otherwise.
    pub(crate) fn initial_lanes(&self) -> usize {
        self.autoscale.map_or(DEFAULT_LANES, |a| a.min_lanes)
    }
}

/// The serving subsystem: queue + batcher + lanes over one backend.
/// Fields are `pub(crate)` for the sibling `crate::checkpoint` module,
/// which serializes and rebuilds the whole server.
pub struct EnsembleServer<'b> {
    pub(crate) backend: &'b Backend,
    pub(crate) cfg: ServeConfig,
    pub(crate) queue: AdmissionQueue,
    pub(crate) batcher: Batcher,
    /// Live per-column simulation state, `[lane][slot]` matching the
    /// batcher's geometry.
    pub(crate) slots: Vec<Vec<Option<CaseSlot>>>,
    /// Every admitted request, indexed by `RequestId.0`.
    pub(crate) records: Vec<RequestRecord>,
    pub(crate) clock: ModuleClock,
    /// The one set step's working storage, shared by the lanes (they
    /// advance one after another).
    set_step: SetStep,
    pub(crate) stats: ServeStats,
    pub(crate) recoveries: Vec<RecoveryEvent>,
    /// Corruption detections + the recovery taken, in order (the serving
    /// twin of `RunResult::corruptions`); checkpointed in the optional
    /// `INTG` section.
    pub(crate) corruptions: Vec<CorruptionReport>,
    /// Consecutive corrupted ticks per lane — the SDC escalation ladder's
    /// counter (in-place recovery → lane restart → evict).
    pub(crate) sdc_breach: Vec<u32>,
    /// Faults injected into this server (empty: none).
    pub(crate) faults: FaultPlan,
    /// Admission attempts made (rejected ones included) — the fault
    /// plan's admission index.
    pub(crate) admissions: usize,
    pub(crate) ticks: usize,
    trace: Option<TraceBuilder>,
    /// Injectable wall clock stamped onto watchdog events (never used for
    /// deadlines or latencies, which live on the modeled clock) — a
    /// `ManualClock` makes supervision tests fully deterministic.
    wall: Box<dyn WallClock>,
    /// Consecutive step-deadline breaches per lane.
    pub(crate) watchdog_breach: Vec<u32>,
    /// Supervision decisions, in order.
    watchdog_events: Vec<WatchdogEvent>,
    /// Last in-memory lane checkpoint, `[lane][slot]`: the occupant and
    /// its captured state. The restart rungs roll back to this; it is
    /// taken only where one of them can read it (see
    /// [`ServeConfig::checkpoint_every`]).
    pub(crate) lane_ckpt: Vec<Vec<Option<(RequestId, SlotState)>>>,
    /// Always-on ring of recent structured events (admissions, steps,
    /// watchdog rungs, checkpoints); dumped to `cfg.flight_dump` on
    /// failure triggers and checkpointed with the server.
    pub(crate) flight: FlightRecorder,
    /// Set by an injected `crash_fault`: the server stops ticking (the
    /// modeled `kill -9`) until restored from a checkpoint.
    crashed: bool,
    /// Autoscaler dynamic state (cooldown / drain-in-progress / event
    /// count); checkpointed in the optional `QOS\0` section.
    pub(crate) autoscaler: AutoscalerState,
    /// Every lane-scaling event taken, in order (telemetry, not
    /// checkpointed — the monotone count in `autoscaler.events` is).
    scale_events: Vec<AutoscaleEvent>,
    /// Modeled lower bound on one served step's duration (the per-step
    /// exchange transfer at the configured width) — the provable floor the
    /// unmeetable-deadline shedder multiplies by remaining steps.
    step_floor: f64,
}

impl<'b> EnsembleServer<'b> {
    pub fn new(backend: &'b Backend, cfg: ServeConfig) -> Self {
        Self::with_faults(backend, cfg, FaultPlan::default())
    }

    /// Server that injects `faults` (admission, eviction, crash, lane,
    /// autoscaler, data-flip, guess, solver-cap and snapshot sites).
    pub fn with_faults(backend: &'b Backend, mut cfg: ServeConfig, faults: FaultPlan) -> Self {
        cfg.run.method = MethodKind::EbeMcgCpuGpu;
        cfg.run.window = WindowPolicy::FullWindow;
        let r = cfg.run.r.max(1);
        cfg.run.r = r;
        let lanes = cfg.initial_lanes();
        let clock = ModuleClock::new(cfg.run.node.module, cfg.run.cpu_threads, true);
        // provable per-step floor: every served step charges at least the
        // exchange transfer at width r, so remaining_steps × floor is a
        // lower bound on any queued request's service time
        let step_floor = {
            let mut probe = clock.clone();
            probe.transfer(2.0 * (backend.n_dofs() * r) as f64 * 8.0)
        };
        let mut queue = AdmissionQueue::new(cfg.queue_capacity, cfg.sched_seed);
        if let Some(qos) = &cfg.qos {
            let pairs: Vec<(u64, f64)> = qos
                .tenants
                .iter()
                .map(|q| (q.weight, q.queue_share))
                .collect();
            queue = queue.with_policy(TenantPolicy::new(&pairs, qos.quantum, cfg.queue_capacity));
        }
        EnsembleServer {
            backend,
            queue,
            batcher: Batcher::new(lanes, r, cfg.policy),
            slots: (0..lanes).map(|_| (0..r).map(|_| None).collect()).collect(),
            records: Vec::new(),
            clock,
            set_step: SetStep::new(backend.n_dofs(), r),
            stats: ServeStats::new(),
            recoveries: Vec::new(),
            corruptions: Vec::new(),
            sdc_breach: vec![0; lanes],
            faults,
            admissions: 0,
            ticks: 0,
            trace: None,
            wall: Box::new(SystemClock::new()),
            watchdog_breach: vec![0; lanes],
            watchdog_events: Vec::new(),
            lane_ckpt: (0..lanes).map(|_| (0..r).map(|_| None).collect()).collect(),
            flight: FlightRecorder::new(cfg.flight_capacity),
            crashed: false,
            autoscaler: AutoscalerState::default(),
            scale_events: Vec::new(),
            step_floor,
            cfg,
        }
    }

    /// Replace the wall clock stamped onto watchdog events (tests inject a
    /// [`hetsolve_machine::ManualClock`] for deterministic replay).
    pub fn set_wall_clock(&mut self, wall: Box<dyn WallClock>) {
        self.wall = wall;
    }

    /// Record a Chrome-trace timeline of the serving run (queue-depth
    /// counters plus per-lane predictor/solver/exchange spans).
    pub fn enable_trace(&mut self) {
        let mut t = TraceBuilder::new();
        t.set_meta("subsystem", Json::from("hetsolve-serve"));
        t.name_process(0, "scheduler");
        let max_lanes = self.cfg.autoscale.map_or(self.batcher.n_lanes(), |a| {
            a.max_lanes.max(self.batcher.n_lanes())
        });
        for lane in 0..max_lanes {
            let pid = 1 + lane;
            t.name_process(pid, &format!("process set {lane}"));
            t.name_thread(pid, TID_CPU, "CPU (predictors)");
            t.name_thread(pid, TID_GPU, "GPU (fused MCG)");
            t.name_thread(pid, TID_LINK, "C2C link");
        }
        self.trace = Some(t);
    }

    /// Take the recorded trace (if [`enable_trace`](Self::enable_trace)
    /// was called), ready for [`TraceBuilder::write_to`].
    pub fn take_trace(&mut self) -> Option<TraceBuilder> {
        self.trace.take()
    }

    /// Submit a request. Validation failures are typed
    /// ([`AdmitError::Rejected`]); a full queue sheds load
    /// ([`AdmitError::ShedLoad`]). Admitted requests start `Queued`. A
    /// refusal is counted once, in the aggregate and the tenant's row.
    pub fn admit(&mut self, request: SolveRequest) -> Result<RequestId, AdmitError> {
        let index = self.admissions;
        self.admissions += 1;
        let queued = (self.queue.len(), self.queue.capacity());
        let outcome = match admission_fault(&mut self.faults, index, queued) {
            Some(e) => Err(e),
            None => self.place(request),
        };
        let now = self.clock.elapsed();
        outcome.map_err(|e| refuse(&mut self.stats, &mut self.flight, now, request.tenant, e))
    }

    /// Validate `request` and queue it, counting nothing on refusal: the
    /// caller owns the outcome ([`Self::admit`], or the cluster router
    /// placing and moving requests between shards).
    pub(crate) fn place(&mut self, request: SolveRequest) -> Result<RequestId, AdmitError> {
        let now = self.clock.elapsed();
        let tenant = request.tenant;
        let reject = |reason| Err(AdmitError::Rejected(reason));
        if check_fused_width(self.cfg.run.r).is_err() {
            return reject(RejectReason::UnsupportedWidth);
        }
        if request.n_steps == 0 {
            return reject(RejectReason::ZeroSteps);
        }
        if request.deadline.is_some_and(|d| !d.is_finite()) {
            // a NaN/inf deadline would compare false against every clock
            // reading — never expiring, never shed as unmeetable
            return reject(RejectReason::NonFiniteInput);
        }
        let tol = request.tol.unwrap_or(self.cfg.run.tol);
        if !tol.is_finite() || tol <= 0.0 {
            return reject(RejectReason::InvalidTol);
        }
        if let Some(qos) = &self.cfg.qos {
            match qos.quota(tenant) {
                None => return reject(RejectReason::UnknownTenant),
                // a zero-weight tenant can never win a DRR round —
                // reject typed instead of admitting into starvation
                Some(q) if q.weight == 0 => return reject(RejectReason::ZeroQuota),
                Some(_) => {}
            }
        }
        let id = RequestId(self.records.len() as u64);
        self.queue.push(
            id,
            CompatKey::from_tol(tol),
            request.priority,
            request.deadline,
            tenant,
            request.n_steps.min(u32::MAX as usize) as u32,
        )?;
        self.records.push(RequestRecord {
            id,
            request,
            state: RequestState::Queued,
            admitted_at: now,
            finished_at: None,
            evict_reason: None,
            result: None,
        });
        self.flight.record(
            now,
            "admitted",
            Some(id.0),
            None,
            None,
            format!("n_steps={} depth={}", request.n_steps, self.queue.len()),
        );
        if let Some(t) = self.trace.as_mut() {
            // the request's causal flow starts on the scheduler row; each
            // later hop (batched/step/done) binds to the same stable id
            t.flow_start(
                0,
                0,
                "request",
                "admitted",
                now * 1e6,
                flow_id_for_request(id.0),
            );
        }
        Ok(id)
    }

    /// One scheduling boundary: shed expired deadlines, apply injected
    /// evictions, backfill vacant slots per the policy, then advance every
    /// non-empty lane by one time step (supervised by the watchdog when
    /// one is configured).
    pub fn tick(&mut self) {
        let (now, tick) = (self.clock.elapsed(), self.ticks);
        let crash = FaultSite::Crash { step: tick };
        if self.faults.inject(crash).is_some() {
            // modeled `kill -9`: the flight ring is the black box — dump
            // it with the crash as its last event and stop ticking
            self.flight.record(
                now,
                "crash",
                None,
                None,
                Some(self.ticks as u64),
                "injected crash_fault at tick boundary",
            );
            self.dump_flight("crash");
            self.crashed = true;
            return;
        }
        if let Some(FaultKind::TenantBurst { tenant, count }) =
            self.faults.inject(FaultSite::TenantBurst { tick })
        {
            // chaos hook: one tenant floods the server at this boundary.
            // Typed admission failures (shed / zero quota / unknown) are
            // the point — the burst must not starve other tenants.
            let base = splitmix64(0xb065_u64 ^ (self.ticks as u64) << 8 ^ u64::from(tenant));
            for i in 0..count {
                let seed = splitmix64(base ^ u64::from(i));
                let _ = self.admit(SolveRequest::new(seed, 1).with_tenant(TenantId(tenant)));
            }
        }
        let mut dump_eviction = false;
        for id in self.queue.expire(now) {
            self.evict(id, EvictReason::DeadlineExpired, now, None);
            let t = self.records[id.0 as usize].request.tenant.0;
            self.stats.record_for(ServeCounter::DeadlineMiss, t);
            dump_eviction = true;
        }
        // ShedLoad re-evaluation: a queued request whose remaining steps
        // cannot fit before its deadline even at the modeled per-step
        // floor is shed *now*, freeing its queue share for requests that
        // can still win
        for id in self.queue.shed_unmeetable(now, self.step_floor) {
            self.evict(id, EvictReason::DeadlineUnmeetable, now, None);
            self.stats.record(ServeCounter::ShedEarly);
            let t = self.records[id.0 as usize].request.tenant.0;
            self.stats.record_for(ServeCounter::DeadlineMiss, t);
            dump_eviction = true;
        }
        for lane in 0..self.batcher.n_lanes() {
            for slot in 0..self.batcher.width() {
                let Some(id) = self.batcher.slot(lane, slot) else {
                    continue;
                };
                let evict = FaultSite::Eviction {
                    step: tick,
                    case: id.0 as usize,
                };
                if self.faults.inject(evict).is_some() {
                    self.evict(id, EvictReason::Injected, now, Some((lane, slot)));
                    dump_eviction = true;
                }
            }
        }
        if dump_eviction {
            self.dump_flight("eviction");
        }
        self.autoscale_step(now);
        self.refresh_tenant_budgets();
        for a in self.batcher.backfill(&mut self.queue) {
            let req = self.records[a.id.0 as usize].request;
            self.slots[a.lane][a.slot] = Some(CaseSlot::with_seed(
                self.backend,
                &self.cfg.run,
                req.seed,
                req.n_steps,
                0,
            ));
            self.records[a.id.0 as usize].state = RequestState::Batched;
            self.flight.record(
                now,
                "batched",
                Some(a.id.0),
                Some(a.lane as u64),
                Some(self.ticks as u64),
                format!("slot {}", a.slot),
            );
            if let Some(t) = self.trace.as_mut() {
                t.flow_step(
                    1 + a.lane,
                    TID_GPU,
                    "request",
                    "batched",
                    now * 1e6,
                    flow_id_for_request(a.id.0),
                );
            }
        }
        self.stats.sample_queue_depth(self.queue.len());
        if let Some(t) = self.trace.as_mut() {
            t.counter(0, "queue", now * 1e6, &[("depth", self.queue.len() as f64)]);
        }
        let supervised = self.cfg.watchdog;
        // the watchdog's restart rung may fire on any tick, so a supervised
        // server captures at cadence; under detection alone the SDC
        // ladder's rung 2 is the only reader, and `advance_lane` captures
        // when that ladder starts instead
        let capture = supervised.is_some()
            && self.cfg.checkpoint_every > 0
            && self.ticks.is_multiple_of(self.cfg.checkpoint_every);
        for lane in 0..self.batcher.n_lanes() {
            if capture {
                self.capture_lane(lane);
            }
            let before = self.clock.elapsed();
            // injected lane stall: the watchdog is
            // what turns this timing fault into a supervised recovery
            if self.batcher.occupied_count(lane) > 0 {
                let stall = FaultSite::Lane {
                    step: tick,
                    set: lane,
                };
                if let Some(FaultKind::Lane { fault: lf, .. }) = self.faults.inject(stall) {
                    let kind = match lf.lane {
                        FaultLane::Cpu => LaneKind::Cpu,
                        FaultLane::Gpu => LaneKind::Gpu,
                    };
                    self.clock.stall(kind, lf.seconds);
                }
            }
            self.advance_lane(lane);
            let dt = self.clock.elapsed() - before;
            if let Some(wd) = supervised {
                self.supervise(lane, dt, wd);
            }
        }
        self.stats.set_elapsed(self.clock.elapsed());
        self.ticks += 1;
    }

    /// One autoscaling decision at a step boundary. Scale-up appends an
    /// empty lane (backfilled this same tick); scale-down marks the
    /// highest lane draining and removes it at the first boundary where it
    /// is empty — in-flight trajectories are never touched, which is what
    /// keeps scaling invisible to the numerics.
    fn autoscale_step(&mut self, now: f64) {
        let Some(a) = self.cfg.autoscale else {
            return;
        };
        if self.autoscaler.draining {
            let last = self.batcher.n_lanes() - 1;
            if self.batcher.occupied_count(last) == 0 && self.batcher.n_lanes() > a.min_lanes.max(1)
            {
                self.batcher.remove_last_lane();
                self.slots.pop();
                self.watchdog_breach.pop();
                self.sdc_breach.pop();
                self.lane_ckpt.pop();
                self.autoscaler.draining = false;
                self.record_scale_event(ScaleDirection::Down, now);
            } else if self.batcher.n_lanes() <= a.min_lanes.max(1) {
                // a restored checkpoint may carry a drain mark the bounds
                // no longer allow; drop it instead of eating the only lane
                self.batcher.cancel_drain();
                self.autoscaler.draining = false;
            }
            return;
        }
        let stuck = FaultSite::StuckLaneScaledown { tick: self.ticks };
        let stuck = self.faults.inject(stuck).is_some();
        if self.autoscaler.cooldown > 0 {
            self.autoscaler.cooldown -= 1;
            if !stuck {
                return;
            }
        }
        let lanes = self.batcher.n_lanes();
        if stuck && lanes > a.min_lanes {
            // chaos hook: force a drain while columns are still in flight,
            // exercising the shrink path under load (the drained lane
            // keeps running until its occupants finish)
            self.batcher.drain_last();
            self.autoscaler.draining = true;
            self.flight.record(
                now,
                "scale_drain",
                None,
                Some((lanes - 1) as u64),
                Some(self.ticks as u64),
                "injected stuck_lane_scaledown",
            );
            return;
        }
        let depth = self.queue.len();
        if depth > a.scale_up_queue_per_lane * lanes && lanes < a.max_lanes {
            self.batcher.add_lane();
            let r = self.batcher.width();
            self.slots.push((0..r).map(|_| None).collect());
            self.watchdog_breach.push(0);
            self.sdc_breach.push(0);
            self.lane_ckpt.push((0..r).map(|_| None).collect());
            self.record_scale_event(ScaleDirection::Up, now);
            return;
        }
        if depth == 0 && lanes > a.min_lanes {
            let total = lanes * self.batcher.width();
            let occ: usize = (0..lanes).map(|l| self.batcher.occupied_count(l)).sum();
            if (occ as f64) < a.scale_down_occupancy * total as f64 {
                self.batcher.drain_last();
                self.autoscaler.draining = true;
                self.flight.record(
                    now,
                    "scale_drain",
                    None,
                    Some((lanes - 1) as u64),
                    Some(self.ticks as u64),
                    format!("occupancy {occ}/{total} below threshold"),
                );
            }
        }
    }

    /// Bookkeeping shared by both scaling directions: cooldown, monotone
    /// event count, telemetry.
    fn record_scale_event(&mut self, direction: ScaleDirection, now: f64) {
        let a = self.cfg.autoscale.unwrap_or(AutoscaleConfig::new(1, 1));
        let lanes = self.batcher.n_lanes();
        let before = match direction {
            ScaleDirection::Up => lanes - 1,
            ScaleDirection::Down => lanes + 1,
        };
        self.autoscaler.cooldown = a.cooldown_ticks;
        self.autoscaler.events += 1;
        self.stats.record(ServeCounter::AutoscaleEvents);
        self.scale_events.push(AutoscaleEvent {
            tick: self.ticks as u64,
            direction,
            lanes_before: before,
            lanes_after: lanes,
        });
        self.flight.record(
            now,
            match direction {
                ScaleDirection::Up => "scale_up",
                ScaleDirection::Down => "scale_down",
            },
            None,
            Some(lanes as u64),
            Some(self.ticks as u64),
            format!("lanes {before} -> {lanes}"),
        );
    }

    /// Recompute each tenant's pop budget (max_in_flight minus columns it
    /// already occupies) for this step boundary's backfill.
    fn refresh_tenant_budgets(&mut self) {
        let Some(qos) = &self.cfg.qos else {
            return;
        };
        let mut in_flight = vec![0usize; qos.n_tenants()];
        for lane in 0..self.batcher.n_lanes() {
            for slot in 0..self.batcher.width() {
                if let Some(id) = self.batcher.slot(lane, slot) {
                    let t = self.records[id.0 as usize].request.tenant.0 as usize;
                    if let Some(c) = in_flight.get_mut(t) {
                        *c += 1;
                    }
                }
            }
        }
        let budgets = qos
            .tenants
            .iter()
            .zip(&in_flight)
            .map(|(q, &used)| q.max_in_flight.saturating_sub(used))
            .collect();
        self.queue.set_budgets(budgets);
    }

    /// Tick until the queue and every lane are empty; returns the ticks
    /// executed. Bounded by `cfg.max_ticks` as a safety net. Stops early
    /// when an injected crash fires ([`Self::crashed`]).
    pub fn run_until_idle(&mut self) -> usize {
        let mut n = 0;
        while !(self.crashed || self.queue.is_empty() && self.batcher.is_idle())
            && n < self.cfg.max_ticks
        {
            self.tick();
            n += 1;
        }
        n
    }

    /// An injected `crash_fault` stopped the server mid-run. Work still
    /// in flight stays in flight; only a checkpoint restore resumes it.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The always-on flight-recorder ring.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Dump the flight ring to `cfg.flight_dump` (no-op without a path).
    /// Dump failures are swallowed: the black box must never turn a
    /// recoverable fault into an I/O error.
    fn dump_flight(&self, trigger: &str) {
        if let Some(path) = &self.cfg.flight_dump {
            let _ = self.flight.dump_to(path, trigger);
        }
    }

    /// Telemetry-v2 snapshot of the serving layer: [`ServeStats`] mapped
    /// onto the declared `serve_*` metric names plus admission and
    /// flight-ring counters. Mergeable into run-level registries.
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.inc(
            names::SERVE_REQUESTS_ADMITTED_TOTAL,
            self.records.len() as f64,
        );
        self.stats.to_registry(&mut reg);
        reg.gauge_set(names::SERVE_LANES, self.batcher.n_lanes() as f64);
        reg.gauge_set(
            names::SERVE_TENANTS,
            self.cfg.qos.as_ref().map_or(1, QosConfig::n_tenants) as f64,
        );
        reg.inc(
            names::FLIGHT_EVENTS_DROPPED_TOTAL,
            self.flight.dropped() as f64,
        );
        reg
    }

    /// Advance one lane's occupied columns by one time step. An entirely
    /// vacant lane is skipped without charging any kernel or transfer —
    /// the modeled cost of the fused solve otherwise scales with the full
    /// width `r` regardless of occupancy, which is exactly why backfilling
    /// matters.
    fn advance_lane(&mut self, lane: usize) {
        let n_occ = self.batcher.occupied_count(lane);
        if n_occ == 0 {
            return;
        }
        let t_detect = self.clock.elapsed();
        let r = self.batcher.width();
        let n = self.backend.n_dofs();
        self.stats.sample_occupancy(n_occ, r);
        #[allow(
            clippy::expect_used,
            reason = "`n_occ > 0` (early return above) and the batcher clears a \
                      lane's key only when its last slot frees, so an occupied lane \
                      always has a key"
        )]
        let tol = self
            .batcher
            .lane_key(lane)
            .expect("occupied lane has a key")
            .tol();
        let ids: Vec<Option<usize>> = (0..r)
            .map(|k| self.batcher.slot(lane, k).map(|id| id.0 as usize))
            .collect();
        for &id in ids.iter().flatten() {
            self.records[id].state = RequestState::Solving;
        }
        let spec = SetSpec {
            step: self.ticks,
            set: lane,
            ids: &ids,
            fused: true,
            window: None,
            tol,
        };

        // predictors and RHS (CPU lane), guarded; faults keyed by request
        let slots = &mut self.slots[lane][..];
        let (backend, run) = (self.backend, &self.cfg.run);
        let prepared = self
            .set_step
            .prepare(backend, run, spec, slots, &mut self.faults);
        let mut pred_t = 0.0;
        for col in prepared.columns.iter().flatten() {
            pred_t += self.clock.run_cpu(&col.predictor);
        }

        // fused masked solve (GPU lane) through the one recovery ladder: a
        // column that exhausts it keeps its failure, companions survive
        let slots = &mut self.slots[lane][..];
        let out = self.set_step.solve(backend, &backend.ebe_a(r), slots);
        let solver_t = self
            .clock
            .run_gpu(&backend.rhs_counts_ebe(r).merged(out.counts));
        let (fused_iterations, attempts) = (out.fused_iterations, out.attempts);
        self.recoveries.extend_from_slice(&out.recoveries);
        let lane_corruptions = out.corruptions.clone();
        let columns = out.columns.clone();

        // harvest columns; flow hops collect each occupant's fate for the
        // causal-trace arrows emitted with the spans below
        let mut flow_hops: Vec<(u64, RequestState)> = Vec::with_capacity(n_occ);
        for (k, col) in columns.into_iter().enumerate() {
            let Some(col) = col else {
                continue;
            };
            let id = RequestId(col.id as u64);
            match col.fate {
                Fate::Failed(_) => {
                    let failed_at = self.clock.elapsed();
                    self.release(lane, k, id, RequestState::Failed, failed_at);
                    self.stats.record(ServeCounter::Failed);
                    self.flight.record(
                        failed_at,
                        "failed",
                        Some(id.0),
                        Some(lane as u64),
                        Some(self.ticks as u64),
                        "solver failure after recovery ladder",
                    );
                    flow_hops.push((id.0, RequestState::Failed));
                    continue;
                }
                Fate::Corrupt(_) => {
                    // non-finite state slipped past every checksum: free the
                    // column rather than carry NaNs forward (zero silent
                    // wrong answers)
                    let at = self.clock.elapsed();
                    self.evict(id, EvictReason::Corruption, at, Some((lane, k)));
                    self.stats.record(ServeCounter::SdcEvictions);
                    continue;
                }
                Fate::Pending | Fate::Advanced { .. } => {}
            }
            #[allow(
                clippy::expect_used,
                reason = "the column was advanced, so its slot is live"
            )]
            let case = self.slots[lane][k]
                .as_ref()
                .expect("occupied slot has a case");
            if case.is_done() {
                // the finished case's displacement moves into its record;
                // `release` below frees the rest of the slot
                let case = self.slots[lane][k].take();
                let result = case
                    .filter(|_| self.cfg.keep_results)
                    .map(CaseSlot::into_displacement);
                let done_at = self.clock.elapsed();
                self.release(lane, k, id, RequestState::Done, done_at);
                let req = self.records[id.0 as usize].request;
                let latency = done_at - self.records[id.0 as usize].admitted_at;
                self.records[id.0 as usize].result = result;
                self.stats
                    .record_completion(req.tenant.0, latency, req.n_steps as u64);
                if req.deadline.is_some_and(|d| done_at > d) {
                    self.stats
                        .record_for(ServeCounter::DeadlineMiss, req.tenant.0);
                }
                if let Some(slo) = self
                    .cfg
                    .qos
                    .as_ref()
                    .and_then(|q| q.quota(req.tenant))
                    .and_then(|q| q.slo_latency_s)
                {
                    if latency > slo {
                        self.stats.record_for(ServeCounter::SloMiss, req.tenant.0);
                    }
                }
                self.flight.record(
                    done_at,
                    "done",
                    Some(id.0),
                    Some(lane as u64),
                    Some(self.ticks as u64),
                    format!("latency {latency:.3e}s"),
                );
                flow_hops.push((id.0, RequestState::Done));
            } else {
                self.flight.record(
                    self.clock.elapsed(),
                    "step",
                    Some(id.0),
                    Some(lane as u64),
                    Some(self.ticks as u64),
                    "",
                );
                flow_hops.push((id.0, RequestState::Solving));
            }
        }

        // sync + exchange predictions/solutions, as in the ensemble driver
        self.clock.sync();
        let xfer = self.clock.transfer(2.0 * (n * r) as f64 * 8.0);

        if let Some(t) = self.trace.as_mut() {
            let pid = 1 + lane;
            let end = self.clock.elapsed();
            t.span(
                pid,
                TID_CPU,
                "predict",
                "predictors",
                (end - xfer - pred_t) * 1e6,
                pred_t * 1e6,
                vec![("occupied".to_string(), Json::from(n_occ))],
            );
            t.span(
                pid,
                TID_GPU,
                "solve",
                "fused MCG",
                (end - xfer - solver_t) * 1e6,
                solver_t * 1e6,
                vec![
                    ("occupied".to_string(), Json::from(n_occ)),
                    ("fused_iterations".to_string(), Json::from(fused_iterations)),
                    ("attempts".to_string(), Json::from(attempts)),
                ],
            );
            t.span(
                pid,
                TID_LINK,
                "transfer",
                "exchange",
                (end - xfer) * 1e6,
                xfer * 1e6,
                Vec::new(),
            );
            // causal arrows: one hop per occupant, anchored inside this
            // tick's fused-MCG span so Perfetto binds them to the slice
            let hop_ts = (end - xfer - 0.5 * solver_t) * 1e6;
            for (rid, fate) in &flow_hops {
                let fid = flow_id_for_request(*rid);
                match fate {
                    RequestState::Done => t.flow_end(pid, TID_GPU, "request", "done", hop_ts, fid),
                    RequestState::Failed => {
                        t.flow_end(pid, TID_GPU, "request", "failed", hop_ts, fid)
                    }
                    _ => t.flow_step(pid, TID_GPU, "request", "step", hop_ts, fid),
                }
            }
        }

        // SDC escalation ladder: every report above was recovered in
        // place; what escalates is corruption *recurring* tick after tick
        // on the same lane — in-place rollback, then a lane restart, then
        // eviction rather than a possibly-wrong answer.
        if lane_corruptions.is_empty() {
            self.sdc_breach[lane] = 0;
        } else {
            self.sdc_breach[lane] += 1;
            let breach = self.sdc_breach[lane];
            if breach == 1 && self.cfg.watchdog.is_none() && self.cfg.checkpoint_every > 0 {
                // the ladder starts: this tick's guards repaired the state
                // bitwise before the step, so rung 2 rolls back to here
                self.capture_lane(lane);
            }
            let now = self.clock.elapsed();
            for rep in &lane_corruptions {
                self.stats.record(ServeCounter::SdcDetected);
                self.flight.record(
                    now,
                    "sdc_recovered",
                    rep.case.map(|c| c as u64),
                    Some(lane as u64),
                    Some(self.ticks as u64),
                    format!("{rep}"),
                );
            }
            if breach == SDC_RESTART_AFTER {
                let restored = self.restart_lane(lane);
                self.stats.record(ServeCounter::SdcRestarts);
                self.flight.record(
                    now,
                    "sdc_restart",
                    None,
                    Some(lane as u64),
                    Some(self.ticks as u64),
                    format!("breach {breach}: {restored} column(s) rolled back"),
                );
            } else if breach >= SDC_EVICT_AFTER {
                let evicted = self.evict_lane(lane, EvictReason::Corruption);
                for _ in 0..evicted {
                    self.stats.record(ServeCounter::SdcEvictions);
                }
                self.sdc_breach[lane] = 0;
                self.flight.record(
                    now,
                    "sdc_evict",
                    None,
                    Some(lane as u64),
                    Some(self.ticks as u64),
                    format!("breach {breach}: {evicted} column(s) evicted"),
                );
                self.dump_flight("sdc_evict");
            }
            self.stats.observe_sdc_recovery(now - t_detect);
            self.corruptions.extend(lane_corruptions);
        }
    }

    /// Capture lane `lane`'s occupants into the in-memory lane checkpoint
    /// (the restart rungs roll back to this).
    pub(crate) fn capture_lane(&mut self, lane: usize) {
        for slot in 0..self.batcher.width() {
            self.lane_ckpt[lane][slot] = match (
                self.batcher.slot(lane, slot),
                self.slots[lane][slot].as_ref(),
            ) {
                (Some(id), Some(case)) => Some((id, case.state())),
                _ => None,
            };
        }
    }

    /// Judge one supervised lane step against the watchdog deadline and
    /// walk the escalation ladder on consecutive breaches.
    fn supervise(&mut self, lane: usize, dt: f64, wd: WatchdogConfig) {
        if self.batcher.occupied_count(lane) == 0 || dt <= wd.step_deadline_s {
            self.watchdog_breach[lane] = 0;
            return;
        }
        self.watchdog_breach[lane] += 1;
        let breach = self.watchdog_breach[lane];
        self.stats.record(ServeCounter::WatchdogBreaches);
        self.flight.record(
            self.clock.elapsed(),
            "watchdog_breach",
            None,
            Some(lane as u64),
            Some(self.ticks as u64),
            format!("breach {breach}, overrun {:.3e}s", dt - wd.step_deadline_s),
        );
        let action = if breach <= wd.max_retries {
            // rung 1: wait out the stall, charging exponential backoff
            // to the link lane of the modeled clock
            let backoff_s = wd.backoff_s(breach);
            self.clock.stall(LaneKind::Link, backoff_s);
            WatchdogAction::Retry { backoff_s }
        } else if breach == wd.max_retries + 1 {
            // rung 2: roll the lane back to its last checkpoint; the
            // breach counter persists so a still-stalled lane escalates
            let restored = self.restart_lane(lane);
            self.stats.record(ServeCounter::WatchdogRestarts);
            WatchdogAction::RestartLane { restored }
        } else {
            // rung 3: give up on the lane entirely
            let evicted = self.evict_lane(lane, EvictReason::Watchdog);
            self.watchdog_breach[lane] = 0;
            WatchdogAction::EvictLane { evicted }
        };
        self.flight.record(
            self.clock.elapsed(),
            "watchdog_action",
            None,
            Some(lane as u64),
            Some(self.ticks as u64),
            action.label(),
        );
        self.watchdog_events.push(WatchdogEvent {
            tick: self.ticks,
            lane,
            breach,
            overrun_s: dt - wd.step_deadline_s,
            wall_s: self.wall.now(),
            action,
        });
        self.dump_flight("watchdog_breach");
    }

    /// Roll lane `lane`'s surviving columns back to the last in-memory
    /// lane checkpoint; returns how many columns were restored. Columns
    /// whose occupant changed since the capture (finished and backfilled)
    /// keep their live state.
    fn restart_lane(&mut self, lane: usize) -> usize {
        let mut restored = 0;
        for slot in 0..self.batcher.width() {
            let Some(id) = self.batcher.slot(lane, slot) else {
                continue;
            };
            let Some((ckpt_id, st)) = self.lane_ckpt[lane][slot].as_ref() else {
                continue;
            };
            if *ckpt_id != id {
                continue;
            }
            self.slots[lane][slot] = Some(CaseSlot::from_state(self.backend, &self.cfg.run, st));
            self.records[id.0 as usize].state = RequestState::Batched;
            restored += 1;
            let now = self.clock.elapsed();
            self.flight.record(
                now,
                "lane_restored",
                Some(id.0),
                Some(lane as u64),
                Some(self.ticks as u64),
                "rolled back to lane checkpoint",
            );
            if let Some(t) = self.trace.as_mut() {
                // the flow id is derived from the request id alone, so
                // this hop chains onto the same arrow the case had before
                // the restart — across lanes and rollbacks
                t.flow_step(
                    1 + lane,
                    TID_GPU,
                    "request",
                    "restored",
                    now * 1e6,
                    flow_id_for_request(id.0),
                );
            }
        }
        restored
    }

    /// Free every column of lane `lane`, evicting its requests for
    /// `reason` (the watchdog's or the SDC ladder's last rung); returns
    /// how many were evicted.
    fn evict_lane(&mut self, lane: usize, reason: EvictReason) -> usize {
        let now = self.clock.elapsed();
        let mut evicted = 0;
        for slot in 0..self.batcher.width() {
            let Some(id) = self.batcher.slot(lane, slot) else {
                continue;
            };
            self.evict(id, reason, now, Some((lane, slot)));
            evicted += 1;
        }
        evicted
    }

    /// Supervision decisions taken so far, in order.
    pub fn watchdog_events(&self) -> &[WatchdogEvent] {
        &self.watchdog_events
    }

    /// Free lane `lane`'s column `slot` and move its request `id` to the
    /// terminal `state`. The column's lane capture goes with it: a restart
    /// skips a capture of another occupant, so nothing would read it again.
    fn release(&mut self, lane: usize, slot: usize, id: RequestId, state: RequestState, at: f64) {
        self.batcher.free(lane, slot);
        self.slots[lane][slot] = None;
        self.lane_ckpt[lane][slot] = None;
        self.finish(id, state, at);
    }

    /// Evict request `id` for `reason`, counted and recorded, releasing
    /// the lane column `(lane, slot)` it holds, if any.
    fn evict(
        &mut self,
        id: RequestId,
        reason: EvictReason,
        at: f64,
        column: Option<(usize, usize)>,
    ) {
        match column {
            Some((lane, slot)) => self.release(lane, slot, id, RequestState::Evicted, at),
            None => self.finish(id, RequestState::Evicted, at),
        }
        self.records[id.0 as usize].evict_reason = Some(reason);
        let tenant = self.records[id.0 as usize].request.tenant.0;
        self.stats.record_for(ServeCounter::Evicted, tenant);
        let lane = column.map(|(lane, _)| lane);
        self.flight.record(
            at,
            "evicted",
            Some(id.0),
            lane.map(|l| l as u64),
            Some(self.ticks as u64),
            reason.label(),
        );
        if let Some(t) = self.trace.as_mut() {
            let (pid, tid) = lane.map_or((0, 0), |l| (1 + l, TID_GPU));
            let flow = flow_id_for_request(id.0);
            t.flow_end(pid, tid, "request", "evicted", at * 1e6, flow);
        }
    }

    /// Move a request to a terminal state.
    fn finish(&mut self, id: RequestId, state: RequestState, at: f64) {
        let rec = &mut self.records[id.0 as usize];
        rec.state = state;
        rec.finished_at = Some(at);
    }

    /// The serving metrics collected so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Record of an admitted request.
    pub fn record(&self, id: RequestId) -> &RequestRecord {
        &self.records[id.0 as usize]
    }

    /// Number of requests ever admitted (ids are `0..admitted()`).
    pub fn admitted(&self) -> usize {
        self.records.len()
    }

    /// Final displacement of a `Done` request.
    pub fn result(&self, id: RequestId) -> Option<&[f64]> {
        self.records[id.0 as usize].result.as_deref()
    }

    /// Recovery-ladder events across all lanes so far.
    pub fn recoveries(&self) -> &[RecoveryEvent] {
        &self.recoveries
    }

    /// Corruption detections (and the recovery each took) so far.
    pub fn corruptions(&self) -> &[CorruptionReport] {
        &self.corruptions
    }

    /// The fault plan injected into this server, with what has fired.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Scheduling boundaries executed so far.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Modeled server clock (s).
    pub fn elapsed(&self) -> f64 {
        self.clock.elapsed()
    }

    /// Queued (not yet batched) requests.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Requests currently occupying lane slots.
    pub fn in_flight(&self) -> usize {
        (0..self.batcher.n_lanes())
            .map(|l| self.batcher.occupied_count(l))
            .sum()
    }

    /// Fused lanes currently spun up (fixed at 2 without autoscaling).
    pub fn lanes(&self) -> usize {
        self.batcher.n_lanes()
    }

    /// Lane-scaling events taken so far, in order.
    pub fn scale_events(&self) -> &[AutoscaleEvent] {
        &self.scale_events
    }

    /// Autoscaler dynamic state (cooldown / draining / monotone count).
    pub fn autoscaler(&self) -> &AutoscalerState {
        &self.autoscaler
    }

    /// Nothing queued and nothing in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.batcher.is_idle()
    }

    /// Modeled per-step floor the unmeetable-deadline shedder uses.
    pub fn step_floor_s(&self) -> f64 {
        self.step_floor
    }

    /// Advance the modeled clock by `dt` seconds without running any work
    /// — the open-loop load generator's "wait for the next arrival" while
    /// the server is idle. Charged to the link lane so both device
    /// timelines (and [`Self::elapsed`]) move together.
    pub fn advance_idle(&mut self, dt: f64) {
        if dt > 0.0 {
            self.clock.stall(LaneKind::Link, dt);
            self.stats.set_elapsed(self.clock.elapsed());
        }
    }

    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use hetsolve_fault::StateField;
    use hetsolve_fem::{FemProblem, RandomLoadSpec};
    use hetsolve_machine::single_gh200;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    use super::*;

    fn small_backend() -> Backend {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        Backend::new(FemProblem::paper_like(&spec), false, false)
    }

    /// Two lanes of width 2, integrity detection on, no watchdog.
    fn small_cfg() -> ServeConfig {
        let mut cfg = ServeConfig::new(single_gh200());
        cfg.run.r = 2;
        cfg.run.s_max = 6;
        cfg.run.region_dofs = 300;
        cfg.run.load = RandomLoadSpec {
            n_sources: 4,
            impulses_per_source: 2.0,
            amplitude: 1e6,
            active_window: 0.2,
        };
        assert!(cfg.run.integrity.detect && cfg.watchdog.is_none());
        cfg
    }

    /// The requests whose state the lane captures hold, ascending.
    fn captured(server: &EnsembleServer<'_>) -> Vec<RequestId> {
        let cols = server.lane_ckpt.iter().flatten();
        let mut ids: Vec<_> = cols.filter_map(|c| c.as_ref().map(|(id, _)| *id)).collect();
        ids.sort_by_key(|id| id.0);
        ids
    }

    /// The lane capture of a request that ends is dropped with its
    /// column, before the next capture tick; its companion's stays.
    #[test]
    fn a_finished_request_leaves_no_lane_capture() {
        let backend = small_backend();
        let mut cfg = small_cfg();
        cfg.checkpoint_every = 8;
        // a deadline no step reaches: captures at cadence, no breach
        cfg.watchdog = Some(WatchdogConfig::new(1e3));
        let mut server = EnsembleServer::new(&backend, cfg);
        let short = server.admit(SolveRequest::new(11, 2)).expect("admit");
        let long = server.admit(SolveRequest::new(12, 6)).expect("admit");
        server.tick();
        assert_eq!(captured(&server), [short, long], "both captured at tick 0");
        server.tick();
        assert_eq!(server.record(short).state, RequestState::Done);
        assert!(server.ticks < 8, "no capture tick since");
        assert_eq!(captured(&server), [long]);
    }

    /// Under detection alone no restart rung reads a capture until a
    /// lane's SDC ladder starts, so a clean run takes none.
    #[test]
    fn a_clean_detect_only_server_captures_nothing() {
        let backend = small_backend();
        let mut server = EnsembleServer::new(&backend, small_cfg());
        for seed in 0..6 {
            server.admit(SolveRequest::new(seed, 5)).expect("admit");
        }
        while !server.is_idle() {
            server.tick();
            assert_eq!(captured(&server), [], "tick {}", server.ticks);
        }
        assert_eq!(server.stats().count(ServeCounter::Completed), 6);
    }

    /// A restore re-seeds lane captures by the same rule: every occupied
    /// column under a watchdog; without one only the lanes whose SDC
    /// ladder is under way, so none in a clean server; none at all with
    /// `checkpoint_every = 0`.
    #[test]
    fn a_restore_captures_only_where_a_restart_rung_reads() {
        let backend = small_backend();
        let snapshot = |cfg: &ServeConfig, faults: FaultPlan| {
            let mut server = EnsembleServer::with_faults(&backend, cfg.clone(), faults);
            for seed in [800, 801] {
                server.admit(SolveRequest::new(seed, 6)).expect("admit");
            }
            server.tick();
            server.tick();
            let bytes = server.checkpoint_bytes();
            let restored = EnsembleServer::restore(&backend, cfg.clone(), &bytes);
            captured(&restored.expect("a fresh image restores"))
        };
        let clean = small_cfg();
        assert_eq!(snapshot(&clean, FaultPlan::default()), []);
        let flip = FaultPlan::new(47).flip_state(1, 0, StateField::U);
        assert_eq!(snapshot(&clean, flip), [RequestId(0), RequestId(1)]);
        let mut supervised = small_cfg();
        supervised.watchdog = Some(WatchdogConfig::new(1e3));
        supervised.checkpoint_every = 8;
        let all = [RequestId(0), RequestId(1)];
        assert_eq!(snapshot(&supervised, FaultPlan::default()), all);
        supervised.checkpoint_every = 0;
        assert_eq!(
            snapshot(&supervised, FaultPlan::default()),
            [],
            "0 disables"
        );
    }

    /// Under detection alone a lane is captured at the end of the tick its
    /// SDC ladder starts, and rung 2 rolls the lane back to that capture.
    #[test]
    fn detection_alone_restarts_from_the_capture_taken_when_the_ladder_starts() {
        let backend = small_backend();
        let mut plan = FaultPlan::new(47);
        for tick in 1..=SDC_RESTART_AFTER as usize {
            plan = plan.flip_state(tick, 0, StateField::U);
        }
        let mut server = EnsembleServer::with_faults(&backend, small_cfg(), plan);
        let victim = server.admit(SolveRequest::new(800, 8)).expect("admit");
        server.tick();
        assert_eq!(captured(&server), [], "a clean tick captures nothing");
        server.tick();
        assert_eq!(server.sdc_breach[0], 1);
        assert_eq!(captured(&server), [victim], "the ladder starts");
        let Some((_, at_start)) = server.lane_ckpt[0][0].clone() else {
            panic!("the victim holds lane 0, column 0");
        };
        assert_eq!(at_start.step, 2, "captured after tick 1's step");
        server.tick();
        server.tick();
        assert_eq!(server.stats().count(ServeCounter::SdcRestarts), 1);
        let restored: Vec<_> = server
            .flight()
            .events()
            .filter(|e| e.kind == "lane_restored")
            .map(|e| (e.request, e.step))
            .collect();
        assert_eq!(restored, [(Some(victim.0), Some(3))]);
        let live = server.slots[0][0].as_ref().expect("the victim is live");
        assert_eq!(live.state(), at_start, "rolled back to the capture");
        server.run_until_idle();
        assert_eq!(server.record(victim).state, RequestState::Done);
    }
}
