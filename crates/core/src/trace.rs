//! Per-step pipeline tracing — the observability layer over the method
//! drivers.
//!
//! [`StepTracer`] sits between the drivers in [`crate::methods`] and the
//! [`ModuleClock`]: every kernel charge goes through it, so it can label
//! the clock's [`LaneSpan`](hetsolve_machine::LaneSpan)s with *what* ran
//! (solver, predictor, RHS, transfer) and in which process set, and export
//! the result as Chrome-trace-event JSON — a faithful, inspectable
//! reproduction of the paper's Fig. 4 CPU/GPU overlap diagram. It also aggregates
//! [`AdaptiveWindow`](hetsolve_predictor::AdaptiveWindow) decisions, kernel
//! work counters and per-method summaries into a [`MetricsSink`] snapshot.
//!
//! A disabled tracer (the default for [`crate::methods::run`]) never
//! enables the clock's span log and skips every branch, so untraced runs
//! pay nothing.
//!
//! Trace layout: one Chrome *process* per process set (`pid`), one
//! *thread* per device lane (`tid` 0 = CPU, 1 = GPU, 2 = C2C link).
//! Timestamps are modeled seconds scaled to microseconds.

use hetsolve_machine::{LaneKind, ModuleClock};
use hetsolve_obs::{names, Json, MethodMetrics, MetricsRegistry, MetricsSink, TraceBuilder};
use hetsolve_predictor::WindowDecision;
use hetsolve_sparse::KernelCounts;

use crate::methods::{RunConfig, RunResult};
use crate::recovery::RecoveryEvent;

/// Thread ids of the device lanes in the exported trace.
pub const TID_CPU: usize = 0;
pub const TID_GPU: usize = 1;
pub const TID_LINK: usize = 2;

/// Labeling tracer threaded through the method drivers.
#[derive(Debug, Clone, Default)]
pub struct StepTracer {
    enabled: bool,
    pub trace: TraceBuilder,
    pub sink: MetricsSink,
    /// Telemetry-v2 registry, independent of `enabled`: an attached
    /// registry aggregates phase histograms and counters even on a
    /// `disabled()` tracer (no span labeling, no per-event allocation).
    /// `None` (the default) costs one branch per charge.
    registry: Option<MetricsRegistry>,
    /// Total kernel work charged through this tracer.
    total_counts: KernelCounts,
    /// Adaptive-window decision log rows for the metrics export.
    window_log: Vec<Json>,
    /// Recovery-ladder event rows for the metrics export.
    recovery_log: Vec<Json>,
}

impl StepTracer {
    /// An enabled tracer collecting spans and metrics in memory.
    pub fn new() -> Self {
        StepTracer {
            enabled: true,
            ..Default::default()
        }
    }

    /// The zero-cost default: collects nothing, labels nothing.
    pub fn disabled() -> Self {
        StepTracer::default()
    }

    /// Attach a metrics registry. Works on disabled tracers too — the
    /// registry seam is separate from span tracing, so its overhead can
    /// be measured (and its bitwise neutrality proven) in isolation.
    pub fn attach_registry(&mut self, registry: MetricsRegistry) {
        self.registry = Some(registry);
    }

    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.registry.as_ref()
    }

    pub(crate) fn registry_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.registry.as_mut()
    }

    /// Detach and return the registry (e.g. to merge into a server-level
    /// aggregate after a run).
    pub fn take_registry(&mut self) -> Option<MetricsRegistry> {
        self.registry.take()
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registry-side accounting for a charged phase: the phase histogram
    /// plus work counters. One branch when no registry is attached.
    fn observe_phase(&mut self, lane: LaneKind, seconds: f64, counts: &KernelCounts) {
        let Some(reg) = self.registry.as_mut() else {
            return;
        };
        let name = match lane {
            LaneKind::Cpu => names::CORE_PHASE_CPU_S,
            LaneKind::Gpu => names::CORE_PHASE_GPU_S,
            LaneKind::Link => names::CORE_PHASE_LINK_S,
        };
        reg.observe(name, seconds);
        if counts.flops > 0.0 {
            reg.inc(names::CORE_FLOPS_TOTAL, counts.flops);
        }
        let bytes = counts.bytes();
        if bytes > 0.0 {
            reg.inc(names::CORE_BYTES_TOTAL, bytes);
        }
    }

    /// Announce a run: names the process-set rows and lane threads and
    /// stores run metadata. Call once per traced run.
    pub(crate) fn begin_run(&mut self, label: &str, cfg: &RunConfig, n_sets: usize) {
        if !self.enabled {
            return;
        }
        self.trace.set_meta("method", Json::from(label));
        self.trace.set_meta("n_steps", Json::from(cfg.n_steps));
        self.trace.set_meta("r", Json::from(cfg.r));
        self.trace.set_meta("s_max", Json::from(cfg.s_max));
        self.trace.set_meta("tol", Json::Num(cfg.tol));
        for set in 0..n_sets {
            let name = if n_sets == 1 {
                "process".to_string()
            } else {
                format!("process set {}", (b'A' + (set % 26) as u8) as char)
            };
            self.trace.name_process(set, &name);
            self.trace.name_thread(set, TID_CPU, "CPU (predictor)");
            self.trace.name_thread(set, TID_GPU, "GPU (solver)");
            self.trace.name_thread(set, TID_LINK, "C2C link");
        }
    }

    /// Enable the clock's span log when tracing (no-op otherwise).
    pub(crate) fn attach_clock(&self, clock: &mut ModuleClock) {
        if self.enabled {
            clock.enable_span_log();
        }
    }

    /// Charge a CPU kernel and label its span.
    pub(crate) fn charge_cpu(
        &mut self,
        clock: &mut ModuleClock,
        set: usize,
        name: &str,
        counts: &KernelCounts,
        args: &[(&str, Json)],
    ) -> f64 {
        let t = clock.run_cpu(counts);
        self.observe_phase(LaneKind::Cpu, t, counts);
        self.label(clock, set, name, counts, args);
        t
    }

    /// Charge a GPU kernel and label its span.
    pub(crate) fn charge_gpu(
        &mut self,
        clock: &mut ModuleClock,
        set: usize,
        name: &str,
        counts: &KernelCounts,
        args: &[(&str, Json)],
    ) -> f64 {
        let t = clock.run_gpu(counts);
        self.observe_phase(LaneKind::Gpu, t, counts);
        self.label(clock, set, name, counts, args);
        t
    }

    /// Charge a CPU↔GPU transfer and label its span.
    pub(crate) fn charge_transfer(
        &mut self,
        clock: &mut ModuleClock,
        set: usize,
        name: &str,
        bytes: f64,
    ) -> f64 {
        let t = clock.transfer(bytes);
        if let Some(reg) = self.registry.as_mut() {
            reg.observe(names::CORE_PHASE_LINK_S, t);
            reg.inc(names::CORE_BYTES_TOTAL, bytes);
        }
        if self.enabled {
            let args = [("bytes", Json::Num(bytes))];
            self.label(clock, set, name, &KernelCounts::default(), &args);
        }
        t
    }

    fn label(
        &mut self,
        clock: &mut ModuleClock,
        set: usize,
        name: &str,
        counts: &KernelCounts,
        args: &[(&str, Json)],
    ) {
        if !self.enabled {
            return;
        }
        self.total_counts = self.total_counts.merged(*counts);
        for span in clock.drain_spans() {
            let (tid, cat) = match span.lane {
                LaneKind::Cpu => (TID_CPU, "cpu"),
                LaneKind::Gpu => (TID_GPU, "gpu"),
                LaneKind::Link => (TID_LINK, "link"),
            };
            self.trace.span(
                set,
                tid,
                cat,
                name,
                span.start * 1e6,
                (span.end - span.start) * 1e6,
                args.iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            );
        }
    }

    /// Record an [`AdaptiveWindow`](hetsolve_predictor::AdaptiveWindow)
    /// decision: a counter track in the trace plus a row in the metrics
    /// `window_log` section. `ts_s` is the modeled time of the decision.
    pub(crate) fn window_decision(&mut self, step: usize, ts_s: f64, d: &WindowDecision) {
        if let Some(reg) = self.registry.as_mut() {
            reg.gauge_set(names::CORE_WINDOW_S, d.s_next as f64);
        }
        if !self.enabled {
            return;
        }
        self.trace.counter(
            0,
            "adaptive window s",
            ts_s * 1e6,
            &[("s_used", d.s_used as f64), ("s_next", d.s_next as f64)],
        );
        self.window_log.push(Json::obj([
            ("step", Json::from(step)),
            ("t_s", Json::Num(ts_s)),
            ("s_used", Json::from(d.s_used)),
            ("s_next", Json::from(d.s_next)),
            ("predictor_time_s", Json::Num(d.predictor_time)),
            ("solver_time_s", Json::Num(d.solver_time)),
            ("unit_cost_s", Json::Num(d.unit_cost)),
            ("budget_s", Json::Num(d.budget)),
        ]));
    }

    /// Record a recovery-ladder event: an instant marker in the trace plus
    /// a row in the metrics `recovery_log` section. `ts_s` is the modeled
    /// time the recovery completed.
    pub(crate) fn recovery_event(&mut self, ts_s: f64, ev: &RecoveryEvent) {
        if let Some(reg) = self.registry.as_mut() {
            reg.inc(names::CORE_RECOVERIES_TOTAL, 1.0);
        }
        if !self.enabled {
            return;
        }
        self.trace.span(
            ev.set,
            TID_GPU,
            "recovery",
            "solver recovery",
            ts_s * 1e6,
            0.0,
            vec![
                ("step".to_string(), Json::from(ev.step)),
                ("failed".to_string(), Json::from(ev.failed.label())),
                (
                    "recovered_with".to_string(),
                    Json::from(ev.recovered_with.label()),
                ),
                ("attempts".to_string(), Json::from(ev.attempts)),
            ],
        );
        self.recovery_log.push(Json::obj([
            ("step", Json::from(ev.step)),
            ("t_s", Json::Num(ts_s)),
            (
                "case",
                match ev.case {
                    Some(c) => Json::from(c),
                    None => Json::Null,
                },
            ),
            ("set", Json::from(ev.set)),
            ("failed", Json::from(ev.failed.label())),
            ("recovered_with", Json::from(ev.recovered_with.label())),
            ("attempts", Json::from(ev.attempts)),
        ]));
    }

    /// Charge a modeled fault stall on one lane (injected via
    /// `hetsolve-fault`) and label its span. Returns the stall seconds.
    pub(crate) fn charge_stall(
        &mut self,
        clock: &mut ModuleClock,
        set: usize,
        lane: LaneKind,
        seconds: f64,
    ) -> f64 {
        let t = clock.stall(lane, seconds);
        self.observe_phase(lane, t, &KernelCounts::default());
        if self.enabled {
            let args = [("seconds", Json::Num(seconds))];
            self.label(
                clock,
                set,
                "fault: lane stall",
                &KernelCounts::default(),
                &args,
            );
        }
        t
    }

    /// A driver finished one time step at modeled time `ts_s`: bump the
    /// step counter on an attached registry. Called by `step_once` at the
    /// step boundary — one branch when nothing is attached.
    pub(crate) fn step_completed(&mut self, _ts_s: f64) {
        if let Some(reg) = self.registry.as_mut() {
            reg.inc(names::CORE_STEPS_TOTAL, 1.0);
        }
    }

    /// Record a mean-iterations counter sample (one per step).
    pub(crate) fn iterations_counter(&mut self, ts_s: f64, iterations: f64) {
        if !self.enabled {
            return;
        }
        self.trace
            .counter(0, "CG iterations", ts_s * 1e6, &[("iters", iterations)]);
    }

    /// Fold a finished run into the metrics sink as a method row (and
    /// flush the window log into a section).
    pub(crate) fn finish_run(&mut self, result: &RunResult, from: usize) {
        if let Some(reg) = &self.registry {
            self.sink.set_section("registry", reg.to_json());
        }
        if !self.enabled {
            return;
        }
        let records = &result.records[from.min(result.records.len())..];
        let mean_window = if records.is_empty() {
            0.0
        } else {
            records.iter().map(|r| r.s_used as f64).sum::<f64>() / records.len() as f64
        };
        let counts = self.total_counts;
        self.sink.push_method(MethodMetrics {
            method: result.method.label().to_string(),
            n_cases: result.n_cases,
            steps: result.records.len(),
            step_time_s: result.mean_step_time(from),
            solver_time_s: result.mean_solver_time(from),
            predictor_time_s: result.mean_predictor_time(from),
            iterations: result.mean_iterations(from),
            speedup: 1.0,
            module_power_w: result.energy.avg_power,
            energy_per_step_j: result.energy_per_step_per_case(),
            flops: counts.flops,
            bytes: counts.bytes(),
            rand_transactions: counts.rand_transactions,
            mean_window_s: mean_window,
            recoveries: result.recoveries.len(),
        });
        if !self.window_log.is_empty() {
            self.sink
                .set_section("window_log", Json::Arr(self.window_log.clone()));
        }
        if !self.recovery_log.is_empty() {
            self.sink
                .set_section("recovery_log", Json::Arr(self.recovery_log.clone()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_machine::single_gh200;

    fn counts(flops: f64) -> KernelCounts {
        KernelCounts {
            flops,
            ..Default::default()
        }
    }

    #[test]
    fn disabled_tracer_records_nothing_and_keeps_clock_untouched() {
        let mut tracer = StepTracer::disabled();
        let mut clock = ModuleClock::new(single_gh200().module, 72, true);
        tracer.attach_clock(&mut clock);
        assert!(!clock.span_log_enabled());
        tracer.charge_gpu(&mut clock, 0, "solver", &counts(1e12), &[]);
        assert!(tracer.trace.is_empty());
        assert_eq!(tracer.total_counts.flops, 0.0);
    }

    #[test]
    fn enabled_tracer_labels_lane_spans() {
        let mut tracer = StepTracer::new();
        let mut clock = ModuleClock::new(single_gh200().module, 72, true);
        tracer.attach_clock(&mut clock);
        let t = tracer.charge_gpu(&mut clock, 1, "solver", &counts(1e12), &[]);
        tracer.charge_cpu(&mut clock, 1, "predictor", &counts(1e10), &[]);
        clock.sync();
        tracer.charge_transfer(&mut clock, 1, "exchange", 1e6);
        let events = tracer.trace.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "solver");
        assert_eq!(events[0].tid, TID_GPU);
        assert_eq!(events[0].pid, 1);
        assert!((events[0].dur_us.unwrap() - t * 1e6).abs() < 1e-9);
        assert_eq!(events[1].tid, TID_CPU);
        assert_eq!(events[2].tid, TID_LINK);
        assert!(tracer.total_counts.flops > 0.0);
    }

    #[test]
    fn charge_returns_same_time_as_raw_clock() {
        let c = counts(3e12);
        let mut raw = ModuleClock::new(single_gh200().module, 72, true);
        let mut traced = raw.clone();
        let mut tracer = StepTracer::new();
        tracer.attach_clock(&mut traced);
        let t_raw = raw.run_gpu(&c);
        let t_traced = tracer.charge_gpu(&mut traced, 0, "x", &c, &[]);
        assert_eq!(t_raw, t_traced);
        assert_eq!(raw.elapsed(), traced.elapsed());
    }
}
