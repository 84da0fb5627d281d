//! Virtual two-lane module clock: overlapped CPU/GPU execution with energy
//! integration.
//!
//! The paper's Algorithms 3–4 run the predictor on the CPU *while* the
//! solver runs on the GPU, synchronizing and exchanging data over
//! NVLink-C2C between phases. [`ModuleClock`] models exactly that: two
//! timelines that advance independently between `sync()` points, with every
//! kernel charged by the roofline model and every busy interval integrated
//! into per-device energy. The GPU clock factor reflects the module power
//! cap given the CPU's concurrent draw (Alps behaviour, Table 4).

use hetsolve_sparse::KernelCounts;

use crate::roofline::{kernel_time, transfer_time, ExecCtx};
use crate::spec::ModuleSpec;

/// One device timeline.
#[derive(Debug, Clone, Copy, Default)]
struct Lane {
    /// Local time (s).
    time: f64,
    /// Seconds spent busy.
    busy: f64,
    /// Busy-energy accumulated (J), excluding idle draw.
    busy_energy: f64,
}

/// Which timeline a recorded span occupied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    Cpu,
    Gpu,
    /// CPU↔GPU C2C transfer (occupies both lanes; reported once).
    Link,
}

/// One busy interval on a device timeline, in modeled seconds. The clock
/// records *when* work ran; the caller (e.g. `hetsolve-core`'s
/// `StepTracer`) attaches *what* ran, since only it knows the kernel's
/// role — the clock sees opaque [`KernelCounts`].
#[derive(Debug, Clone, Copy)]
pub struct LaneSpan {
    pub lane: LaneKind,
    /// Span start on the lane's local timeline (s).
    pub start: f64,
    /// Span end (s); `end - start` is the modeled kernel time.
    pub end: f64,
}

/// Virtual clock of one GH200 module.
#[derive(Debug, Clone)]
pub struct ModuleClock {
    pub spec: ModuleSpec,
    /// CPU threads used by predictor work (power + speed).
    pub cpu_threads: usize,
    /// Whether CPU work overlaps GPU work (drives the power-cap throttle).
    pub overlapped: bool,
    cpu: Lane,
    gpu: Lane,
    /// Timeline span log (`None` until [`ModuleClock::enable_span_log`]:
    /// tracing must cost nothing when nobody is looking).
    spans: Option<Vec<LaneSpan>>,
}

/// Bitwise snapshot of a [`ModuleClock`]'s mutable timeline — what a
/// checkpoint must persist so a restored run's modeled times and energies
/// continue exactly where they left off. The configuration (spec,
/// threads, overlap) is *not* part of the state: it is re-derived from
/// the run configuration at restore, and a mismatch there is caught by
/// the checkpoint's config fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClockState {
    pub cpu_time: f64,
    pub cpu_busy: f64,
    pub cpu_busy_energy: f64,
    pub gpu_time: f64,
    pub gpu_busy: f64,
    pub gpu_busy_energy: f64,
}

hetsolve_ckpt::wire_struct!(ClockState {
    cpu_time,
    cpu_busy,
    cpu_busy_energy,
    gpu_time,
    gpu_busy,
    gpu_busy_energy,
});

/// Summary of a finished (or in-progress) timeline.
#[derive(Debug, Clone, Copy)]
pub struct EnergyReport {
    /// Makespan (s).
    pub elapsed: f64,
    pub cpu_busy: f64,
    pub gpu_busy: f64,
    /// Total energy (J): busy energy + idle draw over the makespan.
    pub energy: f64,
    /// Time-averaged module power (W).
    pub avg_power: f64,
}

impl ModuleClock {
    pub fn new(spec: ModuleSpec, cpu_threads: usize, overlapped: bool) -> Self {
        ModuleClock {
            spec,
            cpu_threads,
            overlapped,
            cpu: Lane::default(),
            gpu: Lane::default(),
            spans: None,
        }
    }

    /// Start recording [`LaneSpan`]s for every subsequent charge.
    pub fn enable_span_log(&mut self) {
        if self.spans.is_none() {
            self.spans = Some(Vec::new());
        }
    }

    pub fn span_log_enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Take the spans recorded since the last drain (empty when the log is
    /// disabled). Logging stays enabled.
    pub fn drain_spans(&mut self) -> Vec<LaneSpan> {
        match self.spans.as_mut() {
            Some(v) => std::mem::take(v),
            None => Vec::new(),
        }
    }

    fn log_span(&mut self, lane: LaneKind, start: f64, end: f64) {
        if let Some(v) = self.spans.as_mut() {
            v.push(LaneSpan { lane, start, end });
        }
    }

    /// GPU clock factor under the power cap.
    pub fn gpu_clock(&self) -> f64 {
        let cpu_power = if self.overlapped {
            self.spec.cpu.power_threads(self.cpu_threads)
        } else {
            self.spec.cpu.power(0.0)
        };
        self.spec.gpu_throttle(cpu_power)
    }

    /// Charge a kernel to the CPU lane; returns its modeled time.
    pub fn run_cpu(&mut self, counts: &KernelCounts) -> f64 {
        let ctx = ExecCtx {
            threads: self.cpu_threads,
            clock: 1.0,
        };
        let t = kernel_time(&self.spec.cpu, counts, &ctx);
        let frac = self.spec.cpu.thread_frac(self.cpu_threads);
        let start = self.cpu.time;
        self.cpu.time += t;
        self.cpu.busy += t;
        self.cpu.busy_energy += t * self.spec.cpu.active_power * frac;
        self.log_span(LaneKind::Cpu, start, start + t);
        t
    }

    /// Charge a kernel to the GPU lane; returns its modeled time.
    pub fn run_gpu(&mut self, counts: &KernelCounts) -> f64 {
        let clock = self.gpu_clock();
        let ctx = ExecCtx {
            threads: usize::MAX,
            clock,
        };
        let t = kernel_time(&self.spec.gpu, counts, &ctx);
        let start = self.gpu.time;
        self.gpu.time += t;
        self.gpu.busy += t;
        // a throttled GPU draws proportionally less active power
        self.gpu.busy_energy += t * self.spec.gpu.active_power * clock;
        self.log_span(LaneKind::Gpu, start, start + t);
        t
    }

    /// Synchronize both lanes (barrier): both advance to the later time.
    pub fn sync(&mut self) {
        let t = self.cpu.time.max(self.gpu.time);
        self.cpu.time = t;
        self.gpu.time = t;
    }

    /// CPU↔GPU transfer of `bytes` over the C2C link; occupies both lanes
    /// (call after `sync()` to model the paper's sync-transfer-sync).
    pub fn transfer(&mut self, bytes: f64) -> f64 {
        let t = transfer_time(&self.spec.link, bytes);
        // one Link span at the later lane time: transfers are documented
        // to follow a sync(), where both lanes coincide
        let start = self.cpu.time.max(self.gpu.time);
        self.cpu.time += t;
        self.gpu.time += t;
        self.log_span(LaneKind::Link, start, start + t);
        // DMA engines draw little; fold into idle power.
        t
    }

    /// Stall one lane for `seconds` without doing work: the lane's local
    /// time advances but no busy time or active energy is charged (the
    /// device sits at idle draw — a hung kernel, OS jitter, or an injected
    /// fault). A [`LaneKind::Link`] stall models a blocked C2C channel and
    /// advances both lanes, like [`ModuleClock::transfer`]. Returns
    /// `seconds` for symmetry with the charge methods.
    pub fn stall(&mut self, lane: LaneKind, seconds: f64) -> f64 {
        match lane {
            LaneKind::Cpu => {
                let start = self.cpu.time;
                self.cpu.time += seconds;
                self.log_span(LaneKind::Cpu, start, start + seconds);
            }
            LaneKind::Gpu => {
                let start = self.gpu.time;
                self.gpu.time += seconds;
                self.log_span(LaneKind::Gpu, start, start + seconds);
            }
            LaneKind::Link => {
                let start = self.cpu.time.max(self.gpu.time);
                self.cpu.time += seconds;
                self.gpu.time += seconds;
                self.log_span(LaneKind::Link, start, start + seconds);
            }
        }
        seconds
    }

    /// Current CPU / GPU lane times.
    pub fn times(&self) -> (f64, f64) {
        (self.cpu.time, self.gpu.time)
    }

    /// Makespan so far.
    pub fn elapsed(&self) -> f64 {
        self.cpu.time.max(self.gpu.time)
    }

    /// Energy / power summary so far.
    pub fn report(&self) -> EnergyReport {
        let elapsed = self.elapsed();
        let idle = (self.spec.cpu.power(0.0) + self.spec.gpu.power(0.0)) * elapsed;
        let energy = idle + self.cpu.busy_energy + self.gpu.busy_energy;
        EnergyReport {
            elapsed,
            cpu_busy: self.cpu.busy,
            gpu_busy: self.gpu.busy,
            energy,
            avg_power: if elapsed > 0.0 { energy / elapsed } else { 0.0 },
        }
    }

    /// Reset the timeline (keep the configuration and span-log setting).
    pub fn reset(&mut self) {
        self.cpu = Lane::default();
        self.gpu = Lane::default();
        if let Some(v) = self.spans.as_mut() {
            v.clear();
        }
    }

    /// Snapshot the timeline for a checkpoint.
    pub fn state(&self) -> ClockState {
        ClockState {
            cpu_time: self.cpu.time,
            cpu_busy: self.cpu.busy,
            cpu_busy_energy: self.cpu.busy_energy,
            gpu_time: self.gpu.time,
            gpu_busy: self.gpu.busy,
            gpu_busy_energy: self.gpu.busy_energy,
        }
    }

    /// Restore a timeline snapshot taken by [`ModuleClock::state`].
    pub fn restore_state(&mut self, s: &ClockState) {
        self.cpu = Lane {
            time: s.cpu_time,
            busy: s.cpu_busy,
            busy_energy: s.cpu_busy_energy,
        };
        self.gpu = Lane {
            time: s.gpu_time,
            busy: s.gpu_busy,
            busy_energy: s.gpu_busy_energy,
        };
    }
}

// ---------------------------------------------------------------------------
// Wall clock (real time, as opposed to the modeled timeline above).

/// Injectable source of wall-clock seconds. Production code uses
/// [`SystemClock`]; deterministic tests (watchdog escalation, replay)
/// inject a [`ManualClock`] so no code path under test ever reads
/// `std::time` directly.
pub trait WallClock {
    /// Seconds since this clock's origin.
    fn now(&self) -> f64;
}

/// The real wall clock: seconds since construction.
#[derive(Debug, Clone, Copy)]
pub struct SystemClock {
    origin: std::time::Instant,
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl SystemClock {
    pub fn new() -> Self {
        Self::default()
    }
}

impl WallClock for SystemClock {
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// A hand-cranked wall clock for deterministic tests. Clones share the
/// same underlying time, so a test can keep one handle and advance the
/// clone it injected.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    now: std::rc::Rc<std::cell::Cell<f64>>,
}

impl ManualClock {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, seconds: f64) {
        self.now.set(seconds);
    }

    pub fn advance(&self, seconds: f64) {
        self.now.set(self.now.get() + seconds);
    }
}

impl WallClock for ManualClock {
    fn now(&self) -> f64 {
        self.now.get()
    }
}

/// A hand-cranked wall clock that is `Send + Sync`, for deterministic
/// tests of the *threaded* drivers (`run_realtime_clocked` spawns scoped
/// workers that read the clock concurrently). Time is stored as `f64`
/// bits in an atomic; clones share the same underlying time.
#[derive(Debug, Clone, Default)]
pub struct SharedManualClock {
    bits: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl SharedManualClock {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, seconds: f64) {
        self.bits
            .store(seconds.to_bits(), std::sync::atomic::Ordering::SeqCst);
    }

    pub fn advance(&self, seconds: f64) {
        self.set(self.now() + seconds);
    }
}

impl WallClock for SharedManualClock {
    fn now(&self) -> f64 {
        f64::from_bits(self.bits.load(std::sync::atomic::Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{alps_node, single_gh200};

    fn counts(flops: f64) -> KernelCounts {
        KernelCounts {
            flops,
            ..Default::default()
        }
    }

    #[test]
    fn lanes_overlap_until_sync() {
        let mut clk = ModuleClock::new(single_gh200().module, 72, true);
        let tc = clk.run_cpu(&counts(1e12));
        let tg = clk.run_gpu(&counts(1e12));
        assert!(tc > tg, "CPU should be slower on equal flops");
        // overlapped: elapsed is the max, not the sum
        assert!((clk.elapsed() - tc).abs() < 1e-12);
        clk.sync();
        let (c, g) = clk.times();
        assert_eq!(c, g);
    }

    #[test]
    fn transfer_charges_both_lanes() {
        let mut clk = ModuleClock::new(single_gh200().module, 72, true);
        clk.sync();
        let t = clk.transfer(450e9 * 0.01); // 10 ms of link time
        assert!((t - 0.01 - 5e-6).abs() < 1e-9);
        let (c, g) = clk.times();
        assert_eq!(c, g);
        assert!((c - t).abs() < 1e-12);
    }

    #[test]
    fn energy_matches_hand_computation() {
        let m = single_gh200().module;
        let mut clk = ModuleClock::new(m, 72, true);
        let tg = clk.run_gpu(&counts(34e12 * 0.72)); // exactly 1 s of GPU work
        assert!((tg - 1.0).abs() < 1e-9);
        let rep = clk.report();
        let expect = (m.cpu.power(0.0) + m.gpu.power(0.0)) * 1.0 + m.gpu.active_power;
        assert!(
            (rep.energy - expect).abs() < 1e-6,
            "{} vs {expect}",
            rep.energy
        );
        assert!(rep.avg_power > m.cpu.power(0.0) + m.gpu.power(0.0));
    }

    #[test]
    fn alps_cap_throttles_gpu_when_overlapped() {
        let m = alps_node().module;
        let with_cpu = ModuleClock::new(m, 72, true).gpu_clock();
        let idle_cpu = ModuleClock::new(m, 72, false).gpu_clock();
        assert!(with_cpu < idle_cpu);
        let fewer_threads = ModuleClock::new(m, 16, true).gpu_clock();
        assert!(
            fewer_threads > with_cpu,
            "16 threads {fewer_threads} should beat 72 threads {with_cpu}"
        );
    }

    #[test]
    fn single_gh200_never_throttles() {
        let m = single_gh200().module;
        assert_eq!(ModuleClock::new(m, 72, true).gpu_clock(), 1.0);
    }

    #[test]
    fn throttled_gpu_is_slower_but_cheaper_per_second() {
        let alps = alps_node().module;
        let mut hot = ModuleClock::new(alps, 72, true);
        let mut cold = ModuleClock::new(alps, 72, false);
        let c = counts(1e13);
        let t_hot = hot.run_gpu(&c);
        let t_cold = cold.run_gpu(&c);
        assert!(t_hot > t_cold);
    }

    #[test]
    fn span_log_disabled_by_default_and_drains_when_enabled() {
        let mut clk = ModuleClock::new(single_gh200().module, 72, true);
        clk.run_gpu(&counts(1e12));
        assert!(clk.drain_spans().is_empty(), "no spans before enabling");

        clk.enable_span_log();
        let tc = clk.run_cpu(&counts(1e12));
        let tg = clk.run_gpu(&counts(1e12));
        clk.sync();
        let tx = clk.transfer(1e9);
        let spans = clk.drain_spans();
        assert_eq!(spans.len(), 3);
        // CPU span starts where the CPU lane was (0 here: the pre-enable
        // GPU work only advanced the GPU lane).
        assert_eq!(spans[0].lane, LaneKind::Cpu);
        assert!((spans[0].end - spans[0].start - tc).abs() < 1e-15);
        assert_eq!(spans[1].lane, LaneKind::Gpu);
        assert!((spans[1].end - spans[1].start - tg).abs() < 1e-15);
        // link span sits after the sync point and spans both lanes
        assert_eq!(spans[2].lane, LaneKind::Link);
        assert!((spans[2].end - spans[2].start - tx).abs() < 1e-15);
        assert!(spans[2].start >= spans[0].end.max(spans[1].end) - 1e-15);
        // drained: the log is empty but still enabled
        assert!(clk.drain_spans().is_empty());
        assert!(clk.span_log_enabled());
    }

    #[test]
    fn overlapped_lanes_yield_overlapping_spans() {
        // the Fig. 4 structure: predictor@CPU and solver@GPU both start at
        // the sync point, so their spans overlap in time
        let mut clk = ModuleClock::new(single_gh200().module, 72, true);
        clk.enable_span_log();
        clk.run_cpu(&counts(1e12));
        clk.run_gpu(&counts(1e12));
        let spans = clk.drain_spans();
        let (c, g) = (&spans[0], &spans[1]);
        assert!(c.start < g.end && g.start < c.end, "lanes did not overlap");
    }

    #[test]
    fn stall_advances_time_without_busy_or_energy() {
        let mut clk = ModuleClock::new(single_gh200().module, 72, true);
        clk.enable_span_log();
        let t = clk.stall(LaneKind::Gpu, 0.5);
        assert_eq!(t, 0.5);
        let (c, g) = clk.times();
        assert_eq!(c, 0.0, "CPU lane must not move on a GPU stall");
        assert_eq!(g, 0.5);
        let rep = clk.report();
        assert_eq!(rep.gpu_busy, 0.0, "a stall is not busy time");
        // only idle draw accrues over the stalled makespan
        let m = single_gh200().module;
        let idle = (m.cpu.power(0.0) + m.gpu.power(0.0)) * 0.5;
        assert!((rep.energy - idle).abs() < 1e-9);
        // the stall is visible on the timeline
        let spans = clk.drain_spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].lane, LaneKind::Gpu);
        assert!((spans[0].end - spans[0].start - 0.5).abs() < 1e-15);
        // a link stall blocks both lanes (after a sync, like a transfer)
        clk.sync();
        clk.stall(LaneKind::Link, 0.25);
        let (c, g) = clk.times();
        assert!((c - 0.75).abs() < 1e-15);
        assert!((g - 0.75).abs() < 1e-15);
    }

    #[test]
    fn reset_clears_timeline() {
        let mut clk = ModuleClock::new(single_gh200().module, 72, true);
        clk.run_gpu(&counts(1e12));
        clk.reset();
        assert_eq!(clk.elapsed(), 0.0);
        assert_eq!(clk.report().energy, 0.0);
    }
}
