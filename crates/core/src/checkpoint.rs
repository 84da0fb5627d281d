//! Crash-consistent snapshots of a run of any method.
//!
//! [`RunCheckpoint`] captures the full mutable state of the one step
//! driver's `RunState` (`crate::methods`) at a step boundary — per-case
//! Newmark vectors, both predictor histories, the adaptive-window
//! controller, the modeled clock, and every record/recovery accumulated so
//! far — in the sectioned, checksummed `hetsolve-ckpt` format. The format
//! does not know the method: `SLOT` stores however many slots the method's
//! layout has (1, 2 or 2r) and the fingerprint mixes the method label.
//! Restoring rebuilds a `RunState` that continues *bitwise-identically* to
//! the uninterrupted run: the random load regenerates from the stored
//! per-case seed, and the step scratch is recomputed by the first
//! `prepare_step` after resume.
//!
//! A [`ConfigFingerprint`] of `(backend, cfg)` is stored in the header
//! section; a checkpoint restored against a different problem or run
//! configuration fails typed (and the store falls back to older files)
//! instead of silently resuming the wrong simulation.

use hetsolve_ckpt::{fnv1a, mix64, CkptError, Dec, Enc, SectionReader, SectionWriter};
use hetsolve_machine::ClockState;
use hetsolve_obs::Termination;

use crate::backend::Backend;
use crate::integrity::{CorruptTarget, CorruptionAction, CorruptionReport};
use crate::methods::{RunConfig, RunState, StepRecord, WindowPolicy};
use crate::recovery::{GuessSource, RecoveryEvent};
use crate::slot::CaseSlot;

/// Section tags of the run-checkpoint format.
const TAG_META: [u8; 4] = *b"META";
const TAG_SLOTS: [u8; 4] = *b"SLOT";
const TAG_ADAPTIVE: [u8; 4] = *b"ADPT";
const TAG_CLOCK: [u8; 4] = *b"CLK\0";
const TAG_RECORDS: [u8; 4] = *b"RECS";
const TAG_RECOVERIES: [u8; 4] = *b"RCVR";
/// Integrity section (corruption reports) — optional for backward
/// compatibility: checkpoints written before the SDC defense simply have
/// no reports.
const TAG_INTEGRITY: [u8; 4] = *b"INTG";

/// Hash of everything that determines a run's trajectory but is *not*
/// stored in the checkpoint (it is rebuilt from `(backend, cfg)` on
/// restore). Restoring under a different fingerprint is typed corruption:
/// the snapshot describes a different simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigFingerprint(pub u64);

impl ConfigFingerprint {
    pub fn of(backend: &Backend, cfg: &RunConfig) -> Self {
        let mut h = fnv1a(cfg.method.label().as_bytes());
        h = mix64(h, backend.n_dofs() as u64);
        h = mix64(h, cfg.r as u64);
        h = mix64(h, cfg.s_max as u64);
        h = mix64(h, cfg.region_dofs as u64);
        h = mix64(h, cfg.tol.to_bits());
        h = mix64(
            h,
            match cfg.window {
                WindowPolicy::Adaptive => 0,
                WindowPolicy::FullWindow => 1,
            },
        );
        h = mix64(h, cfg.n_steps as u64);
        h = mix64(h, cfg.seed);
        h = mix64(h, cfg.cpu_threads as u64);
        h = mix64(h, cfg.load.n_sources as u64);
        h = mix64(h, cfg.load.impulses_per_source.to_bits());
        h = mix64(h, cfg.load.amplitude.to_bits());
        h = mix64(h, cfg.load.active_window.to_bits());
        h = mix64(h, cfg.record_surface as u64);
        ConfigFingerprint(h)
    }
}

/// Everything needed to rebuild one [`CaseSlot`] bitwise (the load
/// regenerates from `seed`; step scratch is recomputed on resume).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotState {
    pub seed: u64,
    pub n_steps: usize,
    pub step: usize,
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    pub a: Vec<f64>,
    pub adams_hist: Vec<Vec<f64>>,
    pub dd_hist: Vec<Vec<f64>>,
    pub waveform: Vec<Vec<f64>>,
}

impl SlotState {
    /// Encode into `enc` (shared with the serve-layer checkpoint).
    pub fn encode_into(&self, enc: &mut Enc) {
        enc.put_u64(self.seed);
        enc.put_usize(self.n_steps);
        enc.put_usize(self.step);
        enc.put_f64s(&self.u);
        enc.put_f64s(&self.v);
        enc.put_f64s(&self.a);
        enc.put_f64_vecs(&self.adams_hist);
        enc.put_f64_vecs(&self.dd_hist);
        enc.put_f64_vecs(&self.waveform);
    }

    /// Inverse of [`SlotState::encode_into`].
    pub fn decode_from(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok(SlotState {
            seed: dec.u64()?,
            n_steps: dec.usize_()?,
            step: dec.usize_()?,
            u: dec.f64s()?,
            v: dec.f64s()?,
            a: dec.f64s()?,
            adams_hist: dec.f64_vecs()?,
            dd_hist: dec.f64_vecs()?,
            waveform: dec.f64_vecs()?,
        })
    }
}

fn encode_record(enc: &mut Enc, r: &StepRecord) {
    enc.put_usize(r.step);
    enc.put_f64(r.step_time_per_case);
    enc.put_f64(r.solver_time_per_case);
    enc.put_f64(r.predictor_time_per_case);
    enc.put_f64(r.transfer_time);
    enc.put_f64(r.iterations);
    enc.put_usize(r.s_used);
    enc.put_f64(r.initial_rel_res);
}

fn decode_record(dec: &mut Dec<'_>) -> Result<StepRecord, CkptError> {
    Ok(StepRecord {
        step: dec.usize_()?,
        step_time_per_case: dec.f64()?,
        solver_time_per_case: dec.f64()?,
        predictor_time_per_case: dec.f64()?,
        transfer_time: dec.f64()?,
        iterations: dec.f64()?,
        s_used: dec.usize_()?,
        initial_rel_res: dec.f64()?,
    })
}

/// Encode one [`RecoveryEvent`] (shared with the serve-layer checkpoint).
pub fn encode_recovery_event(enc: &mut Enc, ev: &RecoveryEvent) {
    enc.put_usize(ev.step);
    enc.put_opt_u64(ev.case.map(|c| c as u64));
    enc.put_usize(ev.set);
    enc.put_u8(ev.failed.code());
    enc.put_u8(ev.recovered_with.code());
    enc.put_usize(ev.attempts);
}

/// Decode one [`RecoveryEvent`]; unknown wire codes are typed corruption.
pub fn decode_recovery_event(dec: &mut Dec<'_>) -> Result<RecoveryEvent, CkptError> {
    let step = dec.usize_()?;
    let case = dec.opt_u64()?.map(|c| c as usize);
    let set = dec.usize_()?;
    let failed = Termination::from_code(dec.u8()?)
        .ok_or_else(|| CkptError::Corrupt("unknown termination code".into()))?;
    let recovered_with = GuessSource::from_code(dec.u8()?)
        .ok_or_else(|| CkptError::Corrupt("unknown guess-source code".into()))?;
    let attempts = dec.usize_()?;
    Ok(RecoveryEvent {
        step,
        case,
        set,
        failed,
        recovered_with,
        attempts,
    })
}

/// Encode one [`CorruptionReport`] (shared with the serve-layer
/// checkpoint).
pub fn encode_corruption_report(enc: &mut Enc, rep: &CorruptionReport) {
    enc.put_usize(rep.step);
    enc.put_opt_u64(rep.case.map(|c| c as u64));
    enc.put_u8(rep.target.code());
    enc.put_u8(rep.action.code());
}

/// Decode one [`CorruptionReport`]; unknown wire codes are typed
/// corruption.
pub fn decode_corruption_report(dec: &mut Dec<'_>) -> Result<CorruptionReport, CkptError> {
    let step = dec.usize_()?;
    let case = dec.opt_u64()?.map(|c| c as usize);
    let target = CorruptTarget::from_code(dec.u8()?)
        .ok_or_else(|| CkptError::Corrupt("unknown corruption-target code".into()))?;
    let action = CorruptionAction::from_code(dec.u8()?)
        .ok_or_else(|| CkptError::Corrupt("unknown corruption-action code".into()))?;
    Ok(CorruptionReport {
        step,
        case,
        target,
        action,
    })
}

/// Encode one [`ClockState`] (shared with the serve-layer checkpoint).
pub fn encode_clock_state(enc: &mut Enc, cs: &ClockState) {
    enc.put_f64(cs.cpu_time);
    enc.put_f64(cs.cpu_busy);
    enc.put_f64(cs.cpu_busy_energy);
    enc.put_f64(cs.gpu_time);
    enc.put_f64(cs.gpu_busy);
    enc.put_f64(cs.gpu_busy_energy);
}

/// Decode one [`ClockState`].
pub fn decode_clock_state(dec: &mut Dec<'_>) -> Result<ClockState, CkptError> {
    Ok(ClockState {
        cpu_time: dec.f64()?,
        cpu_busy: dec.f64()?,
        cpu_busy_energy: dec.f64()?,
        gpu_time: dec.f64()?,
        gpu_busy: dec.f64()?,
        gpu_busy_energy: dec.f64()?,
    })
}

/// One crash-consistent snapshot of a run (any method) at a step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    pub fingerprint: ConfigFingerprint,
    /// Next step boundary the resumed run executes.
    pub step: usize,
    pub slots: Vec<SlotState>,
    pub adaptive_s: usize,
    pub adaptive_unit_cost: Option<f64>,
    pub clock: ClockState,
    pub records: Vec<StepRecord>,
    pub recoveries: Vec<RecoveryEvent>,
    pub corruptions: Vec<CorruptionReport>,
}

impl RunCheckpoint {
    /// Snapshot `st` as it stands at a step boundary.
    pub(crate) fn capture(st: &RunState, fingerprint: ConfigFingerprint) -> Self {
        let (adaptive_s, adaptive_unit_cost) = st.adaptive.state();
        RunCheckpoint {
            fingerprint,
            step: st.step,
            slots: st.cases.iter().map(CaseSlot::state).collect(),
            adaptive_s,
            adaptive_unit_cost,
            clock: st.clock.state(),
            records: st.records.clone(),
            recoveries: st.recoveries.clone(),
            corruptions: st.corruptions.clone(),
        }
    }

    /// Serialize into the sectioned `hetsolve-ckpt` format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SectionWriter::new();
        let mut meta = Enc::new();
        meta.put_u64(self.fingerprint.0);
        meta.put_usize(self.step);
        w.section(TAG_META, &meta.into_bytes());

        let mut slots = Enc::new();
        slots.put_usize(self.slots.len());
        for s in &self.slots {
            s.encode_into(&mut slots);
        }
        w.section(TAG_SLOTS, &slots.into_bytes());

        let mut adpt = Enc::new();
        adpt.put_usize(self.adaptive_s);
        adpt.put_opt_f64(self.adaptive_unit_cost);
        w.section(TAG_ADAPTIVE, &adpt.into_bytes());

        let mut clk = Enc::new();
        encode_clock_state(&mut clk, &self.clock);
        w.section(TAG_CLOCK, &clk.into_bytes());

        let mut recs = Enc::new();
        recs.put_usize(self.records.len());
        for r in &self.records {
            encode_record(&mut recs, r);
        }
        w.section(TAG_RECORDS, &recs.into_bytes());

        let mut rcvr = Enc::new();
        rcvr.put_usize(self.recoveries.len());
        for ev in &self.recoveries {
            encode_recovery_event(&mut rcvr, ev);
        }
        w.section(TAG_RECOVERIES, &rcvr.into_bytes());

        let mut intg = Enc::new();
        intg.put_usize(self.corruptions.len());
        for rep in &self.corruptions {
            encode_corruption_report(&mut intg, rep);
        }
        w.section(TAG_INTEGRITY, &intg.into_bytes());
        w.finish()
    }

    /// Parse and validate a snapshot. A fingerprint mismatch is typed
    /// corruption (the snapshot belongs to a different run), so
    /// `CheckpointStore::load_latest_valid` treats it as a skip and keeps
    /// scanning older files.
    pub fn from_bytes(bytes: &[u8], expect: ConfigFingerprint) -> Result<Self, CkptError> {
        let r = SectionReader::parse(bytes)?;
        let mut meta = Dec::new(r.section(TAG_META)?);
        let fingerprint = ConfigFingerprint(meta.u64()?);
        let step = meta.usize_()?;
        meta.finish()?;
        if fingerprint != expect {
            return Err(CkptError::Corrupt(format!(
                "config fingerprint mismatch: checkpoint {:#018x}, run {:#018x}",
                fingerprint.0, expect.0
            )));
        }

        let mut sd = Dec::new(r.section(TAG_SLOTS)?);
        let n_slots = sd.usize_()?;
        let mut slots = Vec::with_capacity(n_slots.min(1 << 16));
        for _ in 0..n_slots {
            slots.push(SlotState::decode_from(&mut sd)?);
        }
        sd.finish()?;

        let mut ad = Dec::new(r.section(TAG_ADAPTIVE)?);
        let adaptive_s = ad.usize_()?;
        let adaptive_unit_cost = ad.opt_f64()?;
        ad.finish()?;

        let mut cd = Dec::new(r.section(TAG_CLOCK)?);
        let clock = decode_clock_state(&mut cd)?;
        cd.finish()?;

        let mut rd = Dec::new(r.section(TAG_RECORDS)?);
        let n_recs = rd.usize_()?;
        let mut records = Vec::with_capacity(n_recs.min(1 << 20));
        for _ in 0..n_recs {
            records.push(decode_record(&mut rd)?);
        }
        rd.finish()?;

        let mut vd = Dec::new(r.section(TAG_RECOVERIES)?);
        let n_rcv = vd.usize_()?;
        let mut recoveries = Vec::with_capacity(n_rcv.min(1 << 20));
        for _ in 0..n_rcv {
            recoveries.push(decode_recovery_event(&mut vd)?);
        }
        vd.finish()?;

        // INTG is optional: pre-SDC checkpoints restore with no reports
        let mut corruptions = Vec::new();
        if r.has(TAG_INTEGRITY) {
            let mut id = Dec::new(r.section(TAG_INTEGRITY)?);
            let n_intg = id.usize_()?;
            corruptions.reserve(n_intg.min(1 << 20));
            for _ in 0..n_intg {
                corruptions.push(decode_corruption_report(&mut id)?);
            }
            id.finish()?;
        }

        Ok(RunCheckpoint {
            fingerprint,
            step,
            slots,
            adaptive_s,
            adaptive_unit_cost,
            clock,
            records,
            recoveries,
            corruptions,
        })
    }

    /// Rebuild the run state this snapshot was captured from. The returned
    /// state continues bitwise-identically to the uninterrupted run.
    pub(crate) fn into_state(self, backend: &Backend, cfg: &RunConfig) -> RunState {
        let mut st = RunState::new(backend, cfg);
        st.cases = self
            .slots
            .iter()
            .map(|s| CaseSlot::from_state(backend, cfg, s))
            .collect();
        st.clock.restore_state(&self.clock);
        st.adaptive
            .restore_state(self.adaptive_s, self.adaptive_unit_cost);
        st.records = self.records;
        st.recoveries = self.recoveries;
        st.corruptions = self.corruptions;
        st.step = self.step;
        st
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_fem::FemProblem;
    use hetsolve_machine::single_gh200;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};

    use crate::methods::MethodKind;

    fn small() -> (Backend, RunConfig) {
        let spec = GroundModelSpec::paper_like(3, 3, 2, InterfaceShape::Stratified);
        let backend = Backend::new(FemProblem::paper_like(&spec), true, false);
        let mut cfg = RunConfig::new(MethodKind::EbeMcgCpuGpu, single_gh200(), 4);
        cfg.r = 2;
        cfg.s_max = 4;
        cfg.region_dofs = 64;
        (backend, cfg)
    }

    #[test]
    fn fingerprint_tracks_config() {
        let (backend, cfg) = small();
        let fp = ConfigFingerprint::of(&backend, &cfg);
        assert_eq!(fp, ConfigFingerprint::of(&backend, &cfg), "deterministic");
        let mut other = cfg.clone();
        other.seed += 1;
        assert_ne!(fp, ConfigFingerprint::of(&backend, &other));
        let mut other = cfg;
        other.tol *= 10.0;
        assert_ne!(fp, ConfigFingerprint::of(&backend, &other));
    }

    #[test]
    fn snapshot_round_trips_bitwise() {
        let (backend, cfg) = small();
        let fp = ConfigFingerprint::of(&backend, &cfg);
        let mut st = RunState::new(&backend, &cfg);
        let ctx = crate::methods::RunCtx::new(&backend, &cfg).unwrap();
        let mut tracer = crate::trace::StepTracer::disabled();
        let mut faults = hetsolve_fault::NoopFaults;
        st.step_once(&backend, &cfg, &mut tracer, &mut faults, &ctx)
            .unwrap();
        st.step_once(&backend, &cfg, &mut tracer, &mut faults, &ctx)
            .unwrap();

        let snap = RunCheckpoint::capture(&st, fp);
        let bytes = snap.to_bytes();
        let back = RunCheckpoint::from_bytes(&bytes, fp).unwrap();
        assert_eq!(snap, back);
        let restored = back.into_state(&backend, &cfg);
        assert_eq!(restored.step, st.step);
        for (a, b) in restored.cases.iter().zip(&st.cases) {
            assert_eq!(a.displacement(), b.displacement());
        }
    }

    #[test]
    fn wrong_fingerprint_is_typed_corruption() {
        let (backend, cfg) = small();
        let fp = ConfigFingerprint::of(&backend, &cfg);
        let st = RunState::new(&backend, &cfg);
        let bytes = RunCheckpoint::capture(&st, fp).to_bytes();
        let err = RunCheckpoint::from_bytes(&bytes, ConfigFingerprint(fp.0 ^ 1)).unwrap_err();
        assert!(matches!(err, CkptError::Corrupt(_)), "{err}");
    }
}
