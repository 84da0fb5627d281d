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
//! per-case seed, and the step scratch is recomputed by the first step
//! after resume. A slot whose vectors do not fit the mesh is typed
//! corruption, like a bad section CRC.
//!
//! A [`ConfigFingerprint`] of `(backend, cfg)` is stored in the header
//! section; a checkpoint restored against a different problem or run
//! configuration fails typed (and the store falls back to older files)
//! instead of silently resuming the wrong simulation.

use hetsolve_ckpt::{
    fnv1a, mix64, wire_newtype, wire_struct, CkptError, SectionReader, SectionWriter,
};
use hetsolve_fem::RandomLoadSpec;
use hetsolve_machine::{ClockState, DeviceSpec, LinkSpec, ModuleSpec, NodeSpec};

use crate::backend::Backend;
use crate::integrity::{
    CorruptionReport, IntegrityConfig, DEFAULT_BASIS_CHECK_EVERY, DEFAULT_BASIS_DEFECT_TOL,
};
use crate::methods::{keeps_history, RunConfig, RunState, StepRecord, WindowPolicy};
use crate::recovery::RecoveryEvent;
use crate::slot::CaseSlot;

/// Section tags of the run-checkpoint format.
const TAG_META: [u8; 4] = *b"META";
const TAG_SLOTS: [u8; 4] = *b"SLOT";
const TAG_ADAPTIVE: [u8; 4] = *b"ADPT";
const TAG_CLOCK: [u8; 4] = *b"CLK\0";
const TAG_RECORDS: [u8; 4] = *b"RECS";
const TAG_RECOVERIES: [u8; 4] = *b"RCVR";
/// Integrity section (corruption reports).
const TAG_INTEGRITY: [u8; 4] = *b"INTG";

/// Hash of everything that determines a run's trajectory but is *not*
/// stored in the checkpoint (it is rebuilt from `(backend, cfg)` on
/// restore). Restoring under a different fingerprint is typed corruption:
/// the snapshot describes a different simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigFingerprint(pub u64);

wire_newtype!(ConfigFingerprint(u64));

impl ConfigFingerprint {
    /// Both configs are destructured without `..`: a new field must be
    /// mixed or explicitly waved through here before this compiles.
    pub fn of(backend: &Backend, cfg: &RunConfig) -> Self {
        let RunConfig {
            method,
            node,
            cpu_threads,
            r,
            s_max,
            region_dofs,
            tol,
            window,
            n_steps,
            seed,
            load,
            // summaries only: which records `MethodSummary` averages over
            measure_from: _,
            record_surface,
            integrity,
        } = cfg;
        let RandomLoadSpec {
            n_sources,
            impulses_per_source,
            amplitude,
            active_window,
        } = load;
        let mut h = fnv1a(method.label().as_bytes());
        h = mix64(h, backend.n_dofs() as u64);
        h = mix64(h, *r as u64);
        h = mix64(h, *s_max as u64);
        h = mix64(h, *region_dofs as u64);
        h = mix64(h, tol.to_bits());
        h = mix64(
            h,
            match window {
                WindowPolicy::Adaptive => 0,
                WindowPolicy::FullWindow => 1,
            },
        );
        h = mix64(h, *n_steps as u64);
        h = mix64(h, *seed);
        h = mix64(h, *cpu_threads as u64);
        h = mix64(h, *n_sources as u64);
        h = mix64(h, impulses_per_source.to_bits());
        h = mix64(h, amplitude.to_bits());
        h = mix64(h, active_window.to_bits());
        h = mix64(h, *record_surface as u64);
        h = mix_node(h, node);
        let IntegrityConfig { detect } = integrity;
        h = mix64(h, *detect as u64);
        // The basis audit's period and bound, as configured by `detect`:
        // recorded checkpoints and fingerprints were hashed with both.
        let basis_check_every = if *detect {
            DEFAULT_BASIS_CHECK_EVERY
        } else {
            0
        };
        h = mix64(h, basis_check_every as u64);
        h = mix64(h, DEFAULT_BASIS_DEFECT_TOL.to_bits());
        ConfigFingerprint(h)
    }
}

/// Fold the node model into `h`: its rates price every modeled phase, and
/// modeled time steers the adaptive window. Names are labels, not rates.
fn mix_node(h: u64, node: &NodeSpec) -> u64 {
    let NodeSpec {
        name: _,
        module,
        modules_per_node,
        interconnect_bw,
        interconnect_latency,
    } = node;
    let ModuleSpec {
        name: _,
        cpu,
        gpu,
        link: LinkSpec { bw, latency },
        power_cap,
    } = module;
    let mut h = mix64(h, *modules_per_node as u64);
    for rate in [
        interconnect_bw,
        interconnect_latency,
        bw,
        latency,
        power_cap,
    ] {
        h = mix64(h, rate.to_bits());
    }
    for device in [cpu, gpu] {
        let DeviceSpec {
            name: _,
            flops_peak,
            mem_bw,
            mem_capacity,
            n_cores,
            eff_flops,
            eff_stream,
            txn_rate,
            idle_power,
            active_power,
        } = device;
        h = mix64(h, *mem_capacity);
        h = mix64(h, *n_cores as u64);
        for rate in [
            flops_peak,
            mem_bw,
            eff_flops,
            eff_stream,
            txn_rate,
            idle_power,
            active_power,
        ] {
            h = mix64(h, rate.to_bits());
        }
    }
    h
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
    /// The data-driven correction history as stored, `f32`; empty for a
    /// method that keeps none.
    pub dd_hist: Vec<Vec<f32>>,
    pub waveform: Vec<Vec<f64>>,
}

wire_struct!(SlotState {
    seed,
    n_steps,
    step,
    u,
    v,
    a,
    adams_hist,
    dd_hist,
    waveform,
});

impl SlotState {
    /// Does this state fit a mesh of `n_dofs` unknowns? A CRC-valid image
    /// of another mesh, or a hostile one, can carry vectors or history
    /// columns of any length; restoring one would panic in the predictor
    /// or the kernels, so it is [`CkptError::Corrupt`] instead. So is a
    /// newest Adams column that is not bitwise `v`: a slot keeps only the
    /// columns before it and restores `v` in its place
    /// ([`CaseSlot::from_state`]), so the image would not round-trip.
    pub fn check(&self, n_dofs: usize) -> Result<(), CkptError> {
        let vectors = [("u", &self.u), ("v", &self.v), ("a", &self.a)].into_iter();
        let mut lens = (vectors.chain(self.adams_hist.iter().map(|c| ("Adams history", c))))
            .map(|(what, c)| (what, c.len()))
            .chain(self.dd_hist.iter().map(|c| ("predictor history", c.len())));
        if let Some((what, len)) = lens.find(|&(_, len)| len != n_dofs) {
            return Err(CkptError::Corrupt(format!(
                "slot {what} column of {len} values on a {n_dofs}-DOF mesh"
            )));
        }
        let differs = |c: &Vec<f64>| {
            c.iter()
                .zip(&self.v)
                .any(|(x, v)| x.to_bits() != v.to_bits())
        };
        if self.adams_hist.last().is_some_and(differs) {
            return Err(CkptError::Corrupt(
                "slot newest Adams history column is not its velocity".into(),
            ));
        }
        Ok(())
    }
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
        let RunCheckpoint {
            fingerprint,
            step,
            slots,
            adaptive_s,
            adaptive_unit_cost,
            clock,
            records,
            recoveries,
            corruptions,
        } = self;
        let mut w = SectionWriter::new();
        w.put(TAG_META, &(*fingerprint, *step));
        w.put(TAG_SLOTS, slots);
        w.put(TAG_ADAPTIVE, &(*adaptive_s, *adaptive_unit_cost));
        w.put(TAG_CLOCK, clock);
        w.put(TAG_RECORDS, records);
        w.put(TAG_RECOVERIES, recoveries);
        w.put(TAG_INTEGRITY, corruptions);
        w.finish()
    }

    /// Parse and validate a snapshot. A fingerprint mismatch is typed
    /// corruption (the snapshot belongs to a different run), so
    /// `CheckpointStore::load_latest_valid` treats it as a skip and keeps
    /// scanning older files.
    pub fn from_bytes(bytes: &[u8], expect: ConfigFingerprint) -> Result<Self, CkptError> {
        let r = SectionReader::parse(bytes)?;
        let (fingerprint, step): (ConfigFingerprint, _) = r.get(TAG_META)?;
        if fingerprint != expect {
            return Err(CkptError::Corrupt(format!(
                "config fingerprint mismatch: checkpoint {:#018x}, run {:#018x}",
                fingerprint.0, expect.0
            )));
        }
        let (adaptive_s, adaptive_unit_cost) = r.get(TAG_ADAPTIVE)?;
        Ok(RunCheckpoint {
            fingerprint,
            step,
            slots: r.get(TAG_SLOTS)?,
            adaptive_s,
            adaptive_unit_cost,
            clock: r.get(TAG_CLOCK)?,
            records: r.get(TAG_RECORDS)?,
            recoveries: r.get(TAG_RECOVERIES)?,
            corruptions: r.get(TAG_INTEGRITY)?,
        })
    }

    /// Rebuild the run state this snapshot was captured from. The returned
    /// state continues bitwise-identically to the uninterrupted run; a slot
    /// that does not fit `backend`'s mesh, or that carries a predictor
    /// history where `cfg`'s method keeps none, is [`CkptError::Corrupt`].
    pub(crate) fn into_state(
        self,
        backend: &Backend,
        cfg: &RunConfig,
    ) -> Result<RunState, CkptError> {
        for s in &self.slots {
            s.check(backend.n_dofs())?;
            if !s.dd_hist.is_empty() && !keeps_history(cfg) {
                return Err(CkptError::Corrupt(format!(
                    "slot predictor history under {}, which keeps none",
                    cfg.method.label()
                )));
            }
        }
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
        Ok(st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_fem::FemProblem;
    use hetsolve_machine::single_gh200;
    use hetsolve_mesh::{GroundModelSpec, InterfaceShape};
    use hetsolve_predictor::PredictorScratch;

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
        let mut other = cfg.clone();
        other.tol *= 10.0;
        assert_ne!(fp, ConfigFingerprint::of(&backend, &other));
        // the node's rates steer the adaptive window; the integrity
        // configuration decides what is scrubbed and rolled back
        let mut other = cfg.clone();
        other.node = hetsolve_machine::alps_node();
        assert_ne!(fp, ConfigFingerprint::of(&backend, &other));
        let mut other = cfg.clone();
        other.node.module.gpu.eff_flops *= 0.5;
        assert_ne!(fp, ConfigFingerprint::of(&backend, &other));
        let mut other = cfg;
        other.integrity = IntegrityConfig::disabled();
        assert_ne!(fp, ConfigFingerprint::of(&backend, &other));
    }

    /// Run `cfg` for `steps` step boundaries.
    fn stepped(backend: &Backend, cfg: &RunConfig, steps: usize) -> RunState {
        let mut st = RunState::new(backend, cfg);
        let ctx = crate::methods::RunCtx::new(backend, cfg).unwrap();
        let mut tracer = crate::trace::StepTracer::disabled();
        let mut faults = hetsolve_fault::FaultPlan::default();
        for _ in 0..steps {
            st.step_once(backend, cfg, &mut tracer, &mut faults, &ctx)
                .unwrap();
        }
        st
    }

    #[test]
    fn snapshot_round_trips_bitwise() {
        let (backend, cfg) = small();
        let fp = ConfigFingerprint::of(&backend, &cfg);
        let st = stepped(&backend, &cfg, 2);

        let snap = RunCheckpoint::capture(&st, fp);
        let bytes = snap.to_bytes();
        let back = RunCheckpoint::from_bytes(&bytes, fp).unwrap();
        assert_eq!(snap, back);
        let restored = back.into_state(&backend, &cfg).unwrap();
        assert_eq!(restored.step, st.step);
        for (a, b) in restored.cases.iter().zip(&st.cases) {
            assert_eq!(a.displacement(), b.displacement());
        }
    }

    /// A snapshot whose section CRCs are valid but whose slot columns do
    /// not fit the mesh is typed corruption on restore, not a panic.
    #[test]
    fn slot_of_the_wrong_length_is_typed_corruption() {
        let (backend, cfg) = small();
        let fp = ConfigFingerprint::of(&backend, &cfg);
        let st = stepped(&backend, &cfg, 3);
        let clean = RunCheckpoint::capture(&st, fp);
        let cuts: [fn(&mut SlotState); 4] = [
            |s| s.v.truncate(s.v.len() - 1),
            |s| s.u.push(1.0),
            |s| s.adams_hist[1].truncate(3),
            |s| s.dd_hist[0].clear(),
        ];
        for (i, cut) in cuts.into_iter().enumerate() {
            let mut snap = clean.clone();
            cut(&mut snap.slots[1]);
            let back = RunCheckpoint::from_bytes(&snap.to_bytes(), fp).expect("CRC-valid");
            let err = back.into_state(&backend, &cfg).err();
            assert!(
                matches!(err, Some(CkptError::Corrupt(_))),
                "cut {i}: {err:?}"
            );
        }
        assert!(clean.into_state(&backend, &cfg).is_ok());
    }

    /// A slot rebuilt from its checkpoint image, where the predictor
    /// history travels as `f32` bit patterns, builds bitwise the guess
    /// the original builds, at every window its history holds.
    #[test]
    fn slot_restored_from_its_f32_image_predicts_bitwise() {
        let (backend, cfg) = small();
        let fp = ConfigFingerprint::of(&backend, &cfg);
        let st = stepped(&backend, &cfg, 4);
        let bytes = RunCheckpoint::capture(&st, fp).to_bytes();
        let restored = RunCheckpoint::from_bytes(&bytes, fp)
            .unwrap()
            .into_state(&backend, &cfg)
            .unwrap();
        let n = backend.n_dofs();
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        for (a, b) in st.cases.iter().zip(&restored.cases) {
            assert_eq!(a.available_s(), 3);
            assert_eq!(b.available_s(), a.available_s());
            let scratch = &mut PredictorScratch::default();
            for s in 1..=a.available_s() {
                let mut got = [(); 2].map(|_| [vec![0.0; n], vec![0.0; n], vec![0.0; n]]);
                for (slot, [guess, ab, corr]) in [a, b].into_iter().zip(&mut got) {
                    assert_eq!(slot.prepare_guess(&backend, s, guess, corr, scratch), s);
                    slot.ab_guess(&backend, ab);
                }
                let [[ga, aa, ca], [gb, ab, cb]] = &got;
                assert_eq!(bits(gb), bits(ga), "guess at s = {s}");
                assert_eq!((bits(ab), bits(cb)), (bits(aa), bits(ca)), "s = {s}");
            }
        }
    }

    /// The newest Adams column of an image is the slot's velocity, which
    /// a restore takes from `v`: one that differs by a bit, CRC-valid
    /// image or not, is typed corruption rather than dropped unseen.
    #[test]
    fn newest_adams_column_that_is_not_v_is_typed_corruption() {
        let (backend, cfg) = small();
        let fp = ConfigFingerprint::of(&backend, &cfg);
        let clean = RunCheckpoint::capture(&stepped(&backend, &cfg, 3), fp);
        for s in &clean.slots {
            assert_eq!(s.adams_hist.len(), 3);
            assert_eq!(s.adams_hist.last(), Some(&s.v));
        }
        let flips: [fn(&mut SlotState); 2] = [
            |s| s.adams_hist[2][7] = f64::from_bits(s.adams_hist[2][7].to_bits() ^ 1),
            |s| s.v[0] = f64::from_bits(s.v[0].to_bits() ^ (1 << 63)),
        ];
        for (i, flip) in flips.into_iter().enumerate() {
            let mut snap = clean.clone();
            flip(&mut snap.slots[0]);
            let back = RunCheckpoint::from_bytes(&snap.to_bytes(), fp).expect("CRC-valid");
            let err = back.into_state(&backend, &cfg).err();
            assert!(
                matches!(&err, Some(CkptError::Corrupt(m)) if m.contains("Adams")),
                "flip {i}: {err:?}"
            );
        }
        // before its first step a slot carries no Adams column at all
        let fresh = RunCheckpoint::capture(&stepped(&backend, &cfg, 0), fp);
        assert!(fresh.slots.iter().all(|s| s.adams_hist.is_empty()));
        assert!(fresh.into_state(&backend, &cfg).is_ok());
        assert!(clean.into_state(&backend, &cfg).is_ok());
    }

    /// The serial schedule keeps no predictor history: its slots build and
    /// store none, its image carries none, and an image that does carry
    /// one is typed corruption on restore.
    #[test]
    fn a_serial_method_keeps_no_history() {
        let (backend, mut cfg) = small();
        for method in [MethodKind::CrsCgCpu, MethodKind::CrsCgGpu] {
            cfg.method = method;
            let fp = ConfigFingerprint::of(&backend, &cfg);
            let st = stepped(&backend, &cfg, 3);
            assert!(st
                .cases
                .iter()
                .all(|c| c.dd.is_none() && c.available_s() == 0));
            let clean = RunCheckpoint::capture(&st, fp);
            assert!(clean.slots.iter().all(|s| s.dd_hist.is_empty()));
            let mut forged = clean.clone();
            forged.slots[0].dd_hist = vec![vec![0.0; backend.n_dofs()]];
            let back = RunCheckpoint::from_bytes(&forged.to_bytes(), fp).expect("CRC-valid");
            let err = back.into_state(&backend, &cfg).err();
            assert!(matches!(err, Some(CkptError::Corrupt(_))), "{err:?}");
            assert!(clean.into_state(&backend, &cfg).is_ok());
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
