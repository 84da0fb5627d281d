//! # hetsolve-fault
//!
//! Deterministic fault injection for the `hetsolve` predictor–solver
//! pipeline. The paper's safety argument is that the data-driven initial
//! guess may be arbitrarily wrong because the CG solver refines it to the
//! same tolerance either way; this crate supplies the adversary that puts
//! the claim under test. A seeded [`FaultPlan`] schedules
//!
//! * guess corruption (NaN a fraction of entries, or scale them),
//! * snapshot poisoning (the predictor's correction history),
//! * dropped or delayed modeled halo exchanges,
//! * stalled device lanes on the modeled [`ModuleClock`] timeline,
//! * forced CG iteration-cap exhaustion,
//! * crash points at durable-run step boundaries and torn checkpoint
//!   writes (both one-shot: they fire once, so a resumed run proceeds),
//!
//! and every driver asks it one question: [`FaultPlan::inject`] at a
//! [`FaultSite`], the coordinates the driver holds at that point. A plan
//! with no entries is "no faults" — every query answers `None` — and the
//! drivers run it when nobody hands them one (bitwise neutrality is
//! asserted by `tests/fault_suite.rs`).
//!
//! Adding a fault is one [`FaultKind`] variant (what it does), one
//! [`FaultSite`] variant if no existing site fits, and one arm of
//! `FaultRecord::site` (where it fires); `FaultKind::one_shot` says
//! whether it fires once.
//!
//! Determinism: every random choice comes from an internal splitmix64
//! stream keyed by `(plan seed, step, case)`, so one plan replays the same
//! faults bit-for-bit across runs, methods and machines — a failing fault
//! run is always reproducible from its seed.
//!
//! [`ModuleClock`]: https://docs.rs/hetsolve-machine

#![forbid(unsafe_code)]

/// Which modeled device lane a [`LaneFault`] stalls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLane {
    Cpu,
    Gpu,
}

/// Corruption applied to a vector (an initial guess or a predictor
/// snapshot). `Copy`, so drivers can query a fault on one thread and apply
/// it on another.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VectorFault {
    /// Overwrite a deterministic ~`frac` fraction of entries with NaN
    /// (at least one entry is always hit). `seed` fixes the pattern.
    Nan { frac: f64, seed: u64 },
    /// Multiply every entry by `factor` — a finite, undetectable
    /// perturbation that degrades the guess without tripping NaN guards.
    Scale { factor: f64 },
}

impl VectorFault {
    /// Apply the corruption in place.
    pub fn apply(&self, v: &mut [f64]) {
        if v.is_empty() {
            return;
        }
        match *self {
            VectorFault::Nan { frac, seed } => {
                let mut state = seed;
                let mut hit = false;
                for x in v.iter_mut() {
                    if unit_f64(splitmix64(&mut state)) < frac {
                        *x = f64::NAN;
                        hit = true;
                    }
                }
                if !hit {
                    let idx = (seed % v.len() as u64) as usize;
                    v[idx] = f64::NAN;
                }
            }
            VectorFault::Scale { factor } => {
                for x in v.iter_mut() {
                    *x *= factor;
                }
            }
        }
    }
}

/// Which state vector of a case a [`FaultKind::StateFlip`] corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StateField {
    /// Displacement `u`.
    U,
    /// Velocity `v`.
    V,
    /// Acceleration `a`.
    A,
}

/// A single-bit corruption of one `f64` word — the atom of silent data
/// corruption. The word index and bit position are derived from `seed`,
/// so the same plan flips the same bit across runs; the flip is its own
/// inverse, which the detection tests exploit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitFlip {
    pub seed: u64,
}

impl BitFlip {
    /// `(word index, bit position)` this flip hits in a buffer of `words`
    /// `f64`s; `None` for an empty buffer. Bits 0–51 land in the
    /// mantissa, 52–62 in the exponent, 63 in the sign — the modulus
    /// walks all of them as seeds vary.
    pub fn target(&self, words: usize) -> Option<(usize, u32)> {
        if words == 0 {
            return None;
        }
        let idx = ((self.seed >> 6) % words as u64) as usize;
        let bit = (self.seed & 63) as u32;
        Some((idx, bit))
    }

    /// Flip the targeted bit in place; returns the `(word, bit)` hit.
    pub fn apply(&self, v: &mut [f64]) -> Option<(usize, u32)> {
        let (idx, bit) = self.target(v.len())?;
        v[idx] = f64::from_bits(v[idx].to_bits() ^ (1u64 << bit));
        Some((idx, bit))
    }

    /// [`Self::apply`] on an `f32` buffer: the same word, a bit drawn from
    /// 0–31 (0–22 mantissa, 23–30 exponent, 31 sign).
    pub fn apply_f32(&self, v: &mut [f32]) -> Option<(usize, u32)> {
        let (idx, bit) = self.target(v.len())?;
        let bit = bit & 31;
        v[idx] = f32::from_bits(v[idx].to_bits() ^ (1u32 << bit));
        Some((idx, bit))
    }
}

/// Failure mode of one modeled halo exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExchangeFault {
    /// The exchange never happens (zero bytes move, zero time charged).
    Drop,
    /// The exchange takes `factor`× the modeled time (link congestion).
    Delay { factor: f64 },
}

/// Stall one device lane of the modeled timeline for `seconds` without
/// doing work (a hung kernel / OS jitter on the modeled machine).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaneFault {
    pub lane: FaultLane,
    pub seconds: f64,
}

/// Fault injected into the serving layer's admission decision: the
/// request is turned away even though the real queue had room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionFault {
    /// Reject as if the request were malformed/incompatible.
    Reject,
    /// Shed as if the queue were at capacity (backpressure).
    Shed,
}

/// One scheduled (or injected) fault with its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    Guess {
        case: usize,
        fault: VectorFault,
    },
    Snapshot {
        case: usize,
        fault: VectorFault,
    },
    Exchange {
        set: usize,
        fault: ExchangeFault,
    },
    Lane {
        set: usize,
        fault: LaneFault,
    },
    /// Cap set `set`'s first solve attempt at `max_iter` iterations
    /// (forces max-iter exhaustion and exercises the recovery ladder;
    /// retries run with the real configuration).
    Solver {
        set: usize,
        max_iter: usize,
    },
    /// Serving-layer admission fault; `index` is the admission sequence
    /// number (the n-th `admit` call), recorded as the step.
    Admission {
        index: usize,
        fault: AdmissionFault,
    },
    /// Serving-layer eviction of in-flight request `case` at a step
    /// boundary (an operator cancel, a watchdog kill).
    Eviction {
        case: usize,
    },
    /// Process death at step boundary `step`, before the step executes
    /// (one-shot, so a resumed run replaying the boundary proceeds).
    Crash,
    /// Tear the checkpoint written with sequence number `step` down to its
    /// leading `keep_frac` of bytes — a crash mid-write on a filesystem
    /// without the atomic-rename guarantee (one-shot).
    TornWrite {
        keep_frac: f64,
    },
    /// Whole-node loss in the sharded serving cluster at tick `step`
    /// (one-shot): the node's shard, lanes and in-flight state vanish and
    /// the cluster supervisor must fail over from the peer replica.
    NodeCrash {
        node: usize,
    },
    /// Corrupt the replica of `node`'s checkpoint mirrored with sequence
    /// number `step` — keep only the leading `keep_frac` of its bytes
    /// (one-shot). The failover path must fall back past it.
    ReplicaCorrupt {
        node: usize,
        keep_frac: f64,
    },
    /// Sever the modeled interconnect between nodes `a` and `b` for the
    /// single cluster tick `step` (one-shot, symmetric): replica mirroring
    /// and work stealing across that link are suppressed for the tick.
    LinkPartition {
        a: usize,
        b: usize,
    },
    /// One tenant floods the serving layer with `count` self-admitted
    /// requests at tick `step` (one-shot): the QoS layer's typed sheds and
    /// fair-share scheduling must keep other tenants unharmed.
    TenantBurst {
        tenant: u32,
        count: u32,
    },
    /// Force the autoscaler to drain its highest lane at tick `step` even
    /// under load (one-shot): exercises the scale-down path while columns
    /// are still in flight, as decommissioning a stuck lane would.
    StuckLaneScaledown,
    /// Flip one bit of one word of `case`'s `field` state vector at the
    /// `step` boundary — a memory soft error in solver state. The
    /// integrity layer's state-guard checksum must catch it.
    StateFlip {
        case: usize,
        field: StateField,
        flip: BitFlip,
    },
    /// Flip one bit of `case`'s assembled RHS column at `step`, after
    /// assembly but before it is packed for the solve.
    RhsFlip {
        case: usize,
        flip: BitFlip,
    },
    /// Flip one bit of the immutable operator payload (EBE element data
    /// or CRS block values) as seen from step `step` onward. The ABFT
    /// operator checksum must catch it before the corrupted operator is
    /// applied.
    OperatorFlip {
        flip: BitFlip,
    },
    /// Flip one bit of `case`'s data-driven predictor history (the MGS
    /// basis source, stored as `f32`: [`BitFlip::apply_f32`]) at the `step`
    /// boundary.
    BasisFlip {
        case: usize,
        flip: BitFlip,
    },
    /// Flip one bit of the in-memory replica of `node`'s checkpoint
    /// mirrored with sequence number `step` (one-shot) — silent replica
    /// corruption, as opposed to [`FaultKind::ReplicaCorrupt`]'s torn
    /// mirror. The per-section CRC must fail the image on failover.
    ReplicaFlip {
        node: usize,
        flip: BitFlip,
    },
}

impl FaultKind {
    /// Does this fault fire once and then stay spent? Process and node
    /// deaths, torn or flipped checkpoint images, partitions, bursts and
    /// forced scale-downs are one-shot, so a resumed run or a failed-over
    /// shard replaying the same boundary proceeds; every other fault fires
    /// whenever its site is queried.
    pub(crate) fn one_shot(&self) -> bool {
        matches!(
            self,
            FaultKind::Crash
                | FaultKind::TornWrite { .. }
                | FaultKind::NodeCrash { .. }
                | FaultKind::ReplicaCorrupt { .. }
                | FaultKind::LinkPartition { .. }
                | FaultKind::TenantBurst { .. }
                | FaultKind::StuckLaneScaledown
                | FaultKind::ReplicaFlip { .. }
        )
    }
}

/// A planned fault: the step (tick, admission index or checkpoint
/// sequence) it targets plus what it does. [`FaultPlan::injected`] logs
/// the planned record itself each time it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRecord {
    pub step: usize,
    pub kind: FaultKind,
}

/// Where a driver asks whether a fault fires: the coordinates it already
/// holds at that point. Steps are the driver's step or tick boundary;
/// `seq` is a checkpoint sequence number; `set` a process set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// `case`'s initial guess at `step` (after prediction, before the solve).
    Guess { step: usize, case: usize },
    /// `case`'s correction snapshot recorded at `step`.
    Snapshot { step: usize, case: usize },
    /// Process set `set`'s modeled exchange at `step`.
    Exchange { step: usize, set: usize },
    /// A modeled device lane of process set `set` at `step`.
    Lane { step: usize, set: usize },
    /// Process set `set`'s first solve attempt at `step`.
    Solver { step: usize, set: usize },
    /// The serving layer's `index`-th admission (0-based, lifetime).
    Admission { index: usize },
    /// In-flight request `case` at serving step `step`.
    Eviction { step: usize, case: usize },
    /// Step (or server tick) boundary `step`, before it executes.
    Crash { step: usize },
    /// The run checkpoint just written with sequence number `seq`.
    TornWrite { seq: u64 },
    /// Cluster node `node` at tick `tick`, before the tick executes.
    NodeCrash { tick: usize, node: usize },
    /// The peer replica of `node`'s checkpoint just mirrored as `seq`.
    ReplicaCorrupt { node: usize, seq: u64 },
    /// The modeled link between nodes `a` and `b` (either order) at
    /// cluster tick `tick`.
    LinkPartition { tick: usize, a: usize, b: usize },
    /// The serving layer at tick `tick` (tenant flood).
    TenantBurst { tick: usize },
    /// The autoscaler at tick `tick`.
    StuckLaneScaledown { tick: usize },
    /// `case`'s state vectors at the `step` boundary, before verification.
    StateFlip { step: usize, case: usize },
    /// `case`'s assembled RHS at `step`, before the checksummed consume.
    RhsFlip { step: usize, case: usize },
    /// The run's operator payload as of `step`.
    OperatorFlip { step: usize },
    /// `case`'s predictor history at the `step` boundary.
    BasisFlip { step: usize, case: usize },
    /// The in-memory replica of `node`'s checkpoint just mirrored as `seq`.
    ReplicaFlip { node: usize, seq: u64 },
}

impl FaultSite {
    /// The site with symmetric coordinates in one order: a partitioned
    /// link is the same fault seen from either end.
    fn canonical(self) -> Self {
        match self {
            FaultSite::LinkPartition { tick, a, b } => FaultSite::LinkPartition {
                tick,
                a: a.min(b),
                b: a.max(b),
            },
            site => site,
        }
    }
}

impl FaultRecord {
    /// The one site this planned fault fires at — the matcher every query
    /// goes through.
    pub(crate) fn site(&self) -> FaultSite {
        let (step, seq, tick) = (self.step, self.step as u64, self.step);
        match self.kind {
            FaultKind::Guess { case, .. } => FaultSite::Guess { step, case },
            FaultKind::Snapshot { case, .. } => FaultSite::Snapshot { step, case },
            FaultKind::Exchange { set, .. } => FaultSite::Exchange { step, set },
            FaultKind::Lane { set, .. } => FaultSite::Lane { step, set },
            FaultKind::Solver { set, .. } => FaultSite::Solver { step, set },
            FaultKind::Admission { index, .. } => FaultSite::Admission { index },
            FaultKind::Eviction { case } => FaultSite::Eviction { step, case },
            FaultKind::Crash => FaultSite::Crash { step },
            FaultKind::TornWrite { .. } => FaultSite::TornWrite { seq },
            FaultKind::NodeCrash { node } => FaultSite::NodeCrash { tick, node },
            FaultKind::ReplicaCorrupt { node, .. } => FaultSite::ReplicaCorrupt { node, seq },
            FaultKind::LinkPartition { a, b } => FaultSite::LinkPartition { tick, a, b },
            FaultKind::TenantBurst { .. } => FaultSite::TenantBurst { tick },
            FaultKind::StuckLaneScaledown => FaultSite::StuckLaneScaledown { tick },
            FaultKind::StateFlip { case, .. } => FaultSite::StateFlip { step, case },
            FaultKind::RhsFlip { case, .. } => FaultSite::RhsFlip { step, case },
            FaultKind::OperatorFlip { .. } => FaultSite::OperatorFlip { step },
            FaultKind::BasisFlip { case, .. } => FaultSite::BasisFlip { step, case },
            FaultKind::ReplicaFlip { node, .. } => FaultSite::ReplicaFlip { node, seq },
        }
    }
}

/// A seeded, deterministic schedule of faults. Build it with the
/// `at_step`-style methods, hand it to a driver (`run_with`, a server),
/// then read back [`FaultPlan::injected`] to assert every scheduled fault
/// actually fired. `FaultPlan::default()` — no entries — is "no faults".
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    planned: Vec<FaultRecord>,
    injected: Vec<FaultRecord>,
    /// Planned entries a one-shot fault already consumed; parallel to
    /// `planned`.
    spent: Vec<bool>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Self::default()
        }
    }

    /// Derive the NaN-pattern seed for `(step, case)` — stable across runs.
    fn derive_seed(&self, step: usize, case: usize) -> u64 {
        let mut s = self
            .seed
            .wrapping_add((step as u64).wrapping_mul(0x9E3779B97F4A7C15))
            .wrapping_add((case as u64).wrapping_mul(0xD1B54A32D192ED03));
        splitmix64(&mut s)
    }

    /// Schedule `kind` at `step`.
    fn plan(mut self, step: usize, kind: FaultKind) -> Self {
        self.planned.push(FaultRecord { step, kind });
        self.spent.push(false);
        self
    }

    /// NaN ~`frac` of the entries of `case`'s initial guess at `step`.
    pub fn nan_guess(self, step: usize, case: usize, frac: f64) -> Self {
        let seed = self.derive_seed(step, case);
        let fault = VectorFault::Nan { frac, seed };
        self.plan(step, FaultKind::Guess { case, fault })
    }

    /// Scale `case`'s initial guess by `factor` at `step`.
    pub fn scale_guess(self, step: usize, case: usize, factor: f64) -> Self {
        let fault = VectorFault::Scale { factor };
        self.plan(step, FaultKind::Guess { case, fault })
    }

    /// NaN ~`frac` of `case`'s correction snapshot recorded at `step`.
    pub fn nan_snapshot(self, step: usize, case: usize, frac: f64) -> Self {
        let seed = self.derive_seed(step, case).rotate_left(17);
        let fault = VectorFault::Nan { frac, seed };
        self.plan(step, FaultKind::Snapshot { case, fault })
    }

    /// Scale `case`'s correction snapshot by `factor` at `step`.
    pub fn scale_snapshot(self, step: usize, case: usize, factor: f64) -> Self {
        let fault = VectorFault::Scale { factor };
        self.plan(step, FaultKind::Snapshot { case, fault })
    }

    /// Drop set `set`'s modeled exchange at `step`.
    pub fn drop_exchange(self, step: usize, set: usize) -> Self {
        let fault = ExchangeFault::Drop;
        self.plan(step, FaultKind::Exchange { set, fault })
    }

    /// Delay set `set`'s modeled exchange by `factor`× at `step`.
    pub fn delay_exchange(self, step: usize, set: usize, factor: f64) -> Self {
        let fault = ExchangeFault::Delay { factor };
        self.plan(step, FaultKind::Exchange { set, fault })
    }

    /// Stall a device lane of set `set` for `seconds` at `step`.
    pub fn stall_lane(self, step: usize, set: usize, lane: FaultLane, seconds: f64) -> Self {
        let fault = LaneFault { lane, seconds };
        self.plan(step, FaultKind::Lane { set, fault })
    }

    /// Cap the solver at `max_iter` iterations for set `set` at `step`.
    pub fn cap_solver(self, step: usize, set: usize, max_iter: usize) -> Self {
        self.plan(step, FaultKind::Solver { set, max_iter })
    }

    /// Reject the serving layer's `index`-th admission.
    pub fn reject_admission(self, index: usize) -> Self {
        let fault = AdmissionFault::Reject;
        self.plan(index, FaultKind::Admission { index, fault })
    }

    /// Shed the serving layer's `index`-th admission (simulated
    /// backpressure).
    pub fn shed_admission(self, index: usize) -> Self {
        let fault = AdmissionFault::Shed;
        self.plan(index, FaultKind::Admission { index, fault })
    }

    /// Evict in-flight request `case` at serving step `step`.
    pub fn evict(self, step: usize, case: usize) -> Self {
        self.plan(step, FaultKind::Eviction { case })
    }

    /// Kill the process at step boundary `step` (one-shot: fires once, so
    /// the resumed run proceeds past it).
    pub fn crash_at(self, step: usize) -> Self {
        self.plan(step, FaultKind::Crash)
    }

    /// Tear the checkpoint written with sequence number `seq` down to the
    /// leading `keep_frac` of its bytes (one-shot).
    pub fn tear_checkpoint(self, seq: u64, keep_frac: f64) -> Self {
        self.plan(seq as usize, FaultKind::TornWrite { keep_frac })
    }

    /// Kill cluster node `node` at cluster tick boundary `tick`
    /// (one-shot: the failed-over shard replays past it).
    pub fn crash_node(self, tick: usize, node: usize) -> Self {
        self.plan(tick, FaultKind::NodeCrash { node })
    }

    /// Corrupt the peer replica of `node`'s checkpoint mirrored with
    /// sequence number `seq` down to the leading `keep_frac` of its bytes
    /// (one-shot).
    pub fn corrupt_replica(self, node: usize, seq: u64, keep_frac: f64) -> Self {
        self.plan(seq as usize, FaultKind::ReplicaCorrupt { node, keep_frac })
    }

    /// Sever the modeled link between nodes `a` and `b` for cluster tick
    /// `tick` (one-shot, symmetric).
    pub fn partition_link(self, tick: usize, a: usize, b: usize) -> Self {
        self.plan(tick, FaultKind::LinkPartition { a, b })
    }

    /// Flood the server with `count` requests from `tenant` at tick `tick`
    /// (one-shot).
    pub fn tenant_burst(self, tick: usize, tenant: u32, count: u32) -> Self {
        self.plan(tick, FaultKind::TenantBurst { tenant, count })
    }

    /// Force the autoscaler to drain its highest lane at tick `tick` even
    /// under load (one-shot).
    pub fn stuck_lane_scaledown(self, tick: usize) -> Self {
        self.plan(tick, FaultKind::StuckLaneScaledown)
    }

    /// Flip one seeded bit of `case`'s `field` state vector at `step`.
    pub fn flip_state(self, step: usize, case: usize, field: StateField) -> Self {
        let flip = BitFlip {
            seed: self.derive_seed(step, case).rotate_left(29),
        };
        self.plan(step, FaultKind::StateFlip { case, field, flip })
    }

    /// Flip one seeded bit of `case`'s assembled RHS at `step`.
    pub fn flip_rhs(self, step: usize, case: usize) -> Self {
        let flip = BitFlip {
            seed: self.derive_seed(step, case).rotate_left(41),
        };
        self.plan(step, FaultKind::RhsFlip { case, flip })
    }

    /// Flip one seeded bit of the operator payload as of `step`.
    pub fn flip_operator(self, step: usize) -> Self {
        let flip = BitFlip {
            seed: self.derive_seed(step, 0).rotate_left(53),
        };
        self.plan(step, FaultKind::OperatorFlip { flip })
    }

    /// Flip one seeded bit of `case`'s predictor history at `step`.
    pub fn flip_basis(self, step: usize, case: usize) -> Self {
        let flip = BitFlip {
            seed: self.derive_seed(step, case).rotate_left(7),
        };
        self.plan(step, FaultKind::BasisFlip { case, flip })
    }

    /// Flip one seeded bit of the replica of `node`'s checkpoint mirrored
    /// with sequence number `seq` (one-shot).
    pub fn flip_replica(self, node: usize, seq: u64) -> Self {
        let flip = BitFlip {
            seed: self.derive_seed(seq as usize, node).rotate_left(13),
        };
        self.plan(seq as usize, FaultKind::ReplicaFlip { node, flip })
    }

    /// Faults scheduled in this plan.
    pub fn planned(&self) -> &[FaultRecord] {
        &self.planned
    }

    /// Faults that actually fired (the planned record, once per hit), in
    /// firing order. Fault-suite tests assert this covers the whole plan.
    pub fn injected(&self) -> &[FaultRecord] {
        &self.injected
    }

    /// True when every planned fault fired at least once.
    pub fn all_fired(&self) -> bool {
        self.planned
            .iter()
            .all(|p| self.injected.iter().any(|i| i == p))
    }

    /// The one fault query: does a planned fault fire at `site`? The first
    /// matching entry that is not a spent one-shot fires — it is logged to
    /// [`FaultPlan::injected`], consumed if `FaultKind::one_shot`, and
    /// its kind returned for the driver to apply. Drivers query each site
    /// at most once per step; an empty plan answers `None` everywhere.
    pub fn inject(&mut self, site: FaultSite) -> Option<FaultKind> {
        let site = site.canonical();
        let i = (0..self.planned.len())
            .find(|&i| !self.spent[i] && self.planned[i].site().canonical() == site)?;
        let hit = self.planned[i];
        self.spent[i] = hit.kind.one_shot();
        self.injected.push(hit);
        Some(hit.kind)
    }
}

/// splitmix64 step — the minimal deterministic stream (same generator the
/// predictor tests hand-roll); good enough for fault placement, no
/// dependency needed.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Map a u64 to [0, 1).
fn unit_f64(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The initial-guess site, the one most queries below target.
    fn guess(step: usize, case: usize) -> FaultSite {
        FaultSite::Guess { step, case }
    }

    #[test]
    fn noop_is_zero_sized() {
        // the empty plan is the no-op: it holds no allocation, answers
        // `None` at every site and logs nothing
        let mut empty = FaultPlan::default();
        assert_eq!(empty.planned.capacity() + empty.spent.capacity(), 0);
        assert!(empty.inject(guess(0, 0)).is_none());
        assert!(empty
            .inject(FaultSite::Snapshot { step: 3, case: 1 })
            .is_none());
        assert!(empty
            .inject(FaultSite::Exchange { step: 5, set: 0 })
            .is_none());
        assert!(empty.inject(FaultSite::Lane { step: 7, set: 1 }).is_none());
        assert!(empty
            .inject(FaultSite::Solver { step: 9, set: 0 })
            .is_none());
        assert!(empty.inject(FaultSite::Crash { step: 0 }).is_none());
        assert!(empty.injected().is_empty() && empty.all_fired());
    }

    #[test]
    fn nan_fault_is_deterministic_and_always_hits() {
        let f = VectorFault::Nan {
            frac: 0.05,
            seed: 42,
        };
        let mut a = vec![1.0; 200];
        let mut b = vec![1.0; 200];
        f.apply(&mut a);
        f.apply(&mut b);
        let nan_idx_a: Vec<usize> = (0..a.len()).filter(|&i| a[i].is_nan()).collect();
        let nan_idx_b: Vec<usize> = (0..b.len()).filter(|&i| b[i].is_nan()).collect();
        assert!(!nan_idx_a.is_empty());
        assert_eq!(nan_idx_a, nan_idx_b, "same seed must hit the same slots");

        // tiny frac on a tiny vector: the at-least-one guarantee kicks in
        let g = VectorFault::Nan {
            frac: 1e-9,
            seed: 7,
        };
        let mut c = vec![1.0; 4];
        g.apply(&mut c);
        assert_eq!(c.iter().filter(|v| v.is_nan()).count(), 1);
    }

    #[test]
    fn scale_fault_scales_everything() {
        let f = VectorFault::Scale { factor: -3.0 };
        let mut v = vec![1.0, 2.0, -4.0];
        f.apply(&mut v);
        assert_eq!(v, vec![-3.0, -6.0, 12.0]);
    }

    #[test]
    fn plan_fires_only_at_scheduled_targets_and_logs() {
        let mut plan = FaultPlan::new(1)
            .nan_guess(3, 1, 0.1)
            .cap_solver(5, 0, 2)
            .drop_exchange(4, 1)
            .stall_lane(2, 0, FaultLane::Gpu, 0.25);
        assert_eq!(plan.planned().len(), 4);
        assert!(plan.inject(guess(2, 1)).is_none(), "wrong step");
        assert!(plan.inject(guess(3, 0)).is_none(), "wrong case");
        let g = plan.inject(guess(3, 1)).expect("scheduled guess fault");
        assert!(matches!(
            g,
            FaultKind::Guess { fault: VectorFault::Nan { frac, .. }, .. } if frac == 0.1
        ));
        assert!(matches!(
            plan.inject(FaultSite::Solver { step: 5, set: 0 }),
            Some(FaultKind::Solver { max_iter: 2, .. })
        ));
        assert!(matches!(
            plan.inject(FaultSite::Exchange { step: 4, set: 1 }),
            Some(FaultKind::Exchange {
                fault: ExchangeFault::Drop,
                ..
            })
        ));
        let Some(FaultKind::Lane { fault: lf, .. }) =
            plan.inject(FaultSite::Lane { step: 2, set: 0 })
        else {
            panic!("scheduled lane fault");
        };
        assert_eq!(lf.lane, FaultLane::Gpu);
        assert_eq!(lf.seconds, 0.25);
        assert!(plan.all_fired());
        assert_eq!(plan.injected().len(), 4);
    }

    #[test]
    fn admission_and_eviction_faults_fire_on_target() {
        let mut plan = FaultPlan::new(3)
            .reject_admission(0)
            .shed_admission(2)
            .evict(5, 7);
        let admission =
            |plan: &mut FaultPlan, index| match plan.inject(FaultSite::Admission { index }) {
                Some(FaultKind::Admission { fault, .. }) => Some(fault),
                _ => None,
            };
        assert_eq!(admission(&mut plan, 0), Some(AdmissionFault::Reject));
        assert!(admission(&mut plan, 1).is_none());
        assert_eq!(admission(&mut plan, 2), Some(AdmissionFault::Shed));
        let evict = |step, case| FaultSite::Eviction { step, case };
        assert!(plan.inject(evict(5, 6)).is_none(), "wrong request");
        assert!(plan.inject(evict(4, 7)).is_none(), "wrong step");
        assert_eq!(
            plan.inject(evict(5, 7)),
            Some(FaultKind::Eviction { case: 7 })
        );
        assert!(plan.all_fired());
    }

    #[test]
    fn same_seed_same_plan_same_nan_pattern() {
        let mut p1 = FaultPlan::new(99).nan_guess(7, 2, 0.2);
        let mut p2 = FaultPlan::new(99).nan_guess(7, 2, 0.2);
        let f1 = p1.inject(guess(7, 2)).unwrap();
        let f2 = p2.inject(guess(7, 2)).unwrap();
        assert_eq!(f1, f2);
        // different seed -> different derived pattern seed
        let mut p3 = FaultPlan::new(100).nan_guess(7, 2, 0.2);
        let f3 = p3.inject(guess(7, 2)).unwrap();
        assert_ne!(f1, f3);
    }

    #[test]
    fn snapshot_and_guess_seeds_differ() {
        let mut p = FaultPlan::new(5)
            .nan_guess(1, 0, 0.3)
            .nan_snapshot(1, 0, 0.3);
        let Some(FaultKind::Guess { fault: g, .. }) = p.inject(guess(1, 0)) else {
            panic!("guess fault");
        };
        let Some(FaultKind::Snapshot { fault: s, .. }) =
            p.inject(FaultSite::Snapshot { step: 1, case: 0 })
        else {
            panic!("snapshot fault");
        };
        assert_ne!(g, s, "guess and snapshot patterns must be independent");
    }

    #[test]
    fn crash_fault_is_one_shot() {
        let mut plan = FaultPlan::new(1).crash_at(4);
        let crash = |step| FaultSite::Crash { step };
        assert!(plan.inject(crash(3)).is_none(), "wrong boundary");
        assert!(plan.inject(crash(4)).is_some(), "planned crash fires");
        // The resumed run replays the same boundary with the same plan
        // instance — it must sail through.
        assert!(plan.inject(crash(4)).is_none(), "crash already consumed");
        assert!(plan.all_fired());
        assert_eq!(plan.injected().len(), 1);
    }

    #[test]
    fn torn_write_is_one_shot_and_keyed_by_seq() {
        let mut plan = FaultPlan::new(1).tear_checkpoint(8, 0.5);
        let tear = |seq| FaultSite::TornWrite { seq };
        assert!(plan.inject(tear(7)).is_none(), "wrong sequence");
        assert_eq!(
            plan.inject(tear(8)),
            Some(FaultKind::TornWrite { keep_frac: 0.5 }),
            "planned tear fires"
        );
        assert!(
            plan.inject(tear(8)).is_none(),
            "tear already consumed; the rewritten checkpoint survives"
        );
        assert!(plan.all_fired());
    }

    #[test]
    fn node_crash_is_one_shot_and_keyed_by_node() {
        let mut plan = FaultPlan::new(1).crash_node(3, 1);
        let crash = |tick, node| FaultSite::NodeCrash { tick, node };
        assert!(plan.inject(crash(3, 0)).is_none(), "wrong node");
        assert!(plan.inject(crash(2, 1)).is_none(), "wrong tick");
        assert!(
            plan.inject(crash(3, 1)).is_some(),
            "planned node crash fires"
        );
        assert!(plan.inject(crash(3, 1)).is_none(), "node crash consumed");
        assert!(plan.all_fired());
    }

    #[test]
    fn replica_corruption_is_one_shot_and_keyed_by_node_and_seq() {
        let mut plan = FaultPlan::new(1).corrupt_replica(2, 5, 0.4);
        let site = |node, seq| FaultSite::ReplicaCorrupt { node, seq };
        assert!(plan.inject(site(1, 5)).is_none(), "wrong node");
        assert!(plan.inject(site(2, 4)).is_none(), "wrong seq");
        assert_eq!(
            plan.inject(site(2, 5)),
            Some(FaultKind::ReplicaCorrupt {
                node: 2,
                keep_frac: 0.4
            })
        );
        assert!(plan.inject(site(2, 5)).is_none(), "consumed");
        assert!(plan.all_fired());
    }

    #[test]
    fn link_partition_is_symmetric_and_one_shot() {
        let mut plan = FaultPlan::new(1).partition_link(4, 0, 2);
        let link = |tick, a, b| FaultSite::LinkPartition { tick, a, b };
        assert!(plan.inject(link(4, 0, 1)).is_none(), "wrong pair");
        assert!(plan.inject(link(3, 0, 2)).is_none(), "wrong tick");
        assert!(plan.inject(link(4, 2, 0)).is_some(), "symmetric pair fires");
        assert!(
            plan.inject(link(4, 0, 2)).is_none(),
            "link heals after tick"
        );
        assert!(plan.all_fired());
        // the planned orientation is what gets logged
        assert_eq!(plan.injected(), plan.planned());
    }

    #[test]
    fn tenant_burst_and_stuck_scaledown_are_one_shot() {
        let mut plan = FaultPlan::new(1)
            .tenant_burst(4, 2, 50)
            .stuck_lane_scaledown(6);
        let burst = |tick| FaultSite::TenantBurst { tick };
        let stuck = |tick| FaultSite::StuckLaneScaledown { tick };
        assert!(plan.inject(burst(3)).is_none(), "wrong tick");
        assert_eq!(
            plan.inject(burst(4)),
            Some(FaultKind::TenantBurst {
                tenant: 2,
                count: 50
            })
        );
        assert!(plan.inject(burst(4)).is_none(), "burst consumed");
        assert!(plan.inject(stuck(5)).is_none(), "wrong tick");
        assert!(plan.inject(stuck(6)).is_some());
        assert!(plan.inject(stuck(6)).is_none(), "scaledown consumed");
        assert!(plan.all_fired());
    }

    #[test]
    fn bit_flip_is_deterministic_and_self_inverse() {
        let flip = BitFlip {
            seed: 0xDEAD_BEEF_CAFE,
        };
        let clean = vec![1.0, -2.5, 3.25, 0.0, 5.5];
        let mut v = clean.clone();
        let (idx, bit) = flip.apply(&mut v).expect("non-empty");
        assert_eq!(flip.target(v.len()), Some((idx, bit)));
        assert!(bit < 64 && idx < v.len());
        assert_ne!(
            v[idx].to_bits(),
            clean[idx].to_bits(),
            "exactly one word changed"
        );
        assert_eq!(
            v.iter()
                .zip(&clean)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count(),
            1
        );
        // flipping again restores the original bit pattern
        flip.apply(&mut v);
        for (a, b) in v.iter().zip(&clean) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // empty buffers are a no-op, not a panic
        assert!(flip.apply(&mut []).is_none());
    }

    /// The `f32` flip hits the word `apply` would, at a bit in 0–31, and
    /// every one of the 32 bits is reachable as seeds vary.
    #[test]
    fn f32_bit_flip_hits_one_of_32_bits_and_is_self_inverse() {
        let clean = vec![1.0f32, -2.5, 3.25, 0.0, 5.5];
        let mut seen = 0u64;
        for seed in 0..256u64 {
            let flip = BitFlip { seed };
            let mut v = clean.clone();
            let (idx, bit) = flip.apply_f32(&mut v).expect("non-empty");
            assert_eq!(
                flip.target(v.len()).map(|(i, b)| (i, b & 31)),
                Some((idx, bit))
            );
            seen |= 1 << bit;
            let changed: Vec<usize> = (0..v.len())
                .filter(|&i| v[i].to_bits() != clean[i].to_bits())
                .collect();
            assert_eq!(changed, [idx]);
            assert_eq!((v[idx].to_bits() ^ clean[idx].to_bits()).count_ones(), 1);
            flip.apply_f32(&mut v);
            assert!(v
                .iter()
                .zip(&clean)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        assert_eq!(seen, u64::from(u32::MAX), "all 32 bits");
        assert!(BitFlip { seed: 1 }.apply_f32(&mut []).is_none());
    }

    #[test]
    fn data_flip_faults_fire_on_target_only() {
        let mut plan = FaultPlan::new(11)
            .flip_state(3, 1, StateField::V)
            .flip_rhs(4, 0)
            .flip_operator(5)
            .flip_basis(6, 2);
        let state = |step, case| FaultSite::StateFlip { step, case };
        let rhs = |step, case| FaultSite::RhsFlip { step, case };
        let basis = |step, case| FaultSite::BasisFlip { step, case };
        assert!(plan.inject(state(3, 0)).is_none(), "wrong case");
        assert!(plan.inject(state(2, 1)).is_none(), "wrong step");
        let Some(FaultKind::StateFlip { field, flip, .. }) = plan.inject(state(3, 1)) else {
            panic!("scheduled state flip");
        };
        assert_eq!(field, StateField::V);
        assert!(plan.inject(rhs(4, 1)).is_none(), "wrong case");
        let Some(FaultKind::RhsFlip { flip: rhs_flip, .. }) = plan.inject(rhs(4, 0)) else {
            panic!("scheduled rhs flip");
        };
        assert_ne!(rhs_flip.seed, flip.seed, "targets get independent seeds");
        assert!(plan.inject(FaultSite::OperatorFlip { step: 4 }).is_none());
        assert!(plan.inject(FaultSite::OperatorFlip { step: 5 }).is_some());
        assert!(plan.inject(basis(6, 0)).is_none(), "wrong case");
        assert!(plan.inject(basis(6, 2)).is_some());
        assert!(plan.all_fired());
    }

    #[test]
    fn replica_flip_is_one_shot_and_keyed_by_node_and_seq() {
        let mut plan = FaultPlan::new(2).flip_replica(1, 6);
        let site = |node, seq| FaultSite::ReplicaFlip { node, seq };
        assert!(plan.inject(site(0, 6)).is_none(), "wrong node");
        assert!(plan.inject(site(1, 5)).is_none(), "wrong seq");
        assert!(plan.inject(site(1, 6)).is_some(), "planned flip fires");
        assert!(plan.inject(site(1, 6)).is_none(), "consumed");
        assert!(plan.all_fired());
    }

    #[test]
    fn flip_seeds_are_stable_across_plan_instances() {
        let state = FaultSite::StateFlip { step: 2, case: 0 };
        let mut p1 = FaultPlan::new(7).flip_state(2, 0, StateField::U);
        let mut p2 = FaultPlan::new(7).flip_state(2, 0, StateField::U);
        assert_eq!(p1.inject(state), p2.inject(state));
        let mut p3 = FaultPlan::new(8).flip_state(2, 0, StateField::U);
        p3.inject(state).expect("scheduled");
        assert_ne!(p1.injected()[0], p3.injected()[0]);
    }

    #[test]
    fn distinct_crash_points_fire_independently() {
        let mut plan = FaultPlan::new(1).crash_at(2).crash_at(6);
        let crash = |step| FaultSite::Crash { step };
        assert!(plan.inject(crash(2)).is_some());
        assert!(plan.inject(crash(2)).is_none());
        assert!(plan.inject(crash(6)).is_some());
        assert!(plan.all_fired());
    }

    /// Every builder, with the coordinates of its site: `at(c)` is the
    /// site at coordinates `c`, so `c` with one coordinate moved by one is
    /// the neighbouring step, target, node or sequence number.
    #[allow(clippy::type_complexity, reason = "a table row: plan, coordinates, site constructor")]
    #[rustfmt::skip]
    fn every_builder() -> Vec<(FaultPlan, [usize; 3], fn([usize; 3]) -> FaultSite)> {
        use FaultSite::*;
        let p = || FaultPlan::new(0xfa);
        vec![
            (p().nan_guess(3, 1, 0.1), [3, 1, 0], |c| Guess { step: c[0], case: c[1] }),
            (p().scale_guess(3, 1, 2.0), [3, 1, 0], |c| Guess { step: c[0], case: c[1] }),
            (p().nan_snapshot(4, 2, 0.1), [4, 2, 0], |c| Snapshot { step: c[0], case: c[1] }),
            (p().scale_snapshot(4, 2, 2.0), [4, 2, 0], |c| Snapshot { step: c[0], case: c[1] }),
            (p().drop_exchange(5, 1), [5, 1, 0], |c| Exchange { step: c[0], set: c[1] }),
            (p().delay_exchange(5, 1, 3.0), [5, 1, 0], |c| Exchange { step: c[0], set: c[1] }),
            (p().stall_lane(6, 1, FaultLane::Cpu, 0.1), [6, 1, 0], |c| Lane { step: c[0], set: c[1] }),
            (p().cap_solver(7, 1, 2), [7, 1, 0], |c| Solver { step: c[0], set: c[1] }),
            (p().reject_admission(2), [2, 0, 0], |c| Admission { index: c[0] }),
            (p().shed_admission(2), [2, 0, 0], |c| Admission { index: c[0] }),
            (p().evict(8, 3), [8, 3, 0], |c| Eviction { step: c[0], case: c[1] }),
            (p().crash_at(9), [9, 0, 0], |c| Crash { step: c[0] }),
            (p().tear_checkpoint(10, 0.5), [10, 0, 0], |c| TornWrite { seq: c[0] as u64 }),
            (p().crash_node(11, 2), [11, 2, 0], |c| NodeCrash { tick: c[0], node: c[1] }),
            (p().corrupt_replica(2, 12, 0.5), [2, 12, 0], |c| ReplicaCorrupt { node: c[0], seq: c[1] as u64 }),
            (p().partition_link(13, 1, 3), [13, 1, 3], |c| LinkPartition { tick: c[0], a: c[1], b: c[2] }),
            (p().partition_link(13, 1, 3), [13, 3, 1], |c| LinkPartition { tick: c[0], a: c[1], b: c[2] }),
            (p().tenant_burst(14, 1, 5), [14, 0, 0], |c| TenantBurst { tick: c[0] }),
            (p().stuck_lane_scaledown(15), [15, 0, 0], |c| StuckLaneScaledown { tick: c[0] }),
            (p().flip_state(16, 1, StateField::A), [16, 1, 0], |c| StateFlip { step: c[0], case: c[1] }),
            (p().flip_rhs(17, 1), [17, 1, 0], |c| RhsFlip { step: c[0], case: c[1] }),
            (p().flip_operator(18), [18, 0, 0], |c| OperatorFlip { step: c[0] }),
            (p().flip_basis(19, 1), [19, 1, 0], |c| BasisFlip { step: c[0], case: c[1] }),
            (p().flip_replica(2, 20), [2, 20, 0], |c| ReplicaFlip { node: c[0], seq: c[1] as u64 }),
        ]
    }

    #[test]
    fn every_builder_fires_at_its_own_site_only() {
        for (mut plan, coords, at) in every_builder() {
            let site = at(coords);
            let planned = plan.planned()[0];
            // every neighbouring coordinate misses and consumes nothing
            for k in 0..3 {
                for shifted in [coords[k].wrapping_sub(1), coords[k] + 1] {
                    let mut c = coords;
                    c[k] = shifted;
                    if at(c) != site {
                        assert!(plan.inject(at(c)).is_none(), "{planned:?} fired at {c:?}");
                    }
                }
            }
            assert!(plan.injected().is_empty(), "{planned:?}");
            assert_eq!(plan.inject(site), Some(planned.kind), "{planned:?}");
            let again = plan.inject(site);
            assert_eq!(again.is_none(), planned.kind.one_shot(), "{planned:?}");
            assert!(plan.all_fired());
            assert!(plan.injected().iter().all(|r| *r == planned));
        }
    }

    #[test]
    fn injected_logs_the_planned_records_in_firing_order() {
        let mut plan = FaultPlan::new(0xfb);
        let mut sites = Vec::new();
        for (one, coords, at) in every_builder() {
            // one distinct step per entry, so no two builders share a site
            if !plan
                .planned()
                .iter()
                .any(|p| p.site().canonical() == at(coords).canonical())
            {
                plan = plan.plan(one.planned[0].step, one.planned[0].kind);
                sites.push(at(coords));
            }
        }
        for &site in sites.iter().rev() {
            assert!(plan.inject(site).is_some(), "{site:?}");
        }
        let mut expected = plan.planned().to_vec();
        expected.reverse();
        assert_eq!(plan.injected(), expected.as_slice());
        assert!(plan.all_fired());
    }
}
