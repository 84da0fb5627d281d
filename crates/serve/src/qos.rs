//! Multi-tenant quality-of-service: per-tenant quotas, SLO targets, and
//! lane autoscaling configuration.
//!
//! The QoS layer is a *scheduling* layer. It decides which queued request
//! runs next (deficit-round-robin fair share across tenant sub-queues,
//! layered on the existing priority → deadline → seeded-tie ordering),
//! how much queue and lane capacity each tenant may hold, and how many
//! fused lanes the server keeps spun up. It never touches the numerics:
//! a served case's trajectory stays bitwise-equal to its solo
//! `run_ensemble` solve regardless of tenancy, quotas, or scaling events.
//!
//! Invariants (enforced by the qos suite and proptests):
//!
//! * Under saturating load from multiple tenants, each tenant's share of
//!   served work (steps) converges to its quota weight within 10%.
//! * A zero-weight tenant is rejected with a typed error at admission —
//!   never admitted and silently starved.
//! * Lane scale-up adds an empty lane at a step boundary; scale-down
//!   drains the highest lane (no new backfill) and removes it only when
//!   empty, so in-flight trajectories are untouched.
//! * Scaling state round-trips through `ServerCheckpoint` (optional,
//!   fingerprint-gated `QOS\0` section).

use crate::request::TenantId;

/// Per-tenant resource quota and SLO target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// Fair-share weight: under saturation, tenants receive served work
    /// (case steps) in proportion to their weights. Zero means the tenant
    /// is administratively disabled — admissions are rejected typed.
    pub weight: u64,
    /// Maximum cases this tenant may have occupying lane slots at once
    /// (Batched/Solving). `usize::MAX` disables the cap.
    pub max_in_flight: usize,
    /// Fraction of the admission-queue capacity this tenant may hold
    /// (0 < share ≤ 1). Overflow is shed typed, per tenant, before the
    /// global capacity check.
    pub queue_share: f64,
    /// Target admit→done latency (modeled s). A completed request slower
    /// than this counts as an SLO miss in `ServeStats`; `None` tracks
    /// nothing.
    pub slo_latency_s: Option<f64>,
}

hetsolve_ckpt::wire_struct!(TenantQuota {
    weight,
    max_in_flight,
    queue_share,
    slo_latency_s,
});

impl TenantQuota {
    pub fn new(weight: u64) -> Self {
        TenantQuota {
            weight,
            max_in_flight: usize::MAX,
            queue_share: 1.0,
            slo_latency_s: None,
        }
    }

    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    pub fn with_queue_share(mut self, queue_share: f64) -> Self {
        self.queue_share = queue_share.clamp(0.0, 1.0);
        self
    }

    pub fn with_slo(mut self, slo_latency_s: f64) -> Self {
        self.slo_latency_s = Some(slo_latency_s);
        self
    }
}

/// Multi-tenant scheduling configuration: one quota per tenant (dense by
/// [`TenantId`]) plus the deficit-round-robin quantum.
#[derive(Debug, Clone, PartialEq)]
pub struct QosConfig {
    /// Quota table; `TenantId(i)` maps to `tenants[i]`. Requests naming a
    /// tenant outside the table are rejected typed.
    pub tenants: Vec<TenantQuota>,
    /// DRR quantum: deficit credit (in case steps) granted per round per
    /// unit weight. Larger quanta are burstier but cheaper to schedule.
    pub quantum: u64,
}

impl QosConfig {
    pub fn new(tenants: Vec<TenantQuota>) -> Self {
        QosConfig {
            tenants,
            quantum: 8,
        }
    }

    /// Quota for `tenant`, if configured.
    pub(crate) fn quota(&self, tenant: TenantId) -> Option<&TenantQuota> {
        self.tenants.get(tenant.0 as usize)
    }

    pub(crate) fn n_tenants(&self) -> usize {
        self.tenants.len()
    }
}

/// Lane-autoscaling policy: spin fused lanes up/down at step boundaries,
/// driven by queue depth and modeled device occupancy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Never scale below this many lanes (≥ 1).
    pub min_lanes: usize,
    /// Never scale above this many lanes.
    pub max_lanes: usize,
    /// Scale up when queued requests exceed this many per current lane —
    /// queue pressure means the fused width on device is underprovisioned.
    pub scale_up_queue_per_lane: usize,
    /// Scale down when the queue is empty and mean lane occupancy (filled
    /// columns / total columns across lanes) falls below this fraction —
    /// the device is mostly running vacant columns.
    pub scale_down_occupancy: f64,
    /// Ticks to wait after any scaling event before the next decision,
    /// so the autoscaler cannot flap within a burst.
    pub cooldown_ticks: u64,
}

impl AutoscaleConfig {
    pub fn new(min_lanes: usize, max_lanes: usize) -> Self {
        let min_lanes = min_lanes.max(1);
        AutoscaleConfig {
            min_lanes,
            max_lanes: max_lanes.max(min_lanes),
            scale_up_queue_per_lane: 8,
            scale_down_occupancy: 0.25,
            cooldown_ticks: 4,
        }
    }
}

/// Which way a scaling event moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDirection {
    Up,
    Down,
}

impl ScaleDirection {
    pub fn label(&self) -> &'static str {
        match self {
            ScaleDirection::Up => "up",
            ScaleDirection::Down => "down",
        }
    }
}

/// One lane-scaling event, for tests and bench snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleEvent {
    /// Server tick at which the event took effect.
    pub tick: u64,
    pub direction: ScaleDirection,
    pub lanes_before: usize,
    pub lanes_after: usize,
}

/// Dynamic autoscaler state, checkpointed in the optional `QOS\0` section
/// so a restore mid-scale resumes the exact same schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AutoscalerState {
    /// Ticks left before the next scaling decision may fire.
    pub cooldown: u64,
    /// The highest lane is draining: backfill skips it and it is removed
    /// at the first step boundary where it is empty.
    pub draining: bool,
    /// Scaling events since server start (monotone; survives restore).
    pub events: u64,
}

hetsolve_ckpt::wire_struct!(AutoscalerState {
    cooldown,
    draining,
    events,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_builders_clamp() {
        let q = TenantQuota::new(3)
            .with_max_in_flight(2)
            .with_queue_share(2.0)
            .with_slo(0.5);
        assert_eq!(q.weight, 3);
        assert_eq!(q.max_in_flight, 2);
        assert_eq!(q.queue_share, 1.0, "share clamps to [0, 1]");
        assert_eq!(q.slo_latency_s, Some(0.5));
        let qos = QosConfig::new(vec![q]);
        assert!(qos.quota(TenantId(0)).is_some());
        assert!(qos.quota(TenantId(1)).is_none());
    }

    #[test]
    fn autoscale_bounds_are_ordered() {
        let a = AutoscaleConfig::new(0, 0);
        assert_eq!(a.min_lanes, 1);
        assert_eq!(a.max_lanes, 1);
        let a = AutoscaleConfig::new(4, 2);
        assert_eq!(a.max_lanes, 4, "max is lifted to min");
        assert_eq!(ScaleDirection::Up.label(), "up");
        assert_eq!(ScaleDirection::Down.label(), "down");
    }
}
