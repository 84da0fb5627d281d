//! Requests, their lifecycle states, and the per-request record the
//! server keeps.
//!
//! A [`SolveRequest`] names *one* simulation case — the seed and step
//! count that pin its random load — plus the scheduling knobs (priority,
//! deadline) and an optional solver-tolerance override. Every admitted
//! request walks the lifecycle
//! `Queued → Batched → Solving → Done | Failed | Evicted` recorded in its
//! [`RequestRecord`].

use hetsolve_ckpt::{wire_code, wire_newtype, wire_struct};

/// Handle to an admitted request (dense: the `n`-th admitted request is
/// `RequestId(n)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

wire_newtype!(RequestId(u64));

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// One solve case submitted to the serving layer.
///
/// A request served with seed `s` reproduces the exact trajectory of a
/// solo [`run_ensemble`](hetsolve_core::run_ensemble) case whose seed is
/// `s` (same backend, same `RunConfig` load/window settings) — the
/// serving layer's bitwise-equivalence contract.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveRequest {
    /// Absolute RNG seed for this case's random load.
    pub seed: u64,
    /// Time steps this case runs for.
    pub n_steps: usize,
    /// Scheduling priority (higher runs first).
    pub priority: u8,
    /// Absolute modeled deadline (s on the server clock); a request still
    /// queued past it is shed as `Evicted`.
    pub deadline: Option<f64>,
    /// Solver-tolerance override; `None` uses the server default. Cases
    /// only share a fused lane when their effective tolerances are
    /// bit-identical (one `CgConfig` drives all columns of a lane).
    pub tol: Option<f64>,
    /// Submitting tenant. Tenant 0 is the default; when the server runs
    /// with a [`QosConfig`](crate::qos::QosConfig) the id must name a
    /// configured quota, and fair-share scheduling + per-tenant limits
    /// apply. Tenancy is a scheduling dimension only — it never touches
    /// the numerics of the solve.
    pub tenant: TenantId,
}

wire_struct!(SolveRequest {
    seed,
    n_steps,
    priority,
    deadline,
    tol,
    tenant,
});

impl SolveRequest {
    pub fn new(seed: u64, n_steps: usize) -> Self {
        SolveRequest {
            seed,
            n_steps,
            priority: 0,
            deadline: None,
            tol: None,
            tenant: TenantId(0),
        }
    }

    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    pub fn with_deadline(mut self, deadline: f64) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = Some(tol);
        self
    }

    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }
}

/// Identity of a submitting tenant (dense: index into the server's
/// configured quota table when QoS is enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u32);

wire_newtype!(TenantId(u32));

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant#{}", self.0)
    }
}

/// Lifecycle state of an admitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Admitted, waiting in the queue.
    Queued,
    /// Assigned a lane slot at a step boundary, not yet solving.
    Batched,
    /// Its lane is iterating.
    Solving,
    /// All steps completed; result available.
    Done,
    /// Its column exhausted the recovery ladder; the slot was freed.
    Failed,
    /// Shed past its deadline, or force-evicted (injected / operator).
    Evicted,
    /// Handed to another shard of the serving cluster (work stealing or
    /// failover reconciliation); this shard's copy is terminal and the
    /// cluster router points at the new owner.
    Migrated,
}

impl RequestState {
    pub fn label(&self) -> &'static str {
        match self {
            RequestState::Queued => "queued",
            RequestState::Batched => "batched",
            RequestState::Solving => "solving",
            RequestState::Done => "done",
            RequestState::Failed => "failed",
            RequestState::Evicted => "evicted",
            RequestState::Migrated => "migrated",
        }
    }

    /// The request will never run again (on this shard).
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            RequestState::Done
                | RequestState::Failed
                | RequestState::Evicted
                | RequestState::Migrated
        )
    }

    /// Stable wire code for checkpoint encoding (append-only).
    pub fn code(&self) -> u8 {
        match self {
            RequestState::Queued => 0,
            RequestState::Batched => 1,
            RequestState::Solving => 2,
            RequestState::Done => 3,
            RequestState::Failed => 4,
            RequestState::Evicted => 5,
            RequestState::Migrated => 6,
        }
    }

    /// Inverse of [`RequestState::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => RequestState::Queued,
            1 => RequestState::Batched,
            2 => RequestState::Solving,
            3 => RequestState::Done,
            4 => RequestState::Failed,
            5 => RequestState::Evicted,
            6 => RequestState::Migrated,
            _ => return None,
        })
    }
}

wire_code!(RequestState, "request-state");

/// Why an `Evicted` request was removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictReason {
    /// Still queued past its deadline.
    DeadlineExpired,
    /// An injected eviction fault (chaos testing / operator cancel).
    Injected,
    /// The watchdog supervisor exhausted its escalation ladder on the
    /// request's lane (retry → restart-from-checkpoint → evict).
    Watchdog,
    /// The request's cluster node died and no valid peer replica existed
    /// to fail over from — the extended ladder's true last resort.
    NodeLost,
    /// Shed at a step boundary because its deadline became *provably*
    /// unmeetable while queued: even at the modeled per-step floor cost
    /// the remaining steps cannot finish before the deadline, so the
    /// request is shed early instead of occupying queue share until
    /// `expire` catches it.
    DeadlineUnmeetable,
    /// The SDC ladder exhausted itself on the request's column: corruption
    /// kept recurring after rollback and a lane restart, so the column was
    /// freed rather than serve a possibly-wrong answer.
    Corruption,
}

impl EvictReason {
    pub fn label(&self) -> &'static str {
        match self {
            EvictReason::DeadlineExpired => "deadline_expired",
            EvictReason::Injected => "injected",
            EvictReason::Watchdog => "watchdog",
            EvictReason::NodeLost => "node_lost",
            EvictReason::DeadlineUnmeetable => "deadline_unmeetable",
            EvictReason::Corruption => "corruption",
        }
    }

    /// Stable wire code for checkpoint encoding (append-only).
    pub fn code(&self) -> u8 {
        match self {
            EvictReason::DeadlineExpired => 0,
            EvictReason::Injected => 1,
            EvictReason::Watchdog => 2,
            EvictReason::NodeLost => 3,
            EvictReason::DeadlineUnmeetable => 4,
            EvictReason::Corruption => 5,
        }
    }

    /// Inverse of [`EvictReason::code`]; `None` for unknown codes.
    pub fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => EvictReason::DeadlineExpired,
            1 => EvictReason::Injected,
            2 => EvictReason::Watchdog,
            3 => EvictReason::NodeLost,
            4 => EvictReason::DeadlineUnmeetable,
            5 => EvictReason::Corruption,
            _ => return None,
        })
    }
}

wire_code!(EvictReason, "evict-reason");

/// Everything the server remembers about one admitted request.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    pub id: RequestId,
    pub request: SolveRequest,
    pub state: RequestState,
    /// Server clock (modeled s) at admission.
    pub admitted_at: f64,
    /// Server clock when the request reached a terminal state.
    pub finished_at: Option<f64>,
    /// Why the request was evicted (only for `Evicted`).
    pub evict_reason: Option<EvictReason>,
    /// Final displacement vector (only for `Done`).
    pub result: Option<Vec<f64>>,
}

wire_struct!(RequestRecord {
    id,
    request,
    state,
    admitted_at,
    finished_at,
    evict_reason,
    result,
});

impl RequestRecord {
    /// Admit→done latency; `None` until the request is terminal.
    pub fn latency(&self) -> Option<f64> {
        self.finished_at.map(|t| t - self.admitted_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_labels() {
        let r = SolveRequest::new(42, 10)
            .with_priority(3)
            .with_deadline(1.5)
            .with_tol(1e-6)
            .with_tenant(TenantId(2));
        assert_eq!(r.priority, 3);
        assert_eq!(r.deadline, Some(1.5));
        assert_eq!(r.tol, Some(1e-6));
        assert_eq!(r.tenant, TenantId(2));
        assert_eq!(SolveRequest::new(1, 1).tenant, TenantId(0));
        assert_eq!(TenantId(3).to_string(), "tenant#3");
        assert_eq!(
            EvictReason::DeadlineUnmeetable.label(),
            "deadline_unmeetable"
        );
        assert_eq!(
            EvictReason::from_code(EvictReason::DeadlineUnmeetable.code()),
            Some(EvictReason::DeadlineUnmeetable)
        );
        assert!(!RequestState::Solving.is_terminal());
        assert!(RequestState::Evicted.is_terminal());
        assert_eq!(RequestState::Done.label(), "done");
        assert_eq!(RequestId(7).to_string(), "req#7");
    }
}
