//! Bounded admission queue with priority + deadline scheduling, a seeded
//! deterministic tie-break, and (when QoS is enabled) deficit-round-robin
//! fair share across tenant sub-queues.
//!
//! Admission control is the serving layer's backpressure: the queue holds
//! at most `capacity` requests, and an `admit` past that sheds load with a
//! typed [`AdmitError::ShedLoad`] instead of growing without bound. With a
//! tenant policy attached, each tenant additionally owns a share of the
//! capacity and is shed typed when *its* share fills, so one tenant's
//! burst cannot occupy the whole queue.
//!
//! Scheduling order within a tenant is total and deterministic: priority
//! (desc), then deadline (asc, `None` = never), then a splitmix64 hash of
//! `sched_seed ^ id` (so two servers with the same seed replay the same
//! schedule, and different seeds break ties differently), then the id
//! itself. Across tenants, deficit round robin picks which tenant pops
//! next: each tenant accumulates `quantum × weight` credit (in case
//! steps) per round and spends its requests' step counts, so served work
//! converges to the weight ratio under saturation while staying exactly
//! deterministic.

use crate::batcher::CompatKey;
use crate::request::{RequestId, TenantId};

/// Why an admission was refused outright (the request itself is at fault).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// `n_steps == 0`: a case must advance at least one step.
    ZeroSteps,
    /// Tolerance override is not a finite positive number.
    InvalidTol,
    /// An injected admission fault turned the request away.
    FaultInjected,
    /// The request names a tenant outside the configured quota table.
    UnknownTenant,
    /// The request's tenant has a zero fair-share weight: it is
    /// administratively disabled and must hear that typed, not be
    /// admitted into a queue it can never drain from.
    ZeroQuota,
    /// A floating-point field (deadline) is NaN or infinite. Admitting it
    /// would poison every deadline comparison downstream — NaN compares
    /// false against everything, so the request would neither expire nor
    /// be shed as unmeetable. Rejected typed at the door instead.
    NonFiniteInput,
}

impl RejectReason {
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::ZeroSteps => "zero_steps",
            RejectReason::InvalidTol => "invalid_tol",
            RejectReason::FaultInjected => "fault_injected",
            RejectReason::UnknownTenant => "unknown_tenant",
            RejectReason::ZeroQuota => "zero_quota",
            RejectReason::NonFiniteInput => "non_finite_input",
        }
    }
}

/// Typed admission failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmitError {
    /// The request is malformed or incompatible; resubmitting the same
    /// request will never succeed.
    Rejected(RejectReason),
    /// The queue is at capacity (or an injected fault simulated it);
    /// resubmitting later may succeed.
    ShedLoad { queued: usize, capacity: usize },
    /// The request's tenant is at its queue share; other tenants may
    /// still be admitted. Resubmitting later may succeed.
    TenantShed {
        tenant: TenantId,
        queued: usize,
        share: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Rejected(r) => write!(f, "request rejected: {}", r.label()),
            AdmitError::ShedLoad { queued, capacity } => {
                write!(f, "load shed: queue at {queued}/{capacity}")
            }
            AdmitError::TenantShed {
                tenant,
                queued,
                share,
            } => write!(f, "load shed: {tenant} at {queued}/{share} queue share"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// splitmix64 — the same minimal deterministic stream the fault plan
/// uses for placement; good enough for tie-breaking, no dependency.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone)]
struct QueueEntry {
    id: RequestId,
    key: CompatKey,
    priority: u8,
    deadline: Option<f64>,
    /// Seeded tie-break hash, fixed at admission.
    tie: u64,
    tenant: TenantId,
    /// DRR cost: the request's step count (work, not request count, is
    /// the fair-share currency).
    cost: u32,
}

/// One queued request as a checkpoint sees it — the full [`QueueEntry`],
/// including the admission-time tie-break (so a restored queue replays
/// the exact same schedule) and the tenant/cost pair (so a restored DRR
/// scheduler charges the same deficits).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueEntrySnapshot {
    pub id: RequestId,
    pub key: CompatKey,
    pub priority: u8,
    pub deadline: Option<f64>,
    pub tie: u64,
    pub tenant: TenantId,
    pub cost: u32,
}

hetsolve_ckpt::wire_struct!(QueueEntrySnapshot {
    id,
    key,
    priority,
    deadline,
    tie,
    tenant,
    cost,
});

impl QueueEntry {
    /// Totally ordered scheduling rank: smaller runs first.
    fn rank(&self) -> (std::cmp::Reverse<u8>, u64, u64, u64) {
        (
            std::cmp::Reverse(self.priority),
            // deadline asc with None = never; finite f64 bits order like
            // the values for non-negative deadlines, and NaN is rejected
            // at admission
            self.deadline.map_or(u64::MAX, |d| d.max(0.0).to_bits()),
            self.tie,
            self.id.0,
        )
    }
}

/// Derived (non-checkpointed) tenant scheduling policy: weights, DRR
/// quantum, and per-tenant queue-share caps, all computed from the server
/// config at construction. The *dynamic* scheduler state lives in
/// [`DrrState`] and is checkpointed.
#[derive(Debug, Clone)]
pub struct TenantPolicy {
    /// Fair-share weight per tenant (dense by id).
    weights: Vec<u64>,
    /// Deficit credit granted per round per unit weight (case steps).
    quantum: u64,
    /// Max queued entries per tenant (derived from `queue_share`).
    share_cap: Vec<usize>,
}

impl TenantPolicy {
    /// Build from per-tenant `(weight, queue_share)` pairs against a queue
    /// of `capacity` entries.
    pub fn new(tenants: &[(u64, f64)], quantum: u64, capacity: usize) -> Self {
        TenantPolicy {
            weights: tenants.iter().map(|&(w, _)| w).collect(),
            quantum: quantum.max(1),
            share_cap: tenants
                .iter()
                .map(|&(_, s)| ((capacity as f64 * s.clamp(0.0, 1.0)).ceil() as usize).max(1))
                .collect(),
        }
    }

    pub fn n_tenants(&self) -> usize {
        self.weights.len()
    }
}

/// Dynamic deficit-round-robin state: per-tenant deficits plus the round
/// cursor. Checkpointed (optional `QOS\0` section) so a restored server
/// resumes the exact same fair-share schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DrrState {
    /// Unspent deficit credit per tenant (case steps).
    pub deficits: Vec<u64>,
    /// Tenant whose sub-queue the next round visits first.
    pub cursor: usize,
}

hetsolve_ckpt::wire_struct!(DrrState { deficits, cursor });

/// The bounded, scheduled request queue.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    capacity: usize,
    seed: u64,
    entries: Vec<QueueEntry>,
    /// Tenant fair-share policy; `None` = single-tenant FIFO-by-rank.
    policy: Option<TenantPolicy>,
    /// DRR dynamic state (empty without a policy).
    drr: DrrState,
    /// Transient per-boundary pop budget (lane-slot grants left per tenant
    /// before its max-in-flight cap binds); recomputed by the server before
    /// every backfill and decremented per pop, never checkpointed. Empty =
    /// unlimited.
    budget: Vec<usize>,
}

impl AdmissionQueue {
    pub fn new(capacity: usize, seed: u64) -> Self {
        AdmissionQueue {
            capacity: capacity.max(1),
            seed,
            entries: Vec::new(),
            policy: None,
            drr: DrrState::default(),
            budget: Vec::new(),
        }
    }

    /// Attach a tenant fair-share policy (server construction only).
    pub fn with_policy(mut self, policy: TenantPolicy) -> Self {
        // Invariant: the cursor tenant's deficit already includes its
        // arrival grant (the scheduler re-grants only when the cursor
        // *moves*), so tenant 0 gets its first-round credit here.
        let mut deficits = vec![0; policy.n_tenants()];
        if let (Some(d), Some(&w)) = (deficits.first_mut(), policy.weights.first()) {
            *d = policy.quantum.saturating_mul(w);
        }
        self.drr = DrrState {
            deficits,
            cursor: 0,
        };
        self.policy = Some(policy);
        self
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Queued entries belonging to `tenant`.
    pub fn tenant_len(&self, tenant: TenantId) -> usize {
        self.entries.iter().filter(|e| e.tenant == tenant).count()
    }

    /// Enqueue an already-validated request; sheds when full (globally or
    /// for the request's tenant share).
    pub fn push(
        &mut self,
        id: RequestId,
        key: CompatKey,
        priority: u8,
        deadline: Option<f64>,
        tenant: TenantId,
        cost: u32,
    ) -> Result<(), AdmitError> {
        if let Some(policy) = &self.policy {
            if let Some(&cap) = policy.share_cap.get(tenant.0 as usize) {
                let queued = self.tenant_len(tenant);
                if queued >= cap {
                    return Err(AdmitError::TenantShed {
                        tenant,
                        queued,
                        share: cap,
                    });
                }
            }
        }
        if self.entries.len() >= self.capacity {
            return Err(AdmitError::ShedLoad {
                queued: self.entries.len(),
                capacity: self.capacity,
            });
        }
        self.entries.push(QueueEntry {
            id,
            key,
            priority,
            deadline,
            tie: splitmix64(self.seed ^ id.0),
            tenant,
            cost: cost.max(1),
        });
        Ok(())
    }

    /// Set the per-tenant pop budget for this step boundary: how many more
    /// lane slots each tenant may be granted before its max-in-flight cap
    /// binds. The server recomputes this before backfill; each pop spends
    /// one unit, and a tenant at zero is skipped (not starved — its budget
    /// is refreshed next boundary). An empty vec means unlimited.
    pub fn set_budgets(&mut self, budgets: Vec<usize>) {
        self.budget = budgets;
    }

    fn is_blocked(&self, tenant: TenantId) -> bool {
        self.budget
            .get(tenant.0 as usize)
            .is_some_and(|&left| left == 0)
    }

    fn pop_at(&mut self, i: usize) -> (RequestId, CompatKey) {
        let e = self.entries.remove(i);
        if let Some(left) = self.budget.get_mut(e.tenant.0 as usize) {
            *left = left.saturating_sub(1);
        }
        (e.id, e.key)
    }

    /// Index of the rank-best eligible entry, optionally restricted to a
    /// compat key and/or a tenant.
    fn best_idx(&self, key: Option<CompatKey>, tenant: Option<TenantId>) -> Option<usize> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| key.is_none_or(|k| e.key == k))
            .filter(|(_, e)| tenant.is_none_or(|t| e.tenant == t))
            .filter(|(_, e)| !self.is_blocked(e.tenant))
            .min_by_key(|(_, e)| e.rank())
            .map(|(i, _)| i)
    }

    /// Pick the next entry under deficit round robin: visit tenants from
    /// the cursor, grant `quantum × weight` credit per visit, and serve
    /// the first tenant whose accumulated deficit covers its best
    /// eligible entry's cost. Idle tenants forfeit their deficit (classic
    /// DRR), so credit cannot be hoarded across idle periods. Falls back
    /// to the global rank order when no policy is attached or no tenant
    /// can be scheduled within a bounded number of rounds.
    fn drr_idx(&mut self, key: Option<CompatKey>) -> Option<usize> {
        let Some(policy) = &self.policy else {
            return self.best_idx(key, None);
        };
        let n = policy.n_tenants();
        if n == 0 {
            return self.best_idx(key, None);
        }
        // Any eligible entry at all? (Also covers entries from tenants
        // outside the table, which only exist when no policy validates
        // admissions — served by the fallback below.)
        self.best_idx(key, None)?;
        let quantum = policy.quantum;
        let weights = policy.weights.clone();
        // Enough rounds for the largest plausible cost to accumulate; the
        // fallback keeps pathological costs from spinning.
        let max_visits = n * 4096;
        for _ in 0..max_visits {
            let t = self.drr.cursor;
            match self.best_idx(key, Some(TenantId(t as u32))) {
                Some(i) => {
                    let cost = u64::from(self.entries[i].cost);
                    if self.drr.deficits[t] >= cost {
                        self.drr.deficits[t] -= cost;
                        // cursor stays: remaining deficit serves this
                        // tenant's next entry first, as in classic DRR
                        return Some(i);
                    }
                }
                None => {
                    // no eligible backlog: forfeit credit this round
                    self.drr.deficits[t] = 0;
                }
            }
            // Turn over: quantum is granted exactly once per visit, as
            // the cursor *arrives* at a tenant. Re-granting the current
            // tenant in place would let any tenant with
            // `quantum × weight >= cost` hold the cursor forever and
            // starve the rest.
            self.drr.cursor = (self.drr.cursor + 1) % n;
            let next = self.drr.cursor;
            self.drr.deficits[next] =
                self.drr.deficits[next].saturating_add(quantum.saturating_mul(weights[next]));
        }
        // All weights zero on backlogged tenants (cannot happen through
        // validated admission) or absurd cost/quantum ratio: degrade to
        // plain rank order rather than stalling the server.
        self.best_idx(key, None)
    }

    /// Pop the scheduling-order head over all compatibility keys
    /// (fair-share order first when a tenant policy is attached).
    pub fn pop_best(&mut self) -> Option<(RequestId, CompatKey)> {
        let i = self.drr_idx(None)?;
        Some(self.pop_at(i))
    }

    /// Pop the scheduling-order head among requests with key `key`.
    pub fn pop_best_for(&mut self, key: CompatKey) -> Option<RequestId> {
        let i = self.drr_idx(Some(key))?;
        Some(self.pop_at(i).0)
    }

    /// Remove a specific queued request (cluster work stealing and
    /// failover reconciliation pull entries by id, not by rank); returns
    /// `false` when `id` is not queued.
    pub fn remove(&mut self, id: RequestId) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.id != id);
        self.entries.len() < before
    }

    /// Capture the queue's contents for a checkpoint, in insertion order.
    /// The admission-time tie-break hashes travel with the entries, so the
    /// restored queue replays the exact same schedule.
    pub fn snapshot(&self) -> Vec<QueueEntrySnapshot> {
        self.entries
            .iter()
            .map(|e| QueueEntrySnapshot {
                id: e.id,
                key: e.key,
                priority: e.priority,
                deadline: e.deadline,
                tie: e.tie,
                tenant: e.tenant,
                cost: e.cost,
            })
            .collect()
    }

    /// Replace the queue's contents with a captured snapshot (restore-side
    /// inverse of [`AdmissionQueue::snapshot`]).
    pub fn restore(&mut self, entries: Vec<QueueEntrySnapshot>) {
        self.entries = entries
            .into_iter()
            .map(|s| QueueEntry {
                id: s.id,
                key: s.key,
                priority: s.priority,
                deadline: s.deadline,
                tie: s.tie,
                tenant: s.tenant,
                cost: s.cost,
            })
            .collect();
    }

    /// Current DRR scheduler state (for checkpointing).
    pub fn drr_state(&self) -> &DrrState {
        &self.drr
    }

    /// Replace the DRR scheduler state (checkpoint restore). Lengths are
    /// reconciled against the configured tenant count, so a checkpoint
    /// from a differently-sized table cannot panic the scheduler.
    pub fn restore_drr(&mut self, mut state: DrrState) {
        let n = self.policy.as_ref().map_or(0, TenantPolicy::n_tenants);
        state.deficits.resize(n, 0);
        if n > 0 {
            state.cursor %= n;
        } else {
            state.cursor = 0;
        }
        self.drr = state;
    }

    /// Remove every queued request whose deadline has passed; returns the
    /// shed ids (the caller marks them `Evicted`).
    pub fn expire(&mut self, now: f64) -> Vec<RequestId> {
        let mut shed = Vec::new();
        self.entries.retain(|e| match e.deadline {
            Some(d) if d < now => {
                shed.push(e.id);
                false
            }
            _ => true,
        });
        shed
    }

    /// Remove every queued request whose deadline is *provably* unmeetable:
    /// even at the modeled per-step floor cost `step_floor_s`, its
    /// remaining steps cannot finish by the deadline. Returns the shed ids
    /// (the caller marks them `Evicted(DeadlineUnmeetable)`). This is the
    /// step-boundary re-evaluation of admission-time shedding: a request
    /// that can no longer win should stop occupying queue share now, not
    /// when `expire` catches it after the deadline has already passed.
    pub fn shed_unmeetable(&mut self, now: f64, step_floor_s: f64) -> Vec<RequestId> {
        if step_floor_s <= 0.0 {
            return Vec::new();
        }
        let mut shed = Vec::new();
        self.entries.retain(|e| match e.deadline {
            Some(d) if d < now + f64::from(e.cost) * step_floor_s => {
                shed.push(e.id);
                false
            }
            _ => true,
        });
        shed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> AdmissionQueue {
        AdmissionQueue::new(8, 1234)
    }

    const K: CompatKey = CompatKey(1);

    #[test]
    fn priority_beats_deadline_beats_tie() {
        let mut q = q();
        q.push(RequestId(0), K, 0, Some(0.1), TenantId(0), 1)
            .unwrap();
        q.push(RequestId(1), K, 5, None, TenantId(0), 1).unwrap();
        q.push(RequestId(2), K, 5, Some(9.0), TenantId(0), 1)
            .unwrap();
        assert_eq!(
            q.pop_best().unwrap().0,
            RequestId(2),
            "earliest deadline among top priority"
        );
        assert_eq!(q.pop_best().unwrap().0, RequestId(1));
        assert_eq!(q.pop_best().unwrap().0, RequestId(0));
        assert!(q.pop_best().is_none());
    }

    #[test]
    fn tie_break_is_seeded_and_deterministic() {
        let order = |seed: u64| {
            let mut q = AdmissionQueue::new(8, seed);
            for id in 0..6 {
                q.push(RequestId(id), K, 1, None, TenantId(0), 1).unwrap();
            }
            let mut out = Vec::new();
            while let Some((id, _)) = q.pop_best() {
                out.push(id.0);
            }
            out
        };
        assert_eq!(order(7), order(7), "same seed, same schedule");
        assert_ne!(order(7), order(8), "different seed breaks ties differently");
    }

    #[test]
    fn backpressure_sheds_typed() {
        let mut q = AdmissionQueue::new(2, 0);
        q.push(RequestId(0), K, 0, None, TenantId(0), 1).unwrap();
        q.push(RequestId(1), K, 0, None, TenantId(0), 1).unwrap();
        assert_eq!(
            q.push(RequestId(2), K, 0, None, TenantId(0), 1),
            Err(AdmitError::ShedLoad {
                queued: 2,
                capacity: 2
            })
        );
    }

    #[test]
    fn keyed_pop_and_expiry() {
        let mut q = q();
        q.push(RequestId(0), CompatKey(1), 0, None, TenantId(0), 1)
            .unwrap();
        q.push(RequestId(1), CompatKey(2), 9, None, TenantId(0), 1)
            .unwrap();
        q.push(RequestId(2), CompatKey(1), 1, Some(0.5), TenantId(0), 1)
            .unwrap();
        assert_eq!(q.pop_best_for(CompatKey(1)), Some(RequestId(2)));
        assert_eq!(q.pop_best_for(CompatKey(3)), None);
        assert_eq!(q.expire(1.0), Vec::<RequestId>::new(), "already popped");
        q.push(RequestId(3), CompatKey(1), 0, Some(0.25), TenantId(0), 1)
            .unwrap();
        assert_eq!(q.expire(1.0), vec![RequestId(3)]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn tenant_share_sheds_before_global_capacity() {
        let policy = TenantPolicy::new(&[(1, 0.25), (1, 1.0)], 8, 8);
        let mut q = AdmissionQueue::new(8, 0).with_policy(policy);
        // 25% of 8 = 2 entries for tenant 0
        q.push(RequestId(0), K, 0, None, TenantId(0), 1).unwrap();
        q.push(RequestId(1), K, 0, None, TenantId(0), 1).unwrap();
        assert_eq!(
            q.push(RequestId(2), K, 0, None, TenantId(0), 1),
            Err(AdmitError::TenantShed {
                tenant: TenantId(0),
                queued: 2,
                share: 2
            })
        );
        // tenant 1 still has the rest of the queue
        for id in 3..9 {
            q.push(RequestId(id), K, 0, None, TenantId(1), 1).unwrap();
        }
        assert!(matches!(
            q.push(RequestId(9), K, 0, None, TenantId(1), 1),
            Err(AdmitError::ShedLoad { .. })
        ));
    }

    #[test]
    fn drr_shares_track_weights() {
        // tenant 0 weight 3, tenant 1 weight 1; equal unit costs → pops
        // alternate 3:1 over any window once deficits stabilize
        let policy = TenantPolicy::new(&[(3, 1.0), (1, 1.0)], 1, 64);
        let mut q = AdmissionQueue::new(64, 7).with_policy(policy);
        for id in 0..48 {
            let t = TenantId((id % 2) as u32);
            q.push(RequestId(id), K, 0, None, t, 1).unwrap();
        }
        let mut served = [0usize; 2];
        for _ in 0..32 {
            let (id, _) = q.pop_best().unwrap();
            served[(id.0 % 2) as usize] += 1;
        }
        let share = served[0] as f64 / 32.0;
        assert!(
            (share - 0.75).abs() <= 0.1,
            "tenant 0 served {share:.2}, want 0.75 ± 0.1"
        );
    }

    #[test]
    fn exhausted_budgets_are_skipped_not_starved() {
        let policy = TenantPolicy::new(&[(1, 1.0), (1, 1.0)], 8, 8);
        let mut q = AdmissionQueue::new(8, 0).with_policy(policy);
        q.push(RequestId(0), K, 9, None, TenantId(0), 1).unwrap();
        q.push(RequestId(1), K, 9, None, TenantId(0), 1).unwrap();
        q.push(RequestId(2), K, 0, None, TenantId(1), 1).unwrap();
        // tenant 0 may take exactly one slot this boundary
        q.set_budgets(vec![1, usize::MAX]);
        let first = q.pop_best().unwrap().0;
        assert!(
            first == RequestId(0) || first == RequestId(1),
            "tenant 0 outranks tenant 1 while it has budget"
        );
        assert_eq!(
            q.pop_best().unwrap().0,
            RequestId(2),
            "budget-exhausted tenant 0 must yield despite higher priority"
        );
        // fresh boundary, fresh budget: tenant 0's other request runs
        q.set_budgets(vec![1, usize::MAX]);
        let third = q.pop_best().unwrap().0;
        assert_ne!(third, first);
        assert!(third == RequestId(0) || third == RequestId(1));
    }

    #[test]
    fn unmeetable_deadlines_shed_early() {
        let mut q = q();
        // 4 steps × floor 1.0 s/step = needs 4 s; deadline at t=2 is
        // provably unmeetable at now=0 even though not yet expired
        q.push(RequestId(0), K, 0, Some(2.0), TenantId(0), 4)
            .unwrap();
        // 1 step × 1.0 s fits the same deadline
        q.push(RequestId(1), K, 0, Some(2.0), TenantId(0), 1)
            .unwrap();
        // no deadline → never shed
        q.push(RequestId(2), K, 0, None, TenantId(0), 64).unwrap();
        assert_eq!(q.shed_unmeetable(0.0, 1.0), vec![RequestId(0)]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.shed_unmeetable(0.0, 0.0), Vec::<RequestId>::new());
    }

    #[test]
    fn drr_state_round_trips() {
        let policy = TenantPolicy::new(&[(2, 1.0), (1, 1.0)], 4, 16);
        let mut q = AdmissionQueue::new(16, 3).with_policy(policy.clone());
        for id in 0..8 {
            q.push(RequestId(id), K, 0, None, TenantId((id % 2) as u32), 3)
                .unwrap();
        }
        q.pop_best().unwrap();
        q.pop_best().unwrap();
        let snap = q.snapshot();
        let drr = q.drr_state().clone();

        let mut r = AdmissionQueue::new(16, 3).with_policy(policy);
        r.restore(snap);
        r.restore_drr(drr);
        let rest: Vec<u64> = std::iter::from_fn(|| r.pop_best())
            .map(|(id, _)| id.0)
            .collect();
        let orig: Vec<u64> = std::iter::from_fn(|| q.pop_best())
            .map(|(id, _)| id.0)
            .collect();
        assert_eq!(rest, orig, "restored DRR replays the same schedule");
    }
}
