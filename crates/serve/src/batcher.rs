//! Fused-lane batching: pack compatible queued requests into the vacant
//! columns of r-wide multi-RHS lanes.
//!
//! A *lane* is one process set's fused MCG solve: `width` columns that
//! iterate together under a single `CgConfig`. Cases may share a lane only
//! when they are *compatible* — same backend (mesh/operator/Δt, a given
//! for one server) and bit-identical solver tolerance, summarized as a
//! [`CompatKey`]. The batcher owns only ids and geometry (which request
//! sits in which slot); it never touches numerics, which is what makes it
//! a pure, property-testable core:
//!
//! * a lane never holds two different keys at once,
//! * a lane never exceeds its width,
//! * backfill assigns in scheduling order (priority/deadline/tie),
//! * backfill writes only vacant slots — in-flight columns never move.
//!
//! [`BatchPolicy::Continuous`] backfills any vacant slot at every step
//! boundary (continuous batching); [`BatchPolicy::DrainThenRefill`] is the
//! baseline that refills a lane only after *all* its columns finish — the
//! bench comparison that shows why continuous batching wins (a fused EBE
//! kernel costs the same at any occupancy, so a draining lane wastes GPU
//! time on vacant columns).

use crate::queue::AdmissionQueue;
use crate::request::RequestId;

/// Compatibility class of a request: cases with equal keys may share a
/// fused lane. For a single-backend server this is the effective solver
/// tolerance, compared by bit pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompatKey(pub u64);

hetsolve_ckpt::wire_newtype!(CompatKey(u64));

impl CompatKey {
    pub(crate) fn from_tol(tol: f64) -> Self {
        CompatKey(tol.to_bits())
    }

    pub(crate) fn tol(&self) -> f64 {
        f64::from_bits(self.0)
    }
}

/// When vacant lane slots are refilled from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchPolicy {
    /// Backfill any vacant slot at every step boundary.
    #[default]
    Continuous,
    /// Refill a lane only once every one of its columns has finished
    /// (the drain-then-refill baseline).
    DrainThenRefill,
}

/// One slot filled by [`Batcher::backfill`], in assignment order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    pub lane: usize,
    pub slot: usize,
    pub id: RequestId,
}

#[derive(Debug, Clone)]
struct Lane {
    /// Compatibility key of the current occupants; `None` when empty.
    key: Option<CompatKey>,
    slots: Vec<Option<RequestId>>,
}

impl Lane {
    fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }
}

/// The lane packer.
#[derive(Debug, Clone)]
pub struct Batcher {
    lanes: Vec<Lane>,
    width: usize,
    policy: BatchPolicy,
    /// Lanes ≥ this index are draining for scale-down: backfill skips
    /// them, so they empty naturally and can be removed at a step
    /// boundary. `None` = no drain in progress.
    draining_from: Option<usize>,
}

impl Batcher {
    pub fn new(n_lanes: usize, width: usize, policy: BatchPolicy) -> Self {
        Batcher {
            lanes: (0..n_lanes.max(1))
                .map(|_| Lane {
                    key: None,
                    slots: vec![None; width.max(1)],
                })
                .collect(),
            width: width.max(1),
            policy,
            draining_from: None,
        }
    }

    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Append one empty lane (autoscale scale-up at a step boundary).
    /// Returns the new lane's index.
    pub(crate) fn add_lane(&mut self) -> usize {
        self.lanes.push(Lane {
            key: None,
            slots: vec![None; self.width],
        });
        self.lanes.len() - 1
    }

    /// Mark the highest lane as draining (autoscale scale-down): backfill
    /// stops feeding it, in-flight columns keep running untouched.
    pub(crate) fn drain_last(&mut self) {
        self.draining_from = Some(self.lanes.len().saturating_sub(1));
    }

    /// Cancel a pending drain (scale-up pressure returned first).
    pub(crate) fn cancel_drain(&mut self) {
        self.draining_from = None;
    }

    /// Remove the highest lane. Panics if it still holds work — the
    /// autoscaler only removes a drained (empty) lane, so a non-empty
    /// removal is a scheduling bug, not a runtime condition.
    pub(crate) fn remove_last_lane(&mut self) {
        assert!(self.lanes.len() > 1, "cannot remove the only lane");
        #[allow(clippy::expect_used, reason = "len > 1 asserted above")]
        let last = self.lanes.last().expect("non-empty lane vec");
        assert!(last.is_empty(), "removing a lane that still holds work");
        self.lanes.pop();
        self.draining_from = None;
    }

    pub fn width(&self) -> usize {
        self.width
    }

    /// Compatibility key of lane `lane`'s occupants (`None` when empty).
    pub fn lane_key(&self, lane: usize) -> Option<CompatKey> {
        self.lanes[lane].key
    }

    /// Request occupying slot `slot` of lane `lane`.
    pub fn slot(&self, lane: usize, slot: usize) -> Option<RequestId> {
        self.lanes[lane].slots[slot]
    }

    /// Occupied columns of lane `lane`.
    pub fn occupied_count(&self, lane: usize) -> usize {
        self.lanes[lane].slots.iter().flatten().count()
    }

    /// Every lane is empty.
    pub fn is_idle(&self) -> bool {
        self.lanes.iter().all(Lane::is_empty)
    }

    /// Vacate one slot (its case finished, failed, or was evicted). An
    /// emptied lane drops its key and may take any compatibility class on
    /// the next backfill.
    pub fn free(&mut self, lane: usize, slot: usize) {
        self.lanes[lane].slots[slot] = None;
        if self.lanes[lane].is_empty() {
            self.lanes[lane].key = None;
        }
    }

    /// Place `id` directly into a vacant slot during checkpoint restore,
    /// bypassing the queue. Panics on an occupied slot or a key conflict —
    /// a checkpoint that violates the lane invariants is a bug, not data.
    pub(crate) fn restore_slot(&mut self, lane: usize, slot: usize, id: RequestId, key: CompatKey) {
        let l = &mut self.lanes[lane];
        assert!(l.slots[slot].is_none(), "restore into occupied slot");
        assert!(
            l.key.is_none() || l.key == Some(key),
            "restore key conflicts with lane key"
        );
        l.key = Some(key);
        l.slots[slot] = Some(id);
    }

    /// Fill vacant slots from the queue per the policy. Pops follow the
    /// queue's scheduling order; an empty lane adopts the key of the best
    /// request overall, an occupied lane only accepts its own key. Occupied
    /// slots are never written. Returns the assignments made, in order.
    pub fn backfill(&mut self, queue: &mut AdmissionQueue) -> Vec<Assignment> {
        let mut out = Vec::new();
        let draining_from = self.draining_from;
        for (li, lane) in self.lanes.iter_mut().enumerate() {
            if draining_from.is_some_and(|d| li >= d) {
                // scale-down in progress: let this lane empty out
                continue;
            }
            let empty = lane.is_empty();
            if empty {
                lane.key = None;
            } else if self.policy == BatchPolicy::DrainThenRefill {
                continue;
            }
            for si in 0..lane.slots.len() {
                if lane.slots[si].is_some() {
                    continue;
                }
                let popped = match lane.key {
                    Some(k) => queue.pop_best_for(k).map(|id| (id, k)),
                    None => queue.pop_best(),
                };
                let Some((id, key)) = popped else {
                    // no (compatible) work left for this lane
                    break;
                };
                lane.key = Some(key);
                lane.slots[si] = Some(id);
                out.push(Assignment {
                    lane: li,
                    slot: si,
                    id,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::request::TenantId;

    fn queue_with(ids: &[(u64, u64, u8)]) -> AdmissionQueue {
        // (id, key, priority)
        let mut q = AdmissionQueue::new(64, 42);
        for &(id, key, prio) in ids {
            q.push(RequestId(id), CompatKey(key), prio, None, TenantId(0), 1)
                .unwrap();
        }
        q
    }

    #[test]
    fn continuous_backfills_vacant_slots_in_place() {
        let mut b = Batcher::new(1, 3, BatchPolicy::Continuous);
        // distinct priorities pin the pop order: 0, 1, 2, then 3
        let mut q = queue_with(&[(0, 1, 9), (1, 1, 8), (2, 1, 7), (3, 1, 6)]);
        let a = b.backfill(&mut q);
        assert_eq!(a.len(), 3);
        assert_eq!(b.occupied_count(0), 3);
        // finish the middle column; only that slot refills
        b.free(0, 1);
        let a = b.backfill(&mut q);
        assert_eq!(
            a,
            vec![Assignment {
                lane: 0,
                slot: 1,
                id: RequestId(3)
            }]
        );
        assert_eq!(
            b.slot(0, 0),
            Some(RequestId(0)),
            "in-flight column untouched"
        );
    }

    #[test]
    fn drain_then_refill_waits_for_empty_lane() {
        let mut b = Batcher::new(1, 2, BatchPolicy::DrainThenRefill);
        let mut q = queue_with(&[(0, 1, 0), (1, 1, 0), (2, 1, 0)]);
        b.backfill(&mut q);
        b.free(0, 0);
        assert!(b.backfill(&mut q).is_empty(), "lane still draining");
        b.free(0, 1);
        assert_eq!(b.backfill(&mut q).len(), 1, "refills once empty");
    }

    #[test]
    fn incompatible_keys_never_share_a_lane() {
        let mut b = Batcher::new(1, 4, BatchPolicy::Continuous);
        let mut q = queue_with(&[(0, 1, 1), (1, 2, 9), (2, 1, 0)]);
        // highest priority (key 2) seeds the empty lane; key-1 requests wait
        let a = b.backfill(&mut q);
        assert_eq!(a.len(), 1);
        assert_eq!(b.lane_key(0), Some(CompatKey(2)));
        assert_eq!(q.len(), 2);
        // lane empties -> key clears -> other class gets its turn
        b.free(0, 0);
        let a = b.backfill(&mut q);
        assert_eq!(a.len(), 2);
        assert_eq!(b.lane_key(0), Some(CompatKey(1)));
    }

    #[test]
    fn key_from_tol_roundtrips() {
        let k = CompatKey::from_tol(1e-8);
        assert_eq!(k.tol(), 1e-8);
        assert_ne!(k, CompatKey::from_tol(1e-6));
    }

    #[test]
    fn draining_lane_is_skipped_then_removed() {
        let mut b = Batcher::new(2, 2, BatchPolicy::Continuous);
        let mut q = queue_with(&[(0, 1, 9), (1, 1, 8), (2, 1, 7), (3, 1, 6)]);
        b.backfill(&mut q);
        assert_eq!(b.occupied_count(0) + b.occupied_count(1), 4);
        b.drain_last();
        assert_eq!(b.draining_from, Some(1), "only lane 1 drains");
        // free lane 1's columns; backfill must not refill them
        b.free(1, 0);
        b.free(1, 1);
        let mut q2 = queue_with(&[(9, 1, 5)]);
        let a = b.backfill(&mut q2);
        assert!(
            a.iter().all(|x| x.lane != 1),
            "draining lane must not be backfilled"
        );
        b.remove_last_lane();
        assert_eq!(b.n_lanes(), 1);
        assert_eq!(b.draining_from, None, "drain mark clears on removal");
        // scale back up: new empty lane takes work again
        assert_eq!(b.add_lane(), 1);
        let a = b.backfill(&mut q2);
        assert!(a.iter().any(|x| x.lane == 1) || q2.is_empty());
    }

    #[test]
    #[should_panic(expected = "still holds work")]
    fn removing_an_occupied_lane_panics() {
        let mut b = Batcher::new(2, 2, BatchPolicy::Continuous);
        let mut q = queue_with(&[(0, 1, 9), (1, 1, 8), (2, 1, 7)]);
        b.backfill(&mut q);
        b.remove_last_lane();
    }
}
