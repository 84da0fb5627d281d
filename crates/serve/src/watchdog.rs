//! Deadline-based lane supervision with an escalation ladder.
//!
//! Each server tick, the watchdog compares every occupied lane's modeled
//! step time against [`WatchdogConfig::step_deadline_s`]. A healthy step
//! clears the lane's breach counter; consecutive breaches escalate:
//!
//! 1. **Retry with backoff** — up to [`WatchdogConfig::max_retries`]
//!    times, charging `backoff_base_s · factor^(breach-1)` of link stall
//!    to the modeled clock (the cost of waiting out a stalled exchange),
//! 2. **Restart from checkpoint** — roll the lane's columns back to the
//!    last in-memory lane checkpoint and continue,
//! 3. **Evict** — free the lane, marking every column `Evicted` with
//!    [`EvictReason::Watchdog`](crate::request::EvictReason::Watchdog).
//!
//! Every decision is logged as a [`WatchdogEvent`] carrying both the
//! modeled tick and an injectable wall-clock stamp
//! ([`hetsolve_machine::WallClock`]), so chaos tests drive the whole
//! ladder deterministically with a
//! [`ManualClock`](hetsolve_machine::ManualClock).

/// Watchdog tuning for one server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// A lane step taking longer than this (modeled s) is a breach.
    pub step_deadline_s: f64,
    /// Breaches tolerated as retries before escalating to a restart.
    pub max_retries: u32,
    /// Link stall charged for the first retry (modeled s).
    pub backoff_base_s: f64,
    /// Multiplier on the stall per additional consecutive breach.
    pub backoff_factor: f64,
}

impl WatchdogConfig {
    /// Deadline with the default ladder: 2 retries, 1 ms base backoff
    /// doubling per breach.
    pub fn new(step_deadline_s: f64) -> Self {
        WatchdogConfig {
            step_deadline_s,
            max_retries: 2,
            backoff_base_s: 1e-3,
            backoff_factor: 2.0,
        }
    }

    /// Link stall charged for consecutive breach number `breach` (1-based).
    pub(crate) fn backoff_s(&self, breach: u32) -> f64 {
        self.backoff_base_s * self.backoff_factor.powi(breach.saturating_sub(1) as i32)
    }
}

/// What the watchdog did about a breach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WatchdogAction {
    /// Waited out the stall, charging `backoff_s` to the link lane.
    Retry { backoff_s: f64 },
    /// Rolled the lane back to its last checkpoint; `restored` columns
    /// were rebuilt.
    RestartLane { restored: usize },
    /// Gave up on the lane; `evicted` requests were marked
    /// `Evicted`/`Watchdog`.
    EvictLane { evicted: usize },
}

impl WatchdogAction {
    pub fn label(&self) -> &'static str {
        match self {
            WatchdogAction::Retry { .. } => "retry",
            WatchdogAction::RestartLane { .. } => "restart_lane",
            WatchdogAction::EvictLane { .. } => "evict_lane",
        }
    }
}

/// One supervision decision, for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogEvent {
    /// Server tick the breach was detected at.
    pub tick: usize,
    /// Lane supervised.
    pub lane: usize,
    /// Consecutive-breach count that triggered this action (1-based).
    pub breach: u32,
    /// How far past the deadline the step ran (modeled s).
    pub overrun_s: f64,
    /// Injectable wall-clock stamp (s) — deterministic under a
    /// `ManualClock`.
    pub wall_s: f64,
    pub action: WatchdogAction,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially() {
        let wd = WatchdogConfig::new(0.5);
        assert_eq!(wd.backoff_s(1), 1e-3);
        assert_eq!(wd.backoff_s(2), 2e-3);
        assert_eq!(wd.backoff_s(3), 4e-3);
    }

    #[test]
    fn labels() {
        assert_eq!(WatchdogAction::Retry { backoff_s: 0.0 }.label(), "retry");
        assert_eq!(
            WatchdogAction::RestartLane { restored: 1 }.label(),
            "restart_lane"
        );
        assert_eq!(
            WatchdogAction::EvictLane { evicted: 2 }.label(),
            "evict_lane"
        );
    }
}
