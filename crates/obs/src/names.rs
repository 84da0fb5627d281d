//! The committed metric-name registry.
//!
//! Every metric the workspace writes is declared exactly once below, as a
//! constant of its kind: a [`Counter`], a [`Gauge`] or a [`Histogram`].
//! The name types' fields are private to this crate, so no other crate
//! can make up a name, and each [`MetricsRegistry`](crate::MetricsRegistry)
//! method takes the kind it writes: a typo'd name or a name used as the
//! wrong kind does not compile. Keeping the table in one file makes
//! renames reviewable and the Prometheus page's vocabulary diffable.
//!
//! Naming convention: `<layer>_<quantity>[_<unit>][_total]`, with `_total`
//! reserved for monotonic counters and `_s` for seconds, following the
//! Prometheus naming guide.
//!
//! A declared name is written through the method of its kind:
//!
//! ```
//! use hetsolve_obs::{names, MetricsRegistry};
//! let mut r = MetricsRegistry::new();
//! r.inc(names::CORE_STEPS_TOTAL, 1.0);
//! assert_eq!(r.counter(names::CORE_STEPS_TOTAL), 1.0);
//! ```
//!
//! A name cannot be made outside this crate:
//!
//! ```compile_fail
//! let typo = hetsolve_obs::names::Counter("core_setps_total");
//! ```
//!
//! and a gauge is not a counter:
//!
//! ```compile_fail
//! let mut r = hetsolve_obs::MetricsRegistry::new();
//! r.inc(hetsolve_obs::names::SERVE_QUEUE_DEPTH, 1.0);
//! ```

/// Name of a monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Counter(&'static str);

/// Name of a gauge (last write wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Gauge(&'static str);

/// Name of a log-bucketed histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Histogram(&'static str);

impl Counter {
    /// The exported series name.
    pub(crate) const fn as_str(self) -> &'static str {
        self.0
    }
}

impl Gauge {
    /// The exported series name.
    pub(crate) const fn as_str(self) -> &'static str {
        self.0
    }
}

impl Histogram {
    /// The exported series name.
    pub(crate) const fn as_str(self) -> &'static str {
        self.0
    }
}

macro_rules! metrics {
    ($($kind:ident $ident:ident = $name:literal;)*) => {
        $(pub const $ident: $kind = $kind($name);)*

        /// `(name, kind)` for every declared metric, in declaration order:
        /// what the tests below check the whole table through.
        #[cfg(test)]
        const ALL: &[(&str, &str)] = &[$(($name, stringify!($kind))),*];
    };
}

metrics! {
    // core driver phase timers (modeled seconds per step, per lane kind)
    Histogram CORE_PHASE_CPU_S = "core_phase_cpu_s";
    Histogram CORE_PHASE_GPU_S = "core_phase_gpu_s";
    Histogram CORE_PHASE_LINK_S = "core_phase_link_s";
    // core driver totals
    Counter CORE_STEPS_TOTAL = "core_steps_total";
    Counter CORE_FLOPS_TOTAL = "core_flops_total";
    Counter CORE_BYTES_TOTAL = "core_bytes_total";
    Counter CORE_RECOVERIES_TOTAL = "core_recoveries_total";
    Counter CORE_CKPT_WRITES_TOTAL = "core_ckpt_writes_total";
    Counter CORE_CKPT_RESTORES_TOTAL = "core_ckpt_restores_total";
    // silent-data-corruption defense: detections and completed recoveries
    Counter CORE_SDC_DETECTED_TOTAL = "core_sdc_detected_total";
    Counter CORE_SDC_RECOVERED_TOTAL = "core_sdc_recovered_total";
    // adaptive snapshot window currently in force
    Gauge CORE_WINDOW_S = "core_window_s";
    // serving layer counters (mirror the ServeStats JSON fields)
    Counter SERVE_REQUESTS_ADMITTED_TOTAL = "serve_requests_admitted_total";
    Counter SERVE_REQUESTS_COMPLETED_TOTAL = "serve_requests_completed_total";
    Counter SERVE_REQUESTS_FAILED_TOTAL = "serve_requests_failed_total";
    Counter SERVE_REQUESTS_EVICTED_TOTAL = "serve_requests_evicted_total";
    Counter SERVE_REQUESTS_REJECTED_TOTAL = "serve_requests_rejected_total";
    Counter SERVE_REQUESTS_SHED_TOTAL = "serve_requests_shed_total";
    Counter SERVE_WATCHDOG_BREACHES_TOTAL = "serve_watchdog_breaches_total";
    Counter SERVE_WATCHDOG_RESTARTS_TOTAL = "serve_watchdog_restarts_total";
    // multi-tenant QoS: early (provably-unmeetable) sheds, requests that
    // missed their deadline or their tenant's SLO target, lane-scaling
    // events taken by the autoscaler
    Counter SERVE_SHED_EARLY_TOTAL = "serve_shed_early_total";
    Counter SERVE_DEADLINE_MISS_TOTAL = "serve_deadline_miss_total";
    Counter SERVE_SLO_MISS_TOTAL = "serve_slo_miss_total";
    Counter SERVE_AUTOSCALE_EVENTS_TOTAL = "serve_autoscale_events_total";
    // cluster serving layer: node loss, restart-on-peer failover,
    // cross-node work stealing and replica mirroring
    Counter SERVE_NODE_CRASHES_TOTAL = "serve_node_crashes_total";
    Counter SERVE_FAILOVERS_TOTAL = "serve_failovers_total";
    Counter SERVE_REQUESTS_STOLEN_TOTAL = "serve_requests_stolen_total";
    Counter SERVE_REPLICA_WRITES_TOTAL = "serve_replica_writes_total";
    Counter SERVE_REPLICA_SKIPPED_TOTAL = "serve_replica_skipped_total";
    // serving-layer SDC ladder: detections, lane restarts and evictions
    // forced by persistent corruption
    Counter SERVE_SDC_DETECTED_TOTAL = "serve_sdc_detected_total";
    Counter SERVE_SDC_RESTARTS_TOTAL = "serve_sdc_restarts_total";
    Counter SERVE_SDC_EVICTIONS_TOTAL = "serve_sdc_evictions_total";
    // serving layer gauges
    Gauge SERVE_QUEUE_DEPTH = "serve_queue_depth";
    Gauge SERVE_LANE_OCCUPANCY = "serve_lane_occupancy";
    Gauge SERVE_LANES = "serve_lanes";
    Gauge SERVE_TENANTS = "serve_tenants";
    Gauge SERVE_ELAPSED_S = "serve_elapsed_s";
    Gauge SERVE_SHARDS = "serve_shards";
    Gauge SERVE_LINK_TIME_S = "serve_link_time_s";
    // end-to-end queue-to-done latency (modeled seconds)
    Histogram SERVE_REQUEST_LATENCY_S = "serve_request_latency_s";
    // modeled seconds from node loss to the shard serving again on a peer
    Histogram SERVE_FAILOVER_RECOVERY_S = "serve_failover_recovery_s";
    // modeled seconds from corruption detection to the lane serving again
    Histogram SERVE_SDC_RECOVERY_S = "serve_sdc_recovery_s";
    // flight-recorder ring overflow
    Counter FLIGHT_EVENTS_DROPPED_TOTAL = "flight_events_dropped_total";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_no_duplicates_and_only_known_kinds() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, kind) in ALL {
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(
                matches!(*kind, "Counter" | "Gauge" | "Histogram"),
                "unknown kind {kind} for {name}"
            );
        }
    }

    #[test]
    fn naming_convention_holds() {
        for (name, kind) in ALL {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit()),
                "{name} must be snake_case ascii"
            );
            if *kind == "Counter" {
                assert!(
                    name.ends_with("_total"),
                    "counter {name} must end in _total"
                );
            } else {
                assert!(!name.ends_with("_total"), "{name} is not a counter");
            }
        }
    }
}
