//! The committed metric-name registry.
//!
//! Every metric name used anywhere in the workspace is declared exactly
//! once in [`METRICS`], together with its kind. The `cargo xtask analyze`
//! metric-names pass parses this table textually and fails CI on a
//! duplicate declaration or on a registry call site
//! (`.inc("...")` / `.gauge_set("...")` / `.observe("...")` /
//! `.merge_histogram("...")`) whose literal name is not declared here.
//! Keeping the table in one file makes renames reviewable and the
//! Prometheus page's vocabulary diffable across PRs.
//!
//! Naming convention: `<layer>_<quantity>[_<unit>][_total]`, with `_total`
//! reserved for monotonic counters and `_s` for seconds, following the
//! Prometheus naming guide.

/// `(name, kind)` for every declared metric. Kinds are `"counter"`,
/// `"gauge"` or `"histogram"`.
pub const METRICS: &[(&str, &str)] = &[
    // core driver phase timers (modeled seconds per step, per lane kind)
    ("core_phase_cpu_s", "histogram"),
    ("core_phase_gpu_s", "histogram"),
    ("core_phase_link_s", "histogram"),
    // core driver totals
    ("core_steps_total", "counter"),
    ("core_flops_total", "counter"),
    ("core_bytes_total", "counter"),
    ("core_recoveries_total", "counter"),
    ("core_ckpt_writes_total", "counter"),
    ("core_ckpt_restores_total", "counter"),
    // silent-data-corruption defense: detections and completed recoveries
    ("core_sdc_detected_total", "counter"),
    ("core_sdc_recovered_total", "counter"),
    // adaptive snapshot window currently in force
    ("core_window_s", "gauge"),
    // serving layer counters (mirror the ServeStats JSON fields)
    ("serve_requests_admitted_total", "counter"),
    ("serve_requests_completed_total", "counter"),
    ("serve_requests_failed_total", "counter"),
    ("serve_requests_evicted_total", "counter"),
    ("serve_requests_rejected_total", "counter"),
    ("serve_requests_shed_total", "counter"),
    ("serve_watchdog_breaches_total", "counter"),
    ("serve_watchdog_restarts_total", "counter"),
    // multi-tenant QoS: early (provably-unmeetable) sheds, requests that
    // missed their deadline or their tenant's SLO target, lane-scaling
    // events taken by the autoscaler
    ("serve_shed_early_total", "counter"),
    ("serve_deadline_miss_total", "counter"),
    ("serve_slo_miss_total", "counter"),
    ("serve_autoscale_events_total", "counter"),
    // cluster serving layer: node loss, restart-on-peer failover,
    // cross-node work stealing and replica mirroring
    ("serve_node_crashes_total", "counter"),
    ("serve_failovers_total", "counter"),
    ("serve_requests_stolen_total", "counter"),
    ("serve_replica_writes_total", "counter"),
    ("serve_replica_skipped_total", "counter"),
    // serving-layer SDC ladder: detections, lane restarts and evictions
    // forced by persistent corruption
    ("serve_sdc_detected_total", "counter"),
    ("serve_sdc_restarts_total", "counter"),
    ("serve_sdc_evictions_total", "counter"),
    // serving layer gauges
    ("serve_queue_depth", "gauge"),
    ("serve_lane_occupancy", "gauge"),
    ("serve_lanes", "gauge"),
    ("serve_tenants", "gauge"),
    ("serve_elapsed_s", "gauge"),
    ("serve_shards", "gauge"),
    ("serve_link_time_s", "gauge"),
    // end-to-end queue-to-done latency (modeled seconds)
    ("serve_request_latency_s", "histogram"),
    // modeled seconds from node loss to the shard serving again on a peer
    ("serve_failover_recovery_s", "histogram"),
    // modeled seconds from corruption detection to the lane serving again
    ("serve_sdc_recovery_s", "histogram"),
    // flight-recorder ring overflow
    ("flight_events_dropped_total", "counter"),
];

/// Kind of a declared metric, or `None` if the name is not registered.
pub fn kind_of(name: &str) -> Option<&'static str> {
    METRICS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, kind)| *kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_no_duplicates_and_only_known_kinds() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, kind) in METRICS {
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(
                matches!(*kind, "counter" | "gauge" | "histogram"),
                "unknown kind {kind} for {name}"
            );
        }
    }

    #[test]
    fn naming_convention_holds() {
        for (name, kind) in METRICS {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c == '_' || c.is_ascii_digit()),
                "{name} must be snake_case ascii"
            );
            if *kind == "counter" {
                assert!(
                    name.ends_with("_total"),
                    "counter {name} must end in _total"
                );
            } else {
                assert!(!name.ends_with("_total"), "{name} is not a counter");
            }
        }
    }

    #[test]
    fn kind_of_resolves_declared_names_only() {
        assert_eq!(kind_of("core_steps_total"), Some("counter"));
        assert_eq!(kind_of("serve_request_latency_s"), Some("histogram"));
        assert_eq!(kind_of("not_a_metric"), None);
    }
}
