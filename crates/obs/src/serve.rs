//! Serving-layer metrics: queue depth, fused-lane occupancy, request
//! latency.
//!
//! The serving layer's throughput claim — continuous batching beats
//! drain-then-refill because it keeps the fused lanes full — is a claim
//! about *occupancy over time*, so [`ServeStats`] samples the queue and
//! every lane at each scheduling boundary and aggregates modeled
//! end-to-end latencies per request. The summary JSON becomes a
//! `serve` section of the bench snapshot (`BENCH_<n>.json`), giving the
//! ROADMAP's perf trajectory lane-occupancy and queue-latency columns.

use hetsolve_ckpt::{CkptError, Dec, Enc, Wire};

use crate::json::Json;
use crate::registry::{LogHistogram, MetricsRegistry};

/// Per-tenant serving outcomes: the QoS layer's accounting unit. One
/// entry exists per tenant id that was ever observed (dense ids expected;
/// the vec grows to cover the largest). Checkpointed with [`ServeStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// Tenant id this row accounts for.
    pub tenant: u32,
    pub completed: u64,
    pub rejected: u64,
    pub shed: u64,
    pub evicted: u64,
    /// Requests that missed their deadline: expired while queued, shed as
    /// provably unmeetable, or completed past the deadline.
    pub deadline_miss: u64,
    /// Completions slower than the tenant's configured SLO target.
    pub slo_miss: u64,
    /// Case steps served to completion (the DRR fair-share currency —
    /// fairness is measured in served work, not request count).
    pub served_steps: u64,
    /// Admit→done latency histogram for this tenant alone (tail
    /// percentiles per tenant are the QoS report's headline numbers).
    pub latency: LogHistogram,
}

hetsolve_ckpt::wire_struct!(TenantStats {
    tenant,
    completed,
    rejected,
    shed,
    evicted,
    deadline_miss,
    slo_miss,
    served_steps,
    latency,
});

impl TenantStats {
    pub fn new(tenant: u32) -> Self {
        TenantStats {
            tenant,
            ..Default::default()
        }
    }

    /// This tenant's latency percentile (same bucket error bound as the
    /// aggregate histogram).
    pub fn latency_percentile(&self, p: f64) -> f64 {
        self.latency.quantile(p)
    }

    fn merge(&mut self, other: &TenantStats) {
        self.completed += other.completed;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.evicted += other.evicted;
        self.deadline_miss += other.deadline_miss;
        self.slo_miss += other.slo_miss;
        self.served_steps += other.served_steps;
        self.latency.merge(&other.latency);
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tenant", Json::from(self.tenant as usize)),
            ("completed", Json::from(self.completed as usize)),
            ("rejected", Json::from(self.rejected as usize)),
            ("shed", Json::from(self.shed as usize)),
            ("evicted", Json::from(self.evicted as usize)),
            ("deadline_miss", Json::from(self.deadline_miss as usize)),
            ("slo_miss", Json::from(self.slo_miss as usize)),
            ("served_steps", Json::from(self.served_steps as usize)),
            ("latency_p50_s", Json::Num(self.latency_percentile(0.5))),
            ("latency_p99_s", Json::Num(self.latency_percentile(0.99))),
            ("latency_max_s", Json::Num(self.latency_percentile(1.0))),
        ])
    }
}

/// Counters and samples collected by a serving run.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Queue depth sampled at each scheduling boundary.
    queue_depth: Vec<usize>,
    /// Occupied slots sampled per lane per boundary, with the lane width.
    occupancy: Vec<(usize, usize)>,
    /// Modeled admit→done latency (s) per completed request, aggregated
    /// into a fixed-size log-bucketed histogram: memory is constant no
    /// matter how many requests complete, and percentiles are an
    /// O(buckets) walk with the ≤ 19% bucket error bound documented in
    /// [`crate::registry`] (min/max stay exact).
    latency: LogHistogram,
    completed: usize,
    failed: usize,
    evicted: usize,
    rejected: usize,
    shed: usize,
    /// Lane-step deadline breaches seen by the watchdog supervisor.
    watchdog_breaches: usize,
    /// Lane restarts (roll back to the last lane checkpoint) the watchdog
    /// escalated to.
    watchdog_restarts: usize,
    /// Cluster nodes lost (injected or real) while this run served.
    node_crashes: usize,
    /// Node losses the cluster supervisor recovered by restarting the
    /// shard on a peer from its mirrored checkpoint (the ladder rung past
    /// restart-lane and before evict).
    failovers: usize,
    /// Requests migrated between shards by cross-node work stealing.
    stolen: usize,
    /// Modeled wall time (s) the serving run spanned.
    elapsed_s: f64,
    /// Queued requests shed at a step boundary because their deadline
    /// became provably unmeetable (subset of `evicted`).
    shed_early: usize,
    /// Requests that missed their deadline (evicted for it, or done late).
    deadline_miss: usize,
    /// Completions slower than their tenant's SLO target.
    slo_miss: usize,
    /// Lane-scaling events the autoscaler took.
    autoscale_events: usize,
    /// Per-tenant rows, dense by tenant id (grown on first observation).
    tenants: Vec<TenantStats>,
    /// Silent-data-corruption detections (checksum / sentinel trips) the
    /// serving layer caught and recovered in place.
    sdc_detected: usize,
    /// Lane restarts the SDC ladder escalated to (recurring corruption).
    sdc_restarts: usize,
    /// Columns evicted by the SDC ladder's last rung (subset of
    /// `evicted`).
    sdc_evictions: usize,
    /// Modeled seconds from corruption detection to the lane serving
    /// again (the detect→rollback→recover turnaround).
    sdc_recovery: LogHistogram,
}

impl ServeStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sample the admission queue's depth at a scheduling boundary.
    pub fn sample_queue_depth(&mut self, depth: usize) {
        self.queue_depth.push(depth);
    }

    /// Sample one fused lane: `occupied` of `width` slots held a live case
    /// while the lane solved a step.
    pub fn sample_occupancy(&mut self, occupied: usize, width: usize) {
        self.occupancy.push((occupied, width));
    }

    /// A request finished successfully after `latency_s` modeled seconds
    /// in the system (queued + solving).
    pub fn record_completion(&mut self, latency_s: f64) {
        self.completed += 1;
        self.latency.observe(latency_s);
    }

    pub fn record_failure(&mut self) {
        self.failed += 1;
    }

    pub fn record_eviction(&mut self) {
        self.evicted += 1;
    }

    pub fn record_rejection(&mut self) {
        self.rejected += 1;
    }

    pub fn record_shed(&mut self) {
        self.shed += 1;
    }

    pub fn record_watchdog_breach(&mut self) {
        self.watchdog_breaches += 1;
    }

    pub fn record_watchdog_restart(&mut self) {
        self.watchdog_restarts += 1;
    }

    pub fn record_node_crash(&mut self) {
        self.node_crashes += 1;
    }

    pub fn record_failover(&mut self) {
        self.failovers += 1;
    }

    pub fn record_steal(&mut self) {
        self.stolen += 1;
    }

    /// Advance the modeled wall clock the summary rates divide by.
    pub fn set_elapsed(&mut self, elapsed_s: f64) {
        self.elapsed_s = elapsed_s;
    }

    pub fn record_shed_early(&mut self) {
        self.shed_early += 1;
    }

    pub fn record_sdc_detection(&mut self) {
        self.sdc_detected += 1;
    }

    pub fn record_sdc_restart(&mut self) {
        self.sdc_restarts += 1;
    }

    pub fn record_sdc_eviction(&mut self) {
        self.sdc_evictions += 1;
    }

    /// One detect→recover turnaround completed after `latency_s` modeled
    /// seconds (detection boundary to the lane's next served step).
    pub fn observe_sdc_recovery(&mut self, latency_s: f64) {
        self.sdc_recovery.observe(latency_s);
    }

    pub fn record_autoscale(&mut self) {
        self.autoscale_events += 1;
    }

    /// The per-tenant row for `tenant`, growing the dense table as needed.
    fn tenant_mut(&mut self, tenant: u32) -> &mut TenantStats {
        let i = tenant as usize;
        while self.tenants.len() <= i {
            let id = self.tenants.len() as u32;
            self.tenants.push(TenantStats::new(id));
        }
        &mut self.tenants[i]
    }

    /// A tenant's request completed after `latency_s`, having served
    /// `steps` case steps (the fair-share currency).
    pub fn tenant_completion(&mut self, tenant: u32, latency_s: f64, steps: u64) {
        let t = self.tenant_mut(tenant);
        t.completed += 1;
        t.served_steps += steps;
        t.latency.observe(latency_s);
    }

    pub fn tenant_rejection(&mut self, tenant: u32) {
        self.tenant_mut(tenant).rejected += 1;
    }

    pub fn tenant_shed(&mut self, tenant: u32) {
        self.tenant_mut(tenant).shed += 1;
    }

    pub fn tenant_eviction(&mut self, tenant: u32) {
        self.tenant_mut(tenant).evicted += 1;
    }

    /// A tenant's request missed its deadline (also bumps the aggregate).
    pub fn tenant_deadline_miss(&mut self, tenant: u32) {
        self.deadline_miss += 1;
        self.tenant_mut(tenant).deadline_miss += 1;
    }

    /// A tenant's completion blew its SLO target (also bumps the
    /// aggregate).
    pub fn tenant_slo_miss(&mut self, tenant: u32) {
        self.slo_miss += 1;
        self.tenant_mut(tenant).slo_miss += 1;
    }

    pub fn completed(&self) -> usize {
        self.completed
    }

    pub fn failed(&self) -> usize {
        self.failed
    }

    pub fn evicted(&self) -> usize {
        self.evicted
    }

    pub fn rejected(&self) -> usize {
        self.rejected
    }

    pub fn shed(&self) -> usize {
        self.shed
    }

    pub fn watchdog_breaches(&self) -> usize {
        self.watchdog_breaches
    }

    pub fn watchdog_restarts(&self) -> usize {
        self.watchdog_restarts
    }

    pub fn node_crashes(&self) -> usize {
        self.node_crashes
    }

    pub fn failovers(&self) -> usize {
        self.failovers
    }

    pub fn stolen(&self) -> usize {
        self.stolen
    }

    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    pub fn shed_early(&self) -> usize {
        self.shed_early
    }

    pub fn deadline_miss(&self) -> usize {
        self.deadline_miss
    }

    pub fn slo_miss(&self) -> usize {
        self.slo_miss
    }

    pub fn autoscale_events(&self) -> usize {
        self.autoscale_events
    }

    pub fn sdc_detected(&self) -> usize {
        self.sdc_detected
    }

    pub fn sdc_restarts(&self) -> usize {
        self.sdc_restarts
    }

    pub fn sdc_evictions(&self) -> usize {
        self.sdc_evictions
    }

    /// The detect→recover turnaround histogram.
    pub fn sdc_recovery(&self) -> &LogHistogram {
        &self.sdc_recovery
    }

    /// Per-tenant rows, dense by tenant id.
    pub fn tenants(&self) -> &[TenantStats] {
        &self.tenants
    }

    /// This tenant's row, if it was ever observed.
    pub fn tenant(&self, tenant: u32) -> Option<&TenantStats> {
        self.tenants.get(tenant as usize)
    }

    /// Fraction of terminally-decided requests that missed their deadline
    /// (the soak report's deadline-miss rate). Requests without deadlines
    /// dilute the denominator by design: the rate is over all outcomes.
    pub fn deadline_miss_rate(&self) -> f64 {
        let outcomes = self.completed + self.failed + self.evicted;
        if outcomes == 0 {
            return 0.0;
        }
        self.deadline_miss as f64 / outcomes as f64
    }

    /// Raw queue-depth samples, in boundary order.
    pub fn queue_depth_samples(&self) -> &[usize] {
        &self.queue_depth
    }

    /// The completion-latency histogram.
    pub fn latency(&self) -> &LogHistogram {
        &self.latency
    }

    /// Fold another shard's stats into this one without double-counting:
    /// counters add, the latency histograms merge bucket-wise (each
    /// completion was observed by exactly one shard), boundary samples
    /// concatenate in shard order, and `elapsed_s` takes the max — shards
    /// run concurrently on the modeled cluster, so the wall span is the
    /// slowest shard's, not the sum.
    pub fn merge(&mut self, other: &ServeStats) {
        self.queue_depth.extend_from_slice(&other.queue_depth);
        self.occupancy.extend_from_slice(&other.occupancy);
        self.latency.merge(&other.latency);
        self.completed += other.completed;
        self.failed += other.failed;
        self.evicted += other.evicted;
        self.rejected += other.rejected;
        self.shed += other.shed;
        self.watchdog_breaches += other.watchdog_breaches;
        self.watchdog_restarts += other.watchdog_restarts;
        self.node_crashes += other.node_crashes;
        self.failovers += other.failovers;
        self.stolen += other.stolen;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.shed_early += other.shed_early;
        self.deadline_miss += other.deadline_miss;
        self.slo_miss += other.slo_miss;
        self.autoscale_events += other.autoscale_events;
        for t in &other.tenants {
            self.tenant_mut(t.tenant).merge(t);
        }
        self.sdc_detected += other.sdc_detected;
        self.sdc_restarts += other.sdc_restarts;
        self.sdc_evictions += other.sdc_evictions;
        self.sdc_recovery.merge(&other.sdc_recovery);
    }

    /// Mean queue depth over all boundary samples.
    pub fn mean_queue_depth(&self) -> f64 {
        if self.queue_depth.is_empty() {
            return 0.0;
        }
        self.queue_depth.iter().sum::<usize>() as f64 / self.queue_depth.len() as f64
    }

    /// Mean fraction of lane slots occupied while solving (1.0 = every
    /// fused column carried a live case every step).
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupancy.is_empty() {
            return 0.0;
        }
        let frac: f64 = self
            .occupancy
            .iter()
            .map(|&(o, w)| o as f64 / w.max(1) as f64)
            .sum();
        frac / self.occupancy.len() as f64
    }

    /// Completed cases per modeled second.
    pub fn cases_per_sec(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / self.elapsed_s
    }

    /// Latency percentile (`p` in [0, 1], nearest-rank over histogram
    /// buckets) over completed requests; 0 when nothing completed.
    /// `p = 0` and `p = 1` are exact (min/max); interior percentiles
    /// carry the histogram's ≤ 19% bucket error bound. O(buckets) per
    /// call — no sort, no per-request memory.
    pub fn latency_percentile(&self, p: f64) -> f64 {
        self.latency.quantile(p)
    }

    /// Export these stats into a metrics registry under the declared
    /// `serve_*` names (see `crates/obs/src/names.rs`). Counters map to
    /// `_total`s, the samples to gauges, and the latency histogram is
    /// merged bucket-wise.
    pub fn to_registry(&self, registry: &mut MetricsRegistry) {
        registry.inc("serve_requests_completed_total", self.completed as f64);
        registry.inc("serve_requests_failed_total", self.failed as f64);
        registry.inc("serve_requests_evicted_total", self.evicted as f64);
        registry.inc("serve_requests_rejected_total", self.rejected as f64);
        registry.inc("serve_requests_shed_total", self.shed as f64);
        registry.inc(
            "serve_watchdog_breaches_total",
            self.watchdog_breaches as f64,
        );
        registry.inc(
            "serve_watchdog_restarts_total",
            self.watchdog_restarts as f64,
        );
        registry.inc("serve_node_crashes_total", self.node_crashes as f64);
        registry.inc("serve_failovers_total", self.failovers as f64);
        registry.inc("serve_requests_stolen_total", self.stolen as f64);
        registry.inc("serve_shed_early_total", self.shed_early as f64);
        registry.inc("serve_deadline_miss_total", self.deadline_miss as f64);
        registry.inc("serve_slo_miss_total", self.slo_miss as f64);
        registry.inc("serve_autoscale_events_total", self.autoscale_events as f64);
        registry.inc("serve_sdc_detected_total", self.sdc_detected as f64);
        registry.inc("serve_sdc_restarts_total", self.sdc_restarts as f64);
        registry.inc("serve_sdc_evictions_total", self.sdc_evictions as f64);
        registry.merge_histogram("serve_sdc_recovery_s", &self.sdc_recovery);
        registry.gauge_set("serve_queue_depth", self.mean_queue_depth());
        registry.gauge_set("serve_lane_occupancy", self.mean_occupancy());
        registry.gauge_set("serve_elapsed_s", self.elapsed_s);
        registry.merge_histogram("serve_request_latency_s", &self.latency);
    }

    /// Summary document — the bench snapshot's `serve` section.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("completed", Json::from(self.completed)),
            ("failed", Json::from(self.failed)),
            ("evicted", Json::from(self.evicted)),
            ("rejected", Json::from(self.rejected)),
            ("shed", Json::from(self.shed)),
            ("watchdog_breaches", Json::from(self.watchdog_breaches)),
            ("watchdog_restarts", Json::from(self.watchdog_restarts)),
            ("node_crashes", Json::from(self.node_crashes)),
            ("failovers", Json::from(self.failovers)),
            ("stolen", Json::from(self.stolen)),
            ("elapsed_s", Json::Num(self.elapsed_s)),
            ("cases_per_sec", Json::Num(self.cases_per_sec())),
            ("mean_queue_depth", Json::Num(self.mean_queue_depth())),
            ("lane_occupancy", Json::Num(self.mean_occupancy())),
            (
                "queue_latency_p50_s",
                Json::Num(self.latency_percentile(0.5)),
            ),
            (
                "queue_latency_p95_s",
                Json::Num(self.latency_percentile(0.95)),
            ),
            (
                "queue_latency_max_s",
                Json::Num(self.latency_percentile(1.0)),
            ),
            ("shed_early", Json::from(self.shed_early)),
            ("deadline_miss", Json::from(self.deadline_miss)),
            ("slo_miss", Json::from(self.slo_miss)),
            ("autoscale_events", Json::from(self.autoscale_events)),
            ("deadline_miss_rate", Json::Num(self.deadline_miss_rate())),
            ("sdc_detected", Json::from(self.sdc_detected)),
            ("sdc_restarts", Json::from(self.sdc_restarts)),
            ("sdc_evictions", Json::from(self.sdc_evictions)),
            (
                "sdc_recovery_p50_s",
                Json::Num(self.sdc_recovery.quantile(0.5)),
            ),
            (
                "sdc_recovery_max_s",
                Json::Num(self.sdc_recovery.quantile(1.0)),
            ),
            (
                "tenants",
                Json::Arr(self.tenants.iter().map(TenantStats::to_json).collect()),
            ),
        ])
    }
}

/// Hand-written because of the tail: the SDC counters were appended to the
/// `STAT` payload after images without them had been written, so a payload
/// that ends after `tenants` restores them as clean zeros. Everything else
/// is the field list in order.
impl Wire for ServeStats {
    // three length prefixes, fifteen scalars, one histogram; no tail
    const MIN_WIRE_BYTES: usize = (3 + 15) * 8 + LogHistogram::MIN_WIRE_BYTES;

    fn put(&self, enc: &mut Enc) {
        let ServeStats {
            queue_depth,
            occupancy,
            latency,
            completed,
            failed,
            evicted,
            rejected,
            shed,
            watchdog_breaches,
            watchdog_restarts,
            node_crashes,
            failovers,
            stolen,
            elapsed_s,
            shed_early,
            deadline_miss,
            slo_miss,
            autoscale_events,
            tenants,
            sdc_detected,
            sdc_restarts,
            sdc_evictions,
            sdc_recovery,
        } = self;
        queue_depth.put(enc);
        occupancy.put(enc);
        latency.put(enc);
        completed.put(enc);
        failed.put(enc);
        evicted.put(enc);
        rejected.put(enc);
        shed.put(enc);
        watchdog_breaches.put(enc);
        watchdog_restarts.put(enc);
        node_crashes.put(enc);
        failovers.put(enc);
        stolen.put(enc);
        elapsed_s.put(enc);
        shed_early.put(enc);
        deadline_miss.put(enc);
        slo_miss.put(enc);
        autoscale_events.put(enc);
        tenants.put(enc);
        sdc_detected.put(enc);
        sdc_restarts.put(enc);
        sdc_evictions.put(enc);
        sdc_recovery.put(enc);
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        let mut stats = ServeStats {
            queue_depth: Wire::get(dec)?,
            occupancy: Wire::get(dec)?,
            latency: Wire::get(dec)?,
            completed: Wire::get(dec)?,
            failed: Wire::get(dec)?,
            evicted: Wire::get(dec)?,
            rejected: Wire::get(dec)?,
            shed: Wire::get(dec)?,
            watchdog_breaches: Wire::get(dec)?,
            watchdog_restarts: Wire::get(dec)?,
            node_crashes: Wire::get(dec)?,
            failovers: Wire::get(dec)?,
            stolen: Wire::get(dec)?,
            elapsed_s: Wire::get(dec)?,
            shed_early: Wire::get(dec)?,
            deadline_miss: Wire::get(dec)?,
            slo_miss: Wire::get(dec)?,
            autoscale_events: Wire::get(dec)?,
            tenants: Wire::get(dec)?,
            sdc_detected: 0,
            sdc_restarts: 0,
            sdc_evictions: 0,
            sdc_recovery: LogHistogram::default(),
        };
        if dec.remaining() > 0 {
            (
                stats.sdc_detected,
                stats.sdc_restarts,
                stats.sdc_evictions,
                stats.sdc_recovery,
            ) = Wire::get(dec)?;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_and_queue_means() {
        let mut s = ServeStats::new();
        s.sample_occupancy(4, 4);
        s.sample_occupancy(2, 4);
        assert!((s.mean_occupancy() - 0.75).abs() < 1e-12);
        s.sample_queue_depth(3);
        s.sample_queue_depth(1);
        assert!((s.mean_queue_depth() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn throughput_needs_elapsed_time() {
        let mut s = ServeStats::new();
        s.record_completion(0.5);
        s.record_completion(1.5);
        assert_eq!(s.cases_per_sec(), 0.0, "no elapsed time yet");
        s.set_elapsed(4.0);
        assert!((s.cases_per_sec() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_bucketed_with_exact_extremes() {
        let mut s = ServeStats::new();
        for l in [4.0, 1.0, 3.0, 2.0] {
            s.record_completion(l);
        }
        // extremes are exact; interior percentiles report the bucket upper
        // bound, within the 2^(1/4) histogram error bound of the exact
        // nearest-rank value (2.0 here)
        assert_eq!(s.latency_percentile(0.0), 1.0);
        assert_eq!(s.latency_percentile(1.0), 4.0);
        let p50 = s.latency_percentile(0.5);
        assert!(
            (2.0..=2.0 * 2f64.powf(0.25) + 1e-12).contains(&p50),
            "p50 {p50} outside the bucket error bound"
        );
        let empty = ServeStats::new();
        assert_eq!(empty.latency_percentile(0.5), 0.0);
    }

    #[test]
    fn merge_across_shards_sums_without_double_counting() {
        // two per-shard stats objects, disjoint observations
        let mut a = ServeStats::new();
        a.record_completion(0.5);
        a.record_completion(1.0);
        a.record_failure();
        a.record_watchdog_breach();
        a.sample_queue_depth(3);
        a.sample_occupancy(2, 4);
        a.set_elapsed(2.0);
        let mut b = ServeStats::new();
        b.record_completion(2.0);
        b.record_eviction();
        b.record_steal();
        b.record_node_crash();
        b.record_failover();
        b.sample_queue_depth(1);
        b.set_elapsed(3.5);

        let mut merged = ServeStats::new();
        merged.merge(&a);
        merged.merge(&b);

        // merged totals equal the per-shard sums exactly
        assert_eq!(merged.completed(), a.completed() + b.completed());
        assert_eq!(merged.failed(), a.failed() + b.failed());
        assert_eq!(merged.evicted(), a.evicted() + b.evicted());
        assert_eq!(
            merged.watchdog_breaches(),
            a.watchdog_breaches() + b.watchdog_breaches()
        );
        assert_eq!(merged.node_crashes(), 1);
        assert_eq!(merged.failovers(), 1);
        assert_eq!(merged.stolen(), 1);
        assert_eq!(
            merged.latency().total(),
            a.latency().total() + b.latency().total(),
            "histogram merge must not double-count observations"
        );
        assert_eq!(merged.latency_percentile(0.0), 0.5);
        assert_eq!(merged.latency_percentile(1.0), 2.0);
        assert_eq!(
            merged.queue_depth_samples().len(),
            a.queue_depth_samples().len() + b.queue_depth_samples().len()
        );
        // concurrent shards: elapsed is the max span, not the sum
        assert_eq!(merged.elapsed_s(), 3.5);

        // merging the same shard twice WOULD double-count — the cluster
        // layer builds the merged view from scratch each time for exactly
        // this reason; assert the primitive behaves additively so that
        // contract is visible.
        let mut twice = ServeStats::new();
        twice.merge(&a);
        twice.merge(&a);
        assert_eq!(twice.completed(), 2 * a.completed());
    }

    #[test]
    fn registry_export_mirrors_counters_and_latency() {
        let mut s = ServeStats::new();
        s.record_completion(0.5);
        s.record_completion(1.0);
        s.record_eviction();
        s.record_watchdog_breach();
        s.sample_queue_depth(4);
        s.set_elapsed(2.0);
        let mut r = MetricsRegistry::new();
        s.to_registry(&mut r);
        assert_eq!(r.counter("serve_requests_completed_total"), 2.0);
        assert_eq!(r.counter("serve_requests_evicted_total"), 1.0);
        assert_eq!(r.counter("serve_watchdog_breaches_total"), 1.0);
        assert_eq!(r.gauge("serve_queue_depth"), Some(4.0));
        assert_eq!(r.gauge("serve_elapsed_s"), Some(2.0));
        let h = r.histogram("serve_request_latency_s").unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.max(), 1.0);
    }

    #[test]
    fn tenant_rows_track_and_merge_independently() {
        let mut s = ServeStats::new();
        s.tenant_completion(0, 0.5, 10);
        s.tenant_completion(2, 1.0, 4);
        s.tenant_rejection(2);
        s.tenant_deadline_miss(2);
        s.tenant_slo_miss(0);
        assert_eq!(s.tenants().len(), 3, "dense table grows to cover id 2");
        assert_eq!(s.tenant(0).unwrap().served_steps, 10);
        assert_eq!(s.tenant(1).unwrap().completed, 0, "gap row stays zero");
        assert_eq!(s.tenant(2).unwrap().rejected, 1);
        assert_eq!(s.deadline_miss(), 1, "tenant miss bumps the aggregate");
        assert_eq!(s.slo_miss(), 1);

        let mut other = ServeStats::new();
        other.tenant_completion(2, 2.0, 6);
        other.record_shed_early();
        other.record_autoscale();
        s.merge(&other);
        assert_eq!(s.tenant(2).unwrap().completed, 2);
        assert_eq!(s.tenant(2).unwrap().served_steps, 10);
        assert_eq!(s.shed_early(), 1);
        assert_eq!(s.autoscale_events(), 1);
        assert_eq!(s.tenant(2).unwrap().latency_percentile(1.0), 2.0);

        let mut enc = Enc::new();
        s.put(&mut enc);
        let bytes = enc.into_bytes();
        let restored = ServeStats::get(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(restored.tenants(), s.tenants());
        assert_eq!(restored.deadline_miss(), s.deadline_miss());
    }

    #[test]
    fn deadline_miss_rate_is_over_outcomes() {
        let mut s = ServeStats::new();
        assert_eq!(s.deadline_miss_rate(), 0.0);
        s.record_completion(0.1);
        s.record_completion(0.1);
        s.record_eviction();
        s.tenant_deadline_miss(0);
        assert!((s.deadline_miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_json_has_bench_columns() {
        let mut s = ServeStats::new();
        s.sample_occupancy(3, 4);
        s.record_completion(0.25);
        s.record_rejection();
        s.record_shed();
        s.set_elapsed(1.0);
        let v = s.to_json();
        assert_eq!(v.get("completed").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("rejected").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("lane_occupancy").unwrap().as_f64(), Some(0.75));
        assert!(v.get("queue_latency_p95_s").is_some());
        assert_eq!(v.get("cases_per_sec").unwrap().as_f64(), Some(1.0));
    }
}
