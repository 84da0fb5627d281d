//! Serving-layer metrics: request outcomes, queue depth, fused-lane
//! occupancy, request latency.
//!
//! The serving layer's throughput claim — continuous batching beats
//! drain-then-refill because it keeps the fused lanes full — is a claim
//! about *occupancy over time*, so [`ServeStats`] folds the queue depth and
//! every lane's occupancy into running sums at each scheduling boundary and
//! aggregates modeled end-to-end latencies per request in histograms: its
//! size does not grow with ticks or requests. Each counter is one
//! [`ServeCounter`], declared once below with its JSON key, its registry
//! name and whether tenant rows keep it; recording, merging, export and
//! the checkpoint layout all walk that one table. The summary JSON is the
//! `serve` section of a metrics document; `tests/modeled_golden.rs` pins
//! its lane-occupancy and queue-latency columns on the reference workload.

use crate::json::Json;
use crate::names;
use crate::registry::{LogHistogram, MetricsRegistry};

/// Declares [`ServeCounter`] and [`COUNTERS`] from one list.
macro_rules! serve_counters {
    ($($(#[$doc:meta])* $variant:ident => $key:literal, $metric:ident, $per_tenant:literal;)+) => {
        /// One counter of a serving run. [`ServeStats::count`] and
        /// [`TenantStats::count`] read it; the server and the cluster router
        /// bump it once per event.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum ServeCounter {
            $($(#[$doc])* $variant,)+
        }

        /// Each [`ServeCounter`], in declaration order, with its JSON key,
        /// its registry name, and whether each tenant row counts it too.
        const COUNTERS: &[(ServeCounter, &str, names::Counter, bool)] =
            &[$((ServeCounter::$variant, $key, names::$metric, $per_tenant),)+];
    };
}

serve_counters! {
    /// Requests that finished `Done`.
    Completed => "completed", SERVE_REQUESTS_COMPLETED_TOTAL, true;
    /// Requests whose column exhausted the recovery ladder.
    Failed => "failed", SERVE_REQUESTS_FAILED_TOTAL, false;
    /// Requests evicted: deadline, injected, watchdog, node lost or
    /// corruption.
    Evicted => "evicted", SERVE_REQUESTS_EVICTED_TOTAL, true;
    /// Admissions refused typed (the same request would never be admitted).
    Rejected => "rejected", SERVE_REQUESTS_REJECTED_TOTAL, true;
    /// Admissions refused for load (queue or tenant share full): one per
    /// refused request, however many shards a cluster router tried.
    Shed => "shed", SERVE_REQUESTS_SHED_TOTAL, true;
    /// Lane-step deadline breaches seen by the watchdog supervisor.
    WatchdogBreaches => "watchdog_breaches", SERVE_WATCHDOG_BREACHES_TOTAL, false;
    /// Lane restarts (roll back to the last lane checkpoint) the watchdog
    /// escalated to.
    WatchdogRestarts => "watchdog_restarts", SERVE_WATCHDOG_RESTARTS_TOTAL, false;
    /// Cluster nodes lost (injected or real) while this run served.
    NodeCrashes => "node_crashes", SERVE_NODE_CRASHES_TOTAL, false;
    /// Node losses the cluster supervisor recovered by restarting the
    /// shard on a peer from its mirrored checkpoint (the ladder rung past
    /// restart-lane and before evict).
    Failovers => "failovers", SERVE_FAILOVERS_TOTAL, false;
    /// Requests migrated between shards by cross-node work stealing.
    Stolen => "stolen", SERVE_REQUESTS_STOLEN_TOTAL, false;
    /// Queued requests shed at a step boundary because their deadline
    /// became provably unmeetable (subset of `Evicted`).
    ShedEarly => "shed_early", SERVE_SHED_EARLY_TOTAL, false;
    /// Requests that missed their deadline (evicted for it, or done late).
    DeadlineMiss => "deadline_miss", SERVE_DEADLINE_MISS_TOTAL, true;
    /// Completions slower than their tenant's SLO target.
    SloMiss => "slo_miss", SERVE_SLO_MISS_TOTAL, true;
    /// Lane-scaling events the autoscaler took.
    AutoscaleEvents => "autoscale_events", SERVE_AUTOSCALE_EVENTS_TOTAL, false;
    /// Silent-data-corruption detections (checksum / sentinel trips) the
    /// serving layer caught and recovered in place.
    SdcDetected => "sdc_detected", SERVE_SDC_DETECTED_TOTAL, false;
    /// Lane restarts the SDC ladder escalated to (recurring corruption).
    SdcRestarts => "sdc_restarts", SERVE_SDC_RESTARTS_TOTAL, false;
    /// Columns evicted by the SDC ladder's last rung (subset of `Evicted`).
    SdcEvictions => "sdc_evictions", SERVE_SDC_EVICTIONS_TOTAL, false;
}

const N_COUNTERS: usize = COUNTERS.len();

/// One count per [`ServeCounter`], in table order.
type Counts = [usize; N_COUNTERS];

fn add_counts(into: &mut Counts, from: &Counts) {
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

/// `(key, count)` JSON pairs in table order: every counter, or for a
/// tenant row only those the table keeps per tenant.
fn count_pairs(counts: &Counts, tenant_row: bool) -> Vec<(&'static str, Json)> {
    COUNTERS
        .iter()
        .zip(counts)
        .filter(|((.., per_tenant), _)| *per_tenant || !tenant_row)
        .map(|(&(_, key, ..), &n)| (key, Json::from(n)))
        .collect()
}

/// Per-tenant serving outcomes: the QoS layer's accounting unit. One
/// entry exists per tenant id that was ever observed (dense ids expected;
/// the vec grows to cover the largest). Checkpointed with [`ServeStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// Tenant id this row accounts for.
    pub tenant: u32,
    /// The counters the table keeps per tenant (the others stay 0).
    counts: Counts,
    /// Case steps served to completion (the DRR fair-share currency —
    /// fairness is measured in served work, not request count).
    pub served_steps: u64,
    /// Admit→done latency histogram for this tenant alone (tail
    /// percentiles per tenant are the QoS report's headline numbers).
    pub latency: LogHistogram,
}

hetsolve_ckpt::wire_struct!(TenantStats {
    tenant,
    counts,
    served_steps,
    latency,
});

impl TenantStats {
    fn new(tenant: u32) -> Self {
        TenantStats {
            tenant,
            ..Default::default()
        }
    }

    /// This tenant's count of `c` (0 for a counter rows do not keep).
    pub fn count(&self, c: ServeCounter) -> usize {
        self.counts[c as usize]
    }

    fn merge(&mut self, other: &TenantStats) {
        add_counts(&mut self.counts, &other.counts);
        self.served_steps += other.served_steps;
        self.latency.merge(&other.latency);
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![("tenant", Json::from(self.tenant as usize))];
        pairs.extend(count_pairs(&self.counts, true));
        pairs.extend([
            ("served_steps", Json::from(self.served_steps as usize)),
            ("latency_p50_s", Json::Num(self.latency.quantile(0.5))),
            ("latency_p99_s", Json::Num(self.latency.quantile(0.99))),
            ("latency_max_s", Json::Num(self.latency.quantile(1.0))),
        ]);
        Json::obj(pairs)
    }
}

/// Counters, running sums and histograms collected by a serving run.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    counts: Counts,
    /// Sum of the queue depths sampled at scheduling boundaries, and the
    /// number of boundaries sampled.
    queue_depth_sum: usize,
    queue_depth_samples: usize,
    /// Sum of `occupied / width` over every lane step solved, and the
    /// number of lane steps; added in sampling order.
    occupancy_sum: f64,
    occupancy_samples: usize,
    /// Modeled admit→done latency (s) per completed request, aggregated
    /// into a fixed-size log-bucketed histogram: memory is constant no
    /// matter how many requests complete, and percentiles are an
    /// O(buckets) walk with the ≤ 19% bucket error bound documented in
    /// [`crate::registry`] (min/max stay exact).
    latency: LogHistogram,
    /// Modeled wall time (s) the serving run spanned.
    elapsed_s: f64,
    /// Per-tenant rows, dense by tenant id (grown on first observation).
    tenants: Vec<TenantStats>,
    /// Modeled seconds from corruption detection to the lane serving
    /// again (the detect→rollback→recover turnaround).
    sdc_recovery: LogHistogram,
}

hetsolve_ckpt::wire_struct!(ServeStats {
    counts,
    queue_depth_sum,
    queue_depth_samples,
    occupancy_sum,
    occupancy_samples,
    latency,
    elapsed_s,
    tenants,
    sdc_recovery,
});

impl ServeStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sample the admission queue's depth at a scheduling boundary.
    pub fn sample_queue_depth(&mut self, depth: usize) {
        self.queue_depth_sum += depth;
        self.queue_depth_samples += 1;
    }

    /// Sample one fused lane: `occupied` of `width` slots held a live case
    /// while the lane solved a step.
    pub fn sample_occupancy(&mut self, occupied: usize, width: usize) {
        self.occupancy_sum += occupied as f64 / width.max(1) as f64;
        self.occupancy_samples += 1;
    }

    /// Count one event of `c` that belongs to no tenant's request (a lane,
    /// node or scaling event).
    pub fn record(&mut self, c: ServeCounter) {
        self.counts[c as usize] += 1;
    }

    /// Count one outcome `c` of a request from `tenant`: in the aggregate,
    /// and in the tenant's row when the table keeps `c` per tenant.
    pub fn record_for(&mut self, c: ServeCounter, tenant: u32) {
        self.record(c);
        if COUNTERS[c as usize].3 {
            self.tenant_mut(tenant).counts[c as usize] += 1;
        }
    }

    /// A request from `tenant` finished successfully after `latency_s`
    /// modeled seconds in the system (queued + solving), having served
    /// `steps` case steps (the fair-share currency).
    pub fn record_completion(&mut self, tenant: u32, latency_s: f64, steps: u64) {
        self.record_for(ServeCounter::Completed, tenant);
        self.latency.observe(latency_s);
        let t = self.tenant_mut(tenant);
        t.served_steps += steps;
        t.latency.observe(latency_s);
    }

    /// Advance the modeled wall clock the summary rates divide by.
    pub fn set_elapsed(&mut self, elapsed_s: f64) {
        self.elapsed_s = elapsed_s;
    }

    /// One detect→recover turnaround completed after `latency_s` modeled
    /// seconds (detection boundary to the lane's next served step).
    pub fn observe_sdc_recovery(&mut self, latency_s: f64) {
        self.sdc_recovery.observe(latency_s);
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

    /// The aggregate count of `c`.
    pub fn count(&self, c: ServeCounter) -> usize {
        self.counts[c as usize]
    }

    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
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
        use ServeCounter::{Completed, DeadlineMiss, Evicted, Failed};
        let outcomes = self.count(Completed) + self.count(Failed) + self.count(Evicted);
        if outcomes == 0 {
            return 0.0;
        }
        self.count(DeadlineMiss) as f64 / outcomes as f64
    }

    /// The completion-latency histogram.
    pub fn latency(&self) -> &LogHistogram {
        &self.latency
    }

    /// Fold another shard's stats into this one without double-counting:
    /// counters and running sums add, the latency histograms merge
    /// bucket-wise (each completion was observed by exactly one shard),
    /// and `elapsed_s` takes the max — shards run concurrently on the
    /// modeled cluster, so the wall span is the slowest shard's, not the
    /// sum.
    pub fn merge(&mut self, other: &ServeStats) {
        add_counts(&mut self.counts, &other.counts);
        self.queue_depth_sum += other.queue_depth_sum;
        self.queue_depth_samples += other.queue_depth_samples;
        self.occupancy_sum += other.occupancy_sum;
        self.occupancy_samples += other.occupancy_samples;
        self.latency.merge(&other.latency);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        for t in &other.tenants {
            self.tenant_mut(t.tenant).merge(t);
        }
        self.sdc_recovery.merge(&other.sdc_recovery);
    }

    /// Mean queue depth over all boundary samples.
    pub fn mean_queue_depth(&self) -> f64 {
        if self.queue_depth_samples == 0 {
            return 0.0;
        }
        self.queue_depth_sum as f64 / self.queue_depth_samples as f64
    }

    /// Mean fraction of lane slots occupied while solving (1.0 = every
    /// fused column carried a live case every step).
    pub fn mean_occupancy(&self) -> f64 {
        if self.occupancy_samples == 0 {
            return 0.0;
        }
        self.occupancy_sum / self.occupancy_samples as f64
    }

    /// Completed cases per modeled second.
    pub fn cases_per_sec(&self) -> f64 {
        if self.elapsed_s <= 0.0 {
            return 0.0;
        }
        self.count(ServeCounter::Completed) as f64 / self.elapsed_s
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
    /// `_total`s, the running sums to mean gauges, and the histograms are
    /// merged bucket-wise.
    pub fn to_registry(&self, registry: &mut MetricsRegistry) {
        for (&(_, _, metric, _), &n) in COUNTERS.iter().zip(&self.counts) {
            registry.inc(metric, n as f64);
        }
        registry.merge_histogram(names::SERVE_SDC_RECOVERY_S, &self.sdc_recovery);
        registry.gauge_set(names::SERVE_QUEUE_DEPTH, self.mean_queue_depth());
        registry.gauge_set(names::SERVE_LANE_OCCUPANCY, self.mean_occupancy());
        registry.gauge_set(names::SERVE_ELAPSED_S, self.elapsed_s);
        registry.merge_histogram(names::SERVE_REQUEST_LATENCY_S, &self.latency);
    }

    /// Summary document — the bench snapshot's `serve` section.
    pub fn to_json(&self) -> Json {
        let mut pairs = count_pairs(&self.counts, false);
        pairs.extend([
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
            ("deadline_miss_rate", Json::Num(self.deadline_miss_rate())),
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
        ]);
        Json::obj(pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsolve_ckpt::{Dec, Enc, Wire};
    use ServeCounter::*;

    fn encoded(s: &ServeStats) -> Vec<u8> {
        let mut enc = Enc::new();
        s.put(&mut enc);
        enc.into_bytes()
    }

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

    /// The running sums add in sampling order, so the means keep the bits
    /// of the per-sample mean they replace, and the stats stay one size
    /// however many boundaries they sample.
    #[test]
    fn running_sums_keep_the_sample_mean_bits_in_constant_space() {
        let mut s = ServeStats::new();
        let size = encoded(&s).len();
        let (mut occ, mut depth) = (Vec::new(), Vec::new());
        for k in 0..1000usize {
            let (o, w, d) = (k % 7, 1 + k % 8, (k * 31) % 11);
            s.sample_occupancy(o, w);
            s.sample_queue_depth(d);
            occ.push(o as f64 / w as f64);
            depth.push(d);
        }
        let occ_mean = occ.iter().sum::<f64>() / occ.len() as f64;
        let depth_mean = depth.iter().sum::<usize>() as f64 / depth.len() as f64;
        assert_eq!(s.mean_occupancy().to_bits(), occ_mean.to_bits());
        assert_eq!(s.mean_queue_depth().to_bits(), depth_mean.to_bits());
        assert_eq!(encoded(&s).len(), size);
    }

    #[test]
    fn throughput_needs_elapsed_time() {
        let mut s = ServeStats::new();
        s.record_completion(0, 0.5, 1);
        s.record_completion(0, 1.5, 1);
        assert_eq!(s.cases_per_sec(), 0.0, "no elapsed time yet");
        s.set_elapsed(4.0);
        assert!((s.cases_per_sec() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_bucketed_with_exact_extremes() {
        let mut s = ServeStats::new();
        for l in [4.0, 1.0, 3.0, 2.0] {
            s.record_completion(0, l, 1);
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
        a.record_completion(0, 0.5, 1);
        a.record_completion(0, 1.0, 1);
        a.record(Failed);
        a.record(WatchdogBreaches);
        a.sample_queue_depth(3);
        a.sample_occupancy(2, 4);
        a.set_elapsed(2.0);
        let mut b = ServeStats::new();
        b.record_completion(0, 2.0, 1);
        b.record_for(Evicted, 0);
        b.record(Stolen);
        b.record(NodeCrashes);
        b.record(Failovers);
        b.sample_queue_depth(1);
        b.set_elapsed(3.5);

        let mut merged = ServeStats::new();
        merged.merge(&a);
        merged.merge(&b);

        // merged totals equal the per-shard sums exactly
        for &(c, ..) in COUNTERS {
            assert_eq!(merged.count(c), a.count(c) + b.count(c), "{c:?}");
        }
        assert_eq!(merged.count(Completed), 3);
        assert_eq!(merged.count(NodeCrashes), 1);
        assert_eq!(
            merged.latency().total(),
            a.latency().total() + b.latency().total(),
            "histogram merge must not double-count observations"
        );
        assert_eq!(merged.latency_percentile(0.0), 0.5);
        assert_eq!(merged.latency_percentile(1.0), 2.0);
        assert_eq!(merged.mean_queue_depth(), 2.0, "(3 + 1) / 2 boundaries");
        assert_eq!(merged.mean_occupancy(), 0.5);
        // concurrent shards: elapsed is the max span, not the sum
        assert_eq!(merged.elapsed_s(), 3.5);

        // merging the same shard twice WOULD double-count — the cluster
        // layer builds the merged view from scratch each time for exactly
        // this reason; assert the primitive behaves additively so that
        // contract is visible.
        let mut twice = ServeStats::new();
        twice.merge(&a);
        twice.merge(&a);
        assert_eq!(twice.count(Completed), 2 * a.count(Completed));
    }

    #[test]
    fn registry_export_mirrors_counters_and_latency() {
        let mut s = ServeStats::new();
        s.record_completion(0, 0.5, 1);
        s.record_completion(0, 1.0, 1);
        s.record_for(Evicted, 0);
        s.record(WatchdogBreaches);
        s.sample_queue_depth(4);
        s.set_elapsed(2.0);
        let mut r = MetricsRegistry::new();
        s.to_registry(&mut r);
        assert_eq!(r.counter(names::SERVE_REQUESTS_COMPLETED_TOTAL), 2.0);
        assert_eq!(r.counter(names::SERVE_REQUESTS_EVICTED_TOTAL), 1.0);
        assert_eq!(r.counter(names::SERVE_WATCHDOG_BREACHES_TOTAL), 1.0);
        assert_eq!(r.gauge(names::SERVE_QUEUE_DEPTH), Some(4.0));
        assert_eq!(r.gauge(names::SERVE_ELAPSED_S), Some(2.0));
        let h = r.histogram(names::SERVE_REQUEST_LATENCY_S).unwrap();
        assert_eq!(h.total(), 2);
        assert_eq!(h.max(), 1.0);
    }

    /// Every table row reaches the registry and the JSON under its own
    /// name, and the tenant rows carry exactly the per-tenant ones.
    #[test]
    fn every_counter_is_exported_from_the_table() {
        let mut s = ServeStats::new();
        s.record_for(Shed, 1);
        s.record_for(Failed, 1);
        let mut r = MetricsRegistry::new();
        s.to_registry(&mut r);
        let json = s.to_json();
        let Some(Json::Arr(rows)) = json.get("tenants") else {
            panic!("a tenants array");
        };
        let row = &rows[1];
        for &(c, key, metric, per_tenant) in COUNTERS {
            assert_eq!(COUNTERS[c as usize].1, key, "the table is in enum order");
            let want = f64::from(u8::from(key == "shed" || key == "failed"));
            assert_eq!(r.counter(metric), want, "{key}");
            assert_eq!(json.get(key).and_then(Json::as_f64), Some(want), "{key}");
            let in_row = row.get(key).and_then(Json::as_f64);
            assert_eq!(in_row.is_some(), per_tenant, "{key}");
        }
        assert_eq!(row.get("shed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(s.tenant(1).unwrap().count(Failed), 0, "not kept per tenant");
    }

    #[test]
    fn tenant_rows_track_and_merge_independently() {
        let mut s = ServeStats::new();
        s.record_completion(0, 0.5, 10);
        s.record_completion(2, 1.0, 4);
        s.record_for(Rejected, 2);
        s.record_for(DeadlineMiss, 2);
        s.record_for(SloMiss, 0);
        assert_eq!(s.tenants().len(), 3, "dense table grows to cover id 2");
        assert_eq!(s.tenant(0).unwrap().served_steps, 10);
        assert_eq!(
            s.tenant(1).unwrap().count(Completed),
            0,
            "gap row stays zero"
        );
        assert_eq!(s.tenant(2).unwrap().count(Rejected), 1);
        assert_eq!(s.count(DeadlineMiss), 1, "one call bumps the aggregate too");
        assert_eq!(s.count(SloMiss), 1);
        assert_eq!(s.count(Completed), 2);

        let mut other = ServeStats::new();
        other.record_completion(2, 2.0, 6);
        other.record(ShedEarly);
        other.record(AutoscaleEvents);
        s.merge(&other);
        assert_eq!(s.tenant(2).unwrap().count(Completed), 2);
        assert_eq!(s.tenant(2).unwrap().served_steps, 10);
        assert_eq!(s.count(ShedEarly), 1);
        assert_eq!(s.count(AutoscaleEvents), 1);
        assert_eq!(s.tenant(2).unwrap().latency.quantile(1.0), 2.0);

        let bytes = encoded(&s);
        let restored = ServeStats::get(&mut Dec::new(&bytes)).unwrap();
        assert_eq!(restored.tenants(), s.tenants());
        assert_eq!(restored.count(DeadlineMiss), s.count(DeadlineMiss));
        assert_eq!(encoded(&restored), bytes);
    }

    #[test]
    fn deadline_miss_rate_is_over_outcomes() {
        let mut s = ServeStats::new();
        assert_eq!(s.deadline_miss_rate(), 0.0);
        s.record_completion(0, 0.1, 1);
        s.record_completion(0, 0.1, 1);
        s.record_for(Evicted, 0);
        s.record_for(DeadlineMiss, 0);
        assert!((s.deadline_miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_json_has_bench_columns() {
        let mut s = ServeStats::new();
        s.sample_occupancy(3, 4);
        s.record_completion(0, 0.25, 1);
        s.record_for(Rejected, 0);
        s.record_for(Shed, 0);
        s.set_elapsed(1.0);
        let v = s.to_json();
        assert_eq!(v.get("completed").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("rejected").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("lane_occupancy").unwrap().as_f64(), Some(0.75));
        assert!(v.get("queue_latency_p95_s").is_some());
        assert_eq!(v.get("cases_per_sec").unwrap().as_f64(), Some(1.0));
    }
}
