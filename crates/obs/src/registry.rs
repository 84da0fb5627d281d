//! Dependency-free metrics registry: named counters, gauges and
//! fixed-size log-bucketed histograms with mergeable snapshots.
//!
//! This is telemetry v2's answer to the unbounded `ServeStats` latency
//! vector: a [`LogHistogram`] stores any number of observations in a
//! fixed 170-slot array, so a 10^6-request soak costs the same memory as
//! a 10-request smoke test, and quantiles are an O(buckets) cumulative
//! walk instead of an O(n log n) sort per call.
//!
//! ## Bucket layout and quantile error bound
//!
//! Buckets subdivide each power-of-two octave into [`SUB`] = 4
//! geometrically-even slots, covering `[LO, LO << OCTAVES)` =
//! `[2^-30, 2^12)` ≈ `[9.3e-10, 4096)` — sub-nanosecond modeled phase
//! times up to hour-scale latencies. Within a bucket the true value and
//! the reported bound differ by at most the bucket width factor
//! `2^(1/4) ≈ 1.189`, so **any quantile is exact to within +19% relative
//! error** (quantiles report the bucket's upper bound, clamped to the
//! exact observed `[min, max]`; `p=0` and `p=1` are exact). Values below
//! the range land in the underflow bucket, above it in the overflow
//! bucket; both are still counted exactly in `count`/`sum`/`min`/`max`.
//!
//! Snapshots merge bucket-wise ([`LogHistogram::merge`]), so per-lane or
//! per-process histograms aggregate without resampling — the property
//! Prometheus clients rely on, reproduced here without the dependency.

use std::fmt::Write as _;

use crate::json::Json;
use crate::names::kind_of;

/// Sub-buckets per power-of-two octave.
const SUB: usize = 4;
/// Number of octaves covered: `[2^-30, 2^12)`.
const OCTAVES: usize = 42;
/// Lower edge of the first regular bucket.
const LO: f64 = 9.313_225_746_154_785e-10; // 2^-30
/// Bucket count: underflow + OCTAVES*SUB + overflow.
pub const HIST_BUCKETS: usize = 2 + OCTAVES * SUB;

/// Fixed-size log-bucketed histogram. See the module docs for the layout
/// and the ≤ 19% bucket-quantile error bound.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; HIST_BUCKETS],
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index for a value. Non-finite and sub-range values go to the
    /// underflow bucket 0; values past the top octave to the last bucket.
    fn bucket_of(v: f64) -> usize {
        if !v.is_finite() || v < LO {
            return 0;
        }
        // log2(v / LO) scaled to quarter-octaves, truncated.
        let idx = ((v / LO).log2() * SUB as f64).floor();
        if idx < 0.0 {
            0
        } else if idx >= (OCTAVES * SUB) as f64 {
            HIST_BUCKETS - 1
        } else {
            1 + idx as usize
        }
    }

    /// Upper edge of a bucket (the value a quantile in it reports).
    fn bucket_upper(i: usize) -> f64 {
        if i == 0 {
            LO
        } else if i >= HIST_BUCKETS - 1 {
            f64::INFINITY
        } else {
            LO * 2f64.powf(i as f64 / SUB as f64)
        }
    }

    pub fn observe(&mut self, v: f64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        if v.is_finite() {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
    }

    /// Bucket-wise aggregation of another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact smallest finite observation (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.total == 0 || !self.min.is_finite() {
            0.0
        } else {
            self.min
        }
    }

    /// Exact largest finite observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.total == 0 || !self.max.is_finite() {
            0.0
        } else {
            self.max
        }
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Raw bucket counts (underflow, quarter-octave ladder, overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Nearest-rank quantile over the bucket cumulative: exact at `p ≤ 0`
    /// (min) and `p ≥ 1` (max), otherwise the upper bound of the bucket
    /// holding the rank, clamped to the exact observed `[min, max]` — so
    /// the error is bounded by the 2^(1/4) bucket width (≤ 19%).
    pub fn quantile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        if p <= 0.0 {
            return self.min();
        }
        if p >= 1.0 {
            return self.max();
        }
        // nearest-rank: the smallest rank k with k >= ceil(p * total)
        let rank = (p * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Rebuild from checkpointed parts. A counts vector from a different
    /// build is resized (zero-padded or truncated) to the current layout;
    /// the exact `total`/`sum`/`min`/`max` stay authoritative either way.
    fn from_parts(counts: Vec<u64>, total: u64, sum: f64, min: f64, max: f64) -> Self {
        let mut counts = counts;
        counts.resize(HIST_BUCKETS, 0);
        LogHistogram {
            counts,
            total,
            sum,
            min,
            max,
        }
    }

    /// Compact JSON summary (bucket array elided; quantiles cover it).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.total as f64)),
            ("sum", Json::from(self.sum)),
            ("min", Json::from(self.min())),
            ("max", Json::from(self.max())),
            ("mean", Json::from(self.mean())),
            ("p50", Json::from(self.quantile(0.50))),
            ("p95", Json::from(self.quantile(0.95))),
            ("p99", Json::from(self.quantile(0.99))),
        ])
    }
}

// `min`/`max` cross as the in-memory fields (±inf while empty), not the
// clamped accessors.
hetsolve_ckpt::wire_struct!(
    LogHistogram { counts, total, sum, min, max } => LogHistogram::from_parts
);

/// Named counters, gauges and histograms. Names must be declared in the
/// committed [`crate::names::METRICS`] table — enforced by a
/// `debug_assert` at first registration here and by the `cargo xtask
/// analyze` metric-names pass over call-site literals.
///
/// Backing storage is insertion-ordered `Vec`s, not hash maps: the
/// registry lives on observer seams where iteration order must be
/// deterministic (the workspace determinism lint bans hash-order
/// iteration in library paths), and the name population is the committed
/// table, small enough that linear probes beat hashing anyway.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: Vec<(String, f64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, LogHistogram)>,
}

fn slot<'a, T: Default>(v: &'a mut Vec<(String, T)>, name: &str, kind: &str) -> &'a mut T {
    if let Some(i) = v.iter().position(|(n, _)| n == name) {
        return &mut v[i].1;
    }
    debug_assert_eq!(
        kind_of(name),
        Some(kind),
        "metric `{name}` must be declared as a {kind} in crates/obs/src/names.rs"
    );
    v.push((name.to_string(), T::default()));
    &mut v.last_mut().unwrap().1
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `delta` to a counter (monotonic by convention).
    pub fn inc(&mut self, name: &str, delta: f64) {
        *slot(&mut self.counters, name, "counter") += delta;
    }

    /// Set a gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        *slot(&mut self.gauges, name, "gauge") = v;
    }

    /// Record one observation into a histogram.
    pub fn observe(&mut self, name: &str, v: f64) {
        slot(&mut self.histograms, name, "histogram").observe(v);
    }

    /// Merge an externally-built histogram into a named one.
    pub fn merge_histogram(&mut self, name: &str, h: &LogHistogram) {
        slot(&mut self.histograms, name, "histogram").merge(h);
    }

    /// Merge another registry: counters and histograms aggregate;
    /// gauges take the other registry's value (last write wins).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            self.inc(name, *v);
        }
        for (name, v) in &other.gauges {
            self.gauge_set(name, *v);
        }
        for (name, h) in &other.histograms {
            self.merge_histogram(name, h);
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// JSON snapshot: `{counters: {...}, gauges: {...}, histograms: {...}}`
    /// with sorted keys (the `Json::Obj` map sorts).
    pub fn to_json(&self) -> Json {
        let obj = |pairs: Vec<(String, Json)>| Json::Obj(pairs.into_iter().collect());
        Json::obj([
            (
                "counters",
                obj(self
                    .counters
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::from(*v)))
                    .collect()),
            ),
            (
                "gauges",
                obj(self
                    .gauges
                    .iter()
                    .map(|(n, v)| (n.clone(), Json::from(*v)))
                    .collect()),
            ),
            (
                "histograms",
                obj(self
                    .histograms
                    .iter()
                    .map(|(n, h)| (n.clone(), h.to_json()))
                    .collect()),
            ),
        ])
    }

    /// Prometheus text exposition (version 0.0.4): `# TYPE` lines, plain
    /// samples for counters/gauges, and cumulative `_bucket{le="..."}` /
    /// `_sum` / `_count` series for histograms (empty buckets elided;
    /// `le="+Inf"` always present). Names are emitted sorted so the page
    /// is diffable.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut counters: Vec<_> = self.counters.iter().collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, v) in counters {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        let mut gauges: Vec<_> = self.gauges.iter().collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, v) in gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        let mut hists: Vec<_> = self.histograms.iter().collect();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, h) in hists {
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for (i, &c) in h.counts().iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cum += c;
                let upper = LogHistogram::bucket_upper(i);
                if upper.is_finite() {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{upper:e}\"}} {cum}");
                }
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.total());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.total());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_respect_the_bucket_error_bound() {
        let mut h = LogHistogram::new();
        let vals = [4.0, 1.0, 3.0, 2.0];
        for v in vals {
            h.observe(v);
        }
        assert_eq!(h.total(), 4);
        assert_eq!(h.sum(), 10.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 4.0);
        // p0/p1 exact; interior quantiles within the 2^(1/4) bucket bound
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 4.0);
        let bound = 2f64.powf(0.25);
        let p50 = h.quantile(0.5);
        assert!(
            (2.0..=2.0 * bound + 1e-12).contains(&p50),
            "p50 {p50} outside [2, 2*2^(1/4)]"
        );
        for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
            let q = h.quantile(p);
            assert!((1.0..=4.0).contains(&q), "quantile clamped to [min, max]");
            // some exact nearest-rank value v has q in [v, v * 2^(1/4)]
            assert!(
                vals.iter().any(|&v| (v..=v * bound + 1e-12).contains(&q)),
                "q({p}) = {q} not within bound of any sample"
            );
        }
    }

    #[test]
    fn histogram_is_fixed_size_and_o_buckets_to_query() {
        let mut h = LogHistogram::new();
        for i in 0..100_000u64 {
            h.observe(1e-6 * (1.0 + (i % 1000) as f64));
        }
        assert_eq!(h.counts().len(), HIST_BUCKETS);
        assert_eq!(h.total(), 100_000);
        let p95 = h.quantile(0.95);
        assert!(p95 > 0.0 && (h.min()..=h.max()).contains(&p95));
    }

    #[test]
    fn out_of_range_and_nonfinite_values_are_counted() {
        let mut h = LogHistogram::new();
        h.observe(0.0); // below LO -> underflow bucket
        h.observe(1e-30);
        h.observe(1e9); // above range -> overflow bucket
        h.observe(f64::NAN); // counted, excluded from sum/min/max
        assert_eq!(h.total(), 4);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 1e9);
        assert!(h.sum().is_finite());
        assert_eq!(h.quantile(1.0), 1e9);
    }

    #[test]
    fn merge_is_bucketwise_aggregation() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in [1.0, 2.0] {
            a.observe(v);
        }
        for v in [0.5, 8.0] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.sum(), 11.5);
        assert_eq!(a.min(), 0.5);
        assert_eq!(a.max(), 8.0);
    }

    #[test]
    fn from_parts_round_trips_and_pads_foreign_layouts() {
        let mut h = LogHistogram::new();
        for v in [0.001, 0.002, 0.4] {
            h.observe(v);
        }
        let back = LogHistogram::from_parts(h.counts().to_vec(), h.total(), h.sum(), h.min, h.max);
        assert_eq!(back, h);
        // a shorter counts vector (older build) is zero-padded
        let short = LogHistogram::from_parts(vec![1, 2], 3, 6.0, 1.0, 3.0);
        assert_eq!(short.counts().len(), HIST_BUCKETS);
        assert_eq!(short.total(), 3);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.inc("core_steps_total", 1.0);
        r.inc("core_steps_total", 2.0);
        r.gauge_set("serve_queue_depth", 5.0);
        r.gauge_set("serve_queue_depth", 3.0);
        r.observe("serve_request_latency_s", 0.25);
        assert_eq!(r.counter("core_steps_total"), 3.0);
        assert_eq!(r.gauge("serve_queue_depth"), Some(3.0));
        assert_eq!(r.histogram("serve_request_latency_s").unwrap().total(), 1);
        assert_eq!(r.counter("core_flops_total"), 0.0, "absent counter reads 0");
        assert!(!r.is_empty());
    }

    #[test]
    fn registry_merge_adds_counters_and_histograms_gauges_last_write() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.inc("core_steps_total", 2.0);
        b.inc("core_steps_total", 3.0);
        a.gauge_set("serve_elapsed_s", 1.0);
        b.gauge_set("serve_elapsed_s", 9.0);
        a.observe("core_phase_cpu_s", 0.1);
        b.observe("core_phase_cpu_s", 0.2);
        a.merge(&b);
        assert_eq!(a.counter("core_steps_total"), 5.0);
        assert_eq!(a.gauge("serve_elapsed_s"), Some(9.0));
        assert_eq!(a.histogram("core_phase_cpu_s").unwrap().total(), 2);
    }

    #[test]
    fn prometheus_text_page_has_types_buckets_and_sorted_names() {
        let mut r = MetricsRegistry::new();
        r.inc("serve_requests_completed_total", 7.0);
        r.gauge_set("serve_queue_depth", 2.0);
        for v in [0.01, 0.02, 0.04] {
            r.observe("serve_request_latency_s", v);
        }
        let page = r.to_prometheus_text();
        assert!(page.contains("# TYPE serve_requests_completed_total counter"));
        assert!(page.contains("serve_requests_completed_total 7"));
        assert!(page.contains("# TYPE serve_queue_depth gauge"));
        assert!(page.contains("# TYPE serve_request_latency_s histogram"));
        assert!(page.contains("serve_request_latency_s_bucket{le=\"+Inf\"} 3"));
        assert!(page.contains("serve_request_latency_s_count 3"));
        assert!(page.contains("serve_request_latency_s_sum"));
        // cumulative buckets are nondecreasing
        let mut last = 0u64;
        for line in page.lines().filter(|l| l.contains("_bucket{le=")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket cumulative must be nondecreasing");
            last = v;
        }
    }

    #[test]
    fn registry_json_snapshot_is_structured() {
        let mut r = MetricsRegistry::new();
        r.inc("core_steps_total", 4.0);
        r.observe("core_phase_gpu_s", 0.5);
        let j = r.to_json();
        assert_eq!(
            j.get("counters")
                .and_then(|c| c.get("core_steps_total"))
                .and_then(|v| v.as_f64()),
            Some(4.0)
        );
        assert_eq!(
            j.get("histograms")
                .and_then(|h| h.get("core_phase_gpu_s"))
                .and_then(|h| h.get("count"))
                .and_then(|v| v.as_f64()),
            Some(1.0)
        );
    }
}
