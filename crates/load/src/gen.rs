//! The seeded open-loop arrival generator.
//!
//! [`ArrivalLog::generate`] turns a [`LoadConfig`] into a replayable
//! stream of timestamped [`SolveRequest`]s. Every draw comes from one
//! splitmix64 stream seeded by `config.seed`, so the same config
//! produces the same stream bit-for-bit — the soak suite's determinism
//! assertions rest on this.

use hetsolve_serve::{SolveRequest, TenantId};

use crate::shape::TrafficShape;

/// splitmix64 — the workspace's house deterministic stream (same
/// recurrence as the fault plan and the scheduler tie-break).
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Counter-mode splitmix64 stream: state advances by the golden gamma,
/// outputs are the mixed counter. Dependency-free and splittable.
struct Stream {
    state: u64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1] — safe to take `ln` of.
    fn next_unit(&mut self) -> f64 {
        (((self.next_u64() >> 11) + 1) as f64) * (1.0 / (1u64 << 53) as f64)
    }
}

/// One load scenario: how many requests, at what rate curve, with what
/// tenant mix and request shape. Serializable (see `crate::checkpoint`)
/// so a soak's input travels with its report.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadConfig {
    /// Seed of the generator stream (and, hashed per request, of each
    /// case's initial condition).
    pub seed: u64,
    /// Arrivals to generate.
    pub n_requests: usize,
    /// Arrival-rate curve.
    pub shape: TrafficShape,
    /// Tenants to spread requests over (`TenantId(0..n_tenants)`).
    pub n_tenants: u32,
    /// Zipf skew of the tenant mix: tenant `k` draws weight
    /// `1 / (k+1)^zipf_s`. `0.0` = uniform; larger = heavier head.
    pub zipf_s: f64,
    /// Per-request step counts, uniform in `[steps_min, steps_max]`.
    pub steps_min: u32,
    pub steps_max: u32,
    /// Priority levels: each request draws uniformly from
    /// `0..priority_levels` (0 = a single level, all default priority).
    pub priority_levels: u8,
    /// Deadline slack: each request's deadline is its arrival time plus
    /// this many modeled seconds; `None` = no deadlines.
    pub deadline_slack_s: Option<f64>,
}

hetsolve_ckpt::wire_struct!(LoadConfig {
    seed,
    n_requests,
    shape,
    n_tenants,
    zipf_s,
    steps_min,
    steps_max,
    priority_levels,
    deadline_slack_s,
});

impl LoadConfig {
    /// A single-tenant constant-rate scenario; compose with the builders.
    pub fn new(seed: u64, n_requests: usize, rps: f64) -> Self {
        LoadConfig {
            seed,
            n_requests,
            shape: TrafficShape::Constant { rps },
            n_tenants: 1,
            zipf_s: 0.0,
            steps_min: 1,
            steps_max: 1,
            priority_levels: 0,
            deadline_slack_s: None,
        }
    }

    pub fn with_shape(mut self, shape: TrafficShape) -> Self {
        self.shape = shape;
        self
    }

    pub fn with_tenants(mut self, n_tenants: u32, zipf_s: f64) -> Self {
        self.n_tenants = n_tenants.max(1);
        self.zipf_s = zipf_s.max(0.0);
        self
    }

    pub fn with_steps(mut self, steps_min: u32, steps_max: u32) -> Self {
        self.steps_min = steps_min.max(1);
        self.steps_max = steps_max.max(self.steps_min);
        self
    }

    pub fn with_priorities(mut self, priority_levels: u8) -> Self {
        self.priority_levels = priority_levels;
        self
    }

    pub fn with_deadline_slack(mut self, deadline_slack_s: f64) -> Self {
        self.deadline_slack_s = Some(deadline_slack_s);
        self
    }
}

/// One timestamped arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Modeled arrival time (open-loop: fixed by the generator, never by
    /// the server).
    pub t_s: f64,
    pub request: SolveRequest,
}

hetsolve_ckpt::wire_struct!(Arrival { t_s, request });

/// A replayable arrival stream: the generating config plus every arrival
/// in time order.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalLog {
    pub config: LoadConfig,
    pub arrivals: Vec<Arrival>,
}

hetsolve_ckpt::wire_struct!(ArrivalLog { config, arrivals });

impl ArrivalLog {
    /// Generate the stream for `config` by thinning a homogeneous
    /// Poisson process at the shape's peak rate. Deterministic: the same
    /// config yields the same log bit-for-bit.
    pub fn generate(config: &LoadConfig) -> Self {
        let envelope = config.shape.peak_rate().max(f64::MIN_POSITIVE);
        let n_tenants = config.n_tenants.max(1);
        // Zipf CDF over tenants (uniform when zipf_s == 0)
        let mut cdf = Vec::with_capacity(n_tenants as usize);
        let mut acc = 0.0;
        for k in 0..n_tenants {
            acc += (f64::from(k) + 1.0).powf(-config.zipf_s);
            cdf.push(acc);
        }
        let total = acc;

        let mut stream = Stream::new(config.seed);
        let mut arrivals = Vec::with_capacity(config.n_requests);
        let mut t = 0.0f64;
        while arrivals.len() < config.n_requests {
            // exponential gap of the envelope process
            t += -stream.next_unit().ln() / envelope;
            // thinning: accept with prob rate(t) / envelope
            if stream.next_unit() * envelope > config.shape.rate_at(t) {
                continue;
            }
            let u = stream.next_unit() * total;
            let tenant = cdf.partition_point(|&c| c < u) as u32;
            let tenant = TenantId(tenant.min(n_tenants - 1));
            let span = u64::from(config.steps_max - config.steps_min) + 1;
            let n_steps = config.steps_min + (stream.next_u64() % span) as u32;
            let case_seed = splitmix64(config.seed ^ (arrivals.len() as u64) << 1);
            let mut req = SolveRequest::new(case_seed, n_steps as usize).with_tenant(tenant);
            if config.priority_levels > 0 {
                req = req
                    .with_priority((stream.next_u64() % u64::from(config.priority_levels)) as u8);
            }
            if let Some(slack) = config.deadline_slack_s {
                req = req.with_deadline(t + slack);
            }
            arrivals.push(Arrival {
                t_s: t,
                request: req,
            });
        }
        ArrivalLog {
            config: config.clone(),
            arrivals,
        }
    }

    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Modeled time of the last arrival (0 for an empty log).
    pub fn horizon_s(&self) -> f64 {
        self.arrivals.last().map_or(0.0, |a| a.t_s)
    }

    /// Arrivals per tenant, dense by tenant id.
    pub fn tenant_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.config.n_tenants.max(1) as usize];
        for a in &self.arrivals {
            let t = a.request.tenant.0 as usize;
            if t >= counts.len() {
                counts.resize(t + 1, 0);
            }
            counts[t] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_bitwise() {
        let cfg = LoadConfig::new(42, 5000, 100.0)
            .with_tenants(3, 1.0)
            .with_steps(1, 8)
            .with_priorities(4)
            .with_deadline_slack(30.0);
        let a = ArrivalLog::generate(&cfg);
        let b = ArrivalLog::generate(&cfg);
        assert_eq!(a, b);
        let mut other = cfg.clone();
        other.seed = 43;
        assert_ne!(ArrivalLog::generate(&other), a);
    }

    #[test]
    fn arrivals_are_time_ordered_and_rate_tracks_shape() {
        let cfg = LoadConfig::new(7, 20_000, 200.0);
        let log = ArrivalLog::generate(&cfg);
        assert_eq!(log.len(), 20_000);
        assert!(log.arrivals.windows(2).all(|w| w[0].t_s <= w[1].t_s));
        // 20k arrivals at 200 rps ≈ 100 s horizon (Poisson, loose bound)
        let horizon = log.horizon_s();
        assert!(
            (80.0..125.0).contains(&horizon),
            "horizon {horizon:.1}s for 20k @ 200rps"
        );
    }

    #[test]
    fn zipf_skews_the_tenant_mix() {
        let cfg = LoadConfig::new(11, 10_000, 100.0).with_tenants(4, 1.2);
        let counts = ArrivalLog::generate(&cfg).tenant_counts();
        assert_eq!(counts.iter().sum::<usize>(), 10_000);
        assert!(
            counts.windows(2).all(|w| w[0] > w[1]),
            "zipf head must dominate: {counts:?}"
        );
        // uniform mix for s = 0
        let cfg = LoadConfig::new(11, 10_000, 100.0).with_tenants(4, 0.0);
        let counts = ArrivalLog::generate(&cfg).tenant_counts();
        for &c in &counts {
            assert!((2200..=2800).contains(&c), "uniform mix: {counts:?}");
        }
    }

    #[test]
    fn burst_shape_concentrates_arrivals_in_the_window() {
        let cfg = LoadConfig::new(3, 5000, 0.0).with_shape(TrafficShape::Burst {
            base_rps: 10.0,
            burst_rps: 490.0,
            start_s: 50.0,
            len_s: 10.0,
        });
        let log = ArrivalLog::generate(&cfg);
        let in_window = log
            .arrivals
            .iter()
            .filter(|a| (50.0..60.0).contains(&a.t_s))
            .count();
        // window carries 5000/(500·10 + 10·~rest) — expect the majority
        assert!(
            in_window > log.len() / 2,
            "{in_window} of {} in the burst window",
            log.len()
        );
    }
}
