//! Open-loop soak drivers and the distilled [`SoakReport`].
//!
//! The drivers replay an [`ArrivalLog`] against a server on the modeled
//! clock: tick while work is pending and the next arrival is still in
//! the future, idle the clock across true gaps, admit each request at
//! the first boundary at or after its timestamp, then drain. Arrivals
//! never wait for the server (open loop) — overload shows up as typed
//! shed and deadline misses, exactly what the QoS layer is supposed to
//! produce, never as generator back-pressure.

use hetsolve_obs::{Json, ServeCounter, ServeStats};
use hetsolve_serve::{AdmitError, ClusterServer, EnsembleServer};

use crate::gen::ArrivalLog;

/// Per-tenant distilled latency/throughput row of a soak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantLatency {
    pub tenant: u32,
    pub completed: u64,
    /// Case steps served to completion (the fairness currency).
    pub served_steps: u64,
    pub p50_s: f64,
    pub p99_s: f64,
    pub p999_s: f64,
    pub max_s: f64,
}

hetsolve_ckpt::wire_struct!(TenantLatency {
    tenant,
    completed,
    served_steps,
    p50_s,
    p99_s,
    p999_s,
    max_s,
});

/// Everything a soak run distills to. Byte-serializable
/// ([`SoakReport::to_bytes`]) so determinism tests can assert two
/// same-seed soaks are bitwise equal, and JSON-exportable for artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Arrivals replayed (the log's length).
    pub n_arrivals: usize,
    /// Admission outcomes as the driver saw them.
    pub admitted: usize,
    pub rejected: usize,
    pub shed: usize,
    /// Terminal outcomes from the server's stats after the drain.
    pub completed: usize,
    pub evicted: usize,
    /// Queued requests shed at step boundaries as provably unmeetable.
    pub shed_early: usize,
    pub deadline_miss: usize,
    pub deadline_miss_rate: f64,
    pub slo_miss: usize,
    pub autoscale_events: usize,
    /// Deepest the queue ever got (sampled after every admit and tick).
    pub peak_queue_depth: usize,
    /// Scheduling boundaries the soak executed.
    pub ticks: usize,
    /// Modeled end-to-end time of the run.
    pub modeled_elapsed_s: f64,
    /// One row per tenant, dense by id.
    pub tenants: Vec<TenantLatency>,
}

hetsolve_ckpt::wire_struct!(SoakReport {
    n_arrivals,
    admitted,
    rejected,
    shed,
    completed,
    evicted,
    shed_early,
    deadline_miss,
    deadline_miss_rate,
    slo_miss,
    autoscale_events,
    peak_queue_depth,
    ticks,
    modeled_elapsed_s,
    tenants,
});

impl SoakReport {
    fn from_run(
        stats: &ServeStats,
        n_arrivals: usize,
        admitted: usize,
        rejected: usize,
        shed: usize,
        peak_queue_depth: usize,
        ticks: usize,
    ) -> Self {
        let tenants = stats
            .tenants()
            .iter()
            .map(|t| TenantLatency {
                tenant: t.tenant,
                completed: t.count(ServeCounter::Completed) as u64,
                served_steps: t.served_steps,
                p50_s: t.latency.quantile(0.50),
                p99_s: t.latency.quantile(0.99),
                p999_s: t.latency.quantile(0.999),
                max_s: t.latency.max(),
            })
            .collect();
        SoakReport {
            n_arrivals,
            admitted,
            rejected,
            shed,
            completed: stats.count(ServeCounter::Completed),
            evicted: stats.count(ServeCounter::Evicted),
            shed_early: stats.count(ServeCounter::ShedEarly),
            deadline_miss: stats.count(ServeCounter::DeadlineMiss),
            deadline_miss_rate: stats.deadline_miss_rate(),
            slo_miss: stats.count(ServeCounter::SloMiss),
            autoscale_events: stats.count(ServeCounter::AutoscaleEvents),
            peak_queue_depth,
            ticks,
            modeled_elapsed_s: stats.elapsed_s(),
            tenants,
        }
    }

    /// JSON export for artifacts and the bench snapshot.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n_arrivals", Json::from(self.n_arrivals)),
            ("admitted", Json::from(self.admitted)),
            ("rejected", Json::from(self.rejected)),
            ("shed", Json::from(self.shed)),
            ("completed", Json::from(self.completed)),
            ("evicted", Json::from(self.evicted)),
            ("shed_early", Json::from(self.shed_early)),
            ("deadline_miss", Json::from(self.deadline_miss)),
            ("deadline_miss_rate", Json::Num(self.deadline_miss_rate)),
            ("slo_miss", Json::from(self.slo_miss)),
            ("autoscale_events", Json::from(self.autoscale_events)),
            ("peak_queue_depth", Json::from(self.peak_queue_depth)),
            ("ticks", Json::from(self.ticks)),
            ("modeled_elapsed_s", Json::Num(self.modeled_elapsed_s)),
            (
                "tenants",
                Json::Arr(
                    self.tenants
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("tenant", Json::from(t.tenant as usize)),
                                ("completed", Json::from(t.completed as usize)),
                                ("served_steps", Json::from(t.served_steps as usize)),
                                ("p50_s", Json::Num(t.p50_s)),
                                ("p99_s", Json::Num(t.p99_s)),
                                ("p999_s", Json::Num(t.p999_s)),
                                ("max_s", Json::Num(t.max_s)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Classify one admission outcome into the driver's counters.
fn count_admit<T>(
    res: Result<T, AdmitError>,
    admitted: &mut usize,
    rejected: &mut usize,
    shed: &mut usize,
) {
    match res {
        Ok(_) => *admitted += 1,
        Err(AdmitError::Rejected(_)) => *rejected += 1,
        Err(AdmitError::ShedLoad { .. } | AdmitError::TenantShed { .. }) => *shed += 1,
    }
}

/// Soak one [`EnsembleServer`] with `log`, open-loop, and drain to idle.
pub fn soak_server(server: &mut EnsembleServer<'_>, log: &ArrivalLog) -> SoakReport {
    let ticks_before = server.ticks();
    let (mut admitted, mut rejected, mut shed) = (0usize, 0usize, 0usize);
    let mut peak = server.queue_depth();
    for a in &log.arrivals {
        while server.elapsed() < a.t_s {
            if server.is_idle() {
                let dt = a.t_s - server.elapsed();
                server.advance_idle(dt);
                break;
            }
            server.tick();
            peak = peak.max(server.queue_depth());
        }
        count_admit(
            server.admit(a.request),
            &mut admitted,
            &mut rejected,
            &mut shed,
        );
        peak = peak.max(server.queue_depth());
    }
    while !server.is_idle() {
        server.tick();
        peak = peak.max(server.queue_depth());
    }
    SoakReport::from_run(
        server.stats(),
        log.len(),
        admitted,
        rejected,
        shed,
        peak,
        server.ticks() - ticks_before,
    )
}

/// Soak one [`ClusterServer`] with `log`, open-loop, and drain to idle.
pub fn soak_cluster(cluster: &mut ClusterServer<'_>, log: &ArrivalLog) -> SoakReport {
    let ticks_before = cluster.ticks();
    let (mut admitted, mut rejected, mut shed) = (0usize, 0usize, 0usize);
    let mut peak = cluster.queue_depth();
    for a in &log.arrivals {
        while cluster.elapsed() < a.t_s {
            if cluster.is_idle() {
                let dt = a.t_s - cluster.elapsed();
                cluster.advance_idle(dt);
                break;
            }
            cluster.tick();
            peak = peak.max(cluster.queue_depth());
        }
        count_admit(
            cluster.admit(a.request),
            &mut admitted,
            &mut rejected,
            &mut shed,
        );
        peak = peak.max(cluster.queue_depth());
    }
    while !cluster.is_idle() {
        cluster.tick();
        peak = peak.max(cluster.queue_depth());
    }
    SoakReport::from_run(
        &cluster.stats(),
        log.len(),
        admitted,
        rejected,
        shed,
        peak,
        cluster.ticks() - ticks_before,
    )
}
