//! Canonical byte images of the load-generation types.
//!
//! [`ArrivalLog`]s persist so a soak's exact input can be re-replayed or
//! shipped next to its report; [`SoakReport`]s serialize so determinism
//! tests can compare two runs bitwise. Each image is a format magic
//! followed by the type's [`Wire`] layout, which is declared next to the
//! type (`gen.rs`, `shape.rs`, `soak.rs`).

use hetsolve_ckpt::{CkptError, Dec, Enc, Wire};

use crate::gen::ArrivalLog;
use crate::soak::SoakReport;

/// Format magic of a serialized [`ArrivalLog`].
const LOG_MAGIC: u64 = 0x6865_744c_4f41_4431; // "hetLOAD1"
/// Format magic of a serialized [`SoakReport`].
const REPORT_MAGIC: u64 = 0x6865_7453_4f41_4b31; // "hetSOAK1"

fn to_image<T: Wire>(magic: u64, value: &T) -> Vec<u8> {
    let mut enc = Enc::new();
    magic.put(&mut enc);
    value.put(&mut enc);
    enc.into_bytes()
}

fn from_image<T: Wire>(magic: u64, what: &str, bytes: &[u8]) -> Result<T, CkptError> {
    let mut dec = Dec::new(bytes);
    if u64::get(&mut dec)? != magic {
        return Err(CkptError::Corrupt(format!("not {what}")));
    }
    let value = T::get(&mut dec)?;
    dec.finish()?;
    Ok(value)
}

impl SoakReport {
    /// Canonical byte image — bitwise equal for bitwise-equal runs.
    pub fn to_bytes(&self) -> Vec<u8> {
        to_image(REPORT_MAGIC, self)
    }

    /// Parse a serialized report ([`SoakReport::to_bytes`] inverse).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        from_image(REPORT_MAGIC, "a soak report", bytes)
    }
}

impl ArrivalLog {
    /// Serialize the stream (config + every arrival).
    pub fn to_bytes(&self) -> Vec<u8> {
        to_image(LOG_MAGIC, self)
    }

    /// Parse a serialized stream ([`ArrivalLog::to_bytes`] inverse).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CkptError> {
        from_image(LOG_MAGIC, "an arrival log", bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::LoadConfig;
    use crate::shape::TrafficShape;
    use crate::soak::TenantLatency;

    #[test]
    fn arrival_log_round_trips() {
        let cfg = LoadConfig::new(5, 500, 80.0)
            .with_shape(TrafficShape::Diurnal {
                base_rps: 80.0,
                amplitude: 0.5,
                period_s: 30.0,
            })
            .with_tenants(3, 0.9)
            .with_steps(1, 4)
            .with_priorities(3)
            .with_deadline_slack(12.0);
        let log = ArrivalLog::generate(&cfg);
        let back = ArrivalLog::from_bytes(&log.to_bytes()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn soak_report_round_trips_and_rejects_garbage() {
        let r = SoakReport {
            n_arrivals: 100,
            admitted: 90,
            rejected: 4,
            shed: 6,
            completed: 88,
            evicted: 2,
            shed_early: 1,
            deadline_miss: 3,
            deadline_miss_rate: 3.0 / 90.0,
            slo_miss: 5,
            autoscale_events: 2,
            peak_queue_depth: 17,
            ticks: 400,
            modeled_elapsed_s: 12.5,
            tenants: vec![TenantLatency {
                tenant: 0,
                completed: 88,
                served_steps: 130,
                p50_s: 0.1,
                p99_s: 0.9,
                p999_s: 1.0,
                max_s: 1.1,
            }],
        };
        let bytes = r.to_bytes();
        assert_eq!(SoakReport::from_bytes(&bytes).unwrap(), r);
        assert!(SoakReport::from_bytes(&bytes[..8]).is_err());
        assert!(SoakReport::from_bytes(b"zzzzzzzzzz").is_err());
    }
}
