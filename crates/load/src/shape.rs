//! Open-loop arrival-rate curves.
//!
//! A [`TrafficShape`] maps modeled time to an instantaneous arrival rate
//! (requests per modeled second). The generator samples it by thinning
//! (Lewis–Shedler): candidates from a homogeneous Poisson process at the
//! shape's [`peak_rate`](TrafficShape::peak_rate), accepted with
//! probability `rate_at(t) / peak_rate()` — exact for any bounded rate
//! curve, and deterministic given the seeded uniform stream.

use hetsolve_ckpt::{CkptError, Dec, Enc, Wire};

/// Arrival-rate curve of one load scenario (requests / modeled second).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficShape {
    /// Constant open-loop rate.
    Constant { rps: f64 },
    /// Diurnal sinusoid: `base × (1 + amplitude · sin(2πt / period_s))`,
    /// clamped at zero. `amplitude` in [0, 1] keeps the rate nonnegative
    /// on its own; larger values model dead-of-night silence.
    Diurnal {
        base_rps: f64,
        amplitude: f64,
        period_s: f64,
    },
    /// Flash crowd: `base` everywhere, plus `burst_rps` inside the window
    /// `[start_s, start_s + len_s)`.
    Burst {
        base_rps: f64,
        burst_rps: f64,
        start_s: f64,
        len_s: f64,
    },
}

impl TrafficShape {
    /// Instantaneous arrival rate at modeled time `t` (≥ 0).
    pub(crate) fn rate_at(&self, t: f64) -> f64 {
        match *self {
            TrafficShape::Constant { rps } => rps.max(0.0),
            TrafficShape::Diurnal {
                base_rps,
                amplitude,
                period_s,
            } => {
                let phase = 2.0 * std::f64::consts::PI * t / period_s.max(f64::MIN_POSITIVE);
                (base_rps * (1.0 + amplitude * phase.sin())).max(0.0)
            }
            TrafficShape::Burst {
                base_rps,
                burst_rps,
                start_s,
                len_s,
            } => {
                let in_burst = t >= start_s && t < start_s + len_s;
                (base_rps + if in_burst { burst_rps } else { 0.0 }).max(0.0)
            }
        }
    }

    /// Upper bound of [`rate_at`](Self::rate_at) over all `t` — the
    /// thinning envelope. Always ≥ any instantaneous rate and > 0 for a
    /// usable shape.
    pub(crate) fn peak_rate(&self) -> f64 {
        match *self {
            TrafficShape::Constant { rps } => rps.max(0.0),
            TrafficShape::Diurnal {
                base_rps,
                amplitude,
                ..
            } => (base_rps * (1.0 + amplitude.abs())).max(0.0),
            TrafficShape::Burst {
                base_rps,
                burst_rps,
                ..
            } => (base_rps + burst_rps.max(0.0)).max(0.0),
        }
    }

    /// Stable tag for fingerprints and codecs.
    pub(crate) fn code(&self) -> u8 {
        match self {
            TrafficShape::Constant { .. } => 0,
            TrafficShape::Diurnal { .. } => 1,
            TrafficShape::Burst { .. } => 2,
        }
    }
}

/// Hand-written because it is a tagged union, which `wire_struct!` cannot
/// express: the `code` byte, then the variant's
/// fields in declaration order.
impl Wire for TrafficShape {
    const MIN_WIRE_BYTES: usize = 1 + 8;

    fn put(&self, enc: &mut Enc) {
        self.code().put(enc);
        match *self {
            TrafficShape::Constant { rps } => rps.put(enc),
            TrafficShape::Diurnal {
                base_rps,
                amplitude,
                period_s,
            } => (base_rps, amplitude, period_s).put(enc),
            TrafficShape::Burst {
                base_rps,
                burst_rps,
                start_s,
                len_s,
            } => (base_rps, burst_rps, start_s, len_s).put(enc),
        }
    }

    fn get(dec: &mut Dec<'_>) -> Result<Self, CkptError> {
        Ok(match u8::get(dec)? {
            0 => TrafficShape::Constant {
                rps: Wire::get(dec)?,
            },
            1 => {
                let (base_rps, amplitude, period_s) = Wire::get(dec)?;
                TrafficShape::Diurnal {
                    base_rps,
                    amplitude,
                    period_s,
                }
            }
            2 => {
                let (base_rps, burst_rps, start_s, len_s) = Wire::get(dec)?;
                TrafficShape::Burst {
                    base_rps,
                    burst_rps,
                    start_s,
                    len_s,
                }
            }
            c => {
                return Err(CkptError::Corrupt(format!(
                    "unknown traffic-shape code {c}"
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_bounded_by_peak_and_nonnegative() {
        let shapes = [
            TrafficShape::Constant { rps: 50.0 },
            TrafficShape::Diurnal {
                base_rps: 40.0,
                amplitude: 0.8,
                period_s: 60.0,
            },
            TrafficShape::Burst {
                base_rps: 10.0,
                burst_rps: 200.0,
                start_s: 5.0,
                len_s: 2.0,
            },
        ];
        for s in shapes {
            let peak = s.peak_rate();
            for i in 0..1000 {
                let t = i as f64 * 0.1;
                let r = s.rate_at(t);
                assert!(
                    r >= 0.0 && r <= peak + 1e-12,
                    "{s:?} at t={t}: {r} vs {peak}"
                );
            }
        }
    }

    #[test]
    fn burst_window_is_half_open() {
        let s = TrafficShape::Burst {
            base_rps: 1.0,
            burst_rps: 9.0,
            start_s: 10.0,
            len_s: 5.0,
        };
        assert_eq!(s.rate_at(9.999), 1.0);
        assert_eq!(s.rate_at(10.0), 10.0);
        assert_eq!(s.rate_at(14.999), 10.0);
        assert_eq!(s.rate_at(15.0), 1.0);
    }
}
