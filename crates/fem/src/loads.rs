//! Random-wave input generation.
//!
//! The paper (§3.1) analyzes the response to random wave inputs: "impulse
//! waveforms with random amplitudes and uniform spectra in random directions
//! at … randomly selected points on the ground surface", differing per
//! ensemble case. Discrete impulses have a flat (uniform) spectrum, so each
//! source node receives a sparse train of randomly-timed, randomly-signed
//! impulses in a fixed random direction.

use rand::Rng;

/// One excitation source: a surface node, a unit direction, and a sparse
/// impulse train `(step, amplitude)`.
#[derive(Debug, Clone)]
pub struct ImpulseSource {
    pub node: u32,
    pub dir: [f64; 3],
    pub impulses: Vec<(u32, f64)>,
}

/// A per-case random load: the full set of sources plus a step-indexed view
/// for O(active) force evaluation.
#[derive(Debug, Clone)]
pub struct RandomLoad {
    pub sources: Vec<ImpulseSource>,
    /// `by_step[it]` lists `(node, scaled direction)` active at step `it`.
    by_step: Vec<Vec<(u32, [f64; 3])>>,
    n_steps: usize,
}

/// Parameters of the random load generator.
#[derive(Debug, Clone, Copy)]
pub struct RandomLoadSpec {
    /// Number of surface source points per case (paper: 10,000 at full scale).
    pub n_sources: usize,
    /// Expected number of impulses per source over the whole run.
    pub impulses_per_source: f64,
    /// Peak force amplitude (N); actual amplitudes are uniform in
    /// `[0.25, 1.0] * amplitude` with random sign.
    pub amplitude: f64,
    /// Fraction of the run during which impulses may arrive; the remainder
    /// is free vibration (the paper simulates the free-vibration response
    /// to impulse inputs, §3.1).
    pub active_window: f64,
}

impl Default for RandomLoadSpec {
    fn default() -> Self {
        RandomLoadSpec {
            n_sources: 16,
            impulses_per_source: 12.0,
            amplitude: 1.0e6,
            active_window: 0.25,
        }
    }
}

impl RandomLoad {
    /// Generate a random load over `n_steps` using surface nodes as the
    /// candidate source locations. Deterministic given the RNG state.
    pub fn generate<R: Rng>(
        spec: &RandomLoadSpec,
        surface_nodes: &[u32],
        n_steps: usize,
        rng: &mut R,
    ) -> Self {
        assert!(!surface_nodes.is_empty(), "no surface nodes to load");
        assert!(n_steps > 0);
        let mut sources = Vec::with_capacity(spec.n_sources);
        for _ in 0..spec.n_sources {
            let node = surface_nodes[rng.gen_range(0..surface_nodes.len())];
            // Random direction: uniform on the sphere via normalized gaussian
            // (Box-Muller from uniform samples to avoid a distribution dep).
            let dir = loop {
                let v = [
                    rng.gen_range(-1.0f64..1.0),
                    rng.gen_range(-1.0f64..1.0),
                    rng.gen_range(-1.0f64..1.0),
                ];
                let n2: f64 = v.iter().map(|x| x * x).sum();
                if n2 > 1e-4 && n2 <= 1.0 {
                    let n = n2.sqrt();
                    break [v[0] / n, v[1] / n, v[2] / n];
                }
            };
            let n_imp = (spec.impulses_per_source.max(1.0)).round() as usize;
            let window = ((n_steps as f64 * spec.active_window.clamp(0.0, 1.0)).ceil() as u32)
                .clamp(1, n_steps as u32);
            let mut impulses: Vec<(u32, f64)> = (0..n_imp)
                .map(|_| {
                    let step = rng.gen_range(0..window);
                    let amp = spec.amplitude
                        * rng.gen_range(0.25f64..1.0)
                        * if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    (step, amp)
                })
                .collect();
            impulses.sort_unstable_by_key(|&(s, _)| s);
            sources.push(ImpulseSource {
                node,
                dir,
                impulses,
            });
        }
        let mut by_step = vec![Vec::new(); n_steps];
        for s in &sources {
            for &(step, amp) in &s.impulses {
                by_step[step as usize]
                    .push((s.node, [s.dir[0] * amp, s.dir[1] * amp, s.dir[2] * amp]));
            }
        }
        RandomLoad {
            sources,
            by_step,
            n_steps,
        }
    }

    pub fn n_steps(&self) -> usize {
        self.n_steps
    }

    /// Write the force vector for step `it` into `f` (cleared first).
    /// `f.len()` must be `3 * n_nodes`.
    pub fn force_into(&self, it: usize, f: &mut [f64]) {
        f.fill(0.0);
        if it >= self.n_steps {
            return;
        }
        for &(node, v) in &self.by_step[it] {
            let base = 3 * node as usize;
            f[base] += v[0];
            f[base + 1] += v[1];
            f[base + 2] += v[2];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn gen(seed: u64) -> RandomLoad {
        let surface: Vec<u32> = (10..30).collect();
        let spec = RandomLoadSpec {
            n_sources: 5,
            impulses_per_source: 4.0,
            amplitude: 2.0,
            active_window: 0.5,
        };
        RandomLoad::generate(&spec, &surface, 100, &mut ChaCha8Rng::seed_from_u64(seed))
    }

    #[test]
    fn deterministic_given_seed() {
        let a = gen(42);
        let b = gen(42);
        assert_eq!(a.sources.len(), b.sources.len());
        for (sa, sb) in a.sources.iter().zip(&b.sources) {
            assert_eq!(sa.node, sb.node);
            assert_eq!(sa.impulses, sb.impulses);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = gen(1);
        let b = gen(2);
        let same = a
            .sources
            .iter()
            .zip(&b.sources)
            .all(|(x, y)| x.node == y.node && x.impulses == y.impulses);
        assert!(!same);
    }

    #[test]
    fn directions_are_unit() {
        let l = gen(7);
        for s in &l.sources {
            let n: f64 = s.dir.iter().map(|x| x * x).sum::<f64>().sqrt();
            assert!((n - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sources_use_only_surface_nodes() {
        let l = gen(3);
        for s in &l.sources {
            assert!((10..30).contains(&s.node));
        }
    }

    #[test]
    fn force_sums_match_impulses() {
        let l = gen(5);
        let n_nodes = 40;
        let mut f = vec![0.0; 3 * n_nodes];
        let mut total = 0.0;
        for it in 0..l.n_steps() {
            l.force_into(it, &mut f);
            total += f.iter().map(|x| x.abs()).sum::<f64>();
        }
        assert!(total > 0.0);
        // impulse count is preserved
        assert_eq!(
            l.sources.iter().map(|s| s.impulses.len()).sum::<usize>(),
            5 * 4
        );
    }

    #[test]
    fn out_of_range_step_is_zero() {
        let l = gen(5);
        let mut f = vec![1.0; 120];
        l.force_into(10_000, &mut f);
        assert!(f.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn impulses_respect_active_window() {
        let l = gen(11);
        for s in &l.sources {
            for &(step, _) in &s.impulses {
                assert!(
                    step < 50,
                    "impulse at step {step} outside 50% window of 100"
                );
            }
        }
    }

    #[test]
    fn amplitudes_within_spec() {
        let l = gen(9);
        for s in &l.sources {
            for &(_, a) in &s.impulses {
                assert!(a.abs() >= 0.25 * 2.0 - 1e-12 && a.abs() <= 2.0);
            }
        }
    }
}
