//! Summaries and table formatting shared by the benchmark harnesses.

use hetsolve_machine::MemUsage;

use crate::methods::{MethodKind, RunResult};

/// One row of a Table-3/4-style application comparison.
#[derive(Debug, Clone)]
pub struct MethodSummary {
    pub method: MethodKind,
    pub mem: MemUsage,
    /// Mean per-step wall time per case (s).
    pub step_time: f64,
    pub solver_time: f64,
    pub predictor_time: f64,
    pub iterations: f64,
    /// Relative speedup vs. a baseline (filled by the caller).
    pub speedup: f64,
    /// Time-averaged module power (W) and GPU share.
    pub module_power: f64,
    /// Energy per time step per case (J).
    pub energy_per_step: f64,
}

impl MethodSummary {
    /// Build from a run over the measurement window `[from, ..)`.
    pub fn from_run(result: &RunResult, mem: MemUsage, from: usize) -> Self {
        MethodSummary {
            method: result.method,
            mem,
            step_time: result.mean_step_time(from),
            solver_time: result.mean_solver_time(from),
            predictor_time: result.mean_predictor_time(from),
            iterations: result.mean_iterations(from),
            speedup: 1.0,
            module_power: result.energy.avg_power,
            energy_per_step: result.energy_per_step_per_case(),
        }
    }
}

/// Fill the `speedup` column relative to the first row.
pub fn apply_speedups(rows: &mut [MethodSummary]) {
    if let Some(base) = rows.first().map(|r| r.step_time) {
        for r in rows.iter_mut() {
            r.speedup = base / r.step_time;
        }
    }
}

/// Render rows in the layout of the paper's Tables 3/4.
pub fn format_application_table(rows: &[MethodSummary]) -> String {
    let mut s = String::new();
    s.push_str(
        "method            | CPU mem   | GPU mem   | step/case    | solver       | predictor    | iters  | speedup | power   | energy/step/case\n",
    );
    s.push_str(
        "------------------+-----------+-----------+--------------+--------------+--------------+--------+---------+---------+-----------------\n",
    );
    for r in rows {
        s.push_str(&format!(
            "{:<17} | {:>6.1} GB | {:>6.1} GB | {:>9.3} ms | {:>9.3} ms | {:>9.3} ms | {:>6.1} | {:>6.1}x | {:>5.0} W | {:>11.2} mJ\n",
            r.method.label(),
            r.mem.cpu as f64 / 1e9,
            r.mem.gpu as f64 / 1e9,
            r.step_time * 1e3,
            r.solver_time * 1e3,
            r.predictor_time * 1e3,
            r.iterations,
            r.speedup,
            r.module_power,
            r.energy_per_step * 1e3,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(method: MethodKind, t: f64) -> MethodSummary {
        MethodSummary {
            method,
            mem: MemUsage {
                cpu: 56_900_000_000,
                gpu: 0,
            },
            step_time: t,
            solver_time: t * 0.98,
            predictor_time: 0.0,
            iterations: 152.0,
            speedup: 1.0,
            module_power: 327.0,
            energy_per_step: t * 327.0,
        }
    }

    #[test]
    fn speedups_relative_to_first() {
        let mut rows = vec![
            dummy(MethodKind::CrsCgCpu, 30.4),
            dummy(MethodKind::CrsCgGpu, 3.05),
        ];
        apply_speedups(&mut rows);
        assert!((rows[0].speedup - 1.0).abs() < 1e-12);
        assert!((rows[1].speedup - 30.4 / 3.05).abs() < 1e-9);
    }

    #[test]
    fn table_contains_labels() {
        let mut rows = vec![
            dummy(MethodKind::CrsCgCpu, 30.4),
            dummy(MethodKind::CrsCgGpu, 3.05),
        ];
        apply_speedups(&mut rows);
        let t = format_application_table(&rows);
        assert!(t.contains("CRS-CG@CPU"));
        assert!(t.contains("CRS-CG@GPU"));
        assert!(t.contains("56.9 GB"));
    }
}
