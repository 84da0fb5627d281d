//! One rendering of a [`RunResult`] as pin-ledger lines, shared by
//! `driver_unification.rs` and `thread_invariance.rs` (`#[path]` module).

use hetsolve::core::{crc_f64s, RunResult};

fn bits(xs: &[f64]) -> String {
    let hex: Vec<String> = xs.iter().map(|x| format!("{:016x}", x.to_bits())).collect();
    hex.join(" ")
}

/// Everything one run leaves behind, one `(item, value)` line per item, by
/// bit pattern: the case count, the CRC of every `final_u`, every
/// `StepRecord` field, the energy report, every recovery event and every
/// corruption report.
pub(crate) fn run_lines(res: &RunResult) -> Vec<(String, String)> {
    let mut lines = vec![("n_cases".to_string(), res.n_cases.to_string())];
    for (c, u) in res.final_u.iter().enumerate() {
        lines.push((format!("final_u/{c}"), format!("{:08x}", crc_f64s(u))));
    }
    for r in &res.records {
        let (step, solver, predictor) = (
            r.step_time_per_case,
            r.solver_time_per_case,
            r.predictor_time_per_case,
        );
        let times = bits(&[step, solver, predictor, r.transfer_time, r.iterations]);
        let value = format!("{times} {} {}", r.s_used, bits(&[r.initial_rel_res]));
        lines.push((format!("step/{:02}", r.step), value));
    }
    let energy = bits(&[res.energy.energy, res.energy.elapsed]);
    lines.push(("energy".to_string(), energy));
    for (i, ev) in res.recoveries.iter().enumerate() {
        let (failed, with) = (ev.failed.label(), ev.recovered_with.label());
        let value = format!(
            "{} {} {:?} {failed} {with} {}",
            ev.step, ev.set, ev.case, ev.attempts
        );
        lines.push((format!("recovery/{i}"), value));
    }
    for (i, rep) in res.corruptions.iter().enumerate() {
        let (target, action) = (rep.target.label(), rep.action.label());
        let value = format!("{} {:?} {target} {action}", rep.step, rep.case);
        lines.push((format!("corruption/{i}"), value));
    }
    lines
}
