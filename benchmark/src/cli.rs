//! Command line; [`USAGE`] is the summary.

use std::path::{Path, PathBuf};
use std::process::Command;

use hetsolve::obs::{parse_json, Json};

use crate::compare::compare;
use crate::golden::write_golden;
use crate::report::{dig, format_value, metadata, Declarations, Report};
use crate::runner::{run_traced, run_untraced};
use crate::workloads::{find, Workload, WORKLOADS};

const USAGE: &str = "usage:
  hetbench [run] --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--out <dir>]
  hetbench all --seed <n> --out <dir> [--seconds <s>] [--trace <0|1>]
  hetbench write-golden --seed <n> [--workload <name>]
  hetbench compare <a.json> <b.json>";

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!("{USAGE}\nworkloads: {}", names.join(" "))
}

struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    /// Arguments that are not options (the files of `compare`).
    rest: Vec<String>,
}

fn parse(args: &[String], decls: &Declarations) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: decls.run_seconds,
        traced: false,
        out: None,
        rest: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            o.rest.push(arg.clone());
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--workload" => {
                o.workload =
                    Some(find(value).ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => o.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                o.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                o.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--out" => o.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {arg}")),
        }
    }
    // case seeds are 1000 * seed + c
    if o.seed > u64::MAX / 1000 - 1 {
        return Err(format!("seed {} is too large", o.seed));
    }
    Ok(o)
}

fn write(path: &Path, json: &Json) -> Result<(), String> {
    std::fs::write(path, json.to_string_pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `<out>/<workload>.json` (untraced) or `<out>/<workload>.layers.json`.
fn report_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!(
        "{workload}{}.json",
        if traced { ".layers" } else { "" }
    ))
}

/// Run one workload in this process. The result line is the last line of
/// standard output; the exit code is 0 only if every operation succeeded.
fn cmd_run(o: &Options, decls: &Declarations) -> Result<i32, String> {
    let w = o.workload.ok_or("run needs --workload")?;
    let meta = metadata(o.seed, o.seconds);
    println!("hetbench {} — {}", w.name, meta.to_string_compact());
    if let Some(out) = &o.out {
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    let mut spans = None;
    let report: Report = if o.traced {
        let traced = run_traced(w, o.seed)?;
        if let Some(out) = &o.out {
            let path = out.join(format!("{}.trace.json", w.name));
            let trace_meta = [("workload", Json::from(w.name)), ("run", meta.clone())];
            traced
                .tracer
                .write_chrome(&path, &trace_meta)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        spans = Some(traced.tracer.summary());
        traced.report
    } else {
        run_untraced(w, o.seed, o.seconds)?
    };
    report.assert_declared(decls);
    report.print_table(decls);
    if let Some(out) = &o.out {
        let mut json = report.to_json(decls, &meta);
        if let (Json::Obj(map), Some(spans)) = (&mut json, spans) {
            map.insert("spans".to_string(), spans);
        }
        write(&report_path(out, w.name, o.traced), &json)?;
    }
    println!("{}", report.result_line(decls));
    Ok(if report.correct() { 0 } else { 1 })
}

/// Run every workload, each in a process of its own so that `peak_rss_mb`
/// is the workload's, and merge the outputs into `<out>/hetbench.json`.
fn cmd_all(o: &Options, decls: &Declarations) -> Result<i32, String> {
    let out = o.out.as_deref().ok_or("all needs --out <dir>")?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let passes: &[bool] = if o.traced { &[false, true] } else { &[false] };
    let mut ok = true;
    let mut merged = Vec::new();
    for w in &WORKLOADS {
        let mut entry = Vec::new();
        for &traced in passes {
            let status = Command::new(&exe)
                .args(["run", "--workload", w.name])
                .args(["--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(out)
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            ok &= status.success();
            // a child that died before writing leaves no file to merge
            if let Ok(report) = read(&report_path(out, w.name, traced)) {
                entry.push((if traced { "per_layer" } else { "end_to_end" }, report));
            }
        }
        merged.push((w.name.to_string(), Json::obj(entry)));
    }
    let all = Json::obj([
        ("meta", metadata(o.seed, o.seconds)),
        ("workloads", Json::Obj(merged.into_iter().collect())),
    ]);
    write(&out.join("hetbench.json"), &all)?;
    print_summary(decls, &all);
    println!("wrote {}", out.join("hetbench.json").display());
    Ok(if ok { 0 } else { 1 })
}

/// Every metric by name with its unit, one column per workload.
fn print_summary(decls: &Declarations, all: &Json) {
    for (pass, metrics) in [
        ("end_to_end", &decls.end_to_end),
        ("per_layer", &decls.per_layer),
    ] {
        let cell = |w: &str, path: &[&str]| {
            dig(all, &["workloads", w, pass])
                .and_then(|j| dig(j, path))
                .and_then(Json::as_f64)
        };
        if decls
            .workloads
            .iter()
            .all(|(w, _)| cell(w, &["failed"]).is_none())
        {
            continue; // pass not run
        }
        print!("\n{:<32} {:<8}", pass, "unit");
        for (w, _) in &decls.workloads {
            print!(" {w:>18}");
        }
        println!();
        let row = |label: &str, unit: &str, path: &[&str]| {
            print!("{label:<32} {unit:<8}");
            for (w, _) in &decls.workloads {
                print!(
                    " {:>18}",
                    cell(w, path).map_or("-".to_string(), format_value)
                );
            }
            println!();
        };
        for d in metrics.iter() {
            row(&d.name, &d.unit, &["metrics", &d.name, "value"]);
        }
        row("attempted", "count", &["attempted"]);
        row("failed", "count", &["failed"]);
        row("run wall", "s", &["wall_s"]);
    }
}

fn cmd_write_golden(o: &Options) -> Result<i32, String> {
    for w in WORKLOADS
        .iter()
        .filter(|w| o.workload.is_none_or(|only| only.name == w.name))
    {
        let path = write_golden(w, o.seed)?;
        println!("wrote {}", path.display());
    }
    Ok(0)
}

fn cmd_compare(o: &Options, decls: &Declarations) -> Result<i32, String> {
    let [a, b] = o.rest.as_slice() else {
        return Err("compare needs two files".to_string());
    };
    let violations = compare(decls, &read(Path::new(a))?, &read(Path::new(b))?);
    for v in &violations {
        println!("VIOLATION {v}");
    }
    println!("{} violation(s)", violations.len());
    Ok(if violations.is_empty() { 0 } else { 1 })
}

/// Entry point; returns the process exit code (2: bad usage or an error
/// that kept the benchmark from measuring).
pub fn main(args: Vec<String>) -> i32 {
    let decls = Declarations::load();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "all" | "write-golden" | "compare")) => (c, &args[1..]),
        // the driver's form: options only
        Some(first) if first.starts_with("--") => ("run", &args[..]),
        _ => {
            eprintln!("{}", usage());
            return 2;
        }
    };
    let outcome = parse(rest, &decls).and_then(|o| match command {
        "run" => cmd_run(&o, &decls),
        "all" => cmd_all(&o, &decls),
        "write-golden" => cmd_write_golden(&o),
        _ => cmd_compare(&o, &decls),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("hetbench: {e}\n{}", usage());
            2
        }
    }
}
