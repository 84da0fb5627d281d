//! `cargo xtask analyze` — workspace-wide static analysis.
//!
//! Four passes over a comment/string-aware code view of every Rust source
//! (see [`scanner`]), each enforcing an invariant the test suite can only
//! check dynamically:
//!
//! * [`unsafe_audit`] — every `unsafe` site carries a `// SAFETY:`
//!   justification, collected into a committed, diff-checked
//!   `UNSAFE_AUDIT.md` at the workspace root.
//! * [`determinism`] — no ambient wall clock (`Instant`/`SystemTime`)
//!   outside the injectable-clock module, no default-hasher map/set
//!   iteration in library paths, no ambient randomness.
//! * [`panic_surface`] — no `unwrap`/`expect`/`panic!` in hetsolve-core
//!   and hetsolve-serve library code outside tests, unless annotated
//!   `// PANIC-OK: <reason>`.
//! * [`metric_names`] — every metric name written through the
//!   `MetricsRegistry` is declared exactly once in the committed
//!   `crates/obs/src/names.rs` table, with the kind the call site
//!   implies, so a typo'd name cannot silently split a series.
//!
//! All passes are textual and dependency-free, like the original
//! `unsafe impl` tripwire: they cannot be silenced by cfg gymnastics and
//! they run in milliseconds on any toolchain.

pub mod determinism;
pub mod metric_names;
pub mod panic_surface;
pub mod scanner;
pub mod unsafe_audit;

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use scanner::SourceFile;

/// One rule violation, reported as `file:line: [pass] message`.
pub struct Violation {
    pub file: String,
    /// 1-based; 0 means "whole file / no specific line".
    pub line: usize,
    pub pass: &'static str,
    pub message: String,
}

impl Violation {
    pub fn new(file: &str, line_idx0: usize, pass: &'static str, message: String) -> Violation {
        Violation {
            file: file.to_string(),
            line: line_idx0 + 1,
            pass,
            message,
        }
    }
}

/// Aggregate result of a full analysis run, consumed by the CLI and the
/// fixture tests.
pub struct Report {
    pub files_scanned: usize,
    pub unsafe_sites: usize,
    pub metric_names_declared: usize,
    pub violations: Vec<Violation>,
}

pub fn run(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut root: Option<String> = None;
    let mut write_audit = false;
    let mut only_pass: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(dir),
                None => {
                    eprintln!("xtask analyze: --root requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--write-audit" => write_audit = true,
            "--pass" => match args.next() {
                Some(p) => only_pass = Some(p),
                None => {
                    eprintln!("xtask analyze: --pass requires a pass name");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!(
                    "xtask analyze: unknown argument `{other}`; \
                     usage: cargo xtask analyze [--root <dir>] [--write-audit] [--pass <name>]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    let root = root
        .map(std::path::PathBuf::from)
        .unwrap_or_else(crate::workspace_root);

    if write_audit {
        let files = load_sources(&root);
        match unsafe_audit::write_audit_table(&root, &files) {
            Ok(n) => println!(
                "xtask analyze: wrote {} ({n} unsafe sites)",
                root.join(unsafe_audit::AUDIT_FILE).display()
            ),
            Err(e) => {
                eprintln!("xtask analyze: failed to write audit table: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = analyze(&root, only_pass.as_deref());
    if report.violations.is_empty() {
        println!(
            "xtask analyze: ok — {} files, {} unsafe sites audited, \
             {} metric names registered, determinism and panic-surface clean",
            report.files_scanned, report.unsafe_sites, report.metric_names_declared
        );
        ExitCode::SUCCESS
    } else {
        for v in &report.violations {
            if v.line == 0 {
                eprintln!("xtask analyze: {}: [{}] {}", v.file, v.pass, v.message);
            } else {
                eprintln!(
                    "xtask analyze: {}:{}: [{}] {}",
                    v.file, v.line, v.pass, v.message
                );
            }
        }
        eprintln!("xtask analyze: {} violation(s)", report.violations.len());
        ExitCode::FAILURE
    }
}

/// Run all passes (or just `only_pass`) over the tree rooted at `root`.
pub fn analyze(root: &Path, only_pass: Option<&str>) -> Report {
    let files = load_sources(root);
    let enabled = |name: &str| only_pass.is_none_or(|p| p == name);

    let mut violations = Vec::new();
    let mut unsafe_sites = 0usize;
    let mut metric_names_declared = 0usize;

    if enabled("unsafe-audit") {
        let (sites, mut v) = unsafe_audit::check(root, &files);
        unsafe_sites = sites;
        violations.append(&mut v);
    }
    if enabled("determinism") {
        violations.append(&mut determinism::check(&files));
    }
    if enabled("panic-surface") {
        violations.append(&mut panic_surface::check(&files));
    }
    if enabled("metric-names") {
        let (declared, mut v) = metric_names::check(&files);
        metric_names_declared = declared;
        violations.append(&mut v);
    }

    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Report {
        files_scanned: files.len(),
        unsafe_sites,
        metric_names_declared,
        violations,
    }
}

/// Parse every Rust source under the scan roots into a [`SourceFile`].
fn load_sources(root: &Path) -> Vec<SourceFile> {
    let mut out = Vec::new();
    for path in crate::rust_sources(root) {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let Ok(text) = fs::read_to_string(&path) else {
            // unreadable files are `cargo xtask lint`'s problem; the
            // analysis passes only see what parses as UTF-8
            continue;
        };
        out.push(SourceFile::parse(rel, &text));
    }
    out
}

/// Library-path predicate shared by the passes: crate sources and the
/// facade, not tests/examples/fixtures.
pub(crate) fn is_lib_path(rel: &str) -> bool {
    (rel.starts_with("crates/") && rel.contains("/src/")) || rel.starts_with("src/")
}

/// Does raw line `idx` (or the contiguous comment block ending directly
/// above it) carry `marker` with a non-empty reason after the colon? Used
/// for `// PANIC-OK:` and `// DETERMINISM-OK:` allowlist annotations,
/// whose reasons may wrap over several comment lines.
pub(crate) fn has_marker(file: &SourceFile, idx: usize, marker: &str) -> bool {
    let carries = |line: &str| {
        line.split(marker)
            .nth(1)
            .is_some_and(|reason| !reason.trim().is_empty())
    };
    if carries(file.raw_line(idx)) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let above = file.raw_line(i).trim_start();
        if !above.starts_with("//") {
            return false;
        }
        if carries(above) {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_passes_on_this_workspace() {
        let report = analyze(&crate::workspace_root(), None);
        let msgs: Vec<String> = report
            .violations
            .iter()
            .map(|v| format!("{}:{}: [{}] {}", v.file, v.line, v.pass, v.message))
            .collect();
        assert!(msgs.is_empty(), "{msgs:#?}");
        assert!(report.files_scanned > 50);
        assert!(report.unsafe_sites > 0);
    }

    #[test]
    fn marker_requires_a_reason() {
        let f = SourceFile::parse(
            "m.rs".into(),
            "// PANIC-OK:\nlet a = x.unwrap();\n// PANIC-OK: length checked above\nlet b = y.unwrap();\n",
        );
        assert!(!has_marker(&f, 1, "PANIC-OK:"));
        assert!(has_marker(&f, 3, "PANIC-OK:"));
    }
}
