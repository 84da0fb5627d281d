//! Negative-fixture tests for `cargo xtask analyze`: each pass must FAIL
//! (nonzero exit, actionable `file:line: [pass] message`) on the bad tree
//! under `tests/fixtures/`, and the clean tree must pass. The workspace
//! itself must also be clean, with the committed `UNSAFE_AUDIT.md`
//! matching a fresh regeneration.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run_analyze(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("analyze")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn xtask analyze")
}

/// Run against `root`, assert failure, and return stderr for message checks.
fn expect_violations(root: &Path, extra: &[&str]) -> String {
    let out = run_analyze(root, extra);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        !out.status.success(),
        "analyze unexpectedly passed on {}:\n{stderr}",
        root.display()
    );
    stderr
}

#[test]
fn clean_fixture_passes() {
    let out = run_analyze(&fixture("clean"), &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "clean fixture failed:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("xtask analyze: ok"), "{stdout}");
}

#[test]
fn unjustified_unsafe_fires() {
    let stderr = expect_violations(&fixture("unsafe_audit"), &[]);
    assert!(
        stderr.contains("crates/demo/src/lib.rs:4: [unsafe-audit]"),
        "{stderr}"
    );
    assert!(stderr.contains("SAFETY"), "{stderr}");
}

#[test]
fn ambient_wall_clock_fires() {
    let stderr = expect_violations(&fixture("determinism_time"), &[]);
    assert!(
        stderr.contains("crates/demo/src/lib.rs:4: [determinism]"),
        "{stderr}"
    );
    assert!(stderr.contains("Instant"), "{stderr}");
}

#[test]
fn hash_map_iteration_fires() {
    let stderr = expect_violations(&fixture("determinism_hash"), &[]);
    assert!(
        stderr.contains("crates/demo/src/lib.rs:7: [determinism]"),
        "{stderr}"
    );
    assert!(stderr.contains("hash"), "{stderr}");
}

#[test]
fn ambient_randomness_fires() {
    let stderr = expect_violations(&fixture("determinism_rand"), &[]);
    assert!(
        stderr.contains("crates/demo/src/lib.rs:4: [determinism]"),
        "{stderr}"
    );
    assert!(stderr.contains("thread_rng"), "{stderr}");
}

#[test]
fn unregistered_metric_names_fire() {
    let stderr = expect_violations(&fixture("metric_names"), &["--pass", "metric-names"]);
    // duplicate + unknown-kind declarations in the fixture table
    assert!(
        stderr.contains("crates/obs/src/names.rs:5: [metric-names]"),
        "{stderr}"
    );
    assert!(stderr.contains("more than once"), "{stderr}");
    assert!(stderr.contains("unknown kind `summary`"), "{stderr}");
    // unregistered and kind-clashing call sites
    assert!(
        stderr.contains("crates/demo/src/lib.rs:4: [metric-names]"),
        "{stderr}"
    );
    assert!(stderr.contains("demo_typo_total"), "{stderr}");
    assert!(stderr.contains("declared as a gauge"), "{stderr}");
    // QoS vocabulary misuses: an undeclared shed counter and the
    // autoscale counter written through the gauge API
    assert!(stderr.contains("serve_shed_early_total"), "{stderr}");
    assert!(stderr.contains("serve_autoscale_events_total"), "{stderr}");
    assert!(stderr.contains("declared as a counter"), "{stderr}");
    // the clean call site and the commented example must not fire
    assert!(!stderr.contains("lib.rs:3"), "{stderr}");
    assert!(!stderr.contains("demo_ghost_total"), "{stderr}");
}

#[test]
fn panic_in_library_path_fires() {
    let stderr = expect_violations(&fixture("panic_surface"), &["--pass", "panic-surface"]);
    assert!(
        stderr.contains("crates/core/src/lib.rs:4: [panic-surface]"),
        "{stderr}"
    );
    assert!(
        stderr.contains("crates/core/src/lib.rs:12: [panic-surface]"),
        "{stderr}"
    );
    assert!(stderr.contains("panic!"), "{stderr}");
    // the PANIC-OK annotated site (line 19) must NOT fire
    assert!(!stderr.contains("lib.rs:19"), "{stderr}");
}

#[test]
fn workspace_is_clean_and_audit_table_is_fresh() {
    let ws = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask has a parent dir")
        .to_path_buf();
    let out = run_analyze(&ws, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "workspace not clean:\n{stderr}");
    // `analyze` diff-checks the committed UNSAFE_AUDIT.md against a fresh
    // rendering, so success here certifies the table is up to date
    assert!(ws.join("UNSAFE_AUDIT.md").is_file());
}
