//! Workspace automation. `cargo xtask lint` is the static half of the
//! EBE scatter safety story (see DESIGN.md "Safety argument"):
//!
//! 1. The **only** `unsafe impl Send`/`unsafe impl Sync` in the repository
//!    are the audited pair on `ColorScatter` in
//!    `crates/sparse/src/parcheck.rs` and the one `Sync` on the host
//!    pool's disjoint-piece hand-out in `crates/pool/src/lib.rs`, each an
//!    exact count. Every raw-pointer scatter goes through the first and
//!    every split of a `&mut` slice across threads through the second
//!    (`hetsolve_pool::for_each_mut`) instead of re-rolling a `SendPtr`.
//! 2. Crates that need no unsafe code at all must say so with
//!    `#![forbid(unsafe_code)]`, so a future `unsafe` block there is a
//!    compile error rather than a review burden.
//!
//! The scan is textual (no rustc plumbing, no dependencies), which is
//! exactly what we want from a tripwire: it cannot be silenced by cfg
//! gymnastics, and it runs in milliseconds on any toolchain.

#![forbid(unsafe_code)]

mod analyze;
mod bench;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The modules allowed to contain `unsafe impl Send`/`Sync`, with the exact
/// number of each they must contain.
const BLESSED: &[Blessed] = &[
    Blessed {
        file: "crates/sparse/src/parcheck.rs",
        send: 1,
        sync: 1,
    },
    Blessed {
        file: "crates/pool/src/lib.rs",
        send: 0,
        sync: 1,
    },
];

struct Blessed {
    file: &'static str,
    send: usize,
    sync: usize,
}

/// Crates whose root must carry `#![forbid(unsafe_code)]`.
const FORBID_UNSAFE_ROOTS: &[&str] = &[
    "crates/ckpt/src/lib.rs",
    "crates/core/src/lib.rs",
    "crates/fault/src/lib.rs",
    "crates/load/src/lib.rs",
    "crates/machine/src/lib.rs",
    "crates/mesh/src/lib.rs",
    "crates/obs/src/lib.rs",
    "crates/predictor/src/lib.rs",
    "crates/serve/src/lib.rs",
    "crates/signal/src/lib.rs",
    "src/lib.rs",
];

/// Directories scanned for Rust sources.
const SCAN_ROOTS: &[&str] = &["crates", "src", "tests", "examples", "vendor", "xtask"];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => lint(),
        Some("analyze") => analyze::run(args),
        Some("bench-snapshot") => bench::bench_snapshot(args.next()),
        Some(other) => {
            eprintln!("unknown xtask `{other}`; available: lint, analyze, bench-snapshot");
            ExitCode::FAILURE
        }
        None => {
            eprintln!(
                "usage: cargo xtask <lint | analyze [--root <dir>] [--write-audit] \
                 [--pass <name>] | bench-snapshot [dir]>"
            );
            ExitCode::FAILURE
        }
    }
}

fn lint() -> ExitCode {
    let failures = lint_failures(&workspace_root());
    if failures.is_empty() {
        let blessed: Vec<String> = BLESSED
            .iter()
            .map(|b| format!("{} Send + {} Sync in {}", b.send, b.sync, b.file))
            .collect();
        println!(
            "xtask lint: ok — blessed unsafe marker impls: {}; \
             {} crate roots forbid unsafe_code",
            blessed.join(", "),
            FORBID_UNSAFE_ROOTS.len()
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("xtask lint: {f}");
        }
        eprintln!("xtask lint: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}

/// Every rule violation in the tree rooted at `root`, as human-readable
/// one-liners; empty means the gate passes.
fn lint_failures(root: &Path) -> Vec<String> {
    let mut failures: Vec<String> = Vec::new();

    // (Send, Sync) impls found in each blessed module
    let mut found = vec![(0usize, 0usize); BLESSED.len()];

    for file in rust_sources(root) {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let text = match fs::read_to_string(&file) {
            Ok(t) => t,
            Err(e) => {
                failures.push(format!("{rel}: unreadable: {e}"));
                continue;
            }
        };
        for (idx, line) in text.lines().enumerate() {
            let Some(kind) = unsafe_impl_kind(line) else {
                continue;
            };
            if let Some(k) = BLESSED.iter().position(|b| b.file == rel) {
                match kind {
                    MarkerImpl::Send => found[k].0 += 1,
                    MarkerImpl::Sync => found[k].1 += 1,
                }
            } else {
                failures.push(format!(
                    "{rel}:{}: `unsafe impl {kind:?}` outside the blessed modules; \
                     route parallel scatters through \
                     `hetsolve_sparse::parcheck::ColorScatter` and splits of a \
                     `&mut` slice through `hetsolve_pool::for_each_mut` instead",
                    idx + 1,
                ));
            }
        }
    }

    for (b, (send, sync)) in BLESSED.iter().zip(found) {
        if (send, sync) != (b.send, b.sync) {
            failures.push(format!(
                "{}: expected exactly {} Send and {} Sync marker impls \
                 (found {send} Send, {sync} Sync)",
                b.file, b.send, b.sync,
            ));
        }
    }

    for rel in FORBID_UNSAFE_ROOTS {
        let path = root.join(rel);
        match fs::read_to_string(&path) {
            Ok(text) if text.contains("#![forbid(unsafe_code)]") => {}
            Ok(_) => failures.push(format!("{rel}: missing `#![forbid(unsafe_code)]`")),
            Err(e) => failures.push(format!("{rel}: unreadable: {e}")),
        }
    }

    failures
}

#[derive(Debug, Clone, Copy)]
enum MarkerImpl {
    Send,
    Sync,
}

/// Detect `unsafe impl ... Send/Sync for ...` on a single line, ignoring
/// comments. Parses the trait *name* (skipping generic parameters and path
/// qualifiers) rather than substring-matching, so `... for SendPtr` is not
/// misread as a Send impl and format strings mentioning the pattern do not
/// trip the scan. The workspace style keeps marker impls on one line; a
/// multi-line impl still contains `unsafe impl` with the trait name on the
/// same line in every rustfmt layout.
fn unsafe_impl_kind(line: &str) -> Option<MarkerImpl> {
    let code = line.split("//").next().unwrap_or("");
    for (idx, _) in code.match_indices("unsafe") {
        let after = &code[idx + "unsafe".len()..];
        let Some(rest) = after.trim_start().strip_prefix("impl") else {
            continue;
        };
        // Skip generic parameters (`impl<T, U: Bound>`), tracking nesting.
        let rest = rest.trim_start();
        let rest = if let Some(generics) = rest.strip_prefix('<') {
            let mut depth = 1usize;
            let mut end = None;
            for (i, c) in generics.char_indices() {
                match c {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(i + 1);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            match end {
                Some(e) => &generics[e..],
                None => continue,
            }
        } else {
            rest
        };
        let name: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
            .collect();
        match name.rsplit("::").next() {
            Some("Send") => return Some(MarkerImpl::Send),
            Some("Sync") => return Some(MarkerImpl::Sync),
            _ => continue,
        }
    }
    None
}

/// All `.rs` files under the scan roots, skipping `target/` and the
/// seeded-bad-source `fixtures/` trees under `xtask/tests/` (those exist
/// precisely to violate the rules; `analyze --root <fixture>` still scans
/// them because the skip applies to children of a walked root, not to the
/// root itself).
pub(crate) fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in SCAN_ROOTS {
        walk(&root.join(top), &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n == "target" || n == "fixtures")
            {
                continue;
            }
            walk(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The workspace root: parent of this binary's crate directory, or the
/// current directory when run from the root (as `cargo xtask` does).
pub(crate) fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a fixture line starting with the `unsafe` keyword at runtime,
    /// so this test file itself stays clean under the self-scan.
    fn kw(rest: &str) -> String {
        format!("uns{}{rest}", "afe ")
    }

    #[test]
    fn detects_marker_impls() {
        assert!(matches!(
            unsafe_impl_kind(&kw("impl Send for SendPtr {}")),
            Some(MarkerImpl::Send)
        ));
        assert!(matches!(
            unsafe_impl_kind(&kw("impl Sync for ColorScatter<'_> {}")),
            Some(MarkerImpl::Sync)
        ));
        assert!(matches!(
            unsafe_impl_kind(&kw("impl<T> Send for Wrapper<T> {}")),
            Some(MarkerImpl::Send)
        ));
        assert!(matches!(
            unsafe_impl_kind(&kw("impl core::marker::Sync for P {}")),
            Some(MarkerImpl::Sync)
        ));
        // `for SendPtr` must not read as a Send impl when the trait is Sync.
        assert!(matches!(
            unsafe_impl_kind(&kw("impl Sync for SendPtr {}")),
            Some(MarkerImpl::Sync)
        ));
        assert!(unsafe_impl_kind(&format!("// {}", kw("impl Send for X {}"))).is_none());
        assert!(unsafe_impl_kind(&kw("fn add(&self) {}")).is_none());
        assert!(unsafe_impl_kind("impl Send for X {} // safe auto trait").is_none());
        assert!(unsafe_impl_kind(&kw("{ *p }; // impl detail")).is_none());
        assert!(unsafe_impl_kind(&kw("impl Drop for Guard {}")).is_none());
    }

    #[test]
    fn lint_passes_on_this_workspace() {
        let failures = lint_failures(&workspace_root());
        assert!(failures.is_empty(), "{failures:#?}");
    }
}
