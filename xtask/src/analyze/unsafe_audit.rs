//! Unsafe audit: every `unsafe` site must justify itself, and the
//! justifications are collected into a committed `UNSAFE_AUDIT.md` that is
//! diff-checked on every run. Reviewing the workspace's entire unsafe
//! surface is then a one-file read, and a new unsafe block cannot land
//! without both a `// SAFETY:` argument and a visible table diff.
//!
//! Site kinds and their accepted justification forms:
//!
//! * `unsafe {` **block** — a contiguous `// SAFETY:` comment ending on
//!   the line above (attributes may intervene).
//! * `unsafe impl` — same `// SAFETY:` comment rule (matches the blessed
//!   `ColorScatter` pair, which `cargo xtask lint` already confines to
//!   one module).
//! * `unsafe fn` — a `/// # Safety` section in the doc comment (the
//!   caller-facing contract), or a `// SAFETY:` comment.

use std::fs;
use std::path::Path;

use super::scanner::{token_positions, SourceFile};
use super::Violation;

/// Workspace-relative path of the generated audit table.
pub const AUDIT_FILE: &str = "UNSAFE_AUDIT.md";

struct Site {
    file: String,
    /// 0-based line of the `unsafe` keyword.
    line: usize,
    kind: &'static str,
    justification: Option<String>,
}

/// Audit scope: crate sources, the facade, the workspace's integration
/// tests (a counting global allocator lives there), the automation binary
/// and the vendored shims. Examples and crate-level tests use `unsafe` only
/// via the library surface, and fixture trees are excluded by the walker.
fn in_scope(rel: &str) -> bool {
    (rel.starts_with("crates/") && rel.contains("/src/"))
        || rel.starts_with("src/")
        || rel.starts_with("tests/")
        || rel.starts_with("xtask/src/")
        || rel.starts_with("vendor/")
}

/// Run the pass: returns (number of unsafe sites, violations).
pub fn check(root: &Path, files: &[SourceFile]) -> (usize, Vec<Violation>) {
    let mut violations = Vec::new();
    let sites = collect_sites(files);
    for site in &sites {
        if site.justification.is_none() {
            violations.push(Violation {
                file: site.file.clone(),
                line: site.line + 1,
                message: format!(
                    "`unsafe` {} without a justification; add `// SAFETY: <why the \
                     invariants hold>` on the line(s) above{}",
                    site.kind,
                    if site.kind == "fn" {
                        " (or a `/// # Safety` doc section)"
                    } else {
                        ""
                    }
                ),
            });
        }
    }

    // Diff-check the committed table against a fresh rendering. A tree
    // with no unsafe sites (fixtures) needs no table.
    let expected = render_table(&sites);
    let path = root.join(AUDIT_FILE);
    match fs::read_to_string(&path) {
        Ok(actual) if actual == expected => {}
        Ok(_) => violations.push(Violation {
            file: AUDIT_FILE.to_string(),
            line: 0,
            message: "audit table is stale; regenerate with \
                      `cargo xtask analyze --write-audit`"
                .to_string(),
        }),
        Err(_) if sites.is_empty() => {}
        Err(_) => violations.push(Violation {
            file: AUDIT_FILE.to_string(),
            line: 0,
            message: format!(
                "audit table missing ({} unsafe sites in tree); generate it with \
                 `cargo xtask analyze --write-audit`",
                sites.len()
            ),
        }),
    }

    (sites.len(), violations)
}

/// Regenerate the audit table on disk. Returns the number of sites.
pub fn write_audit_table(root: &Path, files: &[SourceFile]) -> std::io::Result<usize> {
    let sites = collect_sites(files);
    fs::write(root.join(AUDIT_FILE), render_table(&sites))?;
    Ok(sites.len())
}

fn collect_sites(files: &[SourceFile]) -> Vec<Site> {
    let mut sites = Vec::new();
    for file in files {
        if !in_scope(&file.rel) {
            continue;
        }
        for pos in token_positions(&file.code, "unsafe") {
            let line = file.line_of(pos);
            let after = file.code[pos + "unsafe".len()..].trim_start();
            let kind = if after.starts_with("impl") {
                "impl"
            } else if after.starts_with("fn") || after.starts_with("extern") {
                "fn"
            } else {
                "block"
            };
            sites.push(Site {
                file: file.rel.clone(),
                line,
                kind,
                justification: justification_for(file, line, kind),
            });
        }
    }
    sites.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    sites
}

/// Walk the contiguous comment/attribute lines above `line` looking for a
/// `SAFETY:` marker (or, for `unsafe fn`, a `# Safety` doc section), and
/// return the first line of justification text.
fn justification_for(file: &SourceFile, line: usize, kind: &str) -> Option<String> {
    let mut idx = line;
    while idx > 0 {
        idx -= 1;
        let raw = file.raw_line(idx).trim_start();
        let is_comment = raw.starts_with("//");
        let is_attr = raw.starts_with("#[") || raw.starts_with("#![");
        if !is_comment && !is_attr {
            return None;
        }
        if let Some(text) = raw.split("SAFETY:").nth(1) {
            let text = text.trim();
            if !text.is_empty() {
                return Some(text.to_string());
            }
            // marker line with the prose on the next comment line
            let next = file.raw_line(idx + 1).trim_start();
            let tail = next.trim_start_matches('/').trim();
            if next.starts_with("//") && !tail.is_empty() {
                return Some(tail.to_string());
            }
            return None;
        }
        if kind == "fn" && raw.starts_with("///") && raw.contains("# Safety") {
            // the contract itself is in the doc body; point readers there
            let next = file.raw_line(idx + 1).trim_start();
            let tail = next.trim_start_matches('/').trim();
            return Some(if next.starts_with("///") && !tail.is_empty() {
                format!("doc contract: {tail}")
            } else {
                "documented caller contract (`# Safety`)".to_string()
            });
        }
    }
    None
}

fn render_table(sites: &[Site]) -> String {
    let mut out = String::new();
    out.push_str("# Unsafe audit\n\n");
    out.push_str(
        "Generated by `cargo xtask analyze --write-audit`; verified against the tree\n\
         by `cargo xtask analyze` (CI-required). Do not edit by hand — change the\n\
         `// SAFETY:` comments at the sites and regenerate.\n\n",
    );
    out.push_str(&format!("{} audited `unsafe` sites.\n\n", sites.len()));
    out.push_str("| File | Line | Kind | Justification |\n");
    out.push_str("|------|-----:|------|---------------|\n");
    for s in sites {
        let text = s
            .justification
            .as_deref()
            .unwrap_or("**MISSING — fails `cargo xtask analyze`**")
            .replace('|', "\\|");
        out.push_str(&format!(
            "| {} | {} | {} | {} |\n",
            s.file,
            s.line + 1,
            s.kind,
            text
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(text: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs".into(), text)
    }

    // Assemble the keyword at runtime so this file stays clean under the
    // audit's own scan of xtask/src.
    fn kw(body: &str) -> String {
        body.replace("UNSAFE", "uns\u{61}fe")
    }

    #[test]
    fn block_with_safety_comment_is_justified() {
        let f = sf(&kw(
            "fn g() {\n    // SAFETY: disjoint writes per color\n    UNSAFE { ptr.add(1) };\n}\n",
        ));
        let sites = collect_sites(std::slice::from_ref(&f));
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, "block");
        assert_eq!(
            sites[0].justification.as_deref(),
            Some("disjoint writes per color")
        );
    }

    #[test]
    fn unjustified_block_is_flagged() {
        let f = sf(&kw("fn g() {\n    UNSAFE { ptr.add(1) };\n}\n"));
        let (n, v) = check(Path::new("/nonexistent"), std::slice::from_ref(&f));
        assert_eq!(n, 1);
        // one violation for the site, one for the missing audit table
        assert_eq!(v.len(), 2);
        assert!(v[0].message.contains("SAFETY"));
        assert_eq!(v[0].line, 2);
        assert!(v[1].message.contains("audit table missing"));
    }

    #[test]
    fn doc_safety_section_justifies_a_fn() {
        let f = sf(&kw(
            "/// Adds.\n///\n/// # Safety\n/// Caller keeps writes disjoint.\npub UNSAFE fn add() {}\n",
        ));
        let sites = collect_sites(std::slice::from_ref(&f));
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, "fn");
        assert!(sites[0]
            .justification
            .as_deref()
            .unwrap()
            .contains("doc contract"));
    }

    #[test]
    fn mentions_in_comments_and_strings_are_ignored() {
        let f = sf(&kw("// UNSAFE { }\nlet s = \"UNSAFE impl\";\n"));
        assert!(collect_sites(std::slice::from_ref(&f)).is_empty());
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let f = SourceFile::parse("examples/demo.rs".into(), &kw("UNSAFE { }\n"));
        assert!(collect_sites(std::slice::from_ref(&f)).is_empty());
    }
}
