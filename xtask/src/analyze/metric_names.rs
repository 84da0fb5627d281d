//! Metric-name registry enforcement for the telemetry vocabulary.
//!
//! `hetsolve-obs`'s `MetricsRegistry` creates series lazily by name, so a
//! typo'd call site (`serve_request_latency_seconds` vs `_s`) would
//! silently split one series into two and the Prometheus page would lie
//! by omission. The committed table in `crates/obs/src/names.rs` is the
//! single source of truth: this pass parses it textually and fails the
//! build when
//!
//! * the same name is declared twice, or a declaration has an unknown
//!   kind (not `counter`/`gauge`/`histogram`), or
//! * a registry **write** call site in library code — `.inc("…")`,
//!   `.gauge_set("…")`, `.observe("…")`, `.merge_histogram("…")` with a
//!   literal name — uses a name that is not declared, or is declared
//!   with a different kind.
//!
//! Call sites are matched on the comment/string-blanked code view (so a
//! doc comment *describing* `.inc("...")` never fires) and the literal is
//! then read back from the raw line. Dynamically-built names cannot be
//! checked textually; the `debug_assert` in `MetricsRegistry` covers
//! those at test time.

use super::scanner::SourceFile;
use super::{is_lib_path, Violation};

const PASS: &str = "metric-names";

/// The committed registry this pass enforces.
pub const NAMES_FILE: &str = "crates/obs/src/names.rs";

/// Registry write methods and the kind their name argument must have.
const CALLS: &[(&str, &str)] = &[
    (".inc(", "counter"),
    (".gauge_set(", "gauge"),
    (".observe(", "histogram"),
    (".merge_histogram(", "histogram"),
];

/// Parse `(name, kind)` declarations from the raw lines of the METRICS
/// table. Returns `(line_idx0, name, kind)` per entry.
fn parse_table(file: &SourceFile) -> Vec<(usize, String, String)> {
    let mut out = Vec::new();
    let mut in_table = false;
    for (idx, line) in file.raw.iter().enumerate() {
        let t = line.trim();
        if t.starts_with("pub const METRICS") {
            in_table = true;
            continue;
        }
        if !in_table {
            continue;
        }
        if t.starts_with("];") {
            break;
        }
        // entries look like `("core_steps_total", "counter"),`
        let Some(rest) = t.strip_prefix("(\"") else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(rest) = rest.trim_start_matches(',').trim_start().strip_prefix('"') else {
            continue;
        };
        let Some((kind, _)) = rest.split_once('"') else {
            continue;
        };
        out.push((idx, name.to_string(), kind.to_string()));
    }
    out
}

/// Run the pass. Returns (declared names, violations). A tree without
/// [`NAMES_FILE`] skips the pass entirely (fixture trees for other
/// passes; the workspace always has it).
pub fn check(files: &[SourceFile]) -> (usize, Vec<Violation>) {
    let Some(names_file) = files.iter().find(|f| f.rel == NAMES_FILE) else {
        return (0, Vec::new());
    };
    let mut out = Vec::new();
    let table = parse_table(names_file);

    for (i, (line, name, kind)) in table.iter().enumerate() {
        if !matches!(kind.as_str(), "counter" | "gauge" | "histogram") {
            out.push(Violation::new(
                NAMES_FILE,
                *line,
                PASS,
                format!("metric `{name}` declared with unknown kind `{kind}`"),
            ));
        }
        if table[..i].iter().any(|(_, n, _)| n == name) {
            out.push(Violation::new(
                NAMES_FILE,
                *line,
                PASS,
                format!("metric `{name}` declared more than once"),
            ));
        }
    }

    let kind_of = |name: &str| {
        table
            .iter()
            .find(|(_, n, _)| n == name)
            .map(|(_, _, k)| k.as_str())
    };

    for file in files.iter().filter(|f| is_lib_path(&f.rel)) {
        let code_lines: Vec<&str> = file.code.lines().collect();
        for (idx, raw) in file.raw.iter().enumerate() {
            let Some(code) = code_lines.get(idx) else {
                continue;
            };
            for (call, want_kind) in CALLS {
                // gate on the blanked view: comments and string contents
                // are spaces there, so only real call expressions match
                if !code.contains(call) {
                    continue;
                }
                let Some(after) = raw.split(call).nth(1) else {
                    continue;
                };
                // only literal first arguments are checkable
                let Some(rest) = after.strip_prefix('"') else {
                    continue;
                };
                let Some((name, _)) = rest.split_once('"') else {
                    continue;
                };
                match kind_of(name) {
                    None => out.push(Violation::new(
                        &file.rel,
                        idx,
                        PASS,
                        format!(
                            "metric `{name}` is not declared in {NAMES_FILE}; every metric \
                             name must appear exactly once in the committed METRICS table"
                        ),
                    )),
                    Some(k) if k != *want_kind => out.push(Violation::new(
                        &file.rel,
                        idx,
                        PASS,
                        format!(
                            "metric `{name}` is declared as a {k} but `{}\"…\")` \
                             requires a {want_kind}",
                            call
                        ),
                    )),
                    Some(_) => {}
                }
            }
        }
    }
    (table.len(), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn names(body: &str) -> SourceFile {
        SourceFile::parse(
            NAMES_FILE.into(),
            &format!("pub const METRICS: &[(&str, &str)] = &[\n{body}];\n"),
        )
    }

    #[test]
    fn table_parses_and_duplicates_fire() {
        let f = names(
            "    (\"a_total\", \"counter\"),\n    (\"b_s\", \"histogram\"),\n    (\"a_total\", \"counter\"),\n",
        );
        let (n, v) = check(std::slice::from_ref(&f));
        assert_eq!(n, 3);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("more than once"));
    }

    #[test]
    fn unknown_kind_fires() {
        let f = names("    (\"a_total\", \"summary\"),\n");
        let (_, v) = check(std::slice::from_ref(&f));
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("unknown kind"));
    }

    #[test]
    fn unregistered_and_wrong_kind_call_sites_fire_but_comments_do_not() {
        let f = names("    (\"a_total\", \"counter\"),\n");
        let lib = SourceFile::parse(
            "crates/demo/src/lib.rs".into(),
            concat!(
                "fn go(r: &mut R) {\n",
                "    r.inc(\"a_total\", 1.0);\n", // declared, fine
                "    r.inc(\"typo_total\", 1.0);\n", // unregistered
                "    r.observe(\"a_total\", 0.5);\n", // wrong kind
                "    // doc example: r.inc(\"ghost_total\", 1.0)\n", // comment: ignored
                "}\n"
            ),
        );
        let (_, v) = check(&[f, lib]);
        let msgs: Vec<&str> = v.iter().map(|x| x.message.as_str()).collect();
        assert_eq!(v.len(), 2, "{msgs:?}");
        assert!(msgs[0].contains("typo_total"));
        assert!(msgs[1].contains("declared as a counter"));
        assert!(!msgs.iter().any(|m| m.contains("ghost_total")));
    }

    #[test]
    fn tree_without_names_file_is_skipped() {
        let lib = SourceFile::parse(
            "crates/demo/src/lib.rs".into(),
            "fn go(r: &mut R) { r.inc(\"whatever_total\", 1.0); }\n",
        );
        let (n, v) = check(std::slice::from_ref(&lib));
        assert_eq!(n, 0);
        assert!(v.is_empty());
    }

    #[test]
    fn workspace_table_matches_the_compiled_registry() {
        // the textual parse of names.rs must see exactly what rustc sees
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .unwrap()
            .to_path_buf();
        let path = root.join(NAMES_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let f = SourceFile::parse(NAMES_FILE.into(), &text);
        let table = parse_table(&f);
        assert!(
            table.len() >= 20,
            "expected the full table, got {}",
            table.len()
        );
        assert!(table
            .iter()
            .any(|(_, n, k)| n == "core_steps_total" && k == "counter"));
        assert!(table
            .iter()
            .any(|(_, n, k)| n == "serve_request_latency_s" && k == "histogram"));
    }
}
