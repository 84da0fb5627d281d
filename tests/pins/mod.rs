//! The pin ledger: every digest the suites pin is one `<suite>/<case>
//! <value…>` line of `tests/data/pins.txt`, sorted by key (suite names hold
//! no `/`). A pinned test [`check`]s its suite's lines; each pinned test
//! binary's one ignored `record…` test [`record`]s them, rewriting that
//! suite's lines and no other. So `cargo test --release -- --ignored
//! record` re-records the whole ledger (and the image and JSON goldens next
//! to it), and `git diff tests/data` says what moved.
//!
//! Shared by the integration tests (`mod pins;`) and, through a `#[path]`
//! module, by `hetsolve-core`'s unit tests, so it uses `std` alone.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};

/// `tests/data/pins.txt` under the nearest ancestor of the package that
/// holds one: the workspace root, from the facade and from every crate.
fn ledger_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .map(|dir| dir.join("tests/data/pins.txt"))
        .find(|path| path.is_file())
        .expect("tests/data/pins.txt in an ancestor of the package")
}

fn read_ledger() -> String {
    std::fs::read_to_string(ledger_path()).expect("read tests/data/pins.txt")
}

/// The ledger's lines by key; a repeated key fails.
fn parse(text: &str) -> BTreeMap<&str, &str> {
    let mut ledger = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let (key, value) = line.split_once(' ').unwrap_or((line, ""));
        let repeated = ledger.insert(key, value).is_some();
        assert!(!repeated, "pins.txt:{}: key {key} is repeated", i + 1);
    }
    ledger
}

/// `suite`'s `(case, value)` lines by ledger key.
fn keyed<'a>(suite: &str, lines: &'a [(String, String)]) -> BTreeMap<String, &'a str> {
    let mut keyed = BTreeMap::new();
    for (case, value) in lines {
        let key = format!("{suite}/{case}");
        let line = !key.contains(char::is_whitespace) && !value.is_empty() && !value.contains('\n');
        assert!(line, "{key} {value:?} is no ledger line");
        assert!(
            keyed.insert(key, value.as_str()).is_none(),
            "{suite}/{case} twice"
        );
    }
    keyed
}

fn of_suite(key: &str, suite: &str) -> bool {
    key.strip_prefix(suite)
        .is_some_and(|case| case.starts_with('/'))
}

/// Every key of `suite` on which the ledger `text` and the computed
/// `lines` differ, as `<key>: ledger …, computed …`, in key order.
pub(crate) fn diffs(text: &str, suite: &str, lines: &[(String, String)]) -> Vec<String> {
    let (ledger, computed) = (parse(text), keyed(suite, lines));
    let in_suite = ledger.keys().copied().filter(|key| of_suite(key, suite));
    let keys: BTreeSet<&str> = in_suite
        .chain(computed.keys().map(String::as_str))
        .collect();
    let diff = |key: &str| {
        let (pinned, value) = (ledger.get(key), computed.get(key));
        (pinned != value).then(|| {
            let pinned = pinned.unwrap_or(&"(absent)");
            format!(
                "{key}: ledger {pinned}, computed {}",
                value.unwrap_or(&"nothing")
            )
        })
    };
    keys.into_iter().filter_map(diff).collect()
}

/// Fails unless the ledger holds exactly `suite`'s `(case, value)` lines,
/// naming every key that differs with its ledger and computed values.
pub(crate) fn check(suite: &str, lines: &[(String, String)]) {
    let diffs = diffs(&read_ledger(), suite, lines);
    let how = "re-record: `cargo test --release -- --ignored record`";
    assert!(
        diffs.is_empty(),
        "{suite}: bits moved against tests/data/pins.txt ({how}):\n{}",
        diffs.join("\n")
    );
}

/// Rewrites `suite`'s lines of the ledger with `lines`, leaving every
/// other suite's as they were, and reports the keys that moved on stderr.
pub(crate) fn record(suite: &str, lines: &[(String, String)]) {
    let text = read_ledger();
    let moved = diffs(&text, suite, lines).join("\n");
    if !moved.is_empty() {
        // to the stream itself: libtest captures a passing test's `eprintln!`
        let _ = writeln!(std::io::stderr(), "pins.txt: {suite} re-recorded:\n{moved}");
    }
    let mut ledger = parse(&text);
    ledger.retain(|key, _| !of_suite(key, suite));
    let computed = keyed(suite, lines);
    ledger.extend(computed.iter().map(|(key, value)| (key.as_str(), *value)));
    let new: String = ledger.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    if new != text {
        std::fs::write(ledger_path(), new).expect("write tests/data/pins.txt");
    }
}
