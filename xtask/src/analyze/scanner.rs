//! Comment/string-aware Rust source scanner.
//!
//! The analysis passes need to see *code* — not the contents of comments,
//! doc comments, or string literals, all of which freely mention `unsafe`,
//! `Instant::now`, `.unwrap()` and friends. [`SourceFile`] parses a file
//! once into a **code view**: a string of the same line structure as the
//! original in which every comment and every literal body is blanked to
//! spaces. Token searches over the code view cannot be fooled by prose,
//! and byte offsets translate back to 1-based line numbers for reporting.
//!
//! The scanner is deliberately not a Rust parser: like the original
//! `unsafe_impl_kind` line scanner it is a tripwire, immune to cfg
//! gymnastics and macro indirection that a syntactic tool could be told
//! to ignore. What it does model beyond single lines:
//!
//! * nested block comments, raw strings (`r#"…"#`, `br#"…"#`), byte
//!   strings, char literals vs. lifetimes;
//! * `#[cfg(test)]`-gated regions (the following block is marked so
//!   passes can exempt test code).

/// One parsed source file: raw lines for messages/markers, a blanked
/// code view for token searches, and a per-line test-region mask.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Raw text split into lines (no terminators).
    pub raw: Vec<String>,
    /// Code view: same char-per-char line structure as the original, with
    /// comments and literal bodies replaced by spaces.
    pub code: String,
    /// Byte offset of each line start in `code`.
    line_starts: Vec<usize>,
    /// Lines inside a `#[cfg(test)]`-gated item.
    test_mask: Vec<bool>,
}

#[derive(Clone, Copy, PartialEq)]
enum Lex {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

impl SourceFile {
    pub fn parse(rel: String, text: &str) -> SourceFile {
        let code = code_view(text);
        let mut line_starts = vec![0usize];
        for (i, b) in code.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        let raw: Vec<String> = text.lines().map(str::to_string).collect();
        let mut sf = SourceFile {
            rel,
            raw,
            code,
            line_starts,
            test_mask: Vec::new(),
        };
        sf.test_mask = sf.compute_test_mask();
        sf
    }

    pub fn n_lines(&self) -> usize {
        self.raw.len()
    }

    /// 0-based line index of a byte offset into `code`.
    pub fn line_of(&self, offset: usize) -> usize {
        match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Raw text of 0-based line `idx` (empty past EOF).
    pub fn raw_line(&self, idx: usize) -> &str {
        self.raw.get(idx).map(String::as_str).unwrap_or("")
    }

    /// Whether 0-based line `idx` sits inside a `#[cfg(test)]` item.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_mask.get(idx).copied().unwrap_or(false)
    }

    /// Byte offset of the `}` matching the `{` at `open` (code view).
    pub fn match_brace(&self, open: usize) -> Option<usize> {
        debug_assert_eq!(&self.code[open..open + 1], "{");
        let mut depth = 0usize;
        for (i, c) in self.code[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(open + i);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// Lines covered by `#[cfg(test)]` attributes: the attribute line plus
    /// the gated item (to its matching close brace, or to `;`).
    fn compute_test_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.n_lines().max(1)];
        let mut search = 0usize;
        while let Some(found) = self.code[search..].find("#[cfg(test)]") {
            let at = search + found;
            let after = at + "#[cfg(test)]".len();
            let brace = self.code[after..].find('{');
            let semi = self.code[after..].find(';');
            let (from, to) = match (brace, semi) {
                (Some(b), s) if s.is_none() || b < s.unwrap() => {
                    let open = after + b;
                    let close = self.match_brace(open).unwrap_or(self.code.len() - 1);
                    (self.line_of(at), self.line_of(close))
                }
                (_, Some(s)) => (self.line_of(at), self.line_of(after + s)),
                _ => (self.line_of(at), self.n_lines().saturating_sub(1)),
            };
            for line in mask.iter_mut().take(to + 1).skip(from) {
                *line = true;
            }
            search = after;
        }
        mask
    }
}

/// Offsets at which `token` occurs in `code` with identifier boundaries on
/// both sides (so `unsafe_impl_kind` never matches `unsafe`).
pub fn token_positions(code: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut search = 0usize;
    while let Some(found) = code[search..].find(token) {
        let at = search + found;
        // A boundary means "not part of a longer identifier". Tokens that
        // start or end with punctuation (`.unwrap()`, `panic!`) pass the
        // corresponding side trivially.
        let first = token.as_bytes()[0];
        let before_ok = !is_ident(first) || at == 0 || !is_ident(bytes[at - 1]);
        let end = at + token.len();
        let last = token.as_bytes()[token.len() - 1];
        let after_ok = !is_ident(last) || end >= bytes.len() || !is_ident(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        search = at + token.len().max(1);
    }
    out
}

/// Blank comments and literal bodies to spaces, preserving newlines and
/// per-line char counts (ASCII stays aligned with the raw text).
fn code_view(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut state = Lex::Code;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match state {
            Lex::Code => match c {
                '/' if next == Some('/') => {
                    state = Lex::LineComment;
                    out.push(' ');
                }
                '/' if next == Some('*') => {
                    state = Lex::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 1;
                }
                '"' => {
                    state = Lex::Str;
                    out.push('"');
                }
                'r' | 'b' if starts_raw_string(&chars[i..]) => {
                    // consume the prefix up to and including the opening quote
                    let mut hashes = 0u32;
                    let mut j = i;
                    while chars[j] != '"' {
                        if chars[j] == '#' {
                            hashes += 1;
                        }
                        out.push(chars[j]);
                        j += 1;
                    }
                    out.push('"');
                    i = j;
                    state = Lex::RawStr(hashes);
                }
                'b' if next == Some('"') => {
                    out.push('b');
                    out.push('"');
                    i += 1;
                    state = Lex::Str;
                }
                'b' if next == Some('\'') => {
                    out.push('b');
                    out.push('\'');
                    i += 1;
                    state = Lex::Char;
                }
                '\'' => {
                    // char literal vs lifetime: a literal closes within a
                    // few chars (`'x'`, `'\n'`, `'\u{1F600}'`)
                    if is_char_literal(&chars[i..]) {
                        state = Lex::Char;
                    }
                    out.push('\'');
                }
                _ => out.push(c),
            },
            Lex::LineComment => {
                if c == '\n' {
                    state = Lex::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            Lex::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    out.push(' ');
                    out.push(' ');
                    i += 1;
                    state = if depth == 1 {
                        Lex::Code
                    } else {
                        Lex::BlockComment(depth - 1)
                    };
                } else if c == '/' && next == Some('*') {
                    out.push(' ');
                    out.push(' ');
                    i += 1;
                    state = Lex::BlockComment(depth + 1);
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            Lex::Str => match c {
                '\\' => {
                    // `\<newline>` is a string continuation: keep the
                    // newline so line numbering stays aligned.
                    out.push(' ');
                    if let Some(n) = next {
                        out.push(if n == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                }
                '"' => {
                    out.push('"');
                    state = Lex::Code;
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            Lex::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars[i + 1..], hashes) {
                    out.push('"');
                    for _ in 0..hashes {
                        out.push('#');
                    }
                    i += hashes as usize;
                    state = Lex::Code;
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            Lex::Char => match c {
                '\\' => {
                    out.push(' ');
                    if let Some(n) = next {
                        out.push(if n == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                }
                '\'' => {
                    out.push('\'');
                    state = Lex::Code;
                }
                _ => out.push(' '),
            },
        }
        i += 1;
    }
    out
}

/// `r"`, `r#"`, `br#"` … at the cursor?
fn starts_raw_string(s: &[char]) -> bool {
    let mut j = 0;
    if s[j] == 'b' {
        j += 1;
    }
    if s.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while s.get(j) == Some(&'#') {
        j += 1;
    }
    s.get(j) == Some(&'"')
}

/// Does `"` followed by `tail` close a raw string with `hashes` hashes?
fn closes_raw(tail: &[char], hashes: u32) -> bool {
    (0..hashes as usize).all(|k| tail.get(k) == Some(&'#'))
}

/// Is `'` at the cursor a char literal (vs a lifetime)?
fn is_char_literal(s: &[char]) -> bool {
    match s.get(1) {
        Some('\\') => true,
        Some(_) => s.get(2) == Some(&'\''),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(text: &str) -> SourceFile {
        SourceFile::parse("test.rs".into(), text)
    }

    #[test]
    fn comments_and_strings_are_blanked() {
        let f = sf("let x = \"Instant::now\"; // Instant::now\nlet y = 1;\n");
        assert!(!f.code.contains("Instant"));
        assert!(f.code.contains("let x"));
        assert!(f.code.contains("let y"));
    }

    #[test]
    fn raw_and_byte_strings_are_blanked() {
        let f = sf("let a = r#\"unsafe { }\"#; let b = b\"panic!\"; let c = 'x';");
        assert!(!f.code.contains("unsafe"));
        assert!(!f.code.contains("panic"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let f = sf("fn f<'a>(x: &'a str) -> &'a str { x } // .unwrap()\n");
        assert!(f.code.contains("fn f<'a>"));
        assert!(!f.code.contains("unwrap"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let f = sf("/* outer /* inner */ still comment */ let z = 3;\n");
        assert!(!f.code.contains("outer"));
        assert!(f.code.contains("let z = 3"));
    }

    #[test]
    fn line_numbers_track_offsets() {
        let f = sf("a\nbb\nccc\n");
        let pos = f.code.find("ccc").unwrap();
        assert_eq!(f.line_of(pos), 2);
    }

    #[test]
    fn cfg_test_mask_covers_the_gated_block() {
        let f = sf("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn tail() {}\n");
        assert!(!f.in_test(0));
        assert!(f.in_test(1));
        assert!(f.in_test(3));
        assert!(!f.in_test(5));
    }

    #[test]
    fn token_positions_respect_ident_boundaries() {
        let hits = token_positions("unsafe_impl unsafe impl xunsafe", "unsafe");
        assert_eq!(hits.len(), 1);
        assert_eq!(
            &"unsafe_impl unsafe impl xunsafe"[hits[0]..hits[0] + 6],
            "unsafe"
        );
    }
}
