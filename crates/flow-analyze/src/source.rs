//! Comment/string-aware source scanning.
//!
//! The lint pass is deliberately dependency-free (no `syn`; the vendor
//! directory is the only dependency source), so it works on a *cleaned*
//! view of each file: comments and the contents of string/char literals
//! are blanked out, line structure is preserved, and `#[cfg(test)]`
//! item spans are marked so lints can restrict themselves to non-test
//! code. This is a token-level approximation, not a parse — precise
//! enough for the lint vocabulary (`L1`–`L4`), cheap enough to run on
//! every commit.

use std::path::{Path, PathBuf};

/// One scanned source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Raw lines exactly as on disk.
    pub raw: Vec<String>,
    /// Lines with comments and literal contents blanked by spaces.
    pub code: Vec<String>,
    /// `true` for lines inside a `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// Lint ids allowed on each line via `// flow-analyze: allow(..)`
    /// escape comments (on the line itself or on comment-only lines
    /// immediately above it).
    pub allows: Vec<Vec<String>>,
}

impl SourceFile {
    /// Reads and scans one file. `root` anchors the relative path used
    /// in findings.
    pub fn read(path: &Path, root: &Path) -> std::io::Result<SourceFile> {
        let text = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        Ok(Self::from_text(path.to_path_buf(), rel, &text))
    }

    /// Scans source text (separated from [`Self::read`] for tests).
    pub fn from_text(path: PathBuf, rel: String, text: &str) -> SourceFile {
        let raw: Vec<String> = text.lines().map(str::to_owned).collect();
        let cleaned = clean(text);
        let code: Vec<String> = cleaned.lines().map(str::to_owned).collect();
        debug_assert_eq!(raw.len(), code.len(), "cleaning must preserve lines");
        let in_test = mark_test_spans(&cleaned, raw.len());
        let allows = collect_allows(&raw, &code);
        SourceFile {
            path,
            rel,
            raw,
            code,
            in_test,
            allows,
        }
    }

    /// True if `lint` is escaped on 1-based line `line`.
    pub fn is_allowed(&self, line: usize, lint: &str) -> bool {
        self.allows
            .get(line.saturating_sub(1))
            .is_some_and(|ids| ids.iter().any(|id| id == lint))
    }

    /// The raw text of 1-based line `line`, trimmed, for snippets.
    pub fn snippet(&self, line: usize) -> String {
        self.raw
            .get(line.saturating_sub(1))
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    }
}

/// Blanks comments and the contents of string/char literals with
/// spaces, preserving newlines and column positions. Delimiters of
/// string literals are kept (as `"`), so token boundaries survive.
fn clean(text: &str) -> String {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let bytes: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        match state {
            State::Code => match c {
                '/' if next == Some('/') => {
                    state = State::LineComment;
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '/' if next == Some('*') => {
                    state = State::BlockComment(1);
                    out.push(' ');
                    out.push(' ');
                    i += 2;
                    continue;
                }
                '"' => {
                    state = State::Str;
                    out.push('"');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string r"..." or r#"..."#.
                    let mut j = i + 1;
                    let mut hashes = 0u32;
                    while bytes.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&'"') {
                        state = State::RawStr(hashes);
                        for _ in i..=j {
                            out.push(' ');
                        }
                        i = j + 1;
                        continue;
                    }
                    out.push(c);
                }
                '\'' => {
                    // Char literal vs lifetime: a char literal closes
                    // within a few characters ('x', '\n', '\u{..}');
                    // a lifetime ('a, 'static) never closes with '.
                    let is_char = if next == Some('\\') {
                        true
                    } else {
                        bytes.get(i + 2) == Some(&'\'')
                    };
                    if is_char {
                        state = State::Char;
                    }
                    out.push('\'');
                }
                _ => out.push(c),
            },
            State::LineComment => {
                if c == '\n' {
                    state = State::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            State::BlockComment(depth) => {
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    out.push(' ');
                    i += 2;
                    continue;
                }
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.push(' ');
                    i += 2;
                    continue;
                }
            }
            State::Str => match c {
                '\\' => {
                    out.push(' ');
                    if let Some(n) = next {
                        // A line-continuation escape still ends the
                        // physical line; keep the newline.
                        out.push(if n == '\n' { '\n' } else { ' ' });
                        i += 2;
                        continue;
                    }
                }
                '"' => {
                    state = State::Code;
                    out.push('"');
                }
                '\n' => out.push('\n'),
                _ => out.push(' '),
            },
            State::RawStr(hashes) => {
                if c == '"' {
                    // Close only when followed by the right number of #.
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if bytes.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        state = State::Code;
                        for _ in 0..=hashes as usize {
                            out.push(' ');
                        }
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            State::Char => match c {
                '\\' => {
                    out.push(' ');
                    if let Some(n) = next {
                        out.push(if n == '\n' { '\n' } else { ' ' });
                        i += 2;
                        continue;
                    }
                }
                '\'' => {
                    state = State::Code;
                    out.push('\'');
                }
                '\n' => {
                    // A misdetected char literal must not eat lines.
                    state = State::Code;
                    out.push('\n');
                }
                _ => out.push(' '),
            },
        }
        i += 1;
    }
    out
}

/// Marks every line covered by a `#[cfg(test)]` (or `#[cfg(all(test,
/// ..))]` / `#[cfg(any(test, ..))]`) item: from the attribute to the
/// close of the brace block that follows it.
fn mark_test_spans(cleaned: &str, line_count: usize) -> Vec<bool> {
    let mut in_test = vec![false; line_count];
    let chars: Vec<char> = cleaned.chars().collect();
    // Precompute char index -> line number (0-based).
    let mut line_of = Vec::with_capacity(chars.len());
    let mut ln = 0usize;
    for &c in &chars {
        line_of.push(ln);
        if c == '\n' {
            ln += 1;
        }
    }
    for marker in ["cfg(test)", "cfg(all(test", "cfg(any(test"] {
        let mut from = 0;
        while let Some(off) = find_from(cleaned, marker, from) {
            from = off + marker.len();
            // Walk forward to the first '{' and match braces.
            let mut i = off;
            while i < chars.len() && chars[i] != '{' {
                i += 1;
            }
            if i == chars.len() {
                continue;
            }
            let start_line = line_of[off];
            let mut depth = 0i64;
            while i < chars.len() {
                match chars[i] {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            let end_line = if i < chars.len() {
                line_of[i]
            } else {
                line_count.saturating_sub(1)
            };
            for flag in in_test.iter_mut().take(end_line + 1).skip(start_line) {
                *flag = true;
            }
        }
    }
    in_test
}

fn find_from(haystack: &str, needle: &str, from: usize) -> Option<usize> {
    haystack.get(from..)?.find(needle).map(|i| i + from)
}

/// Extracts `// flow-analyze: allow(L1, L2)`-style escape comments and
/// attaches them to the line they govern: the comment's own line if it
/// carries code, otherwise the next line that does.
fn collect_allows(raw: &[String], code: &[String]) -> Vec<Vec<String>> {
    let mut allows: Vec<Vec<String>> = vec![Vec::new(); raw.len()];
    let mut pending: Vec<String> = Vec::new();
    for (i, raw_line) in raw.iter().enumerate() {
        let ids = parse_allow_ids(raw_line);
        let has_code = !code[i].trim().is_empty();
        if has_code {
            let mut line_ids = std::mem::take(&mut pending);
            line_ids.extend(ids);
            allows[i] = line_ids;
        } else {
            pending.extend(ids);
        }
    }
    allows
}

/// Parses the lint ids out of every `flow-analyze: allow(...)` marker
/// on a raw line.
fn parse_allow_ids(raw_line: &str) -> Vec<String> {
    const MARKER: &str = "flow-analyze: allow(";
    let mut ids = Vec::new();
    let mut from = 0;
    while let Some(off) = find_from(raw_line, MARKER, from) {
        let rest = &raw_line[off + MARKER.len()..];
        let Some(close) = rest.find(')') else {
            break;
        };
        for id in rest[..close].split(',') {
            // Accept "L1" and "L1: justification".
            let id = id.split(':').next().unwrap_or("").trim();
            if !id.is_empty() {
                ids.push(id.to_owned());
            }
        }
        from = off + MARKER.len() + close;
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(text: &str) -> SourceFile {
        SourceFile::from_text(PathBuf::from("x.rs"), "x.rs".into(), text)
    }

    #[test]
    fn comments_and_strings_are_blanked() {
        let f = scan("let x = \"panic!\"; // unwrap()\nlet y = 'a';\n");
        assert!(!f.code[0].contains("panic"));
        assert!(!f.code[0].contains("unwrap"));
        assert!(f.code[0].contains("let x"));
        assert!(f.code[1].contains("let y"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let f = scan("let s = r#\"a \" unwrap() \"#; s.len();\nlet t = \"\\\"unwrap()\\\"\";\n");
        assert!(!f.code[0].contains("unwrap"));
        assert!(f.code[0].contains("s.len()"));
        assert!(!f.code[1].contains("unwrap"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let f = scan("fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = '}';\nlet d = 1 + 1;\n");
        assert!(f.code[0].contains("fn f"));
        assert!(f.code[0].contains("{ x }"));
        // The '}' literal must not leak a brace into the cleaned code.
        assert!(!f.code[1].contains('}'));
        assert!(f.code[2].contains("1 + 1"));
    }

    #[test]
    fn block_comments_nest() {
        let f = scan("/* a /* b */ still comment */ let x = 1;\n");
        assert!(!f.code[0].contains('a'));
        assert!(f.code[0].contains("let x = 1;"));
    }

    #[test]
    fn test_spans_are_marked() {
        let text = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn tail() {}\n";
        let f = scan(text);
        assert!(!f.in_test[0]);
        assert!(f.in_test[1]);
        assert!(f.in_test[2]);
        assert!(f.in_test[3]);
        assert!(f.in_test[4]);
        assert!(!f.in_test[5]);
    }

    #[test]
    fn raw_strings_swallow_comment_markers_and_panic_tokens() {
        // A `//` inside a raw string is text, not a comment — the code
        // after the string must survive cleaning, the contents must not.
        let f =
            scan("let url = r#\"https://example.com // unwrap( \"#; follow(url);\nlet next = 1;\n");
        assert!(!f.code[0].contains("unwrap"), "{}", f.code[0]);
        assert!(!f.code[0].contains("//"), "{}", f.code[0]);
        assert!(f.code[0].contains("follow(url);"), "{}", f.code[0]);
        assert!(f.code[1].contains("let next = 1;"));
        // Multi-hash raw strings don't close on a single `"#`.
        let g = scan("let s = r##\"inner \"# unwrap() still\"##; tail();\n");
        assert!(!g.code[0].contains("unwrap"), "{}", g.code[0]);
        assert!(g.code[0].contains("tail();"), "{}", g.code[0]);
    }

    #[test]
    fn nested_block_comments_span_lines_and_hide_panics() {
        let f = scan(
            "/* outer /* inner unwrap() */\nstill comment panic!()\n*/ let alive = 1;\nlet after = 2;\n",
        );
        assert!(!f.code[0].contains("unwrap"));
        assert!(!f.code[1].contains("panic"));
        assert!(f.code[2].contains("let alive = 1;"), "{}", f.code[2]);
        assert!(f.code[3].contains("let after = 2;"));
    }

    #[test]
    fn cfg_test_span_reaching_file_end_is_fully_marked() {
        // The test module's closing brace IS the last line: the span
        // must cover through EOF without running past the buffer.
        let text = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}";
        let f = scan(text);
        assert!(!f.in_test[0]);
        assert!((1..5).all(|i| f.in_test[i]), "{:?}", f.in_test);

        // Unclosed at EOF (mid-edit file): everything from the
        // attribute down is test code, and cleaning must not panic.
        let g = scan("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n");
        assert!(!g.in_test[0]);
        assert!((1..4).all(|i| g.in_test[i]), "{:?}", g.in_test);
    }

    #[test]
    fn allow_comments_attach_to_code_lines() {
        let text = "// flow-analyze: allow(L1: wrapper)\nlet a = x.unwrap();\nlet b = y.unwrap(); // flow-analyze: allow(L1, L3)\nlet c = z.unwrap();\n";
        let f = scan(text);
        assert!(f.is_allowed(2, "L1"));
        assert!(f.is_allowed(3, "L1"));
        assert!(f.is_allowed(3, "L3"));
        assert!(!f.is_allowed(4, "L1"));
    }
}
