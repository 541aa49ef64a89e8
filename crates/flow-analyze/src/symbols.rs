//! Workspace symbol extraction: `fn` / `impl` / `use` items.
//!
//! Built on the same cleaned view of source that the line lints use
//! ([`crate::source`]): comments and literal contents are blanked, so a
//! brace-depth walk over tokens is enough to recover every function
//! item, its enclosing `impl` target, its body span, and the file's
//! `use` imports. This is deliberately a token-level approximation —
//! no `syn`, no new dependencies — precise enough for the
//! interprocedural lints L7–L9 (see [`crate::graph`] and
//! [`crate::interlints`]), which over-approximate call targets and
//! resolve escapes through the same justification machinery as the
//! line lints.

use crate::source::SourceFile;
use std::collections::BTreeMap;

/// One function item found in the workspace.
#[derive(Clone, Debug)]
pub struct FnSym {
    /// Index into [`SymbolTable::fns`].
    pub id: usize,
    /// Bare function name (`step`, `try_save`, ...).
    pub name: String,
    /// Enclosing `impl` target type, generics stripped (`ServeCache`),
    /// or `None` for free functions.
    pub impl_type: Option<String>,
    /// Crate directory name (`flow-mcmc`).
    pub krate: String,
    /// Workspace-relative path of the defining file.
    pub rel: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// 1-based inclusive body span (equal to `line..=line` for
    /// body-less trait declarations).
    pub body: (usize, usize),
    /// Declared `pub` (any visibility modifier counts).
    pub is_pub: bool,
    /// Inside a `#[cfg(test)]` span.
    pub in_test: bool,
    /// Signature returns a `Result`-shaped type (`Result`,
    /// `FlowResult`, `io::Result`, ...).
    pub returns_result: bool,
    /// Signature returns `bool` (the L9 lint treats relaxed atomic
    /// loads in boolean-returning functions as control-flow gates).
    pub returns_bool: bool,
}

impl FnSym {
    /// `Type::name` or `name`, for display.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Test code: inside a `#[cfg(test)]` span or in a file under a
    /// `tests/` directory (integration tests and their helpers).
    pub fn is_test_code(&self) -> bool {
        self.in_test || self.rel.starts_with("tests/") || self.rel.contains("/tests/")
    }
}

/// Per-file symbol info: which functions it defines and what it
/// imports.
#[derive(Clone, Debug, Default)]
pub struct FileSymbols {
    /// Workspace-relative path.
    pub rel: String,
    /// Crate directory name.
    pub krate: String,
    /// Ids of functions defined in this file.
    pub fns: Vec<usize>,
    /// `use` imports: local alias -> full path (`Icm` ->
    /// `flow_icm::Icm`).
    pub imports: BTreeMap<String, String>,
}

/// All function symbols of a scanned file set, with lookup indexes.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Every function, in file order then line order.
    pub fns: Vec<FnSym>,
    /// Per-file symbol info, parallel to the scanned file list.
    pub files: Vec<FileSymbols>,
    /// name -> fn ids (free functions and methods alike).
    pub by_name: BTreeMap<String, Vec<usize>>,
    /// (impl type, method name) -> fn ids.
    pub by_type_method: BTreeMap<(String, String), Vec<usize>>,
    /// (crate, name) -> ids of free functions in that crate.
    pub by_crate_free: BTreeMap<(String, String), Vec<usize>>,
}

impl SymbolTable {
    /// Builds the table over a set of scanned files (deterministic:
    /// callers pass files in sorted order).
    pub fn build(files: &[SourceFile]) -> SymbolTable {
        let mut table = SymbolTable::default();
        for file in files {
            let krate = crate_of(&file.rel);
            let mut fs = FileSymbols {
                rel: file.rel.clone(),
                krate: krate.clone(),
                ..Default::default()
            };
            scan_file(file, &krate, &mut table, &mut fs);
            table.files.push(fs);
        }
        for f in &table.fns {
            table.by_name.entry(f.name.clone()).or_default().push(f.id);
            match &f.impl_type {
                Some(t) => table
                    .by_type_method
                    .entry((t.clone(), f.name.clone()))
                    .or_default()
                    .push(f.id),
                None => table
                    .by_crate_free
                    .entry((f.krate.clone(), f.name.clone()))
                    .or_default()
                    .push(f.id),
            }
        }
        table
    }

    /// The file entry for a workspace-relative path, if scanned.
    pub fn file(&self, rel: &str) -> Option<&FileSymbols> {
        self.files.iter().find(|f| f.rel == rel)
    }
}

/// Crate directory name for a workspace-relative path
/// (`crates/flow-mcmc/src/sampler.rs` -> `flow-mcmc`); the path itself
/// for files outside `crates/`.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_owned();
        }
    }
    rel.to_owned()
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// A flattened character stream over the cleaned file, remembering the
/// 0-based line of every char.
struct Stream {
    chars: Vec<char>,
    line_of: Vec<usize>,
}

impl Stream {
    fn new(file: &SourceFile) -> Stream {
        let mut chars = Vec::new();
        let mut line_of = Vec::new();
        for (ln, line) in file.code.iter().enumerate() {
            for c in line.chars() {
                chars.push(c);
                line_of.push(ln);
            }
            chars.push('\n');
            line_of.push(ln);
        }
        Stream { chars, line_of }
    }

    fn ident_at(&self, mut i: usize) -> (String, usize) {
        let start = i;
        while i < self.chars.len() && is_ident_char(self.chars[i]) {
            i += 1;
        }
        (self.chars[start..i].iter().collect(), i)
    }

    fn skip_ws(&self, mut i: usize) -> usize {
        while i < self.chars.len() && self.chars[i].is_whitespace() {
            i += 1;
        }
        i
    }
}

/// One entry of the brace-context stack.
enum Ctx {
    /// An `impl` block for the named target type.
    Impl(String),
    /// Any other brace (fn body, mod, match, ...).
    Other,
}

/// Walks one file's cleaned token stream, collecting `fn` items into
/// `table` and imports into `fs`.
fn scan_file(file: &SourceFile, krate: &str, table: &mut SymbolTable, fs: &mut FileSymbols) {
    let s = Stream::new(file);
    let mut stack: Vec<Ctx> = Vec::new();
    // Set when an `impl` header was parsed and its `{` is pending.
    let mut pending_impl: Option<String> = None;
    let mut i = 0;
    while i < s.chars.len() {
        let c = s.chars[i];
        if c == '{' {
            stack.push(match pending_impl.take() {
                Some(t) => Ctx::Impl(t),
                None => Ctx::Other,
            });
            i += 1;
            continue;
        }
        if c == '}' {
            stack.pop();
            i += 1;
            continue;
        }
        if !is_ident_char(c) || (i > 0 && is_ident_char(s.chars[i - 1])) {
            i += 1;
            continue;
        }
        let (word, after) = s.ident_at(i);
        match word.as_str() {
            "impl" => {
                // Header text runs to the block's `{` (or a `;`).
                let mut j = after;
                let mut header = String::new();
                let mut depth = 0i32;
                while j < s.chars.len() {
                    let h = s.chars[j];
                    match h {
                        '<' | '(' => depth += 1,
                        '>' | ')' => depth -= 1,
                        '{' | ';' if depth <= 0 => break,
                        _ => {}
                    }
                    header.push(h);
                    j += 1;
                }
                pending_impl = Some(impl_target(&header));
                i = j;
            }
            "fn" => {
                let name_start = s.skip_ws(after);
                let (name, after_name) = s.ident_at(name_start);
                if name.is_empty() {
                    i = after;
                    continue;
                }
                // Scan the signature to the body `{` or a `;`,
                // tracking angle/paren depth so `where` clauses and
                // nested generics don't end it early.
                let mut j = after_name;
                let mut sig = String::new();
                let mut depth = 0i32;
                while j < s.chars.len() {
                    let h = s.chars[j];
                    match h {
                        '<' | '(' | '[' => depth += 1,
                        // `->` must not count as closing an angle.
                        '>' if j > 0 && s.chars[j - 1] == '-' => {}
                        '>' | ')' | ']' => depth -= 1,
                        '{' | ';' if depth <= 0 => break,
                        _ => {}
                    }
                    sig.push(h);
                    j += 1;
                }
                let fn_line = s.line_of[i];
                let ret = sig.split("->").nth(1);
                let returns_result =
                    ret.is_some_and(|r| has_token(r, "Result") || has_token(r, "FlowResult"));
                let returns_bool = ret.is_some_and(|r| has_token(r, "bool"));
                let is_pub = item_prefix_has_pub(&s, i);
                let body = if s.chars.get(j) == Some(&'{') {
                    // Brace-match the body.
                    let start_line = s.line_of[j];
                    let mut depth = 0i64;
                    let mut k = j;
                    while k < s.chars.len() {
                        match s.chars[k] {
                            '{' => depth += 1,
                            '}' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    let end_line = if k < s.chars.len() {
                        s.line_of[k]
                    } else {
                        file.code.len().saturating_sub(1)
                    };
                    (start_line + 1, end_line + 1)
                } else {
                    (fn_line + 1, fn_line + 1)
                };
                let impl_type = stack.iter().rev().find_map(|c| match c {
                    Ctx::Impl(t) => Some(t.clone()),
                    Ctx::Other => None,
                });
                let id = table.fns.len();
                table.fns.push(FnSym {
                    id,
                    name,
                    impl_type,
                    krate: krate.to_owned(),
                    rel: file.rel.clone(),
                    line: fn_line + 1,
                    body,
                    is_pub,
                    in_test: file.in_test.get(fn_line).copied().unwrap_or(false),
                    returns_result,
                    returns_bool,
                });
                fs.fns.push(id);
                // Resume just past the signature; the body braces are
                // handled by the main walk so nested items still parse.
                i = j;
            }
            "use" => {
                let mut j = after;
                let mut path = String::new();
                while j < s.chars.len() && s.chars[j] != ';' {
                    path.push(s.chars[j]);
                    j += 1;
                }
                collect_imports(&path, &mut fs.imports);
                i = j;
            }
            _ => i = after,
        }
    }
}

/// True when `token` occurs at a token boundary in `text`.
fn has_token(text: &str, token: &str) -> bool {
    let mut from = 0;
    while let Some(off) = text.get(from..).and_then(|s| s.find(token)) {
        let pos = from + off;
        let before_ok = pos == 0 || !is_ident_char(text[..pos].chars().next_back().unwrap_or(' '));
        let after_ok = !text[pos + token.len()..]
            .chars()
            .next()
            .is_some_and(is_ident_char);
        if before_ok && after_ok {
            return true;
        }
        from = pos + token.len();
    }
    false
}

/// Whether the item introduced at char `at` carries a `pub` modifier:
/// looks back over the text since the previous `{`, `}`, or `;`.
fn item_prefix_has_pub(s: &Stream, at: usize) -> bool {
    let mut start = at;
    while start > 0 {
        let c = s.chars[start - 1];
        if c == '{' || c == '}' || c == ';' {
            break;
        }
        start -= 1;
    }
    let prefix: String = s.chars[start..at].iter().collect();
    has_token(&prefix, "pub")
}

/// The target type of an `impl` header: `impl<T> Foo<T>` -> `Foo`,
/// `impl Display for Bar` -> `Bar`, `impl a::b::Baz` -> `Baz`.
fn impl_target(header: &str) -> String {
    let mut rest = header.trim();
    // Drop a leading generic parameter list.
    if rest.starts_with('<') {
        let mut depth = 0i32;
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        rest = &rest[i + 1..];
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    if let Some(pos) = find_token(rest, "for") {
        rest = &rest[pos + 3..];
    }
    let rest = rest.trim().trim_start_matches('&');
    // Strip generics and a `where` clause, then take the last path
    // segment.
    let mut name = String::new();
    for c in rest.chars() {
        if c == '<' || c == '(' || c.is_whitespace() {
            break;
        }
        name.push(c);
    }
    name.rsplit("::").next().unwrap_or("").trim().to_owned()
}

/// Byte offset of `token` at a token boundary, if present.
fn find_token(text: &str, token: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(off) = text.get(from..).and_then(|s| s.find(token)) {
        let pos = from + off;
        let before_ok = pos == 0 || !is_ident_char(text[..pos].chars().next_back().unwrap_or(' '));
        let after_ok = !text[pos + token.len()..]
            .chars()
            .next()
            .is_some_and(is_ident_char);
        if before_ok && after_ok {
            return Some(pos);
        }
        from = pos + token.len();
    }
    None
}

/// Expands one `use` path (without the `use` keyword or trailing `;`)
/// into alias -> full-path entries. Handles `as` renames and one level
/// of `{...}` groups; glob imports are ignored.
fn collect_imports(path: &str, out: &mut BTreeMap<String, String>) {
    let path = path.trim();
    if let Some(open) = path.find('{') {
        let prefix = path[..open].trim().trim_end_matches("::");
        let inner = path[open + 1..].trim_end().trim_end_matches('}');
        let mut depth = 0i32;
        let mut item = String::new();
        for c in inner.chars() {
            match c {
                '{' => {
                    depth += 1;
                    item.push(c);
                }
                '}' => {
                    depth -= 1;
                    item.push(c);
                }
                ',' if depth == 0 => {
                    collect_one(prefix, item.trim(), out);
                    item.clear();
                }
                _ => item.push(c),
            }
        }
        collect_one(prefix, item.trim(), out);
    } else {
        collect_one("", path, out);
    }
}

fn collect_one(prefix: &str, item: &str, out: &mut BTreeMap<String, String>) {
    if item.is_empty() || item.contains('*') {
        return;
    }
    // Nested groups inside a group: recurse with the extended prefix.
    if item.contains('{') {
        let joined = if prefix.is_empty() {
            item.to_owned()
        } else {
            format!("{prefix}::{item}")
        };
        collect_imports(&joined, out);
        return;
    }
    // `a::b::{self, ..}` imports the module `b` itself.
    if item == "self" {
        let module = prefix.rsplit("::").next().unwrap_or(prefix);
        if !module.is_empty() {
            out.insert(module.to_owned(), prefix.to_owned());
        }
        return;
    }
    let (path_part, alias) = match item.split_once(" as ") {
        Some((p, a)) => (p.trim(), a.trim().to_owned()),
        None => {
            let p = item.trim();
            let last = p.rsplit("::").next().unwrap_or(p).trim().to_owned();
            (p, last)
        }
    };
    if alias.is_empty() {
        return;
    }
    let full = if prefix.is_empty() {
        path_part.to_owned()
    } else {
        format!("{prefix}::{path_part}")
    };
    out.insert(alias, full);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn table(text: &str) -> SymbolTable {
        let f = SourceFile::from_text(
            PathBuf::from("crates/flow-mcmc/src/x.rs"),
            "crates/flow-mcmc/src/x.rs".into(),
            text,
        );
        SymbolTable::build(std::slice::from_ref(&f))
    }

    #[test]
    fn free_fns_and_methods_are_indexed() {
        let t = table(
            "pub fn entry() {}\n\
             fn helper(x: u32) -> Result<u32, E> { Ok(x) }\n\
             impl Sampler {\n    pub fn step(&mut self) { self.go() }\n}\n\
             impl Display for Sampler {\n    fn fmt(&self) {}\n}\n",
        );
        assert_eq!(t.fns.len(), 4);
        assert!(t.fns[0].is_pub && t.fns[0].impl_type.is_none());
        assert!(t.fns[1].returns_result && !t.fns[1].is_pub);
        let step = &t.fns[t.by_type_method[&("Sampler".into(), "step".into())][0]];
        assert_eq!(step.qualified(), "Sampler::step");
        let fmt = &t.fns[t.by_type_method[&("Sampler".into(), "fmt".into())][0]];
        assert_eq!(fmt.impl_type.as_deref(), Some("Sampler"));
        assert_eq!(
            t.by_crate_free[&("flow-mcmc".into(), "entry".into())].len(),
            1
        );
    }

    #[test]
    fn body_spans_cover_the_braces() {
        let t = table("fn a() {\n    one();\n    two();\n}\nfn b() {}\n");
        assert_eq!(t.fns[0].body, (1, 4));
        assert_eq!(t.fns[1].body, (5, 5));
    }

    #[test]
    fn test_fns_are_marked() {
        let t = table("fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n");
        assert!(!t.fns[0].in_test);
        assert!(t.fns[1].in_test);
    }

    #[test]
    fn impl_targets_strip_generics_and_trait_prefix() {
        assert_eq!(impl_target("<T: Clone> Tree<T>"), "Tree");
        assert_eq!(impl_target(" Display for Bar"), "Bar");
        assert_eq!(impl_target(" a::b::Baz"), "Baz");
        assert_eq!(impl_target(" From<Error> for FlowError"), "FlowError");
    }

    #[test]
    fn imports_expand_groups_and_renames() {
        let t = table(
            "use flow_icm::Icm;\n\
             use flow_mcmc::{McmcConfig, sampler::step_once as step1};\n\
             use flow_core::fault::{self, FaultSpec};\n\
             use std::collections::BTreeMap;\n",
        );
        let im = &t.files[0].imports;
        assert_eq!(im["Icm"], "flow_icm::Icm");
        assert_eq!(im["McmcConfig"], "flow_mcmc::McmcConfig");
        assert_eq!(im["step1"], "flow_mcmc::sampler::step_once");
        assert_eq!(im["BTreeMap"], "std::collections::BTreeMap");
        assert_eq!(im["fault"], "flow_core::fault");
        assert_eq!(im["FaultSpec"], "flow_core::fault::FaultSpec");
    }

    #[test]
    fn result_detection_reads_the_return_type_only() {
        let t = table(
            "fn plain(r: Result<u8, E>) {}\n\
             fn gives() -> FlowResult<()> { Ok(()) }\n\
             fn io_like() -> std::io::Result<u8> { Ok(0) }\n",
        );
        assert!(!t.fns[0].returns_result);
        assert!(t.fns[1].returns_result);
        assert!(t.fns[2].returns_result);
    }
}
