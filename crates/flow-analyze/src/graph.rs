//! The cross-crate call graph over [`crate::symbols`].
//!
//! Call sites are recovered token-wise from cleaned function bodies:
//! `foo(..)`, `path::foo(..)`, and `.foo(..)` shapes (macros — `foo!`
//! — and tuple-struct constructors are excluded). Resolution is
//! deliberately an over-approximation biased toward soundness of
//! reachability answers:
//!
//! * plain calls resolve within the defining file, then to same-crate
//!   free functions, then through the file's `use` imports;
//! * `a::b::name(..)` first expands its leading segment through the
//!   caller's `use` imports and the `infoflow` facade's re-exports
//!   (`infoflow::mcmc::exact` -> `flow_mcmc::exact`). Its last segment
//!   then resolves to methods of an `impl` of that type anywhere in the
//!   workspace, or else to free functions of the module file it names
//!   (`b.rs`, `b/`) in the crate the path starts from (`flow_x`,
//!   `crate`, `self`, `super`, or the caller's own crate);
//! * `.name(..)` method calls resolve to *every* workspace method of
//!   that name (receiver types are not tracked), which over-links but
//!   never misses a real edge to workspace code.
//!
//! Unresolvable calls (std/vendored APIs) produce no edge; the
//! interprocedural lints treat workspace code as the analysis universe.

use crate::source::SourceFile;
use crate::symbols::{FnSym, SymbolTable};
use std::collections::BTreeMap;

/// How a call site names its target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(..)`.
    Plain,
    /// `Qual::foo(..)`; the qualifier is the whole path before the
    /// called name (`Type`, `module`, `flow_mcmc::exact`, `Self`, ...).
    Qualified(String),
    /// `.foo(..)`.
    Method,
}

/// One syntactic call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Called name.
    pub name: String,
    /// Shape of the call.
    pub kind: CallKind,
    /// 1-based source line.
    pub line: usize,
}

/// One resolved edge of the call graph.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// Callee function id.
    pub callee: usize,
    /// 1-based line of the call site in the caller.
    pub line: usize,
}

/// The workspace call graph: adjacency by function id.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Outgoing edges per function id, deduped, in call-site order.
    pub edges: Vec<Vec<Edge>>,
}

/// Rust keywords and control forms that look like `ident(` at token
/// level but are never calls.
const NON_CALLS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "fn", "as", "in", "move", "unsafe", "where",
    "let", "else",
];

impl CallGraph {
    /// Builds the graph for every function in `table`; `files` must be
    /// the same slice the table was built from.
    pub fn build(table: &SymbolTable, files: &[SourceFile]) -> CallGraph {
        let by_rel: BTreeMap<&str, &SourceFile> =
            files.iter().map(|f| (f.rel.as_str(), f)).collect();
        let mut edges = Vec::with_capacity(table.fns.len());
        for f in &table.fns {
            let Some(file) = by_rel.get(f.rel.as_str()) else {
                edges.push(Vec::new());
                continue;
            };
            let mut out: Vec<Edge> = Vec::new();
            for site in call_sites(file, f.body) {
                for callee in resolve(table, f, &site) {
                    if callee != f.id && !out.iter().any(|e| e.callee == callee) {
                        out.push(Edge {
                            callee,
                            line: site.line,
                        });
                    }
                }
            }
            edges.push(out);
        }
        CallGraph { edges }
    }

    /// Breadth-first reachability from `roots`. Returns, per function
    /// id, the predecessor edge on a shortest discovery path
    /// (`(caller id, call line)`), with roots marked by self-edges.
    pub fn reach(&self, roots: &[usize]) -> Vec<Option<(usize, usize)>> {
        let mut pred: Vec<Option<(usize, usize)>> = vec![None; self.edges.len()];
        let mut queue = std::collections::VecDeque::new();
        for &r in roots {
            if r < pred.len() && pred[r].is_none() {
                pred[r] = Some((r, 0));
                queue.push_back(r);
            }
        }
        while let Some(u) = queue.pop_front() {
            for e in &self.edges[u] {
                if pred[e.callee].is_none() {
                    pred[e.callee] = Some((u, e.line));
                    queue.push_back(e.callee);
                }
            }
        }
        pred
    }

    /// Reconstructs the discovery chain root -> .. -> `target` as
    /// `(fn id, call line into the next hop)` pairs; the final pair's
    /// line is 0.
    pub fn chain(pred: &[Option<(usize, usize)>], target: usize) -> Vec<(usize, usize)> {
        let mut rev = Vec::new();
        let mut cur = target;
        let mut hops = 0;
        let mut into_line = 0usize;
        while let Some((p, line)) = pred.get(cur).copied().flatten() {
            rev.push((cur, into_line));
            if p == cur {
                break;
            }
            into_line = line;
            cur = p;
            hops += 1;
            if hops > pred.len() {
                break;
            }
        }
        rev.reverse();
        rev
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Extracts call sites from the cleaned lines of a body span
/// (`1-based inclusive`).
pub fn call_sites(file: &SourceFile, body: (usize, usize)) -> Vec<CallSite> {
    let mut out = Vec::new();
    let lo = body.0.saturating_sub(1);
    let hi = body.1.min(file.code.len());
    for (idx, code) in file.code.iter().enumerate().take(hi).skip(lo) {
        let bytes = code.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b != b'(' || i == 0 {
                continue;
            }
            // Walk back over the called identifier.
            let mut start = i;
            while start > 0 && is_ident_char(bytes[start - 1] as char) {
                start -= 1;
            }
            if start == i {
                continue;
            }
            let name = &code[start..i];
            if NON_CALLS.contains(&name) || name.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                continue;
            }
            let before = if start >= 1 { bytes[start - 1] } else { b' ' };
            // Macro calls never resolve to functions.
            if before == b'!' {
                continue;
            }
            let kind = if before == b'.' {
                CallKind::Method
            } else if start >= 2 && &bytes[start - 2..start] == b"::" {
                // Walk back over the whole `a::b::` qualifier path.
                let q_end = start - 2;
                let mut q_start = q_end;
                loop {
                    let seg_end = q_start;
                    while q_start > 0 && is_ident_char(bytes[q_start - 1] as char) {
                        q_start -= 1;
                    }
                    let more = q_start > 2
                        && &bytes[q_start - 2..q_start] == b"::"
                        && is_ident_char(bytes[q_start - 3] as char);
                    if q_start == seg_end || !more {
                        break;
                    }
                    q_start -= 2;
                }
                if q_start == q_end {
                    continue;
                }
                CallKind::Qualified(code[q_start..q_end].to_owned())
            } else {
                // A plain call; uppercase-initial idents are tuple
                // constructors / variants, not functions.
                if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                    continue;
                }
                CallKind::Plain
            };
            out.push(CallSite {
                name: name.to_owned(),
                kind,
                line: idx + 1,
            });
        }
    }
    out
}

/// Maps a `flow_x`-style path qualifier to the workspace crate name.
fn crate_from_qualifier(q: &str) -> String {
    q.replace('_', "-")
}

/// The facade crate's root module and name: its `pub use flow_x as
/// alias;` re-exports are how `examples/` and the root `tests/` call
/// the workspace.
const FACADE_FILE: &str = "src/lib.rs";
const FACADE_CRATE: &str = "infoflow";

/// Rewrites a leading `infoflow::alias` through the facade's
/// re-exports (`infoflow::mcmc::exact` -> `flow_mcmc::exact`).
fn through_facade(table: &SymbolTable, path: &str) -> String {
    let mut segs = path.splitn(3, "::");
    if segs.next() != Some(FACADE_CRATE) {
        return path.to_owned();
    }
    let alias = segs.next().unwrap_or("");
    match table.file(FACADE_FILE).and_then(|fs| fs.imports.get(alias)) {
        Some(target) => match segs.next() {
            Some(rest) => format!("{target}::{rest}"),
            None => target.clone(),
        },
        None => path.to_owned(),
    }
}

/// True when some scanned file belongs to crate `krate`.
fn has_crate(table: &SymbolTable, krate: &str) -> bool {
    table
        .by_crate_free
        .range((krate.to_owned(), String::new())..)
        .next()
        .is_some_and(|((k, _), _)| k == krate)
}

/// Resolves one call site to candidate callee ids.
fn resolve(table: &SymbolTable, caller: &FnSym, site: &CallSite) -> Vec<usize> {
    let mut out = Vec::new();
    match &site.kind {
        CallKind::Plain => {
            // Same file first.
            if let Some(fs) = table.file(&caller.rel) {
                for &id in &fs.fns {
                    if table.fns[id].name == site.name && table.fns[id].impl_type.is_none() {
                        out.push(id);
                    }
                }
                if out.is_empty() {
                    if let Some(path) = fs.imports.get(&site.name) {
                        out.extend(resolve_import(table, path, &site.name));
                    }
                }
            }
            // Same-crate free functions (other modules of the crate).
            if out.is_empty() {
                if let Some(ids) = table
                    .by_crate_free
                    .get(&(caller.krate.clone(), site.name.clone()))
                {
                    out.extend(ids.iter().copied());
                }
            }
        }
        CallKind::Qualified(q) => {
            // Spell the path out: the caller's import of its first
            // segment, then the facade's re-export.
            let (first, rest) = q.split_once("::").unwrap_or((q, ""));
            let imported = table.file(&caller.rel).and_then(|fs| fs.imports.get(first));
            let path = match (imported, rest) {
                (Some(full), "") => full.clone(),
                (Some(full), rest) => format!("{full}::{rest}"),
                (None, _) => q.clone(),
            };
            let path = through_facade(table, &path);
            let segs: Vec<&str> = path.split("::").collect();
            let last = segs.last().copied().unwrap_or("");
            if last == "Self" {
                if let Some(t) = &caller.impl_type {
                    if let Some(ids) = table.by_type_method.get(&(t.clone(), site.name.clone())) {
                        out.extend(ids.iter().copied());
                    }
                }
                return out;
            }
            // `Type::method(..)`.
            if let Some(ids) = table
                .by_type_method
                .get(&(last.to_owned(), site.name.clone()))
            {
                out.extend(ids.iter().copied());
                return out;
            }
            // A free function: the path starts at a workspace crate
            // (`flow_x`, `crate`, `self`, `super`) or else in the
            // caller's crate, and its last segment after that names
            // the module file.
            let head = segs[0];
            let (krate, modules, known) = match head {
                "crate" | "self" | "super" => (caller.krate.clone(), &segs[1..], true),
                _ if has_crate(table, &crate_from_qualifier(head)) => {
                    (crate_from_qualifier(head), &segs[1..], true)
                }
                _ => (caller.krate.clone(), &segs[..], false),
            };
            let Some(ids) = table.by_crate_free.get(&(krate, site.name.clone())) else {
                return out;
            };
            let module = modules
                .iter()
                .rev()
                .find(|m| !matches!(**m, "self" | "super"));
            match module {
                None => out.extend(ids.iter().copied()),
                Some(m) => {
                    let stem = format!("/{m}.rs");
                    let dir = format!("/{m}/");
                    out.extend(ids.iter().copied().filter(|&id| {
                        table.fns[id].rel.ends_with(&stem) || table.fns[id].rel.contains(&dir)
                    }));
                    // A module the file layout does not show (inline
                    // `mod`, re-export): any free function of that
                    // name in a crate the path named.
                    if out.is_empty() && known {
                        out.extend(ids.iter().copied());
                    }
                }
            }
        }
        CallKind::Method => {
            // Every workspace method of this name (no receiver types).
            if let Some(ids) = table.by_name.get(&site.name) {
                out.extend(
                    ids.iter()
                        .copied()
                        .filter(|&id| table.fns[id].impl_type.is_some()),
                );
            }
        }
    }
    out
}

/// Resolves an imported free function: the path's first segment names
/// the crate (after the facade's re-exports), the last must equal the
/// called name.
fn resolve_import(table: &SymbolTable, path: &str, name: &str) -> Vec<usize> {
    let path = through_facade(table, path);
    let crate_seg = path.split("::").next().unwrap_or("");
    if path.rsplit("::").next() != Some(name) {
        return Vec::new();
    }
    let krate = crate_from_qualifier(crate_seg);
    table
        .by_crate_free
        .get(&(krate, name.to_owned()))
        .cloned()
        .unwrap_or_default()
}

/// Public library functions under `crates/` that no non-test code
/// calls, in table order. Test code is a `#[cfg(test)]` span or any
/// file under a `tests/` directory.
pub fn uncalled_public(table: &SymbolTable, graph: &CallGraph) -> Vec<usize> {
    let mut called = vec![false; table.fns.len()];
    for f in table.fns.iter().filter(|f| !f.is_test_code()) {
        for e in &graph.edges[f.id] {
            called[e.callee] = true;
        }
    }
    table
        .fns
        .iter()
        .filter(|f| f.is_pub && f.rel.starts_with("crates/") && !f.is_test_code())
        .filter(|f| !called[f.id])
        .map(|f| f.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scan(rel: &str, text: &str) -> SourceFile {
        SourceFile::from_text(PathBuf::from(rel), rel.into(), text)
    }

    fn graph(files: &[SourceFile]) -> (SymbolTable, CallGraph) {
        let t = SymbolTable::build(files);
        let g = CallGraph::build(&t, files);
        (t, g)
    }

    fn id_of(t: &SymbolTable, name: &str) -> usize {
        t.by_name[name][0]
    }

    #[test]
    fn plain_calls_link_within_a_file() {
        let f = scan(
            "crates/a/src/lib.rs",
            "pub fn top() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\n",
        );
        let (t, g) = graph(std::slice::from_ref(&f));
        let top = id_of(&t, "top");
        let leaf = id_of(&t, "leaf");
        let pred = g.reach(&[top]);
        assert!(pred[leaf].is_some(), "top -> mid -> leaf must be reachable");
        let chain = CallGraph::chain(&pred, leaf);
        let names: Vec<&str> = chain
            .iter()
            .map(|&(id, _)| t.fns[id].name.as_str())
            .collect();
        assert_eq!(names, ["top", "mid", "leaf"]);
    }

    #[test]
    fn cross_crate_calls_resolve_through_imports() {
        let a = scan(
            "crates/flow-serve/src/lib.rs",
            "use flow_mcmc::shared_flows;\npub fn serve() { shared_flows(); }\n",
        );
        let b = scan(
            "crates/flow-mcmc/src/shared.rs",
            "pub fn shared_flows() { danger(); }\nfn danger() {}\n",
        );
        let (t, g) = graph(&[a, b]);
        let pred = g.reach(&[id_of(&t, "serve")]);
        assert!(pred[id_of(&t, "danger")].is_some());
    }

    #[test]
    fn qualified_calls_resolve_type_methods_and_crate_paths() {
        let a = scan(
            "crates/a/src/lib.rs",
            "pub fn go() { Tree::new(); flow_b::helper(); util::tidy(); }\n",
        );
        let b = scan(
            "crates/a/src/tree.rs",
            "impl Tree {\n    pub fn new() {}\n}\n",
        );
        let c = scan("crates/flow-b/src/lib.rs", "pub fn helper() {}\n");
        let d = scan("crates/a/src/util.rs", "pub fn tidy() {}\n");
        let (t, g) = graph(&[a, b, c, d]);
        let pred = g.reach(&[id_of(&t, "go")]);
        assert!(pred[id_of(&t, "new")].is_some());
        assert!(pred[id_of(&t, "helper")].is_some());
        assert!(pred[id_of(&t, "tidy")].is_some());
    }

    #[test]
    fn module_paths_resolve_into_the_named_crate_module() {
        let bench = scan(
            "crates/flow-bench/src/lib.rs",
            "pub fn fixture() { flow_graph::generate::uniform_edges(); }\n",
        );
        let generate = scan(
            "crates/flow-graph/src/generate.rs",
            "pub fn uniform_edges() {}\n",
        );
        let other = scan(
            "crates/flow-graph/src/other.rs",
            "pub fn uniform_edges() {}\n",
        );
        let (t, g) = graph(&[bench, generate, other]);
        let callees: Vec<&str> = g.edges[id_of(&t, "fixture")]
            .iter()
            .map(|e| t.fns[e.callee].rel.as_str())
            .collect();
        assert_eq!(callees, ["crates/flow-graph/src/generate.rs"]);
    }

    #[test]
    fn facade_paths_resolve_through_its_re_exports() {
        let facade = scan("src/lib.rs", "pub use flow_icm as icm;\n");
        let test = scan(
            "tests/end_to_end.rs",
            "use infoflow::icm::exact::enumerate;\n\
             fn check() { enumerate(); infoflow::icm::exact::recurse(); }\n",
        );
        let exact = scan(
            "crates/flow-icm/src/exact.rs",
            "pub fn enumerate() {}\npub fn recurse() {}\n",
        );
        let (t, g) = graph(&[facade, test, exact]);
        let pred = g.reach(&[id_of(&t, "check")]);
        assert!(pred[id_of(&t, "enumerate")].is_some());
        assert!(pred[id_of(&t, "recurse")].is_some());
    }

    #[test]
    fn uncalled_public_counts_callers_from_every_root_but_not_tests() {
        let lib = scan(
            "crates/flow-a/src/lib.rs",
            "pub fn for_example() {}\npub fn for_bench() {}\npub fn for_tests() {}\n\
             pub fn for_unit_tests() {}\nfn private() {}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { super::for_unit_tests(); }\n}\n",
        );
        let example = scan("examples/demo.rs", "fn main() { flow_a::for_example(); }\n");
        let bench = scan(
            "servebench/src/main.rs",
            "fn main() { flow_a::for_bench(); }\n",
        );
        let test = scan("tests/it.rs", "fn it() { flow_a::for_tests(); }\n");
        let (t, g) = graph(&[lib, example, bench, test]);
        let names: Vec<&str> = uncalled_public(&t, &g)
            .into_iter()
            .map(|id| t.fns[id].name.as_str())
            .collect();
        assert_eq!(names, ["for_tests", "for_unit_tests"]);
    }

    #[test]
    fn method_calls_over_approximate_by_name() {
        let a = scan("crates/a/src/lib.rs", "pub fn go(s: &S) { s.run(); }\n");
        let b = scan(
            "crates/b/src/lib.rs",
            "impl Sampler {\n    pub fn run(&self) {}\n}\n",
        );
        let (t, g) = graph(&[a, b]);
        let pred = g.reach(&[id_of(&t, "go")]);
        assert!(pred[id_of(&t, "run")].is_some());
    }

    #[test]
    fn macros_constructors_and_keywords_are_not_calls() {
        let f = scan(
            "crates/a/src/lib.rs",
            "pub fn go() { println!(\"x\"); Some(1); if (a) {} vec![0]; }\nfn println() {}\n",
        );
        let (t, g) = graph(std::slice::from_ref(&f));
        let go = id_of(&t, "go");
        assert!(
            g.edges[go].is_empty(),
            "no call edges expected, got {:?}",
            g.edges[go]
        );
    }
}
