//! Interprocedural lints over the workspace call graph: L7–L9.
//!
//! * **L7 — panic-reachability.** Any path from a serving or sampling
//!   entry point (a `pub fn` of `flow-serve` or `flow-mcmc`, or any
//!   `pub fn` under `crates/` named `serve_*`/`handle_*`/`sample_*`)
//!   into a function whose body contains an L1 panic construct is
//!   reported with the full call chain. The line lint L1 already
//!   rejects *unescaped* panic sites; L7 exists because a
//!   justification that is sound for a leaf utility ("documented
//!   panicking wrapper") is a different claim when the serving hot
//!   path can reach it — each reachable site must carry its own L7
//!   justification or be made fallible.
//! * **L8 — error-drop taint.** A call to a `Result`-returning
//!   workspace function (or any `try_*`) whose value is discarded via
//!   `let _ =`, a bare `;`-statement, or a trailing `.ok();` without
//!   logging, in core-crate non-test code. The type checker cannot see
//!   this (`.ok()` launders the `#[must_use]`), and a swallowed error
//!   mid-chain is exactly how estimator corruption goes invisible.
//!   The serving persistence layer is carved out: L6 already governs
//!   I/O discards there with stricter semantics.
//! * **L9 — concurrency audit.** Spawned workers whose `JoinHandle`
//!   is dropped or never joined (scoped spawns under `thread::scope`
//!   are exempt — the scope joins), and `Ordering::Relaxed` atomic
//!   loads that gate control flow (`if`/`while` conditions, boolean
//!   gate functions): a stale gate read reorders against the state it
//!   protects.
//!
//! All three honour the same `// flow-analyze: allow(Lx: why)` escape
//! comments as the line lints.

use crate::graph::{call_sites, CallGraph, CallKind, CallSite};
use crate::lints::{in_core_scope, panic_construct_lines, Finding, SERVE_PERSISTENCE};
use crate::source::SourceFile;
use crate::symbols::{FnSym, SymbolTable};
use std::collections::BTreeMap;

/// Inputs of one interprocedural pass.
pub struct InterContext<'a> {
    /// Symbols of every scanned file.
    pub table: &'a SymbolTable,
    /// The call graph over those symbols.
    pub graph: &'a CallGraph,
    /// The scanned files themselves (same order the table was built
    /// from).
    pub files: &'a [SourceFile],
    /// `--paths` / fixture mode: every file is in L8/L9 scope instead
    /// of only the core crates.
    pub all_scope: bool,
}

/// Runs L7–L9 and returns raw findings (escape comments are applied
/// by the driver).
pub fn run(ctx: &InterContext<'_>) -> Vec<Finding> {
    let by_rel: BTreeMap<&str, &SourceFile> =
        ctx.files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let mut findings = Vec::new();
    l7_panic_reachability(ctx, &by_rel, &mut findings);
    l8_error_drop(ctx, &by_rel, &mut findings);
    l9_concurrency(ctx, &by_rel, &mut findings);
    findings
        .sort_by(|a, b| (a.rel.as_str(), a.line, a.lint).cmp(&(b.rel.as_str(), b.line, b.lint)));
    findings
}

/// True for the serving/sampling entry points panic-reachability
/// starts from: library code under `crates/`, never its callers in
/// the other graph roots.
pub fn is_entry(f: &FnSym) -> bool {
    if f.in_test || !f.is_pub || !f.rel.starts_with("crates/") {
        return false;
    }
    f.rel.starts_with("crates/flow-serve/src/")
        || f.rel.starts_with("crates/flow-mcmc/src/")
        || f.name.starts_with("serve_")
        || f.name.starts_with("handle_")
        || f.name.starts_with("sample_")
}

fn in_scope(ctx: &InterContext<'_>, rel: &str) -> bool {
    ctx.all_scope || in_core_scope(rel)
}

fn finding(file: &SourceFile, line: usize, lint: &'static str, message: String) -> Finding {
    Finding {
        lint,
        rel: file.rel.clone(),
        line,
        message,
        snippet: file.snippet(line),
    }
}

// ---------------------------------------------------------------- L7

fn l7_panic_reachability(
    ctx: &InterContext<'_>,
    by_rel: &BTreeMap<&str, &SourceFile>,
    findings: &mut Vec<Finding>,
) {
    let entries: Vec<usize> = ctx
        .table
        .fns
        .iter()
        .filter(|f| is_entry(f))
        .map(|f| f.id)
        .collect();
    if entries.is_empty() {
        return;
    }
    let pred = ctx.graph.reach(&entries);
    // Panic constructs per file, resolved lazily.
    let mut constructs: BTreeMap<&str, Vec<(usize, &'static str)>> = BTreeMap::new();
    let mut reported: Vec<(String, usize)> = Vec::new();
    for f in &ctx.table.fns {
        // Panics are attributed within the core runtime crates; the
        // tooling crates (analyzer, CLI glue) are not serving code and
        // method-name over-approximation would chain into them.
        if f.in_test || pred[f.id].is_none() || !in_scope(ctx, &f.rel) {
            continue;
        }
        let Some(file) = by_rel.get(f.rel.as_str()) else {
            continue;
        };
        let sites = constructs
            .entry(f.rel.as_str())
            .or_insert_with(|| panic_construct_lines(file));
        let Some(&(line, label)) = sites
            .iter()
            .find(|(line, _)| *line >= f.body.0 && *line <= f.body.1)
        else {
            continue;
        };
        // One finding per construct line, attributed to the innermost
        // (first-reported) function.
        if reported.iter().any(|(rel, l)| rel == &f.rel && *l == line) {
            continue;
        }
        reported.push((f.rel.clone(), line));
        let chain = CallGraph::chain(&pred, f.id);
        let rendered: Vec<String> = chain
            .iter()
            .map(|&(id, _)| ctx.table.fns[id].qualified())
            .collect();
        let entry = chain.first().map(|&(id, _)| &ctx.table.fns[id]);
        let entry_name = entry.map(|e| e.qualified()).unwrap_or_default();
        findings.push(finding(
            file,
            line,
            "L7",
            format!(
                "`{}` contains `{label}` and is reachable from serving/sampling entry `{entry_name}` via {}; make the path fallible or escape with a justification for this entry exposure",
                f.qualified(),
                rendered.join(" -> "),
            ),
        ));
    }
}

// ---------------------------------------------------------------- L8

/// True when `site` resolves to a `Result`-returning workspace
/// function (or carries the `try_` naming convention).
fn resolves_to_result(table: &SymbolTable, site: &CallSite) -> bool {
    if site.name.starts_with("try_") {
        return true;
    }
    let candidates: Vec<usize> = match &site.kind {
        CallKind::Qualified(q) => table
            .by_type_method
            .get(&(
                q.rsplit("::").next().unwrap_or(q).to_owned(),
                site.name.clone(),
            ))
            .cloned()
            .unwrap_or_else(|| table.by_name.get(&site.name).cloned().unwrap_or_default()),
        _ => table.by_name.get(&site.name).cloned().unwrap_or_default(),
    };
    // Over-approximating here would taint common method names; demand
    // that *every* workspace definition of the name is fallible, so a
    // hit is near-certainly a dropped Result.
    !candidates.is_empty()
        && candidates
            .iter()
            .all(|&id| table.fns[id].returns_result && !table.fns[id].in_test)
}

/// A logging call near the discard makes a `.ok()` drop deliberate.
fn logged_nearby(file: &SourceFile, line: usize) -> bool {
    let lo = line.saturating_sub(3);
    let hi = (line + 2).min(file.code.len());
    (lo..hi).any(|i| {
        let l = &file.code[i];
        l.contains("flow_obs") || l.contains("record(") || l.contains("log(")
    })
}

fn l8_error_drop(
    ctx: &InterContext<'_>,
    by_rel: &BTreeMap<&str, &SourceFile>,
    findings: &mut Vec<Finding>,
) {
    for fs in &ctx.table.files {
        if !in_scope(ctx, &fs.rel) || SERVE_PERSISTENCE.iter().any(|p| fs.rel.starts_with(p)) {
            continue;
        }
        let Some(file) = by_rel.get(fs.rel.as_str()) else {
            continue;
        };
        for (i, code) in file.code.iter().enumerate() {
            if file.in_test[i] {
                continue;
            }
            let trimmed = code.trim();
            let line_sites = call_sites(file, (i + 1, i + 1));
            let result_site = line_sites.iter().find(|s| resolves_to_result(ctx.table, s));
            let Some(site) = result_site else {
                continue;
            };
            if trimmed.starts_with("let _ =") && !trimmed.starts_with("let _ =>") {
                findings.push(finding(
                    file,
                    i + 1,
                    "L8",
                    format!(
                        "`let _ =` discards the `Result` of `{}`; handle or propagate the error, log it explicitly, or escape with a justification",
                        site.name
                    ),
                ));
                continue;
            }
            if trimmed.ends_with(".ok();") {
                if !logged_nearby(file, i + 1) {
                    findings.push(finding(
                        file,
                        i + 1,
                        "L8",
                        format!(
                            "trailing `.ok();` swallows the error of `{}` without logging; handle it, log it, or escape with a justification",
                            site.name
                        ),
                    ));
                }
                continue;
            }
            // Bare `call(..);` statement whose *first* call is the
            // fallible one (inner calls feed the outer expression and
            // are consumed). Chains that consume the `Result` —
            // `.expect(..)`, `.unwrap_or_else(..)`, combinators — are
            // L1's territory, not a drop.
            let consumes = [
                ".expect(",
                ".unwrap",
                ".map",
                ".and_then(",
                ".or_else(",
                ".ok(",
            ]
            .iter()
            .any(|p| code.contains(p));
            let is_bare_stmt = trimmed.ends_with(");")
                && !consumes
                && !code.contains('=')
                && !code.contains('?')
                && !trimmed.starts_with("return")
                && line_sites
                    .first()
                    .is_some_and(|first| std::ptr::eq(first, site));
            if is_bare_stmt {
                findings.push(finding(
                    file,
                    i + 1,
                    "L8",
                    format!(
                        "statement drops the `Result` of `{}`; handle or propagate the error, log it explicitly, or escape with a justification",
                        site.name
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- L9

fn l9_concurrency(
    ctx: &InterContext<'_>,
    by_rel: &BTreeMap<&str, &SourceFile>,
    findings: &mut Vec<Finding>,
) {
    for f in &ctx.table.fns {
        if f.in_test || !in_scope(ctx, &f.rel) {
            continue;
        }
        let Some(file) = by_rel.get(f.rel.as_str()) else {
            continue;
        };
        let body_lines = || {
            file.code
                .iter()
                .enumerate()
                .take(f.body.1.min(file.code.len()))
                .skip(f.body.0.saturating_sub(1))
        };
        let scoped = body_lines().any(|(_, l)| l.contains("thread::scope"));
        for (i, code) in body_lines() {
            spawn_audit(file, f, code, i, scoped, &mut *findings, body_lines);
            relaxed_audit(file, f, code, i, findings);
        }
    }
}

/// Flags spawns whose `JoinHandle` is dropped or bound but never used
/// again. Scoped spawns (`scope.spawn` under `thread::scope`) are
/// exempt: the scope joins every handle at exit.
fn spawn_audit<'a, I>(
    file: &SourceFile,
    f: &FnSym,
    code: &str,
    i: usize,
    scoped: bool,
    findings: &mut Vec<Finding>,
    body_lines: impl Fn() -> I,
) where
    I: Iterator<Item = (usize, &'a String)>,
{
    let mut from = 0;
    while let Some(off) = code.get(from..).and_then(|s| s.find("spawn")) {
        let pos = from + off;
        from = pos + "spawn".len();
        let after = code[pos + 5..].chars().next();
        let before = code[..pos].chars().next_back();
        if after != Some('(') || before.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_') {
            continue;
        }
        if before == Some('.') && scoped {
            // `scope.spawn(..)` under `thread::scope`: joined at the
            // scope boundary by construction.
            continue;
        }
        let trimmed = code.trim_start();
        if let Some(rest) = trimmed.strip_prefix("let ") {
            let binding: String = rest
                .chars()
                .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
                .collect();
            if binding == "_" || binding.is_empty() {
                findings.push(finding(
                    file,
                    i + 1,
                    "L9",
                    "spawned worker's `JoinHandle` is bound to `_` and dropped; join it (or escape with a justification for detaching)"
                        .to_string(),
                ));
                continue;
            }
            // The handle must be used again somewhere in the body —
            // joined, pushed into a collection, or returned.
            let used_again = body_lines().any(|(j, l)| j != i && token_in(l, &binding))
                || code[code.find(&binding).map(|p| p + binding.len()).unwrap_or(0)..]
                    .contains(&format!("{binding}.join"));
            if !used_again {
                findings.push(finding(
                    file,
                    i + 1,
                    "L9",
                    format!(
                        "`JoinHandle` `{binding}` in `{}` is never joined or used again; a silently detached worker outlives its spawner",
                        f.qualified()
                    ),
                ));
            }
        } else {
            findings.push(finding(
                file,
                i + 1,
                "L9",
                format!(
                    "spawn in `{}` drops its `JoinHandle` at the call site; the worker is detached and failures are lost — keep and join the handle (or escape with a justification)",
                    f.qualified()
                ),
            ));
        }
    }
}

/// Flags `Ordering::Relaxed` loads that gate control flow.
fn relaxed_audit(file: &SourceFile, f: &FnSym, code: &str, i: usize, findings: &mut Vec<Finding>) {
    if !token_in(code, "Relaxed") {
        return;
    }
    if !code.contains(".load(") && !code.contains(".fetch_") {
        return;
    }
    let trimmed = code.trim_start();
    let gating = trimmed.starts_with("if ")
        || trimmed.starts_with("while ")
        || code.contains("&&")
        || code.contains("||")
        || trimmed.starts_with("return ")
        || f.returns_bool;
    if gating {
        findings.push(finding(
            file,
            i + 1,
            "L9",
            format!(
                "`Ordering::Relaxed` load in `{}` gates control flow; a stale read reorders against the state this flag protects — use `Acquire`/`Release` (or `SeqCst`), or escape with a proof that staleness is benign",
                f.qualified()
            ),
        ));
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// True when `token` appears at a token boundary in `text`.
fn token_in(text: &str, token: &str) -> bool {
    if token.is_empty() {
        return false;
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraph;
    use std::path::PathBuf;

    fn run_over(files: &[(&str, &str)]) -> Vec<Finding> {
        let scanned: Vec<SourceFile> = files
            .iter()
            .map(|(rel, text)| SourceFile::from_text(PathBuf::from(rel), (*rel).to_string(), text))
            .collect();
        let table = SymbolTable::build(&scanned);
        let graph = CallGraph::build(&table, &scanned);
        run(&InterContext {
            table: &table,
            graph: &graph,
            files: &scanned,
            all_scope: true,
        })
    }

    fn lints_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.lint).collect()
    }

    #[test]
    fn l7_reports_the_chain_from_entry_to_panic() {
        let findings = run_over(&[(
            "crates/x/src/lib.rs",
            "pub fn serve_req() { step1(); }\n\
             fn step1() { step2(); }\n\
             fn step2() { boom.unwrap(); }\n\
             fn orphan_panicky() { boom.unwrap(); }\n",
        )]);
        let l7: Vec<_> = findings.iter().filter(|f| f.lint == "L7").collect();
        assert_eq!(l7.len(), 1, "only the reachable panic fires: {l7:#?}");
        assert!(l7[0].message.contains("serve_req -> step1 -> step2"));
        assert_eq!(l7[0].line, 3);
    }

    #[test]
    fn l7_needs_an_entry_point() {
        let findings = run_over(&[(
            "crates/x/src/lib.rs",
            "pub fn helper() { inner(); }\nfn inner() { boom.unwrap(); }\n",
        )]);
        assert!(
            !lints_of(&findings).contains(&"L7"),
            "no serving/sampling entry, no L7: {findings:#?}"
        );
    }

    #[test]
    fn l7_crosses_crates() {
        let findings = run_over(&[
            (
                "crates/flow-serve/src/engine.rs",
                "use flow_mcmc::shared_flows;\npub fn execute(q: &Q) { shared_flows(); }\n",
            ),
            (
                "crates/flow-mcmc/src/shared.rs",
                "pub fn shared_flows() { helper(); }\nfn helper() { x.expect(\"y\"); }\n",
            ),
        ]);
        let l7: Vec<_> = findings.iter().filter(|f| f.lint == "L7").collect();
        assert!(
            l7.iter().any(|f| f.rel.contains("flow-mcmc")),
            "panic in the callee crate must be attributed there: {l7:#?}"
        );
    }

    #[test]
    fn l8_flags_discarded_results_only() {
        let findings = run_over(&[(
            "crates/x/src/lib.rs",
            "fn try_persist(x: u32) -> Result<u32, E> { Ok(x) }\n\
             pub fn a(x: u32) {\n    let _ = try_persist(x);\n}\n\
             pub fn b(x: u32) {\n    try_persist(x).ok();\n}\n\
             pub fn c(x: u32) -> Result<u32, E> {\n    try_persist(x)\n}\n\
             pub fn d(x: u32) {\n    let _ = (x, 1);\n}\n",
        )]);
        let l8: Vec<_> = findings.iter().filter(|f| f.lint == "L8").collect();
        assert_eq!(l8.len(), 2, "{l8:#?}");
        assert_eq!(l8[0].line, 3);
        assert_eq!(l8[1].line, 6);
    }

    #[test]
    fn l8_respects_logging_and_infallible_calls() {
        let findings = run_over(&[(
            "crates/x/src/lib.rs",
            "fn try_save(x: u32) -> Result<u32, E> { Ok(x) }\n\
             fn cheap(x: u32) -> u32 { x }\n\
             pub fn logged(x: u32) {\n\
                 flow_obs::counter(\"drop\", 1);\n\
                 try_save(x).ok();\n\
             }\n\
             pub fn fine(x: u32) {\n    let _ = cheap(x);\n}\n",
        )]);
        assert!(
            !lints_of(&findings).contains(&"L8"),
            "logged drops and infallible calls are clean: {findings:#?}"
        );
    }

    #[test]
    fn l9_flags_detached_and_unjoined_spawns() {
        let findings = run_over(&[(
            "crates/x/src/lib.rs",
            "pub fn detached() { std::thread::spawn(run); }\n\
             pub fn underscore() { let _ = std::thread::spawn(run); }\n\
             pub fn unjoined() {\n    let h = std::thread::spawn(run);\n    other();\n}\n\
             pub fn joined() {\n    let h = std::thread::spawn(run);\n    let _r = h.join();\n}\n",
        )]);
        let l9: Vec<_> = findings.iter().filter(|f| f.lint == "L9").collect();
        assert_eq!(l9.len(), 3, "{l9:#?}");
    }

    #[test]
    fn l9_exempts_scoped_spawns() {
        let findings = run_over(&[(
            "crates/x/src/lib.rs",
            "pub fn pool() {\n\
                 std::thread::scope(|scope| {\n\
                     scope.spawn(|| {});\n\
                 });\n\
             }\n",
        )]);
        assert!(
            !lints_of(&findings).contains(&"L9"),
            "scoped spawns join at scope exit: {findings:#?}"
        );
    }

    #[test]
    fn l9_flags_relaxed_gates_but_not_counters() {
        let findings = run_over(&[(
            "crates/x/src/lib.rs",
            "pub fn enabled() -> bool {\n    GATE.load(Ordering::Relaxed)\n}\n\
             pub fn snapshot(c: &AtomicU64) -> u64 {\n    c.load(Ordering::Relaxed)\n}\n\
             pub fn guard() {\n    if FLAG.load(Ordering::Relaxed) { stop(); }\n}\n",
        )]);
        let l9: Vec<_> = findings.iter().filter(|f| f.lint == "L9").collect();
        assert_eq!(
            l9.len(),
            2,
            "gate fn + if condition, not the counter: {l9:#?}"
        );
    }
}
