//! `flow-analyze`: the workspace's correctness tooling.
//!
//! Two subsystems, both dependency-free beyond the workspace itself:
//!
//! * **`check`** — static analysis in two layers (no `syn`; the
//!   vendor directory is the only dependency source): a token-level
//!   pass enforcing the line lints L1–L6 and L10 over the core crates
//!   (L10 reaches every crate's sources), and a
//!   workspace symbol graph ([`symbols`], [`graph`]) feeding the
//!   interprocedural lints L7–L9 ([`interlints`]) — panic
//!   reachability from serving/sampling entry points, dropped
//!   `Result` taint, and a concurrency audit (unjoined spawns,
//!   `Relaxed` control-flow gates). Suppressions go through
//!   `// flow-analyze: allow(Lx: why)` escape comments at the site;
//!   their per-lint counts are ratcheted by the committed
//!   `analyze-baseline.json` ([`baseline`]) and emitted
//!   deterministically as JSON ([`emit`]).
//! * **`replay`** — a runtime determinism audit: the parallel
//!   multi-chain estimator is run twice with identical seeds and the
//!   retained trajectories are diffed step-by-step; any divergence is
//!   a scheduling/nondeterminism bug.
//!
//! See DESIGN.md §9 (line lints) and §13 (symbol graph + ratchet)
//! for the full contract.

pub mod baseline;
pub mod emit;
pub mod graph;
pub mod interlints;
pub mod lints;
pub mod replay;
pub mod source;
pub mod symbols;

use graph::CallGraph;
use interlints::InterContext;
use lints::{Finding, LintScope};
use source::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use symbols::SymbolTable;

/// The outcome of a `check` run.
#[derive(Debug)]
pub struct CheckReport {
    /// Findings no escape comment suppresses: failures.
    pub findings: Vec<Finding>,
    /// Findings suppressed by an in-source escape comment.
    pub escaped: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl CheckReport {
    /// True when the workspace passes the contract: no live findings.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Per-lint counts of every suppression in effect (escape
    /// comments). This is the quantity the baseline ratchet tracks: it
    /// may only go down.
    pub fn suppression_counts(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for f in &self.escaped {
            *counts.entry(f.lint).or_insert(0) += 1;
        }
        counts
    }
}

/// The source roots the symbol graph spans: every workspace crate,
/// the `infoflow` facade, its examples and integration tests, and the
/// serving benchmark. Line lints cover `crates/` alone.
const GRAPH_ROOTS: [&str; 5] = ["crates", "src", "examples", "tests", "servebench"];

/// Scans every `.rs` file under `crates/`, `src/`, `examples/`,
/// `tests/` and `servebench/`, builds the symbol table and call graph
/// over all of them, and applies the workspace lint policy (line lints
/// L1–L6 and L10 per [`LintScope::for_path`] on `crates/`,
/// interprocedural lints L7–L9 over the whole graph).
pub fn check_workspace(root: &Path) -> Result<CheckReport, String> {
    let (files, table, call_graph) = scan_workspace(root)?;
    let mut raw = Vec::new();
    for file in files.iter().filter(|f| f.rel.starts_with("crates/")) {
        let scope = LintScope::for_path(&file.rel);
        if scope.l1 || scope.l2 || scope.l3 || scope.l4 || scope.l5 || scope.l10 {
            raw.extend(lints::lint_file_all(file, scope));
        }
    }
    raw.extend(interlints::run(&InterContext {
        table: &table,
        graph: &call_graph,
        files: &files,
        all_scope: false,
    }));
    let (findings, escaped) = partition_escaped(raw, &files);
    Ok(CheckReport {
        findings,
        escaped,
        files_scanned: files.len(),
    })
}

/// Reads every `.rs` file under the graph roots (sorted, so the
/// result is deterministic) and builds their symbol table and call
/// graph. The graph spans every file so cross-crate reachability and
/// caller queries are complete even where line lints are off.
pub fn scan_workspace(root: &Path) -> Result<(Vec<SourceFile>, SymbolTable, CallGraph), String> {
    let mut paths = Vec::new();
    for dir in GRAPH_ROOTS {
        collect_rs_files(&root.join(dir), &mut paths)
            .map_err(|e| format!("walking {}: {e}", root.display()))?;
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        files.push(SourceFile::read(path, root).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let table = SymbolTable::build(&files);
    let call_graph = CallGraph::build(&table, &files);
    Ok((files, table, call_graph))
}

/// Lints explicit files with *every* lint enabled — line lints and
/// the interprocedural set over a symbol graph of just those files
/// (used by the self-test fixtures and `check --paths`). Escape
/// comments apply; no baseline does.
pub fn check_paths(root: &Path, paths: &[PathBuf]) -> Result<Vec<Finding>, String> {
    let mut files = Vec::with_capacity(paths.len());
    for path in paths {
        files.push(SourceFile::read(path, root).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    let mut raw = Vec::new();
    for file in &files {
        raw.extend(lints::lint_file_all(file, LintScope::all()));
    }
    let table = SymbolTable::build(&files);
    let call_graph = CallGraph::build(&table, &files);
    raw.extend(interlints::run(&InterContext {
        table: &table,
        graph: &call_graph,
        files: &files,
        all_scope: true,
    }));
    let (kept, _escaped) = partition_escaped(raw, &files);
    Ok(kept)
}

/// Splits raw findings into (live, escaped-by-comment). Escaped
/// findings stay visible to the baseline ratchet.
fn partition_escaped(raw: Vec<Finding>, files: &[SourceFile]) -> (Vec<Finding>, Vec<Finding>) {
    let by_rel: BTreeMap<&str, &SourceFile> = files.iter().map(|f| (f.rel.as_str(), f)).collect();
    let mut kept = Vec::new();
    let mut escaped = Vec::new();
    for f in raw {
        let allowed = by_rel
            .get(f.rel.as_str())
            .is_some_and(|file| file.is_allowed(f.line, f.lint));
        if allowed {
            escaped.push(f);
        } else {
            kept.push(f);
        }
    }
    (kept, escaped)
}

/// Recursively collects `.rs` files, skipping `target/` and the
/// lint fixtures (which are deliberate violations).
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Locates the workspace root: walks up from `start` to the first
/// directory holding a `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
