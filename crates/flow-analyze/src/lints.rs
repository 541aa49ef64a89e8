//! The lint vocabulary: six token-level passes over cleaned source.
//!
//! * **L1** — no panic-prone constructs (`unwrap`/`expect`/`panic!`/
//!   arithmetic slice indexing) in non-test code of the core crates;
//!   fallible paths route through `FlowError`.
//! * **L2** — determinism audit: no ambient RNG, no wall-clock reads,
//!   no `HashMap`/`HashSet` in sampler/checkpoint/learn paths
//!   (checkpoint resume is bit-identical only if these stay out).
//! * **L3** — no bare `f64` `==`/`!=` comparisons against float-typed
//!   operands (exact-constancy sentinels are escaped explicitly).
//! * **L4** — probability-domain hygiene: arithmetic assigned to a
//!   probability-named variable needs a clamp, a guard, or a
//!   `debug_assert!` within reach.
//! * **L5** — no bare `println!`/`eprintln!` in non-test core-crate
//!   code: diagnostics route through the `flow-obs` recorder (events,
//!   counters, spans), so console output stays a CLI concern. The
//!   `flow-exp` CLI is the sanctioned printer and sits outside the
//!   lint's scope.
//! * **L6** — I/O error hygiene in the persistence layer (the
//!   `flow_core::persist` primitive and the serve cache): no
//!   `.unwrap()`/`.expect(..)` and no discarded `Result` (`let _ =`,
//!   trailing `.ok();`) on statements that touch the filesystem. A
//!   panic there turns a recoverable cache corruption into an outage
//!   and a swallowed error turns a failed save into silent data loss;
//!   failures route through `FlowError::Io` or quarantine-and-continue.
//! * **L10** — persisted-format schema strings render from the
//!   [`flow_core::schema`] registry, never as bare literals: a writer
//!   and reader that each spell the version by hand can silently
//!   drift apart. The needle list is the registry itself, so the lint
//!   can never lag a newly declared schema. Only
//!   `crates/flow-core/src/schema.rs` may spell the names out.
//!
//! Each lint honours the `// flow-analyze: allow(Lx: reason)` escape
//! comment and the allowlist file (see [`crate::allowlist`]).

use crate::source::SourceFile;

/// The core crates: the library code whose panic-freedom, float, and
/// probability-domain hygiene the workspace contract guarantees.
/// Serving is core-quality code, but deliberately not in the
/// determinism set: deadlines and worker pools use wall time and
/// unordered maps by design, and the determinism that matters (chain
/// trajectories) is enforced by contract tests instead.
pub const CORE: [&str; 9] = [
    "crates/flow-stats/src/",
    "crates/flow-icm/src/",
    "crates/flow-mcmc/src/",
    "crates/flow-learn/src/",
    "crates/flow-graph/src/",
    "crates/flow-core/src/",
    "crates/flow-obs/src/",
    "crates/flow-serve/src/",
    "crates/flow-stream/src/",
];

/// The persistence layer: the `flow_core::persist` primitive and the
/// serve cache's quarantining loader, where crash-safe recovery
/// (DESIGN.md §12) makes I/O error handling contractual (L6's scope;
/// L8 defers to L6 there).
pub const SERVE_PERSISTENCE: [&str; 2] = [
    "crates/flow-core/src/persist",
    "crates/flow-serve/src/cache",
];

/// True for files in the core crates' library code — the scope of the
/// interprocedural lints L8 and L9 (and of L7's panic-site universe).
pub fn in_core_scope(rel: &str) -> bool {
    CORE.iter().any(|p| rel.starts_with(p))
}

/// One lint hit, pre-allowlist.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Lint id: "L1".."L6".
    pub lint: &'static str,
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
    /// The offending raw line, trimmed.
    pub snippet: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.rel, self.line, self.lint, self.message, self.snippet
        )
    }
}

/// Which lints apply to a file, by workspace-relative path.
#[derive(Clone, Copy, Debug)]
pub struct LintScope {
    /// L1: no panic paths in non-test code.
    pub l1: bool,
    /// L2: determinism audit (no ambient RNG / wall-clock / hash order).
    pub l2: bool,
    /// L3: no bare float equality.
    pub l3: bool,
    /// L4: probability-domain hygiene.
    pub l4: bool,
    /// L5: no bare console printing outside sinks and the CLI.
    pub l5: bool,
    /// L6: no panicking or swallowed I/O in serving persistence paths.
    pub l6: bool,
    /// L10: no bare persisted-format schema strings outside the
    /// `flow_core::schema` registry.
    pub l10: bool,
}

impl LintScope {
    /// Every lint on (fixture / `--paths` mode).
    pub fn all() -> Self {
        LintScope {
            l1: true,
            l2: true,
            l3: true,
            l4: true,
            l5: true,
            l6: true,
            l10: true,
        }
    }

    /// Every lint off (out-of-scope files).
    pub fn none() -> Self {
        LintScope {
            l1: false,
            l2: false,
            l3: false,
            l4: false,
            l5: false,
            l6: false,
            l10: false,
        }
    }

    /// The workspace policy. L1/L3/L4 cover the core crates' library
    /// code; L2 covers the sampler/checkpoint/learn paths where
    /// bit-identical resume and seed-reproducibility are contractual.
    /// L5 covers the core crates too, with no exemption: no core
    /// library prints, and telemetry leaves through flow-obs sinks
    /// that the CLI renders. (The flow-exp CLI is not a core crate and
    /// so is exempt by construction.)
    pub fn for_path(rel: &str) -> Self {
        const DETERMINISM: [&str; 3] = [
            "crates/flow-mcmc/src/",
            "crates/flow-learn/src/",
            "crates/flow-stats/src/fenwick.rs",
        ];
        let core = in_core_scope(rel);
        let det = DETERMINISM.iter().any(|p| rel.starts_with(p));
        let persistence = SERVE_PERSISTENCE.iter().any(|p| rel.starts_with(p));
        LintScope {
            l1: core,
            l2: det,
            l3: core,
            l4: core,
            l5: core,
            l6: persistence,
            // L10 covers every crate's library and binary sources —
            // bench/CLI writers drift just as silently as core readers
            // — with the registry module itself as the sole exemption.
            l10: rel.contains("/src/") && rel != "crates/flow-core/src/schema.rs",
        }
    }
}

/// Runs every applicable lint over one file, honouring escape comments
/// (allowlist matching happens later, in the driver).
pub fn lint_file(file: &SourceFile, scope: LintScope) -> Vec<Finding> {
    lint_file_all(file, scope)
        .into_iter()
        .filter(|f| !file.is_allowed(f.line, f.lint))
        .collect()
}

/// Runs every applicable lint over one file *without* dropping
/// escape-commented findings, so the driver can count suppressions
/// (the baseline ratchet tracks escaped debt per lint).
pub fn lint_file_all(file: &SourceFile, scope: LintScope) -> Vec<Finding> {
    let mut findings = Vec::new();
    if scope.l1 {
        l1_panic_sites(file, &mut findings);
    }
    if scope.l2 {
        l2_determinism(file, &mut findings);
    }
    if scope.l3 {
        l3_float_eq(file, &mut findings);
    }
    if scope.l4 {
        l4_probability_domain(file, &mut findings);
    }
    if scope.l5 {
        l5_print_sites(file, &mut findings);
    }
    if scope.l6 {
        l6_io_error_handling(file, &mut findings);
    }
    if scope.l10 {
        l10_schema_literals(file, &mut findings);
    }
    findings
}

fn push(
    findings: &mut Vec<Finding>,
    file: &SourceFile,
    line: usize,
    lint: &'static str,
    message: String,
) {
    findings.push(Finding {
        lint,
        rel: file.rel.clone(),
        line,
        message,
        snippet: file.snippet(line),
    });
}

fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// True if `code[pos..]` starts with `token` at a token boundary.
fn token_at(code: &str, pos: usize, token: &str) -> bool {
    if !code[pos..].starts_with(token) {
        return false;
    }
    let before_ok = pos == 0 || !is_ident_char(code[..pos].chars().next_back().unwrap_or(' '));
    let after = code[pos + token.len()..].chars().next().unwrap_or(' ');
    before_ok && !is_ident_char(after)
}

/// Finds token-boundary occurrences of `token` in `code`.
fn token_positions(code: &str, token: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(i) = code.get(from..).and_then(|s| s.find(token)) {
        let pos = from + i;
        if token_at(code, pos, token) {
            out.push(pos);
        }
        from = pos + token.len().max(1);
    }
    out
}

// ---------------------------------------------------------------- L1

/// 1-based lines of panic-prone constructs in non-test code, with a
/// short construct label. Shared by the L1 line lint and the L7
/// panic-reachability lint (which must see escaped sites too).
pub fn panic_construct_lines(file: &SourceFile) -> Vec<(usize, &'static str)> {
    const CALLS: [&str; 6] = [
        ".unwrap()",
        ".expect(",
        "panic!",
        "unreachable!",
        "todo!",
        "unimplemented!",
    ];
    let mut out = Vec::new();
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        for tok in CALLS {
            for pos in find_all(code, tok) {
                // `.unwrap()`/`.expect(` start with '.', so a token
                // boundary check on the leading char is unnecessary;
                // for the macros require a boundary (debug_assert! etc.
                // must not match, and neither should idents ending in
                // the macro name).
                if !tok.starts_with('.') && !token_at(code, pos, tok.trim_end_matches('!')) {
                    continue;
                }
                out.push((i + 1, tok));
            }
        }
        // Arithmetic slice indexing: `expr[i + 1]`-style indexes are
        // the classic off-by-one panic; plain `v[i]` is accepted as
        // contextually bounds-established.
        for (open, close) in index_brackets(code) {
            let inner = &code[open + 1..close];
            if inner.contains('+') || inner.contains('-') {
                out.push((i + 1, "arithmetic slice index"));
            }
        }
    }
    out
}

/// Panic-prone constructs in non-test code.
fn l1_panic_sites(file: &SourceFile, findings: &mut Vec<Finding>) {
    const WHY: [(&str, &str); 6] = [
        (".unwrap()", "`.unwrap()` panics on the failure path"),
        (".expect(", "`.expect(..)` panics on the failure path"),
        ("panic!", "`panic!` in library code"),
        ("unreachable!", "`unreachable!` in library code"),
        ("todo!", "`todo!` in library code"),
        ("unimplemented!", "`unimplemented!` in library code"),
    ];
    for (line, label) in panic_construct_lines(file) {
        let message = match WHY.iter().find(|(tok, _)| *tok == label) {
            Some((_, why)) => format!(
                "{why}; route the failure through `FlowError` (or escape with a justification)"
            ),
            None => {
                let snippet = file.snippet(line);
                format!(
                    "slice index with arithmetic can panic out of bounds (`{}`); use `.get(..)` or prove bounds and escape",
                    snippet
                )
            }
        };
        push(findings, file, line, "L1", message);
    }
}

/// All start offsets of `pat` in `code` (plain substring scan).
fn find_all(code: &str, pat: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(i) = code.get(from..).and_then(|s| s.find(pat)) {
        out.push(from + i);
        from = from + i + pat.len().max(1);
    }
    out
}

/// `(open, close)` byte offsets of every *indexing* bracket pair on the
/// line: a `[` immediately preceded by an identifier char, `)`, or `]`
/// (i.e. not an array literal, attribute, or type).
fn index_brackets(code: &str) -> Vec<(usize, usize)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1] as char;
        if !(is_ident_char(prev) || prev == ')' || prev == ']') {
            continue;
        }
        // Find the matching close on this line.
        let mut depth = 0i32;
        for (j, &c) in bytes.iter().enumerate().skip(i) {
            match c {
                b'[' => depth += 1,
                b']' => {
                    depth -= 1;
                    if depth == 0 {
                        out.push((i, j));
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    out
}

// ---------------------------------------------------------------- L2

/// Determinism hazards in sampler/checkpoint/learn paths.
fn l2_determinism(file: &SourceFile, findings: &mut Vec<Finding>) {
    const HAZARDS: [(&str, &str); 6] = [
        (
            "thread_rng",
            "ambient RNG breaks seed-reproducibility; thread an explicit seeded `StdRng` instead",
        ),
        (
            "from_entropy",
            "entropy-seeded RNG breaks seed-reproducibility; derive the seed from the run seed",
        ),
        (
            "Instant::now",
            "wall-clock reads make trajectories timing-dependent; keep them out of pure sampling paths",
        ),
        (
            "SystemTime::now",
            "wall-clock reads make trajectories timing-dependent; keep them out of pure sampling paths",
        ),
        (
            "HashMap",
            "HashMap iteration order is nondeterministic; use BTreeMap/Vec or sort before iterating (escape if order provably never escapes)",
        ),
        (
            "HashSet",
            "HashSet iteration order is nondeterministic; use BTreeSet/Vec or sort before iterating (escape if order provably never escapes)",
        ),
    ];
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        for (tok, why) in HAZARDS {
            for _pos in token_positions(code, tok) {
                push(findings, file, i + 1, "L2", format!("`{tok}`: {why}"));
            }
        }
    }
}

// ---------------------------------------------------------------- L5

/// Bare console printing in non-test core-crate code. Library crates
/// report through the flow-obs recorder (events, counters, spans); the
/// only sanctioned printer is the flow-exp CLI, outside this lint's
/// scope.
fn l5_print_sites(file: &SourceFile, findings: &mut Vec<Finding>) {
    const PRINTS: [(&str, &str); 2] = [
        (
            "println!",
            "bare stdout printing in library code; emit a flow-obs event/counter or route through a sink",
        ),
        (
            "eprintln!",
            "bare stderr printing in library code; emit a flow-obs event/counter or route through a sink",
        ),
    ];
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        for (tok, why) in PRINTS {
            for _pos in token_positions(code, tok) {
                push(findings, file, i + 1, "L5", format!("`{tok}`: {why}"));
            }
        }
    }
}

// ---------------------------------------------------------------- L6

/// I/O error hygiene in serving persistence paths. The cache file is
/// where a panic turns recoverable corruption into an outage and a
/// swallowed `Result` turns a failed save into silent data loss, so
/// statements that touch the filesystem must surface their errors
/// (`?` into `FlowError::Io`, or quarantine-and-continue).
fn l6_io_error_handling(file: &SourceFile, findings: &mut Vec<Finding>) {
    const IO_MARKERS: [&str; 8] = [
        "fs::",
        "File::",
        "OpenOptions",
        ".write_all(",
        ".read_to_string(",
        ".read_to_end(",
        ".sync_all(",
        ".read_dir(",
    ];
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        if !IO_MARKERS.iter().any(|m| code.contains(m)) {
            continue;
        }
        if code.contains(".unwrap()") || code.contains(".expect(") {
            push(
                findings,
                file,
                i + 1,
                "L6",
                "`.unwrap()`/`.expect(..)` on an I/O result in a persistence path panics on a torn or missing file; surface it as `FlowError::Io` or quarantine and continue".to_string(),
            );
        }
        if code.trim_start().starts_with("let _ =") || code.contains(".ok();") {
            push(
                findings,
                file,
                i + 1,
                "L6",
                "discarded I/O result in a persistence path hides failed saves; surface it as `FlowError::Io` or quarantine and continue".to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------- L3

/// Bare float `==`/`!=` comparisons. Token-level typing is limited to
/// what the operand text reveals: a float literal (`0.0`), an `f64::`/
/// `f32::` associated constant, or an `as f64` cast on either side.
fn l3_float_eq(file: &SourceFile, findings: &mut Vec<Finding>) {
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        for (pos, op) in eq_operators(code) {
            let left = operand_left(code, pos);
            let right = operand_right(code, pos + 2);
            if looks_float(&left) || looks_float(&right) {
                push(
                    findings,
                    file,
                    i + 1,
                    "L3",
                    format!(
                        "bare float `{op}` (`{} {op} {}`): exact float equality is brittle; compare with a tolerance, restructure, or escape an intentional exact sentinel",
                        left.trim(),
                        right.trim()
                    ),
                );
            }
        }
    }
}

/// Byte offsets of `==` / `!=` operators (excluding `<=`, `>=`, `=>`,
/// `+=`-family, and pattern `..=`).
fn eq_operators(code: &str) -> Vec<(usize, &'static str)> {
    let bytes = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < bytes.len() {
        let pair = &bytes[i..i + 2];
        if pair == b"==" {
            let prev = if i == 0 { b' ' } else { bytes[i - 1] };
            let next = bytes.get(i + 2).copied().unwrap_or(b' ');
            if !matches!(
                prev,
                b'<' | b'>'
                    | b'='
                    | b'!'
                    | b'+'
                    | b'-'
                    | b'*'
                    | b'/'
                    | b'%'
                    | b'&'
                    | b'|'
                    | b'^'
                    | b'.'
            ) && next != b'='
            {
                out.push((i, "=="));
            }
            i += 2;
            continue;
        }
        if pair == b"!=" && bytes.get(i + 2).copied().unwrap_or(b' ') != b'=' {
            out.push((i, "!="));
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

/// Walks left from an operator to extract the left operand text,
/// stopping at a top-level expression boundary.
fn operand_left(code: &str, op_pos: usize) -> String {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    let mut start = 0;
    let mut i = op_pos;
    while i > 0 {
        i -= 1;
        let c = bytes[i];
        match c {
            b')' | b']' => depth += 1,
            b'(' | b'[' => {
                if depth == 0 {
                    start = i + 1;
                    break;
                }
                depth -= 1;
            }
            b';' | b',' | b'{' | b'}' | b'&' | b'|' | b'=' | b'<' | b'>' | b'!' if depth == 0 => {
                start = i + 1;
                break;
            }
            _ => {}
        }
    }
    code[start..op_pos].to_owned()
}

/// Walks right from just past an operator to extract the right operand.
fn operand_right(code: &str, from: usize) -> String {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    let mut end = bytes.len();
    for (i, &c) in bytes.iter().enumerate().skip(from) {
        match c {
            b'(' | b'[' => depth += 1,
            b')' | b']' => {
                if depth == 0 {
                    end = i;
                    break;
                }
                depth -= 1;
            }
            b';' | b',' | b'{' | b'}' | b'&' | b'|' | b'=' | b'<' | b'>' | b'?' if depth == 0 => {
                end = i;
                break;
            }
            _ => {}
        }
    }
    code[from..end].to_owned()
}

/// True if operand text reveals a float type.
fn looks_float(operand: &str) -> bool {
    if operand.contains("f64::")
        || operand.contains("f32::")
        || operand.contains("as f64")
        || operand.contains("as f32")
    {
        return true;
    }
    // A float literal: digit '.' digit (method calls like `x.abs()`
    // have a letter after the dot; tuple fields like `a.1` have no
    // digit before... they do: `a.1` -> '1' after dot but 'a' before is
    // not a digit).
    let b = operand.as_bytes();
    for i in 1..b.len().saturating_sub(1) {
        if b[i] == b'.' && b[i - 1].is_ascii_digit() && b[i + 1].is_ascii_digit() {
            return true;
        }
    }
    // Trailing-dot literals like `1.` and `0.`:
    for i in 1..b.len() {
        if b[i] == b'.'
            && b[i - 1].is_ascii_digit()
            && b.get(i + 1)
                .map(|c| !is_ident_char(*c as char) && *c != b'.')
                .unwrap_or(true)
        {
            return true;
        }
    }
    false
}

// ---------------------------------------------------------------- L4

/// Probability-domain hygiene: arithmetic assigned to a variable whose
/// name marks it as a probability must carry a clamp, a domain guard,
/// or a `debug_assert!` within the statement or the six lines after it.
fn l4_probability_domain(file: &SourceFile, findings: &mut Vec<Finding>) {
    const GUARDS: [&str; 10] = [
        "clamp",
        ".min(",
        ".max(",
        "is_nan",
        "is_finite",
        "debug_assert",
        "debug_invariant",
        "assert!",
        "InvalidProbability",
        "contains(",
    ];
    for (i, code) in file.code.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let Some((lhs, eq_pos)) = assignment_lhs(code) else {
            continue;
        };
        if !lhs.to_ascii_lowercase().contains("prob") {
            continue;
        }
        // Join the statement (up to 4 lines, until ';' or '{').
        let mut stmt = code[eq_pos + 1..].to_owned();
        let mut last = i;
        while !stmt.contains(';')
            && !stmt.contains('{')
            && last + 1 < file.code.len()
            && last - i < 3
        {
            last += 1;
            if file.in_test[last] {
                break;
            }
            stmt.push(' ');
            stmt.push_str(&file.code[last]);
        }
        let stmt = stmt.split(';').next().unwrap_or("");
        if !has_domain_arithmetic(stmt) {
            continue;
        }
        let guarded = (i..(last + 7).min(file.code.len())).any(|k| {
            let l = &file.code[k];
            GUARDS.iter().any(|g| l.contains(g))
        });
        if !guarded {
            push(
                findings,
                file,
                i + 1,
                "L4",
                format!(
                    "`{lhs}` is assigned arithmetic that can leave [0, 1] with no clamp, guard, or debug_assert nearby; check the domain or escape with a proof",
                ),
            );
        }
    }
}

/// If the line is an assignment (`let x =`, `x =`, `x +=`, ...),
/// returns the final identifier of the left-hand side (indexes
/// stripped) and the byte offset of the `=`.
fn assignment_lhs(code: &str) -> Option<(String, usize)> {
    let bytes = code.as_bytes();
    // Find the first '=' that is an assignment, not a comparison.
    let mut eq = None;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'=' {
            let prev = if i == 0 { b' ' } else { bytes[i - 1] };
            let next = bytes.get(i + 1).copied().unwrap_or(b' ');
            if next == b'='
                || prev == b'='
                || next == b'>'
                || prev == b'<'
                || prev == b'>'
                || prev == b'!'
            {
                i += if next == b'=' { 2 } else { 1 };
                continue;
            }
            eq = Some((i, prev));
            break;
        }
        i += 1;
    }
    let (eq_pos, prev) = eq?;
    // For compound ops (+=, -=, *=, /=), the name ends before the op.
    let lhs_end = if matches!(prev, b'+' | b'-' | b'*' | b'/' | b'%') {
        eq_pos - 1
    } else {
        eq_pos
    };
    let lhs_text = code[..lhs_end].trim_end();
    // Strip a trailing index: `probs[i]` -> `probs`.
    let lhs_text = match lhs_text.char_indices().rev().find(|&(_, c)| c == '[') {
        Some((b, _)) if lhs_text.ends_with(']') => lhs_text[..b].trim_end(),
        _ => lhs_text,
    };
    let name: String = lhs_text
        .chars()
        .rev()
        .take_while(|&c| is_ident_char(c))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .collect();
    if name.is_empty() || name.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some((name, eq_pos))
}

/// Arithmetic that can leave [0, 1]: `+`, `-` (binary), or `*` outside
/// a pure `1.0 - x` complement... kept deliberately simple: any of the
/// three operators counts; division alone does not (ratios are flagged
/// by their operands' lints).
fn has_domain_arithmetic(stmt: &str) -> bool {
    let bytes = stmt.as_bytes();
    for (i, &c) in bytes.iter().enumerate() {
        match c {
            b'+' | b'*' => {
                // Skip `+=`-parts and `*` in `**`/deref: a deref `*x`
                // has no left operand.
                if c == b'*' {
                    let prev_nonspace = stmt[..i].trim_end().chars().next_back();
                    if !prev_nonspace.is_some_and(|p| is_ident_char(p) || p == ')' || p == ']') {
                        continue;
                    }
                }
                return true;
            }
            b'-' => {
                // Binary minus only (not negation, not `->`).
                if bytes.get(i + 1) == Some(&b'>') {
                    continue;
                }
                let prev_nonspace = stmt[..i].trim_end().chars().next_back();
                if prev_nonspace
                    .is_some_and(|p| is_ident_char(p) || p == ')' || p == ']' || p == '.')
                {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

// --------------------------------------------------------------- L10

/// Bare persisted-format schema strings outside the registry module.
///
/// The needle list is built from the [`flow_core::schema`] constants
/// themselves, so declaring a new schema automatically arms the lint
/// for it — and this function contains no bare schema literal of its
/// own. A needle inside a *string literal* fires (writers and readers
/// must render through [`flow_core::schema::SchemaId`]); the same
/// words in comments or doc text do not.
fn l10_schema_literals(file: &SourceFile, findings: &mut Vec<Finding>) {
    use flow_core::schema as reg;
    const SCHEMAS: [reg::SchemaId; 9] = [
        reg::SERVE_CACHE,
        reg::STREAM_SNAPSHOT,
        reg::STREAM_LOG,
        reg::OBS_STATS,
        reg::PERF_BASELINE,
        reg::PERF_RUN,
        reg::BENCH_SERVE,
        reg::BENCH_SAMPLER,
        reg::BENCH_STREAM,
    ];
    for (i, raw) in file.raw.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let code = &file.code[i];
        for id in SCHEMAS {
            let Some(pos) = raw.find(id.name) else {
                continue;
            };
            // Inside a string literal iff an odd number of quote
            // delimiters precede the match on the cleaned line
            // (cleaning keeps `"` delimiters and blanks comments
            // entirely, so comment text contributes none).
            let chars_before = raw[..pos].chars().count();
            let quotes = code
                .chars()
                .take(chars_before)
                .filter(|&c| c == '"')
                .count();
            if quotes % 2 == 1 {
                push(
                    findings,
                    file,
                    i + 1,
                    "L10",
                    format!(
                        "bare schema string `{}`: render it from the `flow_core::schema` \
                         registry (header `{}`, tag `{}`) so writer and reader stay in \
                         lockstep",
                        id.name,
                        id.line_header(),
                        id.tag()
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn lint(text: &str) -> Vec<Finding> {
        let f = SourceFile::from_text(PathBuf::from("x.rs"), "x.rs".into(), text);
        lint_file(&f, LintScope::all())
    }

    fn lints_of(text: &str) -> Vec<&'static str> {
        lint(text).iter().map(|f| f.lint).collect()
    }

    #[test]
    fn l1_catches_unwrap_expect_panic() {
        assert_eq!(lints_of("let x = y.unwrap();\n"), ["L1"]);
        assert_eq!(lints_of("let x = y.expect(\"msg\");\n"), ["L1"]);
        assert_eq!(lints_of("panic!(\"boom\");\n"), ["L1"]);
        assert_eq!(lints_of("unreachable!();\n"), ["L1"]);
    }

    #[test]
    fn l1_ignores_tests_comments_strings_and_asserts() {
        assert!(lints_of("#[cfg(test)]\nmod t {\n fn f() { x.unwrap(); }\n}\n").is_empty());
        assert!(lints_of("// x.unwrap()\n").is_empty());
        assert!(lints_of("let s = \"panic!\";\n").is_empty());
        assert!(lints_of("debug_assert!(x > 0.0);\n").is_empty());
    }

    #[test]
    fn l1_catches_arithmetic_indexing_only() {
        assert_eq!(lints_of("let x = v[i + 1];\n"), ["L1"]);
        assert_eq!(lints_of("let x = v[i - 1];\n"), ["L1"]);
        assert!(lints_of("let x = v[i];\n").is_empty());
        assert!(lints_of("let t = [0u8; 4];\n").is_empty());
        assert!(lints_of("let v = vec![0.0; n];\n").is_empty());
    }

    #[test]
    fn l2_catches_determinism_hazards() {
        assert_eq!(lints_of("let mut rng = rand::thread_rng();\n"), ["L2"]);
        assert_eq!(lints_of("let t0 = Instant::now();\n"), ["L2"]);
        assert_eq!(
            lints_of("let m: HashMap<u32, u32> = HashMap::new();\n").len(),
            2
        );
        assert!(lints_of("let m = BTreeMap::new();\n").is_empty());
    }

    #[test]
    fn l3_catches_float_literal_equality() {
        assert_eq!(lints_of("if var == 0.0 { return; }\n"), ["L3"]);
        assert_eq!(lints_of("if 1.0 != x { return; }\n"), ["L3"]);
        assert_eq!(lints_of("if x == f64::INFINITY { return; }\n"), ["L3"]);
        assert!(lints_of("if n == 0 { return; }\n").is_empty());
        assert!(lints_of("if x <= 0.0 { return; }\n").is_empty());
        assert!(
            lints_of("if a == b { return; }\n").is_empty(),
            "untyped operands are not flagged"
        );
    }

    #[test]
    fn l4_catches_unguarded_probability_arithmetic() {
        assert_eq!(lints_of("let prob = a * b + c;\nuse_it(prob);\n"), ["L4"]);
        assert!(lints_of("let prob = (a * b).clamp(0.0, 1.0);\n").is_empty());
        assert!(
            lints_of("let prob = a * b;\ndebug_assert!((0.0..=1.0).contains(&prob));\n").is_empty()
        );
        assert!(
            lints_of("let count = a + b;\n").is_empty(),
            "non-probability names are out of scope"
        );
        assert!(
            lints_of("let prob = p / z;\n").is_empty(),
            "plain ratios are not flagged"
        );
    }

    #[test]
    fn l5_catches_bare_prints() {
        assert_eq!(lints_of("println!(\"progress: {x}\");\n"), ["L5"]);
        assert_eq!(lints_of("eprintln!(\"warning: {e}\");\n"), ["L5"]);
        // `print` tokens inside tests, comments, and strings are fine.
        assert!(lints_of("#[cfg(test)]\nmod t {\n fn f() { println!(\"x\"); }\n}\n").is_empty());
        assert!(lints_of("// println!(\"commented out\")\n").is_empty());
        assert!(lints_of("let s = \"eprintln!\";\n").is_empty());
        // `println!` never double-counts inside `eprintln!`.
        assert_eq!(lints_of("eprintln!(\"one finding only\");\n").len(), 1);
        // The escape comment works for L5 like every other lint.
        assert!(lints_of(
            "eprintln!(\"boot\"); // flow-analyze: allow(L5: pre-recorder startup warning)\n"
        )
        .is_empty());
    }

    #[test]
    fn l5_scope_carves_out_only_the_cli() {
        assert!(LintScope::for_path("crates/flow-mcmc/src/sampler.rs").l5);
        assert!(LintScope::for_path("crates/flow-obs/src/recorder.rs").l5);
        assert!(
            LintScope::for_path("crates/flow-obs/src/sink.rs").l5,
            "no core file is a sanctioned printer, the sinks included"
        );
        assert!(
            !LintScope::for_path("crates/flow-exp/src/output.rs").l5,
            "the CLI crate is not core"
        );
        // flow-obs joins the core set for the panic/float/probability
        // lints but stays out of the L2 determinism set (its timing
        // channel is wall-clock by design).
        let obs = LintScope::for_path("crates/flow-obs/src/span.rs");
        assert!(obs.l1 && obs.l3 && obs.l4 && obs.l5);
        assert!(!obs.l2);
    }

    #[test]
    fn l6_catches_panicking_and_swallowed_io() {
        assert!(lints_of("std::fs::write(&path, text).unwrap();\n").contains(&"L6"));
        assert!(
            lints_of("let text = std::fs::read_to_string(&p).expect(\"readable\");\n")
                .contains(&"L6")
        );
        assert!(lints_of("let _ = std::fs::rename(&tmp, &path);\n").contains(&"L6"));
        assert!(lints_of("std::fs::remove_file(&tmp).ok();\n").contains(&"L6"));
        assert!(
            lints_of("std::fs::write(&path, text)?;\n").is_empty(),
            "surfaced I/O errors are the remediation, not a finding"
        );
        assert_eq!(
            lints_of("let x = map.get(&k).unwrap();\n"),
            ["L1"],
            "non-I/O unwraps are L1's business, not L6's"
        );
    }

    #[test]
    fn l6_scope_is_the_serving_persistence_layer() {
        assert!(LintScope::for_path("crates/flow-serve/src/cache.rs").l6);
        assert!(LintScope::for_path("crates/flow-core/src/persist.rs").l6);
        assert!(
            !LintScope::for_path("crates/flow-serve/src/engine.rs").l6,
            "non-persistence serving code answers to L1 alone"
        );
        assert!(!LintScope::for_path("crates/flow-mcmc/src/sampler.rs").l6);
    }

    #[test]
    fn l10_catches_bare_schema_strings() {
        assert_eq!(lints_of("let h = \"flowserve-cache v3\";\n"), ["L10"]);
        assert_eq!(lints_of("s.push_str(\"flow-bench/serve-v3\");\n"), ["L10"]);
        // Comments and doc text may spell the names freely.
        assert!(lints_of("// the flowserve-cache v3 header\n").is_empty());
        assert!(lints_of("/// parses flow-obs/stats-v1 documents\n").is_empty());
        // Rendering through the registry is the remediation.
        assert!(lints_of("let h = flow_core::schema::SERVE_CACHE.line_header();\n").is_empty());
        // Test code (golden vectors) is out of scope.
        assert!(lints_of(
            "#[cfg(test)]\nmod t {\n const H: &str = \"flowstream-snapshot v1\";\n}\n"
        )
        .is_empty());
        // The escape comment works for L10 like every other lint.
        assert!(lints_of(
            "let h = \"flowstream-snapshot v1\"; // flow-analyze: allow(L10: golden vector)\n"
        )
        .is_empty());
    }

    #[test]
    fn l10_scope_exempts_only_the_registry_module() {
        assert!(!LintScope::for_path("crates/flow-core/src/schema.rs").l10);
        assert!(LintScope::for_path("crates/flow-core/src/error.rs").l10);
        assert!(LintScope::for_path("crates/flow-bench/src/bin/bench_serve.rs").l10);
        assert!(LintScope::for_path("crates/flow-exp/src/runners/perf.rs").l10);
        assert!(!LintScope::for_path("crates/flow-serve/tests/serving.rs").l10);
    }

    #[test]
    fn escape_comment_suppresses() {
        assert!(lints_of(
            "let x = y.unwrap(); // flow-analyze: allow(L1: infallible by construction)\n"
        )
        .is_empty());
        assert!(
            lints_of("// flow-analyze: allow(L3: exact sentinel)\nif x == 0.0 {}\n").is_empty()
        );
        // The wrong lint id does not suppress.
        assert_eq!(
            lints_of("let x = y.unwrap(); // flow-analyze: allow(L2)\n"),
            ["L1"]
        );
    }
}
