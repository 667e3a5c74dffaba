//! The audit rules, implemented over [`crate::lexer`] token streams. Deny
//! by default: every rule reports a [`Violation`] unless the code carries
//! the required annotation, and there is no exception list.
//!
//! | lint | invariant |
//! |------|-----------|
//! | A3 | no `partial_cmp(..).unwrap()/.expect(..)` outside `core::order` |
//! | A5 | raw-pointer ops confined to the audited kernel and pool files |
//! | A6 | `Mutex` fields in `serve` and the representation/segment stores carry `// LOCK-ORDER: n` ranks, and locks are acquired in ascending rank |
//! | A7 | fault-injection sites (`tahoma_faults` uses) confined to the allowlisted failure-surface modules, each marked with a `// FAULT:` comment |
//!
//! A1, A2 and A4 were retired in favour of the rustc and clippy lints
//! declared in the root `Cargo.toml` (see `SAFETY.md`); their ids are not
//! reused. Everything here is heuristic token matching, tuned to this
//! workspace's idioms; the integration tests pin the behavior on fixture
//! sources with seeded violations.

use crate::lexer::{lex, Comment, Lexed, TokKind};
use std::collections::{BTreeMap, HashSet};

/// One lint finding, pointing at a file line.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Lint id (`A3`, `A5`, `A6` or `A7`).
    pub lint: &'static str,
    /// Forward-slash path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
    /// Trimmed source line text, shown under the finding.
    pub excerpt: String,
}

/// The files allowed to contain raw-pointer arithmetic (A5): the three
/// SIMD kernel files plus the worker pool, whose SAFETY contracts are
/// documented in `SAFETY.md`.
pub const KERNEL_FILES: [&str; 4] = [
    "crates/nn/src/gemm.rs",
    "crates/nn/src/kernels.rs",
    "crates/imagery/src/engine.rs",
    "crates/mathx/src/pool.rs",
];

/// File exempt from A3: the workspace's single home for NaN-aware
/// ordering, where `partial_cmp` unwraps are the point under test.
pub const ORDER_FILE: &str = "crates/core/src/order.rs";

/// The modules allowed to host fault-injection sites (A7): the serving
/// stack's deliberate failure surface — segment/representation storage,
/// the coalescing broker, the wire protocol edge, and the standing-query
/// ticker. Each site's contract is documented in `RELIABILITY.md`.
pub const FAULT_MODULES: [&str; 5] = [
    "crates/imagery/src/segment.rs",
    "crates/imagery/src/store.rs",
    "crates/serve/src/broker.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/stream.rs",
];

/// Per-file context shared by the rules.
struct FileCtx {
    rel: String,
    lines: Vec<String>,
    lx: Lexed,
    /// Lines whose only code tokens belong to attributes.
    attr_lines: HashSet<u32>,
    /// Lines holding at least one non-attribute code token.
    code_lines: HashSet<u32>,
    /// Token-index ranges inside `#[cfg(test)]` / `#[test]` items.
    test_ranges: Vec<(usize, usize)>,
    /// Paren/bracket/brace depth *before* each token.
    paren_depth: Vec<u32>,
}

impl FileCtx {
    fn new(rel: String, src: &str) -> FileCtx {
        let lx = lex(src);
        let lines: Vec<String> = src.lines().map(|l| l.trim().to_string()).collect();

        // Attribute token ranges: `#` (`!`)? `[` … matching `]`.
        let mut attr_ranges: Vec<(usize, usize)> = Vec::new();
        let mut i = 0usize;
        while i < lx.toks.len() {
            if lx.punct(i, '#') {
                let mut j = i + 1;
                if lx.punct(j, '!') {
                    j += 1;
                }
                if lx.punct(j, '[') {
                    let mut depth = 0i32;
                    let mut k = j;
                    while k < lx.toks.len() {
                        match lx.toks[k].kind {
                            TokKind::Punct('[') => depth += 1,
                            TokKind::Punct(']') => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    attr_ranges.push((i, k.min(lx.toks.len().saturating_sub(1))));
                    i = k + 1;
                    continue;
                }
            }
            i += 1;
        }

        let in_attr = |idx: usize| attr_ranges.iter().any(|&(a, b)| idx >= a && idx <= b);

        let mut attr_token_lines: HashSet<u32> = HashSet::new();
        let mut code_lines: HashSet<u32> = HashSet::new();
        for (idx, t) in lx.toks.iter().enumerate() {
            if in_attr(idx) {
                attr_token_lines.insert(t.line);
            } else {
                code_lines.insert(t.line);
            }
        }
        let attr_lines: HashSet<u32> = attr_token_lines.difference(&code_lines).copied().collect();

        // Test ranges: a `#[test]`-carrying or `#[cfg(test)]`-carrying
        // attribute gates the item that follows it (to its closing brace).
        let mut test_ranges: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in &attr_ranges {
            let mut has_test = false;
            for idx in a..=b {
                if lx.ident(idx) == Some("test") {
                    has_test = true;
                }
            }
            if !has_test {
                continue;
            }
            // Find the item body: first `{` after the attribute, unless a
            // `;` ends the item first (e.g. `#[cfg(test)] use x;`).
            let mut k = b + 1;
            let mut open = None;
            while k < lx.toks.len() {
                match lx.toks[k].kind {
                    TokKind::Punct(';') => break,
                    TokKind::Punct('{') => {
                        open = Some(k);
                        break;
                    }
                    _ => k += 1,
                }
            }
            if let Some(open) = open {
                let mut depth = 0i32;
                let mut k = open;
                while k < lx.toks.len() {
                    match lx.toks[k].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                test_ranges.push((a, k));
            }
        }

        let mut paren_depth = Vec::with_capacity(lx.toks.len());
        let mut pd = 0u32;
        for t in &lx.toks {
            paren_depth.push(pd);
            match t.kind {
                TokKind::Punct('(') => pd += 1,
                TokKind::Punct(')') => pd = pd.saturating_sub(1),
                _ => {}
            }
        }

        FileCtx {
            rel,
            lines,
            lx,
            attr_lines,
            code_lines,
            test_ranges,
            paren_depth,
        }
    }

    fn in_test(&self, idx: usize) -> bool {
        self.test_ranges.iter().any(|&(a, b)| idx >= a && idx <= b)
    }

    fn excerpt(&self, line: u32) -> String {
        self.lines
            .get(line.saturating_sub(1) as usize)
            .cloned()
            .unwrap_or_default()
    }

    fn violation(&self, lint: &'static str, line: u32, message: String) -> Violation {
        Violation {
            lint,
            file: self.rel.clone(),
            line,
            message,
            excerpt: self.excerpt(line),
        }
    }

    /// Comments starting on or spanning `line`.
    fn comments_touching(&self, line: u32) -> impl Iterator<Item = &Comment> {
        self.lx
            .comments
            .iter()
            .filter(move |c| c.line <= line && line <= c.end_line)
    }
}

/// A3: `partial_cmp(..)` directly followed by `.unwrap()` / `.expect(..)`
/// anywhere outside `core::order`.
fn a3_partial_cmp_unwrap(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if ctx.rel == ORDER_FILE {
        return;
    }
    let lx = &ctx.lx;
    for i in 0..lx.toks.len() {
        if lx.ident(i) != Some("partial_cmp") || !lx.punct(i + 1, '(') {
            continue;
        }
        let Some(close) = match_paren(lx, i + 1) else {
            continue;
        };
        if lx.punct(close + 1, '.') {
            if let Some(m) = lx.ident(close + 2) {
                if m == "unwrap" || m == "expect" {
                    out.push(ctx.violation(
                        "A3",
                        lx.toks[close + 2].line,
                        format!(
                            "`partial_cmp(..).{m}(..)` outside core::order — use a total \
                             ordering (`f32::total_cmp` or `core::order`)"
                        ),
                    ));
                }
            }
        }
    }
}

/// A5: raw-pointer arithmetic / reconstruction confined to the kernel
/// files whose SAFETY contracts are documented in `SAFETY.md`.
fn a5_raw_pointer_ops(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if KERNEL_FILES.contains(&ctx.rel.as_str()) {
        return;
    }
    let lx = &ctx.lx;
    for i in 0..lx.toks.len() {
        if let Some(id) = lx.ident(i) {
            if id.starts_with("from_raw_parts") {
                out.push(ctx.violation(
                    "A5",
                    lx.toks[i].line,
                    format!("`{id}` outside the audited kernel files"),
                ));
                continue;
            }
        }
        if lx.punct(i, '.') && lx.punct(i + 2, '(') {
            if let Some(m) = lx.ident(i + 1) {
                if m == "add" || m == "offset" || m == "offset_from" {
                    out.push(ctx.violation(
                        "A5",
                        lx.toks[i + 1].line,
                        format!("pointer-style `.{m}(..)` outside the audited kernel files"),
                    ));
                }
            }
        }
    }
}

/// A7: fault-injection sites confined to [`FAULT_MODULES`] and marked.
/// Outside the allowlist, any non-test `tahoma_faults` use is flagged —
/// injection points are part of the audited failure surface, not
/// something to sprinkle ad hoc. Inside it, every site needs a
/// `// FAULT:` comment stating what failure it models. The upward scan
/// for it tolerates blank/comment/attribute lines, earlier lines of the
/// *same statement*, and lines whose own site is already covered — so one
/// comment may cover a tight run of adjacent sites, but never reaches
/// across unrelated code. The faults crate itself and test code
/// (which *arms* plans rather than hosting sites) are exempt.
fn a7_fault_sites(ctx: &FileCtx, out: &mut Vec<Violation>) {
    if ctx.rel.starts_with("crates/faults/") || ctx.rel.contains("/tests/") {
        return;
    }
    let allowed = FAULT_MODULES.contains(&ctx.rel.as_str());
    let mut flagged: HashSet<u32> = HashSet::new();
    let mut covered_lines: HashSet<u32> = HashSet::new();
    for (ti, t) in ctx.lx.toks.iter().enumerate() {
        let TokKind::Ident(id) = &t.kind else {
            continue;
        };
        if id != "tahoma_faults" || ctx.in_test(ti) {
            continue;
        }
        let line = t.line;
        if !allowed {
            if flagged.insert(line) {
                out.push(
                    ctx.violation(
                        "A7",
                        line,
                        "fault-injection site outside the A7 module allowlist — keep injection \
                     points on the audited failure surface (see RELIABILITY.md)"
                            .to_string(),
                    ),
                );
            }
            continue;
        }
        // First line of the statement this site belongs to.
        let mut stmt_start = line;
        for k in (0..ti).rev() {
            match ctx.lx.toks[k].kind {
                TokKind::Punct(';') | TokKind::Punct('{') | TokKind::Punct('}') => break,
                _ => stmt_start = stmt_start.min(ctx.lx.toks[k].line),
            }
        }
        let is_fault_comment = |c: &&Comment| !c.doc && c.text.contains("FAULT:");
        let mut covered = ctx.comments_touching(line).any(|c| is_fault_comment(&c));
        let mut l = line.saturating_sub(1);
        while !covered && l >= 1 {
            covered = ctx.comments_touching(l).any(|c| is_fault_comment(&c));
            if covered {
                break;
            }
            let has_code = ctx.code_lines.contains(&l) && !ctx.attr_lines.contains(&l);
            if has_code && l < stmt_start && !covered_lines.contains(&l) {
                break;
            }
            l -= 1;
        }
        if covered {
            covered_lines.insert(line);
        } else if flagged.insert(line) {
            out.push(
                ctx.violation(
                    "A7",
                    line,
                    "fault-injection site without a `// FAULT:` comment naming the failure it \
                 models"
                        .to_string(),
                ),
            );
        }
    }
}

/// Index of the `)` matching the `(` at `open`.
fn match_paren(lx: &Lexed, open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in lx.toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('(') => depth += 1,
            TokKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// A registered `Mutex` field: its rank and where it was declared.
#[derive(Debug, Clone)]
struct LockRank {
    rank: u32,
    file: String,
    line: u32,
}

/// True when `rel` is in A6 scope: the serving layer's lock graph plus
/// the representation store's ingest/blob locks and the segment store's
/// per-shard writer/index locks (`tahoma-serve` ingests and fetches
/// through the store, so the store ranks live in the same global
/// registry as the service ranks).
fn a6_in_scope(rel: &str) -> bool {
    rel.starts_with("crates/serve/src/")
        || rel == "crates/imagery/src/store.rs"
        || rel == "crates/imagery/src/segment.rs"
}

/// A6 pass 1 (per in-scope file): every `name: Mutex<..>` struct field must
/// carry a `// LOCK-ORDER: n` comment on the field line or within the
/// three lines above; ranks are registered by field name.
fn a6_collect_ranks(
    ctx: &FileCtx,
    ranks: &mut BTreeMap<String, LockRank>,
    out: &mut Vec<Violation>,
) {
    let lx = &ctx.lx;
    for i in 0..lx.toks.len() {
        // Pattern: `name : Mutex <` at paren depth 0 (struct field, not a
        // fn parameter), preceded by `{`, `,`, or `pub`.
        let Some(name) = lx.ident(i) else { continue };
        if !(lx.punct(i + 1, ':')
            && lx.ident(i + 2) == Some("Mutex")
            && lx.punct(i + 3, '<')
            && ctx.paren_depth[i] == 0)
        {
            continue;
        }
        let field_ok = i == 0
            || matches!(
                &lx.toks[i - 1].kind,
                TokKind::Punct('{') | TokKind::Punct(',')
            )
            || lx.ident(i - 1) == Some("pub");
        if !field_ok {
            continue;
        }
        let line = lx.toks[i].line;
        let mut rank = None;
        for l in line.saturating_sub(3)..=line {
            for c in ctx.comments_touching(l) {
                if let Some(pos) = c.text.find("LOCK-ORDER:") {
                    let rest = &c.text[pos + "LOCK-ORDER:".len()..];
                    rank = rest
                        .split_whitespace()
                        .next()
                        .and_then(|w| w.parse::<u32>().ok());
                }
            }
        }
        match rank {
            None => out.push(ctx.violation(
                "A6",
                line,
                format!("Mutex field `{name}` without a `// LOCK-ORDER: n` annotation"),
            )),
            Some(r) => {
                if let Some(prev) = ranks.get(name) {
                    if prev.rank != r {
                        out.push(ctx.violation(
                            "A6",
                            line,
                            format!(
                                "Mutex field `{name}` re-declared with rank {r}, but {}:{} \
                                 ranks it {}",
                                prev.file, prev.line, prev.rank
                            ),
                        ));
                    }
                } else {
                    ranks.insert(
                        name.to_string(),
                        LockRank {
                            rank: r,
                            file: ctx.rel.clone(),
                            line,
                        },
                    );
                }
            }
        }
    }
}

/// A live guard during the A6 acquisition scan.
#[derive(Debug)]
struct LiveGuard {
    /// Binding name, if let-bound (so `drop(name)` releases it).
    name: Option<String>,
    /// Registered mutex field name.
    mutex: String,
    rank: u32,
    /// Brace depth the guard was created at (dies when the block closes).
    depth: u32,
    /// Statement temporary: dies at the next `;` at its depth.
    stmt_temp: bool,
}

/// A6 pass 2 (per serve file): walk lock acquisitions and flag any that
/// acquire a rank less than or equal to a different mutex already held.
///
/// Recognized acquisition shapes (the workspace's two idioms):
/// * helper: `lock(&path.to.field)`
/// * method: `path.to.field.lock()` followed by at most one poison
///   adapter (`.unwrap()`, `.expect(..)`, `.unwrap_or_else(..)`)
///
/// Guard lifetime: `let [mut] g = <lock expr>;` lives to its block's
/// closing brace or `drop(g)`; any other use is a statement temporary
/// that dies at the next `;`.
fn a6_check_acquisitions(
    ctx: &FileCtx,
    ranks: &BTreeMap<String, LockRank>,
    out: &mut Vec<Violation>,
) {
    let lx = &ctx.lx;
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut depth = 0u32;
    let mut i = 0usize;
    while i < lx.toks.len() {
        match &lx.toks[i].kind {
            TokKind::Punct('{') => {
                depth += 1;
                i += 1;
            }
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                live.retain(|g| g.depth <= depth);
                i += 1;
            }
            TokKind::Punct(';') => {
                live.retain(|g| !(g.stmt_temp && g.depth == depth));
                i += 1;
            }
            TokKind::Ident(id) if id == "drop" && lx.punct(i + 1, '(') => {
                if let Some(victim) = lx.ident(i + 2) {
                    if lx.punct(i + 3, ')') {
                        live.retain(|g| g.name.as_deref() != Some(victim));
                    }
                }
                i += 1;
            }
            TokKind::Ident(id) if id == "lock" => {
                let acquisition = if lx.punct(i + 1, '(') && !prev_is_dot(lx, i) {
                    // Helper form: mutex name is the last ident inside the
                    // call's argument path.
                    let close = match_paren(lx, i + 1);
                    close.map(|close| {
                        let mut name = None;
                        for k in (i + 2)..close {
                            if let Some(id) = lx.ident(k) {
                                name = Some(id.to_string());
                            }
                        }
                        (name, i, close + 1)
                    })
                } else if prev_is_dot(lx, i) && lx.punct(i + 1, '(') {
                    // Method form: mutex name is the ident before the dot.
                    let close = match_paren(lx, i + 1);
                    close.map(|close| {
                        let name = lx.ident(i.saturating_sub(2)).map(|s| s.to_string());
                        // Path start for the let-binding check.
                        let mut start = i.saturating_sub(2);
                        while start > 0 {
                            let prev = start - 1;
                            let is_path = lx.punct(prev, '.')
                                || lx.punct(prev, ':')
                                || lx.ident(prev).is_some();
                            if is_path {
                                start = prev;
                            } else {
                                break;
                            }
                        }
                        (name, start, close + 1)
                    })
                } else {
                    None
                };
                let Some((Some(name), expr_start, mut after)) = acquisition else {
                    i += 1;
                    continue;
                };
                let Some(rank) = ranks.get(&name) else {
                    i += 1;
                    continue;
                };
                // Swallow one poison adapter.
                if lx.punct(after, '.') {
                    if let Some(adapter) = lx.ident(after + 1) {
                        if matches!(adapter, "unwrap" | "expect" | "unwrap_or_else")
                            && lx.punct(after + 2, '(')
                        {
                            if let Some(c) = match_paren(lx, after + 2) {
                                after = c + 1;
                            }
                        }
                    }
                }
                for g in &live {
                    if g.mutex != name && g.rank >= rank.rank {
                        out.push(ctx.violation(
                            "A6",
                            lx.toks[i].line,
                            format!(
                                "acquires `{name}` (rank {}) while holding `{}` (rank {}) — \
                                 lock ranks must strictly ascend",
                                rank.rank, g.mutex, g.rank
                            ),
                        ));
                    }
                }
                let stmt_temp = lx.punct(after, '.');
                let bound_name = if stmt_temp {
                    None
                } else {
                    let_binding_name(lx, expr_start)
                };
                live.push(LiveGuard {
                    stmt_temp: stmt_temp || bound_name.is_none(),
                    name: bound_name,
                    mutex: name,
                    rank: rank.rank,
                    depth,
                });
                i = after;
            }
            _ => i += 1,
        }
    }
}

fn prev_is_dot(lx: &Lexed, i: usize) -> bool {
    i > 0 && lx.punct(i - 1, '.')
}

/// If the tokens immediately before `expr_start` are `let [mut] NAME =`,
/// return `NAME`.
fn let_binding_name(lx: &Lexed, expr_start: usize) -> Option<String> {
    if expr_start < 2 || !lx.punct(expr_start - 1, '=') {
        return None;
    }
    let name = lx.ident(expr_start - 2)?;
    let before = expr_start.checked_sub(3)?;
    match lx.ident(before) {
        Some("let") => Some(name.to_string()),
        Some("mut") if lx.ident(before.checked_sub(1)?) == Some("let") => Some(name.to_string()),
        _ => None,
    }
}

/// Whole-workspace audit over pre-read sources: `files` maps the
/// root-relative forward-slash path to file contents.
pub fn audit_sources(files: &BTreeMap<String, String>) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut ranks: BTreeMap<String, LockRank> = BTreeMap::new();
    let mut ctxs: Vec<FileCtx> = Vec::new();

    for (rel, src) in files {
        let ctx = FileCtx::new(rel.clone(), src);
        a3_partial_cmp_unwrap(&ctx, &mut out);
        a5_raw_pointer_ops(&ctx, &mut out);
        a7_fault_sites(&ctx, &mut out);
        if a6_in_scope(&ctx.rel) {
            a6_collect_ranks(&ctx, &mut ranks, &mut out);
        }
        ctxs.push(ctx);
    }

    // A6 pass 2 needs the full rank registry.
    for ctx in &ctxs {
        if a6_in_scope(&ctx.rel) {
            a6_check_acquisitions(ctx, &ranks, &mut out);
        }
    }

    out.sort_by(|a, b| (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint)));
    out
}
