//! Pass 2: workspace-wide rules over the [`SymbolTable`].
//!
//! Unlike the per-file rules, these see the whole workspace at once and can
//! state cross-file facts: a `Release` publish with no `Acquire` partner
//! *anywhere*, a `KernelKind` slot no call site ever enters, a metric name
//! that exists only in the documentation. Findings still flow through the
//! same allowlist machinery — a `// lint-ok(<rule>): <reason>` on the
//! offending line suppresses, and test code never fires.

use super::find_word;
use crate::diagnostics::Finding;
use crate::lexer::is_ident_char;
use crate::source::SourceFile;
use crate::table::{AtomicSite, SymbolTable};
use std::collections::{BTreeMap, BTreeSet};

/// `(id, summary)` of every workspace-wide rule, for `adv-lint rules`.
pub const WS_RULES: &[(&str, &str)] = &[
    (
        "atomic-protocol",
        "cross-file acquire/release pairing: no unpaired Release publish, \
         no Relaxed read of a Release-published field, no unjustified \
         SeqCst, no stale justification on a proven Relaxed counter",
    ),
    (
        "no-alloc-in-kernel",
        "inside functions that open a KernelScope, no Vec::new/.push/\
         .to_vec/.clone()/format! after the scope opens unless allowlisted",
    ),
    (
        "dead-slot",
        "every KernelKind variant must be passed to KernelScope::enter \
         somewhere",
    ),
    (
        "dead-metric",
        "DESIGN.md's metric schema and the registered metric names must \
         match in both directions",
    ),
    (
        "lint-debt",
        "per-rule `lint-ok` and `#[expect(clippy::..)]` counts may not grow \
         past the committed lint_debt.json baseline",
    ),
];

/// Shared context for the workspace rules: the file map for allowlist and
/// test-region filtering, plus `DESIGN.md`'s lines for schema diagnostics.
pub struct WsCtx<'a> {
    /// Every scanned file by report path.
    pub files: BTreeMap<&'a str, &'a SourceFile>,
    /// Lines of the workspace `DESIGN.md` (empty when absent).
    pub design_lines: Vec<String>,
}

/// Runs every workspace rule, pushing surviving findings into `out`.
pub fn check_workspace(table: &SymbolTable, ctx: &WsCtx<'_>, out: &mut Vec<Finding>) {
    atomic_protocol(table, ctx, out);
    alloc_in_kernel(table, ctx, out);
    dead_slots(table, ctx, out);
    dead_metrics(table, ctx, out);
}

/// Emits a finding at a source position unless the line is test code or
/// carries a matching allow. Paths outside the scanned set (`DESIGN.md`,
/// `lint_debt.json`) have no allow machinery and always emit.
#[expect(
    clippy::too_many_arguments,
    reason = "a finding's position and text, spelled out at every call site"
)]
fn emit_ws(
    rule: &'static str,
    help: &str,
    ctx: &WsCtx<'_>,
    path: &str,
    line: usize,
    column: usize,
    width: usize,
    message: String,
    out: &mut Vec<Finding>,
) {
    let mut snippet = String::new();
    if let Some(file) = ctx.files.get(path) {
        if file.is_test_line(line) || file.allow_for(line, rule).is_some() {
            return;
        }
        snippet = file.lines.get(line - 1).cloned().unwrap_or_default();
    } else if path == "DESIGN.md" {
        snippet = ctx.design_lines.get(line - 1).cloned().unwrap_or_default();
    }
    out.push(Finding {
        rule,
        path: path.to_string(),
        line,
        column,
        width,
        message,
        snippet,
        help: help.to_string(),
    });
}

/// Orderings that make a write visible to an `Acquire`-side reader.
fn publishes(site: &AtomicSite) -> bool {
    site.op != "load"
        && site
            .orderings
            .iter()
            .any(|o| o == "Release" || o == "AcqRel" || o == "SeqCst")
}

/// Orderings that synchronize-with a `Release`-side writer.
fn consumes(site: &AtomicSite) -> bool {
    site.op != "store"
        && site
            .orderings
            .iter()
            .any(|o| o == "Acquire" || o == "AcqRel" || o == "SeqCst")
}

const ATOMIC_HELP: &str = "pair the publish with an Acquire-side read (or vice versa), weaken \
the ordering, or justify with `// lint-ok(atomic-protocol): <reason>`";

/// The cross-file atomic-ordering protocol checks (see [`WS_RULES`]).
fn atomic_protocol(table: &SymbolTable, ctx: &WsCtx<'_>, out: &mut Vec<Finding>) {
    // (a)/(b)/(e): per-field publish/consume pairing.
    for (field, sites) in table.sites_by_field() {
        let has_publish = sites.iter().any(|s| publishes(s));
        let has_consume = sites.iter().any(|s| consumes(s));
        for site in &sites {
            if publishes(site) && !has_consume {
                emit_ws(
                    "atomic-protocol",
                    ATOMIC_HELP,
                    ctx,
                    &site.path,
                    site.line,
                    site.column + 1,
                    site.op.len(),
                    format!(
                        "`{}` publishes `{field}` with a Release-class ordering, but no \
                         Acquire-side consumer of `{field}` exists anywhere in the workspace",
                        site.op
                    ),
                    out,
                );
            }
            if consumes(site) && !has_publish {
                emit_ws(
                    "atomic-protocol",
                    ATOMIC_HELP,
                    ctx,
                    &site.path,
                    site.line,
                    site.column + 1,
                    site.op.len(),
                    format!(
                        "`{}` reads `{field}` with an Acquire-class ordering, but `{field}` \
                         is never published with Release anywhere in the workspace",
                        site.op
                    ),
                    out,
                );
            }
            if site.op == "load" && site.orderings.iter().all(|o| o == "Relaxed") && has_publish {
                emit_ws(
                    "atomic-protocol",
                    ATOMIC_HELP,
                    ctx,
                    &site.path,
                    site.line,
                    site.column + 1,
                    site.op.len(),
                    format!(
                        "`Relaxed` load of `{field}`, which is published with a Release-class \
                         ordering elsewhere — the acquire pairing is lost at this read"
                    ),
                    out,
                );
            }
        }
    }
    // (c): SeqCst anywhere needs its own justification — it is almost never
    // the weakest sufficient ordering, and writing the reason down is the
    // point.
    for site in &table.atomic_sites {
        if site.orderings.iter().any(|o| o == "SeqCst") {
            emit_ws(
                "atomic-protocol",
                ATOMIC_HELP,
                ctx,
                &site.path,
                site.line,
                site.column + 1,
                site.op.len(),
                format!(
                    "`SeqCst` on `{}` — justify why no weaker ordering suffices",
                    site.op
                ),
                out,
            );
        }
    }
    // (d): an `ordering-justified` allow comment whose covered lines
    // contain only orderings on proven Relaxed counters is stale — the
    // stronger analysis proves the site benign without it.
    for (path, file) in &ctx.files {
        let mut by_comment: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (idx, entries) in file.allows.iter().enumerate() {
            for allow in entries {
                if allow.rule == "ordering-justified" {
                    by_comment
                        .entry(allow.comment_line)
                        .or_default()
                        .push(idx + 1);
                }
            }
        }
        for (comment_line, lines) in by_comment {
            if file.is_test_line(comment_line) {
                continue;
            }
            let mut tokens = 0usize;
            let mut exempt = 0usize;
            for &line in &lines {
                for (col, _) in ordering_tokens_on(file, line) {
                    tokens += 1;
                    if table
                        .exempt_ordering_tokens
                        .contains(&((*path).to_string(), line, col))
                    {
                        exempt += 1;
                    }
                }
            }
            if tokens > 0 && tokens == exempt {
                emit_ws(
                    "atomic-protocol",
                    "delete the comment — the workspace analysis proves every access to \
                     this field is a Relaxed pure counter, so no justification is needed",
                    ctx,
                    path,
                    comment_line,
                    1,
                    1,
                    "stale `lint-ok(ordering-justified)`: it covers only accesses to \
                     proven Relaxed counters, which need no justification"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

/// 0-based columns of `Ordering::<variant>` tokens on a 1-based line.
fn ordering_tokens_on(file: &SourceFile, line: usize) -> Vec<(usize, String)> {
    let Some(code) = file.code.get(line - 1) else {
        return Vec::new();
    };
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    for col in find_word(code, "Ordering") {
        let Some(c1) = super::skip_ws(&chars, col + "Ordering".len()) else {
            continue;
        };
        if chars.get(c1) != Some(&':') || chars.get(c1 + 1) != Some(&':') {
            continue;
        }
        let Some(v0) = super::skip_ws(&chars, c1 + 2) else {
            continue;
        };
        let variant: String = chars[v0..]
            .iter()
            .take_while(|c| is_ident_char(**c))
            .collect();
        if ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"].contains(&variant.as_str()) {
            out.push((col, variant));
        }
    }
    out
}

/// Allocation-shaped tokens forbidden inside a measured kernel region.
const ALLOC_HELP: &str = "hoist the allocation out of the measured region (before \
`KernelScope::enter`), or justify with `// lint-ok(no-alloc-in-kernel): <reason>`";

/// The hot-path allocation lint (see [`WS_RULES`]).
fn alloc_in_kernel(table: &SymbolTable, ctx: &WsCtx<'_>, out: &mut Vec<Finding>) {
    let mut seen: BTreeSet<(String, usize, usize)> = BTreeSet::new();
    for kf in &table.kernel_fns {
        let Some(file) = ctx.files.get(kf.path.as_str()) else {
            continue;
        };
        for lineno in kf.region_start..=kf.region_end {
            let Some(code) = file.code.get(lineno - 1) else {
                continue;
            };
            let chars: Vec<char> = code.chars().collect();
            let min_col = if lineno == kf.region_start {
                kf.region_start_col
            } else {
                0
            };
            for (col, width, what) in alloc_tokens(code, &chars) {
                if col < min_col || !seen.insert((kf.path.clone(), lineno, col)) {
                    continue;
                }
                emit_ws(
                    "no-alloc-in-kernel",
                    ALLOC_HELP,
                    ctx,
                    &kf.path,
                    lineno,
                    col + 1,
                    width,
                    format!(
                        "{what} inside a measured kernel region (entered on line {})",
                        kf.enter_line
                    ),
                    out,
                );
            }
        }
    }
}

/// `(0-based col, width, description)` of each allocation token on a line.
fn alloc_tokens(code: &str, chars: &[char]) -> Vec<(usize, usize, &'static str)> {
    let mut out = Vec::new();
    for col in find_word(code, "Vec") {
        let after = col + 3;
        if chars.get(after) == Some(&':')
            && chars.get(after + 1) == Some(&':')
            && chars
                .get(after + 2..)
                .is_some_and(|r| r.starts_with(&['n', 'e', 'w'][..]))
        {
            out.push((col, "Vec::new".len(), "`Vec::new` allocation"));
        }
    }
    for (method, what) in [
        ("push", "`.push(..)` (may reallocate)"),
        ("to_vec", "`.to_vec()` allocation"),
        ("clone", "`.clone()` allocation"),
    ] {
        for col in find_word(code, method) {
            let is_call = col > 0
                && chars[..col]
                    .iter()
                    .rev()
                    .find(|c| !c.is_whitespace())
                    .is_some_and(|&c| c == '.')
                && super::skip_ws(chars, col + method.len()).is_some_and(|j| chars[j] == '(');
            if is_call {
                out.push((col, method.len(), what));
            }
        }
    }
    for col in find_word(code, "format") {
        if super::skip_ws(chars, col + "format".len()).is_some_and(|j| chars[j] == '!') {
            out.push((col, "format!".len(), "`format!` allocation"));
        }
    }
    out.sort_unstable_by_key(|(c, _, _)| *c);
    out
}

/// The dead `KernelKind` slot check (see [`WS_RULES`]).
fn dead_slots(table: &SymbolTable, ctx: &WsCtx<'_>, out: &mut Vec<Finding>) {
    // Only meaningful when both sides of the inventory exist: a fixture
    // with an enum but no call sites would otherwise flag everything.
    if table.kernel_variants.is_empty() || table.entered_kinds.is_empty() {
        return;
    }
    for variant in table.dead_kernel_variants() {
        emit_ws(
            "dead-slot",
            "remove the variant, or add the KernelScope::enter instrumentation \
             that was supposed to use it",
            ctx,
            &variant.path,
            variant.line,
            1,
            variant.name.len(),
            format!(
                "`KernelKind::{}` is never passed to `KernelScope::enter` anywhere \
                 in the workspace",
                variant.name
            ),
            out,
        );
    }
}

/// The metric-schema drift check (see [`WS_RULES`]).
fn dead_metrics(table: &SymbolTable, ctx: &WsCtx<'_>, out: &mut Vec<Finding>) {
    if !table.has_metric_schema {
        return;
    }
    let registered: BTreeSet<&str> = table.metric_regs.iter().map(|m| m.name.as_str()).collect();
    for (name, line) in &table.doc_metrics {
        if !registered.contains(name.as_str()) {
            emit_ws(
                "dead-metric",
                "remove the stale row from DESIGN.md's metric schema block, or \
                 restore the registration",
                ctx,
                "DESIGN.md",
                *line,
                1,
                name.len(),
                format!("metric `{name}` is documented in DESIGN.md but never registered"),
                out,
            );
        }
    }
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    for reg in &table.metric_regs {
        if !table.doc_metrics.contains_key(&reg.name) && reported.insert(reg.name.as_str()) {
            emit_ws(
                "dead-metric",
                "add the metric to the `<!-- metric-schema:start -->` block in \
                 DESIGN.md",
                ctx,
                &reg.path,
                reg.line,
                1,
                reg.name.len(),
                format!(
                    "metric `{}` is registered but not documented in DESIGN.md",
                    reg.name
                ),
                out,
            );
        }
    }
}
