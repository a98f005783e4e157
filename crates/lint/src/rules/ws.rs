//! Pass 2: workspace-wide rules over the [`SymbolTable`].
//!
//! Unlike the per-file rules, these see the whole workspace at once and can
//! state cross-file facts: a `Release` publish with no `Acquire` partner
//! *anywhere*, or a `KernelKind` slot no call site ever enters. Findings
//! still flow through [`emit`] — a `// lint-ok(<rule>): <reason>` on the
//! offending line suppresses, and test code never fires. `files` is the
//! slice the table was built from.

use super::emit;
use crate::diagnostics::Finding;
use crate::lexer::{seq, Token};
use crate::source::SourceFile;
use crate::table::{ordering_tokens, AtomicSite, SymbolTable};
use std::collections::BTreeSet;

/// A write that an `Acquire`-side reader can synchronize with.
fn publishes(site: &AtomicSite) -> bool {
    site.op != "load" && names_any(site, ["Release", "AcqRel", "SeqCst"])
}

/// A read that synchronizes-with a `Release`-side writer.
fn consumes(site: &AtomicSite) -> bool {
    site.op != "store" && names_any(site, ["Acquire", "AcqRel", "SeqCst"])
}

/// `true` when one of the site's orderings is in `orderings`.
fn names_any(site: &AtomicSite, orderings: [&str; 3]) -> bool {
    site.orderings.iter().any(|o| orderings.contains(o))
}

const ATOMIC_HELP: &str = "pair the publish with an Acquire-side read (or vice versa), weaken \
the ordering, or justify with `// lint-ok(atomic-protocol): <reason>`";

/// `atomic-protocol`: the cross-file atomic-ordering protocol checks.
pub(crate) fn atomic_protocol(table: &SymbolTable, files: &[SourceFile], out: &mut Vec<Finding>) {
    let mut at_site = |site: &AtomicSite, message: String| {
        let at = (site.line, site.column + 1, site.op.len());
        emit(
            &files[site.file],
            "atomic-protocol",
            at,
            message,
            ATOMIC_HELP,
            out,
        );
    };
    // (a)/(b)/(e): per-field publish/consume pairing.
    for (field, sites) in table.sites_by_field() {
        let has_publish = sites.iter().any(|s| publishes(s));
        let has_consume = sites.iter().any(|s| consumes(s));
        for site in sites {
            let op = site.op;
            if publishes(site) && !has_consume {
                at_site(
                    site,
                    format!(
                        "`{op}` publishes `{field}` with a Release-class ordering, but no \
                         Acquire-side consumer of `{field}` exists anywhere in the workspace"
                    ),
                );
            }
            if consumes(site) && !has_publish {
                at_site(
                    site,
                    format!(
                        "`{op}` reads `{field}` with an Acquire-class ordering, but `{field}` \
                         is never published with Release anywhere in the workspace"
                    ),
                );
            }
            if op == "load" && site.orderings.iter().all(|o| *o == "Relaxed") && has_publish {
                at_site(
                    site,
                    format!(
                        "`Relaxed` load of `{field}`, which is published with a Release-class \
                         ordering elsewhere — the acquire pairing is lost at this read"
                    ),
                );
            }
        }
    }
    // (c): SeqCst anywhere needs its own justification — it is almost never
    // the weakest sufficient ordering, and writing the reason down is the
    // point.
    for site in &table.atomic_sites {
        if site.orderings.contains(&"SeqCst") {
            let message = format!(
                "`SeqCst` on `{}` — justify why no weaker ordering suffices",
                site.op
            );
            at_site(site, message);
        }
    }
    // (d): an `ordering-justified` allow comment whose covered lines
    // contain only orderings on proven Relaxed counters is stale — the
    // stronger analysis proves the site benign without it.
    for (idx, file) in files.iter().enumerate() {
        for allow in &file.allows {
            if allow.rule != "ordering-justified" || file.is_test_line(allow.comment_line) {
                continue;
            }
            let exempt: Vec<bool> = ordering_tokens(&file.tokens)
                .filter(|(t, _)| allow.lines.contains(&t.line))
                .map(|(t, _)| table.exempt_ordering_tokens.contains(&(idx, t.line, t.col)))
                .collect();
            if !exempt.is_empty() && exempt.iter().all(|&e| e) {
                emit(
                    file,
                    "atomic-protocol",
                    (allow.comment_line, 1, 1),
                    "stale `lint-ok(ordering-justified)`: it covers only accesses to \
                     proven Relaxed counters, which need no justification"
                        .to_string(),
                    "delete the comment — the workspace analysis proves every access to \
                     this field is a Relaxed pure counter, so no justification is needed",
                    out,
                );
            }
        }
    }
}

/// Allocation-shaped tokens forbidden inside a measured kernel region.
const ALLOC_HELP: &str = "hoist the allocation out of the measured region (before \
`KernelScope::enter`), or justify with `// lint-ok(no-alloc-in-kernel): <reason>`";

/// `no-alloc-in-kernel`: the hot-path allocation lint.
pub(crate) fn alloc_in_kernel(table: &SymbolTable, files: &[SourceFile], out: &mut Vec<Finding>) {
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for kf in &table.kernel_fns {
        let file = &files[kf.file];
        for k in kf.region.clone() {
            let found = allocation(&file.tokens, k).filter(|_| seen.insert((kf.file, k)));
            let Some((width, what)) = found else {
                continue;
            };
            let tok = &file.tokens[k];
            emit(
                file,
                "no-alloc-in-kernel",
                (tok.line, tok.col + 1, width),
                format!(
                    "{what} inside a measured kernel region (entered on line {})",
                    kf.enter_line
                ),
                ALLOC_HELP,
                out,
            );
        }
    }
}

/// `(width, description)` when an allocation starts at `t[k]`.
fn allocation(t: &[Token], k: usize) -> Option<(usize, &'static str)> {
    if seq(t, k, &["Vec", "::", "new"]) {
        return Some(("Vec::new".len(), "`Vec::new` allocation"));
    }
    if seq(t, k, &["format", "!"]) {
        return Some(("format!".len(), "`format!` allocation"));
    }
    if k == 0 || !t[k - 1].is(".") || !seq(t, k + 1, &["("]) {
        return None;
    }
    [
        ("push", "`.push(..)` (may reallocate)"),
        ("to_vec", "`.to_vec()` allocation"),
        ("clone", "`.clone()` allocation"),
    ]
    .into_iter()
    .find(|(method, _)| t[k].is(method))
    .map(|(method, what)| (method.len(), what))
}

/// `dead-slot`: every `KernelKind` variant is entered somewhere.
pub(crate) fn dead_slots(table: &SymbolTable, files: &[SourceFile], out: &mut Vec<Finding>) {
    // Only meaningful when both sides of the inventory exist: a fixture
    // with an enum but no call sites would otherwise flag everything.
    if table.kernel_variants.is_empty() || table.entered_kinds.is_empty() {
        return;
    }
    for variant in table.dead_kernel_variants() {
        emit(
            &files[variant.file],
            "dead-slot",
            (variant.line, 1, variant.name.len()),
            format!(
                "`KernelKind::{}` is never passed to `KernelScope::enter` anywhere \
                 in the workspace",
                variant.name
            ),
            "remove the variant, or add the KernelScope::enter instrumentation \
             that was supposed to use it",
            out,
        );
    }
}
