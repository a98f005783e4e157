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
use crate::source::{skip_ws, words, SourceFile};
use crate::table::{ordering_tokens, AtomicSite, SymbolTable};
use std::collections::BTreeSet;

/// Orderings that make a write visible to an `Acquire`-side reader.
fn publishes(site: &AtomicSite) -> bool {
    site.op != "load"
        && site
            .orderings
            .iter()
            .any(|o| ["Release", "AcqRel", "SeqCst"].contains(o))
}

/// Orderings that synchronize-with a `Release`-side writer.
fn consumes(site: &AtomicSite) -> bool {
    site.op != "store"
        && site
            .orderings
            .iter()
            .any(|o| ["Acquire", "AcqRel", "SeqCst"].contains(o))
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
            let exempt: Vec<bool> = allow
                .lines
                .clone()
                .flat_map(|line| {
                    ordering_tokens(file.line_code(line))
                        .into_iter()
                        .map(move |(col, _)| (idx, line, col))
                })
                .map(|token| table.exempt_ordering_tokens.contains(&token))
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
    let mut seen: BTreeSet<(usize, usize, usize)> = BTreeSet::new();
    for kf in &table.kernel_fns {
        let file = &files[kf.file];
        for line in kf.region_start..=kf.region_end {
            let min_col = if line == kf.region_start {
                kf.region_start_col
            } else {
                0
            };
            for (col, width, what) in alloc_tokens(file.line_code(line)) {
                if col < min_col || !seen.insert((kf.file, line, col)) {
                    continue;
                }
                emit(
                    file,
                    "no-alloc-in-kernel",
                    (line, col + 1, width),
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
}

/// `(0-based col, width, description)` of each allocation token on a line.
fn alloc_tokens(chars: &[char]) -> Vec<(usize, usize, &'static str)> {
    let mut out = Vec::new();
    for col in words(chars, "Vec") {
        if chars[col + 3..].starts_with(&[':', ':', 'n', 'e', 'w']) {
            out.push((col, "Vec::new".len(), "`Vec::new` allocation"));
        }
    }
    let next_is = |i: usize, c: char| skip_ws(chars, i..).is_some_and(|j| chars[j] == c);
    for (method, what) in [
        ("push", "`.push(..)` (may reallocate)"),
        ("to_vec", "`.to_vec()` allocation"),
        ("clone", "`.clone()` allocation"),
    ] {
        for col in words(chars, method) {
            let after_dot = skip_ws(chars, (0..col).rev()).is_some_and(|d| chars[d] == '.');
            if after_dot && next_is(col + method.len(), '(') {
                out.push((col, method.len(), what));
            }
        }
    }
    for col in words(chars, "format") {
        if next_is(col + "format".len(), '!') {
            out.push((col, "format!".len(), "`format!` allocation"));
        }
    }
    out.sort_unstable_by_key(|(c, _, _)| *c);
    out
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
