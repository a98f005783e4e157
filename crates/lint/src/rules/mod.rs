//! The rules: plain functions over one file or over the symbol table, the
//! rule list, and the one `emit` they all report through.

mod error_types;
mod ordering;
mod ws;

pub(crate) use error_types::crate_error_types;
pub(crate) use ordering::ordering_justified;
pub(crate) use ws::{alloc_in_kernel, atomic_protocol, dead_slots};

use crate::diagnostics::Finding;
use crate::source::SourceFile;

/// `(id, summary)` of every rule: the ids a `lint-ok(<rule>)` comment may
/// name, and the list `adv-lint rules` prints.
pub const RULES: &[(&str, &str)] = &[
    (
        "ordering-justified",
        "every `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` use site \
         must carry a justification comment",
    ),
    (
        "crate-error-types",
        "public fallible fns return the crate's error type, not \
         `Box<dyn Error>` or `Result<_, String>`",
    ),
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
        "lint-debt",
        "per-rule `lint-ok` and `#[expect(clippy::..)]` counts may not grow \
         past the committed lint_debt.json baseline",
    ),
    (
        "lint-ok-syntax",
        "allowlist comments must name a known rule and give a reason",
    ),
];

/// Pushes a finding at 1-based `(line, column)` of `file`, `width` chars
/// wide, unless the line is test code or carries a `lint-ok(<rule>)`.
pub(crate) fn emit(
    file: &SourceFile,
    rule: &'static str,
    (line, column, width): (usize, usize, usize),
    message: String,
    help: &str,
    out: &mut Vec<Finding>,
) {
    if file.is_test_line(line) || file.allow_for(line, rule).is_some() {
        return;
    }
    out.push(Finding {
        rule,
        path: file.rel.clone(),
        line,
        column,
        width,
        message,
        snippet: file.lines.get(line - 1).cloned().unwrap_or_default(),
        help: help.to_string(),
    });
}

/// `lint-ok-syntax`: reports allowlist comments with a missing reason, or
/// naming a rule that is not in [`RULES`]. Test code is exempt.
pub(crate) fn lint_ok_syntax(file: &SourceFile, out: &mut Vec<Finding>) {
    let malformed = file.malformed_allows.iter().map(|&line| {
        (
            line,
            "`lint-ok(..)` comment without a reason".to_string(),
            "write `// lint-ok(<rule>): <reason>` — the reason is mandatory",
        )
    });
    let unknown = file
        .allows
        .iter()
        .filter(|a| !RULES.iter().any(|(id, _)| *id == a.rule))
        .map(|a| {
            (
                a.comment_line,
                format!("`lint-ok({})` names an unknown rule", a.rule),
                "run `adv-lint rules` for the rule list",
            )
        });
    for (line, message, help) in malformed.chain(unknown) {
        if !file.is_test_line(line) {
            out.push(Finding {
                rule: "lint-ok-syntax",
                path: file.rel.clone(),
                line,
                column: 1,
                width: 1,
                message,
                snippet: file.lines.get(line - 1).cloned().unwrap_or_default(),
                help: help.to_string(),
            });
        }
    }
}
