//! `ordering-justified`: every atomic memory-ordering choice must carry a
//! written rationale.
//!
//! A bare `Ordering::Relaxed` is the single easiest way to ship a data race
//! that only shows up under load on weaker hardware; a bare `SeqCst` is the
//! single easiest way to hide that nobody thought about it. The rule makes
//! the reasoning part of the code: each use site must be allowlisted with
//! `// lint-ok(ordering-justified): <why this ordering is sufficient>`,
//! which doubles as the audit trail for the serve/obs concurrency core.

use super::emit;
use crate::diagnostics::Finding;
use crate::source::SourceFile;
use crate::table::{ordering_tokens, SymbolTable};

const HELP: &str = "add `// lint-ok(ordering-justified): <why this ordering is sufficient>` \
on or directly above the line";

/// Flags the first `Ordering::<variant>` token of each line of `file`
/// (`compare_exchange(.., Relaxed, Relaxed)` is one decision, not two),
/// unless the symbol table proves it an access to a pure `Relaxed` counter.
/// `idx` is the file's index in the slice `table` was built from.
pub(crate) fn ordering_justified(
    file: &SourceFile,
    idx: usize,
    table: &SymbolTable,
    out: &mut Vec<Finding>,
) {
    let mut last_line = 0;
    for (tok, variant) in ordering_tokens(&file.tokens) {
        if tok.line == last_line {
            continue;
        }
        last_line = tok.line;
        if !table
            .exempt_ordering_tokens
            .contains(&(idx, tok.line, tok.col))
        {
            emit(
                file,
                "ordering-justified",
                (tok.line, tok.col + 1, "Ordering::".len() + variant.len()),
                format!("`Ordering::{variant}` without a justification comment"),
                HELP,
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::from_source("src/lib.rs".into(), true, src);
        let mut out = Vec::new();
        ordering_justified(&file, 0, &SymbolTable::default(), &mut out);
        out
    }

    #[test]
    fn bare_ordering_is_flagged() {
        let out = run("fn f(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Ordering::Relaxed"));
    }

    #[test]
    fn justified_ordering_passes() {
        let src = "// lint-ok(ordering-justified): independent counter, no data published\nfn f(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn one_finding_per_line_for_compare_exchange() {
        let out =
            run("fn f(a: &AtomicU64) { a.compare_exchange(0, 1, Ordering::SeqCst, Ordering::SeqCst); }\n");
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn full_path_form_is_caught() {
        let out = run("fn f(a: &AtomicU64) { a.load(std::sync::atomic::Ordering::Acquire); }\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Acquire"));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicU64) { a.load(Ordering::Relaxed); }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn unrelated_ordering_enum_paths_do_not_match() {
        assert!(run("fn f() { let x = cmp::Ordering::Less; }\n").is_empty());
    }
}
