//! `ordering-justified`: every atomic memory-ordering choice must carry a
//! written rationale.
//!
//! A bare `Ordering::Relaxed` is the single easiest way to ship a data race
//! that only shows up under load on weaker hardware; a bare `SeqCst` is the
//! single easiest way to hide that nobody thought about it. The rule makes
//! the reasoning part of the code: each use site must be allowlisted with
//! `// lint-ok(ordering-justified): <why this ordering is sufficient>`,
//! which doubles as the audit trail for the serve/obs concurrency core.

use super::{emit, find_word, skip_ws, RawMatch, Rule};
use crate::diagnostics::Finding;
use crate::source::SourceFile;

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

const HELP: &str = "add `// lint-ok(ordering-justified): <why this ordering is sufficient>` \
on or directly above the line";

/// See module docs.
#[derive(Debug)]
pub struct OrderingJustified;

impl Rule for OrderingJustified {
    fn id(&self) -> &'static str {
        "ordering-justified"
    }

    fn summary(&self) -> &'static str {
        "every `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` use site \
         must carry a justification comment"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for (idx, line) in file.code.iter().enumerate() {
            let lineno = idx + 1;
            let chars: Vec<char> = line.chars().collect();
            let mut first: Option<(usize, &str)> = None;
            for col in find_word(line, "Ordering") {
                // Expect `:: <variant>` after the `Ordering` path segment.
                let Some(c1) = skip_ws(&chars, col + "Ordering".len()) else {
                    continue;
                };
                if chars.get(c1) != Some(&':') || chars.get(c1 + 1) != Some(&':') {
                    continue;
                }
                let Some(v0) = skip_ws(&chars, c1 + 2) else {
                    continue;
                };
                let variant: String = chars[v0..]
                    .iter()
                    .take_while(|c| crate::lexer::is_ident_char(**c))
                    .collect();
                if first.is_none() {
                    if let Some(&v) = ORDERINGS.iter().find(|o| **o == variant) {
                        first = Some((col, v));
                    }
                }
            }
            // One finding per line: `compare_exchange(.., Relaxed, Relaxed)`
            // is one decision, not two.
            if let Some((col, variant)) = first {
                emit(
                    self.id(),
                    HELP,
                    file,
                    RawMatch {
                        line: lineno,
                        column: col + 1,
                        width: "Ordering::".len() + variant.len(),
                        message: format!("`Ordering::{variant}` without a justification comment"),
                    },
                    out,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{FileKind, SourceFile};
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::from_source(
            PathBuf::from("mem.rs"),
            "src/lib.rs".into(),
            FileKind::Lib,
            src,
        );
        let mut out = Vec::new();
        OrderingJustified.check(&file, &mut out);
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
