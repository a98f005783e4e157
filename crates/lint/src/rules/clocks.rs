//! `gated-clocks`: wall-clock reads in library code must be gated or
//! justified.
//!
//! `Instant::now()` is cheap but not free (a `clock_gettime` vsyscall), and
//! a clock read on a per-sample hot path is exactly the overhead the
//! `ADV_OBS=off` contract promises not to pay. Library code may only read
//! clocks behind the observability level (`adv_profile::enabled()`, which
//! every `StageScope`/`KernelScope` checks, or `adv_obs::metrics_enabled()`)
//! or where timing *is* the feature (the serving engine's latency
//! accounting, batch deadlines) — and each such site says so via
//! `// lint-ok(gated-clocks): <reason>`.
//!
//! Entrypoint targets are covered too, in *every* crate: binaries and
//! examples must justify each clock read the same way (probes measure wall
//! clock on purpose — the comment says which purpose), while benches get
//! `Instant` for free (manual timing loops are what a bench *is*) but
//! still must justify `SystemTime` — a wall-clock date in a bench is
//! nondeterminism, not measurement.

use super::{emit, find_word, skip_ws, FileCtx, RawMatch, Rule};
use crate::diagnostics::Finding;
use crate::source::{FileKind, SourceFile};

const CLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];

const HELP: &str = "move the read behind an `adv_obs` gate, or justify with \
`// lint-ok(gated-clocks): <why this clock read is part of the feature>`";

/// See module docs.
#[derive(Debug)]
pub struct GatedClocks;

impl Rule for GatedClocks {
    fn id(&self) -> &'static str {
        "gated-clocks"
    }

    fn summary(&self) -> &'static str {
        "`Instant::now` / `SystemTime::now` only behind an obs gate or with \
         an explicit justification (benches may read `Instant` freely)"
    }

    fn applies(&self, _ctx: &FileCtx<'_>) -> bool {
        // Library scope is gated per crate inside `check`; entrypoint
        // targets are covered in every crate.
        true
    }

    fn check(&self, file: &SourceFile, ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
        if file.kind == FileKind::Lib
            && !ctx.config.clock_crates.iter().any(|c| c == ctx.crate_name)
        {
            return;
        }
        for (idx, line) in file.code.iter().enumerate() {
            let lineno = idx + 1;
            let chars: Vec<char> = line.chars().collect();
            for ty in CLOCK_TYPES {
                // Manual timing loops are a bench's purpose; only wall-clock
                // dates are suspect there.
                if file.kind == FileKind::Bench && *ty == "Instant" {
                    continue;
                }
                for col in find_word(line, ty) {
                    // Expect `::now` after the type name.
                    let Some(c1) = skip_ws(&chars, col + ty.len()) else {
                        continue;
                    };
                    if chars.get(c1) != Some(&':') || chars.get(c1 + 1) != Some(&':') {
                        continue;
                    }
                    let Some(n0) = skip_ws(&chars, c1 + 2) else {
                        continue;
                    };
                    let ident: String = chars[n0..]
                        .iter()
                        .take_while(|c| crate::lexer::is_ident_char(**c))
                        .collect();
                    if ident != "now" {
                        continue;
                    }
                    emit(
                        self.id(),
                        HELP,
                        file,
                        RawMatch {
                            line: lineno,
                            column: col + 1,
                            width: ty.len() + 5,
                            message: format!(
                                "`{ty}::now` clock read without a gate or justification"
                            ),
                        },
                        out,
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::LintConfig;
    use std::path::PathBuf;

    fn run_kind(src: &str, kind: FileKind) -> Vec<Finding> {
        let file = SourceFile::from_source(PathBuf::from("mem.rs"), "src/lib.rs".into(), kind, src);
        let config = LintConfig {
            clock_crates: vec!["core-crate".into()],
            ..LintConfig::empty()
        };
        let ctx = FileCtx {
            crate_name: "core-crate",
            config: &config,
        };
        let mut out = Vec::new();
        if GatedClocks.applies(&ctx) {
            GatedClocks.check(&file, &ctx, &mut out);
        }
        out
    }

    #[test]
    fn bare_instant_now_is_flagged() {
        let out = run_kind("fn f() { let t = Instant::now(); }\n", FileKind::Lib);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Instant::now"));
    }

    #[test]
    fn justified_clock_read_passes() {
        let src = "fn f() {\n    // lint-ok(gated-clocks): latency accounting is the serving API\n    let t = Instant::now();\n}\n";
        assert!(run_kind(src, FileKind::Lib).is_empty());
    }

    #[test]
    fn system_time_now_is_flagged() {
        let out = run_kind("fn f() { SystemTime::now(); }\n", FileKind::Lib);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn binaries_and_examples_need_justification_too() {
        for kind in [FileKind::Bin, FileKind::Example] {
            let out = run_kind("fn main() { Instant::now(); }\n", kind);
            assert_eq!(out.len(), 1, "{kind:?}: {out:?}");
        }
        let src = "fn main() {\n    // lint-ok(gated-clocks): probe measures end-to-end latency\n    Instant::now();\n}\n";
        assert!(run_kind(src, FileKind::Bin).is_empty());
    }

    #[test]
    fn benches_get_instant_free_but_not_system_time() {
        assert!(run_kind("fn b() { Instant::now(); }\n", FileKind::Bench).is_empty());
        let out = run_kind("fn b() { SystemTime::now(); }\n", FileKind::Bench);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn entrypoints_are_covered_in_unlisted_crates() {
        let file = SourceFile::from_source(
            PathBuf::from("mem.rs"),
            "src/bin/probe.rs".into(),
            FileKind::Bin,
            "fn main() { Instant::now(); }\n",
        );
        let config = LintConfig::empty();
        let ctx = FileCtx {
            crate_name: "not-a-clock-crate",
            config: &config,
        };
        let mut out = Vec::new();
        assert!(GatedClocks.applies(&ctx));
        GatedClocks.check(&file, &ctx, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
    }

    #[test]
    fn instant_method_calls_are_not_flagged() {
        assert!(run_kind("fn f(t: Instant) { t.elapsed(); }\n", FileKind::Lib).is_empty());
    }
}
