//! Finding type plus the rustc-style text renderer.

use std::fmt::Write as _;

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id, e.g. `ordering-justified`.
    pub rule: &'static str,
    /// Path relative to the lint root (`/`-separated).
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column (character offset).
    pub column: usize,
    /// Length of the offending token run (for the caret underline).
    pub width: usize,
    /// Human-readable description of the violation.
    pub message: String,
    /// The original source line, for the diagnostic snippet.
    pub snippet: String,
    /// Actionable fix hint.
    pub help: String,
}

/// Renders findings in a rustc-like format:
///
/// ```text
/// error[ordering-justified]: `Ordering::Relaxed` without a justification comment
///   --> crates/serve/src/engine.rs:42:24
///    |
/// 42 |         let x = c.load(Ordering::Relaxed);
///    |                        ^^^^^^^^^^^^^^^^^
///    = help: add `// lint-ok(ordering-justified): <why this ordering is sufficient>`
/// ```
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "error[{}]: {}", f.rule, f.message);
        let _ = writeln!(out, "  --> {}:{}:{}", f.path, f.line, f.column);
        let line_no = f.line.to_string();
        let gutter = " ".repeat(line_no.len());
        let _ = writeln!(out, "{gutter} |");
        let _ = writeln!(out, "{line_no} | {}", f.snippet);
        let caret_pad: String = f
            .snippet
            .chars()
            .take(f.column.saturating_sub(1))
            .map(|c| if c == '\t' { '\t' } else { ' ' })
            .collect();
        let _ = writeln!(out, "{gutter} | {caret_pad}{}", "^".repeat(f.width.max(1)));
        let _ = writeln!(out, "{gutter} = help: {}", f.help);
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            rule: "ordering-justified",
            path: "crates/x/src/lib.rs".into(),
            line: 42,
            column: 24,
            width: 17,
            message: "`Ordering::Relaxed` without a justification comment".into(),
            snippet: "        let x = c.load(Ordering::Relaxed);".into(),
            help: "justify the ordering".into(),
        }
    }

    #[test]
    fn text_format_has_location_snippet_and_caret() {
        let text = render_text(&[sample()]);
        assert!(text.contains("error[ordering-justified]:"), "{text}");
        assert!(text.contains("--> crates/x/src/lib.rs:42:24"), "{text}");
        assert!(
            text.contains("42 |         let x = c.load(Ordering::Relaxed);"),
            "{text}"
        );
        assert!(text.contains(&"^".repeat(17)), "{text}");
        // Caret column lines up under `Ordering`.
        let caret_line = text.lines().find(|l| l.contains('^')).unwrap();
        assert_eq!(caret_line.find('^').unwrap(), " | ".len() + 2 + 23);
    }
}
