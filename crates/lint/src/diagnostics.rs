//! Finding type plus the rustc-style text renderer and the JSON report.

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

/// Serializes the report as one JSON object (no external deps; same
/// hand-rolled style as the `adv-obs` exporters).
pub fn render_json(
    findings: &[Finding],
    files_checked: usize,
    skipped: usize,
    allows: usize,
) -> String {
    let mut out = String::from("{\"version\":1,\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":{},\"path\":{},\"line\":{},\"column\":{},\"message\":{},\"help\":{}}}",
            json_string(f.rule),
            json_string(&f.path),
            f.line,
            f.column,
            json_string(&f.message),
            json_string(&f.help),
        );
    }
    let _ = write!(
        out,
        "],\"summary\":{{\"files_checked\":{},\"skipped\":{},\"findings\":{},\"allows\":{}}}}}",
        files_checked,
        skipped,
        findings.len(),
        allows
    );
    out
}

/// JSON-escapes and quotes a string.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
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

    #[test]
    fn json_report_shape() {
        let json = render_json(&[sample()], 7, 2, 3);
        assert!(json.contains("\"version\":1"), "{json}");
        assert!(json.contains("\"rule\":\"ordering-justified\""), "{json}");
        assert!(json.contains("\"line\":42"), "{json}");
        assert!(
            json.contains(
                "\"summary\":{\"files_checked\":7,\"skipped\":2,\"findings\":1,\"allows\":3}"
            ),
            "{json}"
        );
    }

    #[test]
    fn empty_report_is_valid() {
        let json = render_json(&[], 0, 0, 0);
        assert!(json.starts_with("{\"version\":1,\"findings\":[]"), "{json}");
    }
}
