//! Suppression-debt baseline: `lint_debt.json`.
//!
//! Every `// lint-ok(<rule>): <reason>` and every
//! `#[expect(clippy::<lint>, reason = "..")]` is technical debt — justified,
//! but debt. The committed `lint_debt.json` at the workspace root records
//! how much of it the team has consciously accepted, per rule (clippy
//! lints keyed by their full `clippy::<lint>` path). A check run
//! compares the live per-rule allow counts against the baseline and fails
//! (`lint-debt` findings) when any rule's count *grew*: new suppressions
//! require either fixing the site or deliberately updating the baseline
//! with `adv-lint debt --write` — a diff a reviewer will see. Counts
//! shrinking is progress and never fails; refresh the baseline to ratchet
//! it down.

use crate::diagnostics::Finding;
use crate::lexer::is_ident_char;
use crate::source::{skip_ws, words};
use std::collections::BTreeMap;
use std::path::Path;

/// File name of the committed baseline at the workspace root.
pub const DEBT_FILE: &str = "lint_debt.json";

/// Reads the committed baseline. `None` when no `lint_debt.json` exists
/// (fixture workspaces and fresh checkouts are not debt-enforced).
pub fn load_baseline(root: &Path) -> Option<BTreeMap<String, usize>> {
    let text = std::fs::read_to_string(root.join(DEBT_FILE)).ok()?;
    Some(parse_baseline(&text))
}

/// Parses the baseline's flat `{"rule": count, ...}` object. Unparseable
/// entries are skipped — a malformed baseline then under-reports, and the
/// growth check fails loudly rather than silently passing.
fn parse_baseline(text: &str) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    // Flat object: split on '"' to get keys, read the number after the ':'.
    let mut rest = text;
    while let Some(q0) = rest.find('"') {
        rest = &rest[q0 + 1..];
        let Some(q1) = rest.find('"') else { break };
        let key = &rest[..q1];
        rest = &rest[q1 + 1..];
        let Some(colon) = rest.find(':') else { break };
        let after = rest[colon + 1..].trim_start();
        let digits: String = after.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(n) = digits.parse::<usize>() {
            if !key.is_empty() {
                out.insert(key.to_string(), n);
            }
        }
        rest = &rest[colon + 1..];
    }
    out
}

/// Counts the clippy lints named by `#[expect(..)]` / `#![expect(..)]`
/// attributes in scrubbed `code`, one per lint per attribute, keyed
/// `clippy::<lint>`. Literal bodies are blanked in scrubbed code, so a
/// `reason` string cannot add or hide a lint name.
pub fn count_clippy_expects(code: &[char], counts: &mut BTreeMap<String, usize>) {
    for at in words(code, "expect") {
        let open = skip_ws(code, (0..at).rev()).filter(|&o| code[o] == '[');
        let is_attr =
            open.is_some_and(|o| code[..o].ends_with(&['#']) || code[..o].ends_with(&['#', '!']));
        if !is_attr || code.get(at + "expect".len()) != Some(&'(') {
            continue;
        }
        let args: String = code[at + "expect(".len()..]
            .iter()
            .take_while(|&&c| c != ')')
            .collect();
        for arg in args.split(',') {
            if let Some(lint) = arg.trim().strip_prefix("clippy::") {
                let name: String = lint.chars().take_while(|&c| is_ident_char(c)).collect();
                *counts.entry(format!("clippy::{name}")).or_insert(0) += 1;
            }
        }
    }
}

/// Renders live counts as the baseline file's content (sorted, one rule
/// per line, so diffs are reviewable).
pub fn render_baseline(counts: &BTreeMap<String, usize>) -> String {
    let mut out = String::from("{\n");
    let entries: Vec<String> = counts
        .iter()
        .filter(|(_, n)| **n > 0)
        .map(|(rule, n)| format!("  \"{rule}\": {n}"))
        .collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n}\n");
    out
}

/// Compares live counts against the baseline, emitting one `lint-debt`
/// finding per rule whose suppression count grew.
pub fn check_debt(root: &Path, live: &BTreeMap<String, usize>, out: &mut Vec<Finding>) {
    let Some(baseline) = load_baseline(root) else {
        return;
    };
    for (rule, &count) in live {
        let allowed = baseline.get(rule).copied().unwrap_or(0);
        if count > allowed {
            out.push(Finding {
                rule: "lint-debt",
                path: DEBT_FILE.to_string(),
                line: 1,
                column: 1,
                width: 1,
                message: format!(
                    "`{rule}` suppression count grew to {count} (baseline {allowed}) — \
                     suppression debt increased without a baseline update"
                ),
                snippet: String::new(),
                help: "fix the newly suppressed sites, or consciously accept the debt \
                       with `cargo run -p adv-lint -- debt --write` and commit the diff"
                    .to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_roundtrip() {
        let mut counts = BTreeMap::new();
        counts.insert("ordering-justified".to_string(), 40);
        counts.insert("clippy::disallowed_methods".to_string(), 28);
        counts.insert("never-used".to_string(), 0);
        let text = render_baseline(&counts);
        let parsed = parse_baseline(&text);
        assert_eq!(parsed.get("ordering-justified"), Some(&40));
        assert_eq!(parsed.get("clippy::disallowed_methods"), Some(&28));
        assert_eq!(parsed.get("never-used"), None, "zero entries are dropped");
    }

    #[test]
    fn growth_is_a_finding_shrink_is_not() {
        let dir = std::env::temp_dir().join("adv-lint-debt-test");
        let _ = std::fs::create_dir_all(&dir);
        std::fs::write(
            dir.join(DEBT_FILE),
            "{\n  \"clippy::disallowed_methods\": 5,\n  \"ordering-justified\": 3\n}\n",
        )
        .expect("temp baseline must be writable");
        let mut live = BTreeMap::new();
        live.insert("ordering-justified".to_string(), 2);
        let code = "#[expect(clippy::disallowed_methods, reason = \"   \")]\n".repeat(6);
        count_clippy_expects(&code.chars().collect::<Vec<_>>(), &mut live);
        let mut out = Vec::new();
        check_debt(&dir, &live, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("clippy::disallowed_methods"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn expect_attributes_count_once_per_clippy_lint() {
        let code = "#![expect(clippy::panic, reason = \"       \")]\n\
                    #[expect(\n    clippy::too_many_arguments,\n    clippy::expect_used,\n)]\n\
                    #[expect(dead_code, reason = \"  \")]\n\
                    let x = y.expect(\"     \");\n";
        let mut counts = BTreeMap::new();
        count_clippy_expects(&code.chars().collect::<Vec<_>>(), &mut counts);
        let keys: Vec<(&str, usize)> = counts.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(
            keys,
            vec![
                ("clippy::expect_used", 1),
                ("clippy::panic", 1),
                ("clippy::too_many_arguments", 1),
            ]
        );
    }

    #[test]
    fn missing_baseline_is_not_enforced() {
        let mut live = BTreeMap::new();
        live.insert("x".to_string(), 100);
        let mut out = Vec::new();
        check_debt(Path::new("/nonexistent-debt-root"), &live, &mut out);
        assert!(out.is_empty());
    }
}
