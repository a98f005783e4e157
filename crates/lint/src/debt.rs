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
use crate::lexer::{lex, seq, Kind, Token};
use std::collections::BTreeMap;
use std::path::Path;

/// File name of the committed baseline at the workspace root.
pub const DEBT_FILE: &str = "lint_debt.json";

/// Parses the baseline's flat `{"rule": count, ...}` object: each
/// `"key": <number>` token run is an entry. Unparseable entries are
/// skipped — a malformed baseline then under-reports, and the growth check
/// fails loudly rather than silently passing.
fn parse_baseline(text: &str) -> BTreeMap<String, usize> {
    let (tokens, _) = lex(text);
    let entry = |w: &[Token]| {
        let key = w[0].text.strip_prefix('"')?.strip_suffix('"')?;
        let count = w[2].text.parse().ok()?;
        (w[1].is(":") && !key.is_empty()).then(|| (key.to_string(), count))
    };
    tokens.windows(3).filter_map(entry).collect()
}

/// Counts the clippy lints named by `#[expect(..)]` / `#![expect(..)]`
/// attributes in `tokens`, one per lint per attribute, keyed
/// `clippy::<lint>`. A `reason` string is one literal token, so it cannot
/// add or hide a lint name.
pub fn count_clippy_expects(tokens: &[Token], counts: &mut BTreeMap<String, usize>) {
    for at in (2..tokens.len()).filter(|&at| seq(tokens, at, &["expect", "("])) {
        let attr =
            seq(tokens, at - 2, &["#", "["]) || (at >= 3 && seq(tokens, at - 3, &["#", "!", "["]));
        if !attr {
            continue;
        }
        let args = &tokens[at + 2..tokens[at + 1].close];
        for k in 0..args.len() {
            let arg_start = k == 0 || args[k - 1].is(",");
            if arg_start && seq(args, k, &["clippy", "::"]) {
                if let Some(lint) = args.get(k + 2).filter(|l| l.kind == Kind::Word) {
                    *counts.entry(format!("clippy::{}", lint.text)).or_insert(0) += 1;
                }
            }
        }
    }
}

/// Renders live counts as the baseline file's content (sorted, one rule
/// per line, so diffs are reviewable).
pub fn render_baseline(counts: &BTreeMap<String, usize>) -> String {
    let entries: Vec<String> = counts
        .iter()
        .filter(|(_, n)| **n > 0)
        .map(|(rule, n)| format!("  \"{rule}\": {n}"))
        .collect();
    format!("{{\n{}\n}}\n", entries.join(",\n"))
}

/// Compares live counts against the baseline, emitting one `lint-debt`
/// finding per rule whose suppression count grew.
pub fn check_debt(root: &Path, live: &BTreeMap<String, usize>, out: &mut Vec<Finding>) {
    // Fixture workspaces and fresh checkouts have no baseline and are not
    // debt-enforced.
    let Ok(text) = std::fs::read_to_string(root.join(DEBT_FILE)) else {
        return;
    };
    let baseline = parse_baseline(&text);
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
        count_clippy_expects(&lex(&code).0, &mut live);
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
        count_clippy_expects(&lex(code).0, &mut counts);
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
