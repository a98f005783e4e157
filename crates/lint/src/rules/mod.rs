//! The rule engine: a [`Rule`] trait, the built-in rule set, and shared
//! token-scanning helpers over scrubbed source.

mod error_types;
mod ordering;
pub mod ws;

pub use error_types::CrateErrorTypes;
pub use ordering::OrderingJustified;
pub use ws::{check_workspace, WsCtx, WS_RULES};

use crate::diagnostics::Finding;
use crate::lexer::is_ident_char;
use crate::source::SourceFile;

/// One invariant check. Rules scan scrubbed code (comments and literal
/// bodies blanked), skip test regions, and honor `lint-ok` allowlists via
/// [`emit`].
pub trait Rule {
    /// Stable rule id used in diagnostics and `lint-ok(<id>)` comments.
    fn id(&self) -> &'static str;
    /// One-line description for `adv-lint rules`.
    fn summary(&self) -> &'static str;
    /// Scans `file`, pushing violations into `out`.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// The built-in per-file rule set, in reporting order. The workspace-wide
/// pass-2 rules live in [`ws`] and are listed in [`WS_RULES`].
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![Box::new(OrderingJustified), Box::new(CrateErrorTypes)]
}

/// Every rule id the engine knows — per-file, workspace-wide, and the
/// engine-level `lint-debt` check — so `lint-ok(<rule>)` comments naming
/// any of them are well-formed.
pub fn all_rule_ids() -> Vec<&'static str> {
    let mut ids: Vec<&'static str> = all_rules().iter().map(|r| r.id()).collect();
    ids.extend(WS_RULES.iter().map(|(id, _)| *id));
    ids
}

/// A raw match produced by a rule before allowlist/test filtering.
#[derive(Debug, Clone)]
pub struct RawMatch {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub column: usize,
    /// Token run length for the caret underline.
    pub width: usize,
    /// Violation message.
    pub message: String,
}

/// Filters a raw match through the test-region map and the per-line
/// allowlist, emitting a [`Finding`] when it survives.
pub fn emit(
    rule: &'static str,
    help: &str,
    file: &SourceFile,
    m: RawMatch,
    out: &mut Vec<Finding>,
) {
    if file.is_test_line(m.line) {
        return;
    }
    if file.allow_for(m.line, rule).is_some() {
        return;
    }
    out.push(Finding {
        rule,
        path: file.rel.clone(),
        line: m.line,
        column: m.column,
        width: m.width,
        message: m.message,
        snippet: file.lines.get(m.line - 1).cloned().unwrap_or_default(),
        help: help.to_string(),
    });
}

/// Finds every occurrence of identifier `word` (word-boundary match) in a
/// scrubbed line, returning 0-based character columns.
pub fn find_word(line: &str, word: &str) -> Vec<usize> {
    let chars: Vec<char> = line.chars().collect();
    let needle: Vec<char> = word.chars().collect();
    let mut out = Vec::new();
    if needle.is_empty() || chars.len() < needle.len() {
        return out;
    }
    for start in 0..=chars.len() - needle.len() {
        if chars[start..start + needle.len()] != needle[..] {
            continue;
        }
        let before_ok = start == 0 || !is_ident_char(chars[start - 1]);
        let after = start + needle.len();
        let after_ok = after >= chars.len() || !is_ident_char(chars[after]);
        if before_ok && after_ok {
            out.push(start);
        }
    }
    out
}

/// After `start` (0-based char index), skips whitespace and returns the
/// index of the next non-whitespace char, if any.
pub fn skip_ws(chars: &[char], mut start: usize) -> Option<usize> {
    while start < chars.len() {
        if !chars[start].is_whitespace() {
            return Some(start);
        }
        start += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_word_boundaries() {
        assert_eq!(find_word("panic! and panics", "panic"), vec![0]);
        assert_eq!(find_word("Ordering::Relaxed", "Ordering"), vec![0]);
        assert!(find_word("Reordering::X", "Ordering").is_empty());
        assert_eq!(find_word("a Instant b Instant", "Instant"), vec![2, 12]);
    }
}
