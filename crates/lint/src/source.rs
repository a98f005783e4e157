//! Per-file analysis model: the file's tokens, the test-region map and
//! `// lint-ok(<rule>): <reason>` allowlist attachment.

use crate::lexer::{body, lex, seq, Kind, Token};
use std::ops::RangeInclusive;

/// One `lint-ok` allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule id being allowed.
    pub rule: String,
    /// The justification after the colon (always non-empty; entries with an
    /// empty reason are reported as findings instead of honored).
    pub reason: String,
    /// 1-based line of the comment itself.
    pub comment_line: usize,
    /// The 1-based code lines the comment governs.
    pub lines: RangeInclusive<usize>,
}

/// A source file prepared for rule checks.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the lint root, with `/` separators (for reports).
    pub rel: String,
    /// Part of a library target (`src/**` minus `src/main.rs` and
    /// `src/bin/**`), as opposed to a binary, bench or example.
    pub lib: bool,
    /// Original source lines (for diagnostics snippets).
    pub lines: Vec<String>,
    /// The file's tokens, in source order (see [`lex`]).
    pub tokens: Vec<Token>,
    /// `is_test[i]` is true when 0-based line `i` is inside `#[cfg(test)]`
    /// / `#[test]` / `#[bench]` scope.
    pub is_test: Vec<bool>,
    /// Well-formed allowlist entries, one per comment line and rule.
    pub allows: Vec<Allow>,
    /// `lint-ok` comments with an empty reason (reported, never honored).
    pub malformed_allows: Vec<usize>,
}

impl SourceFile {
    /// Builds the model of the file `rel` from its source text.
    pub fn from_source(rel: String, lib: bool, src: &str) -> SourceFile {
        let (tokens, comments) = lex(src);
        let lines: Vec<String> = src.lines().map(str::to_string).collect();
        let mut file = SourceFile {
            rel,
            lib,
            is_test: mark_test_regions(&tokens, lines.len()),
            lines,
            tokens,
            allows: Vec::new(),
            malformed_allows: Vec::new(),
        };
        attach_allows(&mut file, &comments);
        file
    }

    /// Looks up the allow entry for `rule` on 1-based line `line`, if any.
    pub fn allow_for(&self, line: usize, rule: &str) -> Option<&Allow> {
        self.allows
            .iter()
            .find(|a| a.rule == rule && a.lines.contains(&line))
    }

    /// `true` when 1-based `line` is inside test-only code.
    pub fn is_test_line(&self, line: usize) -> bool {
        line.checked_sub(1)
            .and_then(|i| self.is_test.get(i).copied())
            .unwrap_or(false)
    }
}

/// Marks every line covered by a `#[cfg(test)]`-gated item, `#[test]` fn or
/// `#[bench]` fn: from the attribute past any further attributes to the
/// item's `{` and through its paired `}` (or to a `;` for an out-of-line
/// `mod tests;`).
fn mark_test_regions(tokens: &[Token], lines: usize) -> Vec<bool> {
    let mut is_test = vec![false; lines];
    let mut i = 0usize;
    while i < tokens.len() {
        if !seq(tokens, i, &["#", "["]) {
            i += 1;
            continue;
        }
        if !is_test_attr(tokens, i + 1) {
            i = tokens[i + 1].close + 1;
            continue;
        }
        let mut item = tokens[i + 1].close + 1;
        while seq(tokens, item, &["#", "["]) {
            item = tokens[item + 1].close + 1;
        }
        // The item ends at its body's `}`, or at a `;` when it has none.
        let semi = (item..tokens.len()).find(|&q| tokens[q].is(";"));
        let end = match body(tokens, item) {
            Some(open) => tokens[open].close,
            None => semi.unwrap_or(tokens.len()),
        };
        let last = tokens.get(end).map_or(lines, |t| t.line);
        for flag in is_test.iter_mut().take(last).skip(tokens[i].line - 1) {
            *flag = true;
        }
        i = end + 1;
    }
    is_test
}

/// `true` when the attribute whose `[` is `tokens[open]` gates test-only
/// code: `test`, `bench`, or `cfg(..)` whose condition names `test`
/// outside `not(..)`.
fn is_test_attr(tokens: &[Token], open: usize) -> bool {
    let close = tokens[open].close;
    match &tokens[open + 1..close.min(tokens.len())] {
        [t] => t.is("test") || t.is("bench"),
        [t, p, ..] if t.is("test") && p.is("(") => true,
        [t, p, ..] if t.is("cfg") && p.is("(") => {
            let mut k = open + 3;
            while k < close && !tokens[k].is("test") {
                let negated = seq(tokens, k, &["not", "("]).then(|| tokens[k + 1].close);
                k = negated.unwrap_or(k) + 1;
            }
            k < close
        }
        _ => false,
    }
}

/// Parses `lint-ok(<rule>): <reason>` occurrences out of `text`. Doc
/// comments (`///`, `//!`, `/**`, `/*!`) never carry allows — they document
/// the syntax, they don't use it. Rule ids are restricted to
/// `[a-z0-9-]`, so placeholder spellings like `lint-ok(<rule>)` in prose
/// are ignored rather than reported.
fn parse_lint_ok(text: &str) -> Vec<(String, String)> {
    if ["///", "//!", "/**", "/*!"]
        .iter()
        .any(|doc| text.starts_with(doc))
    {
        return Vec::new();
    }
    // Each allow runs to the end of the comment or the next `lint-ok(`
    // marker (stacked allows in one comment).
    let allow = |marked: &str| {
        let (rule, rest) = marked.split_once(')')?;
        let rule = rule.trim();
        let id_char = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-';
        if rule.is_empty() || !rule.chars().all(id_char) {
            return None;
        }
        let reason = rest
            .strip_prefix(':')
            .map_or("", |r| r.trim().trim_end_matches(';').trim());
        Some((rule.to_string(), reason.to_string()))
    };
    text.split("lint-ok(").skip(1).filter_map(allow).collect()
}

/// Attaches each `lint-ok` comment to the code lines it governs: the same
/// line for trailing comments; for own-line comments, the following
/// *statement* — from the next non-blank code line through the first line
/// whose code ends in `;`, `{` or `}` — so one comment covers a multi-line
/// expression (a `fetch_update` chain, a builder pipeline) the way an
/// attribute-style allow scopes to the statement under it. A comment that
/// governs no code line is not an allow.
fn attach_allows(file: &mut SourceFile, comments: &[Token]) {
    // The last char of each 1-based line's last code token; a line holding
    // only comments or literals is blank.
    let mut ends: Vec<Option<char>> = vec![None; file.lines.len() + 1];
    for t in file.tokens.iter().filter(|t| t.kind != Kind::Literal) {
        ends[t.line] = t.text.chars().last();
    }
    for comment in comments {
        let entries = parse_lint_ok(&comment.text);
        if entries.is_empty() {
            continue;
        }
        let lines = match ends[comment.line] {
            Some(_) => Some(comment.line..=comment.line),
            None => statement_after(&ends, comment.line),
        };
        for (rule, reason) in entries {
            if reason.is_empty() {
                file.malformed_allows.push(comment.line);
                continue;
            }
            let Some(lines) = lines.clone() else { continue };
            let seen = file
                .allows
                .iter()
                .any(|a| a.comment_line == comment.line && a.rule == rule);
            if !seen {
                file.allows.push(Allow {
                    rule,
                    reason,
                    comment_line: comment.line,
                    lines,
                });
            }
        }
    }
}

/// The statement starting at the first non-blank line after `line`: through
/// the first line whose code ends in `;`, `{` or `}`, stopping short of a
/// blank line. `ends` is [`attach_allows`]' per-line last char.
fn statement_after(ends: &[Option<char>], line: usize) -> Option<RangeInclusive<usize>> {
    let start = (line + 1..ends.len()).find(|&l| ends[l].is_some())?;
    let mut end = start;
    while !matches!(ends[end], Some(';' | '{' | '}'))
        && ends.get(end + 1).is_some_and(Option::is_some)
    {
        end += 1;
    }
    Some(start..=end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_source("mem.rs".into(), true, src)
    }

    #[test]
    fn cfg_test_module_lines_are_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn tail() {}\n";
        let f = file(src);
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(3));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let f = file("#[cfg(not(test))]\nfn live() { body(); }\n");
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn cfg_all_loom_test_is_a_test_region() {
        let f = file("#[cfg(all(loom, test))]\nmod loom_tests {\n    fn t() {}\n}\n");
        assert!(f.is_test_line(3));
    }

    #[test]
    fn test_attr_fn_is_marked_even_outside_mod() {
        let f = file("#[test]\nfn check() {\n    boom();\n}\nfn lib() {}\n");
        assert!(f.is_test_line(3));
        assert!(!f.is_test_line(5));
    }

    #[test]
    fn trailing_allow_attaches_to_its_own_line() {
        let f = file("let v = Vec::new(); // lint-ok(no-alloc-in-kernel): setup: sized once\n");
        let allow = f.allow_for(1, "no-alloc-in-kernel").unwrap();
        assert_eq!(allow.reason, "setup: sized once");
    }

    #[test]
    fn own_line_allow_attaches_to_next_code_line() {
        let src = "// lint-ok(ordering-justified): independent counter\n// more prose\nc.fetch_add(1, Ordering::Relaxed);\n";
        let f = file(src);
        assert!(f.allow_for(3, "ordering-justified").is_some());
        assert!(f.allow_for(1, "ordering-justified").is_none());
    }

    #[test]
    fn own_line_allow_covers_the_whole_statement() {
        let src = "// lint-ok(ordering-justified): one decision\nlet _ = s\n    .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);\nnext();\n";
        let f = file(src);
        assert_eq!(f.allows[0].lines, 2..=3);
        assert!(f.allow_for(4, "ordering-justified").is_none());
    }

    #[test]
    fn allow_without_reason_is_malformed_and_not_honored() {
        let f = file("x.clone(); // lint-ok(no-alloc-in-kernel)\n");
        assert!(f.allow_for(1, "no-alloc-in-kernel").is_none());
        assert_eq!(f.malformed_allows, vec![1]);
    }

    #[test]
    fn two_allows_in_one_comment() {
        let f = file(
            "s.store(v.clone(), Ordering::Release); // lint-ok(atomic-protocol): probe lint-ok(no-alloc-in-kernel): also fine\n",
        );
        assert_eq!(f.allow_for(1, "atomic-protocol").unwrap().reason, "probe");
        assert_eq!(
            f.allow_for(1, "no-alloc-in-kernel").unwrap().reason,
            "also fine"
        );
    }
}
