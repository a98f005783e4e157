//! Per-file analysis model: the scrubbed text as one flat buffer with a
//! line index, the test-region map, `// lint-ok(<rule>): <reason>`
//! allowlist attachment, and the token-scanning helpers every rule and
//! collector shares.

use crate::lexer::{is_ident_char, scrub, Comment};
use crate::LintError;
use std::ops::RangeInclusive;
use std::path::Path;

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
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the lint root, with `/` separators (for reports).
    pub rel: String,
    /// Part of a library target (`src/**` minus `src/main.rs` and
    /// `src/bin/**`), as opposed to a binary, bench or example.
    pub lib: bool,
    /// Original source lines (for diagnostics snippets).
    pub lines: Vec<String>,
    /// The scrubbed text: comments and literal bodies blanked, position
    /// for position identical to the original (see [`scrub`]).
    pub code: Vec<char>,
    /// Offset in `code` of each line's first char.
    line_start: Vec<usize>,
    /// `is_test[i]` is true when 0-based line `i` is inside `#[cfg(test)]`
    /// / `#[test]` / `#[bench]` scope.
    pub is_test: Vec<bool>,
    /// Well-formed allowlist entries, one per comment line and rule.
    pub allows: Vec<Allow>,
    /// `lint-ok` comments with an empty reason (reported, never honored).
    pub malformed_allows: Vec<usize>,
}

impl SourceFile {
    /// Loads and prepares `path` for linting.
    ///
    /// # Errors
    ///
    /// Returns [`LintError::Io`] when the file cannot be read.
    pub fn load(path: &Path, rel: String, lib: bool) -> Result<SourceFile, LintError> {
        let src = std::fs::read_to_string(path).map_err(|e| LintError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(SourceFile::from_source(rel, lib, &src))
    }

    /// Builds the model from in-memory source (used by unit tests).
    pub fn from_source(rel: String, lib: bool, src: &str) -> SourceFile {
        let scrubbed = scrub(src);
        let code: Vec<char> = scrubbed.code.chars().collect();
        let line_start = std::iter::once(0)
            .chain((0..code.len()).filter(|&i| code[i] == '\n').map(|i| i + 1))
            .filter(|&s| s < code.len())
            .collect();
        let mut file = SourceFile {
            rel,
            lib,
            lines: src.lines().map(str::to_string).collect(),
            code,
            line_start,
            is_test: Vec::new(),
            allows: Vec::new(),
            malformed_allows: Vec::new(),
        };
        file.is_test = mark_test_regions(&file);
        attach_allows(&mut file, &scrubbed.comments);
        file
    }

    /// 1-based line of a `code` offset (offsets past the end map to the
    /// last line).
    pub(crate) fn line(&self, offset: usize) -> usize {
        self.line_start.partition_point(|&s| s <= offset).max(1)
    }

    /// 0-based column of a `code` offset.
    pub(crate) fn col(&self, offset: usize) -> usize {
        offset
            - self
                .line_start
                .get(self.line(offset) - 1)
                .copied()
                .unwrap_or(0)
    }

    /// The scrubbed text of 1-based `line`, without its newline.
    pub(crate) fn line_code(&self, line: usize) -> &[char] {
        let Some(&start) = line.checked_sub(1).and_then(|i| self.line_start.get(i)) else {
            return &[];
        };
        let len = self.code[start..].iter().position(|&c| c == '\n');
        &self.code[start..start + len.unwrap_or(self.code.len() - start)]
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

/// Offsets of every word-boundary occurrence of the identifier `word`
/// (non-empty) in `chars`.
pub(crate) fn words(chars: &[char], word: &str) -> Vec<usize> {
    let word: Vec<char> = word.chars().collect();
    let ident = |i: usize| chars.get(i).is_some_and(|&c| is_ident_char(c));
    chars
        .windows(word.len())
        .enumerate()
        .filter(|&(i, w)| w == word && !(i > 0 && ident(i - 1)) && !ident(i + word.len()))
        .map(|(i, _)| i)
        .collect()
}

/// The first offset walked by `from` whose char is not whitespace: pass
/// `i..` to skip forward from `i`, `(0..i).rev()` to skip back from it.
pub(crate) fn skip_ws(chars: &[char], from: impl IntoIterator<Item = usize>) -> Option<usize> {
    from.into_iter()
        .map_while(|i| Some((i, chars.get(i)?)))
        .find(|(_, c)| !c.is_whitespace())
        .map(|(i, _)| i)
}

/// The identifier starting at `start` (empty when none does).
pub(crate) fn ident_at(chars: &[char], start: usize) -> String {
    chars[start.min(chars.len())..]
        .iter()
        .take_while(|c| is_ident_char(**c))
        .collect()
}

/// Given an opening delimiter offset, returns the offset just past its
/// matching close (`()` / `{}` / `[]` / `<>` chosen by the char at `open`,
/// counting only that pair; the end of `chars` when unclosed).
pub(crate) fn delim_extent(chars: &[char], open: usize) -> usize {
    let (o, c) = match chars.get(open) {
        Some('(') => ('(', ')'),
        Some('{') => ('{', '}'),
        Some('[') => ('[', ']'),
        Some('<') => ('<', '>'),
        _ => return open + 1,
    };
    let mut depth = 0i32;
    for (i, &ch) in chars.iter().enumerate().skip(open) {
        if ch == o {
            depth += 1;
        } else if ch == c {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
    }
    chars.len()
}

/// Marks every line covered by a `#[cfg(test)]`-gated item, `#[test]` fn or
/// `#[bench]` fn. Detection is brace-based over scrubbed code: from the
/// attribute, scan to the item's opening `{` (or a `;` for an out-of-line
/// `mod tests;`, which marks only that line) and take the matching-brace
/// extent.
fn mark_test_regions(file: &SourceFile) -> Vec<bool> {
    let chars = &file.code;
    let mut is_test = vec![false; file.lines.len()];
    let mut i = 0usize;
    while i < chars.len() {
        // `#[ ... ]` — capture the attribute content.
        let open = (chars[i] == '#')
            .then(|| skip_ws(chars, i + 1..))
            .flatten()
            .filter(|&j| chars[j] == '[');
        let Some(open) = open else {
            i += 1;
            continue;
        };
        let k = delim_extent(chars, open);
        let attr: String = chars[open + 1..k.saturating_sub(1).max(open + 1)]
            .iter()
            .collect();
        if !is_test_attr(&attr) {
            i = k;
            continue;
        }
        // Scan past any further attributes to the item body.
        let mut p = k;
        while let Some(b) = skip_ws(chars, p..)
            .filter(|&q| chars[q] == '#')
            .and_then(|q| skip_ws(chars, q + 1..))
            .filter(|&b| chars[b] == '[')
        {
            p = delim_extent(chars, b);
        }
        // Find the item's `{` or a terminating `;` first.
        let end = match chars[p..].iter().position(|&c| c == '{' || c == ';') {
            Some(q) if chars[p + q] == '{' => delim_extent(chars, p + q),
            Some(q) => p + q,
            None => chars.len(),
        };
        for flag in is_test
            .iter_mut()
            .take(file.line(end))
            .skip(file.line(i) - 1)
        {
            *flag = true;
        }
        i = end.max(i + 1);
    }
    is_test
}

/// `true` for attributes that gate test-only code: `test`, `bench`,
/// `cfg(...)` whose condition mentions `test` as a token outside `not(..)`.
fn is_test_attr(attr: &str) -> bool {
    let attr = attr.trim();
    if attr == "test" || attr == "bench" || attr.starts_with("test(") {
        return true;
    }
    let Some(rest) = attr.strip_prefix("cfg") else {
        return false;
    };
    let Some(cond) = rest.trim_start().strip_prefix('(') else {
        return false;
    };
    // Drop everything inside `not(...)` groups, then look for a standalone
    // `test` token in what remains.
    let chars: Vec<char> = cond.chars().collect();
    let mut cleaned = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i..].starts_with(&['n', 'o', 't']) {
            if let Some(j) = skip_ws(&chars, i + 3..).filter(|&j| chars[j] == '(') {
                i = delim_extent(&chars, j);
                continue;
            }
        }
        cleaned.push(chars[i]);
        i += 1;
    }
    !words(&cleaned, "test").is_empty()
}

/// Parses `lint-ok(<rule>): <reason>` occurrences out of `text`. Doc
/// comments (`///`, `//!`, `/**`, `/*!`) never carry allows — they document
/// the syntax, they don't use it. Rule ids are restricted to
/// `[a-z0-9-]`, so placeholder spellings like `lint-ok(<rule>)` in prose
/// are ignored rather than reported.
fn parse_lint_ok(text: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    if text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
    {
        return out;
    }
    let mut rest = text;
    while let Some(pos) = rest.find("lint-ok(") {
        rest = &rest[pos + "lint-ok(".len()..];
        let Some(close) = rest.find(')') else { break };
        let rule = rest[..close].trim().to_string();
        rest = &rest[close + 1..];
        if !rule
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            continue;
        }
        let reason = match rest.strip_prefix(':') {
            Some(r) => {
                // Reason runs to the end of the comment or the next
                // `lint-ok(` marker (stacked allows in one comment).
                let end = r.find("lint-ok(").unwrap_or(r.len());
                r[..end].trim().trim_end_matches(';').trim().to_string()
            }
            None => String::new(),
        };
        if !rule.is_empty() {
            out.push((rule, reason));
        }
    }
    out
}

/// Attaches each `lint-ok` comment to the code lines it governs: the same
/// line for trailing comments; for own-line comments, the following
/// *statement* — from the next non-blank code line through the first line
/// whose code ends in `;`, `{` or `}` — so one comment covers a multi-line
/// expression (a `fetch_update` chain, a builder pipeline) the way an
/// attribute-style allow scopes to the statement under it. A comment that
/// governs no code line is not an allow.
fn attach_allows(file: &mut SourceFile, comments: &[Comment]) {
    for comment in comments {
        let entries = parse_lint_ok(&comment.text);
        if entries.is_empty() {
            continue;
        }
        let lines = match last_token(file, comment.line) {
            Some(_) => Some(comment.line..=comment.line),
            None => statement_after(file, comment.line),
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

/// The last non-whitespace char of 1-based `line`'s code, if any.
fn last_token(file: &SourceFile, line: usize) -> Option<char> {
    file.line_code(line)
        .iter()
        .rev()
        .find(|c| !c.is_whitespace())
        .copied()
}

/// The statement starting at the first non-blank line after `line`: through
/// the first line whose code ends in `;`, `{` or `}`, stopping short of a
/// blank line.
fn statement_after(file: &SourceFile, line: usize) -> Option<RangeInclusive<usize>> {
    let start = (line + 1..=file.lines.len()).find(|&l| last_token(file, l).is_some())?;
    let mut end = start;
    while !matches!(last_token(file, end), Some(';' | '{' | '}'))
        && end < file.lines.len()
        && last_token(file, end + 1).is_some()
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

    #[test]
    fn lines_and_columns_of_the_flat_buffer() {
        let f = file("ab\n\ncd\n");
        assert_eq!(f.line_code(3), ['c', 'd']);
        assert!(f.line_code(2).is_empty() && f.line_code(4).is_empty());
        assert_eq!((f.line(4), f.col(4)), (3, 0));
        assert_eq!((f.line(99), f.line(0)), (3, 1));
    }

    #[test]
    fn words_respect_boundaries() {
        let chars: Vec<char> = "all(loom, test) latest test_util test".chars().collect();
        assert_eq!(words(&chars, "test"), vec![10, 33]);
    }
}
