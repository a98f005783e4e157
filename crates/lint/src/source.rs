//! Per-file analysis model: scrubbed lines, test-region map, and
//! `// lint-ok(<rule>): <reason>` allowlist attachment.

use crate::lexer::{is_ident_char, scrub, Comment};
use crate::LintError;
use std::path::{Path, PathBuf};

/// How a file participates in its crate's build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Part of the library target (`src/**`, minus bins).
    Lib,
    /// A binary target (`src/main.rs`, `src/bin/**`).
    Bin,
    /// A Criterion bench target (`benches/**`).
    Bench,
    /// An example target (`examples/**`).
    Example,
}

/// One `lint-ok` allowlist entry attached to a code line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// The rule id being allowed.
    pub rule: String,
    /// The justification after the colon (always non-empty; entries with an
    /// empty reason are reported as findings instead of honored).
    pub reason: String,
    /// 1-based line of the comment itself.
    pub comment_line: usize,
}

/// A source file prepared for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Path relative to the lint root, with `/` separators (for reports).
    pub rel: String,
    /// Build role of the file.
    pub kind: FileKind,
    /// Original source lines (for diagnostics snippets).
    pub lines: Vec<String>,
    /// Scrubbed lines: comments and literal bodies blanked (for matching).
    pub code: Vec<String>,
    /// `is_test[i]` is true when 0-based line `i` is inside `#[cfg(test)]`
    /// / `#[test]` / `#[bench]` scope.
    pub is_test: Vec<bool>,
    /// Allowlist entries per 0-based line.
    pub allows: Vec<Vec<Allow>>,
    /// `lint-ok` comments with an empty reason (reported, never honored).
    pub malformed_allows: Vec<usize>,
}

impl SourceFile {
    /// Loads and prepares `path` for linting.
    ///
    /// # Errors
    ///
    /// Returns [`LintError::Io`] when the file cannot be read.
    pub fn load(path: &Path, rel: String, kind: FileKind) -> Result<SourceFile, LintError> {
        let src = std::fs::read_to_string(path).map_err(|e| LintError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(SourceFile::from_source(path.to_path_buf(), rel, kind, &src))
    }

    /// Builds the model from in-memory source (used by unit tests).
    pub fn from_source(path: PathBuf, rel: String, kind: FileKind, src: &str) -> SourceFile {
        let scrubbed = scrub(src);
        let lines: Vec<String> = src.lines().map(str::to_string).collect();
        let code: Vec<String> = scrubbed.code.lines().map(str::to_string).collect();
        let is_test = mark_test_regions(&code);
        let (allows, malformed_allows) = attach_allows(&scrubbed.comments, &code);
        SourceFile {
            path,
            rel,
            kind,
            lines,
            code,
            is_test,
            allows,
            malformed_allows,
        }
    }

    /// Looks up the allow entry for `rule` on 1-based line `line`, if any.
    pub fn allow_for(&self, line: usize, rule: &str) -> Option<&Allow> {
        self.allows
            .get(line.checked_sub(1)?)?
            .iter()
            .find(|a| a.rule == rule)
    }

    /// `true` when 1-based `line` is inside test-only code.
    pub fn is_test_line(&self, line: usize) -> bool {
        line.checked_sub(1)
            .and_then(|i| self.is_test.get(i).copied())
            .unwrap_or(false)
    }
}

/// Marks every line covered by a `#[cfg(test)]`-gated item, `#[test]` fn or
/// `#[bench]` fn. Detection is brace-based over scrubbed code: from the
/// attribute, scan to the item's opening `{` (or a `;` for an out-of-line
/// `mod tests;`, which marks only that line) and take the matching-brace
/// extent.
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let joined = code.join("\n");
    let chars: Vec<char> = joined.chars().collect();
    let mut is_test = vec![false; code.len()];

    // Byte-ish offsets of line starts in `joined` (char offsets, really).
    let mut line_of = vec![0usize; chars.len() + 1];
    {
        let mut line = 0usize;
        for (i, &c) in chars.iter().enumerate() {
            line_of[i] = line;
            if c == '\n' {
                line += 1;
            }
        }
        line_of[chars.len()] = line;
    }

    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] != '#' {
            i += 1;
            continue;
        }
        // `#[ ... ]` — capture the attribute content.
        let mut j = i + 1;
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        if chars.get(j) != Some(&'[') {
            i += 1;
            continue;
        }
        let attr_start = j + 1;
        let mut depth = 1i32;
        let mut k = attr_start;
        while k < chars.len() && depth > 0 {
            match chars[k] {
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => {}
            }
            k += 1;
        }
        let attr: String = chars[attr_start..k.saturating_sub(1)].iter().collect();
        if !is_test_attr(&attr) {
            i = k;
            continue;
        }
        // Scan past any further attributes to the item body.
        let mut p = k;
        loop {
            while p < chars.len() && chars[p].is_whitespace() {
                p += 1;
            }
            if chars.get(p) == Some(&'#') {
                // Another attribute; skip it.
                let mut q = p + 1;
                while q < chars.len() && chars[q].is_whitespace() {
                    q += 1;
                }
                if chars.get(q) == Some(&'[') {
                    let mut d = 1i32;
                    let mut r = q + 1;
                    while r < chars.len() && d > 0 {
                        match chars[r] {
                            '[' => d += 1,
                            ']' => d -= 1,
                            _ => {}
                        }
                        r += 1;
                    }
                    p = r;
                    continue;
                }
            }
            break;
        }
        // Find the item's `{` or a terminating `;` first.
        let mut open = None;
        let mut q = p;
        while q < chars.len() {
            match chars[q] {
                '{' => {
                    open = Some(q);
                    break;
                }
                ';' => break,
                _ => {}
            }
            q += 1;
        }
        let end = match open {
            Some(open) => {
                let mut d = 1i32;
                let mut r = open + 1;
                while r < chars.len() && d > 0 {
                    match chars[r] {
                        '{' => d += 1,
                        '}' => d -= 1,
                        _ => {}
                    }
                    r += 1;
                }
                r
            }
            None => q.min(chars.len()),
        };
        let first = line_of[i.min(chars.len())];
        let last = line_of[end.min(chars.len())];
        for flag in is_test
            .iter_mut()
            .take((last + 1).min(code.len()))
            .skip(first)
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
    let rest = rest.trim_start();
    let Some(cond) = rest.strip_prefix('(') else {
        return false;
    };
    // Drop everything inside `not(...)` groups, then look for a standalone
    // `test` token in what remains.
    let mut cleaned = String::new();
    let chars: Vec<char> = cond.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] == 'n' && cond[i..].starts_with("not") {
            let mut j = i + 3;
            while j < chars.len() && chars[j].is_whitespace() {
                j += 1;
            }
            if chars.get(j) == Some(&'(') {
                let mut d = 1i32;
                let mut r = j + 1;
                while r < chars.len() && d > 0 {
                    match chars[r] {
                        '(' => d += 1,
                        ')' => d -= 1,
                        _ => {}
                    }
                    r += 1;
                }
                i = r;
                continue;
            }
        }
        cleaned.push(chars[i]);
        i += 1;
    }
    contains_word(&cleaned, "test")
}

/// Word-boundary substring search over identifier characters.
pub fn contains_word(hay: &str, word: &str) -> bool {
    let hay: Vec<char> = hay.chars().collect();
    let needle: Vec<char> = word.chars().collect();
    if needle.is_empty() || hay.len() < needle.len() {
        return false;
    }
    for start in 0..=hay.len() - needle.len() {
        if hay[start..start + needle.len()] != needle[..] {
            continue;
        }
        let before_ok = start == 0 || !is_ident_char(hay[start - 1]);
        let after = start + needle.len();
        let after_ok = after >= hay.len() || !is_ident_char(hay[after]);
        if before_ok && after_ok {
            return true;
        }
    }
    false
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
        if !rule
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            rest = &rest[close + 1..];
            continue;
        }
        rest = &rest[close + 1..];
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
/// attribute-style allow scopes to the statement under it.
fn attach_allows(comments: &[Comment], code: &[String]) -> (Vec<Vec<Allow>>, Vec<usize>) {
    let mut allows: Vec<Vec<Allow>> = vec![Vec::new(); code.len()];
    let mut malformed = Vec::new();
    for comment in comments {
        let entries = parse_lint_ok(&comment.text);
        if entries.is_empty() {
            continue;
        }
        let idx = comment.line - 1;
        let own_line_code = code.get(idx).map(|l| !l.trim().is_empty()).unwrap_or(false);
        let targets: Vec<usize> = if own_line_code {
            vec![idx]
        } else {
            statement_extent(code, idx + 1)
        };
        for (rule, reason) in entries {
            if reason.is_empty() {
                malformed.push(comment.line);
                continue;
            }
            for &t in &targets {
                allows[t].push(Allow {
                    rule: rule.clone(),
                    reason: reason.clone(),
                    comment_line: comment.line,
                });
            }
        }
    }
    (allows, malformed)
}

/// The 0-based line indices of the statement starting at or after `from`:
/// the first non-blank code line, then every following line until (and
/// including) one whose trimmed code ends in `;`, `{` or `}`.
fn statement_extent(code: &[String], from: usize) -> Vec<usize> {
    let Some(start) = (from..code.len()).find(|&i| !code[i].trim().is_empty()) else {
        return Vec::new();
    };
    let mut extent = Vec::new();
    for (i, line) in code.iter().enumerate().skip(start) {
        let trimmed = line.trim_end();
        if trimmed.is_empty() && i > start {
            break;
        }
        extent.push(i);
        if trimmed.ends_with(';') || trimmed.ends_with('{') || trimmed.ends_with('}') {
            break;
        }
    }
    extent
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::from_source(PathBuf::from("mem.rs"), "mem.rs".into(), FileKind::Lib, src)
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
    fn contains_word_respects_boundaries() {
        assert!(contains_word("all(loom, test)", "test"));
        assert!(!contains_word("latest", "test"));
        assert!(!contains_word("test_util", "test"));
    }
}
