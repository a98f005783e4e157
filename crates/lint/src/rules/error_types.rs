//! `crate-error-types`: public fallible functions return the crate's own
//! error type.
//!
//! `Box<dyn Error>` and `Result<_, String>` in a public signature make the
//! failure mode unmatchable for callers and erase the error taxonomy the
//! workspace crates deliberately maintain (`TensorError`, `NnError`,
//! `ServeError`, …). The rule scans every `pub fn` signature (multi-line
//! aware) and flags return types that mention `Box<dyn ..>` or use `String`
//! as the error arm of a `Result`.

use super::{RawMatch, Rule};
use crate::diagnostics::Finding;
use crate::lexer::is_ident_char;
use crate::source::{FileKind, SourceFile};

const HELP: &str = "return the crate's error enum (see its `error.rs`), or justify with \
`// lint-ok(crate-error-types): <reason>` on the `fn` line";

/// See module docs.
#[derive(Debug)]
pub struct CrateErrorTypes;

impl Rule for CrateErrorTypes {
    fn id(&self) -> &'static str {
        "crate-error-types"
    }

    fn summary(&self) -> &'static str {
        "public fallible fns return the crate's error type, not \
         `Box<dyn Error>` or `Result<_, String>`"
    }

    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.kind != FileKind::Lib {
            return;
        }
        let joined = file.code.join("\n");
        let chars: Vec<char> = joined.chars().collect();
        // 0-based (line, column) for every char offset.
        let mut pos = Vec::with_capacity(chars.len() + 1);
        {
            let (mut line, mut col) = (0usize, 0usize);
            for &c in &chars {
                pos.push((line, col));
                if c == '\n' {
                    line += 1;
                    col = 0;
                } else {
                    col += 1;
                }
            }
            pos.push((pos.last().map(|&(l, _)| l).unwrap_or(0), 0));
        }

        for sig in pub_fn_signatures(&chars) {
            let Some(ret) = sig.return_type else { continue };
            let Some(problem) = offending_return_type(&ret) else {
                continue;
            };
            let (line0, col0) = pos[sig.fn_offset];
            super::emit(
                self.id(),
                HELP,
                file,
                RawMatch {
                    line: line0 + 1,
                    column: col0 + 1,
                    width: 2 + 1 + sig.name.chars().count(),
                    message: format!(
                        "public fn `{}` returns {problem} instead of the crate error type",
                        sig.name
                    ),
                },
                out,
            );
        }
    }
}

/// A `pub fn` signature located in scrubbed code.
struct PubFnSig {
    /// Char offset of the `fn` keyword.
    fn_offset: usize,
    /// Function name.
    name: String,
    /// Text of the return type (after `->`, before `{`/`;`/`where`), if any.
    return_type: Option<String>,
}

/// Scans for `pub [const|unsafe|async|extern ".."] fn name .. (-> ret)?`.
/// `pub(crate)` / `pub(super)` are not public API and are skipped.
fn pub_fn_signatures(chars: &[char]) -> Vec<PubFnSig> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < chars.len() {
        if !word_at(chars, i, "pub") {
            i += 1;
            continue;
        }
        let mut j = i + 3;
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        if chars.get(j) == Some(&'(') {
            // Restricted visibility: not public API.
            i = j;
            continue;
        }
        // Skip qualifier keywords up to `fn`.
        let mut fn_at = None;
        let mut guard = 0;
        while j < chars.len() && guard < 6 {
            guard += 1;
            if word_at(chars, j, "fn") {
                fn_at = Some(j);
                break;
            }
            let is_qualifier = ["const", "unsafe", "async", "extern"]
                .iter()
                .any(|q| word_at(chars, j, q));
            if !is_qualifier {
                break;
            }
            // Skip the qualifier word (ABI strings are scrubbed to spaces).
            while j < chars.len() && is_ident_char(chars[j]) {
                j += 1;
            }
            while j < chars.len() && (chars[j].is_whitespace()) {
                j += 1;
            }
        }
        let Some(fn_at) = fn_at else {
            i = j.max(i + 3);
            continue;
        };
        // Function name.
        let mut n = fn_at + 2;
        while n < chars.len() && chars[n].is_whitespace() {
            n += 1;
        }
        let name: String = chars[n..]
            .iter()
            .take_while(|c| is_ident_char(**c))
            .collect();
        // Signature body: to the first `{` or `;` outside brackets.
        let mut k = n + name.chars().count();
        let mut angle = 0i32;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut arrow_at = None;
        let sig_end;
        loop {
            if k >= chars.len() {
                sig_end = chars.len();
                break;
            }
            let c = chars[k];
            match c {
                '<' => angle += 1,
                '>' => {
                    if k > 0 && chars[k - 1] == '-' {
                        // `->` arrow, not a closing angle.
                        if angle == 0 && paren == 0 && bracket == 0 && arrow_at.is_none() {
                            arrow_at = Some(k + 1);
                        }
                    } else {
                        angle -= 1;
                    }
                }
                '(' => paren += 1,
                ')' => paren -= 1,
                '[' => bracket += 1,
                ']' => bracket -= 1,
                '{' | ';' if angle <= 0 && paren == 0 && bracket == 0 => {
                    sig_end = k;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let return_type = arrow_at.map(|a| {
            let ret: String = chars[a..sig_end].iter().collect();
            // Trim a trailing `where` clause off the return type.
            match find_top_level_where(&ret) {
                Some(w) => ret[..w].trim().to_string(),
                None => ret.trim().to_string(),
            }
        });
        out.push(PubFnSig {
            fn_offset: fn_at,
            name,
            return_type,
        });
        i = sig_end.max(i + 3);
    }
    out
}

/// Byte offset of a top-level `where` keyword in a return-type string.
fn find_top_level_where(ret: &str) -> Option<usize> {
    let chars: Vec<char> = ret.chars().collect();
    let mut depth = 0i32;
    let mut byte = 0usize;
    for (i, &c) in chars.iter().enumerate() {
        match c {
            '<' | '(' | '[' => depth += 1,
            // `->` of a nested fn pointer is not a closing bracket.
            '>' if i > 0 && chars[i - 1] == '-' => {}
            '>' | ')' | ']' => depth -= 1,
            'w' if depth == 0 && word_at(&chars, i, "where") => return Some(byte),
            _ => {}
        }
        byte += c.len_utf8();
    }
    None
}

/// Returns a description of the offending pattern in `ret`, if any.
fn offending_return_type(ret: &str) -> Option<String> {
    let chars: Vec<char> = ret.chars().collect();
    // `Box<dyn ..Error..>` anywhere in the return type. A plain trait
    // object (`Box<dyn Rule>`) is a legitimate return value; only erased
    // *errors* defeat the crate's error taxonomy.
    for i in 0..chars.len() {
        if word_at(&chars, i, "Box") {
            let mut j = i + 3;
            while j < chars.len() && chars[j].is_whitespace() {
                j += 1;
            }
            if chars.get(j) == Some(&'<') {
                let mut k = j + 1;
                while k < chars.len() && chars[k].is_whitespace() {
                    k += 1;
                }
                if word_at(&chars, k, "dyn") {
                    // Capture the boxed path up to the matching `>`.
                    let mut depth = 1i32;
                    let mut m = j + 1;
                    while m < chars.len() && depth > 0 {
                        match chars[m] {
                            '<' => depth += 1,
                            '>' => depth -= 1,
                            _ => {}
                        }
                        m += 1;
                    }
                    let boxed: String = chars[k..m.saturating_sub(1)].iter().collect();
                    if crate::source::contains_word(&boxed, "Error") {
                        return Some("`Box<dyn Error>`".to_string());
                    }
                }
            }
        }
    }
    // `Result<_, String>` (the error arm is the last top-level comma arg).
    for i in 0..chars.len() {
        if !word_at(&chars, i, "Result") {
            continue;
        }
        let mut j = i + "Result".len();
        while j < chars.len() && chars[j].is_whitespace() {
            j += 1;
        }
        if chars.get(j) != Some(&'<') {
            continue;
        }
        let mut depth = 1i32;
        let mut k = j + 1;
        let mut last_comma = None;
        while k < chars.len() && depth > 0 {
            match chars[k] {
                '<' => depth += 1,
                // `->` of a nested fn pointer is not a closing bracket.
                '>' if k > 0 && chars[k - 1] == '-' => {}
                '>' => depth -= 1,
                '(' | '[' => depth += 1,
                ')' | ']' => depth -= 1,
                ',' if depth == 1 => last_comma = Some(k),
                _ => {}
            }
            k += 1;
        }
        if let Some(comma) = last_comma {
            let err_ty: String = chars[comma + 1..k.saturating_sub(1)].iter().collect();
            if err_ty.trim() == "String" {
                return Some("`Result<_, String>`".to_string());
            }
        }
    }
    None
}

/// `true` when the identifier `word` starts at char offset `i`.
fn word_at(chars: &[char], i: usize, word: &str) -> bool {
    let needle: Vec<char> = word.chars().collect();
    if i + needle.len() > chars.len() || chars[i..i + needle.len()] != needle[..] {
        return false;
    }
    let before_ok = i == 0 || !is_ident_char(chars[i - 1]);
    let after = i + needle.len();
    let after_ok = after >= chars.len() || !is_ident_char(chars[after]);
    before_ok && after_ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use std::path::PathBuf;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::from_source(
            PathBuf::from("mem.rs"),
            "src/lib.rs".into(),
            FileKind::Lib,
            src,
        );
        let mut out = Vec::new();
        CrateErrorTypes.check(&file, &mut out);
        out
    }

    #[test]
    fn box_dyn_error_return_is_flagged() {
        let out = run("pub fn load() -> Result<u8, Box<dyn std::error::Error>> { todo!() }\n");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("load"));
        assert!(out[0].message.contains("Box<dyn Error>"));
    }

    #[test]
    fn non_error_trait_objects_are_fine() {
        assert!(run("pub fn rules() -> Vec<Box<dyn Rule>> { Vec::new() }\n").is_empty());
    }

    #[test]
    fn string_error_arm_is_flagged_across_lines() {
        let src =
            "pub fn parse(\n    input: &str,\n) -> Result<Config,\n    String> {\n    todo!()\n}\n";
        let out = run(src);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Result<_, String>"));
        assert_eq!(out[0].line, 1);
    }

    #[test]
    fn crate_error_type_passes() {
        let src = "pub fn load() -> Result<u8, TensorError> { Ok(0) }\npub fn name() -> String { String::new() }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn pub_crate_fns_are_not_public_api() {
        assert!(run("pub(crate) fn inner() -> Result<(), String> { Ok(()) }\n").is_empty());
    }

    #[test]
    fn private_fns_are_out_of_scope() {
        assert!(run("fn helper() -> Result<(), String> { Ok(()) }\n").is_empty());
    }

    #[test]
    fn closure_arrows_in_generics_do_not_confuse_the_scanner() {
        let src = "pub fn map<F: Fn(u8) -> u8>(f: F) -> Result<u8, MyError> { Ok(f(0)) }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn alias_result_without_comma_passes() {
        assert!(run("pub fn go() -> Result<()> { Ok(()) }\n").is_empty());
    }

    #[test]
    fn lint_ok_on_fn_line_suppresses() {
        let src = "// lint-ok(crate-error-types): binary-style helper kept for scripts\npub fn legacy() -> Result<(), String> { Ok(()) }\n";
        assert!(run(src).is_empty());
    }
}
