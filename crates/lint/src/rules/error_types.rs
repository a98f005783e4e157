//! `crate-error-types`: public fallible functions return the crate's own
//! error type.
//!
//! `Box<dyn Error>` and `Result<_, String>` in a public signature make the
//! failure mode unmatchable for callers and erase the error taxonomy the
//! workspace crates deliberately maintain (`TensorError`, `NnError`,
//! `ServeError`, …). The rule scans every `pub fn` signature (multi-line
//! aware) and flags return types that mention `Box<dyn ..>` or use `String`
//! as the error arm of a `Result`.

use super::emit;
use crate::diagnostics::Finding;
use crate::lexer::is_ident_char;
use crate::source::{delim_extent, ident_at, skip_ws, words, SourceFile};

const HELP: &str = "return the crate's error enum (see its `error.rs`), or justify with \
`// lint-ok(crate-error-types): <reason>` on the `fn` line";

/// Flags every `pub [const|unsafe|async|extern ".."] fn` of a library file
/// whose return type is an erased or stringly error. `pub(crate)` /
/// `pub(super)` are not public API and are skipped.
pub(crate) fn crate_error_types(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.lib {
        return;
    }
    let code = &file.code;
    for at in words(code, "pub") {
        // Qualifiers up to `fn` (an ABI string is scrubbed to spaces).
        let mut fn_at = skip_ws(code, at + "pub".len()..);
        while let Some(q) = fn_at {
            let word = ident_at(code, q);
            if !["const", "unsafe", "async", "extern"].contains(&word.as_str()) {
                break;
            }
            fn_at = skip_ws(code, q + word.len()..);
        }
        let Some(fn_at) = fn_at.filter(|&f| ident_at(code, f) == "fn") else {
            continue;
        };
        let name_at = skip_ws(code, fn_at + 2..).unwrap_or(code.len());
        let name = ident_at(code, name_at);
        let name_len = name.chars().count();
        let Some(problem) = return_type(code, name_at + name_len).and_then(offending_return_type)
        else {
            continue;
        };
        emit(
            file,
            "crate-error-types",
            (
                file.line(fn_at),
                file.col(fn_at) + 1,
                "fn ".len() + name_len,
            ),
            format!("public fn `{name}` returns {problem} instead of the crate error type"),
            HELP,
            out,
        );
    }
}

/// How `chars[i]` moves the bracket depth of a type: `<`, `(` and `[` open,
/// `>`, `)` and `]` close, and the `>` of a `->` arrow does neither.
fn nesting(chars: &[char], i: usize) -> i32 {
    match chars[i] {
        '<' | '(' | '[' => 1,
        '>' if i > 0 && chars[i - 1] == '-' => 0,
        '>' | ')' | ']' => -1,
        _ => 0,
    }
}

/// Scans a signature from `start` (past the fn name) to its body `{` or its
/// `;` and returns the return type: the text after the top-level `->`, cut
/// at a top-level `where`.
fn return_type(code: &[char], start: usize) -> Option<&[char]> {
    let (mut depth, mut arrow, mut cut) = (0, None, None);
    let mut k = start;
    while k < code.len() {
        let c = code[k];
        if (c == '{' || c == ';') && depth <= 0 {
            break;
        }
        if is_ident_char(c) {
            let word = ident_at(code, k);
            if word == "where" && depth == 0 && arrow.is_some() {
                cut.get_or_insert(k);
            }
            k += word.chars().count();
            continue;
        }
        if c == '>' && code[k - 1] == '-' && depth == 0 {
            arrow.get_or_insert(k + 1);
        }
        depth += nesting(code, k);
        k += 1;
    }
    let ret = arrow?;
    Some(&code[ret..cut.unwrap_or(k)])
}

/// Describes the offending pattern in the return type `ret`, if any.
fn offending_return_type(ret: &[char]) -> Option<&'static str> {
    // The `<` opening each `Box<..>` or `Result<..>` in `ret`.
    let generics = |word: &'static str| {
        words(ret, word)
            .into_iter()
            .filter_map(move |at| skip_ws(ret, at + word.len()..).filter(|&o| ret[o] == '<'))
    };
    // `Box<dyn ..Error..>` anywhere in the return type. A plain trait
    // object (`Box<dyn Rule>`) is a legitimate return value; only erased
    // *errors* defeat the crate's error taxonomy. The boxed path runs to
    // the `>` matching the `<`.
    for open in generics("Box") {
        let boxed = skip_ws(ret, open + 1..)
            .filter(|&d| ident_at(ret, d) == "dyn")
            .map(|d| &ret[d..delim_extent(ret, open) - 1]);
        if boxed.is_some_and(|b| !words(b, "Error").is_empty()) {
            return Some("`Box<dyn Error>`");
        }
    }
    // `Result<_, String>` (the error arm is the last top-level comma arg).
    for open in generics("Result") {
        let (mut depth, mut comma, mut k) = (1, None, open + 1);
        while k < ret.len() && depth > 0 {
            if ret[k] == ',' && depth == 1 {
                comma = Some(k);
            }
            depth += nesting(ret, k);
            k += 1;
        }
        let err = comma.map(|c| ret[c + 1..(k - 1).max(c + 1)].iter().collect::<String>());
        if err.is_some_and(|e| e.trim() == "String") {
            return Some("`Result<_, String>`");
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::from_source("src/lib.rs".into(), true, src);
        let mut out = Vec::new();
        crate_error_types(&file, &mut out);
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

    #[test]
    fn where_clause_on_its_own_line_ends_the_return_type() {
        let src = "pub fn f<T>() -> Result<T, String>\nwhere\n    T: Default,\n{\n    todo!()\n}\n";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn string_in_a_where_bound_is_not_the_error_arm() {
        let src = "pub fn g<T>() -> Result<T, MyError> where T: Into<String> { todo!() }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn fn_pointer_bound_in_a_where_clause_is_not_the_return_type() {
        let src = "pub fn h<F>(f: F) -> Result<(), MyError> where F: Fn() -> Result<(), String> { todo!() }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn async_fns_are_scanned() {
        assert_eq!(
            run("pub async fn i() -> Result<(), String> { Ok(()) }\n").len(),
            1
        );
    }
}
