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
use crate::lexer::{seq, Kind, Token};
use crate::source::SourceFile;

const HELP: &str = "return the crate's error enum (see its `error.rs`), or justify with \
`// lint-ok(crate-error-types): <reason>` on the `fn` line";

/// Flags every `pub [const|unsafe|async|extern ".."] fn` of a library file
/// whose return type is an erased or stringly error. `pub(crate)` /
/// `pub(super)` are not public API and are skipped.
pub(crate) fn crate_error_types(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.lib {
        return;
    }
    let t = &file.tokens;
    for at in (0..t.len()).filter(|&at| t[at].is("pub")) {
        // Qualifiers up to `fn`, an `extern` ABI string among them.
        let qualifier = |q: &&Token| {
            q.kind == Kind::Literal
                || ["const", "unsafe", "async", "extern"].contains(&q.text.as_str())
        };
        let fn_at = at + 1 + t[at + 1..].iter().take_while(qualifier).count();
        if !seq(t, fn_at, &["fn"]) {
            continue;
        }
        let Some(name) = t.get(fn_at + 1).filter(|n| n.kind == Kind::Word) else {
            continue;
        };
        let Some(problem) = return_type(t, fn_at + 2).and_then(offending_return_type) else {
            continue;
        };
        emit(
            file,
            "crate-error-types",
            (
                t[fn_at].line,
                t[fn_at].col + 1,
                "fn ".len() + name.text.chars().count(),
            ),
            format!(
                "public fn `{}` returns {problem} instead of the crate error type",
                name.text
            ),
            HELP,
            out,
        );
    }
}

/// How a token moves the bracket depth of a type: `<`, `(` and `[` open,
/// `>`, `)` and `]` close (an `->` arrow is one token and does neither).
fn nesting(t: &Token) -> i32 {
    match t.text.as_str() {
        "<" | "(" | "[" => 1,
        ">" | ")" | "]" => -1,
        _ => 0,
    }
}

/// `(index, token)` of the tokens at depth 0 of `tokens`.
fn top_level(tokens: &[Token]) -> impl Iterator<Item = (usize, &Token)> {
    let mut depth = 0;
    tokens.iter().enumerate().filter(move |(_, t)| {
        let top = depth == 0;
        depth += nesting(t);
        top
    })
}

/// The tokens of `tokens` before the first top-level one `stop` matches.
fn up_to(tokens: &[Token], stop: impl Fn(&Token) -> bool) -> &[Token] {
    let end = top_level(tokens).find(|(_, t)| stop(t));
    &tokens[..end.map_or(tokens.len(), |(e, _)| e)]
}

/// Scans a signature from `start` (past the fn name) to its body `{` or its
/// `;` and returns the return type: the tokens after the top-level `->`,
/// cut at a top-level `where`.
fn return_type(t: &[Token], start: usize) -> Option<&[Token]> {
    let (mut depth, mut arrow, mut cut) = (0, None, None);
    let sig = t.get(start..)?;
    let mut end = sig.len();
    for (k, tok) in sig.iter().enumerate() {
        if depth <= 0 && (tok.is("{") || tok.is(";")) {
            end = k;
            break;
        }
        if depth == 0 && tok.is("where") && arrow.is_some() {
            cut.get_or_insert(k);
        }
        if depth == 0 && tok.is("->") {
            arrow.get_or_insert(k + 1);
        }
        depth += nesting(tok);
    }
    Some(&sig[arrow?..cut.unwrap_or(end)])
}

/// Describes the offending pattern in the return type `ret`, if any.
fn offending_return_type(ret: &[Token]) -> Option<&'static str> {
    // The arguments inside each `Box<..>` or `Result<..>` of `ret`.
    let generics = |word: &'static str| {
        (0..ret.len())
            .filter(move |&k| seq(ret, k, &[word, "<"]))
            .map(|k| up_to(&ret[k + 2..], |t| nesting(t) < 0))
    };
    // `Box<dyn ..Error..>` anywhere in the return type. A plain trait
    // object (`Box<dyn Rule>`) is a legitimate return value; only erased
    // *errors* defeat the crate's error taxonomy. The boxed path runs to
    // the closing `>` or a top-level `->`.
    for args in generics("Box") {
        let path = up_to(args, |t| t.is("->"));
        if path.first().is_some_and(|d| d.is("dyn")) && path.iter().any(|t| t.is("Error")) {
            return Some("`Box<dyn Error>`");
        }
    }
    // `Result<_, String>` (the error arm is the last top-level comma arg).
    for args in generics("Result") {
        let comma = top_level(args).filter(|(_, t)| t.is(",")).last();
        if comma.is_some_and(|(c, _)| matches!(&args[c + 1..], [e] if e.is("String"))) {
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
