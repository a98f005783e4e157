//! A minimal Rust surface lexer: the one module that knows Rust's surface
//! grammar.
//!
//! The rule engine never needs a full parse tree — every invariant it
//! checks is visible at the token surface (`Ordering::Relaxed`,
//! `KernelScope::enter(..)`, a `pub fn` signature). What it *does* need is
//! to never be fooled by a pattern inside a string literal or a comment,
//! and to see comments separately so `// lint-ok(...)` allowlists can be
//! attached to code lines. [`lex`] provides exactly that: one token per
//! word, punctuation mark or literal, each with its position and, for an
//! opening delimiter, the index of its matching close; plus the comments,
//! returned apart.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A run of identifier chars: an identifier, a keyword or a number.
    Word,
    /// One punctuation char, or `::` / `->`.
    Punct,
    /// A string, byte-string, raw-string, char or byte literal.
    Literal,
    /// A line or block comment, markers included; [`lex`] returns these
    /// apart from the code tokens.
    Comment,
}

/// One token of the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: Kind,
    /// The token's source text.
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
    /// 0-based char column the token starts at.
    pub col: usize,
    /// For `(`, `[` and `{`: the index of the matching close (the token
    /// count when unclosed). For every other token: its own index.
    pub close: usize,
}

impl Token {
    /// `true` when the token's text is `text`.
    pub fn is(&self, text: &str) -> bool {
        self.text == text
    }
}

/// `true` when the texts of `tokens[i..]` start with `pattern`.
pub fn seq(tokens: &[Token], i: usize, pattern: &[&str]) -> bool {
    pattern
        .iter()
        .enumerate()
        .all(|(k, p)| tokens.get(i + k).is_some_and(|t| t.is(p)))
}

/// The index of the body `{` of the item whose header runs from `from`:
/// the first `{` or `;` from there, when it is a `{`.
pub fn body(tokens: &[Token], from: usize) -> Option<usize> {
    let q = (from..tokens.len()).find(|&q| tokens[q].is("{") || tokens[q].is(";"))?;
    tokens[q].is("{").then_some(q)
}

/// `true` for characters that can appear inside a Rust identifier.
fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into its code tokens and its comments, both in source
/// order.
pub fn lex(src: &str) -> (Vec<Token>, Vec<Token>) {
    let chars: Vec<char> = src.chars().collect();
    let at = |i: usize| chars.get(i).copied();
    let (mut tokens, mut comments): (Vec<Token>, _) = (Vec::new(), Vec::new());
    let mut open: Vec<usize> = Vec::new();
    let (mut i, mut line, mut line_start) = (0usize, 1usize, 0usize);
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            if c == '\n' {
                (line, line_start) = (line + 1, i + 1);
            }
            i += 1;
            continue;
        }
        let (end, kind) = match c {
            '/' if at(i + 1) == Some('/') => {
                let len = chars[i..].iter().position(|&c| c == '\n');
                (len.map_or(chars.len(), |n| i + n), Kind::Comment)
            }
            '/' if at(i + 1) == Some('*') => (block_comment_end(&chars, i), Kind::Comment),
            '"' => (quoted_end(&chars, i + 1, '"'), Kind::Literal),
            '\'' if !is_lifetime(&chars, i) => (quoted_end(&chars, i + 1, '\''), Kind::Literal),
            'b' if matches!(at(i + 1), Some('"' | '\'')) => {
                (quoted_end(&chars, i + 2, chars[i + 1]), Kind::Literal)
            }
            _ if is_ident_char(c) => match raw_string_end(&chars, i) {
                Some(end) => (end, Kind::Literal),
                None => {
                    let len = chars[i..].iter().take_while(|&&c| is_ident_char(c)).count();
                    (i + len, Kind::Word)
                }
            },
            ':' if at(i + 1) == Some(':') => (i + 2, Kind::Punct),
            '-' if at(i + 1) == Some('>') => (i + 2, Kind::Punct),
            _ => (i + 1, Kind::Punct),
        };
        let token = Token {
            kind,
            text: chars[i..end].iter().collect(),
            line,
            col: i - line_start,
            close: tokens.len(),
        };
        for (k, _) in chars[i..end].iter().enumerate().filter(|(_, &c)| c == '\n') {
            (line, line_start) = (line + 1, i + k + 1);
        }
        i = end;
        if kind == Kind::Comment {
            comments.push(token);
            continue;
        }
        // Code that compiles closes delimiters in order, so a close pairs
        // with the innermost open one.
        match token.text.as_str() {
            "(" | "[" | "{" => open.push(token.close),
            ")" | "]" | "}" => open
                .pop()
                .into_iter()
                .for_each(|o| tokens[o].close = token.close),
            _ => {}
        }
        tokens.push(token);
    }
    for o in open {
        tokens[o].close = tokens.len();
    }
    (tokens, comments)
}

/// A `'` at `i` starts a lifetime (`'a`), not a char literal (`'a'`,
/// `'\n'`); the lifetime's `'` lexes as punctuation.
fn is_lifetime(chars: &[char], i: usize) -> bool {
    chars
        .get(i + 1)
        .is_some_and(|&n| is_ident_char(n) && chars.get(i + 2) != Some(&'\''))
}

/// End (exclusive) of a quoted literal whose body starts at `i`: past the
/// first unescaped `quote`. An unterminated char literal ends at the
/// newline (code that compiles has none).
fn quoted_end(chars: &[char], mut i: usize, quote: char) -> usize {
    while let Some(&c) = chars.get(i) {
        match c {
            '\\' => i += 2,
            '\n' if quote == '\'' => return i,
            _ if c == quote => return i + 1,
            _ => i += 1,
        }
    }
    chars.len()
}

/// End (exclusive) of the raw string (`r"…"`, `r#"…"#`, `br##"…"##`)
/// starting at `i`, or `None` when none does.
fn raw_string_end(chars: &[char], i: usize) -> Option<usize> {
    let prefix = match chars[i..] {
        ['r', ..] => 1,
        ['b', 'r', ..] => 2,
        _ => return None,
    };
    let hashes = chars[i + prefix..]
        .iter()
        .take_while(|&&c| c == '#')
        .count();
    (chars.get(i + prefix + hashes) == Some(&'"')).then_some(())?;
    let close: Vec<char> = std::iter::once('"').chain(vec!['#'; hashes]).collect();
    let end = (i + prefix + hashes + 1..chars.len()).find(|&k| chars[k..].starts_with(&close));
    Some(end.map_or(chars.len(), |k| k + close.len()))
}

/// End (exclusive) of the (possibly nested) block comment starting at `i`.
fn block_comment_end(chars: &[char], mut i: usize) -> usize {
    let mut depth = 0usize;
    while i + 1 < chars.len() {
        match (chars[i], chars[i + 1]) {
            ('/', '*') => depth += 1,
            ('*', '/') => depth -= 1,
            _ => {
                i += 1;
                continue;
            }
        }
        i += 2;
        if depth == 0 {
            return i;
        }
    }
    chars.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The non-literal tokens of `src`, space-separated.
    fn code(src: &str) -> String {
        let tokens = lex(src).0.into_iter().filter(|t| t.kind != Kind::Literal);
        tokens.map(|t| t.text).collect::<Vec<_>>().join(" ")
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        let src = "let x = \"panic!\"; // unwrap() here\nlet y = 1;\n";
        let (tokens, comments) = lex(src);
        assert_eq!(code(src), "let x = ; let y = 1 ;");
        assert_eq!(tokens[3].text, "\"panic!\"");
        assert_eq!(
            (comments[0].line, &*comments[0].text),
            (1, "// unwrap() here")
        );
    }

    #[test]
    fn tokens_carry_line_and_column() {
        let (tokens, comments) = lex("a\n\"two\nlines\"\nb /* c\nd */ e\n");
        let at: Vec<_> = tokens.iter().map(|t| (&*t.text, t.line, t.col)).collect();
        assert_eq!(
            at,
            [
                ("a", 1, 0),
                ("\"two\nlines\"", 2, 0),
                ("b", 4, 0),
                ("e", 5, 5)
            ]
        );
        assert_eq!(comments[0].line, 4);
    }

    #[test]
    fn delimiters_are_paired() {
        let (tokens, _) = lex("f(a[0], { b });");
        let closes: Vec<usize> = tokens.iter().map(|t| t.close).collect();
        assert_eq!(closes, [0, 10, 2, 5, 4, 5, 6, 9, 8, 9, 10, 11]);
        assert_eq!(
            lex("{ (").0[0].close,
            2,
            "unclosed opens point past the end"
        );
    }

    #[test]
    fn paths_and_arrows_are_one_token() {
        assert_eq!(code("a::b -> c > d"), "a :: b -> c > d");
    }

    #[test]
    fn raw_byte_and_escaped_strings_are_literals() {
        let src = "r#\"has \"quotes\" unwrap()\"# br#\"x\"# b\"y\" r##\"one \"# z\"## b'\\''";
        assert_eq!(
            code(&format!("{src} \"he \\\"unwrap()\\\" said\"; call();")),
            "; call ( ) ;"
        );
    }

    #[test]
    fn identifiers_starting_with_r_or_b_are_words() {
        assert_eq!(code("attr rb r#type b1"), "attr rb r # type b1");
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let q = '\\''; g(c, n) }";
        let code = code(src);
        assert!(code.contains("< ' a >"), "{code}");
        assert!(
            code.contains("let c = ; let n = ; let q = ; g ( c , n )"),
            "{code}"
        );
    }

    #[test]
    fn nested_block_and_trailing_line_comments() {
        let (tokens, comments) = lex("a /* outer /* inner */ still comment */ b // tail");
        assert_eq!(tokens.len(), 2);
        let texts: Vec<&str> = comments.iter().map(|c| &*c.text).collect();
        assert_eq!(texts, ["/* outer /* inner */ still comment */", "// tail"]);
    }

    #[test]
    fn brace_and_slash_char_literals_are_not_punctuation() {
        let src = "let open = '{'; let close = '}'; let sl = '/'; f(); // tail";
        assert_eq!(code(src), "let open = ; let close = ; let sl = ; f ( ) ;");
    }
}
